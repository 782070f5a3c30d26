"""Known-answer regression suite bundled with the package.

The fixture file records, for a handful of settings, the coset tables,
classical code parameters with certified distances, dual families,
quantum parameter triples, must-contain frontier points, and the
reference comparisons.  :data:`CHECKS` maps each section to a checker
that yields one entry's results, and :func:`run_all` is one loop over
every entry of every section.  The checkers share each coset table and
each frontier, searched once per setting and floor: a ``search_points``
entry at its own floor, other checks at the least one listed, or at 0.

Two fixture entries ("published_exceeding_bound") record published
parameter claims whose distances exceed what the degree bound can
certify at that dimension.  Those are reported as informational lines,
labelled "degree bound:", with the best that bound reaches instead, not
as failures; see the test suite for the full forced-cover argument.  So
is each exhaustive certification that the enumeration budget refuses:
its line quotes the refusal, and only the bound stands.  The dual-code
check derives its quantum report first and then certifies C_T with
:func:`~cosetcodes.quantum.certify_dual`, a separate step.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources

from . import cosets, duality, quantum
from .codes import classical_params, generator_matrix, truncated_family
from .linalg import DEFAULT_BUDGET, min_distance_exhaustive, within_budget


@dataclass(frozen=True)
class FixtureResult:
    name: str
    status: str      # "pass" | "fail" | "info"
    expected: str
    computed: str

    def line(self) -> str:
        return f"[{self.status.upper():4s}] {self.name}: expected {self.expected}, computed {self.computed}"


def load_known_answers() -> dict:
    with resources.files("cosetcodes.data").joinpath("known_answers.json").open() as f:
        return json.load(f)


def _result(name: str, ok: bool, expected, computed) -> FixtureResult:
    return FixtureResult(name, "pass" if ok else "fail", str(expected), str(computed))


class _Run:
    """What the checkers share: certify, budget, and cached tables and frontiers."""

    def __init__(self, data: dict, certify: bool, budget: int):
        self.certify, self.budget = certify, budget
        self.table = functools.cache(cosets.compute_cosets)
        # the least floor listed per setting, the last that a descending sort writes
        self.floors = {(f["ell"], f["n"]): f["min_quantum_k"] for f in sorted(
            data["search_points"], key=lambda f: f["min_quantum_k"], reverse=True)}
        self._search = functools.cache(lambda ell, n, floor: quantum.search(
            self.table(ell**2, n), min_quantum_k=floor))

    def frontier(self, ell: int, n: int, floor: int | None = None) -> quantum.SearchResult:
        """The (ell, n) search at ``floor``, by default the least listed there, or 0."""
        return self._search(ell, n, self.floors.get((ell, n), 0) if floor is None else floor)

    def certified(self, name: str, expected, certifier, check) -> FixtureResult:
        """The (ok, computed) of ``check(certificate)``, or an INFO line quoting a refusal."""
        cert, refusal = within_budget(certifier)
        if refusal is not None:
            return FixtureResult(name, "info", str(expected), f"bound only: {refusal}")
        ok, computed = check(cert)
        return _result(name, ok, expected, computed)


def _coset_tables(run: _Run, fix) -> Iterator[FixtureResult]:
    got = [list(c.elements) for c in run.table(fix["q"], fix["n"]).cosets]
    ok = got == fix["cosets"]
    yield _result(f"cosets q={fix['q']} n={fix['n']}", ok, f"{len(fix['cosets'])} cosets",
                  f"{len(got)} cosets" if ok else "set mismatch")


def _orders(run: _Run, fix) -> Iterator[FixtureResult]:
    q, n, m = fix
    got = cosets.order_mod(q, n)
    yield _result(f"order of {q} mod {n}", got == m, m, got)


def _classical(run: _Run, fix) -> Iterator[FixtureResult]:
    fam = truncated_family(run.table(fix["q"], fix["n"]), fix["r"])
    params, expected = classical_params(fam), (fix["length"], fix["k"], fix["d_bound"])
    setting = f"q={fix['q']} n={fix['n']} r={fix['r']}"
    yield _result(f"classical {setting}", params == expected, list(expected), list(params))
    if run.certify:
        yield run.certified(
            f"certified d {setting}", fix["d_exact"],
            lambda: min_distance_exhaustive(generator_matrix(fam).mat, budget=run.budget),
            lambda cert: (cert.value == fix["d_exact"], cert.value))


def _duality(run: _Run, fix) -> Iterator[FixtureResult]:
    t = run.table(fix["q"], fix["n"])
    dual = duality.euclidean_dual if fix["kind"] == "euclidean" else duality.hermitian_dual
    rep = dual(t.family(fix["family"]))
    excluded = sorted(set(range(len(t))) - set(rep.family_dual.members))
    got_excluded = [list(t.cosets[i].elements) for i in excluded]
    ok = (got_excluded == fix["excluded"] and rep.dim_s == fix["dim_s"]
          and rep.dim_dual == fix["dim_dual"] and rep.ell == fix["ell"])
    yield _result(
        f"{fix['kind']} dual q={fix['q']} n={fix['n']} S={fix['family']}",
        ok, f"excludes {fix['excluded']}, dims {fix['dim_s']}+{fix['dim_dual']}",
        f"excludes {got_excluded}, dims {rep.dim_s}+{rep.dim_dual}")


def _quantum(run: _Run, fix) -> Iterator[FixtureResult]:
    rep = quantum.derive_quantum(run.table(fix["ell"] ** 2, fix["n"]).family(fix["family"]))
    got, expected = rep.triple(), (fix["block_length"], fix["quantum_k"], fix["d"])
    yield _result(
        f"quantum ell={fix['ell']} n={fix['n']} S={fix['family']}",
        got == expected and rep.self_orthogonal,
        f"[[{expected[0]},{expected[1]},>={expected[2]}]]",
        f"[[{got[0]},{got[1]},>={got[2]}]] self_orthogonal={rep.self_orthogonal}")


def _search_points(run: _Run, fix) -> Iterator[FixtureResult]:
    got = run.frontier(fix["ell"], fix["n"], fix["min_quantum_k"]).frontier()
    missing = [tuple(p) for p in fix["points"] if tuple(p) not in got]
    yield _result(
        f"search frontier ell={fix['ell']} n={fix['n']}", not missing,
        f"contains {len(fix['points'])} required points",
        "all present" if not missing else f"missing {missing}")


def _published(run: _Run, fix) -> Iterator[FixtureResult]:
    reports = run.frontier(fix["ell"], fix["n"]).reports
    best_d = max((r.d_lower for r in reports if r.quantum_k >= fix["quantum_k"]), default=0)
    same_d = [r.quantum_k for r in reports if r.d_lower >= fix["d"]]
    at_d = (f"quantum_k={max(same_d)} at d>={fix['d']}"
            if same_d else f"no family reaches d>={fix['d']}")
    yield FixtureResult(
        f"published [[{fix['block_length']},{fix['quantum_k']},{fix['d']}]] (ell={fix['ell']})",
        "info", "published value; distance exceeds the degree bound at this dimension",
        f"degree bound: d>={best_d} at quantum_k>={fix['quantum_k']}; {at_d}")


def _reference(run: _Run, ref) -> Iterator[FixtureResult]:
    ref_n, ref_k, ref_d = ref
    name = f"reference comparison vs {ref}"
    matches = [r for r in run.frontier(8, 585).reports if r.d_lower == ref_d]  # 8-ary, n+1 = 586
    if not matches:
        yield _result(name, False, "a same-distance code", "none found")
        return
    ours = max(matches, key=lambda r: r.quantum_k)
    delta_k, delta_n = ours.quantum_k - ref_k, ours.block_length - ref_n
    yield _result(
        name, delta_k > 0 and delta_n < 0, "larger dimension, smaller length",
        f"ours [{ours.block_length}, {ours.quantum_k}, >={ours.d_lower}], "
        f"delta_k={delta_k}, delta_n={delta_n}")


def _t_certification(run: _Run, fix) -> Iterator[FixtureResult]:
    if not run.certify:
        return
    rep = quantum.derive_quantum(run.table(fix["ell"] ** 2, fix["n"]).family(fix["family"]))
    dim = rep.t_family.dim()
    yield run.certified(
        f"dual-code certification ell={fix['ell']} n={fix['n']}",
        f"dim {fix['t_dim']}, exact d {fix['d_exact']}",
        lambda: quantum.certify_dual(rep, budget=run.budget),
        lambda cert: (dim == fix["t_dim"] and cert.value == fix["d_exact"]
                      and cert.enumerated == rep.q ** fix["t_dim"] - 1,
                      f"dim {dim}, exact d {cert.value}"))


# one checker per section of known_answers.json, in the order they run
CHECKS = {
    "coset_tables": _coset_tables,
    "orders": _orders,
    "classical": _classical,
    "duality": _duality,
    "quantum": _quantum,
    "search_points": _search_points,
    "published_exceeding_bound": _published,
    "reference_codes_8ary": _reference,
    "t_certification": _t_certification,
}


def run_all(certify: bool = True, budget: int = DEFAULT_BUDGET) -> Iterator[FixtureResult]:
    """Recompute every bundled known answer, yielding one result per check."""
    data = load_known_answers()
    run = _Run(data, certify, budget)
    for section, check in CHECKS.items():
        entries = data[section]
        for entry in entries if isinstance(entries, list) else [entries]:
            yield from check(run, entry)
