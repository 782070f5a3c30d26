"""Acceptance suite: seven exit criteria with their stated runtime limits.

Each criterion prints one summary line (run with ``pytest -s`` to see all
of them); parametrized sub-checks print per case.  Two sub-checks of
criterion 4 assert published parameter points, [[52,24,7]] and
[[52,8,10]], whose distances provably exceed the degree bound reachable
at those dimensions (the powerset oracle in test_quantum confirms the
complete frontier).  They are kept faithful to the published triples
rather than weakened, and fail with an explanatory message.
"""

import time

import numpy as np
import pytest

from cosetcodes import (classical_params, compute_cosets, derive_quantum,
                        euclidean_dual, generator_matrix, hermitian_dual, linalg,
                        min_distance_exhaustive, search, truncated_family)
from cosetcodes.codes import field_for_table
from cosetcodes.linalg import nullspace, rank, row_space_equal
from cosetcodes.quantum import build_compatibility_graph
from conftest import COSET_TABLES, random_subfield_basis
from test_codes import projected_oracle
from test_cosets import dual_coset
from test_quantum import _frontier_by_powerset

_searches = {}


def _search(table, ell, min_quantum_k=0):
    key = (table.q, table.n, ell, min_quantum_k)
    if key not in _searches:
        _searches[key] = search(table, ell, min_quantum_k=min_quantum_k)
    return _searches[key]


def test_criterion_1_coset_fixtures():
    start = time.perf_counter()
    computed = {
        (4, 51): [list(c.elements) for c in compute_cosets(4, 51).cosets],
        (4, 21): [list(c.elements) for c in compute_cosets(4, 21).cosets],
        (4, 63): [list(c.elements) for c in compute_cosets(4, 63).cosets],
    }
    elapsed = time.perf_counter() - start
    assert sorted(computed[(4, 51)]) == sorted(COSET_TABLES[4, 51])
    assert sorted(computed[(4, 21)]) == sorted(COSET_TABLES[4, 21])
    assert sorted(computed[(4, 63)]) == sorted(COSET_TABLES[4, 63])
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: three coset tables reproduced exactly "
          f"({elapsed:.3f} s < 1 s)")


CLASSICAL_CASES = [
    (4, 51, 16, 52, 5, 36),
    (4, 51, 17, 52, 6, 35),
    (4, 63, 16, 64, 4, 48),
    (4, 63, 20, 64, 7, 44),
    (4, 63, 21, 64, 8, 43),
]


def test_criterion_2_classical_parameters_and_distances(t51, t63):
    start = time.perf_counter()
    tables = {51: t51, 63: t63}
    for q, n, r, length, k, bound in CLASSICAL_CASES:
        fam = truncated_family(tables[n], r)
        assert classical_params(fam) == (length, k, bound)
        cert = min_distance_exhaustive(generator_matrix(fam).mat)
        assert cert.value >= bound, f"certified distance violates the degree bound at r={r}"
        if cert.value > bound:
            print(f"\nNOTE: [{length},{k}] certified d={cert.value} exceeds "
                  f"bound {bound}; logged for review")
        assert cert.value == bound
        assert cert.enumerated == q**k - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: five classical codes certified at "
          f"d = 36, 35, 48, 44, 43 ({elapsed:.2f} s < 10 s)")


def test_criterion_3_duality(t51):
    start = time.perf_counter()
    fam = t51.family([0, 1])
    rep_e = euclidean_dual(fam)
    excluded = sorted(set(range(len(t51))) - set(rep_e.family_dual.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[35, 38, 47, 50]]
    assert rep_e.dim_s + rep_e.dim_dual == 52
    assert rep_e.gram_verified and rep_e.nullspace_verified
    assert row_space_equal(generator_matrix(rep_e.family_dual).mat,
                           nullspace(generator_matrix(rep_e.family_s).mat))
    rep_h = hermitian_dual(fam)
    excluded = sorted(set(range(len(t51))) - set(rep_h.family_dual.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[19, 25, 43, 49]]
    assert rep_h.dim_s + rep_h.dim_dual == 52
    assert rep_h.gram_verified and rep_h.nullspace_verified
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: both dual families match, Gram products "
          f"vanish, nullspace oracle agrees ({elapsed:.2f} s < 5 s)")


QUANTUM_FAMILY_CASES = [
    (2, 21, [0, 1, 2, 3], (22, 2, 6)),
    (2, 51, [0, 1, 2, 6], (52, 26, 6)),
    (2, 63, [0, 1, 2], (64, 50, 4)),
    (2, 63, [0, 1, 2, 6], (64, 44, 6)),
    (4, 51, [0, 12, 8, 4], (52, 38, 5)),
    (8, 585, [0, 8, 16], (586, 576, 4)),
]

SEARCH_POINT_CASES = (
    [(2, 21, 0, (2, 6))]
    + [(2, 51, 0, pt) for pt in [(26, 6), (24, 7), (8, 10)]]
    + [(2, 63, 0, pt) for pt in [(50, 4), (44, 6), (38, 7), (32, 8)]]
    + [(4, 51, 0, pt) for pt in [(38, 5), (34, 6), (30, 7), (26, 8),
                                 (22, 9), (18, 10), (14, 12)]]
    + [(8, 585, 532, pt) for pt in [(576, 4), (572, 5), (568, 6), (564, 7),
                                    (560, 8), (556, 9), (552, 10), (548, 11),
                                    (544, 12), (540, 13), (536, 14), (532, 15)]]
)


@pytest.mark.parametrize("ell,n,family,triple", QUANTUM_FAMILY_CASES)
def test_criterion_4_quantum_families(ell, n, family, triple):
    table = compute_cosets(ell * ell, n)
    rep = derive_quantum(table.family(family))
    assert rep.self_orthogonal
    assert rep.triple() == triple
    print(f"\nACCEPTANCE 4 (family) PASS: [[{triple[0]},{triple[1]},>={triple[2]}]]")


@pytest.mark.parametrize("ell,n,min_qk,point", SEARCH_POINT_CASES)
def test_criterion_4_search_finds_each_triple(ell, n, min_qk, point):
    table = compute_cosets(ell * ell, n)
    start = time.perf_counter()
    res = _search(table, ell, min_quantum_k=min_qk)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert res.complete
    assert all(r.self_orthogonal for r in res.reports)
    qk, d = point
    assert point in res.frontier(), (
        f"[[{n + 1},{qk},>={d}]] is not attainable: the exhaustive frontier is "
        f"{res.frontier()}; covering the top-degree window for d={d} forces a "
        f"family whose dimension or conflicts rule out quantum_k={qk} "
        f"(see test_quantum.test_search_matches_powerset_oracle_n51)")
    print(f"\nACCEPTANCE 4 (search) PASS: [[{n + 1},{qk},>={d}]] on the frontier")


def test_criterion_5_exhaustive_dual_distance(t21, monkeypatch):
    monkeypatch.setattr(linalg, "FORK_MIN_ENTRIES", 1)  # jobs=8 forks 7 workers
    rep = derive_quantum(t21.family([0, 1, 2, 3]))
    assert rep.t_family.dim() == 12
    g_t = generator_matrix(rep.t_family)

    start = time.perf_counter()
    cert_seq = min_distance_exhaustive(g_t.mat, jobs=1)
    seq_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    cert_par = min_distance_exhaustive(g_t.mat, jobs=8)
    par_elapsed = time.perf_counter() - start

    assert cert_seq.enumerated == 4**12 - 1
    assert cert_seq.value >= 6
    assert cert_seq.value == 6
    assert cert_par.value == cert_seq.value
    assert cert_par.witness == cert_seq.witness
    assert seq_elapsed < 120.0
    assert par_elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: dual code (dim 12) certified d = 6 over "
          f"16777215 codewords ({seq_elapsed:.1f} s single < 120 s, "
          f"{par_elapsed:.1f} s at 8 workers < 30 s)")


def test_criterion_6_property_suites(t21, t51, t63, t51q16):
    rng = np.random.default_rng(2024)
    settings = [t21, t51, t63, t51q16]
    start = time.perf_counter()

    # rank = sum of coset sizes on 50 random families, entries rational,
    # row spaces invariant under 5 random basis changes per family
    checked_entries = 0
    for i in range(50):
        table = settings[i % 4]
        ctx = field_for_table(table)
        view = ctx.subfield_view(table.q)
        size = int(rng.integers(1, 5))
        ids = rng.choice(len(table), size=size, replace=False)
        fam = table.family(table.cosets[j].min_rep for j in ids)
        g = generator_matrix(fam)
        assert rank(g.mat) == fam.dim()
        parent_values = view.embed[g.mat.entries]
        for v in parent_values.reshape(-1):
            assert ctx.frobenius(int(v), table.q) == int(v)
        checked_entries += g.mat.entries.size
        for _ in range(5):
            bases = {cid: random_subfield_basis(ctx, table.q,
                                                table.cosets[cid].size, rng)
                     for cid in fam.members if table.cosets[cid].size > 1}
            assert row_space_equal(g.mat, projected_oracle(ctx, fam, bases))

    # dual-coset involution and scaling symmetry of the compatibility graph
    for table in (t21, t51, t63, t51q16):
        for cid in range(len(table)):
            assert dual_coset(table, dual_coset(table, cid)) == cid
        graph = build_compatibility_graph(table)
        for v in range(len(table)):
            assert graph.image[graph.image[v]] == v

    # pruned search equals the unpruned powerset frontier
    assert _search(t21, 2).frontier() == _frontier_by_powerset(t21, 2)

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6 PASS: 50 random families (rank, rationality over "
          f"{checked_entries} entries, 5 basis changes each), involution and "
          f"graph symmetry, powerset agreement ({elapsed:.1f} s, exact arithmetic)")


def test_criterion_7_reference_comparison(t585):
    res = _search(t585, 8, min_quantum_k=532)
    reference = [(589, 553, 4), (589, 513, 6), (627, 561, 5), (627, 531, 6),
                 (627, 501, 7), (629, 557, 6), (629, 533, 7), (629, 521, 8)]
    for ref in reference:
        same_d = [r for r in res.reports if r.d_lower == ref[2]]
        assert same_d, f"no frontier code with d = {ref[2]}"
        ours = max(same_d, key=lambda r: r.quantum_k)
        delta_k = ours.quantum_k - ref[1]
        delta_n = ours.block_length - ref[0]
        assert delta_k > 0 and delta_n < 0
        if ref == (589, 553, 4):
            assert delta_k == 23 and delta_n == -3
        if ref == (629, 557, 6):
            assert delta_k == 11 and delta_n == -43
    print("\nACCEPTANCE 7 PASS: all eight reference triples beaten on "
          "dimension at smaller length for equal distance")
