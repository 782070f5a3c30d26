"""Record the reference values the benchmark's checks compare against.

Run from the repository root:  python3 perfbench/make_reference.py

It writes perfbench/reference.json: the minimum distance of each certify
code, the (quantum_k, d) frontier of each frontier search, and for each
duality setting a pool of admissible families with the cosets their
recorded dual families leave out.  Every pool family at one setting has the same coset sizes, so
the cost of the duals in a pass does not depend on which families a seed picks.
Rerun it only when a result is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cosetcodes import codes, duality, linalg, quantum  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = 8
POOL_COSETS = 3  # nonzero cosets per pool family, all of the largest size


def admissible_pool(table, ell: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Distinct admissible families of POOL_COSETS largest cosets plus {0}."""
    graph = quantum.build_compatibility_graph(table, ell)
    size = max(table.cosets[v].size for v in graph.vertices)
    choosable = [v for v in graph.vertices if table.cosets[v].size == size]
    pool = set()
    while len(pool) < POOL_SIZE:
        chosen = rng.sample(choosable, POOL_COSETS)
        if graph.is_admissible(chosen):
            pool.add(tuple(sorted(table.cosets[v].min_rep for v in chosen)))
    return [(0,) + reps for reps in sorted(pool)]


def main() -> None:
    rng = random.Random(1308)
    tables = workloads.setup(sorted({*workloads.Certify.settings(),
                                     *workloads.Frontier.settings()}))
    ref = {"certify": {}, "frontier": {}, "duality": {}}
    for code, (q, n, reps, _) in workloads.CERTIFY_CODES.items():
        g = codes.generator_matrix(tables[(q, n)].family(reps)).mat
        ref["certify"][code] = {"d": linalg.min_distance_exhaustive(g).value}
    for name, ell, n, qk, _ in workloads.frontier_settings():
        res = quantum.search(tables[(ell * ell, n)], ell, min_quantum_k=qk)
        ref["frontier"][name] = [list(p) for p in res.frontier()]
    for ell, n in workloads.DUALITY_SETTINGS:
        table = tables[(ell * ell, n)]
        entries = []
        for reps in admissible_pool(table, ell, rng):
            family = table.family(reps)
            entries.append({
                "family": list(reps),
                "hermitian": workloads.excluded_reps(
                    duality.hermitian_dual(family, ell=ell).family_dual),
                "euclidean": workloads.excluded_reps(duality.euclidean_dual(family).family_dual),
            })
        ref["duality"][f"ell{ell}_n{n}"] = entries
    (HERE / "reference.json").write_text(dumps(ref))


def dumps(ref: dict) -> str:
    """JSON with one line per workload entry, so a changed value shows in a diff."""
    sections = []
    for name, entries in ref.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        sections.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    main()
