import itertools
import sys

import pytest

from cosetcodes import (NotSelfOrthogonalError, build_compatibility_graph,
                        compare_with_reference, derive_quantum, compute_cosets,
                        gram_is_zero, generator_matrix, search)
from cosetcodes.fixtures import load_known_answers

REFERENCE_CODES_8ARY = tuple(tuple(t) for t in load_known_answers()["reference_codes_8ary"])


def _image(table, ell, cid):
    return table.dual_coset(table.scaled_coset(cid, ell))


def _frontier_by_powerset(table, ell):
    """Definition-level oracle: all subsets of nonzero cosets, no pruning."""
    zero = table.coset_of(0)
    nonzero = [i for i in range(len(table)) if i != zero]
    points = {}
    for size in range(len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, size):
            chosen = set(combo)
            images = {_image(table, ell, v) for v in chosen}
            if images & chosen:
                continue  # not self-orthogonal
            k = 1 + sum(table.cosets[v].size for v in chosen)
            qk = table.n + 1 - 2 * k
            if qk < 0:
                continue
            uncovered = [table.cosets[v].max_elem for v in nonzero
                         if _image(table, ell, v) not in images]
            d = table.n + 1 - max(uncovered, default=0)
            points[(qk, d)] = True
    pareto = []
    for qk, d in points:
        if not any((q2 >= qk and d2 >= d and (q2, d2) != (qk, d))
                   for q2, d2 in points):
            pareto.append((qk, d))
    return sorted(pareto, reverse=True)


@pytest.mark.parametrize("reps,triple", [
    ([0, 1, 2, 3], (22, 2, 6)),
])
def test_derive_quantum_n21(t21, reps, triple):
    rep = derive_quantum(t21.family(reps), 2)
    assert rep.triple() == triple
    assert rep.self_orthogonal
    assert rep.classical_k == 10


def test_derive_quantum_n51(t51):
    rep = derive_quantum(t51.family([0, 1, 2, 6]), 2)
    assert rep.triple() == (52, 26, 6)


def test_derive_quantum_n63(t63):
    assert derive_quantum(t63.family([0, 1, 2]), 2).triple() == (64, 50, 4)
    assert derive_quantum(t63.family([0, 1, 2, 6]), 2).triple() == (64, 44, 6)


def test_derive_quantum_16ary_and_64ary(t51q16, t585):
    assert derive_quantum(t51q16.family([0, 12, 8, 4]), 4).triple() == (52, 38, 5)
    assert derive_quantum(t585.family([0, 8, 16]), 8).triple() == (586, 576, 4)


def test_distance_window_formula_agrees(t21, t51, t63):
    # the largest d whose top window is fully covered equals the degree bound
    import numpy as np
    rng = np.random.default_rng(3)
    for table in (t21, t51, t63):
        graph = build_compatibility_graph(table, 2)
        for _ in range(8):
            size = int(rng.integers(0, 4))
            chosen = [v for v in rng.choice(len(table), size=size, replace=False)
                      if v != table.coset_of(0)]
            if not graph.is_admissible(chosen):
                continue
            fam = table.family([0] + [table.cosets[v].min_rep for v in chosen])
            rep = derive_quantum(fam, 2)
            covered = fam.scale(2).dual()
            best = 1
            for d in range(2, table.n + 2):
                window = range(table.n + 2 - d, table.n)
                need = {table.coset_of(a) for a in window}
                if need <= set(covered.members):
                    best = d
                else:
                    break
            assert rep.d_lower == best


def test_self_orthogonality_violation_names_the_pair(t21):
    with pytest.raises(NotSelfOrthogonalError) as exc:
        derive_quantum(t21.family([0, 7]), 2)
    assert exc.value.violations == [(7, 7)]
    assert "S_7" in str(exc.value)


def test_non_orthogonal_family_report_with_flag(t21):
    rep = derive_quantum(t21.family([0, 7]), 2, require_self_orthogonal=False)
    assert not rep.self_orthogonal
    g = generator_matrix(t21.family([0, 7]))
    assert not gram_is_zero(g.mat, g.mat, "hermitian", ell=2)


def test_family_0_5_is_actually_self_orthogonal(t21):
    # the image of {5,17,20} is {2,8,11}, which is not in the family
    rep = derive_quantum(t21.family([0, 5]), 2)
    assert rep.self_orthogonal
    assert rep.triple() == (22, 14, 2)


def test_gram_and_containment_agree_on_random_families(t21):
    import numpy as np
    rng = np.random.default_rng(8)
    for _ in range(12):
        size = int(rng.integers(1, 5))
        ids = set(rng.choice(len(t21), size=size, replace=False).tolist())
        ids.add(t21.coset_of(0))
        fam = t21.family(t21.cosets[i].min_rep for i in ids)
        rep = derive_quantum(fam, 2, require_self_orthogonal=False)
        g = generator_matrix(fam)
        assert gram_is_zero(g.mat, g.mat, "hermitian", ell=2) == rep.self_orthogonal


def test_compatibility_graph_n21(t21):
    graph = build_compatibility_graph(t21, 2)
    by_rep = {t21.cosets[i].min_rep: i for i in range(len(t21))}
    assert graph.is_admissible([by_rep[1], by_rep[2], by_rep[3]])
    assert by_rep[2] in graph.adj[by_rep[5]]
    assert not graph.is_admissible([by_rep[2], by_rep[5]])
    assert sorted(t21.cosets[i].min_rep for i in graph.excluded) == [7, 14]
    assert not graph.is_admissible([by_rep[7]])


def test_compatibility_graph_symmetry(t21, t51, t63, t51q16):
    for table, ell in ((t21, 2), (t51, 2), (t63, 2), (t51q16, 4)):
        graph = build_compatibility_graph(table, ell)
        for v, nbrs in graph.adj.items():
            for u in nbrs:
                assert v in graph.adj[u]
        for v in graph.vertices:
            img = _image(table, ell, v)
            assert _image(table, ell, img) == v


def test_search_matches_powerset_oracle_n21(t21):
    res = search(t21, 2)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(t21, 2)


def test_search_matches_powerset_oracle_n51(t51):
    # 14 nonzero cosets: 16384 subsets, exact reference frontier
    res = search(t51, 2)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(t51, 2)


def test_search_required_points_n63(t63):
    frontier = search(t63, 2).frontier()
    for pt in [(50, 4), (44, 6), (38, 7), (32, 8)]:
        assert pt in frontier


def test_search_required_points_16ary(t51q16):
    frontier = search(t51q16, 4).frontier()
    for pt in [(38, 5), (34, 6), (30, 7), (26, 8), (22, 9), (18, 10), (14, 12)]:
        assert pt in frontier


def test_search_rediscovers_published_families(t21, t585):
    res = search(t21, 2)
    best = [r for r in res.reports if r.quantum_k == 2][0]
    assert best.family_s.reps() == (0, 1, 2, 3)
    res585 = search(t585, 8, min_quantum_k=560)
    top = [r for r in res585.reports if r.quantum_k == 576][0]
    assert top.family_s.reps() == (0, 8, 16)


def test_search_objectives(t51):
    best_d = search(t51, 2, objective="max_d_given_k", target=26)
    assert [r.triple() for r in best_d.reports] == [(52, 26, 6)]
    best_k = search(t51, 2, objective="max_k_given_d", target=7)
    assert [r.triple() for r in best_k.reports] == [(52, 18, 7)]
    with pytest.raises(ValueError):
        search(t51, 2, objective="max_k_given_d")
    with pytest.raises(ValueError):
        search(t51, 2, objective="nonsense")


def test_search_min_quantum_k_floor(t51q16):
    res = search(t51q16, 4, min_quantum_k=30)
    assert all(r.quantum_k >= 30 for r in res.reports)
    assert (30, 7) in res.frontier()


def test_search_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    res = search(compute_cosets(64, 4095), 8, node_budget=3000, verify=False)
    assert sys.getrecursionlimit() == limit
    # counts recorded from the recursive formulation of the same traversal
    assert res.complete and res.nodes == 853 and len(res.reports) == 427


def test_search_node_budget_flags_incomplete(t51):
    res = search(t51, 2, node_budget=3)
    assert not res.complete


def test_emitted_reports_are_self_orthogonal_with_even_deficit(t21, t63):
    for table in (t21, t63):
        for rep in search(table, 2).reports:
            assert rep.self_orthogonal
            assert (rep.block_length - rep.quantum_k) % 2 == 0
            assert rep.quantum_k >= 0


def test_certificate_attaches_when_dual_fits_budget():
    table = compute_cosets(4, 5)  # cosets mod 5: {0}, {1,4}, {2,3}
    rep = derive_quantum(table.family([0, 1]), 2, certify=True)
    cert = rep.distance_certificate
    assert cert is not None
    assert cert.enumerated == 4 ** rep.t_family.dim() - 1
    assert cert.value >= rep.d_lower
    # too small a budget: bound-only report
    rep2 = derive_quantum(table.family([0, 1]), 2, certify=True, budget=10)
    assert rep2.distance_certificate is None


def test_report_json_schema(t21):
    rep = derive_quantum(t21.family([0, 1, 2, 3]), 2, certify=True)
    obj = rep.to_json_obj()
    for key in ("ell", "q", "n", "block_length", "S", "T", "classical_k",
                "quantum_k", "d_lower", "self_orthogonal", "field",
                "distance_certificate"):
        assert key in obj
    assert obj["ell"] == 2 and obj["q"] == 4
    assert obj["field"]["p"] == 2 and obj["field"]["e"] == 6
    assert obj["distance_certificate"]["value"] == 6


def test_compare_with_reference_records(t585):
    res = search(t585, 8, min_quantum_k=560)
    r576 = [r for r in res.reports if r.quantum_k == 576][0]
    recs = compare_with_reference(r576, REFERENCE_CODES_8ARY)
    assert [c.reference for c in recs] == [(589, 553, 4)]
    assert recs[0].delta_k == 23 and recs[0].delta_n == -3
    r568 = [r for r in res.reports if r.quantum_k == 568][0]
    recs6 = compare_with_reference(r568, REFERENCE_CODES_8ARY)
    assert {c.reference for c in recs6} == {(589, 513, 6), (627, 531, 6), (629, 557, 6)}
    assert all(c.delta_k > 0 and c.delta_n < 0 for c in recs6)


def test_comparison_against_own_triple_is_zero(t21):
    rep = derive_quantum(t21.family([0, 1, 2, 3]), 2)
    recs = compare_with_reference(rep, reference=(rep.triple(),))
    assert len(recs) == 1
    assert recs[0].delta_k == 0 and recs[0].delta_n == 0


def test_reference_table_contents():
    assert len(REFERENCE_CODES_8ARY) == 8
    assert (589, 553, 4) in REFERENCE_CODES_8ARY
