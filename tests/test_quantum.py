import itertools
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cosetcodes import (BudgetExceededError, NotSelfOrthogonalError, certify_dual,
                        compute_cosets, derive_quantum, generator_matrix, search)
from cosetcodes import quantum
from cosetcodes.codes import field_for_table
from cosetcodes.linalg import GFMatrix, gram_is_zero, pow_entrywise
from cosetcodes.quantum import build_compatibility_graph
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
    assert not gram_is_zero(pow_entrywise(g.mat, 2), g.mat)


def test_family_0_5_is_actually_self_orthogonal(t21):
    # the image of {5,17,20} is {2,8,11}, which is not in the family
    rep = derive_quantum(t21.family([0, 5]), 2)
    assert rep.self_orthogonal
    assert rep.triple() == (22, 14, 2)


def test_gram_and_containment_agree_on_random_families(t21, t51q16, t80q9, t24q25):
    # three routes: Gram product, containment in T (derive_quantum) and the graph
    rng = np.random.default_rng(8)
    for table, ell in ((t21, 2), (t51q16, 4), (t80q9, 3), (t24q25, 5)):
        graph = build_compatibility_graph(table, ell)
        for _ in range(12):
            size = int(rng.integers(1, 5))
            ids = set(rng.choice(len(table), size=size, replace=False).tolist())
            ids.add(table.coset_of(0))
            fam = table.family(table.cosets[i].min_rep for i in ids)
            rep = derive_quantum(fam, ell, require_self_orthogonal=False)
            g = generator_matrix(fam)
            assert gram_is_zero(pow_entrywise(g.mat, ell), g.mat) == rep.self_orthogonal
            assert graph.is_admissible(fam.members) == rep.self_orthogonal


def test_compatibility_graph_n21(t21):
    graph = build_compatibility_graph(t21, 2)
    by_rep = {t21.cosets[i].min_rep: i for i in range(len(t21))}
    assert graph.is_admissible([by_rep[1], by_rep[2], by_rep[3]])
    assert graph.image[by_rep[5]] == by_rep[2]
    assert not graph.is_admissible([by_rep[2], by_rep[5]])
    assert sorted(t21.cosets[i].min_rep for i in graph.excluded) == [7, 14]
    assert not graph.is_admissible([by_rep[7]])


def test_compatibility_graph_symmetry(t21, t51, t63, t51q16):
    for table, ell in ((t21, 2), (t51, 2), (t63, 2), (t51q16, 4)):
        graph = build_compatibility_graph(table, ell)
        for v in range(len(table)):
            assert graph.image[graph.image[v]] == v
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


@pytest.mark.parametrize("name", ["t8q9", "t26q9"])
def test_search_matches_powerset_oracle_odd_characteristic(request, name):
    table = request.getfixturevalue(name)
    res = search(table, 3)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(table, 3)


@pytest.mark.parametrize("name,ell,frontier", [
    ("t8q9", 3, [(7, 2), (5, 3)]),
    ("t24q25", 5, [(23, 2), (21, 3), (19, 4), (17, 5)]),
])
def test_odd_characteristic_frontiers_are_quantum_mds(request, name, ell, frontier):
    # the quantum Singleton bound k <= N - 2d + 2 (N = n+1) holds with
    # equality, so every degree bound here is the exact distance
    table = request.getfixturevalue(name)
    assert search(table, ell).frontier() == frontier
    for qk, d in frontier:
        assert qk == table.n + 1 - 2 * d + 2


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
    with pytest.raises(ValueError, match="objective 'pareto' takes no target"):
        search(t51, 2, target=3)


def test_search_min_quantum_k_floor(t51q16):
    res = search(t51q16, 4, min_quantum_k=30)
    assert all(r.quantum_k >= 30 for r in res.reports)
    assert (30, 7) in res.frontier()


def test_search_leaves_the_recursion_limit_alone(monkeypatch):
    table = compute_cosets(64, 4095)
    # this test pins the traversal, not the 427 Gram checks of its reports,
    # which would build 4096-column generator matrices over GF(64^m); the
    # Gram route is pinned by test_gram_and_containment_agree_on_random_families
    # and the frontier golden digests
    symbols = field_for_table(table).subfield_view(64).field
    zero = GFMatrix(symbols, np.zeros((1, 1), dtype=np.uint16))
    monkeypatch.setattr(quantum, "generator_matrix",
                        lambda family: SimpleNamespace(mat=zero))
    limit = sys.getrecursionlimit()
    res = search(table, 8, node_budget=3000)
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


def test_certify_dual_returns_certificate_or_refuses():
    table = compute_cosets(4, 5)  # cosets mod 5: {0}, {1,4}, {2,3}
    rep = derive_quantum(table.family([0, 1]), 2)
    cert = certify_dual(rep)
    assert cert.enumerated == 4 ** rep.t_family.dim() - 1
    assert cert.value >= rep.d_lower
    # too small a budget: the refusal names it
    with pytest.raises(BudgetExceededError, match="exceeds budget 10"):
        certify_dual(rep, budget=10)


def test_refused_certify_dual_builds_no_matrix(t21, monkeypatch):
    rep = derive_quantum(t21.family([0, 1, 2, 3]), 2)

    def no_matrix(family):
        raise AssertionError("C_T's generator matrix was built")

    monkeypatch.setattr(quantum, "generator_matrix", no_matrix)
    with pytest.raises(BudgetExceededError):
        certify_dual(rep, budget=100)


def test_certify_dual_takes_a_report_that_is_not_self_orthogonal():
    table = compute_cosets(4, 9)  # {1,4,7} is its own image: never self-orthogonal
    rep = derive_quantum(table.family([0, 1]), 2, require_self_orthogonal=False)
    assert not rep.self_orthogonal
    cert = certify_dual(rep)
    assert cert.enumerated == 4 ** rep.t_family.dim() - 1 == 4 ** 6 - 1
    assert cert.value >= rep.d_lower


def test_report_json_schema(t21):
    rep = derive_quantum(t21.family([0, 1, 2, 3]), 2)
    obj = rep.to_json_obj()
    assert list(obj) == ["ell", "q", "n", "block_length", "S", "T", "classical_k",
                         "quantum_k", "d_lower", "self_orthogonal", "field"]
    assert obj["ell"] == 2 and obj["q"] == 4
    assert obj["field"]["p"] == 2 and obj["field"]["e"] == 6
    assert certify_dual(rep).value == 6


def test_reference_table_contents():
    assert len(REFERENCE_CODES_8ARY) == 8
    assert (589, 553, 4) in REFERENCE_CODES_8ARY
