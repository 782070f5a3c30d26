import itertools
import sys
from math import isqrt

import numpy as np
import pytest

from cosetcodes import (BudgetExceededError, NotSelfOrthogonalError, VerificationError,
                        certify_dual, compute_cosets, derive_quantum, euclidean_dual,
                        generator_matrix, hermitian_dual, search)
from cosetcodes import linalg, quantum
from cosetcodes.linalg import GFMatrix, gram, gram_is_zero, pow_entrywise
from cosetcodes.quantum import build_compatibility_graph
from cosetcodes.fixtures import load_known_answers
from test_cosets import dual_coset, dual_family

REFERENCE_CODES_8ARY = tuple(tuple(t) for t in load_known_answers()["reference_codes_8ary"])


def _image(table, ell, cid):
    return dual_coset(table, table.scaled_coset(cid, ell))


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
    rep = derive_quantum(t21.family(reps))
    assert rep.triple() == triple
    assert rep.self_orthogonal
    assert rep.classical_k == 10


def test_derive_quantum_n51(t51):
    rep = derive_quantum(t51.family([0, 1, 2, 6]))
    assert rep.triple() == (52, 26, 6)


def test_derive_quantum_n63(t63):
    assert derive_quantum(t63.family([0, 1, 2])).triple() == (64, 50, 4)
    assert derive_quantum(t63.family([0, 1, 2, 6])).triple() == (64, 44, 6)


def test_derive_quantum_16ary_and_64ary(t51q16, t585):
    assert derive_quantum(t51q16.family([0, 12, 8, 4])).triple() == (52, 38, 5)
    assert derive_quantum(t585.family([0, 8, 16])).triple() == (586, 576, 4)


def test_distance_window_formula_agrees(t21, t51, t63):
    # the largest d whose top window is fully covered equals the degree bound
    rng = np.random.default_rng(3)
    for table in (t21, t51, t63):
        graph = build_compatibility_graph(table)
        for _ in range(8):
            size = int(rng.integers(0, 4))
            chosen = [v for v in rng.choice(len(table), size=size, replace=False)
                      if v != table.coset_of(0)]
            if not graph.is_admissible(chosen):
                continue
            fam = table.family([0] + [table.cosets[v].min_rep for v in chosen])
            rep = derive_quantum(fam)
            covered = dual_family(fam.scale(2))
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
        derive_quantum(t21.family([0, 7]))
    assert exc.value.violations == [(7, 7)]
    assert "S_7" in str(exc.value)


def test_non_orthogonal_family_raises_and_has_a_nonzero_gram(t21):
    with pytest.raises(NotSelfOrthogonalError):
        derive_quantum(t21.family([0, 7]))
    g = generator_matrix(t21.family([0, 7]))
    assert not gram_is_zero(pow_entrywise(g.mat, 2), g.mat)


def test_family_0_5_is_actually_self_orthogonal(t21):
    # the image of {5,17,20} is {2,8,11}, which is not in the family
    rep = derive_quantum(t21.family([0, 5]))
    assert rep.self_orthogonal
    assert rep.triple() == (22, 14, 2)


def test_gram_and_containment_agree_on_random_families(t21, t51q16, t80q9, t24q25):
    # three routes: Gram product, containment in T (derive_quantum raises
    # unless S lies in T) and the graph
    rng = np.random.default_rng(8)
    for table, ell in ((t21, 2), (t51q16, 4), (t80q9, 3), (t24q25, 5)):
        graph = build_compatibility_graph(table)
        for _ in range(12):
            size = int(rng.integers(1, 5))
            ids = set(rng.choice(len(table), size=size, replace=False).tolist())
            ids.add(table.coset_of(0))
            fam = table.family(table.cosets[i].min_rep for i in ids)
            try:
                self_orthogonal = derive_quantum(fam).self_orthogonal
            except NotSelfOrthogonalError:
                self_orthogonal = False
            g = generator_matrix(fam)
            assert gram_is_zero(pow_entrywise(g.mat, ell), g.mat) == self_orthogonal
            assert graph.is_admissible(fam.members) == self_orthogonal


def test_compatibility_graph_n21(t21):
    graph = build_compatibility_graph(t21)
    by_rep = {t21.cosets[i].min_rep: i for i in range(len(t21))}
    assert graph.is_admissible([by_rep[1], by_rep[2], by_rep[3]])
    assert graph.image[by_rep[5]] == by_rep[2]
    assert not graph.is_admissible([by_rep[2], by_rep[5]])
    assert sorted(t21.cosets[i].min_rep for i in graph.excluded) == [7, 14]
    assert not graph.is_admissible([by_rep[7]])


def test_compatibility_graph_symmetry(t21, t51, t63, t51q16):
    for table, ell in ((t21, 2), (t51, 2), (t63, 2), (t51q16, 4)):
        graph = build_compatibility_graph(table)
        for v in range(len(table)):
            assert graph.image[graph.image[v]] == v
        for v in graph.vertices:
            img = _image(table, ell, v)
            assert _image(table, ell, img) == v


def test_search_matches_powerset_oracle_n21(t21):
    res = search(t21)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(t21, 2)


def test_search_matches_powerset_oracle_n51(t51):
    # 14 nonzero cosets: 16384 subsets, exact reference frontier
    res = search(t51)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(t51, 2)


@pytest.mark.parametrize("q,n,ell", [
    (9, 8, 3), (9, 26, 3), (16, 15, 4), (16, 17, 4), (64, 13, 8),
])
def test_search_matches_powerset_oracle_across_ell(q, n, ell):
    table = compute_cosets(q, n)
    res = search(table)
    assert res.complete
    assert res.frontier() == _frontier_by_powerset(table, ell)


@pytest.mark.parametrize("name,ell,frontier", [
    ("t8q9", 3, [(7, 2), (5, 3)]),
    ("t24q25", 5, [(23, 2), (21, 3), (19, 4), (17, 5)]),
])
def test_odd_characteristic_frontiers_are_quantum_mds(request, name, ell, frontier):
    # the quantum Singleton bound k <= N - 2d + 2 (N = n+1) holds with
    # equality, so every degree bound here is the exact distance
    table = request.getfixturevalue(name)
    assert table.ell == ell
    assert search(table).frontier() == frontier
    for qk, d in frontier:
        assert qk == table.n + 1 - 2 * d + 2


def test_search_required_points_n63(t63):
    frontier = search(t63).frontier()
    for pt in [(50, 4), (44, 6), (38, 7), (32, 8)]:
        assert pt in frontier


def test_search_required_points_16ary(t51q16):
    frontier = search(t51q16).frontier()
    for pt in [(38, 5), (34, 6), (30, 7), (26, 8), (22, 9), (18, 10), (14, 12)]:
        assert pt in frontier


def test_search_rediscovers_published_families(t21, t585):
    res = search(t21)
    best = [r for r in res.reports if r.quantum_k == 2][0]
    assert best.family_s.reps() == (0, 1, 2, 3)
    res585 = search(t585, min_quantum_k=560)
    top = [r for r in res585.reports if r.quantum_k == 576][0]
    assert top.family_s.reps() == (0, 8, 16)


def _points(reports):
    return [(r.triple(), r.family_s.reps()) for r in reports]


def test_search_floor_examples(t51):
    # the best dimension at d >= 7 is the first report of the frontier
    # floored at d = 7, and the best distance at quantum_k >= 26 the last
    # report of the frontier floored at quantum_k = 26
    assert _points(search(t51, min_d=7).reports[:1]) == [((52, 18, 7), (0, 1, 2, 6, 7))]
    floored = search(t51, min_quantum_k=26).reports
    assert _points(floored[-1:]) == [((52, 26, 6), (0, 1, 2, 6))]


@pytest.mark.parametrize("name", ["t21", "t51", "t63", "t8q9", "t80q9", "t51q16",
                                  "t24q25", "t585"])
def test_search_floors(request, monkeypatch, name):
    # every square-q table of the conftest: the floors cut the full frontier
    table = request.getfixturevalue(name)
    full = search(table).reports
    ds = [r.d_lower for r in full]
    assert ds == sorted(set(ds))  # d strictly rises along the chain
    mid = full[len(full) // 2]
    for t_d in {0, ds[0], mid.d_lower, mid.d_lower + 1, ds[-1]}:
        floored = search(table, min_d=t_d).reports
        eligible = [r for r in full if r.d_lower >= t_d]
        assert _points(floored) == _points(eligible)
        best_k = sorted(eligible, key=lambda r: -r.quantum_k)[:1]
        assert _points(floored[:1]) == _points(best_k)
        both = search(table, min_quantum_k=mid.quantum_k, min_d=t_d).reports
        by_k = _points(search(table, min_quantum_k=mid.quantum_k).reports)
        assert _points(both) == [p for p in _points(floored) if p in by_k]
    # past the top d: no report, and no matrix built
    matrices = _counting(monkeypatch, quantum, "generator_matrix")
    res = search(table, min_d=ds[-1] + 1)
    assert res.reports == () and matrices == []
    assert res.nodes == len(full)  # the walk still weighs every prefix


def test_search_min_quantum_k_floor(t51q16):
    res = search(t51q16, min_quantum_k=30)
    assert all(r.quantum_k >= 30 for r in res.reports)
    assert (30, 7) in res.frontier()


def test_search_leaves_the_recursion_limit_alone(monkeypatch):
    table = compute_cosets(64, 4095)
    # this test pins the traversal, not the Gram check of its 427 reports,
    # which would build the generator matrix of the last prefix, about
    # 2048 x 4096 over GF(64^2), and its Hermitian Gram; the Gram route is
    # pinned by test_search_reports_equal_standalone_derivations, the
    # mutation checks and the frontier golden digests
    monkeypatch.setattr(quantum, "_check_gram", lambda family: None)
    limit = sys.getrecursionlimit()
    res = search(table)
    assert sys.getrecursionlimit() == limit
    # the walk weighs one prefix per frontier point: 427 of them at q=64, n=4095
    assert res.complete and res.nodes == len(res.reports) == 427


# every square q of the conftest tables, with and without a min_quantum_k floor;
# t585 is searched from a floor, as its full frontier derives 61 reports
SEARCHES = [("t21", 2, 0), ("t21", 2, 10), ("t51", 2, 0), ("t51", 2, 30), ("t63", 2, 0),
            ("t63", 2, 40), ("t51q16", 4, 0), ("t51q16", 4, 30), ("t585", 8, 532),
            ("t80q9", 3, 0), ("t80q9", 3, 50), ("t8q9", 3, 0), ("t24q25", 5, 0),
            ("t24q25", 5, 20)]


@pytest.mark.parametrize("name,ell,floor", SEARCHES)
def test_search_reports_equal_standalone_derivations(request, name, ell, floor):
    # the search proves every prefix by the zero Gram product of the last one;
    # derive_quantum checks each family by its own
    table = request.getfixturevalue(name)
    res = search(table, min_quantum_k=floor)
    assert res.reports and all(r.quantum_k >= floor and r.ell == ell for r in res.reports)
    for rep in res.reports:
        alone = derive_quantum(rep.family_s)
        assert alone.triple() == rep.triple()
        assert alone.family_s == rep.family_s and alone.t_family == rep.t_family
        assert alone.self_orthogonal and rep.self_orthogonal
        assert alone.to_json_obj() == rep.to_json_obj()


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_search_builds_one_matrix_and_one_gram(t51q16, monkeypatch):
    matrices = _counting(monkeypatch, quantum, "generator_matrix")
    grams = _counting(monkeypatch, quantum, "gram_is_zero")
    res = search(t51q16)
    assert len(res.reports) > 1
    assert len(matrices) == len(grams) == 1
    # the matrix is the last prefix's, which holds every other prefix
    assert matrices[0][0] == res.reports[-1].family_s


def test_search_with_an_empty_chain_builds_no_matrix(t51, monkeypatch):
    matrices = _counting(monkeypatch, quantum, "generator_matrix")
    grams = _counting(monkeypatch, quantum, "gram_is_zero")
    res = search(t51, min_quantum_k=51)  # {0} alone gives quantum_k 50
    assert res.reports == () and res.nodes == 0
    assert matrices == [] and grams == []


def test_derive_quantum_builds_one_matrix_and_one_gram(t21, monkeypatch):
    matrices = _counting(monkeypatch, quantum, "generator_matrix")
    grams = _counting(monkeypatch, quantum, "gram_is_zero")
    derive_quantum(t21.family([0, 1, 5]))
    assert [m[0].reps() for m in matrices] == [(0, 1, 5)] and len(grams) == 1
    # a rejected family is refused before any matrix is built
    with pytest.raises(NotSelfOrthogonalError):
        derive_quantum(t21.family([0, 7]))
    assert len(matrices) == len(grams) == 1


def _whole_table(table):
    return table.family(c.min_rep for c in table.cosets)


@pytest.mark.parametrize("name,ell", [("t21", 2), ("t51q16", 4), ("t80q9", 3),
                                      ("t24q25", 5)])
def test_gram_blocks_of_the_whole_table_follow_the_image_map(request, name, ell):
    # the oracle behind the zero test: reduced to coset x coset blocks, the
    # Hermitian Gram of every coset's rows has block (A, B) nonzero iff A is
    # nonzero and B = image(A), so a family's product is zero iff it holds no
    # such pair, the pair scan's verdict.  A row of G^(ell) has exponents in
    # ell*A, so its product with a row of B sums alpha^(t(ell*a + b)) over the
    # n-th roots of unity: zero unless B = dual(ell*A).  The zero coset's row
    # is a constant c with self-product (n+1) c^(ell+1) = 0, as p divides n+1.
    table = request.getfixturevalue(name)
    assert table.ell == ell
    family = _whole_table(table)
    g = generator_matrix(family).mat
    nonzero = gram(pow_entrywise(g, ell), g).entries != 0
    starts = np.cumsum([0] + [table.cosets[c].size for c in family.members[:-1]])
    blocks = np.logical_or.reduceat(np.logical_or.reduceat(nonzero, starts, axis=0),
                                    starts, axis=1)
    ids = family.members
    image = quantum.hermitian_image(table)
    zero = table.coset_of(0)
    assert ({(ids[a], ids[b]) for a, b in zip(*np.nonzero(blocks))}
            == {(a, image[a]) for a in range(len(table)) if a != zero})
    assert not gram_is_zero(pow_entrywise(g, ell), g)
    with pytest.raises(NotSelfOrthogonalError):
        derive_quantum(family)


def _perturb_one_block(gram):
    def perturbed(g1, g2):
        out = gram(g1, g2)
        entries = out.entries.copy()
        entries[0, 0] ^= 1  # the zero coset's block with itself
        return GFMatrix(out.field, entries)
    return perturbed


# each mutation with, per table, a self-orthogonal family whose verdict it
# flips: {0, 1, 5} and {0, 16} are not Euclidean self-orthogonal, and the
# (ell+1)-th power has a nonzero Gram on {0, 3} and {0, 16}
@pytest.mark.parametrize("mutate,flipped", [
    (lambda: (linalg, "gram", _perturb_one_block(linalg.gram)),
     {"t21": [0, 1, 5], "t80q9": [0, 16]}),
    (lambda: (quantum, "hermitian_image", lambda table: table._dual),
     {"t21": [0, 1, 5], "t80q9": [0, 16]}),
    (lambda: (quantum, "pow_entrywise", lambda m, k: pow_entrywise(m, k + 1)),
     {"t21": [0, 3], "t80q9": [0, 16]}),
], ids=["perturbed block", "euclidean image map", "wrong ell power"])
@pytest.mark.parametrize("name,ell", [("t21", 2), ("t80q9", 3)])
def test_a_broken_gram_route_raises(request, monkeypatch, mutate, flipped, name, ell):
    table = request.getfixturevalue(name)
    assert table.ell == ell
    family = table.family(flipped[name])
    assert derive_quantum(family).self_orthogonal
    monkeypatch.setattr(*mutate())
    with pytest.raises(VerificationError):
        search(table)
    with pytest.raises(VerificationError):
        derive_quantum(family)


def test_emitted_reports_are_self_orthogonal_with_even_deficit(t21, t63):
    for table in (t21, t63):
        for rep in search(table).reports:
            assert rep.self_orthogonal
            assert (rep.block_length - rep.quantum_k) % 2 == 0
            assert rep.quantum_k >= 0


def test_certify_dual_returns_certificate_or_refuses():
    table = compute_cosets(4, 5)  # cosets mod 5: {0}, {1,4}, {2,3}
    rep = derive_quantum(table.family([0, 1]))
    cert = certify_dual(rep)
    assert cert.enumerated == 4 ** rep.t_family.dim() - 1
    assert cert.value >= rep.d_lower
    # too small a budget: the refusal names it
    with pytest.raises(BudgetExceededError, match="exceeds budget 10"):
        certify_dual(rep, budget=10)


def test_certify_dual_reduces_c_t_once(t21, reductions):
    # the enumeration's rank check reads the reduction of generator_matrix's
    rep = derive_quantum(t21.family([0, 1, 2, 3]))
    reductions.clear()
    cert = certify_dual(rep)
    assert [m.rows for m in reductions] == [rep.t_family.dim()]
    assert cert.enumerated == 4 ** 12 - 1


def test_refused_certify_dual_builds_no_matrix(t21, monkeypatch):
    rep = derive_quantum(t21.family([0, 1, 2, 3]))

    def no_matrix(family):
        raise AssertionError("C_T's generator matrix was built")

    monkeypatch.setattr(quantum, "generator_matrix", no_matrix)
    with pytest.raises(BudgetExceededError):
        certify_dual(rep, budget=100)


def test_ell_is_the_square_root_of_q(t21, t8q9, t51q16, t24q25, t585):
    # every square q of the conftest tables: q fixes ell, and the table holds it
    for table in (t21, t8q9, t51q16, t24q25, t585):
        ell = isqrt(table.q)
        assert ell * ell == table.q and table.ell == ell
        assert derive_quantum(table.family([0])).ell == ell
        assert hermitian_dual(table.family([0])).ell == ell
        assert all(r.ell == ell for r in search(table, min_quantum_k=table.n - 5).reports)
    assert euclidean_dual(t21.family([0])).ell is None


def test_report_json_schema(t21):
    rep = derive_quantum(t21.family([0, 1, 2, 3]))
    obj = rep.to_json_obj()
    assert list(obj) == ["ell", "q", "n", "block_length", "S", "T", "classical_k",
                         "quantum_k", "d_lower", "self_orthogonal", "field"]
    assert obj["ell"] == 2 and obj["q"] == 4
    assert obj["field"]["p"] == 2 and obj["field"]["e"] == 6
    assert certify_dual(rep).value == 6


def test_reference_table_contents():
    assert len(REFERENCE_CODES_8ARY) == 8
    assert (589, 553, 4) in REFERENCE_CODES_8ARY
