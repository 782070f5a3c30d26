import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import (VerificationError, compute_cosets, derive_quantum, duality,
                        euclidean_dual, euclidean_dual_family, generator_matrix,
                        hermitian_dual, hermitian_dual_family, search)
from cosetcodes.cosets import CosetFamily
from cosetcodes.linalg import (gram_is_zero, nullspace, pow_entrywise,
                               rank_and_rref, row_space_equal)
from cosetcodes.quantum import build_compatibility_graph
from conftest import coset_families


def test_euclidean_dual_worked_example(t51):
    rep = euclidean_dual(t51.family([0, 1]))
    assert (rep.dim_s, rep.dim_dual) == (5, 47)
    assert rep.gram_verified and rep.nullspace_verified
    excluded = sorted(set(range(len(t51))) - set(rep.family_dual.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[35, 38, 47, 50]]


def test_euclidean_dual_of_repetition_code(t51):
    rep = euclidean_dual(t51.family([0]))
    assert (rep.dim_s, rep.dim_dual) == (1, 51)
    assert len(rep.family_dual) == len(t51)


def test_euclidean_dual_n21_derived_case(t21):
    rep = euclidean_dual(t21.family([0, 7]))
    assert (rep.dim_s, rep.dim_dual) == (2, 20)
    excluded = sorted(set(range(len(t21))) - set(rep.family_dual.members))
    assert [list(t21.cosets[i].elements) for i in excluded] == [[14]]


def test_hermitian_dual_worked_example(t51):
    rep = hermitian_dual(t51.family([0, 1]))
    assert (rep.dim_s, rep.dim_dual) == (5, 47)
    excluded = sorted(set(range(len(t51))) - set(rep.family_dual.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[19, 25, 43, 49]]
    assert rep.gram_verified and rep.nullspace_verified


def test_hermitian_dual_trivial_family(t21):
    rep = hermitian_dual(t21.family([0]))
    assert len(rep.family_dual) == len(t21)
    assert rep.dim_s + rep.dim_dual == 22


def test_hermitian_dual_n585_family_level(t585):
    rep = hermitian_dual(t585.family([0, 8, 16]))
    excluded = sorted(set(range(len(t585))) - set(rep.family_dual.members))
    assert [list(t585.cosets[i].elements) for i in excluded] == \
        [[457, 583], [521, 584]]
    assert rep.dim_s + rep.dim_dual == 586


def test_double_hermitian_dual_returns_the_code(t21):
    fam = t21.family([0, 1, 2, 3])
    first = hermitian_dual(fam)
    second = hermitian_dual(first.family_dual)
    assert row_space_equal(generator_matrix(second.family_dual).mat,
                           generator_matrix(first.family_s).mat)


def test_dimensions_complement_on_random_families(t21, t51):
    rng = np.random.default_rng(13)
    for table in (t21, t51):
        for _ in range(6):
            size = int(rng.integers(0, 4))
            ids = set(rng.choice(len(table), size=size, replace=False).tolist())
            ids.add(table.coset_of(0))
            fam = table.family(table.cosets[i].min_rep for i in ids)
            rep = euclidean_dual(fam)
            assert rep.dim_s + rep.dim_dual == table.n + 1
            assert rep.gram_verified and rep.nullspace_verified


def test_dual_generator_row_space_equals_nullspace(t21):
    fam = t21.family([0, 1, 5])
    rep = euclidean_dual(fam)
    g_dual = generator_matrix(rep.family_dual).mat
    ns = nullspace(generator_matrix(rep.family_s).mat)
    assert row_space_equal(g_dual, ns)
    r_ns, canon_ns = rank_and_rref(ns)
    r_dual, canon_dual = rank_and_rref(g_dual)
    assert r_ns == r_dual
    assert np.array_equal(canon_ns.entries, canon_dual.entries)


# a family whose dual family's matrix is the taller one, and one whose
# primal matrix is: dims 5 + 47 at n = 51 and 13 + 9 at n = 21
FAMILIES = [("t51", [0, 1]), ("t21", [0, 1, 2, 3, 5])]


def _wrong_dual(dual: CosetFamily) -> CosetFamily:
    """``dual`` with its last swappable member traded for a left-out coset of equal size."""
    table = dual.table
    for b in reversed(dual.members):
        others = [c for c in range(len(table))
                  if c not in dual and table.cosets[c].size == table.cosets[b].size]
        if others:
            return CosetFamily(table, tuple(m for m in dual.members if m != b) + (others[0],))
    raise AssertionError("no coset to swap")


@pytest.mark.parametrize("route", ["both", "gram", "nullspace"])
@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("name,reps", FAMILIES)
def test_each_route_alone_catches_a_wrong_dual(monkeypatch, request, name, reps,
                                               hermitian, route):
    family = request.getfixturevalue(name).family(reps)
    dual = (hermitian_dual_family if hermitian else euclidean_dual_family)(family)
    assert (family.dim() > dual.dim()) == (name == "t21")
    wrong = _wrong_dual(dual)
    assert wrong != dual and wrong.dim() == dual.dim()
    # "gram" leaves only the Gram route working, "nullspace" only the nullspace route
    if route == "gram":
        monkeypatch.setattr(duality, "row_space_equal", lambda a, b: True)
    if route == "nullspace":
        monkeypatch.setattr(duality, "gram_is_zero", lambda a, b: True)
    match = "nullspace oracle" if route == "nullspace" else "nonzero Gram product"
    with pytest.raises(VerificationError, match=match):
        duality._verified_dual(family, wrong, hermitian)
    assert duality._verified_dual(family, dual, hermitian).nullspace_verified


@pytest.mark.parametrize("dual", [euclidean_dual, hermitian_dual])
@pytest.mark.parametrize("name,reps", FAMILIES)
def test_a_verified_dual_reduces_each_matrix_once(request, reductions, name, reps, dual):
    family = request.getfixturevalue(name).family(reps)
    dual(family)  # the first call also checks the field's subfield bases
    reductions.clear()
    rep = dual(family)
    calls = list(reductions)  # generator_matrix below reduces more
    # the primal and dual matrices by their rank checks, then the nullspace of
    # the taller one; the Hermitian dual adds the scaled family's matrix, while
    # the primal's ell-th power carries the primal's reduction raised entry-wise
    assert len(calls) == (3 if rep.ell is None else 4)
    seen = [(m.entries.shape, m.entries.tobytes()) for m in calls]
    assert len(set(seen)) == len(seen)  # no matrix twice
    for fam in (family, rep.family_dual):
        g = generator_matrix(fam).mat
        assert sum(np.array_equal(m.entries, g.entries) for m in calls) == 1


def test_odd_q_is_refused_only_where_p_does_not_divide_n_plus_1():
    # the zero coset's row is a constant c with self-product (n+1)*c^2
    for q, n in ((9, 10), (25, 12)):
        table = compute_cosets(q, n)
        family = table.family([0])
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            euclidean_dual(family)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            hermitian_dual(family)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            derive_quantum(family)
        # search refuses the table before it walks a node
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            build_compatibility_graph(table)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            search(table)
    # 3 divides n+1 = 9: the dual is verified in odd characteristic
    rep = euclidean_dual(compute_cosets(3, 8).family([0, 1]))
    assert (rep.dim_s, rep.dim_dual) == (3, 6)
    assert rep.gram_verified and rep.nullspace_verified


def test_zero_coset_is_required(t51):
    with pytest.raises(ValueError):
        euclidean_dual(t51.family([1]))


def test_hermitian_requires_square_q(t26q3, t51q16):
    # q = 8 and q = 3 have no Hermitian form, whatever the route
    for table in (compute_cosets(8, 7), t26q3):
        assert table.ell is None
        family = table.family([0])
        for refuse in (hermitian_dual, hermitian_dual_family, derive_quantum,
                       lambda f: search(f.table), lambda f: build_compatibility_graph(f.table)):
            with pytest.raises(ValueError, match=r"needs q = ell\^2 with ell >= 2; got q="):
                refuse(family)
    rep = hermitian_dual(t51q16.family([0]))
    assert rep.ell == 4


def test_a_given_ell_must_be_the_one_q_fixes(t21):
    # perfbench still passes ell to these three; q = 4 fixes ell = 2
    family = t21.family([0])
    for refuse in (lambda: hermitian_dual(family, ell=3), lambda: search(t21, 3),
                   lambda: build_compatibility_graph(t21, 3)):
        with pytest.raises(ValueError, match=r"got q=4, ell=3"):
            refuse()
    assert hermitian_dual(family, ell=2).ell == 2
    assert search(t21, 2).frontier() == search(t21).frontier()
    assert build_compatibility_graph(t21, 2).image == build_compatibility_graph(t21).image


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_dimensions_sum_to_length(t21, t51, t63, t51q16, t26q3, t24q5, t80q9, data):
    table = data.draw(st.sampled_from([t21, t51, t63, t51q16, t26q3, t24q5, t80q9]))
    fam = data.draw(coset_families(table, with_zero=True))
    dual = euclidean_dual_family(fam)
    assert fam.dim() + dual.dim() == table.n + 1
    # the characteristic divides n + 1 in every table here, so the dual
    # family describes the dual code in odd characteristic as well
    assert gram_is_zero(generator_matrix(fam).mat, generator_matrix(dual).mat)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hermitian_dual_is_euclidean_dual_of_scaled_family(t21, t51, t63, t51q16,
                                                           t80q9, data):
    table, ell = data.draw(st.sampled_from(
        [(t21, 2), (t51, 2), (t63, 2), (t51q16, 4), (t80q9, 3)]))
    fam = data.draw(coset_families(table, with_zero=True))
    scaled = fam.scale(ell)
    assert hermitian_dual_family(fam) == euclidean_dual_family(scaled)
    # code level: the ell-th powers of C_S span the code of the scaled family
    g = generator_matrix(fam).mat
    assert row_space_equal(pow_entrywise(g, ell), generator_matrix(scaled).mat)
