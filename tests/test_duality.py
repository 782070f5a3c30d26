import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import (compute_cosets, derive_quantum, euclidean_dual,
                        euclidean_dual_family, generator_matrix, hermitian_dual,
                        hermitian_dual_family, search)
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
    rep = hermitian_dual(t51.family([0, 1]), ell=2)
    assert (rep.dim_s, rep.dim_dual) == (5, 47)
    excluded = sorted(set(range(len(t51))) - set(rep.family_dual.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[19, 25, 43, 49]]
    assert rep.gram_verified and rep.nullspace_verified


def test_hermitian_dual_trivial_family(t21):
    rep = hermitian_dual(t21.family([0]), ell=2)
    assert len(rep.family_dual) == len(t21)
    assert rep.dim_s + rep.dim_dual == 22


def test_hermitian_dual_n585_family_level(t585):
    rep = hermitian_dual(t585.family([0, 8, 16]), ell=8)
    excluded = sorted(set(range(len(t585))) - set(rep.family_dual.members))
    assert [list(t585.cosets[i].elements) for i in excluded] == \
        [[457, 583], [521, 584]]
    assert rep.dim_s + rep.dim_dual == 586


def test_double_hermitian_dual_returns_the_code(t21):
    fam = t21.family([0, 1, 2, 3])
    first = hermitian_dual(fam, ell=2)
    second = hermitian_dual(first.family_dual, ell=2)
    assert row_space_equal(second.matrix_dual.mat, first.matrix_s.mat)


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
    ns = nullspace(rep.matrix_s.mat)
    assert row_space_equal(rep.matrix_dual.mat, ns)
    r_ns, canon_ns = rank_and_rref(ns)
    r_dual, canon_dual = rank_and_rref(rep.matrix_dual.mat)
    assert r_ns == r_dual
    assert np.array_equal(canon_ns.entries, canon_dual.entries)


def test_odd_q_is_refused_only_where_p_does_not_divide_n_plus_1():
    # the zero coset's row is a constant c with self-product (n+1)*c^2
    for q, ell, n in ((9, 3, 10), (25, 5, 12)):
        table = compute_cosets(q, n)
        family = table.family([0])
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            euclidean_dual(family)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            hermitian_dual(family, ell)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            derive_quantum(family, ell)
        # search refuses the table before it walks a node
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            build_compatibility_graph(table, ell)
        with pytest.raises(ValueError, match="does not divide n\\+1"):
            search(table, ell)
    # 3 divides n+1 = 9: the dual is verified in odd characteristic
    rep = euclidean_dual(compute_cosets(3, 8).family([0, 1]))
    assert (rep.dim_s, rep.dim_dual) == (3, 6)
    assert rep.gram_verified and rep.nullspace_verified


def test_zero_coset_is_required(t51):
    with pytest.raises(ValueError):
        euclidean_dual(t51.family([1]))


def test_hermitian_requires_square_q(t21, t51q16):
    with pytest.raises(ValueError):
        hermitian_dual(t21.family([0]), ell=3)
    rep = hermitian_dual(t51q16.family([0]), ell=4)
    assert rep.ell == 4


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
    assert hermitian_dual_family(fam, ell) == euclidean_dual_family(scaled)
    # code level: the ell-th powers of C_S span the code of the scaled family
    g = generator_matrix(fam).mat
    assert row_space_equal(pow_entrywise(g, ell), generator_matrix(scaled).mat)
