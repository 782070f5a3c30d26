import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import (classical_params, compute_cosets, generator_matrix,
                        load_matrix_json, make_field, min_distance_exhaustive,
                        truncated_family)
from cosetcodes import codes
from cosetcodes.codes import field_for_table
from cosetcodes.cosets import Coset
from cosetcodes.galois import Field, nth_root_of_unity, subfield_power_basis
from cosetcodes.linalg import GFMatrix, rank, row_space_equal
from conftest import coset_families, random_subfield_basis


def domain_points(ctx, n):
    """The n+1 evaluation points (0, a^0, a^1, ..., a^(n-1)), a primitive."""
    alpha = nth_root_of_unity(ctx, n)
    return [0] + [ctx.pow(alpha, i) for i in range(n)]


def oracle_rows(ctx, family, bases=None):
    """Scalar oracle: sum_(i<s) b^(q^i) * point^(a q^i mod n) per row and point,
    with b over the basis tuple ``bases[cid]`` or, by default, the power basis."""
    table = family.table
    q, n = table.q, table.n
    points = domain_points(ctx, n)
    rows = []
    for cid in family.members:
        coset = table.cosets[cid]
        a, s = coset.min_rep, coset.size
        for b in (bases or {}).get(cid) or subfield_power_basis(ctx, q, s):
            row = []
            for point in points:
                acc = 0
                for i in range(s):
                    term = ctx.mul(ctx.pow(b, q**i), ctx.pow(point, a * q**i % n))
                    acc = ctx.add(acc, term)
                row.append(acc)
            rows.append(row)
    return rows


def projected_oracle(ctx, family, bases=None):
    """The oracle rows as a matrix of F_q symbols, after checking that every
    value lies in the F_q subfield."""
    view = ctx.subfield_view(family.table.q)
    symbols = view.project[np.asarray(oracle_rows(ctx, family, bases))]
    assert (symbols >= 0).all()
    return GFMatrix(view.field, symbols.astype(np.uint16))


@pytest.mark.parametrize("name", ["t21", "t80q9"])
def test_generator_matrix_rejects_a_bad_basis(request, monkeypatch, name):
    # no basis is validated up front: the projection and rank checks reject
    # a bad one, since the trace is F_q-linear (a dependent basis loses rank)
    # and b^(q^s) != b moves every orbit sum of b out of F_q
    table = request.getfixturevalue(name)
    ctx = field_for_table(table)
    fam = table.family([0, 1])
    real = codes.subfield_power_basis
    bad = {"dependent": lambda c, q, s: (real(c, q, s)[0],) * s,
           "outside": lambda c, q, s: (c.generator,) * s}
    assert ctx.frobenius(ctx.generator, table.q) != ctx.generator
    for kind, match in (("dependent", "rank"), ("outside", "outside the F_q subfield")):
        monkeypatch.setattr(codes, "subfield_power_basis", bad[kind])
        with pytest.raises(ArithmeticError, match=match):
            generator_matrix(fam)


def test_generator_matrix_rejects_a_coset_that_is_not_an_orbit(t21):
    # {1, 4, 17} has the size of the orbit {1, 4, 16} of 1, not its support
    cosets = list(t21.cosets)
    cosets[t21.coset_of(1)] = Coset((1, 4, 17))
    bad = dataclasses.replace(t21, cosets=tuple(cosets))
    with pytest.raises(AssertionError, match="is not the coset"):
        generator_matrix(bad.family([0, 1]))


def test_evaluation_domain_sizes(t51, t585, f256):
    assert generator_matrix(t51.family([0, 1])).mat.cols == 52
    assert generator_matrix(t585.family([0, 1])).mat.cols == 586
    assert len(set(domain_points(f256, 51))) == 52
    with pytest.raises(ValueError):
        generator_matrix(compute_cosets(4, 7).family([0]), f256)  # 7 does not divide 255


def test_weight_sum_identity_over_the_domain(f256):
    for k in (1, 3, 20, 50):
        acc = 0
        for b in domain_points(f256, 51):
            acc = f256.add(acc, f256.pow(b, k) if b else 0)
        assert acc == 0


@pytest.mark.parametrize("q,n,reps", [
    (4, 21, [0, 1, 3, 7]), (16, 51, [0, 4, 17]), (3, 8, [0, 1, 2, 4]),
    (3, 26, [0, 1, 2, 13]), (5, 24, [0, 1, 2, 12]), (9, 10, [0, 1, 5]), (7, 6, [0, 1, 3]),
])
def test_domain_evaluation_matches_scalar_oracle(q, n, reps):
    table = compute_cosets(q, n)
    ctx = field_for_table(table)
    fam = table.family(reps)
    g = generator_matrix(fam).mat
    assert np.array_equal(g.entries, projected_oracle(ctx, fam).entries)
    # any other basis gives other rows of the same code
    rng = np.random.default_rng(q * n)
    for _ in range(2):
        bases = {cid: random_subfield_basis(ctx, q, table.cosets[cid].size, rng)
                 for cid in fam.members}
        assert row_space_equal(g, projected_oracle(ctx, fam, bases))


def test_generator_matrix_zero_family_is_all_ones(t51):
    g = generator_matrix(t51.family([0]))
    assert g.mat.rows == 1 and g.mat.cols == 52
    assert np.all(g.mat.entries == 1)


def test_generator_matrix_shapes_and_ranks(t51, t21):
    g = generator_matrix(truncated_family(t51, 16))
    assert (g.mat.rows, g.mat.cols) == (5, 52)
    assert rank(g.mat) == 5
    g21 = generator_matrix(t21.family([0, 1, 2, 3]))
    assert (g21.mat.rows, g21.mat.cols) == (10, 22)
    assert rank(g21.mat) == 10


def test_entries_are_frobenius_fixed_in_the_parent(t51, t21, t51q16):
    # the oracle's parent values satisfy x^q == x
    for table, reps in ((t51, [0, 1, 11]), (t21, [0, 1, 2, 3]), (t51q16, [0, 4, 8])):
        ctx = field_for_table(table)
        for row in oracle_rows(ctx, table.family(reps)):
            assert all(ctx.frobenius(v, table.q) == v for v in row)


def test_rank_equals_family_dimension_random(t21, t51, t63, t51q16):
    rng = np.random.default_rng(42)
    for table in (t21, t51, t63, t51q16):
        for _ in range(4):
            size = int(rng.integers(1, min(6, len(table))))
            ids = rng.choice(len(table), size=size, replace=False)
            fam = table.family(table.cosets[i].min_rep for i in ids)
            g = generator_matrix(fam)
            assert rank(g.mat) == fam.dim()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_equals_dimension_property(t21, t51, t63, t51q16, t26q3, t24q5, t80q9, data):
    table = data.draw(st.sampled_from([t21, t51, t63, t51q16, t26q3, t24q5, t80q9]))
    fam = data.draw(coset_families(table))
    g = generator_matrix(fam)
    assert g.mat.rows == rank(g.mat) == fam.dim()


def test_row_space_is_basis_independent(t51):
    ctx = field_for_table(t51)
    rng = np.random.default_rng(7)
    fam = t51.family([0, 1, 2])
    ref = generator_matrix(fam)
    for _ in range(3):
        bases = {cid: random_subfield_basis(ctx, 4, t51.cosets[cid].size, rng)
                 for cid in fam.members if t51.cosets[cid].size > 1}
        assert row_space_equal(ref.mat, projected_oracle(ctx, fam, bases))


@pytest.mark.parametrize("r,reps,params", [
    (16, (0, 1), (52, 5, 36)),
    (17, (0, 1, 17), (52, 6, 35)),
])
def test_truncated_families_n51(t51, r, reps, params):
    fam = truncated_family(t51, r)
    assert fam.reps() == reps
    assert classical_params(fam) == params


@pytest.mark.parametrize("r,k,bound", [(16, 4, 48), (20, 7, 44), (21, 8, 43)])
def test_truncated_families_n63(t63, r, k, bound):
    fam = truncated_family(t63, r)
    assert classical_params(fam) == (64, k, bound)
    if r == 20:
        assert fam.reps() == (0, 1, 5)


def test_truncation_bounds_checked(t51):
    with pytest.raises(ValueError):
        truncated_family(t51, 0)
    with pytest.raises(ValueError):
        truncated_family(t51, 51)


def test_classical_params_trivial(t51):
    assert classical_params(t51.family([0])) == (52, 1, 52)


def test_min_weight_respects_the_degree_bound(t21, t51):
    for table, reps in ((t21, [0, 1, 5]), (t51, [0, 17, 34]), (t21, [0, 2, 8]),
                        (t51, [0, 1, 2])):
        fam = table.family(reps)
        g = generator_matrix(fam)
        bound = classical_params(fam)[2]
        assert min_distance_exhaustive(g.mat).value >= bound


def test_matrix_json_round_trip(t51):
    g = generator_matrix(truncated_family(t51, 16))
    text = g.to_json()
    rebuilt = load_matrix_json(text)
    assert np.array_equal(rebuilt.mat.entries, g.mat.entries)
    assert rebuilt.parent is g.parent


def test_matrix_json_detects_corruption(t51):
    g = generator_matrix(truncated_family(t51, 16))
    obj = json.loads(g.to_json())
    obj["entries"][3] = (obj["entries"][3] + 1) % 4
    with pytest.raises(ValueError):
        load_matrix_json(json.dumps(obj))


def test_matrix_json_without_entries_is_rejected(t51):
    obj = json.loads(generator_matrix(truncated_family(t51, 16)).to_json())
    del obj["entries"]
    with pytest.raises(ValueError, match="entries"):
        load_matrix_json(json.dumps(obj))


def test_generator_matrix_validates_each_subfield_basis_once(t51):
    # a context of its own, so no earlier test has filled its basis cache; the
    # projection and rank checks of each call validate the cached bases
    shared = field_for_table(t51)
    ctx = Field(shared.p, shared.e, shared.modulus)
    family = t51.family([0, 1, 3, 17])
    sizes = sorted({t51.cosets[cid].size for cid in family.members})
    assert len(sizes) > 1
    first = generator_matrix(family, ctx)
    assert sorted(ctx._bases) == [(4, s) for s in sizes]
    bases = {s: subfield_power_basis(ctx, 4, s) for s in sizes}
    assert all(type(bases[s]) is tuple and len(bases[s]) == s for s in sizes)
    second = generator_matrix(family, ctx)
    assert all(subfield_power_basis(ctx, 4, s) is bases[s] for s in sizes)
    assert np.array_equal(first.mat.entries, second.mat.entries)
    assert np.array_equal(first.mat.entries, generator_matrix(family).mat.entries)


def test_text_grid_dimensions(t21):
    g = generator_matrix(t21.family([0, 1]))
    lines = g.to_text_grid().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 22 for line in lines)


def test_odd_characteristic_code_construction():
    # q = 3, n = 8: order of 3 mod 8 is 2, parent field GF(9)
    table = compute_cosets(3, 8)
    ctx = field_for_table(table)
    assert ctx is make_field(3, 2)
    fam = table.family([0, 1])
    g = generator_matrix(fam)
    assert g.mat.cols == 9
    assert rank(g.mat) == fam.dim()
    bound = classical_params(fam)[2]
    assert min_distance_exhaustive(g.mat).value >= bound
