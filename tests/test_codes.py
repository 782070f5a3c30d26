import json

import numpy as np
import pytest

from cosetcodes import (classical_params, evaluation_domain, field_for_table,
                        generator_matrix, load_matrix_json, make_field,
                        min_distance_exhaustive, rank,
                        row_space_equal, subfield_power_basis,
                        trace_polynomials, truncated_family)
from conftest import random_subfield_basis


def test_trace_polynomials_constant_for_zero_coset(t51):
    ctx = field_for_table(t51)
    basis = subfield_power_basis(ctx, 4, 1)
    polys = trace_polynomials(ctx, t51, t51.cosets[0], basis)
    assert len(polys) == 1
    assert polys[0].terms == ((0, 1),)


def test_trace_polynomials_support_matches_coset(t51):
    ctx = field_for_table(t51)
    basis = subfield_power_basis(ctx, 4, 4)
    polys = trace_polynomials(ctx, t51, t51.cosets[1], basis)
    assert len(polys) == 4
    for p in polys:
        assert tuple(e for e, _ in p.terms) == (1, 4, 13, 16)
        assert p.degree == 16


def test_trace_polynomial_coefficients_follow_frobenius_orbit(t51q16):
    ctx = field_for_table(t51q16)
    basis = subfield_power_basis(ctx, 16, 2)
    coset = t51q16.cosets[t51q16.coset_of(4)]
    polys = trace_polynomials(ctx, t51q16, coset, basis)
    assert len(polys) == 2
    for j, p in enumerate(polys):
        (e1, c1), (e2, c2) = p.terms
        assert (e1, e2) == (4, 13)
        assert c1 == basis.values[j]
        assert c2 == ctx.pow(c1, 16)


def test_trace_polynomials_reject_basis_mismatch(t51):
    ctx = field_for_table(t51)
    basis = subfield_power_basis(ctx, 4, 2)
    with pytest.raises(ValueError):
        trace_polynomials(ctx, t51, t51.cosets[1], basis)  # coset size 4, basis size 2


def test_evaluation_domain_sizes(f256, f4096):
    assert len(evaluation_domain(f256, 51)) == 52
    assert len(evaluation_domain(f4096, 585)) == 586
    with pytest.raises(ValueError):
        evaluation_domain(f256, 1)
    with pytest.raises(ValueError):
        evaluation_domain(f256, 7)  # does not divide 255


def test_weight_sum_identity_over_the_domain(f256):
    dom = evaluation_domain(f256, 51)
    for k in (1, 3, 20, 50):
        acc = 0
        for b in dom.points:
            acc = f256.add(acc, f256.pow(b, k) if b else 0)
        assert acc == 0


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
    # re-evaluate the polynomials in the parent field and check x^q == x
    for table, reps in ((t51, [0, 1, 11]), (t21, [0, 1, 2, 3]), (t51q16, [0, 4, 8])):
        ctx = field_for_table(table)
        fam = table.family(reps)
        dom = evaluation_domain(ctx, table.n)
        for cid in fam.members:
            coset = table.cosets[cid]
            basis = subfield_power_basis(ctx, table.q, coset.size)
            for poly in trace_polynomials(ctx, table, coset, basis):
                for point in dom.points:
                    v = poly.evaluate(ctx, point)
                    assert ctx.frobenius(v, table.q) == v


def test_rank_equals_family_dimension_random(t21, t51, t63, t51q16):
    rng = np.random.default_rng(42)
    for table in (t21, t51, t63, t51q16):
        for _ in range(4):
            size = int(rng.integers(1, min(6, len(table))))
            ids = rng.choice(len(table), size=size, replace=False)
            fam = table.family(table.cosets[i].min_rep for i in ids)
            g = generator_matrix(fam)
            assert rank(g.mat) == fam.dim()


def test_row_space_is_basis_independent(t51):
    ctx = field_for_table(t51)
    rng = np.random.default_rng(7)
    fam = t51.family([0, 1, 2])
    ref = generator_matrix(fam)
    for _ in range(3):
        bases = {cid: random_subfield_basis(ctx, 4, t51.cosets[cid].size, rng)
                 for cid in fam.members if t51.cosets[cid].size > 1}
        alt = generator_matrix(fam, bases=bases)
        assert row_space_equal(ref.mat, alt.mat)


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


def test_text_grid_dimensions(t21):
    g = generator_matrix(t21.family([0, 1]))
    lines = g.to_text_grid().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 22 for line in lines)


def test_odd_characteristic_code_construction():
    # q = 3, n = 8: order of 3 mod 8 is 2, parent field GF(9)
    from cosetcodes import compute_cosets
    table = compute_cosets(3, 8)
    ctx = field_for_table(table)
    assert ctx is make_field(3, 2)
    fam = table.family([0, 1])
    g = generator_matrix(fam)
    assert g.mat.cols == 9
    assert rank(g.mat) == fam.dim()
    bound = classical_params(fam)[2]
    assert min_distance_exhaustive(g.mat).value >= bound
