import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import (BudgetExceededError, generator_matrix, linalg, make_field,
                        min_distance_exhaustive)
from cosetcodes.codes import field_for_table
from cosetcodes.galois import _add_mod, _digit_table, _int_to_digits, _sub_mod
from cosetcodes.linalg import (TABLE_ROWS, GFMatrix, _codeword_for_message, _digit_fields,
                               _pack_rows, _SpanKernel, _walk, check_budget, gram, gram_is_zero,
                               nullspace, pow_entrywise, rank, rank_and_rref, row_space_equal,
                               weight_distribution)
from conftest import gf_matrix

# (p, e) of the fields the property tests draw from; ell^2 = p^e for even e.
# p = 131 is the least prime whose sums 2p - 2 overflow uint8
PROPERTY_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1),
                   (131, 1)]
ODD_PRIMES = [p for p, e in PROPERTY_FIELDS if p > 2 and e == 1]
# odd (p, e), prime fields and prime powers, each test id its order q = p^e
ODD_FIELDS = [pytest.param(p, e, id=str(p**e))
              for p, e in [(p, 1) for p in ODD_PRIMES] + [(3, 2), (5, 2), (3, 3), (3, 4)]]


def random_full_rank(field, k, n, rng):
    assert k <= n, "no k x n matrix has rank k > n"
    while True:
        g = GFMatrix(field, rng.integers(0, field.order, size=(k, n)).astype(np.uint16))
        if rank(g) == k:
            return g


def naive_scan(g):
    """(first minimum-weight message in base-q order, weight histogram), one
    codeword at a time."""
    q, k = g.q, g.rows
    counts = [0] * (g.cols + 1)
    best_w, best_t = g.cols + 1, -1
    for t in range(q**k):
        cw = _codeword_for_message(g.field, g.entries, _int_to_digits(t, q, k))
        w = int(np.count_nonzero(cw))
        counts[w] += 1
        if t and w < best_w:
            best_w, best_t = w, t
    return best_t, counts


def vectorized_codewords(g):
    """All q^k codewords, row t the message t (base-q digit i on row i),
    built column-wise."""
    field, q, k = g.field, g.q, g.rows
    t = np.arange(q**k, dtype=np.int64)
    cw = np.zeros((q**k, g.cols), dtype=np.uint16)
    for i in range(k):
        scaled = field.mul_table[np.arange(q)[:, None], g.entries[i][None, :]]
        part = scaled[t // q**i % q]
        cw = cw ^ part if field.p == 2 else field.add_table[cw, part]
    return cw


def test_rank_identity_and_all_ones(f4):
    assert rank(gf_matrix(f4, np.eye(5))) == 5
    assert rank(gf_matrix(f4, [[1] * 52])) == 1


def test_rref_is_canonical(f16):
    rng = np.random.default_rng(3)
    m = GFMatrix(f16, rng.integers(0, 16, size=(4, 9)).astype(np.uint16))
    _, r1 = rank_and_rref(m)
    # shuffle rows and add one row to another: same row space
    ent = m.entries.copy()
    ent[[0, 2]] = ent[[2, 0]]
    ent[1] = ent[1] ^ ent[3]
    _, r2 = rank_and_rref(GFMatrix(f16, ent))
    assert np.array_equal(r1.entries, r2.entries)
    assert row_space_equal(m, GFMatrix(f16, ent))


def test_nullspace_shapes_and_orthogonality(f4):
    assert nullspace(gf_matrix(f4, np.eye(4))).rows == 0
    ones = gf_matrix(f4, [[1] * 52])
    ns = nullspace(ones)
    assert ns.rows == 51
    assert gram_is_zero(ones, ns)


def test_entries_are_a_read_only_copy(f4):
    given = np.array([[1, 2], [3, 0]], dtype=np.uint16)
    m = GFMatrix(f4, given)
    assert not np.shares_memory(m.entries, given)
    given[0, 0] = 0  # the caller's array stays writable and the matrix keeps its copy
    assert m.entries[0, 0] == 1
    with pytest.raises(ValueError, match="read-only"):
        m.entries[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        m.entries ^= 1


TABLES = ["t26q3", "t21", "t24q5", "t80q9", "t51q16", "t24q25", "t585"]


@pytest.mark.parametrize("name", TABLES)
def test_cached_reduction_equals_a_fresh_one(request, name):
    # one table per field q of tests/conftest.py: 3, 4, 5, 9, 16, 25 and 64
    table = request.getfixturevalue(name)
    field = field_for_table(table).subfield_view(table.q).field
    rng = np.random.default_rng(table.q)
    g = generator_matrix(table.family([0, 1])).mat
    rows = rng.integers(0, field.order, size=(3, g.cols))
    deficient = GFMatrix(field, np.vstack([rows, rows[:1], g.entries[:2]]))
    for m in (g, deficient):
        nullspace(m)  # reads, and so fills, the cached reduction
        r, reduced = rank_and_rref(GFMatrix(field, m.entries))
        assert rank(m) == r
        assert np.array_equal(m.reduction[1].entries, reduced.entries)
    assert rank(deficient) == 5


@pytest.mark.parametrize("name", ["t21", "t80q9", "t51q16", "t24q25", "t585"])
def test_a_frobenius_power_carries_its_reduction(request, reductions, name):
    # x -> x^(p^j) is a field automorphism fixing 0 and 1: it commutes with row reduction
    table = request.getfixturevalue(name)
    field = field_for_table(table).subfield_view(table.q).field
    g = generator_matrix(table.family([0, 1])).mat
    rows = np.random.default_rng(table.q).integers(0, field.order, size=(3, g.cols))
    deficient = GFMatrix(field, np.vstack([rows, rows[:1], g.entries[:2]]))
    for m in (g, deficient):
        rank(m)
        for j in range(field.e + 1):
            powered = pow_entrywise(m, field.p**j)
            reductions.clear()
            r, carried = powered.reduction
            assert not reductions  # carried, not reduced
            fresh = rank_and_rref(GFMatrix(field, powered.entries))
            assert r == fresh[0]
            assert np.array_equal(carried.entries, fresh[1].entries)
    reductions.clear()
    rank(pow_entrywise(g, field.p + 1))  # not a power of p: reduced afresh
    assert len(reductions) == 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 2)])
def test_rank_nullity_and_nullspace_product(p, e):
    field = make_field(p, e)
    rng = np.random.default_rng(p * 10 + e)
    for _ in range(15):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(2, 11))
        m = GFMatrix(field, rng.integers(0, field.order, size=(rows, cols)).astype(np.uint16))
        ns = nullspace(m)
        assert rank(m) + ns.rows == cols
        if ns.rows:
            assert gram_is_zero(m, ns)


def test_gram_edge_cases(f4, f16):
    g = gf_matrix(f4, [[1, 2, 3]])
    empty = gf_matrix(f4, [], cols=3)
    assert gram_is_zero(g, empty)
    assert gram(g, empty).entries.shape == (1, 0)
    assert gram(empty, g).entries.shape == (0, 1)
    no_cols = GFMatrix(f4, np.zeros((2, 0)))
    assert gram(no_cols, no_cols).entries.tolist() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        gram(g, gf_matrix(f4, [[1, 2]]))
    with pytest.raises(ValueError):
        gram_is_zero(g, gf_matrix(f4, [[1, 2]]))
    with pytest.raises(ValueError):
        gram_is_zero(gf_matrix(f16, [[1]]), gf_matrix(f4, [[1]]))


def oracle_rref(field, entries):
    """Scalar Gauss-Jordan elimination with Field.mul/add/inv, -x as (p - 1) x."""
    a = [[int(x) for x in row] for row in entries]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                factor = field.mul(field.p - 1, a[i][c])
                a[i] = [field.add(x, field.mul(factor, y)) for x, y in zip(a[i], a[r])]
        r += 1
    return r, a[:r]


def oracle_gram(field, e1, e2, ell=None):
    """Every row pair's sum of Field.mul products, the first row raised to ell."""
    out = []
    for u in e1:
        u = [field.pow(int(x), ell) if ell else int(x) for x in u]
        out.append([])
        for v in e2:
            acc = 0
            for x, y in zip(u, v):
                acc = field.add(acc, field.mul(x, int(y)))
            out[-1].append(acc)
    return out


def oracle_gram_is_zero(field, e1, e2, ell=None):
    return not any(any(row) for row in oracle_gram(field, e1, e2, ell))


@st.composite
def field_matrices(draw, count=1, max_rows=6):
    """A field from PROPERTY_FIELDS and ``count`` matrices with one column count.

    Entries are zeroed at a drawn rate, so rank-deficient matrices and
    zero columns are common; 0 rows and 0 columns are possible.
    """
    p, e = draw(st.sampled_from(PROPERTY_FIELDS))
    field = make_field(p, e)
    cols = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        shape = (draw(st.integers(0, max_rows)), cols)
        keep = rng.random(shape) < draw(st.sampled_from([0.2, 0.6, 1.0]))
        out.append(GFMatrix(field, rng.integers(0, field.order, size=shape) * keep))
    return field, out


def hermitian_ell(field):
    """ell with q = ell^2, or None when q is not a square."""
    ell = math.isqrt(field.order)
    return ell if ell * ell == field.order else None


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_matches_scalar_gauss_jordan(case):
    field, (m,) = case
    r, reduced = rank_and_rref(m)
    want_r, want = oracle_rref(field, m.entries)
    assert r == want_r
    assert reduced.entries.tolist() == want
    assert reduced.entries.shape == (r, m.cols)


@settings(max_examples=150, deadline=None)
@given(field_matrices(count=2))
def test_gram_matches_scalar_oracle(case):
    field, (g1, g2) = case
    product = gram(g1, g2)
    assert product.field is field
    assert product.entries.tolist() == oracle_gram(field, g1.entries, g2.entries)
    assert gram_is_zero(g1, g2) == (not product.entries.any())
    ell = hermitian_ell(field)
    if ell is not None:
        hermitian = gram(pow_entrywise(g1, ell), g2)
        assert hermitian.entries.tolist() == oracle_gram(field, g1.entries, g2.entries, ell)
        assert gram_is_zero(pow_entrywise(g1, ell), g2) == (not hermitian.entries.any())


@settings(max_examples=100, deadline=None)
@given(field_matrices(max_rows=8))
def test_gram_of_a_matrix_and_its_nullspace_is_zero(case):
    field, (m,) = case
    ns = nullspace(m)
    assert gram_is_zero(m, ns)
    assert oracle_gram_is_zero(field, m.entries, ns.entries)
    ell = hermitian_ell(field)
    if ell is not None:
        powered = pow_entrywise(m, ell)
        hns = nullspace(powered)
        assert gram_is_zero(powered, hns)
        assert oracle_gram_is_zero(field, m.entries, hns.entries, ell)


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2)])
def test_gram_of_a_tall_matrix_matches_the_oracle(p, e):
    # 131 rows of g1, Euclidean and Hermitian over GF(16) and GF(9): every
    # row of g1 is summed, not only the first 128
    field = make_field(p, e)
    rng = np.random.default_rng(p)
    g1 = GFMatrix(field, rng.integers(0, field.order, size=(131, 9)))
    g2 = GFMatrix(field, rng.integers(0, field.order, size=(4, 9)))
    ell = hermitian_ell(field)
    assert gram(g1, g2).entries.tolist() == oracle_gram(field, g1.entries, g2.entries)
    assert (gram(pow_entrywise(g1, ell), g2).entries.tolist()
            == oracle_gram(field, g1.entries, g2.entries, ell))


def test_gram_of_a_25_bit_digit_sum_matches_the_oracle():
    # 5063 columns of 59 over F_61: <a, a> = 5063 * 59^2 = 17624303, which is
    # odd and needs 25 bits, the width of the one digit field of the product
    p, cols = 61, 61 * 83
    assert (cols * 59**2).bit_length() == 25 == _digit_fields(p, 1, cols)[0]
    field = make_field(p, 1)
    a = gf_matrix(field, [[59] * cols])
    b = gf_matrix(field, [[59] * (cols - 1) + [58]])
    both = GFMatrix(field, np.vstack([a.entries, b.entries]))
    want = oracle_gram(field, both.entries, both.entries)
    # 59 = -2, 58 = -3 and 5062 = -1 mod 61: <a, b> = -4 + 6, <b, b> = -4 + 9
    assert want == [[0, 2], [2, 5]]
    assert gram(both, both).entries.tolist() == want
    assert gram(a, b).entries.tolist() == oracle_gram(field, a.entries, b.entries) == [[2]]
    assert gram_is_zero(a, a)
    assert not gram_is_zero(a, b)


def products_per_chunk(p, e, cols):
    """Float64 products per column chunk of a :func:`gram` over F_(p^e)."""
    return -(-e // _digit_fields(p, e, cols)[1])


# (p, e, columns, products per chunk): q = 64 from the width that needs a
# second product on (42 columns need one), q = 256 and 4096 past it, and
# the odd prime powers
PACKED_CASES = [(2, 6, 43, 2), (2, 6, 586, 2), (2, 8, 8, 2), (2, 8, 40, 2), (2, 12, 2, 2),
                (2, 12, 9, 2), (3, 2, 100, 1), (3, 3, 100, 1), (3, 4, 100, 1), (3, 4, 600, 2)]


@pytest.mark.parametrize("p,e,cols,products", PACKED_CASES)
def test_gram_of_wide_matrices_matches_the_oracle(p, e, cols, products):
    # the hypothesis Gram tests draw at most 12 columns, where every field
    # of theirs fits one product
    field = make_field(p, e)
    assert products_per_chunk(p, e, cols) == products
    rng = np.random.default_rng(cols)
    g1 = GFMatrix(field, rng.integers(0, field.order, size=(3, cols)))
    g2 = GFMatrix(field, rng.integers(0, field.order, size=(4, cols)))
    assert gram(g1, g2).entries.tolist() == oracle_gram(field, g1.entries, g2.entries)
    ell = hermitian_ell(field)
    if ell is not None:
        assert (gram(pow_entrywise(g1, ell), g2).entries.tolist()
                == oracle_gram(field, g1.entries, g2.entries, ell))


@pytest.mark.parametrize("p,e,cols", [(2, 4, 63), (2, 6, 682), (2, 12, 5), (3, 2, 511),
                                      (3, 4, 600), (5, 2, 81)])
def test_gram_digit_sums_at_the_top_of_their_field_match_the_oracle(p, e, cols):
    # row t of g1 repeats a symbol a_t whose multiples x^j a_t all have
    # digit t equal to p - 1, row t of g2 the symbol q - 1 of e digits p - 1:
    # digit sum t of entry (t, t) is (p-1)^2 * e * cols, the bound itself,
    # so it sets the top bit of its field and a carry out of it would show
    field = make_field(p, e)
    q, digits = field.order, _digit_table(p, e).astype(int)
    multiples = field.mul_table[p ** np.arange(e)]  # [j, v] = x^j * v
    tops = [int(np.flatnonzero((digits[multiples, t] == p - 1).all(axis=0))[0])
            for t in range(e)]
    g1 = GFMatrix(field, np.repeat(np.array(tops)[:, None], cols, axis=1))
    g2 = GFMatrix(field, np.full((e, cols), q - 1))
    bound = (p - 1) ** 2 * e * cols
    for t, a in enumerate(tops):
        assert sum(int(digits[field.mul(p**j, a), t]) * (p - 1) for j in range(e)) * cols == bound
    assert bound >= 1 << _digit_fields(p, e, cols)[0] - 1
    assert gram(g1, g2).entries.tolist() == oracle_gram(field, g1.entries, g2.entries)


def test_digit_fields_fit_a_float64_for_every_dense_field():
    # q <= 2^12 and n < 2^20 keep every digit sum below 2^44; past 2^53 a
    # float64 would round it, so the width is refused
    cols = (1 << 20) - 1
    primes = [p for p in range(2, 1 << 12) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    widths = {(p, e): _digit_fields(p, e, cols)[0]
              for p in primes for e in range(1, 13) if p**e <= 1 << 12}
    assert max(widths.values()) == widths[(4093, 1)] == 44
    assert products_per_chunk(2, 6, 42) == 1 < products_per_chunk(2, 6, 43)
    assert _digit_fields(4093, 1, 1 << 28) == (52, 1)
    with pytest.raises(ValueError, match="53"):
        _digit_fields(4093, 1, 1 << 29)
    with pytest.raises(ValueError, match="53"):
        _digit_fields(2, 12, 1 << 49)


@pytest.mark.parametrize("p", [3, 127, 131, 251])
def test_residue_add_and_subtract_match_integers_mod_p_on_every_pair(p):
    # 127 is the largest prime whose sums fit uint8; 131 and 251 need uint16
    x, y = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    dtype = _digit_table(p, 1).dtype
    rx, ry = x.astype(dtype), y.astype(dtype)
    assert np.array_equal(_add_mod(rx, ry, p), (x + y) % p)
    assert np.array_equal(_sub_mod(rx, ry, p), (x - y) % p)
    assert dtype == (np.uint8 if p <= 127 else np.uint16)


@pytest.mark.parametrize("p,e", sorted(set(PROPERTY_FIELDS) | {f.values for f in ODD_FIELDS}))
def test_mul_table_row_p_minus_1_is_the_digit_negation(p, e):
    # -a = (p - 1) a, the one negation that nullspace reads
    field = make_field(p, e)
    digits = np.asarray([_int_to_digits(x, p, e) for x in range(field.order)])
    assert np.array_equal(field.mul_table[p - 1], -digits % p @ p ** np.arange(e))


@pytest.mark.parametrize("p,e", ODD_FIELDS)
def test_rref_of_all_p_minus_1_entries_matches_scalar_gauss_jordan(p, e):
    # entries q - 1, whose digits are all p - 1, put each subtraction's
    # operands at the ends of the range
    field = make_field(p, e)
    top = field.order - 1
    ones = np.full((5, 8), top)
    upper = np.triu(ones)  # full rank
    mixed = np.vstack([upper[:4], ones[:1], upper[2:3]])  # rank 4 of 6 rows
    off_diagonal = top * (1 - np.eye(6, dtype=np.int64))  # top (J - I): rank 6 unless p | 5
    for entries in (ones, upper, mixed, off_diagonal, ones.T):
        m = GFMatrix(field, entries)
        r, reduced = rank_and_rref(m)
        want_r, want = oracle_rref(field, m.entries)
        assert (r, reduced.entries.tolist()) == (want_r, want)
    assert rank(GFMatrix(field, ones)) == 1
    assert rank(GFMatrix(field, mixed)) == 4


def add_table_span(g, b, f):
    """The packed span table of g's first b rows, each sum an add-table gather."""
    field, q = g.field, g.q
    scaled = field.mul_table[np.arange(q), g.entries[:, :, None]]
    table = np.zeros((scaled.shape[1], 1), dtype=np.uint16)
    for i in range(b):
        table = field.add_table[scaled[i][:, :, None], table[:, None, :]].reshape(len(table), -1)
    return _pack_rows(table, f)


def add_table_minus_high_part(g, kernel, t_high):
    """-(sum of g's high rows scaled by the base-q digits of t_high), by the add
    table, negated by the mul table's row p - 1."""
    field = g.field
    h = np.zeros(g.cols, dtype=np.uint16)
    for row, digit in zip(g.entries[kernel.b:], _int_to_digits(t_high, g.q, kernel.high)):
        h = field.add_table[h, field.mul_table[digit][row]]
    return _pack_rows(field.mul_table[field.p - 1][h][:, None], kernel.f)[:, 0]


@pytest.mark.parametrize("p,e", ODD_FIELDS)
def test_span_table_and_high_parts_match_the_add_table(p, e):
    field = make_field(p, e)
    q = field.order
    # two high rows over the table's
    k = {3: 12, 5: 8, 7: 7, 131: 4, 9: 7, 25: 5, 27: 5, 81: 4}[q]
    rng = np.random.default_rng(q)
    worst = np.full((k, 9), q - 1)  # every sum of two digits reaches 2p - 2
    for entries in (rng.integers(0, q, size=(k, 23)), worst):
        g = GFMatrix(field, entries)
        kernel = _SpanKernel(g)
        assert kernel.high == 2
        assert np.array_equal(kernel.table, add_table_span(g, kernel.b, kernel.f))
        for step in range(kernel.steps):
            t_high = kernel._high_index(step)
            want = add_table_minus_high_part(g, kernel, t_high)
            assert np.array_equal(kernel._minus_high_part(t_high), want)


@pytest.mark.parametrize("p,e,k", [pytest.param(p, e, k, id=f"{p**e}-{k}") for p, e, k in
                                   [(3, 1, 6), (5, 1, 5), (7, 1, 4), (3, 2, 4), (5, 2, 3)]])
def test_prime_high_parts_of_several_rows_match_naive_scan(monkeypatch, p, e, k):
    # a 64-row table leaves k - b >= 2 high rows, whose digit sums pass p
    monkeypatch.setattr(linalg, "TABLE_ROWS", 64)
    field = make_field(p, e)
    g = random_full_rank(field, k, 9, np.random.default_rng(field.order * k))
    assert _SpanKernel(g).high >= 2
    best_t, counts = naive_scan(g)
    assert min_distance_exhaustive(g).witness == tuple(map(int, _codeword_for_message(
        field, g.entries, _int_to_digits(best_t, field.order, k))))
    assert weight_distribution(g) == counts


@pytest.mark.parametrize("p", [131, 251])
@pytest.mark.parametrize("table_rows", [TABLE_ROWS, 64])
def test_enumeration_past_uint8_sums_matches_vectorized_oracle(monkeypatch, p, table_rows):
    # k = 2: one table of both rows, or (64 rows) one table row and one high row
    monkeypatch.setattr(linalg, "TABLE_ROWS", table_rows)
    field = make_field(p, 1)
    g = random_full_rank(field, 2, 7, np.random.default_rng(p))
    assert _SpanKernel(g).high == (0 if table_rows == TABLE_ROWS else 1)
    assert_matches_oracle(g)
    worst = GFMatrix(field, np.full((1, 7), p - 1))
    assert_matches_oracle(worst)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)])
def test_enumerator_matches_naive_recomputation(p, e):
    field = make_field(p, e)
    q = field.order
    rng = np.random.default_rng(17 * p + e)
    for k in (1, 2, 3, 4):
        if q**k > 1 << 14:
            continue
        g = random_full_rank(field, k, int(rng.integers(4, 12)), rng)
        best_t, counts = naive_scan(g)
        first = _codeword_for_message(field, g.entries, _int_to_digits(best_t, q, k))
        cert = min_distance_exhaustive(g)
        assert cert.value == int(np.count_nonzero(first))
        assert cert.witness == tuple(map(int, first))  # the first minimum in base-q order
        assert cert.enumerated == q**k - 1
        assert weight_distribution(g) == counts


@pytest.mark.parametrize("p", [2, 3])
def test_weights_past_255_sum_over_several_words(p):
    # an all-ones row puts weights near n = 300, counted over 5 (p = 2) or
    # 10 (p = 3) packed words per row
    field = make_field(p, 1)
    m = np.random.default_rng(p).integers(0, p, size=(4, 300)).astype(np.uint16)
    m[0] = 1
    g = GFMatrix(field, m)
    assert rank(g) == 4
    best_t, counts = naive_scan(g)
    assert max(w for w, a in enumerate(counts) if a) > 255
    assert weight_distribution(g) == counts
    first = _codeword_for_message(field, m, _int_to_digits(best_t, p, 4))
    assert min_distance_exhaustive(g).witness == tuple(map(int, first))


def assert_matches_oracle(g):
    """Distance, base-q-first witness and weight distribution against every codeword."""
    cw = vectorized_codewords(g)
    weights = np.count_nonzero(cw, axis=1)
    first = 1 + int(np.argmin(weights[1:]))
    cert = min_distance_exhaustive(g)
    assert cert.value == weights[first]
    assert cert.witness == tuple(map(int, cw[first]))
    assert weight_distribution(g) == np.bincount(weights, minlength=g.cols + 1).tolist()
    return weights


@pytest.mark.parametrize("p,e,k,n", [(2, 1, 18, 24), (2, 1, 18, 66), (3, 1, 11, 20),
                                     (2, 2, 9, 30), (2, 2, 9, 70), (2, 3, 6, 30),
                                     (7, 1, 7, 10), (3, 1, 12, 16),
                                     # odd rows over several packed words: 2, 3,
                                     # 4, 5 and 10 (uint16 symbols) bit planes
                                     (3, 1, 11, 70), (5, 1, 8, 30), (3, 2, 6, 40),
                                     (5, 2, 4, 30), (3, 6, 2, 10)])
def test_multi_block_enumeration_matches_vectorized_oracle(p, e, k, n):
    field = make_field(p, e)
    g = random_full_rank(field, k, n, np.random.default_rng(k * n))
    assert g.q**k > TABLE_ROWS  # more than one span table's worth of codewords
    if (p, e, k, n) in {(2, 1, 18, 66), (2, 2, 9, 70), (3, 1, 11, 70)}:
        assert table_tiles(_SpanKernel(g)) >= 2  # rows over several words
    assert_matches_oracle(g)


# every q of the oracle tests, and a dimension that gives q^k >= 2000
ORACLE_FIELDS = {2: (2, 1, 11), 3: (3, 1, 7), 4: (2, 2, 6), 5: (5, 1, 5), 7: (7, 1, 4),
                 8: (2, 3, 4), 9: (3, 2, 4), 16: (2, 4, 3), 25: (5, 2, 3), 131: (131, 1, 2),
                 251: (251, 1, 2), 729: (3, 6, 2)}


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_forked_witness_is_the_first_minimum_in_base_q_order(monkeypatch, q):
    # a 64-row table leaves two steps or more, which a forced 2-worker job
    # splits between the calling process and a forked one
    monkeypatch.setattr(linalg, "TABLE_ROWS", 64)
    monkeypatch.setattr(linalg, "FORK_MIN_ENTRIES", 1)
    p, e, k = ORACLE_FIELDS[q]
    g = random_full_rank(make_field(p, e), k, 12, np.random.default_rng(q))
    assert _SpanKernel(g).steps >= 2
    cw = vectorized_codewords(g)
    weights = np.count_nonzero(cw, axis=1)
    first = 1 + int(np.argmin(weights[1:]))
    for jobs in (1, 2):
        cert = min_distance_exhaustive(g, jobs=jobs)
        assert (cert.value, cert.witness) == (weights[first], tuple(map(int, cw[first])))
        assert not multiprocessing.active_children()


def whole_walk(kernel):
    """(step, tile start, weights) of one whole walk of the kernel's table."""
    return _walk(kernel.table, kernel.offsets(0, kernel.steps), kernel.f, kernel.n)


def table_tiles(kernel):
    """The number of tiles one whole walk of the kernel weighs."""
    return len({lo for _, lo, _ in whole_walk(kernel)})


@pytest.mark.parametrize("p,k,copies", [pytest.param(2, 18, 2, id="2-18"),
                                        pytest.param(3, 12, 2, id="3-12"),
                                        # 76 symbols per row, two packed words
                                        pytest.param(2, 18, 4, id="2-18-two-tiles")])
def test_repeated_columns_witness_matches_vectorized_oracle(p, k, copies):
    # the code {(c, sum c, c, sum c, ...)}: minimum-weight words abound and tie
    # across steps, and with rows over two words across tiles too
    field = make_field(p, 1)
    m = random_full_rank(field, k, k, np.random.default_rng(p * k)).entries
    base = np.hstack([m, m.sum(axis=1, keepdims=True, dtype=np.uint16) % p])
    g = GFMatrix(field, np.hstack([base] * copies))
    kernel = _SpanKernel(g)
    assert kernel.high >= 2
    weights = assert_matches_oracle(g)
    d = weights[1:].min()
    assert np.count_nonzero(weights == d) > 10 * (g.q - 1)
    if copies > 2:
        tied = {lo for _, lo, wts in whole_walk(kernel) if (wts == d).any()}
        assert len(tied) >= 2  # minimum-weight ties in different tiles


@pytest.mark.parametrize("p,k,n", [(2, 12, 70), (3, 8, 100)])
def test_small_tiles_and_step_batches_match_vectorized_oracle(monkeypatch, p, k, n):
    # a 64-word cap cuts the table into tiles of 32 (p = 2) or 16 (p = 3)
    # rows and the steps into batches of as many, so one walk crosses several
    # of each
    monkeypatch.setattr(linalg, "TABLE_ROWS", 64)
    g = random_full_rank(make_field(p, 1), k, n, np.random.default_rng(p + k))
    kernel = _SpanKernel(g)
    assert table_tiles(kernel) >= 2
    assert kernel.steps > 64 // kernel.table.shape[0]  # two step batches or more
    assert_matches_oracle(g)


def test_a_later_tile_wins_a_tie_at_an_earlier_step():
    # weight 2 is reached only by low row 15 = e0 + e1 and by the high row
    # 16 = e2 + e3.  Row 15 is the table's top digit, so with 70 symbols
    # over two words it sits in the second tile at T = 0, message 2^15; row
    # 16 is table row 0 plus the high part at T = 1, message 2^16, in the
    # first tile, which the walk weighs at T = 1 before the second tile
    field = make_field(2, 1)
    rng = np.random.default_rng(0)
    while True:
        m = rng.integers(0, 2, size=(17, 70)).astype(np.uint16)
        m[15:] = 0
        m[15, :2] = m[16, 2:4] = 1
        g = GFMatrix(field, m)
        if rank(g) == 17:
            break
    kernel = _SpanKernel(g)
    assert (kernel.b, kernel.steps, table_tiles(kernel)) == (16, 2, 2)
    met = [(kernel._high_index(i), lo) for i, lo, wts in whole_walk(kernel) if (wts == 2).any()]
    assert met == [(1, 0), (0, TABLE_ROWS // 2)]
    weights = assert_matches_oracle(g)
    assert np.count_nonzero(weights == 2) == 2
    assert min_distance_exhaustive(g).witness == (1, 1) + (0,) * 68


def leading_digit(t, q):
    while t >= q:
        t //= q
    return t


@pytest.mark.parametrize("p,e,k,n", [(2, 1, 19, 30), (2, 2, 10, 24), (3, 1, 12, 20),
                                     (5, 1, 8, 14), (2, 4, 6, 20)])
def test_walk_weighs_one_codeword_per_scalar_class(monkeypatch, p, e, k, n):
    field = make_field(p, e)
    g = random_full_rank(field, k, n, np.random.default_rng(k + n))
    kernel = _SpanKernel(g)
    q, high = g.q, kernel.high
    assert high >= 2
    tiles = {}  # tile start -> the T of the steps that weighed it, in order

    def counted(store, offsets, f, n):  # one worker, so offset i is step i
        for i, lo, wts in _walk(store, offsets, f, n):
            tiles.setdefault(lo, []).append(kernel._high_index(i))
            yield i, lo, wts

    monkeypatch.setattr(linalg, "_walk", counted)
    expected = 1 + (q**high - 1) // (q - 1)
    assert min_distance_exhaustive(g).enumerated == q**k - 1
    steps = tiles[0]
    assert len(steps) == len(set(steps)) == expected
    assert all(seen == steps for seen in tiles.values())  # each tile, each step once
    # the zero high part, then high indices with leading base-q digit 1
    assert steps[0] == 0
    assert all(leading_digit(t, q) == 1 for t in steps[1:])
    starts = sorted(tiles)
    words = kernel.f * -(-n // 64)  # f bit planes of ceil(n / 64) words each
    assert kernel.table.shape == (words, q**kernel.b)
    # tiles of TABLE_ROWS words: one at q = 2 and 5, two at q = 3 and 4, four at q = 16
    assert len(starts) == -(-q**kernel.b // (TABLE_ROWS // words))
    tiles.clear()
    dist = weight_distribution(g)
    assert sorted(tiles) == starts and all(seen == steps for seen in tiles.values())
    assert sum(dist) == q**k
    assert all(a % (q - 1) == 0 for a in dist[1:])


# q = 2 and the orders of conftest.py's fields and coset tables: 1, 2, 2,
# 3, 4, 4, 5, 6, 8 and 12 bit planes
WALK_ORDERS = [2, 3, 4, 5, 9, 16, 25, 64, 256, 4096]


def packed(symbols, f):
    """Rows of symbols as a word-major packed store of f bit planes."""
    return _pack_rows(symbols.T, f)


def unpacked_planes(store, f):
    """[plane, row, bit]: bit b of word c of each plane, by shifts, at b + 64c."""
    words = store.reshape(f, -1, store.shape[1])  # [plane, word, row]
    bits = words[..., None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)
    return bits.transpose(0, 2, 1, 3).reshape(f, store.shape[1], -1)


@pytest.mark.parametrize("table_rows", [TABLE_ROWS, 64])
@pytest.mark.parametrize("q", WALK_ORDERS)
def test_pack_rows_puts_bit_i_of_every_symbol_in_plane_i(monkeypatch, q, table_rows):
    # 64 words a tile packs 20 rows in chunks of 8, 4 or 2 rows
    monkeypatch.setattr(linalg, "TABLE_ROWS", table_rows)
    f = (q - 1).bit_length()
    rng = np.random.default_rng(q)
    for n in (1, 63, 64, 65, 130):
        rows = rng.integers(0, q, size=(20, n), dtype=np.uint16)
        rows[0] = q - 1  # every plane set
        store = _pack_rows(rows.T.astype(np.min_scalar_type(q - 1)), f)
        assert store.dtype == np.uint64
        assert store.shape == (f * -(-n // 64), 20)
        bits = unpacked_planes(store, f)
        for i in range(f):
            assert np.array_equal(bits[i, :, :n], rows >> i & 1)
        assert not bits[:, :, n:].any()  # zero past n


@pytest.mark.parametrize("q", [3, 16, 4096])
def test_pack_rows_copies_runs_of_words_that_need_not_divide_a_row(monkeypatch, q):
    # TABLE_ROWS // 16 = 16 rows of one word, or 8 rows in runs of two
    # words, so 130 symbols (3 words a plane) end on a run of one word; a
    # single row (an offset) is one run of every word
    monkeypatch.setattr(linalg, "TABLE_ROWS", 256)
    f = (q - 1).bit_length()
    rng = np.random.default_rng(q)
    for count, n in ((8, 130), (8, 129), (1, 130), (1, 1)):
        rows = rng.integers(0, q, size=(count, n), dtype=np.uint16)
        store = _pack_rows(rows.T.astype(np.min_scalar_type(q - 1)), f)
        assert store.shape == (f * -(-n // 64), count)
        bits = unpacked_planes(store, f)
        for i in range(f):
            assert np.array_equal(bits[i, :, :n], rows >> i & 1)
        assert not bits[:, :, n:].any()


@pytest.mark.parametrize("table_rows", [TABLE_ROWS, 64])
@pytest.mark.parametrize("q", WALK_ORDERS)
def test_walk_counts_the_differing_symbols_tile_by_tile(monkeypatch, q, table_rows):
    # 100 rows and 70 offsets of n symbols: one tile and one batch, or
    # (64 words a tile) tiles of at most 32 rows and as many offsets a batch;
    # n = 64 and 65 fill one word a plane and spill one symbol into a second
    monkeypatch.setattr(linalg, "TABLE_ROWS", table_rows)
    f = (q - 1).bit_length()
    rng = np.random.default_rng(q)
    for n in (70, 64, 65):
        rows = rng.integers(0, q, size=(100, n), dtype=np.uint16)
        offs = rng.integers(0, q, size=(70, n), dtype=np.uint16)
        offs[0], offs[1, ::2] = rows[5], rows[37, ::2]  # weight 0, and a near miss
        want = np.count_nonzero(offs[:, None, :] != rows[None, :, :], axis=2)  # [offset, row]
        store = packed(rows, f)
        tile = max(2, table_rows // len(store))
        assert (tile < len(offs)) == (table_rows == 64)  # several tiles and batches
        seen = []
        for i, start, wts in _walk(store, iter(packed(offs, f).T), f, n):
            assert wts.dtype == np.min_scalar_type(n)
            assert np.array_equal(wts, want[i, start:start + tile])
            seen.append((i, start))
        # each tile is weighed against a whole batch before the next tile
        assert seen == [(i, start) for first in range(0, len(offs), tile)
                        for start in range(0, len(rows), tile)
                        for i in range(first, min(first + tile, len(offs)))]


def test_walk_of_no_offsets_yields_nothing():
    store = packed(np.ones((4, 10), dtype=np.uint16), 2)
    assert list(_walk(store, iter([]), 2, 10)) == []


def test_rows_wider_than_half_a_tile_make_tiles_of_two_rows(monkeypatch):
    # 2100 binary symbols take 33 words a row, more than the 32 that half a
    # 64-word tile holds, so the tiles are cut at the floor of two rows
    monkeypatch.setattr(linalg, "TABLE_ROWS", 64)
    g = random_full_rank(make_field(2, 1), 8, 2100, np.random.default_rng(2100))
    kernel = _SpanKernel(g)
    words, rows = kernel.table.shape
    assert (words, rows, kernel.steps) == (33, 64, 4)
    tiles = {lo: len(wts) for _, lo, wts in whole_walk(kernel)}
    assert tiles == dict.fromkeys(range(0, rows, 2), 2)
    assert_matches_oracle(g)


def test_weight_distribution_invariants(f4, f16):
    rng = np.random.default_rng(29)
    for field, k, n in ((f4, 5, 14), (f16, 3, 20), (make_field(3, 1), 6, 12)):
        g = random_full_rank(field, k, n, rng)
        dist = weight_distribution(g)
        assert len(dist) == n + 1
        assert sum(dist) == g.q**k
        assert dist[0] == 1
        assert next(i for i in range(1, n + 1) if dist[i]) == min_distance_exhaustive(g).value
    with pytest.raises(BudgetExceededError):
        weight_distribution(gf_matrix(f16, np.eye(10)), budget=100)
    with pytest.raises(ValueError):
        weight_distribution(gf_matrix(f4, [[1, 2, 3], [1, 2, 3]]))


def test_distance_invariant_under_column_permutation_and_rref(f4):
    rng = np.random.default_rng(5)
    g = GFMatrix(f4, rng.integers(0, 4, size=(5, 14)).astype(np.uint16))
    while rank(g) != 5:
        g = GFMatrix(f4, rng.integers(0, 4, size=(5, 14)).astype(np.uint16))
    d = min_distance_exhaustive(g).value
    perm = rng.permutation(14)
    assert min_distance_exhaustive(GFMatrix(f4, g.entries[:, perm])).value == d
    _, rr = rank_and_rref(g)
    assert min_distance_exhaustive(rr).value == d


def test_parallel_enumeration_matches_sequential(f4, monkeypatch):
    monkeypatch.setattr(linalg, "FORK_MIN_ENTRIES", 1)  # fork even these small jobs

    def no_pickle(self, protocol):
        raise AssertionError("the kernel reaches workers by fork, not by pickle")

    monkeypatch.setattr(_SpanKernel, "__reduce_ex__", no_pickle)
    g = random_full_rank(f4, 9, 20, np.random.default_rng(11))
    assert g.q**g.rows > TABLE_ROWS  # several high steps to split between workers
    seq = min_distance_exhaustive(g, jobs=1)
    for jobs in (2, 3):  # 3 workers split the high steps unevenly
        par = min_distance_exhaustive(g, jobs=jobs)
        assert seq.value == par.value
        assert seq.witness == par.witness
        assert seq.enumerated == par.enumerated
        assert not multiprocessing.active_children()
    g = random_full_rank(make_field(3, 1), 13, 22, np.random.default_rng(13))
    seq = min_distance_exhaustive(g, jobs=1)
    for jobs in (2, 3):  # odd characteristic, 14 steps
        par = min_distance_exhaustive(g, jobs=jobs)
        assert (seq.value, seq.witness, seq.enumerated) == (par.value, par.witness, par.enumerated)
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("q_e,k,n", [((2, 2), 12, 21), ((2, 4), 6, 51), ((3, 1), 10, 27),
                                     ((3, 1), 16, 27)])
def test_small_job_runs_in_process(monkeypatch, q_e, k, n):
    # the sizes of the certify benchmark codes, and a ternary k = 16 code:
    # each weighs at most 43.1M table words (365 steps of 3^10 rows of two
    # plane words), under FORK_MIN_ENTRIES, so neither jobs=2 nor the
    # default worker count starts a pool
    g = random_full_rank(make_field(*q_e), k, n, np.random.default_rng(17))

    def no_fork(method):
        raise AssertionError(f"{method} pool started for a job that cannot pay for it")

    monkeypatch.setattr(linalg, "get_context", no_fork)
    seq = min_distance_exhaustive(g, jobs=1)
    assert min_distance_exhaustive(g, jobs=2) == seq
    assert min_distance_exhaustive(g) == seq


@pytest.mark.parametrize("route", ["affinity", "cpu_count"])
def test_default_worker_count_is_the_usable_cpus(f4, monkeypatch, route):
    monkeypatch.setattr(linalg, "FORK_MIN_ENTRIES", 1)
    if route == "affinity":
        monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
    else:  # a platform without an affinity mask
        monkeypatch.delattr(linalg.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(linalg.os, "cpu_count", lambda: 3)
    real_context = linalg.get_context
    pools = []

    class RecordingContext:
        def __init__(self, method):
            self.context = real_context(method)

        def Pool(self, processes, *args):
            pools.append(processes)
            return self.context.Pool(processes, *args)

    monkeypatch.setattr(linalg, "get_context", RecordingContext)
    g = random_full_rank(f4, 10, 20, np.random.default_rng(19))  # 6 high steps
    seq = min_distance_exhaustive(g, jobs=1)
    assert pools == []
    par = min_distance_exhaustive(g)
    assert pools == [2]  # 3 workers: the calling process and a pool of 2
    assert (seq.value, seq.witness, seq.enumerated) == (par.value, par.witness, par.enumerated)
    assert not multiprocessing.active_children()


def test_failing_caller_chunk_leaves_no_child(f4, monkeypatch):
    monkeypatch.setattr(linalg, "FORK_MIN_ENTRIES", 1)
    first_minimum = _SpanKernel.first_minimum

    def caller_chunk_fails(self, start, stop):
        if start == 0:  # the chunk the calling process weighs itself
            raise RuntimeError("caller chunk failed")
        return first_minimum(self, start, stop)

    monkeypatch.setattr(_SpanKernel, "first_minimum", caller_chunk_fails)
    g = random_full_rank(f4, 9, 20, np.random.default_rng(11))
    with pytest.raises(RuntimeError, match="caller chunk failed"):
        min_distance_exhaustive(g, jobs=3)
    assert not multiprocessing.active_children()


def test_budget_and_rank_errors(f16, f4):
    with pytest.raises(BudgetExceededError):
        min_distance_exhaustive(gf_matrix(f16, np.eye(10)), budget=100)
    dep = gf_matrix(f4, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError):
        min_distance_exhaustive(dep)
    with pytest.raises(ValueError):
        min_distance_exhaustive(gf_matrix(f4, [], cols=5))


def test_budget_refusal_names_the_limit():
    check_budget(2, 62, 1 << 62)  # 2^62 - 1 codewords: the largest count allowed
    with pytest.raises(BudgetExceededError, match="^enumeration of 4095 codewords "
                                                  "exceeds budget 100$"):
        check_budget(4, 6, 100)
    with pytest.raises(BudgetExceededError, match="int64 count cap 2\\^62$"):
        check_budget(2, 63, 1 << 63)
    # past both limits the budget, which the caller chose, is named
    with pytest.raises(BudgetExceededError, match="exceeds budget 100$"):
        check_budget(2, 63, 100)


def test_repetition_code_distance(f4):
    cert = min_distance_exhaustive(gf_matrix(f4, [[1] * 52]))
    assert cert.value == 52
    assert cert.enumerated == 3
    assert cert.method == "exhaustive"


def test_certificate_serialization(f4):
    cert = min_distance_exhaustive(gf_matrix(f4, [[1, 1, 0], [0, 1, 1]]))
    d = cert.as_dict()
    assert set(d) == {"method", "value", "enumerated", "witness"}
    assert d["enumerated"] == 15
