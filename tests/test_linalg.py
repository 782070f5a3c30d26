import numpy as np
import pytest

from cosetcodes import (BudgetExceededError, GFMatrix, gf_matrix, gram_is_zero,
                        make_field, min_distance_exhaustive, nullspace,
                        pow_entrywise, rank, rank_and_rref, row_space_equal)
from cosetcodes.linalg import (TABLE_ROWS, _codeword_for_message, _gray_digits,
                               weight_distribution)


def random_full_rank(field, k, n, rng):
    while True:
        g = GFMatrix(field, rng.integers(0, field.order, size=(k, n)).astype(np.uint16))
        if rank(g) == k:
            return g


def naive_gray_scan(g):
    """(first minimum-weight Gray index, weight histogram), one codeword at a time."""
    q, k = g.q, g.rows
    counts = [0] * (g.cols + 1)
    best_w, best_t = g.cols + 1, -1
    for t in range(q**k):
        cw = _codeword_for_message(g.field, g.entries, _gray_digits(t, k, q))
        w = int(np.count_nonzero(cw))
        counts[w] += 1
        if t and w < best_w:
            best_w, best_t = w, t
    return best_t, counts


def vectorized_gray_codewords(g):
    """All q^k codewords, row t the Gray-order message t, built column-wise."""
    field, q, k = g.field, g.q, g.rows
    t = np.arange(q**k, dtype=np.int64)
    base = [t // q**i % q for i in range(k + 1)]
    cw = np.zeros((q**k, g.cols), dtype=np.uint16)
    for i in range(k):
        scaled = field.mul_table[np.arange(q)[:, None], g.entries[i][None, :]]
        part = scaled[(base[i] - base[i + 1]) % q]
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
    with pytest.raises(ValueError):
        gram_is_zero(g, gf_matrix(f4, [[1, 2]]))
    with pytest.raises(ValueError):
        gram_is_zero(g, g, "hermitian", ell=1)
    with pytest.raises(ValueError):
        gram_is_zero(g, g, "hermitian", ell=3)  # 9 != 4
    with pytest.raises(ValueError):
        gram_is_zero(gf_matrix(f16, [[1]]), gf_matrix(f4, [[1]]))


def test_hermitian_equals_euclidean_of_powered_first_argument(f16):
    rng = np.random.default_rng(9)
    a = GFMatrix(f16, rng.integers(0, 16, size=(3, 8)).astype(np.uint16))
    b = GFMatrix(f16, rng.integers(0, 16, size=(2, 8)).astype(np.uint16))
    assert gram_is_zero(a, b, "hermitian", ell=4) == gram_is_zero(pow_entrywise(a, 4), b)


def test_gray_sequence_changes_one_symbol_per_step():
    for q, k in ((2, 5), (4, 3), (8, 2)):
        prev = _gray_digits(0, k, q)
        seen = {tuple(prev)}
        for t in range(1, q**k):
            cur = _gray_digits(t, k, q)
            diffs = [i for i in range(k) if cur[i] != prev[i]]
            assert len(diffs) == 1
            i = diffs[0]
            assert cur[i] == (prev[i] + 1) % q
            seen.add(tuple(cur))
            prev = cur
        assert len(seen) == q**k  # bijective traversal


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)])
def test_enumerator_matches_naive_recomputation(p, e):
    field = make_field(p, e)
    q = field.order
    rng = np.random.default_rng(17 * p + e)
    for k in (1, 2, 3, 4):
        if q**k > 1 << 14:
            continue
        g = random_full_rank(field, k, int(rng.integers(4, 12)), rng)
        best_t, counts = naive_gray_scan(g)
        first = _codeword_for_message(field, g.entries, _gray_digits(best_t, k, q))
        cert = min_distance_exhaustive(g)
        assert cert.value == int(np.count_nonzero(first))
        assert cert.witness == tuple(map(int, first))  # the first minimum in Gray order
        assert cert.enumerated == q**k - 1
        assert weight_distribution(g) == counts


@pytest.mark.parametrize("p,e,k,n", [(2, 1, 18, 24), (2, 1, 18, 66), (3, 1, 11, 20),
                                     (2, 2, 9, 30), (2, 2, 9, 70), (2, 3, 6, 30)])
def test_multi_block_enumeration_matches_vectorized_oracle(p, e, k, n):
    field = make_field(p, e)
    g = random_full_rank(field, k, n, np.random.default_rng(k * n))
    assert g.q**k > TABLE_ROWS  # more than one span table's worth of codewords
    cw = vectorized_gray_codewords(g)
    weights = np.count_nonzero(cw, axis=1)
    first = 1 + int(np.argmin(weights[1:]))
    cert = min_distance_exhaustive(g)
    assert cert.value == weights[first]
    assert cert.witness == tuple(map(int, cw[first]))
    assert weight_distribution(g) == np.bincount(weights, minlength=n + 1).tolist()


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


def test_parallel_enumeration_matches_sequential(f4):
    g = random_full_rank(f4, 9, 20, np.random.default_rng(11))
    assert g.q**g.rows > TABLE_ROWS  # several high steps to split between workers
    seq = min_distance_exhaustive(g, jobs=1)
    for jobs in (2, 3):  # 3 workers split the high steps unevenly
        par = min_distance_exhaustive(g, jobs=jobs)
        assert seq.value == par.value
        assert seq.witness == par.witness
        assert seq.enumerated == par.enumerated


def test_budget_and_rank_errors(f16, f4):
    with pytest.raises(BudgetExceededError):
        min_distance_exhaustive(gf_matrix(f16, np.eye(10)), budget=100)
    dep = gf_matrix(f4, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError):
        min_distance_exhaustive(dep)
    with pytest.raises(ValueError):
        min_distance_exhaustive(gf_matrix(f4, [], cols=5))


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
