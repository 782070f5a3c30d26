import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcodes import BudgetExceededError, linalg, make_field, min_distance_exhaustive
from cosetcodes.linalg import (F32_EXACT, TABLE_ROWS, GFMatrix, _codeword_for_message,
                               _gray_digits, _SpanKernel, check_budget, gf_matrix,
                               gram_is_zero, nullspace, pow_entrywise, rank,
                               rank_and_rref, row_space_equal, weight_distribution)

# (p, e) of the fields the property tests draw from; ell^2 = p^e for even e
PROPERTY_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 6), (3, 1), (3, 2), (5, 1), (7, 1)]


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
        gram_is_zero(gf_matrix(f16, [[1]]), gf_matrix(f4, [[1]]))


def oracle_rref(field, entries):
    """Scalar Gauss-Jordan elimination with Field.mul/add/inv/neg."""
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
                factor = field.neg(a[i][c])
                a[i] = [field.add(x, field.mul(factor, y)) for x, y in zip(a[i], a[r])]
        r += 1
    return r, a[:r]


def oracle_gram_is_zero(field, e1, e2, ell=None):
    """Every row pair's sum of Field.mul products, the first row raised to ell."""
    for u in e1:
        u = [field.pow(int(x), ell) if ell else int(x) for x in u]
        for v in e2:
            acc = 0
            for x, y in zip(u, v):
                acc = field.add(acc, field.mul(x, int(y)))
            if acc:
                return False
    return True


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
    assert gram_is_zero(g1, g2) == oracle_gram_is_zero(field, g1.entries, g2.entries)
    ell = hermitian_ell(field)
    if ell is not None:
        assert (gram_is_zero(pow_entrywise(g1, ell), g2)
                == oracle_gram_is_zero(field, g1.entries, g2.entries, ell))


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


def test_gram_past_the_float32_bound_matches_the_oracle():
    # 5063 columns of 59 over F_61: <a, a> = 5063 * 59^2 = 17624303, which is
    # odd and above 2^24, so a single float32 product cannot hold it exactly
    p, cols = 61, 61 * 83
    assert (p - 1) ** 2 * cols >= F32_EXACT
    field = make_field(p, 1)
    a = gf_matrix(field, [[59] * cols])
    assert gram_is_zero(a, a)
    assert oracle_gram_is_zero(field, a.entries, a.entries)
    b = gf_matrix(field, [[59] * (cols - 1) + [58]])
    assert not gram_is_zero(a, b)
    assert not oracle_gram_is_zero(field, a.entries, b.entries)


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


def assert_matches_gray_oracle(g):
    """Distance, Gray-first witness and weight distribution against every codeword."""
    cw = vectorized_gray_codewords(g)
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
                                     # odd rows over several packed words: 2-bit,
                                     # 3-bit, 4-bit, 5-bit and 10-bit (uint16) slots
                                     (3, 1, 11, 70), (5, 1, 8, 30), (3, 2, 6, 40),
                                     (5, 2, 4, 30), (3, 6, 2, 10)])
def test_multi_block_enumeration_matches_vectorized_oracle(p, e, k, n):
    field = make_field(p, e)
    g = random_full_rank(field, k, n, np.random.default_rng(k * n))
    assert g.q**k > TABLE_ROWS  # more than one span table's worth of codewords
    assert_matches_gray_oracle(g)


@pytest.mark.parametrize("p,k", [(2, 18), (3, 12)])
def test_repeated_columns_witness_matches_vectorized_oracle(p, k):
    # the code {(c, sum c, c, sum c)}: minimum-weight words abound and tie across steps
    field = make_field(p, 1)
    m = random_full_rank(field, k, k, np.random.default_rng(p * k)).entries
    base = np.hstack([m, m.sum(axis=1, keepdims=True, dtype=np.uint16) % p])
    g = GFMatrix(field, np.hstack([base, base]))
    assert _SpanKernel(g).high >= 2
    weights = assert_matches_gray_oracle(g)
    assert np.count_nonzero(weights == weights[1:].min()) > 10 * (g.q - 1)


def leading_digit(t, q):
    while t >= q:
        t //= q
    return t


@pytest.mark.parametrize("p,e,k,n", [(2, 1, 19, 30), (2, 2, 10, 24), (3, 1, 12, 20),
                                     (5, 1, 8, 14), (2, 4, 6, 20)])
def test_walk_weighs_one_codeword_per_scalar_class(monkeypatch, p, e, k, n):
    field = make_field(p, e)
    g = random_full_rank(field, k, n, np.random.default_rng(k + n))
    q, high = g.q, _SpanKernel(g).high
    assert high >= 2
    steps = []
    walk = _SpanKernel.weights

    def counted(self, start, stop):
        for t_high, wts in walk(self, start, stop):
            steps.append(t_high)
            yield t_high, wts

    monkeypatch.setattr(_SpanKernel, "weights", counted)
    expected = 1 + (q**high - 1) // (q - 1)
    assert min_distance_exhaustive(g).enumerated == q**k - 1
    assert len(steps) == len(set(steps)) == expected
    # the zero high part, then high Gray indices with leading base-q digit 1
    assert steps[0] == 0
    assert all(leading_digit(t, q) == 1 for t in steps[1:])
    steps.clear()
    dist = weight_distribution(g)
    assert len(steps) == expected
    assert sum(dist) == q**k
    assert all(a % (q - 1) == 0 for a in dist[1:])


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
    # each weighs at most 21.5M table words (365 steps of 3^10 one-word
    # rows), under FORK_MIN_ENTRIES, so neither jobs=2 nor the default
    # worker count starts a pool
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
