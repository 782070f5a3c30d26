"""Dense linear algebra over small Galois-field alphabets.

Matrices carry their symbol :class:`~cosetcodes.galois.Field` and a numpy
uint16 entry array.  Row reduction and nullspaces run on the field's
dense lookup tables: each pivot tabulates the q multiples of its row
once, and clearing its column is a row gather from that table.  Gram
products expand symbols into their base-p digits and run as float32
matrix products over F_p (BLAS), exact by construction; see
:func:`gram_is_zero`.

The module also houses the exhaustive minimum-distance certifier, the
performance-critical piece of the package.  Messages are indexed in
q-ary modular Gray order.  Scalar multiples of a codeword share its
weight, so the certifier weighs one codeword of each scalar class.  One
split-table kernel serves every characteristic: it holds the span of the
low generator rows (at most ``TABLE_ROWS`` codewords) and, for the zero
high part and each high Gray index whose leading base-q digit is 1, adds
one high-part vector onto the whole table and counts nonzero symbols per
row.  Characteristic 2 works on bit-packed uint64 words, odd
characteristic on one byte per symbol.  The same step loop yields the
full weight distribution, each class outside the table counted q - 1
times.

The steps run in increasing Gray order and weigh the Gray-first member
of each class, so the reported witness is still the first
minimum-weight codeword in Gray order.  Certification can split the
steps into contiguous chunks on a process pool; results, witness
included, are identical to the sequential traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .galois import Field

DEFAULT_BUDGET = 1 << 26
TABLE_ROWS = 1 << 16  # span-table row cap of the enumeration kernel
F32_EXACT = 1 << 24  # float32 holds every integer up to this one exactly
GRAM_BLOCK_ROWS = 128  # g1 rows per block of gram_is_zero
GRAM_FLOATS = 1 << 17  # float32 operands of one gram_is_zero product


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


@dataclass(frozen=True, eq=False)
class GFMatrix:
    """A dense matrix over a small field, entries as uint16 symbols."""

    field: Field
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.entries, dtype=np.uint16)
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        if arr.size and int(arr.max()) >= self.field.order:
            raise ValueError("entry outside the field's symbol range")
        object.__setattr__(self, "entries", arr)

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"GFMatrix(q={self.q}, {self.rows}x{self.cols})"


def gf_matrix(field: Field, rows, cols: int | None = None) -> GFMatrix:
    """Build a GFMatrix from nested lists (cols needed for empty matrices)."""
    arr = np.asarray(rows, dtype=np.uint16)
    if arr.size == 0:
        arr = arr.reshape(0, cols if cols is not None else 0)
    return GFMatrix(field, arr)


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

def rank_and_rref(m: GFMatrix) -> tuple[int, GFMatrix]:
    """Rank and the unique reduced row echelon form (canonical).

    Each pivot row is scaled to a leading 1 and its q multiples are
    tabulated once (negated in odd characteristic).  Clearing the pivot
    column is then one row gather of those multiples, indexed by the
    column, plus one XOR or add-table pass over the matrix; the pivot row
    itself gathers the zero multiple.  The pivot row is zero left of the
    pivot column, so only the columns from it on are touched.
    """
    field = m.field
    dtype = np.min_scalar_type(field.order - 1)
    a = m.entries.astype(dtype)
    rows, cols = a.shape
    mul = field.mul_table.astype(dtype, copy=False)
    if field.p != 2:
        neg = field.neg_table.astype(dtype, copy=False)
        add = field.add_table.astype(dtype, copy=False)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r, c:] = mul[field.inv(pv)][a[r, c:]]
        col_vals = a[:, c].copy()
        col_vals[r] = 0
        multiples = np.take(mul, a[r, c:], axis=1)  # row v is v * pivot row
        if field.p == 2:
            a[:, c:] ^= np.take(multiples, col_vals, axis=0)
        else:
            a[:, c:] = add[a[:, c:], np.take(neg[multiples], col_vals, axis=0)]
        r += 1
    return r, GFMatrix(field, a[:r])


def rank(m: GFMatrix) -> int:
    return rank_and_rref(m)[0]


def row_space_equal(a: GFMatrix, b: GFMatrix) -> bool:
    """Equality of row spaces via canonical reduced forms."""
    if a.field is not b.field or a.cols != b.cols:
        return False
    ra, fa = rank_and_rref(a)
    rb, fb = rank_and_rref(b)
    return ra == rb and np.array_equal(fa.entries, fb.entries)


def nullspace(m: GFMatrix) -> GFMatrix:
    """Rows spanning {v : M v = 0} under the dot product."""
    ent = rank_and_rref(m)[1].entries
    pivots = [int(np.flatnonzero(row)[0]) for row in ent]
    free = np.setdiff1d(np.arange(m.cols), pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.uint16)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = m.field.neg_table[ent[:, free]].T
    return GFMatrix(m.field, basis)


def pow_entrywise(m: GFMatrix, k: int) -> GFMatrix:
    return GFMatrix(m.field, m.field.pow_table(k)[m.entries])


def gram_is_zero(g1: GFMatrix, g2: GFMatrix) -> bool:
    """True iff every row of g1 is orthogonal to every row of g2 (dot product).

    For the Hermitian product over F_(ell^2), pass ``pow_entrywise(g1, ell)``
    as the first argument.

    The products run over F_p as float32 matrix products.  A symbol's
    base-p digits are its coordinates on 1, x, ..., x^(f-1) (q = p^f), so
    digit t of <a, b> is sum_c sum_j digit_t(x^j a_c) * digit_j(b_c)
    mod p.  For each block of g1 rows and each digit t, the sum runs over
    column chunks in float64.  A chunk of w columns has partial sums of at
    most (p-1)^2 * f * w, so w is capped to keep that below 2^24, where
    float32 holds every integer exactly; w is also capped so that both
    operands of a product hold at most ``GRAM_FLOATS`` floats.  The first
    block and digit with a nonzero residue return False.
    """
    if g1.field is not g2.field:
        raise ValueError("matrices use different field contexts")
    if g1.cols != g2.cols:
        raise ValueError("matrices must have the same number of columns")
    if g1.rows == 0 or g2.rows == 0 or g1.cols == 0:
        return True
    field = g1.field
    p, f = field.p, field.e
    powers = p ** np.arange(f)
    symbols = np.arange(field.order)
    digits = (symbols[:, None] // powers % p).astype(np.float32)  # [v, j]
    shifted = field.mul_table[powers].T  # [v, j] = x^j * v
    shifted_digits = (shifted[None] // powers[:, None, None] % p).astype(np.float32)  # [t, v, j]
    block = min(g1.rows, GRAM_BLOCK_ROWS)
    # columns per product: exact in float32 (at least one column for every
    # field with dense tables) and operands within GRAM_FLOATS floats
    step = min((F32_EXACT - 1) // ((p - 1) ** 2 * f),
               max(1, GRAM_FLOATS // (f * (g2.rows + block))))
    for lo in range(0, g1.rows, block):
        rows = g1.entries[lo:lo + block]
        for t in range(f):
            sums = np.zeros((len(rows), g2.rows))
            for c in range(0, g1.cols, step):
                a = np.take(shifted_digits[t], rows[:, c:c + step], axis=0)
                b = np.take(digits, g2.entries[:, c:c + step], axis=0)
                sums += a.reshape(len(rows), -1) @ b.reshape(g2.rows, -1).T
            if np.any(sums.astype(np.int64) % p):
                return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive minimum distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCertificate:
    """Result of a minimum-weight computation over a code's codewords.

    ``enumerated`` counts the nonzero codewords whose weight is
    certified, q^k - 1; the kernel weighs one codeword per scalar class
    and covers the other q - 2 multiples by their equal weight.
    """

    method: str               # always "exhaustive"
    value: int
    enumerated: int
    witness: tuple[int, ...] | None

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "enumerated": self.enumerated,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _gray_digits(t: int, k: int, q: int) -> list[int]:
    """Digits of the q-ary modular Gray code of t: g_i = (t_i - t_{i+1}) mod q."""
    base = []
    v = t
    for _ in range(k + 1):
        v, r = divmod(v, q)
        base.append(r)
    return [(base[i] - base[i + 1]) % q for i in range(k)]


def _codeword_for_message(field: Field, rows: np.ndarray, message) -> np.ndarray:
    out = np.zeros(rows.shape[1], dtype=np.uint16)
    mul = field.mul_table
    for sym, row in zip(message, rows):
        if sym:
            out = field.add(out, mul[int(sym)][row])
    return out


def _pack_rows(rows: np.ndarray, f: int) -> np.ndarray:
    """Pack symbol rows into uint64 words, 64//f symbols per word.

    Symbols never straddle word boundaries, so per-word bit tricks can
    count nonzero symbols exactly.
    """
    n = rows.shape[1]
    sw = 64 // f
    nwords = -(-n // sw)
    packed = np.zeros((rows.shape[0], nwords), dtype=np.uint64)
    for j in range(n):
        word, slot = divmod(j, sw)
        packed[:, word] |= rows[:, j].astype(np.uint64) << np.uint64(slot * f)
    return packed


class _SpanKernel:
    """Split-table enumeration of a full-rank k x n matrix, one codeword per scalar class.

    Gray index t splits as t = t_low + q^b * T.  The high Gray digits
    (rows b..k-1) are the Gray digits of T; the low ones are the Gray
    digits of t_low, except that digit b-1 is shifted by -(T mod q).  So
    for each high index T the q^b codewords t_low + q^b * T are exactly
    the span table of the low b rows plus one high-part vector, in an
    order fixed by T mod q.  ``b`` is the largest value with q^b <=
    TABLE_ROWS, but at least 1.

    The leading nonzero digit of T equals that of its Gray digits (the
    high message u), and lambda * u has leading digit lambda.  So each
    scalar class of codewords outside the span table has exactly one
    member whose T has leading base-q digit 1, and no member with a
    smaller T.  The steps are T = 0 (the table itself) and, in increasing
    order, every T in [q^j, 2 q^j) for j < h = k - b: 1 + (q^h - 1)/(q - 1)
    steps instead of q^h, still in Gray order, so the first minimum they
    meet is the first of the whole code.

    Characteristic 2 keeps table rows as packed uint64 words (word-major,
    shape (words, q^b)) and adds by XOR.  Odd characteristic keeps one
    symbol per entry (shape (q^b, n), uint8 up to q = 256): a symbol of
    row + h is zero exactly where the row equals -h, so no addition is
    needed per step.
    """

    def __init__(self, g: GFMatrix):
        field = g.field
        q, k, n = g.q, g.rows, g.cols
        b = 1
        while b < k and q ** (b + 1) <= TABLE_ROWS:
            b += 1
        self.q, self.n, self.b, self.high = q, n, b, k - b
        self.steps = 1 + (q ** (k - b) - 1) // (q - 1)
        # scaled[i, v] = v * row_i
        scaled = field.mul_table[np.arange(q)[None, :, None], g.entries[:, None, :]]
        if field.p == 2:
            f = field.e
            scaled = np.stack([_pack_rows(s, f) for s in scaled])
            table = np.zeros((1, scaled.shape[2]), dtype=np.uint64)
            for i in range(b):
                table = (scaled[i][:, None, :] ^ table[None, :, :]).reshape(-1, table.shape[1])
            self.table = np.ascontiguousarray(table.T)
            slot_lo = (1 << (f - 1)) - 1
            self.lo = np.uint64(sum(slot_lo << (f * s) for s in range(64 // f)))
            self.hi = np.uint64(sum((slot_lo + 1) << (f * s) for s in range(64 // f)))
            self.f = f
        else:
            add = field.add_table.astype(np.min_scalar_type(q - 1))
            scaled = scaled.astype(add.dtype)
            table = np.zeros((1, n), dtype=add.dtype)
            for i in range(b):
                table = add[scaled[i][:, None, :], table[None, :, :]].reshape(-1, n)
            self.table = table
            self.add, self.neg = add, field.neg_table.astype(add.dtype)
        self.scaled_high = scaled[b:]
        self.char2 = field.p == 2

    def _high_index(self, step: int) -> int:
        """T of a step: 0, then the integers whose leading base-q digit is 1."""
        if step == 0:
            return 0
        rest, lead = step - 1, 1  # lead = q^j, the place of the leading digit
        while rest >= lead:
            rest -= lead
            lead *= self.q
        return lead + rest

    def _minus_high_part(self, t_high: int) -> np.ndarray:
        """-(sum of the high rows scaled by the Gray digits of t_high)."""
        digits = _gray_digits(t_high, self.high, self.q)
        parts = self.scaled_high[np.arange(self.high), digits]
        if self.char2:
            return np.bitwise_xor.reduce(parts, axis=0)
        h = np.zeros(self.n, dtype=self.add.dtype)
        for part in parts:
            h = self.add[h, part]
        return self.neg[h]

    def weights(self, start: int, stop: int):
        """Yield (T, weights) for the steps in [start, stop).

        ``weights[m]`` is the weight of span-table row m plus the high
        part of T; row 0 of step 0 is the zero codeword.  The array may
        be reused between steps.
        """
        if self.char2:
            x, y = np.empty_like(self.table), np.empty_like(self.table)
        else:
            ne = np.empty(self.table.shape, dtype=bool)
        for step in range(start, stop):
            t_high = self._high_index(step)
            h = self._minus_high_part(t_high)
            if self.char2:
                yield t_high, self._packed_weights(h, x, y)
            else:
                yield t_high, np.count_nonzero(np.not_equal(self.table, h, out=ne), axis=1)

    def _packed_weights(self, h: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Nonzero symbols per row of table + h, using x and y as scratch."""
        np.bitwise_xor(self.table, h[:, None], out=x)
        # ((x & lo) + lo | x) & hi sets bit f-1 of a slot iff its symbol is nonzero
        np.bitwise_and(x, self.lo, out=y)
        np.add(y, self.lo, out=y)
        np.bitwise_or(y, x, out=y)
        np.bitwise_and(y, self.hi, out=y)
        # after shifts 0..f-1 the flags of f words occupy disjoint bits
        counts = None
        for g0 in range(0, len(y), self.f):
            acc = y[g0]
            for j in range(1, min(self.f, len(y) - g0)):
                acc |= y[g0 + j] >> np.uint64(j)
            c = np.bitwise_count(acc)
            counts = c if counts is None else counts + c.astype(np.int64)
        return counts

    def _first_low_index(self, rows: np.ndarray, t_b: int) -> int:
        """Smallest t_low whose low Gray digits, shifted by t_b, index one of ``rows``."""
        q = self.q
        t_low = np.zeros_like(rows)
        digit = np.full_like(rows, t_b)
        for i in reversed(range(self.b)):
            digit = (rows // q**i % q + digit) % q
            t_low += digit * q**i
        return int(t_low.min())

    def first_minimum(self, start: int, stop: int) -> tuple[int, int]:
        """(weight, t) of the first nonzero minimum-weight codeword of steps [start, stop)."""
        best_w, best_t = self.n + 1, -1
        for t_high, wts in self.weights(start, stop):
            skip = 1 if t_high == 0 else 0  # the zero codeword
            w = int(wts[skip:].min())
            if w < best_w:
                rows = np.flatnonzero(wts[skip:] == w) + skip
                best_w = w
                best_t = (t_high * self.q**self.b
                          + self._first_low_index(rows, t_high % self.q))
        return best_w, best_t


def _first_minimum_chunk(args) -> tuple[int, int]:
    kernel, start, stop = args
    return kernel.first_minimum(start, stop)


def check_budget(q: int, k: int, budget: int) -> None:
    """Raise :class:`BudgetExceededError` unless a dimension-k code over
    F_q is small enough to certify: q^k - 1 at most ``budget`` and below
    2^62.  The message names the limit that refused the job."""
    total = q**k - 1
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of {total} codewords exceeds budget {budget}")
    if total >= 1 << 62:  # counts and row indices are int64
        raise BudgetExceededError(
            f"enumeration of {total} codewords reaches the int64 count cap 2^62")


def _enumerable_kernel(g: GFMatrix, budget: int) -> _SpanKernel:
    """The kernel for g after the budget and rank checks."""
    k = g.rows
    if k == 0:
        raise ValueError("cannot certify an empty code")
    check_budget(g.q, k, budget)
    if rank(g) != k:
        raise ValueError("generator matrix is rank-deficient")
    return _SpanKernel(g)


def min_distance_exhaustive(g: GFMatrix, budget: int = DEFAULT_BUDGET,
                            jobs: int = 1) -> DistanceCertificate:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    One codeword of each scalar class is weighed.  The witness is the
    first codeword attaining the minimum in the q-ary modular Gray order
    of messages, at every worker count.  Raises
    :class:`BudgetExceededError` when q^k - 1 exceeds ``budget`` (or
    does not fit int64 counts) and ValueError for rank-deficient input.
    """
    kernel = _enumerable_kernel(g, budget)
    workers = min(jobs, kernel.steps)
    if workers <= 1:
        best_w, best_t = kernel.first_minimum(0, kernel.steps)
    else:
        cuts = [kernel.steps * i // workers for i in range(workers + 1)]
        tasks = [(kernel, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        with get_context("fork").Pool(workers) as pool:
            best_w, best_t = min(pool.map(_first_minimum_chunk, tasks))
    k = g.rows
    message = _gray_digits(best_t, k, g.q)
    witness = _codeword_for_message(g.field, g.entries, message)
    w = int(np.count_nonzero(witness))
    if w != best_w:
        raise AssertionError("witness weight disagrees with enumerated minimum")
    return DistanceCertificate(method="exhaustive", value=best_w,
                               enumerated=g.q**k - 1, witness=tuple(map(int, witness)))


def weight_distribution(g: GFMatrix, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Exact weight enumerator [A_0, ..., A_n] of the code spanned by g.

    Same enumeration, budget and rank checks as
    :func:`min_distance_exhaustive`; a step with a nonzero high part
    counts each of its codewords q - 1 times, once per scalar multiple.
    """
    kernel = _enumerable_kernel(g, budget)
    counts = np.zeros(g.cols + 1, dtype=np.int64)
    for t_high, wts in kernel.weights(0, kernel.steps):
        counts += np.bincount(wts, minlength=g.cols + 1) * (g.q - 1 if t_high else 1)
    return counts.tolist()
