"""Dense linear algebra over small Galois-field alphabets.

Matrices carry their symbol :class:`~cosetcodes.galois.Field` and a numpy
uint16 entry array.  Row reduction, nullspaces and Gram products run on
dense lookup tables, which is comfortably fast for the sizes this package
touches (at most a few hundred rows and columns).

The module also houses the exhaustive minimum-distance certifier, the
performance-critical piece of the package.  Messages are traversed in
q-ary modular Gray order, so consecutive messages differ in exactly one
symbol.  One split-table kernel serves every characteristic: it holds
the span of the low generator rows (at most ``TABLE_ROWS`` codewords)
and, for each Gray step of the remaining high message digits, adds one
high-part vector onto the whole table and counts nonzero symbols per
row.  Characteristic 2 works on bit-packed uint64 words, odd
characteristic on one byte per symbol.  The same block loop yields the
full weight distribution.

Certification can split the high steps into contiguous chunks on a
process pool; results, including the reported witness (the first
minimum-weight codeword in Gray order), are identical to the sequential
traversal.
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

def _sub_rows(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b entry-wise."""
    if field.p == 2:
        return a ^ b
    return field.add_table[a, field.neg_table[b]]


def rank_and_rref(m: GFMatrix) -> tuple[int, GFMatrix]:
    """Rank and the unique reduced row echelon form (canonical)."""
    field = m.field
    a = m.entries.copy()
    rows, cols = a.shape
    mul = field.mul_table
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r] = mul[field.inv(pv)][a[r]]
        col_vals = a[:, c].copy()
        col_vals[r] = 0
        hit = np.nonzero(col_vals)[0]
        if hit.size:
            delta = mul[col_vals[hit][:, None], a[r][None, :]]
            a[hit] = _sub_rows(field, a[hit], delta)
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
    field = m.field
    r, rref = rank_and_rref(m)
    cols = m.cols
    ent = rref.entries
    pivots = []
    j = 0
    for i in range(r):
        while j < cols and ent[i, j] == 0:
            j += 1
        pivots.append(j)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint16)
    neg = field.neg_table if field.p != 2 else None
    for row_idx, fc in enumerate(free):
        basis[row_idx, fc] = 1
        for i, pc in enumerate(pivots):
            v = int(ent[i, fc])
            if v:
                basis[row_idx, pc] = v if field.p == 2 else int(neg[v])
    return GFMatrix(field, basis)


def pow_entrywise(m: GFMatrix, k: int) -> GFMatrix:
    return GFMatrix(m.field, m.field.pow_table(k)[m.entries])


def _fold_add(field: Field, products: np.ndarray, axis: int) -> np.ndarray:
    if field.p == 2:
        return np.bitwise_xor.reduce(products, axis=axis)
    add = field.add_table
    out = np.take(products, 0, axis=axis)
    for i in range(1, products.shape[axis]):
        out = add[out, np.take(products, i, axis=axis)]
    return out


def gram_is_zero(g1: GFMatrix, g2: GFMatrix, product: str = "euclidean",
                 ell: int | None = None) -> bool:
    """True iff every row pair is orthogonal under the chosen inner product.

    ``product="euclidean"`` uses the plain dot product.  For
    ``product="hermitian"`` the first argument's entries are raised to the
    ell-th power before the dot product; requires ell >= 2 and q = ell^2.
    """
    if g1.field is not g2.field:
        raise ValueError("matrices use different field contexts")
    if g1.cols != g2.cols:
        raise ValueError("matrices must have the same number of columns")
    if product == "hermitian":
        if ell is None or ell < 2:
            raise ValueError("hermitian product requires ell >= 2")
        if g1.q != ell * ell:
            raise ValueError(f"hermitian product requires q = ell^2, got q={g1.q}, ell={ell}")
        g1 = pow_entrywise(g1, ell)
    elif product != "euclidean":
        raise ValueError(f"unknown product {product!r}")
    if g1.rows == 0 or g2.rows == 0 or g1.cols == 0:
        return True
    field = g1.field
    mul = field.mul_table
    for i in range(g1.rows):
        products = mul[g1.entries[i][None, :], g2.entries]
        sums = _fold_add(field, products, axis=1)
        if np.any(sums):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive minimum distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceCertificate:
    """Result of a minimum-weight computation over a code's codewords."""

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
            scaled = mul[int(sym)][row]
            out = out ^ scaled if field.p == 2 else field.add_table[out, scaled]
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
    """Split-table enumeration of every codeword of a full-rank k x n matrix.

    Gray index t splits as t = t_low + q^b * T.  The high Gray digits
    (rows b..k-1) are the Gray digits of T; the low ones are the Gray
    digits of t_low, except that digit b-1 is shifted by -(T mod q).  So
    for each high step T the q^b codewords t_low + q^b * T are exactly the
    span table of the low b rows plus one high-part vector, in an order
    fixed by T mod q.  ``b`` is the largest value with q^b <= TABLE_ROWS,
    but at least 1.

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
        self.blocks = q ** (k - b)
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
        """Yield (T, weights) for the high steps T in [start, stop).

        ``weights[m]`` is the weight of span-table row m plus the high
        part of T; row 0 of step 0 is the zero codeword.  The array may
        be reused between steps.
        """
        if self.char2:
            x, y = np.empty_like(self.table), np.empty_like(self.table)
        else:
            ne = np.empty(self.table.shape, dtype=bool)
        for t_high in range(start, stop):
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
        """(weight, t) of the first nonzero minimum-weight codeword for T in [start, stop)."""
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


def _enumerable_kernel(g: GFMatrix, budget: int) -> _SpanKernel:
    """The kernel for g after the budget and rank checks."""
    k = g.rows
    if k == 0:
        raise ValueError("cannot certify an empty code")
    total = g.q**k - 1
    if total > budget or total >= 1 << 62:  # counts and row indices are int64
        raise BudgetExceededError(
            f"enumeration of {total} codewords exceeds budget {budget}")
    if rank(g) != k:
        raise ValueError("generator matrix is rank-deficient")
    return _SpanKernel(g)


def min_distance_exhaustive(g: GFMatrix, budget: int = DEFAULT_BUDGET,
                            jobs: int = 1) -> DistanceCertificate:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    Messages are traversed in q-ary modular Gray order; the witness is
    the first codeword attaining the minimum in that order, at every
    worker count.  Raises :class:`BudgetExceededError` when q^k - 1
    exceeds ``budget`` and ValueError for rank-deficient input.
    """
    kernel = _enumerable_kernel(g, budget)
    workers = min(jobs, kernel.blocks)
    if workers <= 1:
        best_w, best_t = kernel.first_minimum(0, kernel.blocks)
    else:
        cuts = [kernel.blocks * i // workers for i in range(workers + 1)]
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
    :func:`min_distance_exhaustive`.
    """
    kernel = _enumerable_kernel(g, budget)
    counts = np.zeros(g.cols + 1, dtype=np.int64)
    for _, wts in kernel.weights(0, kernel.blocks):
        counts += np.bincount(wts, minlength=g.cols + 1)
    return counts.tolist()
