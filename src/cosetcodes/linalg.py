"""Dense linear algebra over small Galois-field alphabets.

Matrices carry their symbol :class:`~cosetcodes.galois.Field` and a
read-only numpy uint16 entry array, so a matrix is row-reduced at most
once: :attr:`GFMatrix.reduction` keeps the result of the first
:func:`rank_and_rref`, and :func:`rank`, :func:`nullspace` and
:func:`row_space_equal` read it; :func:`pow_entrywise` by a power of p
hands its result that reduction, raised entry-wise.  Row reduction and
nullspaces run on the field's dense lookup tables: each pivot tabulates
the q multiples of its row once, and clearing its column is a row gather
from that table.  Rows are added by XOR in characteristic 2.  F_(p^e)
adds digit by digit mod p, so in odd characteristic the symbols' base-p
digits are added as integers and wrapped once.
Gram products expand symbols into their base-p digits and run as float32
matrix products over F_p (BLAS), exact by construction; :func:`gram`
returns the product g1 g2^T, and :func:`gram_is_zero` is the test that
it vanishes.

The module also houses the exhaustive minimum-distance certifier, the
performance-critical piece of the package.  Messages are indexed in
q-ary modular Gray order, and one codeword of each scalar class is
weighed.  One split-table kernel serves every q: it packs the span of the
low generator rows (at most ``TABLE_ROWS`` codewords) into uint64 words
of (q - 1).bit_length()-bit symbol slots, and for the zero high part and
each high Gray index whose leading base-q digit is 1 (a step) it adds one
vector onto the table and counts nonzero symbols per row.  The walk is
tiled: a tile is a run of table rows holding at most ``TABLE_ROWS``
packed words, and every step weighs one tile before the walk moves to
the next, so a tile and its scratch stay in cache across the steps.  A
table of one word per row is a single tile.  The same steps yield the
weight distribution, each class outside the table q - 1 times.

Each step weighs the Gray-first member of each class, and the walk keeps
the least (weight, Gray index) over all tiles and steps, so the reported
witness is still the first minimum-weight codeword in Gray order,
whatever order the tiles come in.  Certification can split the
steps into contiguous chunks over the calling process and a forked pool;
results, witness included, are identical to the sequential traversal.
The split is made only when each worker gets at least
``FORK_MIN_ENTRIES`` packed table words to weigh, since on a smaller
share a forked worker costs more than it saves, and by default over no
more workers than the CPUs this process may run on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .galois import Field

DEFAULT_BUDGET = 1 << 26
TABLE_ROWS = 1 << 16  # span-table rows, and packed words per tile, of the enumeration kernel
# packed span-table words per worker from which splitting an enumeration
# over forked workers pays; measured on a 2-vCPU VM, see min_distance_exhaustive
FORK_MIN_ENTRIES = 1 << 25
F32_EXACT = 1 << 24  # float32 holds every integer up to this one exactly
GRAM_FLOATS = 1 << 17  # float32 operands of one gram product


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


@dataclass(frozen=True, eq=False)
class GFMatrix:
    """A dense matrix over a small field, entries as uint16 symbols.

    The entries are a read-only copy of the array given, so the matrix
    never changes and is row-reduced at most once: :attr:`reduction`
    keeps its rank and reduced row echelon form.
    """

    field: Field
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.uint16, order="C")  # always a copy
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        if arr.size and int(arr.max()) >= self.field.order:
            raise ValueError("entry outside the field's symbol range")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @cached_property
    def reduction(self) -> tuple[int, GFMatrix]:
        """Rank and reduced row echelon form, from one :func:`rank_and_rref`."""
        return rank_and_rref(self)

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


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

def _digit_table(p: int, e: int) -> np.ndarray:
    """Row v holds the base-p digits of symbol v, its coordinates on 1, x, ...,
    x^(e-1), in the narrowest dtype that holds 2p - 1 (so neither a sum of
    two digits nor a digit plus p wraps) and every symbol (for Horner's rule)."""
    return (np.arange(p**e)[:, None] // p ** np.arange(e) % p).astype(
        np.min_scalar_type(max(2 * p - 1, p**e - 1)))


def _fold_digits(planes: np.ndarray, p: int) -> np.ndarray:
    """Symbols of digit planes (digit d in ``planes[d]``) by Horner's rule,
    formed in place in the last plane."""
    acc = planes[-1]
    for d in range(len(planes) - 2, -1, -1):
        acc *= p
        acc += planes[d]
    return acc


def _add_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x + y mod p, for digits in a :func:`_digit_table` dtype and a sum
    of two axes or more: s - p wraps past every residue unless s >= p, so
    the minimum is s mod p.  The sum is wrapped in place, one index of axis
    1 at a time (a multiple, in the span table), so the s - p scratch is
    one such slice, not a second copy of the sum."""
    s = x + y
    for part in np.moveaxis(s, 1, 0):
        np.minimum(part, part - p, out=part)
    return s


def _sub_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x - y mod p, for digits in a :func:`_digit_table` dtype: d wraps
    past every residue when x < y, and then d + p is x - y + p."""
    d = x - y
    return np.minimum(d, d + p, out=d)


def rank_and_rref(m: GFMatrix) -> tuple[int, GFMatrix]:
    """Rank and the unique reduced row echelon form (canonical), reduced
    afresh on every call; :attr:`GFMatrix.reduction` keeps one result.

    Each pivot row is scaled to a leading 1 and its q multiples are
    tabulated once.  Clearing the pivot column is then one row gather of
    those multiples, indexed by the column, plus one pass over the matrix:
    XOR in characteristic 2.  In odd characteristic the matrix holds its
    symbols' base-p digits, laid out [row, column, digit]; the pivot steps
    read symbols folded from them, and the multiples, expanded through the
    digit table, are subtracted digit by digit as integers mod p.  The pivot
    row gathers the zero multiple, and is zero left of the pivot column, so
    only the columns from it on are touched.
    """
    field, p, (rows, cols) = m.field, m.field.p, m.entries.shape
    if p == 2:
        a = m.entries.astype(np.min_scalar_type(field.order - 1))
    else:
        digits = _digit_table(p, field.e)
        a = digits.take(m.entries, axis=0)  # [row, column, digit]
    mul = field.mul_table.astype(a.dtype, copy=False)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col_vals = a[:, c].copy() if p == 2 else _fold_digits(a[:, c].T.copy(), p)
        nz = np.flatnonzero(col_vals[r:])
        if not nz.size:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
            col_vals[[r, pivot]] = col_vals[[pivot, r]]
        row = a[r, c:] if p == 2 else _fold_digits(a[r, c:].T, p)  # row r is rewritten below
        pv = int(col_vals[r])
        if pv != 1:
            row = mul[field.inv(pv)][row]
        col_vals[r] = 0
        multiples = mul.take(row, axis=1)  # row v is v * pivot row
        if p == 2:
            a[r, c:] = row
            a[:, c:] ^= multiples.take(col_vals, axis=0)
        else:
            multiples = digits.take(multiples, axis=0)
            a[r, c:] = multiples[1]
            a[:, c:] = _sub_mod(a[:, c:], multiples.take(col_vals, axis=0), p)
        r += 1
    return r, GFMatrix(field, a[:r] if p == 2 else _fold_digits(np.moveaxis(a[:r], -1, 0), p))


def rank(m: GFMatrix) -> int:
    return m.reduction[0]


def row_space_equal(a: GFMatrix, b: GFMatrix) -> bool:
    """Equality of row spaces via canonical reduced forms."""
    if a.field is not b.field or a.cols != b.cols:
        return False
    ra, fa = a.reduction
    rb, fb = b.reduction
    return ra == rb and np.array_equal(fa.entries, fb.entries)


def nullspace(m: GFMatrix) -> GFMatrix:
    """Rows spanning {v : M v = 0} under the dot product."""
    ent = m.reduction[1].entries
    pivots = np.argmax(ent != 0, axis=1) if ent.size else []  # first nonzero per row
    is_pivot = np.zeros(m.cols, dtype=bool)
    is_pivot[pivots] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((len(free), m.cols), dtype=np.uint16)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = m.field.neg_table[ent[:, free]].T
    return GFMatrix(m.field, basis)


def pow_entrywise(m: GFMatrix, k: int) -> GFMatrix:
    """The matrix of k-th powers of m's entries.

    When k is a power of p, x -> x^k is a field automorphism that fixes
    0 and 1, so it commutes with row reduction: if m has its reduction,
    the result carries that reduction's entry-wise power and is not
    reduced again.  Otherwise, as for any other k, the result is reduced
    afresh when its reduction is first read.
    """
    power = m.field.pow_table(k)
    out = GFMatrix(m.field, power[m.entries])
    p, j = m.field.p, k
    while j > 1 and j % p == 0:
        j //= p
    if j == 1 and "reduction" in m.__dict__:  # the cached_property's slot
        r, rref = m.reduction
        out.__dict__["reduction"] = (r, GFMatrix(m.field, power[rref.entries]))
    return out


def gram(g1: GFMatrix, g2: GFMatrix) -> GFMatrix:
    """The Gram matrix g1 g2^T: entry (i, j) is the dot product of row i of
    g1 with row j of g2.

    For the Hermitian product over F_(ell^2), pass ``pow_entrywise(g1, ell)``
    as the first argument.

    The products run over F_p as float32 matrix products.  A symbol's
    base-p digits are its coordinates on 1, x, ..., x^(f-1) (q = p^f), so
    digit t of <a, b> is sum_c sum_j digit_t(x^j a_c) * digit_j(b_c)
    mod p.  For each digit t, the sum over all rows of g1 and g2 runs over
    column chunks in float64.  A chunk of w columns has partial sums of at
    most (p-1)^2 * f * w, so w is capped to keep that below 2^24, where
    float32 holds every integer exactly; w is also capped so that both
    operands of a product, g1's rows and g2's, hold at most
    ``GRAM_FLOATS`` floats together.  The digits mod p, weighted by p^t,
    are the symbols of the product.
    """
    if g1.field is not g2.field:
        raise ValueError("matrices use different field contexts")
    if g1.cols != g2.cols:
        raise ValueError("matrices must have the same number of columns")
    out = np.zeros((g1.rows, g2.rows), dtype=np.int64)
    if g1.rows == 0 or g2.rows == 0 or g1.cols == 0:
        return GFMatrix(g1.field, out)
    field = g1.field
    p, f = field.p, field.e
    powers = p ** np.arange(f)
    digits = _digit_table(p, f).astype(np.float32)  # [v, j]
    shifted = field.mul_table[powers].T  # [v, j] = x^j * v
    shifted_digits = digits.T.take(shifted, axis=1)  # [t, v, j]
    # columns per product: exact in float32 (at least one column for every
    # field with dense tables) and operands within GRAM_FLOATS floats
    step = min((F32_EXACT - 1) // ((p - 1) ** 2 * f),
               max(1, GRAM_FLOATS // (f * (g1.rows + g2.rows))))
    for t in range(f):
        sums = np.zeros((g1.rows, g2.rows))
        for c in range(0, g1.cols, step):
            a = np.take(shifted_digits[t], g1.entries[:, c:c + step], axis=0)
            b = np.take(digits, g2.entries[:, c:c + step], axis=0)
            sums += a.reshape(g1.rows, -1) @ b.reshape(g2.rows, -1).T
        out += sums.astype(np.int64) % p * int(powers[t])
    return GFMatrix(field, out)


def gram_is_zero(g1: GFMatrix, g2: GFMatrix) -> bool:
    """True iff every row of g1 is orthogonal to every row of g2: the
    :func:`gram` product is zero."""
    return not gram(g1, g2).entries.any()


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


def _pack_rows(symbols: np.ndarray, f: int) -> np.ndarray:
    """Pack symbol-major rows (``symbols[j, r]`` is symbol j of row r, and
    ``len(symbols)`` a multiple of 64 // f) into word-major uint64 words,
    each of 64 // f slots of f bits from bit 0 up: no symbol straddles a
    word.  A word is the sum of its symbols times 2^(f * slot), which einsum
    forms in small buffers of its own, so no uint64 transient grows with n."""
    slots = 64 // f
    place = np.uint64(1) << np.arange(0, slots * f, f, dtype=np.uint64)
    words = symbols.reshape(-1, slots, symbols.shape[1])
    return np.einsum("wsr,s->wr", words, place, dtype=np.uint64)


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

    The table is word-major packed uint64, shape (words, q^b), its rows
    padded with zero symbols to whole words.  Row + high part h has a zero
    symbol exactly where the row equals -h, so a step counts the slots
    where a row differs from the packed -h.  In characteristic 2, -h = h
    and packing commutes with addition, so rows are packed first and added
    by XOR.  In odd characteristic symbol j of a padded row of length len
    becomes the e digit positions d * len + j (digit-major), whose digits
    add as integers mod p; the table is folded into symbols, then packed.

    The walk runs tile-outer: the table is cut into tiles of
    ``TABLE_ROWS // words`` rows (at most ``TABLE_ROWS`` words, but at
    least two rows), and each tile is weighed against every step before
    the next tile.  A step's Gray indices all exceed those of a step with
    a smaller T, so the first minimum is the least (w, t) over tiles and
    steps, and t is formed only on a lower weight or on a tie whose T is
    at most the best one's.
    """

    def __init__(self, g: GFMatrix):
        field = g.field
        q, k, n = g.q, g.rows, g.cols
        b = 1
        while b < k and q ** (b + 1) <= TABLE_ROWS:
            b += 1
        f = (q - 1).bit_length()
        self.q, self.n, self.b, self.high, self.f = q, n, b, k - b, f
        self.p, self.e = field.p, field.e
        self.weight_dtype = np.min_scalar_type(n)  # the narrowest that holds every weight
        self.steps = 1 + (q ** (k - b) - 1) // (q - 1)
        slots = 64 // f
        entries = np.pad(g.entries, ((0, 0), (0, -n % slots)))  # zero symbols to whole words
        # scaled[i, j, v] = v * symbol j of row i
        scaled = field.mul_table[np.arange(q), entries[:, :, None]]
        if self.p == 2:
            scaled = np.stack([_pack_rows(s, f) for s in scaled])
        else:  # scaled[i, d * len + j, v] = digit d of v * symbol j of row i
            scaled = _digit_table(self.p, self.e).take(scaled, axis=0)
            scaled = np.moveaxis(scaled, 3, 1).reshape(k, -1, q)
        table = np.zeros((scaled.shape[1], 1), dtype=scaled.dtype)
        for i in range(b):
            x, y = scaled[i][:, :, None], table[:, None, :]
            table = x ^ y if self.p == 2 else _add_mod(x, y, self.p)
            table = table.reshape(len(x), -1)
        self.table = table if self.p == 2 else _pack_rows(
            _fold_digits(table.reshape(self.e, -1, table.shape[1]), self.p), f)
        self.scaled_high = scaled[b:]
        ones = sum(1 << (f * s) for s in range(slots))  # bit 0 of every slot
        self.lo, self.hi = np.uint64(ones * ((1 << (f - 1)) - 1)), np.uint64(ones << (f - 1))

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
        """-(sum of the high rows scaled by the Gray digits of t_high), packed."""
        digits = _gray_digits(t_high, self.high, self.q)
        parts = self.scaled_high[np.arange(self.high), :, digits]
        if self.p == 2:
            return np.bitwise_xor.reduce(parts, axis=0)
        # the parts sum in uint64, so one reduction serves them all
        minus = (self.p - parts.sum(axis=0) % self.p) % self.p
        minus = _fold_digits(minus.reshape(self.e, -1), self.p)
        return _pack_rows(minus[:, None], self.f)[:, 0]

    def weights(self, start: int, stop: int):
        """Yield (T, lo, weights) for each tile of the table and each step in
        [start, stop): every step weighs one tile before the next tile.

        ``weights[m]`` is the weight of span-table row lo + m plus the
        high part of T; row 0 of step 0 is the zero codeword.  A tile is
        the rows lo, lo + 1, ... that hold at most ``TABLE_ROWS`` packed
        words, so it and its x/y scratch stay in cache while the steps
        weigh it.  The packed -h of the steps are formed once, in batches
        of as many steps as a tile has rows, so they never outgrow a tile
        however many steps there are.  The array may be reused between
        yields.
        """
        words, rows = self.table.shape
        tile = max(2, TABLE_ROWS // words)  # step 0's first tile weighs a nonzero codeword
        x, y = np.empty_like(self.table[:, :tile]), np.empty_like(self.table[:, :tile])
        for first in range(start, stop, tile):
            steps = [(t, self._minus_high_part(t)) for t in
                     map(self._high_index, range(first, min(first + tile, stop)))]
            for lo in range(0, rows, tile):
                block = self.table[:, lo:lo + tile]
                bx, by = x[:, :block.shape[1]], y[:, :block.shape[1]]
                for t_high, h in steps:
                    yield t_high, lo, self._packed_weights(block, h, bx, by)

    def _packed_weights(self, block: np.ndarray, h: np.ndarray,
                        x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Slots per row of a table tile that differ from the packed -h,
        using x and y as scratch."""
        np.bitwise_xor(block, h[:, None], out=x)
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
            counts = c if counts is None else np.add(counts, c, dtype=self.weight_dtype)
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
        """(weight, t) of the first nonzero minimum-weight codeword of steps
        [start, stop): the least (w, t) over every tile and step."""
        best_w, best_t = self.n + 1, -1
        for t_high, lo, wts in self.weights(start, stop):
            skip = 1 if t_high == 0 and lo == 0 else 0  # the zero codeword
            w = int(wts[skip:].min())
            if w < best_w or (w == best_w and t_high <= best_t // self.q**self.b):
                rows = np.flatnonzero(wts[skip:] == w) + (lo + skip)
                t = (t_high * self.q**self.b
                     + self._first_low_index(rows, t_high % self.q))
                if w < best_w or t < best_t:
                    best_w, best_t = w, t
        return best_w, best_t


_worker_kernel: _SpanKernel | None = None  # set only in pool workers


def _init_worker(kernel: _SpanKernel) -> None:
    global _worker_kernel
    _worker_kernel = kernel


def _first_minimum_chunk(bounds: tuple[int, int]) -> tuple[int, int]:
    return _worker_kernel.first_minimum(*bounds)


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


def within_budget(certifier) -> tuple[DistanceCertificate | None, str | None]:
    """(certificate, None) from ``certifier()``, or (None, the message) when
    the budget refuses it: the one place a refusal leaves only the bound."""
    try:
        return certifier(), None
    except BudgetExceededError as exc:
        return None, str(exc)


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
                            jobs: int | None = None) -> DistanceCertificate:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    One codeword of each scalar class is weighed.  The witness is the
    first codeword attaining the minimum in the q-ary modular Gray order
    of messages, at every worker count.  Raises
    :class:`BudgetExceededError` when q^k - 1 exceeds ``budget`` (or
    does not fit int64 counts) and ValueError for rank-deficient input.

    ``jobs`` caps the worker count; by default it is the number of CPUs
    this process may run on.  The work is the number of packed uint64
    table words the walk weighs, steps x table size, and the job runs on
    min(jobs, steps, work // FORK_MIN_ENTRIES) workers, at least one.
    With more than one, the calling process weighs the first chunk of
    steps while a forked pool weighs the others; the workers inherit the
    kernel by the fork, so only (start, stop) pairs are pickled.

    Medians on a 2-vCPU VM, one worker against two forced ones: q=4 k=13
    (22M words) took 73 and 78 ms, q=2 k=25 (34M) 95 and 99 ms, while
    q=16 k=7 (72M) went from 188 to 115 ms (0.61), q=4 k=14 (90M) from
    245 to 132 ms (0.54) and q=3 n=242 k=16 (172M) from 622 to 387 ms
    (0.62), measured on the tiled walk; hence 2^25 words per worker.
    """
    kernel = _enumerable_kernel(g, budget)
    if jobs is None:  # the CPUs this process may run on; taskset narrows them
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    work = kernel.steps * kernel.table.size
    workers = max(1, min(jobs, kernel.steps, work // FORK_MIN_ENTRIES))
    if workers == 1:
        best_w, best_t = kernel.first_minimum(0, kernel.steps)
    else:
        cuts = [kernel.steps * i // workers for i in range(workers + 1)]
        with get_context("fork").Pool(workers - 1, _init_worker, (kernel,)) as pool:
            rest = pool.map_async(_first_minimum_chunk, list(zip(cuts[1:-1], cuts[2:])))
            best_w, best_t = min(kernel.first_minimum(cuts[0], cuts[1]), *rest.get())
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
    for t_high, _, wts in kernel.weights(0, kernel.steps):
        counts += np.bincount(wts, minlength=g.cols + 1) * (g.q - 1 if t_high else 1)
    return counts.tolist()
