"""Dense linear algebra over small Galois-field alphabets.

Matrices carry their symbol :class:`~cosetcodes.galois.Field` and a
read-only numpy uint16 entry array, so a matrix is row-reduced at most
once: :attr:`GFMatrix.reduction` keeps the result of the first
:func:`rank_and_rref`, and :func:`rank`, :func:`nullspace` and
:func:`row_space_equal` read it; :func:`pow_entrywise` by a power of p
hands its result that reduction, raised entry-wise.  Row reduction and
nullspaces run on the field's dense lookup tables: each pivot tabulates
the q multiples of its row once, and clearing its column is a row gather
from that table.  Rows are added by XOR in characteristic 2, and in odd
characteristic in :mod:`~cosetcodes.galois`'s digit model: the symbols'
base-p digits, from the field's digit table, are added as integers and
wrapped once.
Gram products expand symbols into their base-p digits and run as float64
matrix products over F_p (BLAS), exact by construction: each output
digit's sum over all columns, at most (p-1)^2 * f * n for q = p^f, has
its own s-bit field of the g1 operand (s that bound's bit length), so
one product carries floor(53 / s) digits below 2^53 and ceil(f /
floor(53 / s)) products per column chunk give all f; chunks are capped
at ``GRAM_FLOATS`` operand floats for memory only.  :func:`gram` returns
the product g1 g2^T, and :func:`gram_is_zero` is the test that it
vanishes.

The module also houses the exhaustive minimum-distance certifier, the
performance-critical piece of the package.  Messages are indexed in
base-q order, digit i on generator row i, and one codeword of each scalar
class is weighed.  One split-table kernel serves every q: it packs the
span of the low generator rows (at most ``TABLE_ROWS`` codewords) into a
store of uint64 words, f = (q - 1).bit_length() bit planes of ceil(n / 64)
words per row, and streams one packed offset for the zero high part and
for each high index whose leading base-q digit is 1 (a step).
:func:`_walk`, the one place that weighs packed words, counts per store
row the symbols that differ from each offset (an OR of the f XORed
planes), tile by tile; its docstring describes the tiling.  The same steps
yield the weight distribution, each class outside the table q - 1 times.

The reported witness is the first minimum-weight codeword in base-q
message order, whatever order the tiles come in.  Certification can split
the steps into contiguous chunks over the calling process and a forked pool;
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
from itertools import islice
from multiprocessing import get_context

import numpy as np

from .galois import Field, _add_mod, _fold_digits, _int_to_digits, _sub_mod

DEFAULT_BUDGET = 1 << 26
TABLE_ROWS = 1 << 16  # span-table rows, and packed words per tile, of the enumeration kernel
# packed span-table words per worker from which splitting an enumeration
# over forked workers pays; measured on a 2-vCPU VM, see min_distance_exhaustive
FORK_MIN_ENTRIES = 1 << 27
GRAM_FLOATS = 1 << 16  # float64 operands of one gram product


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

def rank_and_rref(m: GFMatrix) -> tuple[int, GFMatrix]:
    """Rank and the unique reduced row echelon form (canonical), reduced
    afresh on every call; :attr:`GFMatrix.reduction` keeps one result.

    Each pivot row is scaled to a leading 1 and its q multiples are
    tabulated once.  Clearing the pivot column is then one row gather of
    those multiples, indexed by the column, plus one pass over the matrix:
    XOR in characteristic 2.  In odd characteristic the matrix holds its
    symbols' base-p digits, laid out [row, column, digit]; the pivot steps
    read symbols folded from them, and the multiples, expanded through the
    field's digit table, are subtracted digit by digit as integers mod p.
    The pivot row gathers the zero multiple, and is zero left of the pivot
    column, so only the columns from it on are touched.
    """
    field, p, (rows, cols) = m.field, m.field.p, m.entries.shape
    if p == 2:
        a = m.entries.astype(np.min_scalar_type(field.order - 1))
    else:
        a = field.digit_table.take(m.entries, axis=0)  # [row, column, digit]
    mul = field.mul_table.astype(a.dtype, copy=False)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col_vals = a[:, c].copy() if p == 2 else _fold_digits(a[:, c, ::-1].T.copy(), p)
        nz = np.flatnonzero(col_vals[r:])
        if not nz.size:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
            col_vals[[r, pivot]] = col_vals[[pivot, r]]
        row = a[r, c:] if p == 2 else _fold_digits(a[r, c:, ::-1].T, p)  # row r is rewritten below
        pv = int(col_vals[r])
        if pv != 1:
            row = mul[field.inv(pv)][row]
        col_vals[r] = 0
        multiples = mul.take(row, axis=1)  # row v is v * pivot row
        if p == 2:
            a[r, c:] = row
            a[:, c:] ^= multiples.take(col_vals, axis=0)
        else:
            multiples = field.digit_table.take(multiples, axis=0)
            a[r, c:] = multiples[1]
            a[:, c:] = _sub_mod(a[:, c:], multiples.take(col_vals, axis=0), p)
        r += 1
    return r, GFMatrix(field, a[:r] if p == 2 else _fold_digits(a[:r, :, ::-1].T, p).T)


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
    basis[:, pivots] = m.field.mul_table[m.field.p - 1][ent[:, free]].T  # -1 = p - 1
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

    The products run over F_p as exact float64 matrix products.  A
    symbol's base-p digits are its coordinates on 1, x, ..., x^(f-1)
    (q = p^f), so digit t of <a, b> is S_t mod p, where S_t = sum_c sum_j
    digit_t(x^j a_c) * digit_j(b_c) is a sum of f * n products of digits
    below p: S_t <= (p-1)^2 * f * n < 2^s, s that bound's bit length (see
    :func:`_digit_fields`, which refuses s >= 53).  The digits go in
    groups of m = floor(53 / s): the g1 operand of group g holds
    sum_t digit_t(x^j a_c) * 2^(s (t - g m)) over its digits t, so one
    product leaves each S_t in its own s-bit field, below 2^53, where
    float64 holds every integer and so every partial sum of these
    nonnegative terms exactly.  ceil(f / m) products per column chunk give
    all f digits (one at q = 4 and 16; two at q = 64 from 43 columns on).
    The sums accumulate packed over the chunks, which are capped only so
    that a product's operands, g1's rows and g2's, hold at most
    ``GRAM_FLOATS`` floats together.  Shifts and masks unpack them once;
    the digits mod p, weighted by p^t, are the symbols of the product.
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
    s, m = _digit_fields(p, f, g1.cols)
    powers = p ** np.arange(f)
    digits = field.digit_table.astype(np.float64)  # [v, j]
    shifted = field.mul_table[powers].T  # [v, j] = x^j * v
    shifted_digits = digits.T.take(shifted, axis=1)  # [t, v, j]
    # [g, v, j]: the digits t of x^j * v in group g = t // m, in bit fields t mod m
    fields = np.ldexp(1.0, s * (np.arange(f) % m))[:, None, None]
    packed = np.add.reduceat(shifted_digits * fields, range(0, f, m), axis=0)
    step = max(1, GRAM_FLOATS // (f * (g1.rows + g2.rows)))
    sums = np.zeros((len(packed), g1.rows, g2.rows))
    for c in range(0, g1.cols, step):
        b = np.take(digits, g2.entries[:, c:c + step], axis=0).reshape(g2.rows, -1)
        for grp, acc in zip(packed, sums):
            acc += np.take(grp, g1.entries[:, c:c + step], axis=0).reshape(g1.rows, -1) @ b.T
    sums = sums.astype(np.int64)
    for t in range(f):
        out += ((sums[t // m] >> s * (t % m)) & ((1 << s) - 1)) % p * int(powers[t])
    return GFMatrix(field, out)


def _digit_fields(p: int, f: int, cols: int) -> tuple[int, int]:
    """(s, m) of a :func:`gram` over F_(p^f) with ``cols`` columns: s-bit
    fields hold every digit sum, at most (p-1)^2 * f * cols, and m of them
    fit in the 53 bits of a float64 significand.

    s < 53 for every field with dense tables and fewer than 2^20 columns:
    q <= 2^12 gives (p-1)^2 * f < 2^24 (p <= 4093 when f = 1, and p <= 64
    with f <= 12 otherwise), so the bound is below 2^44 and s <= 44.
    """
    s = ((p - 1) ** 2 * f * cols).bit_length()
    if s >= 53:
        raise ValueError(f"a {cols}-column Gram over F_({p}^{f}) has digit sums "
                         f"of {s} bits, past a float64's 53")
    return s, 53 // s


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
    ``witness`` is the first nonzero minimum-weight codeword in base-q
    message order, message digit i on generator row i: the codeword of
    the least message sum_i m_i q^i.
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


def _codeword_for_message(field: Field, rows: np.ndarray, message) -> np.ndarray:
    out = np.zeros(rows.shape[1], dtype=np.uint16)
    mul = field.mul_table
    for sym, row in zip(message, rows):
        if sym:
            out = field.add(out, mul[int(sym)][row])
    return out


def _pack_rows(symbols: np.ndarray, f: int) -> np.ndarray:
    """Pack symbol-major rows (``symbols[j, r]`` is symbol j of row r) into
    f bit planes of w = ceil(n / 64) uint64 words each, word-major: word
    i * w + c of a row holds bit i of its symbols 64c..64c+63, symbol j at
    bit j % 64, and the bits past n are zero.

    The symbols of a run of words and a chunk of rows are copied into a
    buffer along its contiguous axis, zero past n, where one
    ``np.packbits`` per plane packs the ravelled buffer into little-endian
    bytes, one word per row and word of the run.  A chunk is
    ``TABLE_ROWS // 16`` rows (2^12 by default, the fastest of 2^11..2^13
    on a 242-symbol 3^10-row table), so no transient grows with the table.
    A run is one word when the chunk is that full, since copying 64 symbols
    at a time keeps the transposing read in cache, and as many words as
    fill the same buffer otherwise: a single row (a span kernel's offset)
    is packed whole, in a few numpy calls per plane."""
    n, rows = symbols.shape
    w = -(-n // 64)
    block = min(rows, max(1, TABLE_ROWS // 16))
    run = min(w, max(1, TABLE_ROWS // 16 // block))  # words copied at a time
    planes = np.empty((f, w, rows), dtype=np.uint64)
    buf = np.zeros((block, 64 * run), dtype=symbols.dtype)
    bits = np.empty_like(buf)
    for c in range(0, w, run):
        part = symbols[64 * c:64 * (c + run)]
        buf[:, len(part):] = 0  # the last run's symbols past n
        for r0 in range(0, rows, block):
            m = min(block, rows - r0)
            buf[:m, :len(part)] = part[:, r0:r0 + m].T
            for i in range(f):
                np.bitwise_and(buf[:m], 1 << i, out=bits[:m])
                packed = np.packbits(bits[:m], bitorder="little").view("<u8").reshape(m, run)
                planes[i, c:c + run, r0:r0 + m] = packed[:, :w - c].T
    return planes.reshape(f * w, rows)


def _walk(store: np.ndarray, offsets, f: int, n: int):
    """Yield (i, start, weights) for each offset i of the stream ``offsets``
    and each tile of ``store``: ``weights[m]`` counts the symbols in which
    store row start + m differs from offset i.

    ``store`` is word-major packed uint64 of shape (f * w, rows), each row
    f bit planes of w words (see :func:`_pack_rows`), and an offset is a
    packed row of the same words.  The walk is tiled: a tile is a run of
    rows that holds at most ``TABLE_ROWS`` packed words, but at least two
    rows (so that the span kernel's first tile holds a codeword besides
    zero), and each tile is weighed against a whole batch of as many
    offsets as it has rows before the walk moves to the next tile; then the
    next batch is read from the stream.  So a tile and its scratch stay in
    cache while a batch weighs it, and the offsets read at a time never
    outgrow a tile, however long the stream.  A store of one word per row
    is one tile.

    A symbol of a row differs from the offset iff one of its f bits does:
    one XOR of the f * w words, then f - 1 ORs fold the planes into w flag
    words, and ``np.bitwise_count`` counts the flags.  The weights are in
    the narrowest dtype that holds n, a bound on every weight, and the
    array may be reused between yields.
    """
    words, rows = store.shape
    w = words // f
    tile = max(2, TABLE_ROWS // words)
    weight_dtype = np.min_scalar_type(n)
    x = np.empty_like(store[:, :tile])
    offsets = enumerate(offsets)
    while batch := list(islice(offsets, tile)):
        for start in range(0, rows, tile):
            block = store[:, start:start + tile]
            bx = x[:, :block.shape[1]]
            flags = bx[:w]
            for i, h in batch:
                np.bitwise_xor(block, h[:, None], out=bx)
                for j in range(w, words, w):
                    np.bitwise_or(flags, bx[j:j + w], out=flags)
                counts = np.bitwise_count(flags)
                yield i, start, counts[0] if w == 1 else counts.sum(axis=0, dtype=weight_dtype)


def _span(rows: np.ndarray, add) -> np.ndarray:
    """The span table of ``rows``, each [position, multiple]: entry [j, r] is
    position j of the sum of the rows scaled by the base-q digits of r,
    digit i on row i, and ``add`` forms each row's sums."""
    table = np.zeros((rows.shape[1], 1), dtype=rows.dtype)
    for x in rows:
        table = add(x[:, :, None], table[:, None, :]).reshape(len(x), -1)
    return table


class _SpanKernel:
    """Split-table enumeration of a full-rank k x n matrix, one codeword per scalar class.

    Message t has base-q digit i on row i and splits as t = T * q^b + r:
    r indexes row r of the span table of the low b rows, and the high
    digits T scale the high rows b..k-1 into one high-part vector.  So for
    each high index T the q^b codewords T * q^b + r are the span table
    plus that vector, in table row order.  ``b`` is the largest value with
    q^b <= TABLE_ROWS, but at least 1.

    lambda * u has leading digit lambda times the leading nonzero digit of
    the high message u.  So each scalar class of codewords outside the span
    table has exactly one member whose T has leading base-q digit 1, and no
    member with a smaller T.  The steps are T = 0 (the table itself) and,
    in increasing order, every T in [q^j, 2 q^j) for j < h = k - b: 1 +
    (q^h - 1)/(q - 1) steps instead of q^h, in message order, so the first
    minimum they meet is the first of the whole code.

    The table is word-major packed uint64, shape (f * ceil(n / 64), q^b):
    f bit planes per row (see :func:`_pack_rows`).  Row + high part h has
    a zero symbol exactly where the row equals -h, so a step counts the
    symbols where a row differs from the packed -h.  In characteristic 2,
    -h = h and plane packing commutes with addition, so rows are packed
    first and added by XOR.  In odd characteristic digit plane d of the
    table is the F_p span of digit plane d of the rows, added as integers
    mod p.  The one row loop :func:`_span` builds either.  The e planes
    are built most significant first and each is folded into the symbols
    by Horner's rule before the next is built, and the symbols are packed.

    :func:`_walk` weighs the table against the stream of packed -h of the
    steps (:meth:`offsets`).  t grows with the step and, within a step,
    with the table row, so the first minimum is the least (w, step, row)
    over tiles and steps: one ``np.argmin`` per tile and step.
    """

    def __init__(self, g: GFMatrix):
        field = g.field
        q, k, n = g.q, g.rows, g.cols
        b = 1
        while b < k and q ** (b + 1) <= TABLE_ROWS:
            b += 1
        f = (q - 1).bit_length()
        p, e = field.p, field.e
        self.q, self.n, self.b, self.high, self.f, self.p = q, n, b, k - b, f, p
        self.steps = 1 + (q ** (k - b) - 1) // (q - 1)
        # scaled[i, j, v] = v * symbol j of row i
        scaled = field.mul_table[np.arange(q), g.entries[:, :, None]]
        if p == 2:
            scaled = np.stack([_pack_rows(s, f) for s in scaled])
            self.table = _span(scaled[:b], np.bitwise_xor)
        else:  # scaled[i, d, j, v] = digit d of v * symbol j of row i
            scaled = np.moveaxis(field.digit_table.take(scaled, axis=0), 3, 1)
            planes = (_span(scaled[:b, d], lambda x, y: _add_mod(x, y, p))
                      for d in range(e - 1, -1, -1))
            self.table = _pack_rows(_fold_digits(planes, p), f)
        self.scaled_high = scaled[b:]

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
        """-(sum of the high rows scaled by the base-q digits of t_high), packed."""
        digits = _int_to_digits(t_high, self.q, self.high)
        parts = self.scaled_high[np.arange(self.high), ..., digits]
        if self.p == 2:
            return np.bitwise_xor.reduce(parts, axis=0)
        # the parts sum in uint64, so one reduction serves them all
        minus = (self.p - parts.sum(axis=0) % self.p) % self.p
        return _pack_rows(_fold_digits(minus[::-1], self.p)[:, None], self.f)[:, 0]

    def offsets(self, start: int, stop: int):
        """The packed -h of steps [start, stop), a lazy stream for :func:`_walk`."""
        return map(self._minus_high_part, map(self._high_index, range(start, stop)))

    def first_minimum(self, start: int, stop: int) -> tuple[int, int]:
        """(weight, t) of the first nonzero minimum-weight codeword of steps
        [start, stop): the least (w, step, row) over every tile and step."""
        best = (self.n + 1, 0, 0)
        for i, lo, wts in _walk(self.table, self.offsets(start, stop), self.f, self.n):
            skip = 1 if start + i == 0 and lo == 0 else 0  # the zero codeword
            row = skip + int(np.argmin(wts[skip:]))
            best = min(best, (int(wts[row]), start + i, lo + row))
        w, step, row = best
        return w, self._high_index(step) * self.q**self.b + row


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
    first codeword attaining the minimum in base-q message order (digit i
    on row i of g), at every worker count.  Raises
    :class:`BudgetExceededError` when q^k - 1 exceeds ``budget`` (or
    does not fit int64 counts) and ValueError for rank-deficient input.

    ``jobs`` caps the worker count; by default it is the number of CPUs
    this process may run on.  The work is the number of packed uint64
    table words the walk weighs, steps x table size, and the job runs on
    min(jobs, steps, work // FORK_MIN_ENTRIES) workers, at least one.
    With more than one, the calling process weighs the first chunk of
    steps while a forked pool weighs the others; the workers inherit the
    kernel by the fork, so only (start, stop) pairs are pickled.

    Medians on a 2-vCPU VM, one worker against two forced ones, on the
    bit-plane walk: q=4 n=21 k=13 (45M words) took 36 and 38 ms, q=2 n=63
    k=25 (34M) 36 and 34 ms, q=16 n=51 k=7 (72M) 44 to 49 and 44 to 52
    ms, q=4 n=21 k=14 (179M) 83 to 93 and 86 to 92 ms, and q=3 n=242 k=16
    (172M) 174 and 169 to 171 ms, while q=4 n=21 k=15 (716M) went from 609
    to 390 ms (0.64); hence 2^27 words per worker.
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
    witness = _codeword_for_message(g.field, g.entries, _int_to_digits(best_t, g.q, k))
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
    for step, _, wts in _walk(kernel.table, kernel.offsets(0, kernel.steps), kernel.f, g.cols):
        counts += np.bincount(wts, minlength=g.cols + 1) * (g.q - 1 if step else 1)
    return counts.tolist()
