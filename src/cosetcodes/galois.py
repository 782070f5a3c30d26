"""Finite field arithmetic for GF(p^e) backed by discrete-log tables.

Field elements are plain integers in ``0 .. p^e - 1``.  The base-p digits
of an element are the coefficients of its polynomial representative over
F_p (digit i = coefficient of x^i), so for p = 2 an element is the usual
bit mask and addition is XOR.  This module is the one home of that digit
model (:meth:`Field.add`, :attr:`Field.digit_table` and the digit-array
helpers), and -a is (p - 1) * a, row p - 1 of the multiplication table.
A :class:`Field` is built from a monic primitive modulus of degree e
alone; multiplication, inversion and powering run through exp/log tables
built once at construction.
Arithmetic mod the modulus f has one model, the same for every p: the
companion matrix C of f, the F_p-linear map y -> x*y on the digits, whose
row i holds the digits of x^(i+1).  C^k multiplies by x^k, and two checks
are built on it:

- the canonical-modulus search tries candidates f by integer code and
  keeps the first with C^(q-1) = I and C^((q-1)/r) != I for every prime r
  dividing q-1, so x has order q-1 and f is primitive;
- the table build doubles the exp table of x with C, C^2, C^4, ..., and
  proves a given modulus primitive when every nonzero element gets a log
  and x^(q-2) @ C = 1.  The same tables yield the generator (the smallest
  element of full order) without a separate search.

Supported sizes are capped at 2^20 elements.  The table representation
makes repeated arithmetic (code construction, exhaustive codeword
enumeration) cheap.  Building the tables grows linearly with the field:
on a 2-vCPU Xeon, ``make_field(2, 16)`` (n = 255 or 257 over F_4) takes
about 0.02 s and ``make_field(2, 20)`` (n = 1025) about 0.19 s, with a
peak resident set of about 83 MB in a fresh process.

Subfields GF(q^s) of GF(q^m) are never separate contexts: they live
inside the big field as the fixed points of x -> x^(q^s), with a
deterministic power basis, a plain tuple of elements (see
:func:`subfield_power_basis`), and an integer "symbol" relabeling (see
:meth:`Field.subfield_view`), each cached per (field, q) by
``functools.lru_cache``, as :func:`make_field` caches its contexts.
Every Frobenius power v -> v^(p^j), 1 <= j <= e, is one lookup vector
over the whole field, built on first use by :func:`frobenius_lookup` and
cached the same way, per (field, p^j): the trace rows of ``codes`` read
the q-th power of a subfield F_q, and the Hermitian Gram reads the
ell-th power of F_(ell^2).  The field holds no copy, and unlike the dense
q x q tables the lookup is built at any field size.  This module imports
no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

MAX_FIELD_SIZE = 1 << 20

# Cap for dense q x q operation tables (used by the linear-algebra layer).
MAX_TABLE_FIELD_SIZE = 1 << 12

# digit rows per product while doubling the exp table; chunks of 2^12 rows and
# more left megabytes of freed temporaries in the resident set of the process
EXP_CHUNK_ROWS = 1 << 8

# Miller-Rabin at these bases decides primality exactly for every n below
# MR_BOUND, the smallest strong pseudoprime to all of them
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_BOUND = 318665857834031151167461


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError from MR_BOUND on."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is too large for the exact primality test (bound {MR_BOUND})")
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^f for some f >= 1, or None if q is no prime power.

    The exponents f <= log2 q are tried from the largest down, so the
    first exact integer root r is not itself a perfect power, and q is a
    prime power exactly when r is prime.  This costs microseconds where
    :func:`prime_factors`, trial division up to sqrt(q), takes seconds
    for a prime q near 10^16.
    """
    if q < 2:
        return None
    for f in range(q.bit_length() - 1, 0, -1):
        r = _integer_root(q, f)
        if r**f == q:
            return r if is_prime(r) else None
    return None


def degree_over_prime(q: int, p: int) -> int:
    """f with q = p^f; raises ValueError unless q is a positive power of p."""
    f, v = 0, q
    while v > 1 and v % p == 0:
        v //= p
        f += 1
    if v != 1 or f == 0:
        raise ValueError(f"{q} is not a positive power of the characteristic {p}")
    return f


# ---------------------------------------------------------------------------
# Arithmetic mod f.  Elements travel as base-p integers; their digits are the
# coefficients of the residue (ascending powers), and multiplying by x is the
# companion matrix of f acting on a row of digits.
# ---------------------------------------------------------------------------

def _int_to_digits(v: int, p: int, width: int) -> list[int]:
    """The ``width`` base-p digits of v, least significant first."""
    digits = []
    for _ in range(width):
        v, r = divmod(v, p)
        digits.append(r)
    return digits


def _digit_table(p: int, e: int) -> np.ndarray:
    """Row v holds the base-p digits of symbol v, its coordinates on 1, x, ...,
    x^(e-1), in the narrowest dtype that holds 2p - 1 (so neither a sum of
    two digits nor a digit plus p wraps) and every symbol (for Horner's rule)."""
    return (np.arange(p**e)[:, None] // p ** np.arange(e) % p).astype(
        np.min_scalar_type(max(2 * p - 1, p**e - 1)))


def _fold_digits(planes, p: int) -> np.ndarray:
    """Symbols of digit planes, given most significant first as an iterable,
    by Horner's rule: formed in place in the first plane, and each later plane
    is dropped once it has been added, before the next one is drawn."""
    planes = iter(planes)
    acc = next(planes)
    for plane in planes:
        acc *= p
        acc += plane
        del plane
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


def _companion(modulus: tuple[int, ...] | list[int], p: int) -> np.ndarray:
    """Companion matrix C of the monic modulus f, the matrix of y -> x*y on digits.

    Row i holds the digits of x^(i+1): e_(i+1) for i < e-1, and in the
    last row x^e = -(f_0 + ... + f_(e-1) x^(e-1)).  For e = 1 it is [[-f_0]].
    """
    mat = np.eye(len(modulus) - 1, k=1, dtype=np.int64)
    mat[-1] = [-c % p for c in modulus[:-1]]
    return mat


def _matrix_power(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    """mat^k mod p by square-and-multiply over int64.

    Each entry of a product sums e terms below (p-1)^2, and
    e * (p-1)^2 < 2^41 for every field up to 2^20 elements, so it is exact.
    """
    result = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            result = result @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return result


def _has_full_order(modulus: list[int], p: int) -> bool:
    """True when x has order q-1 = p^e - 1 mod the monic modulus f.

    C^k is the matrix of y -> x^k*y, so x^k = 1 exactly when C^k = I.
    C^(q-1) = I, and C^((q-1)/r) != I for every prime r dividing q-1, pin
    the order of x to q-1.  Then x^0 .. x^(q-2) are q-1 distinct units
    among the q-1 nonzero residues, so F_p[x]/(f) is a field and f is
    primitive (and so irreducible).  Used by the canonical-modulus search,
    where a table per candidate would cost O(q).
    """
    order = p ** (len(modulus) - 1) - 1
    c, one = _companion(modulus, p), np.eye(len(modulus) - 1, dtype=np.int64)
    if not np.array_equal(_matrix_power(c, order, p), one):
        return False
    return not any(np.array_equal(_matrix_power(c, order // r, p), one)
                   for r in prime_factors(order))


@lru_cache(maxsize=None)
def _smallest_primitive_modulus(p: int, e: int) -> tuple[int, ...]:
    """Monic primitive polynomial of degree e with the smallest integer code."""
    for tail in range(1, p**e):
        digits = _int_to_digits(tail, p, e)
        if digits[0] == 0:
            continue  # x divides f
        mod = digits + [1]
        if _has_full_order(mod, p):
            return tuple(mod)
    raise AssertionError(f"no primitive polynomial of degree {e} over F_{p}")


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p for a float array of integers below 2^53 (exact; faster than %)."""
    return a - p * np.floor(a / p)


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class Field:
    """Arithmetic context for GF(p^e).

    Use :func:`make_field` instead of constructing directly; it validates
    inputs, picks the canonical modulus when none is given, and caches
    contexts so elements from repeated calls share one context.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = modulus
        self._powers = [p**i for i in range(e)]  # place values of the digits
        self._build_tables()

    # -- construction -------------------------------------------------

    def _build_tables(self) -> None:
        """exp of x by doubling, exp[k:2k] = x^k * exp[0:k], then log by one scatter.

        Each round applies C^k, the matrix of y -> x^k*y, to the base-p
        digit rows of exp[0:k] as a float64 product, in chunks of
        ``EXP_CHUNK_ROWS`` rows, and then squares it.  Its sums are at most
        (p-1)^2 * e < 2^53, so they are exact.  x has full order iff every
        nonzero element gets a log (x^0 .. x^(q-2) are distinct) and
        x^(q-1) = x^(q-2) @ C = 1 (x is a unit); this proves a given
        modulus primitive, and so irreducible.

        The generator is the smallest element of full order, the smallest
        c <= x with gcd(log_x c, q-1) = 1, and the tables are re-indexed to
        its powers.  For e > 1 that is x itself: every c < x = p lies in
        F_p, whose logs are multiples of (q-1)/(p-1) > 1.
        """
        p, q1 = self.p, self.order - 1
        place = np.asarray(self._powers, dtype=np.float64)
        c = _companion(self.modulus, p)
        x = int(c[0] @ place)  # row 0 holds the digits of x
        digits = np.zeros((q1, self.e), dtype=np.min_scalar_type(p - 1))
        digits[0, 0] = 1
        exp = np.ones(q1, dtype=np.int64)
        mat = c.astype(np.float64)  # multiplies by x^k
        k = 1
        while k < q1:
            hi = min(2 * k, q1)
            for lo in range(k, hi, EXP_CHUNK_ROWS):
                top = min(lo + EXP_CHUNK_ROWS, hi)
                prod = _mod(digits[lo - k:top - k].astype(np.float64) @ mat, p)
                digits[lo:top] = prod
                exp[lo:top] = prod @ place
            mat = _mod(mat @ mat, p)
            k *= 2
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp] = np.arange(q1)
        x_q1 = int(digits[-1] @ c % p @ place)  # x * x^(q-2)
        if x_q1 != 1 or (log[1:] < 0).any():
            raise ValueError(f"modulus {list(self.modulus)} is not primitive over F_{p}")
        g = 1 + int(np.flatnonzero(np.gcd(log[1:x + 1], q1) == 1)[0])
        if g != x:
            exp = exp[np.arange(q1) * log[g] % q1]
            log[exp] = np.arange(q1)
        self.generator = g
        self.exp_np = np.concatenate([exp, exp])
        self.log_np = log

    # -- arithmetic on integer-coded elements ----------------------------
    # add takes ints or numpy arrays (element-wise, broadcasting) of any
    # size; it adds each base-p digit mod p, which for p = 2 is XOR.

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        return sum((a // w % p + b // w % p) % p * w for w in self._powers)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_np.item(self.log_np.item(a) + self.log_np.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp_np.item(self.order - 1 - self.log_np.item(a))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp_np.item(self.log_np.item(a) * k % (self.order - 1))

    # -- dense operation tables (small fields only) ---------------------

    def _symbols(self, name: str) -> np.ndarray:
        """Every element as uint16, after the size check for a dense table."""
        if self.order > MAX_TABLE_FIELD_SIZE:
            raise ValueError(
                f"dense {name} table not supported for fields larger than "
                f"{MAX_TABLE_FIELD_SIZE} elements"
            )
        return np.arange(self.order, dtype=np.uint16)

    @cached_property
    def add_table(self) -> np.ndarray:
        r = self._symbols("add")
        return np.asarray(self.add(r[:, None], r[None, :]), dtype=np.uint16)

    @cached_property
    def mul_table(self) -> np.ndarray:
        logs = self.log_np[self._symbols("mul")[1:]]
        tab = np.zeros((self.order, self.order), dtype=np.uint16)
        tab[1:, 1:] = self.exp_np[logs[:, None] + logs[None, :]]
        return tab

    @cached_property
    def digit_table(self) -> np.ndarray:
        """Row v holds the base-p digits of symbol v (see :func:`_digit_table`)."""
        self._symbols("digit")  # the size check
        return _digit_table(self.p, self.e)

    # -- subfields -------------------------------------------------------

    def _subfield_degree(self, q: int) -> int:
        """f with q = p^f, after checking that F_q is a subfield of this field."""
        f = degree_over_prime(q, self.p)
        if self.e % f != 0:
            raise ValueError(f"F_{q} is not a subfield of F_{self.order}")
        return f

    @lru_cache(maxsize=None)
    def subfield_view(self, q: int) -> SubfieldView:
        """Relabel the embedded subfield F_q of this field as 0..q-1 symbols.

        Symbols are coordinates with respect to the power basis
        {1, w, ..., w^(f-1)} of F_q inside this field, packed in base p,
        where w = gamma^((p^e-1)/(q-1)).  The returned view bundles a
        :class:`Field` for symbol arithmetic (modulus = minimal polynomial
        of w, read from the symbol of w^f), plus lookup tables between
        parent values and symbols, both read-only.  Cached per (field, q).
        """
        f = self._subfield_degree(q)
        w = nth_root_of_unity(self, q - 1)
        # symbol sum_j c_j p^j is sum_j c_j w^j; c_j w^j has log log(c_j) + j log(w)
        digits = _digit_table(self.p, f)
        logs = self.log_np[digits] + np.arange(f) * self.log_np[w]
        terms = np.where(digits > 0, self.exp_np[logs % (self.order - 1)], 0)
        embed = reduce(self.add, terms.T)
        project = np.full(self.order, -1, dtype=np.int64)
        project[embed] = np.arange(q)
        # a repeated value of embed maps back to only one of its symbols
        if (project[embed] != np.arange(q)).any():
            raise ValueError(f"the powers of w do not span F_{q}")
        # w^f = sum_j c_j w^j, so the modulus is x^f - sum_j c_j x^j
        tail = _int_to_digits(int(project[self.pow(w, f)]), self.p, f)
        symbol_field = make_field(self.p, f, [-c % self.p for c in tail] + [1])
        embed.flags.writeable = project.flags.writeable = False  # shared through the cache
        return SubfieldView(field=symbol_field, embed=embed, project=project)

    # -- serialization -----------------------------------------------------

    def describe(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus),
            "generator": self.generator,
        }

    def __repr__(self) -> str:
        return f"Field(GF({self.order}), modulus={list(self.modulus)}, generator={self.generator})"


@dataclass(frozen=True)
class SubfieldView:
    """Embedded subfield with integer symbol relabeling (see Field.subfield_view)."""

    field: Field
    embed: np.ndarray    # symbol -> parent value
    project: np.ndarray  # parent value -> symbol, -1 for non-members


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

_cached_field = lru_cache(maxsize=None)(Field)


def make_field(p: int, e: int, modulus: tuple[int, ...] | list[int] | None = None) -> Field:
    """Build (or fetch the cached) GF(p^e) context.

    When ``modulus`` is omitted the monic primitive polynomial of degree e
    with the smallest base-p integer encoding is selected, which makes
    every downstream output reproducible.  A provided modulus must be
    monic of degree e and primitive, that is, x must have order p^e - 1
    mod f; any other modulus raises ValueError once the table build finds
    that x falls short (about 0.2 s at 2^20 elements).  The generator is
    always the smallest integer-coded element of full order.  For e > 1
    that is x (integer code p); for e = 1 it is the smallest primitive
    root, which need not be x: ``make_field(7, 1)`` has modulus x + 2, so
    x = 5, but generator 3.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be positive")
    if p**e > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{e} exceeds the supported maximum 2^20")
    if modulus is None:
        modulus = _smallest_primitive_modulus(p, e)
    else:
        modulus = tuple(modulus)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in modulus):
            raise ValueError(f"modulus coefficients must be ints, got {list(modulus)}")
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e (ascending coefficients)")
        if any(not 0 <= c < p for c in modulus[:-1]):
            raise ValueError("modulus coefficients must be reduced mod p")
    return _cached_field(p, e, modulus)


def nth_root_of_unity(ctx: Field, n: int) -> int:
    """The canonical primitive n-th root of unity, gamma^((p^e-1)/n)."""
    q1 = ctx.order - 1
    if n < 1 or q1 % n != 0:
        raise ValueError(f"{n} does not divide the multiplicative group order {q1}")
    return ctx.pow(ctx.generator, q1 // n)


@lru_cache(maxsize=None)
def frobenius_lookup(ctx: Field, k: int) -> np.ndarray:
    """Entry v holds v^k, for every element v of ctx and k = p^j with
    1 <= j <= e (any other k raises ValueError): a read-only vector in the
    narrowest dtype that holds an element, built on first use at any field
    size and cached per (ctx, k), as :func:`make_field` caches its contexts.

    With Q = p^e elements, (gamma^t)^k = gamma^(t k mod Q-1), and for
    t < Q-1 with t = hi (Q/k) + lo, lo < Q/k, that product is lo k + hi:
    entry [hi, lo] of the transpose of arange(Q).reshape(Q/k, k).  So the
    lookup is the exp table read through that transposed view and
    scattered to the exp table's order, with no integer product or
    field-sized int64 copy.
    """
    if degree_over_prime(k, ctx.p) > ctx.e:
        raise ValueError(f"the Frobenius power {k} exceeds the field order {ctx.order}")
    exp = ctx.exp_np[:ctx.order].astype(np.min_scalar_type(ctx.order - 1))
    lookup = np.zeros(ctx.order, dtype=exp.dtype)
    lookup[ctx.exp_np[:ctx.order - 1]] = exp.reshape(-1, k).T.ravel()[:-1]
    lookup.flags.writeable = False
    return lookup


@lru_cache(maxsize=None)
def subfield_power_basis(ctx: Field, q: int, s: int) -> tuple[int, ...]:
    """The power basis (1, w, ..., w^(s-1)) of F_(q^s) over F_q inside ctx.

    w = gamma^((p^e-1)/(q^s-1)) generates the multiplicative group of
    F_(q^s), so its first s powers are independent over F_q.  Cached per
    (ctx, q, s).
    """
    m = ctx.e // ctx._subfield_degree(q)
    if s < 1 or m % s != 0:
        raise ValueError(f"F_{q}^{s} is not a subfield of F_{q}^{m}")
    w = nth_root_of_unity(ctx, q**s - 1)
    return tuple(ctx.pow(w, i) for i in range(s))
