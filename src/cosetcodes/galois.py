"""Finite field arithmetic for GF(p^e) backed by discrete-log tables.

Field elements are plain integers in ``0 .. p^e - 1``.  The base-p digits
of an element are the coefficients of its polynomial representative over
F_p (digit i = coefficient of x^i), so for p = 2 an element is the usual
bit mask and addition is XOR.  A :class:`Field` is built from a monic
primitive modulus of degree e alone; multiplication, inversion and
powering run through exp/log tables built once at construction.
Multiplication by a fixed element is an F_p-linear map on the digits, so
the exp table of x is built by doubling with digit-matrix products, the
same way for every p.  That table is also the only proof that the modulus
is primitive, and it yields the generator (the smallest element of full
order) without a separate search.

Supported sizes are capped at 2^20 elements.  The table representation
makes repeated arithmetic (code construction, exhaustive codeword
enumeration) cheap.  Building the tables grows linearly with the field:
on a 2-vCPU Xeon, ``make_field(2, 16)`` (n = 255 or 257 over F_4) takes
about 0.03 s and ``make_field(2, 20)`` (n = 1025) about 0.25 s, with a
peak resident set of about 83 MB in a fresh process.

Subfields GF(q^s) of GF(q^m) are never separate contexts: they live
inside the big field as the fixed points of x -> x^(q^s), with a
deterministic power basis (see :func:`subfield_power_basis`) and an
integer "symbol" relabeling (see :meth:`Field.subfield_view`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .linalg import gf_matrix, rank

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
# Polynomial helpers over F_p.  Polynomials are lists of digits (ascending
# powers); elements travel as base-p integers and are converted at the edges.
# ---------------------------------------------------------------------------

def _int_to_digits(v: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        v, r = divmod(v, p)
        digits.append(r)
    return digits


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Schoolbook product of two digit vectors, reduced mod a monic modulus."""
    e = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^e = -(mod[0] + ... + mod[e-1] x^(e-1))
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        for j in range(e):
            prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
    return prod[:e] + [0] * max(0, e - len(prod))


def _poly_powmod(base: list[int], exponent: int, mod: list[int], p: int) -> list[int]:
    e = len(mod) - 1
    result = [1] + [0] * (e - 1)
    acc = list(base[:e]) + [0] * max(0, e - len(base))
    while exponent:
        if exponent & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        exponent >>= 1
    return result


def _is_one(digits: list[int]) -> bool:
    return digits[0] == 1 and not any(digits[1:])


def _has_full_order(element: list[int], modulus: list[int], p: int) -> bool:
    """True when ``element`` generates the full multiplicative group mod f.

    Only a field of order p^e has p^e - 1 units, so a positive answer for
    x certifies that f is primitive (and so irreducible).  Used by the
    canonical-modulus search, where a table per candidate would cost O(q).
    """
    order = p ** (len(modulus) - 1) - 1
    if not _is_one(_poly_powmod(element, order, modulus, p)):
        return False
    return not any(_is_one(_poly_powmod(element, order // r, modulus, p))
                   for r in prime_factors(order))


def _x_code(modulus: tuple[int, ...] | list[int], p: int) -> int:
    """Integer code of x reduced mod the monic modulus: p, or -f_0 when e = 1."""
    return p if len(modulus) > 2 else -modulus[0] % p


@lru_cache(maxsize=None)
def _smallest_primitive_modulus(p: int, e: int) -> tuple[int, ...]:
    """Monic primitive polynomial of degree e with the smallest integer code."""
    for tail in range(1, p**e):
        digits = _int_to_digits(tail, p, e)
        if digits[0] == 0:
            continue  # x divides f
        mod = digits + [1]
        if _has_full_order(_int_to_digits(_x_code(mod, p), p, e), mod, p):
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
        self._views: dict[int, SubfieldView] = {}
        self._bases: dict[tuple[int, int], SubfieldBasis] = {}
        self._np_tables: dict[str, np.ndarray] = {}

    # -- construction -------------------------------------------------

    def _mul_matrix(self, c: int) -> np.ndarray:
        """Matrix of y -> c*y on base-p digits: row i holds the digits of c*x^i."""
        p = self.p
        v = _int_to_digits(c, p, self.e)
        rows = []
        for _ in range(self.e):
            rows.append(v)
            # x*v: shift up one digit and replace x^e by -(f_0 + ... + f_(e-1) x^(e-1))
            v = [(lo - v[-1] * f) % p for lo, f in zip([0] + v[:-1], self.modulus)]
        return np.asarray(rows, dtype=np.float64)

    def _build_tables(self) -> None:
        """exp of x by doubling, exp[k:2k] = x^k * exp[0:k], then log by one scatter.

        Each round applies the matrix of y -> x^k*y to the base-p digit
        rows of exp[0:k] as a float64 product, in chunks of
        ``EXP_CHUNK_ROWS`` rows.  Its sums are at most (p-1)^2 * e < 2^53,
        so they are exact.  x has full order iff x^(q-1) = 1 and every
        nonzero element gets a log; this is the one proof that the modulus
        is primitive, and so irreducible.

        The generator is the smallest element of full order, the smallest
        c <= x with gcd(log_x c, q-1) = 1, and the tables are re-indexed to
        its powers.  For e > 1 that is x itself: every c < x = p lies in
        F_p, whose logs are multiples of (q-1)/(p-1) > 1.
        """
        p, q1 = self.p, self.order - 1
        x = _x_code(self.modulus, p)
        place = np.asarray(self._powers, dtype=np.float64)
        digits = np.zeros((q1, self.e), dtype=np.min_scalar_type(p - 1))
        digits[0, 0] = 1
        exp = np.ones(q1, dtype=np.int64)
        mat = self._mul_matrix(x)  # multiplies by x^k
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
        x_q1 = _poly_mulmod(digits[-1].tolist(), _int_to_digits(x, p, self.e),
                            list(self.modulus), p)
        if not _is_one(x_q1) or (log[1:] < 0).any():
            raise ValueError(f"modulus {list(self.modulus)} is not primitive over F_{p}")
        g = 1 + int(np.flatnonzero(np.gcd(log[1:x + 1], q1) == 1)[0])
        if g != x:
            exp = exp[np.arange(q1) * log[g] % q1]
            log[exp] = np.arange(q1)
        self.generator = g
        self.exp_np = np.concatenate([exp, exp])
        self.log_np = log

    # -- arithmetic on integer-coded elements ----------------------------
    # add and neg take ints or numpy arrays (element-wise, broadcasting);
    # both act on each base-p digit, which for p = 2 is XOR.

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        return sum((a // w % p + b // w % p) % p * w for w in self._powers)

    def neg(self, a):
        if self.p == 2:
            return a
        p = self.p
        return sum((p - a // w % p) % p * w for w in self._powers)

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

    def frobenius(self, a: int, q: int) -> int:
        """x -> x^q for a subfield size q = p^j."""
        degree_over_prime(q, self.p)
        return self.pow(a, q)

    # -- dense operation tables (small fields only) ---------------------

    def _table(self, name: str) -> np.ndarray:
        tab = self._np_tables.get(name)
        if tab is None:
            if self.order > MAX_TABLE_FIELD_SIZE:
                raise ValueError(
                    f"dense {name} table not supported for fields larger than "
                    f"{MAX_TABLE_FIELD_SIZE} elements"
                )
            r = np.arange(self.order, dtype=np.uint16)
            if name == "add":
                tab = self.add(r[:, None], r[None, :])
            elif name == "mul":
                tab = np.zeros((self.order, self.order), dtype=np.uint16)
                logs = self.log_np[1:]
                tab[1:, 1:] = self.exp_np[logs[:, None] + logs[None, :]]
            elif name == "neg":
                tab = self.neg(r)
            else:
                raise KeyError(name)
            tab = self._np_tables[name] = np.asarray(tab, dtype=np.uint16)
        return tab

    @property
    def add_table(self) -> np.ndarray:
        return self._table("add")

    @property
    def mul_table(self) -> np.ndarray:
        return self._table("mul")

    @property
    def neg_table(self) -> np.ndarray:
        return self._table("neg")

    def pow_table(self, k: int) -> np.ndarray:
        """Entry-wise x -> x^k lookup vector."""
        name = f"pow{k}"
        tab = self._np_tables.get(name)
        if tab is None:
            if self.order > MAX_TABLE_FIELD_SIZE:
                raise ValueError("dense power table not supported for this field size")
            r = np.arange(self.order)
            tab = np.where(r > 0, self.exp_np[self.log_np[r] * k % (self.order - 1)], 0 ** k)
            tab = self._np_tables[name] = tab.astype(np.uint16)
        return tab

    # -- subfields -------------------------------------------------------

    def _subfield_degree(self, q: int) -> int:
        """f with q = p^f, after checking that F_q is a subfield of this field."""
        f = degree_over_prime(q, self.p)
        if self.e % f != 0:
            raise ValueError(f"F_{q} is not a subfield of F_{self.order}")
        return f

    def _subfield_generator(self, q: int) -> int:
        """gamma^((p^e-1)/(q-1)), a generator of the multiplicative group of F_q."""
        return self.pow(self.generator, (self.order - 1) // (q - 1))

    def subfield_view(self, q: int) -> SubfieldView:
        """Relabel the embedded subfield F_q of this field as 0..q-1 symbols.

        Symbols are coordinates with respect to the power basis
        {1, w, ..., w^(f-1)} of F_q inside this field, packed in base p,
        where w = gamma^((p^e-1)/(q-1)).  The returned view bundles a
        :class:`Field` for symbol arithmetic (modulus = minimal polynomial
        of w), plus lookup tables between parent values and symbols.
        """
        view = self._views.get(q)
        if view is not None:
            return view
        f = self._subfield_degree(q)
        w = self._subfield_generator(q)
        minpoly = self._minimal_polynomial_over_prime(w, f)
        symbol_field = make_field(self.p, f, minpoly)
        # symbol sum_j c_j p^j is sum_j c_j w^j; c_j w^j has log log(c_j) + j log(w)
        digits = np.arange(q)[:, None] // np.asarray(symbol_field._powers) % self.p
        logs = self.log_np[digits] + np.arange(f) * self.log_np[w]
        terms = np.where(digits > 0, self.exp_np[logs % (self.order - 1)], 0)
        embed = reduce(self.add, terms.T)
        project = np.full(self.order, -1, dtype=np.int64)
        project[embed] = np.arange(q)
        view = SubfieldView(field=symbol_field, embed=embed, project=project)
        self._views[q] = view
        return view

    def _minimal_polynomial_over_prime(self, a: int, expected_degree: int) -> tuple[int, ...]:
        """Product of (x - a^(p^i)) over the Frobenius orbit of a."""
        conjugates = []
        v = a
        while v not in conjugates:
            conjugates.append(v)
            v = self.pow(v, self.p)
        if len(conjugates) != expected_degree:
            raise ValueError("element degree does not match requested subfield")
        # expand the product with coefficients in the big field
        coeffs = [1]
        for c in conjugates:
            nxt = [0] * (len(coeffs) + 1)
            for i, cf in enumerate(coeffs):
                nxt[i + 1] = self.add(nxt[i + 1], cf)
                nxt[i] = self.add(nxt[i], self.mul(cf, self.neg(c)))
            coeffs = nxt
        # coefficients must land in the prime subfield (integer codes 0..p-1)
        for cf in coeffs:
            if cf >= self.p:
                raise AssertionError("minimal polynomial coefficient outside F_p")
        return tuple(coeffs)

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


@dataclass(frozen=True)
class SubfieldBasis:
    """An F_q-basis of the subfield F_(q^s) inside a larger field.

    Validated at construction: every value must be an element of the
    field fixed by x -> x^(q^s), and the values must be linearly
    independent over F_q.
    """

    ctx: Field
    q: int
    s: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.s:
            raise ValueError(f"expected {self.s} basis elements, got {len(self.values)}")
        qs = self.q**self.s
        for v in self.values:
            if not 0 <= v < self.ctx.order:
                raise ValueError(f"value {v} outside 0..{self.ctx.order - 1}")
            if self.ctx.frobenius(v, qs) != v:
                raise ValueError(f"element {v} is not in F_{qs}")
        if not _independent_over_subfield(self.ctx, self.q, self.values):
            raise ValueError("basis elements are linearly dependent over the subfield")


def _independent_over_subfield(ctx: Field, q: int, values) -> bool:
    """F_q-linear independence via F_p-rank of {v * u : u in basis of F_q}."""
    wq = ctx._subfield_generator(q)
    units = [ctx.pow(wq, j) for j in range(ctx._subfield_degree(q))]
    rows = []
    for val in values:
        for u in units:
            rows.append(_int_to_digits(ctx.mul(val, u), ctx.p, ctx.e))
    return rank(gf_matrix(make_field(ctx.p, 1), rows, cols=ctx.e)) == len(rows)


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


def subfield_power_basis(ctx: Field, q: int, s: int) -> SubfieldBasis:
    """The power basis {1, w, ..., w^(s-1)} of F_(q^s) over F_q inside ctx.

    w = gamma^((p^e-1)/(q^s-1)) generates the multiplicative group of
    F_(q^s); the constructor re-checks Frobenius fixedness and F_q-linear
    independence.  The basis is cached on ctx, so that check runs once
    per (q, s).
    """
    basis = ctx._bases.get((q, s))
    if basis is not None:
        return basis
    m = ctx.e // ctx._subfield_degree(q)
    if s < 1 or m % s != 0:
        raise ValueError(f"F_{q}^{s} is not a subfield of F_{q}^{m}")
    w = ctx._subfield_generator(q**s)
    values = tuple(ctx.pow(w, i) for i in range(s))
    basis = SubfieldBasis(ctx=ctx, q=q, s=s, values=values)
    ctx._bases[(q, s)] = basis
    return basis
