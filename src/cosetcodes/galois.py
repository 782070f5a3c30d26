"""Finite field arithmetic for GF(p^e) backed by discrete-log tables.

Field elements are plain integers in ``0 .. p^e - 1``.  The base-p digits
of an element are the coefficients of its polynomial representative over
F_p (digit i = coefficient of x^i), so for p = 2 an element is the usual
bit mask and addition is XOR.  A :class:`Field` fixes a monic irreducible
modulus of degree e and a multiplicative generator; multiplication,
inversion and powering run through exp/log tables built once at
construction.

Supported sizes are capped at 2^20 elements.  The table representation
makes repeated arithmetic (code construction, exhaustive codeword
enumeration) cheap; building the tables is the cost, which grows
steeply with the field (GF(2^16) for n = 255 or 257 over F_4, GF(2^20)
for n = 1025).

Subfields GF(q^s) of GF(q^m) are never separate contexts: they live
inside the big field as the fixed points of x -> x^(q^s), with a
deterministic power basis (see :func:`subfield_power_basis`) and an
integer "symbol" relabeling (see :meth:`Field.subfield_view`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import gf_matrix, rank

MAX_FIELD_SIZE = 1 << 20

# Cap for dense q x q operation tables (used by the linear-algebra layer).
MAX_TABLE_FIELD_SIZE = 1 << 12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def _digits_to_int(digits: list[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


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


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """gcd of two digit vectors over F_p (not normalized)."""

    def degree(v: list[int]) -> int:
        for i in range(len(v) - 1, -1, -1):
            if v[i]:
                return i
        return -1

    a, b = list(a), list(b)
    while degree(b) >= 0:
        da, db = degree(a), degree(b)
        if da < db:
            a, b = b, a
            continue
        lead_inv = pow(b[db], p - 2, p) if p > 2 else 1
        coef = (a[da] * lead_inv) % p
        shift = da - db
        for i in range(db + 1):
            a[i + shift] = (a[i + shift] - coef * b[i]) % p
        if degree(a) < degree(b):
            a, b = b, a
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Frobenius-power criterion: x^(p^e) == x mod f and no small fixed field."""
    e = len(mod) - 1
    if e < 1 or mod[e] != 1:
        return False
    if e == 1:
        return True
    x = [0, 1] + [0] * (e - 2)
    if _poly_powmod(x, p**e, mod, p) != x:
        return False
    for r in prime_factors(e):
        xr = _poly_powmod(x, p ** (e // r), mod, p)
        diff = [(xr[i] - (1 if i == 1 else 0)) % p for i in range(e)]
        if not any(diff):
            return False
        g = _poly_gcd(diff, list(mod), p)
        deg_g = max((i for i, c in enumerate(g) if c), default=-1)
        if deg_g > 0:
            return False
    return True


def _has_full_order(element: list[int], modulus: list[int], p: int) -> bool:
    """True when ``element`` generates the full multiplicative group mod f.

    Only a field of order p^e has p^e - 1 units, so a positive answer for
    x simultaneously certifies irreducibility and primitivity of f.
    """
    order = p ** (len(modulus) - 1) - 1
    if not _is_one(_poly_powmod(element, order, modulus, p)):
        return False
    return not any(_is_one(_poly_powmod(element, order // r, modulus, p))
                   for r in prime_factors(order))


@lru_cache(maxsize=None)
def _smallest_primitive_modulus(p: int, e: int) -> tuple[int, ...]:
    """Monic primitive polynomial of degree e with the smallest integer code."""
    if p**e == 2:
        return (1, 1)  # x + 1; GF(2) itself
    for tail in range(1, p**e):
        digits = _int_to_digits(tail, p, e)
        if digits[0] == 0:
            continue  # x divides f
        mod = digits + [1]
        x = [0, 1] + [0] * (e - 2) if e > 1 else [(-digits[0]) % p]  # x mod f
        if _has_full_order(x, mod, p):
            return tuple(mod)
    raise AssertionError(f"no primitive polynomial of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class Field:
    """Arithmetic context for GF(p^e).

    Use :func:`make_field` instead of constructing directly; it validates
    inputs, picks the canonical modulus when none is given, and caches
    contexts so elements from repeated calls share one context.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], generator: int):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = modulus
        self.generator = generator
        self._build_tables()
        self._views: dict[int, SubfieldView] = {}
        self._np_tables: dict[str, np.ndarray] = {}

    # -- construction -------------------------------------------------

    def _mul_digits(self, a: int, b: int) -> int:
        da = _int_to_digits(a, self.p, self.e)
        db = _int_to_digits(b, self.p, self.e)
        return _digits_to_int(_poly_mulmod(da, db, list(self.modulus), self.p), self.p)

    def _build_tables(self) -> None:
        q1 = self.order - 1
        exp = [0] * (2 * q1 if q1 else 1)
        log = [-1] * self.order
        v = 1
        for i in range(q1):
            exp[i] = v
            if log[v] != -1:
                raise ValueError("generator does not have full multiplicative order")
            log[v] = i
            v = self._mul_digits(v, self.generator)
        if v != 1:
            raise ValueError("generator does not have full multiplicative order")
        for i in range(q1, 2 * q1):
            exp[i] = exp[i - q1]
        self._exp = exp
        self._log = log
        self.exp_np = np.asarray(exp if q1 else [1], dtype=np.int64)
        self.log_np = np.asarray(log, dtype=np.int64)

    # -- scalar arithmetic on integer-coded elements --------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        q1 = self.order - 1
        return self._exp[(q1 - self._log[a]) % q1]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        q1 = self.order - 1
        if q1 == 0:
            return 1
        return self._exp[(self._log[a] * k) % q1]

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
            q = self.order
            r = np.arange(q)
            if name == "add":
                if self.p == 2:
                    tab = (r[:, None] ^ r[None, :]).astype(np.uint16)
                else:
                    tab = np.zeros((q, q), dtype=np.uint16)
                    for a in range(q):
                        for b in range(q):
                            tab[a, b] = self.add(a, b)
            elif name == "mul":
                tab = np.zeros((q, q), dtype=np.uint16)
                nz = r[1:]
                logs = self.log_np[nz]
                tab[1:, 1:] = self.exp_np[(logs[:, None] + logs[None, :])].astype(np.uint16)
            elif name == "neg":
                tab = np.asarray([self.neg(a) for a in range(q)], dtype=np.uint16)
            else:
                raise KeyError(name)
            self._np_tables[name] = tab
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
            tab = np.asarray([self.pow(a, k) for a in range(self.order)], dtype=np.uint16)
            self._np_tables[name] = tab
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
        embed = np.zeros(q, dtype=np.int64)
        project = np.full(self.order, -1, dtype=np.int64)
        w_pows = [self.pow(w, i) for i in range(f)]
        for sym in range(q):
            digits = _int_to_digits(sym, self.p, f)
            val = 0
            for c, wp in zip(digits, w_pows):
                if c:
                    val = self.add(val, self.mul(c, wp) if self.p != 2 else wp)
            embed[sym] = val
            project[val] = sym
        view = SubfieldView(parent=self, field=symbol_field, w=w,
                            embed=embed, project=project)
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

    parent: Field
    field: Field
    w: int
    embed: np.ndarray    # symbol -> parent value
    project: np.ndarray  # parent value -> symbol, -1 for non-members

    @property
    def q(self) -> int:
        return self.field.order


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

@lru_cache(maxsize=None)
def _cached_field(p: int, e: int, modulus: tuple[int, ...]) -> Field:
    if not _is_irreducible(list(modulus), p):
        raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
    # smallest integer-coded element of full multiplicative order
    for cand in range(1, p**e):
        if _has_full_order(_int_to_digits(cand, p, e), list(modulus), p):
            return Field(p, e, modulus, cand)
    raise ValueError("no multiplicative generator found (modulus not irreducible?)")


def make_field(p: int, e: int, modulus: tuple[int, ...] | list[int] | None = None) -> Field:
    """Build (or fetch the cached) GF(p^e) context.

    When ``modulus`` is omitted the monic primitive polynomial of degree e
    with the smallest base-p integer encoding is selected, which pins the
    generator to x and makes every downstream output reproducible.  A
    provided modulus must be monic of degree e and irreducible; the
    generator is then the smallest integer-coded element of full order.
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
        modulus = tuple(int(c) for c in modulus)
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
    independence.
    """
    m = ctx.e // ctx._subfield_degree(q)
    if s < 1 or m % s != 0:
        raise ValueError(f"F_{q}^{s} is not a subfield of F_{q}^{m}")
    w = ctx._subfield_generator(q**s)
    values = tuple(ctx.pow(w, i) for i in range(s))
    return SubfieldBasis(ctx=ctx, q=q, s=s, values=values)
