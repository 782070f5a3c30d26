"""Evaluation codes attached to coset families.

Each coset S_a of size s contributes s polynomials, one per element of a
chosen basis of F_(q^s) over F_q: the j-th polynomial is the orbit sum
sum_i (b_j * x^a)^(q^i) for i < s, with exponents reduced mod n.  Reduced
this way, the exponent support of the polynomial is exactly the coset and
its degree is the coset's largest element.  On the evaluation set (zero
plus the n-th roots of unity in GF(q^m)) all values land in the subfield
F_q, so the value vectors form rows of a generator matrix over F_q.

The generator matrix builder verifies subfield membership of every entry
(a projection table miss raises) and checks that the matrix has full row
rank equal to the sum of coset sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cosets import Coset, CosetFamily, CosetTable, order_mod
from .galois import (Field, SubfieldBasis, degree_over_prime, make_field,
                     nth_root_of_unity, prime_factors, subfield_power_basis)
from .linalg import GFMatrix, rank


@dataclass(frozen=True)
class TracePolynomial:
    """Orbit-sum polynomial for one coset and one basis element.

    ``terms`` are (exponent, coefficient) pairs with exponents already
    reduced mod n; coefficient values live in the parent field.
    """

    coset_rep: int
    basis_index: int
    terms: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return max(e for e, _ in self.terms)

    def evaluate(self, ctx: Field, point: int) -> int:
        acc = 0
        for e, c in self.terms:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(point, e)) if point or e == 0 else 0)
        return acc


def trace_polynomials(ctx: Field, table: CosetTable, coset: Coset,
                      basis: SubfieldBasis) -> list[TracePolynomial]:
    """The s polynomials of a coset for the given basis of F_(q^s)."""
    q, n = table.q, table.n
    s = coset.size
    if basis.s != s or basis.q != q:
        raise ValueError(f"basis is for F_{q}^{basis.s}, coset needs F_{q}^{s}")
    if basis.ctx is not ctx:
        raise ValueError("basis bound to a different field context")
    a = coset.min_rep
    out = []
    for j, value in enumerate(basis.values):
        terms = []
        exp_a, coef = a, value
        for _ in range(s):
            terms.append((exp_a, coef))
            exp_a = (exp_a * q) % n
            coef = ctx.pow(coef, q)
        terms.sort()
        exps = [e for e, _ in terms]
        if tuple(exps) != coset.elements:
            raise AssertionError("term support does not match the coset")
        out.append(TracePolynomial(coset_rep=a, basis_index=j, terms=tuple(terms)))
    return out


@dataclass(frozen=True, eq=False)
class EvaluationDomain:
    """The n+1 evaluation points (0, a^0, a^1, ..., a^(n-1)), a primitive."""

    field: Field
    n: int
    points: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def evaluation_domain(ctx: Field, n: int) -> EvaluationDomain:
    if n <= 1:
        raise ValueError("n must be greater than 1")
    alpha = nth_root_of_unity(ctx, n)  # validates divisibility
    points = [0] + [ctx.pow(alpha, i) for i in range(n)]
    if len(set(points)) != n + 1:
        raise AssertionError("evaluation points are not distinct")
    return EvaluationDomain(field=ctx, n=n, points=tuple(points))


@lru_cache(maxsize=None)
def _field_for(q: int, n: int) -> Field:
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p = factors[0]
    m = order_mod(q, n)
    return make_field(p, degree_over_prime(q, p) * m)


def field_for_table(table: CosetTable) -> Field:
    """The canonical parent field GF(q^m) for a coset table."""
    return _field_for(table.q, table.n)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Generator matrix of the code attached to a coset family.

    Entries are symbols of the subfield view of F_q inside the parent
    field; rows are ordered by (coset min rep, basis index).
    """

    mat: GFMatrix
    family: CosetFamily
    parent: Field

    @property
    def symbol_field(self) -> Field:
        return self.mat.field

    def to_json_obj(self, include_entries: bool = True) -> dict:
        obj = {
            "q": self.family.table.q,
            "n": self.family.table.n,
            "rows": self.mat.rows,
            "cols": self.mat.cols,
            "family": self.family.to_json_obj(),
            "field": self.parent.describe(),
            "symbol_field": self.symbol_field.describe(),
        }
        if include_entries:
            obj["entries"] = [int(x) for x in self.mat.entries.reshape(-1)]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_text_grid(self) -> str:
        width = len(str(self.mat.q - 1))
        return "\n".join(
            " ".join(str(int(x)).rjust(width) for x in row)
            for row in self.mat.entries
        )


def load_matrix_json(text: str) -> GeneratorMatrix:
    """Rebuild an exported generator matrix for independent re-checking."""
    obj = json.loads(text)
    table = _table_from_json(obj)
    family = table.family(c[0] for c in obj["family"])
    fdesc = obj["field"]
    ctx = make_field(fdesc["p"], fdesc["e"], tuple(fdesc["modulus"]))
    if ctx.generator != fdesc["generator"]:
        raise ValueError("field generator mismatch; incompatible export")
    rebuilt = generator_matrix(family, ctx)
    if "entries" in obj:
        stored = np.asarray(obj["entries"], dtype=np.uint16).reshape(obj["rows"], obj["cols"])
        if not np.array_equal(stored, rebuilt.mat.entries):
            raise ValueError("stored entries disagree with the reconstruction")
    return rebuilt


def _table_from_json(obj: dict) -> CosetTable:
    from .cosets import compute_cosets

    table = compute_cosets(obj["q"], obj["n"])
    stored = [sorted(c) for c in obj["family"]]
    for c in stored:
        got = list(table.cosets[table.coset_of(c[0])].elements)
        if got != c:
            raise ValueError(f"stored coset {c} does not match computed {got}")
    return table


def generator_matrix(family: CosetFamily, ctx: Field | None = None,
                     bases: dict[int, SubfieldBasis] | None = None) -> GeneratorMatrix:
    """Build the generator matrix of the code attached to ``family``.

    ``bases`` may override the default power basis per coset id (used for
    basis-independence checks).  Every entry is verified to lie in the
    F_q subfield before symbol projection; rank is verified to equal the
    sum of member coset sizes.
    """
    if not family.members:
        raise ValueError("family must be nonempty")
    table = family.table
    if ctx is None:
        ctx = field_for_table(table)
    q, n = table.q, table.n
    view = ctx.subfield_view(q)
    nth_root_of_unity(ctx, n)  # raises unless n divides |ctx*|
    log_alpha = (ctx.order - 1) // n

    rows: list[np.ndarray] = []
    basis_cache: dict[int, SubfieldBasis] = {}

    for cid in family.members:
        coset = table.cosets[cid]
        basis = (bases or {}).get(cid)
        if basis is None:
            basis = basis_cache.get(coset.size)
            if basis is None:
                basis = subfield_power_basis(ctx, q, coset.size)
                basis_cache[coset.size] = basis
        for poly in trace_polynomials(ctx, table, coset, basis):
            rows.append(_evaluate_on_domain(ctx, poly, n, log_alpha))

    values = np.vstack(rows)
    symbols = view.project[values]
    if (symbols < 0).any():
        raise ArithmeticError(
            "evaluation produced a value outside the F_q subfield "
            "(arithmetic bug: orbit sums must be Frobenius-fixed)")
    mat = GFMatrix(view.field, symbols.astype(np.uint16))
    expected = family.dim()
    got = rank(mat)
    if got != expected:
        raise ArithmeticError(f"rank {got} != expected dimension {expected}")
    return GeneratorMatrix(mat=mat, family=family, parent=ctx)


def _evaluate_on_domain(ctx: Field, poly: TracePolynomial, n: int,
                        log_alpha: int) -> np.ndarray:
    """Values of the polynomial at (0, a^0, ..., a^(n-1)) as parent codes."""
    q1 = ctx.order - 1
    out = np.zeros(n + 1, dtype=np.int64)
    const = [c for e, c in poly.terms if e == 0]
    out[0] = const[0] if const else 0
    if ctx.p == 2:
        ts = np.arange(n, dtype=np.int64)
        acc = np.zeros(n, dtype=np.int64)
        for e, c in poly.terms:
            idx = (ctx.log_np[c] + (log_alpha * e) * ts) % q1
            acc ^= ctx.exp_np[idx]
        out[1:] = acc
    else:
        alpha = ctx.pow(ctx.generator, log_alpha)
        for t in range(n):
            point = ctx.pow(alpha, t)
            out[t + 1] = poly.evaluate(ctx, point)
    return out


def truncated_family(table: CosetTable, r: int) -> CosetFamily:
    """Family of all cosets entirely contained in [0, r].

    The attached code has length n+1, dimension the sum of the selected
    coset sizes, and minimum distance at least n+1-r.  A coset counts
    only when its largest element is <= r; admitting every coset whose
    smallest element is <= r would inflate the dimension past the degree
    bound that makes the distance guarantee work.
    """
    if not 1 <= r <= table.n - 1:
        raise ValueError(f"r must be in 1..{table.n - 1}")
    members = tuple(i for i, c in enumerate(table.cosets) if c.max_elem <= r)
    return CosetFamily(table, members)


def classical_params(family: CosetFamily) -> tuple[int, int, int]:
    """(length, dimension, distance lower bound) of the attached code."""
    n = family.table.n
    return (n + 1, family.dim(), n + 1 - family.max_degree())
