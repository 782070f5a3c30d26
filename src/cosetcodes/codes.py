"""Evaluation codes attached to coset families.

Each coset S_a of size s contributes s rows, one per element b_j of a
chosen basis of F_(q^s) over F_q: the row is the orbit sum
sum_i (b_j * x^a)^(q^i) for i < s, with exponents reduced mod n, evaluated
on zero plus the n-th roots of unity in GF(q^m).  The exponent support of
that polynomial is exactly the coset, so its degree is the coset's
largest element.  At alpha^t it is the trace Tr_(F_(q^s)/F_q)(b_j *
alpha^(a t)), a sum over one Frobenius orbit, so every value lies in F_q
and the rows form a generator matrix over F_q.  All rows of a family are
evaluated at once, as one array expression over exp/log tables.

The generator matrix builder verifies subfield membership of every entry
(a projection table miss raises) and checks that the matrix has full row
rank equal to the sum of coset sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cosets import CosetFamily, CosetTable, compute_cosets, order_mod
from .galois import (MAX_FIELD_SIZE, Field, degree_over_prime, make_field, nth_root_of_unity,
                     prime_power_base, subfield_power_basis)
from .linalg import GFMatrix, rank


def field_for_table(table: CosetTable) -> Field:
    """The canonical parent field GF(q^m) for a coset table."""
    p = prime_power_base(table.q)
    return make_field(p, degree_over_prime(table.q, p) * table.m)


def check_field_size(q: int, n: int) -> None:
    """Refuse a parent field GF(q^m) above 2^20 before the O(n) coset table:
    n divides q^m - 1, so an n >= 2^20 is refused without computing m."""
    p = prime_power_base(q)
    if p is None:  # compute_cosets refuses q
        return
    if n >= MAX_FIELD_SIZE:
        raise ValueError(f"field size above n={n} exceeds the supported maximum 2^20")
    e = degree_over_prime(q, p) * order_mod(q, n)
    if p**e > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{e} exceeds the supported maximum 2^20")


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Generator matrix of the code attached to a coset family.

    Entries are symbols of the subfield view of F_q inside the parent
    field; rows are ordered by (coset min rep, basis index).
    """

    mat: GFMatrix
    family: CosetFamily
    parent: Field

    def to_json_obj(self) -> dict:
        return {
            "q": self.family.table.q,
            "n": self.family.table.n,
            "rows": self.mat.rows,
            "cols": self.mat.cols,
            "family": self.family.to_json_obj(),
            "field": self.parent.describe(),
            "symbol_field": self.mat.field.describe(),
            "entries": [int(x) for x in self.mat.entries.reshape(-1)],
        }

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
    _require_fields(obj, "export", {"q": int, "n": int, "rows": int, "cols": int,
                                    "family": list, "field": dict, "entries": list})
    fdesc = obj["field"]
    _require_fields(fdesc, "\"field\"", {"p": int, "e": int, "modulus": list,
                                         "generator": int})
    if not all(_is_int(c) for c in fdesc["modulus"]):
        raise ValueError("\"field\" field \"modulus\" must hold ints")
    if not all(_is_int(v) and 0 <= v < obj["q"] for v in obj["entries"]):
        raise ValueError("export field \"entries\" must hold ints in 0..q-1")
    # n must divide the field's group order (below 2^20): check before the O(n) table
    ctx = make_field(fdesc["p"], fdesc["e"], tuple(fdesc["modulus"]))
    if ctx.generator != fdesc["generator"]:
        raise ValueError("field generator mismatch; incompatible export")
    nth_root_of_unity(ctx, obj["n"])
    table = _table_from_json(obj)
    family = table.family(c[0] for c in obj["family"])
    rebuilt = generator_matrix(family, ctx)
    shape = rebuilt.mat.entries.shape
    if (obj["rows"], obj["cols"]) != shape:
        raise ValueError(f"export fields \"rows\" x \"cols\" = {obj['rows']} x {obj['cols']}"
                         f" do not match the rebuilt {shape[0]} x {shape[1]} matrix")
    stored = np.asarray(obj["entries"], dtype=np.uint16)
    if not np.array_equal(stored, rebuilt.mat.entries.ravel()):
        raise ValueError("stored entries disagree with the reconstruction")
    return rebuilt


def _require_fields(obj, where: str, types: dict) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, kind in types.items():
        if key not in obj:
            raise ValueError(f"{where} has no \"{key}\" field")
        if not (_is_int(obj[key]) if kind is int else isinstance(obj[key], kind)):
            raise ValueError(f"{where} field \"{key}\" must be {kind.__name__}")


def _is_int(v) -> bool:
    """A JSON integer: json.loads gives bool for true/false, and bool is an int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _table_from_json(obj: dict) -> CosetTable:
    table = compute_cosets(obj["q"], obj["n"])
    if not all(isinstance(c, list) and c and all(_is_int(v) for v in c)
               for c in obj["family"]):
        raise ValueError("export field \"family\" must hold nonempty lists of ints")
    stored = [sorted(c) for c in obj["family"]]
    for c in stored:
        got = list(table.cosets[table.coset_of(c[0])].elements)
        if got != c:
            raise ValueError(f"stored coset {c} does not match computed {got}")
    if len({tuple(c) for c in stored}) != len(stored):
        raise ValueError("export field \"family\" lists a coset twice")
    return table


def generator_matrix(family: CosetFamily, ctx: Field | None = None) -> GeneratorMatrix:
    """Build the generator matrix of the code attached to ``family``.

    Each coset's rows use the power basis of
    :func:`~cosetcodes.galois.subfield_power_basis`; the row space does
    not depend on that choice.  Every entry is verified to lie in the F_q
    subfield before symbol projection; rank is verified to equal the sum
    of member coset sizes.  Those two checks also reject any bad basis: a
    value outside F_(q^s) leaves F_q in some orbit sum, and a dependent
    basis loses rank.
    """
    if not family.members:
        raise ValueError("family must be nonempty")
    table = family.table
    if ctx is None:
        ctx = field_for_table(table)
    q, n = table.q, table.n
    view = ctx.subfield_view(q)
    nth_root_of_unity(ctx, n)  # raises unless n divides |ctx*|

    reps, values, sizes = [], [], []
    for cid in family.members:
        coset = table.cosets[cid]
        a, s = coset.min_rep, coset.size
        # the orbit of a is the exponent support, so the degree is max(coset)
        if sorted(a * q**i % n for i in range(s)) != list(coset.elements):
            raise AssertionError(f"orbit of {a} under x -> {q}x is not the coset {coset}")
        reps += [a] * s
        values += subfield_power_basis(ctx, q, s)
        sizes += [s] * s

    symbols = view.project[_trace_rows(ctx, q, n, reps, values, sizes)]
    if (symbols < 0).any():
        raise ArithmeticError(
            "evaluation produced a value outside the F_q subfield "
            "(arithmetic bug: orbit sums must be Frobenius-fixed)")
    mat = GFMatrix(view.field, symbols)
    expected = family.dim()
    got = rank(mat)
    if got != expected:
        raise ArithmeticError(f"rank {got} != expected dimension {expected}")
    return GeneratorMatrix(mat=mat, family=family, parent=ctx)


def _trace_rows(ctx: Field, q: int, n: int, reps, values, sizes) -> np.ndarray:
    """Parent values at (0, alpha^0, ..., alpha^(n-1)) of the rows (a, b, s).

    Row r is sum_(i<s) (b * x^a)^(q^i) for a, b, s = reps[r], values[r],
    sizes[r].  With alpha = gamma^L, L = (Q-1)/n, its value at alpha^t is
    sum_(i<s) exp[q^i * (log b + (L*a mod Q-1) * t) mod Q-1].  At 0 only
    the zero coset (a = 0, s = 1) is nonzero, with value b.
    """
    q1 = ctx.order - 1
    a = np.asarray(reps, dtype=np.int64)
    b = np.asarray(values, dtype=np.int64)
    s = np.asarray(sizes, dtype=np.int64)
    logs = ctx.log_np[b][:, None] + (a * (q1 // n) % q1)[:, None] * np.arange(n)
    logs %= q1
    acc = np.zeros_like(logs)
    for i in range(int(s.max())):
        term = ctx.exp_np[logs]
        term[i >= s] = 0  # rows whose orbit has fewer than i + 1 terms
        acc = ctx.add(acc, term)
        logs *= q
        logs %= q1
    return np.column_stack([np.where(a == 0, b, 0), acc])


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
