"""Dual code computation with two independent verification routes.

The dual family of a coset family is a pure coset computation: member-wise
dualization plus complement (see ``cosets``).  The code-level claim, that
the evaluation code of the dual family really is the dual code, is checked
here along the generic linear-algebra route: the Gram matrix between the
two generator matrices must vanish, and the dual family's row space must
equal the nullspace of the primal matrix.  Agreement of the combinatorial
and the linear-algebra routes is a strong end-to-end correctness signal,
so both checks run by default.

Duality is only provided for even q; n is then odd and the block length
n+1 even.  Odd characteristic is rejected rather than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import CosetFamily, euclidean_dual_family, hermitian_dual_family
from .codes import GeneratorMatrix, field_for_table, generator_matrix
from .galois import Field
from .linalg import gram_is_zero, nullspace, pow_entrywise, row_space_equal


class VerificationError(AssertionError):
    """A self-check between independent computation routes failed."""


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Outcome of a verified dual-family computation."""

    family_s: CosetFamily
    family_dual: CosetFamily
    dual_kind: str          # "euclidean" or "hermitian"
    ell: int | None
    dim_s: int
    dim_dual: int
    gram_verified: bool
    nullspace_verified: bool
    matrix_s: GeneratorMatrix | None = None
    matrix_dual: GeneratorMatrix | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "dual_kind": self.dual_kind,
            "ell": self.ell,
            "q": self.family_s.table.q,
            "n": self.family_s.table.n,
            "S": self.family_s.to_json_obj(),
            "dual": self.family_dual.to_json_obj(),
            "dim_S": self.dim_s,
            "dim_dual": self.dim_dual,
            "gram_verified": self.gram_verified,
            "nullspace_verified": self.nullspace_verified,
        }
        if self.matrix_s is not None:
            obj["field"] = self.matrix_s.parent.describe()
        return obj


def _check_even_q(family: CosetFamily) -> None:
    if family.table.q % 2:
        raise ValueError("dual constructions are only supported for even q")
    if not family.contains_zero:
        raise ValueError("family must contain the coset {0}")


def euclidean_dual(family: CosetFamily, ctx: Field | None = None,
                   verify: bool = True) -> DualityReport:
    """Euclidean dual family of ``family`` with optional code-level checks."""
    _check_even_q(family)
    table = family.table
    dual_fam = euclidean_dual_family(family)
    dim_s, dim_dual = family.dim(), dual_fam.dim()
    if dim_s + dim_dual != table.n + 1:
        raise VerificationError("dual dimensions do not complement the block length")
    g_s = g_dual = None
    gram_ok = ns_ok = False
    if verify:
        if ctx is None:
            ctx = field_for_table(table)
        g_s = generator_matrix(family, ctx)
        g_dual = generator_matrix(dual_fam, ctx)
        gram_ok = gram_is_zero(g_s.mat, g_dual.mat, "euclidean")
        ns_ok = row_space_equal(g_dual.mat, nullspace(g_s.mat))
        if not (gram_ok and ns_ok):
            raise VerificationError(
                "euclidean dual family disagrees with the nullspace oracle")
    return DualityReport(family_s=family, family_dual=dual_fam,
                         dual_kind="euclidean", ell=None,
                         dim_s=dim_s, dim_dual=dim_dual,
                         gram_verified=gram_ok, nullspace_verified=ns_ok,
                         matrix_s=g_s, matrix_dual=g_dual)


def hermitian_dual(family: CosetFamily, ctx: Field | None = None,
                   ell: int | None = None, verify: bool = True) -> DualityReport:
    """Hermitian dual family of ``family`` for q = ell^2.

    Beyond the Gram and nullspace checks this also verifies the reduction
    identity: the Hermitian dual equals the Euclidean dual of the
    ell-scaled family, both at the family level and at the code level
    (the entry-wise ell-th power of the primal code spans the code of the
    scaled family).
    """
    _check_even_q(family)
    table = family.table
    if ell is None:
        ell = _integer_sqrt(table.q)
    if ell is None or ell < 2 or ell * ell != table.q:
        raise ValueError(f"hermitian dual requires q = ell^2 with ell >= 2, got q={table.q}")
    dual_fam = hermitian_dual_family(family, ell)
    dim_s, dim_dual = family.dim(), dual_fam.dim()
    if dim_s + dim_dual != table.n + 1:
        raise VerificationError("dual dimensions do not complement the block length")
    scaled = family.scale(ell)
    if dual_fam != euclidean_dual_family(scaled):
        raise VerificationError("hermitian dual does not reduce to the euclidean dual "
                                "of the scaled family")
    g_s = g_dual = None
    gram_ok = ns_ok = False
    if verify:
        if ctx is None:
            ctx = field_for_table(table)
        g_s = generator_matrix(family, ctx)
        g_dual = generator_matrix(dual_fam, ctx)
        gram_ok = gram_is_zero(g_s.mat, g_dual.mat, "hermitian", ell=ell)
        powered = pow_entrywise(g_s.mat, ell)
        ns_ok = row_space_equal(g_dual.mat, nullspace(powered))
        g_scaled = generator_matrix(scaled, ctx)
        code_identity = row_space_equal(powered, g_scaled.mat)
        if not (gram_ok and ns_ok and code_identity):
            raise VerificationError(
                "hermitian dual family disagrees with the nullspace oracle")
    return DualityReport(family_s=family, family_dual=dual_fam,
                         dual_kind="hermitian", ell=ell,
                         dim_s=dim_s, dim_dual=dim_dual,
                         gram_verified=gram_ok, nullspace_verified=ns_ok,
                         matrix_s=g_s, matrix_dual=g_dual)


def _integer_sqrt(q: int) -> int | None:
    r = int(round(q**0.5))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand * cand == q:
            return cand
    return None
