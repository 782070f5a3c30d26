"""Dual code computation with two independent verification routes.

The dual family of a coset family is a pure coset computation: member-wise
dualization plus complement (see ``cosets``).  The code-level claim, that
the evaluation code of the dual family really is the dual code, is checked
here along the generic linear-algebra route: the Gram matrix between the
two generator matrices must vanish, and the dual family's row space must
equal the nullspace of the primal matrix.  Every dual is verified this
way; a family-only answer is ``cosets.euclidean_dual_family`` or
``cosets.hermitian_dual_family``.  The Euclidean and Hermitian duals share
one verification body.  ``cosets`` defines the Hermitian dual family as
the Euclidean dual family of the ell-scaled family; the code-level check
of that identity raises the primal matrix to the ell-th power entry-wise
and verifies that the result spans the code of the ell-scaled family.

Duality is only provided for even q; n is then odd and the block length
n+1 even.  Odd characteristic is rejected rather than extrapolated, and
:func:`check_q` is the one place that rule is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cosets import CosetFamily, euclidean_dual_family, hermitian_dual_family
from .codes import GeneratorMatrix, generator_matrix
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
    matrix_s: GeneratorMatrix
    matrix_dual: GeneratorMatrix

    def to_json_obj(self) -> dict:
        return {
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
            "field": self.matrix_s.parent.describe(),
        }


def check_q(q: int, ell: int | None = None) -> None:
    """Reject fields outside the dual and quantum constructions: odd q,
    and, when ``ell`` is given, any ell other than q = ell^2 with ell >= 2."""
    if ell is not None and (ell < 2 or ell * ell != q):
        raise ValueError(f"need q = ell^2 with ell >= 2; got q={q}, ell={ell}")
    if q % 2:
        raise ValueError("dual and quantum constructions are only supported for even q")


def euclidean_dual(family: CosetFamily) -> DualityReport:
    """Euclidean dual family of ``family``, verified at the code level."""
    check_q(family.table.q)
    return _verified_dual(family, euclidean_dual_family(family), None)


def hermitian_dual(family: CosetFamily, ell: int | None = None) -> DualityReport:
    """Hermitian dual family of ``family`` for q = ell^2 (ell inferred when omitted).

    The family is the Euclidean dual family of the ell-scaled family, by
    its definition in ``cosets``.  Beyond the Gram and nullspace checks
    this verifies that reduction identity at the code level: the
    entry-wise ell-th power of the primal code spans the code of the
    scaled family.
    """
    q = family.table.q
    ell = isqrt(q) if ell is None else ell
    check_q(q, ell)
    return _verified_dual(family, hermitian_dual_family(family, ell), ell)


def _verified_dual(family: CosetFamily, dual_fam: CosetFamily,
                   ell: int | None) -> DualityReport:
    """Check ``dual_fam`` against the code of ``family``: Euclidean when
    ``ell`` is None, Hermitian (u_i^ell v_i) otherwise."""
    table = family.table
    kind = "euclidean" if ell is None else "hermitian"
    dim_s, dim_dual = family.dim(), dual_fam.dim()
    if dim_s + dim_dual != table.n + 1:
        raise VerificationError("dual dimensions do not complement the block length")
    g_s = generator_matrix(family)
    g_dual = generator_matrix(dual_fam)
    primal = g_s.mat
    if ell is not None:
        primal = pow_entrywise(primal, ell)
        if not row_space_equal(primal, generator_matrix(family.scale(ell)).mat):
            raise VerificationError("the ell-th powers of C_S do not span the code "
                                    "of the scaled family")
    if not (gram_is_zero(primal, g_dual.mat)
            and row_space_equal(g_dual.mat, nullspace(primal))):
        raise VerificationError(f"{kind} dual family disagrees with the nullspace oracle")
    return DualityReport(family_s=family, family_dual=dual_fam, dual_kind=kind, ell=ell,
                         dim_s=dim_s, dim_dual=dim_dual,
                         gram_verified=True, nullspace_verified=True,
                         matrix_s=g_s, matrix_dual=g_dual)
