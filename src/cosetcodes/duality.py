"""Dual code computation with two independent verification routes.

The dual family of a coset family is a pure coset computation: member-wise
dualization plus complement (see ``cosets``).  The code-level claim, that
the evaluation code of the dual family really is the dual code, is checked
here along the generic linear-algebra route: the Gram matrix between the
two generator matrices must vanish, and the dual family's row space must
equal the nullspace of the primal matrix.  Every dual is verified this
way; a family-only answer is ``cosets.euclidean_dual_family`` or
``cosets.hermitian_dual_family``.  The Euclidean and Hermitian duals share
one verification body.  ``cosets`` computes the Hermitian dual family
from its image map B -> dual(ell*B); the code-level check that it is the
Euclidean dual family of the ell-scaled family raises the primal matrix
to the ell-th power entry-wise and verifies that the result spans the
code of the ell-scaled family.

The table rules live in ``cosets``: ``compute_cosets`` needs q = p^f
for a prime p, ``hermitian_image`` needs q = ell^2 with ell >= 2, and
``check_dualizable`` needs p to divide n+1.  Every table that meets them
is dualized, in odd characteristic too.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ell: int | None         # None for the Euclidean dual
    dim_s: int
    dim_dual: int
    gram_verified: bool
    nullspace_verified: bool
    matrix_s: GeneratorMatrix
    matrix_dual: GeneratorMatrix


def euclidean_dual(family: CosetFamily) -> DualityReport:
    """Euclidean dual family of ``family``, verified at the code level."""
    return _verified_dual(family, euclidean_dual_family(family), None)


def hermitian_dual(family: CosetFamily, ell: int) -> DualityReport:
    """Hermitian dual family of ``family`` for q = ell^2.

    ``cosets`` computes the family from its Hermitian image map, and it
    is the Euclidean dual family of the ell-scaled family.  Beyond the
    Gram and nullspace checks this verifies that reduction at the code
    level: the entry-wise ell-th power of the primal code spans the code
    of the scaled family.
    """
    return _verified_dual(family, hermitian_dual_family(family, ell), ell)


def _verified_dual(family: CosetFamily, dual_fam: CosetFamily,
                   ell: int | None) -> DualityReport:
    """Check ``dual_fam`` against the code of ``family``: Euclidean when
    ``ell`` is None, Hermitian (u_i^ell v_i) otherwise."""
    table = family.table
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
        kind = "euclidean" if ell is None else "hermitian"
        raise VerificationError(f"{kind} dual family disagrees with the nullspace oracle")
    return DualityReport(family_s=family, family_dual=dual_fam, ell=ell,
                         dim_s=dim_s, dim_dual=dim_dual,
                         gram_verified=True, nullspace_verified=True,
                         matrix_s=g_s, matrix_dual=g_dual)
