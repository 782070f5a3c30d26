"""Evaluation codes from q-cyclotomic cosets and trace polynomials.

The package builds classical linear codes over F_q by evaluating coset
orbit-sum polynomials at the n-th roots of unity (plus zero) inside
GF(q^m), computes their Euclidean and Hermitian dual families, derives
quantum stabilizer code parameters from Hermitian self-orthogonal
families, searches coset families for the best (dimension, distance)
trade-offs, and certifies minimum distances by exhaustive enumeration.

The root exports the pipeline's entry points and its three errors (the
README's "Library API" list).  Result types, matrix routines and the
other helpers are imported from their own modules: ``galois``,
``cosets``, ``codes``, ``linalg``, ``duality`` and ``quantum``.
"""

from .galois import make_field
from .cosets import compute_cosets, euclidean_dual_family, hermitian_dual_family
from .codes import classical_params, generator_matrix, load_matrix_json, truncated_family
from .linalg import BudgetExceededError, min_distance_exhaustive
from .duality import VerificationError, euclidean_dual, hermitian_dual
from .quantum import NotSelfOrthogonalError, certify_dual, derive_quantum, search

__version__ = "0.1.0"

__all__ = [
    "make_field", "compute_cosets", "truncated_family", "generator_matrix",
    "classical_params", "load_matrix_json",
    "euclidean_dual_family", "hermitian_dual_family", "euclidean_dual",
    "hermitian_dual", "derive_quantum", "certify_dual", "search",
    "min_distance_exhaustive",
    "BudgetExceededError", "VerificationError", "NotSelfOrthogonalError",
]
