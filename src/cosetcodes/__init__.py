"""Evaluation codes from q-cyclotomic cosets and trace polynomials.

The package builds classical linear codes over F_q by evaluating coset
orbit-sum polynomials at the n-th roots of unity (plus zero) inside
GF(q^m), computes their Euclidean and Hermitian dual families, derives
quantum stabilizer code parameters from Hermitian self-orthogonal
families, searches coset families for the best (dimension, distance)
trade-offs, and certifies minimum distances by exhaustive enumeration.
"""

from .galois import (Field, SubfieldBasis, make_field, nth_root_of_unity,
                     subfield_power_basis)
from .cosets import (Coset, CosetFamily, CosetTable, compute_cosets,
                     euclidean_dual_family, hermitian_dual_family, order_mod)
from .codes import (GeneratorMatrix, classical_params, field_for_table,
                    generator_matrix, load_matrix_json, truncated_family)
from .linalg import (DEFAULT_BUDGET, BudgetExceededError, DistanceCertificate,
                     GFMatrix, gf_matrix, gram_is_zero, min_distance_exhaustive,
                     nullspace, pow_entrywise, rank, rank_and_rref, row_space_equal)
from .duality import DualityReport, VerificationError, euclidean_dual, hermitian_dual
from .quantum import (ComparisonRecord, CompatibilityGraph,
                      NotSelfOrthogonalError, QuantumCodeReport, SearchResult,
                      build_compatibility_graph, certify_dual,
                      compare_with_reference, derive_quantum, search)

__version__ = "0.1.0"

__all__ = [
    "Field", "SubfieldBasis", "make_field", "nth_root_of_unity",
    "subfield_power_basis",
    "Coset", "CosetFamily", "CosetTable", "compute_cosets",
    "euclidean_dual_family", "hermitian_dual_family", "order_mod",
    "GeneratorMatrix", "classical_params", "field_for_table",
    "generator_matrix", "load_matrix_json", "truncated_family",
    "DEFAULT_BUDGET", "BudgetExceededError", "DistanceCertificate", "GFMatrix",
    "gf_matrix", "gram_is_zero", "min_distance_exhaustive",
    "nullspace", "pow_entrywise", "rank", "rank_and_rref",
    "row_space_equal",
    "DualityReport", "VerificationError", "euclidean_dual", "hermitian_dual",
    "ComparisonRecord", "CompatibilityGraph",
    "NotSelfOrthogonalError", "QuantumCodeReport", "SearchResult",
    "build_compatibility_graph", "certify_dual", "compare_with_reference",
    "derive_quantum", "search",
]
