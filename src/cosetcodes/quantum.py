"""Quantum code parameters from Hermitian self-orthogonal coset codes.

A coset family S (containing {0}) over F_q, q = ell^2, yields an ell-ary
quantum code with parameters [[n+1, n+1-2k, >= d]] whenever the attached
code C_S lies inside its Hermitian dual C_T: k is the dimension of C_S
and d is the degree bound n+1 - max_degree(T).  Containment S within T
is equivalent to a purely combinatorial condition: no two chosen nonzero
cosets A, B may satisfy A = dual(ell*B).  The map B -> dual(ell*B) and
its rule q = ell^2 are :func:`~cosetcodes.cosets.hermitian_image`, and
q fixes ell, so every function here reads ell from the coset table; the
pair scan of :func:`derive_quantum` and
:meth:`CompatibilityGraph.is_admissible` reads that map, and
:func:`derive_quantum` checks the scan against containment in T.  The map
is an involution, so the conflicts form a matching: each coset's only
conflict is its image, and a coset that is its own image can never be
chosen.  :class:`CompatibilityGraph` holds that image map.

Derivation never enumerates codewords.  :func:`certify_dual` is the
separate step that certifies d(C_T) exhaustively.  Every report is of a
self-orthogonal family: :func:`derive_quantum` raises on any other.

Over that matching the Pareto frontier is a chain: :func:`search` sorts
the matched pairs by their higher-degree end and walks the prefixes of
that list once, with no tree and no budget.  It returns the stretch of
the chain between two floors, one on quantum_k and one on d.  Every
emitted report re-verifies self-orthogonality both combinatorially and
by the Hermitian Gram product of a generator matrix with itself;
disagreement is a hard failure.  The prefixes are nested and a coset's
rows do not depend on the family, so one generator matrix, that of the
last returned prefix, serves the whole stretch: its rank check covers
every row subset, and its Gram product, once zero, is zero on every row
subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import (CosetFamily, CosetTable, check_dualizable, check_hermitian,
                     hermitian_dual_family, hermitian_image)
from .codes import field_for_table, generator_matrix
from .duality import VerificationError
from .galois import Field
from .linalg import (DEFAULT_BUDGET, DistanceCertificate, check_budget, gram_is_zero,
                     min_distance_exhaustive, pow_entrywise)


class NotSelfOrthogonalError(ValueError):
    """The family's code is not contained in its Hermitian dual."""

    def __init__(self, violations: list[tuple[int, int]]):
        self.violations = violations
        pairs = ", ".join(f"(S_{a}, S_{b})" for a, b in violations)
        super().__init__(
            f"family is not Hermitian self-orthogonal; violated pair(s): {pairs} "
            f"(each S_a in the family equals the dual of ell times S_b)")


@dataclass(frozen=True, eq=False)
class QuantumCodeReport:
    """Derived quantum code parameters plus the self-orthogonality witness.

    ``self_orthogonal`` is always true, since a family that is not
    self-orthogonal raises before a report is made.  It stays because the
    JSON export, the golden digests, the bundled fixtures and the
    benchmark read it.
    """

    family_s: CosetFamily
    t_family: CosetFamily
    classical_k: int
    quantum_k: int
    d_lower: int
    self_orthogonal: bool
    parent: Field

    @property
    def ell(self) -> int:
        return self.family_s.table.ell

    @property
    def q(self) -> int:
        return self.family_s.table.q

    @property
    def n(self) -> int:
        return self.family_s.table.n

    @property
    def block_length(self) -> int:
        return self.n + 1

    def triple(self) -> tuple[int, int, int]:
        return (self.block_length, self.quantum_k, self.d_lower)

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell,
            "q": self.q,
            "n": self.n,
            "block_length": self.block_length,
            "S": self.family_s.to_json_obj(),
            "T": self.t_family.to_json_obj(),
            "classical_k": self.classical_k,
            "quantum_k": self.quantum_k,
            "d_lower": self.d_lower,
            "self_orthogonal": self.self_orthogonal,
            "field": self.parent.describe(),
        }

    def __repr__(self) -> str:
        return (f"[[{self.block_length},{self.quantum_k},>={self.d_lower}]]_"
                f"{self.ell} from S reps {list(self.family_s.reps())}")


def _self_orthogonality_violations(family: CosetFamily,
                                   image: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs (a, b) of nonzero member reps with S_a = image(S_b) = dual(ell * S_b)."""
    table = family.table
    zero_id = table.coset_of(0)
    members = set(family.members)
    return sorted((table.cosets[image[b]].min_rep, table.cosets[b].min_rep)
                  for b in family.members if b != zero_id and image[b] in members)


def _check_gram(family: CosetFamily) -> None:
    """Raise unless the Hermitian Gram product G^(ell) G^T of the family's
    generator matrix is zero.

    A zero product is zero on every row subset, so a check that passes
    for a self-orthogonal family also proves each of its subfamilies.
    """
    g = generator_matrix(family).mat
    if not gram_is_zero(pow_entrywise(g, family.table.ell), g):
        raise VerificationError(
            "Hermitian Gram disagrees with the combinatorial containment")


def derive_quantum(family: CosetFamily) -> QuantumCodeReport:
    """Derive the [[n+1, n+1-2k, >= d]] parameters for a coset family.

    Containment of the family in its Hermitian dual family is checked
    combinatorially and by the Hermitian Gram product of the generator
    matrix with itself; any disagreement between the routes raises.
    Families that fail self-orthogonality raise
    :class:`NotSelfOrthogonalError` before any matrix is built.
    """
    report = _derive(family)
    _check_gram(family)
    return report


def _derive(family: CosetFamily) -> QuantumCodeReport:
    """The combinatorial derivation of :func:`derive_quantum` and
    :func:`search`: the pair scan, checked against containment in T."""
    table = family.table
    t_family = hermitian_dual_family(family)
    violations = _self_orthogonality_violations(family, hermitian_image(table))
    self_orthogonal = not violations
    if (set(family.members) <= set(t_family.members)) != self_orthogonal:
        raise VerificationError("containment check disagrees with pair scan")
    if not self_orthogonal:
        raise NotSelfOrthogonalError(violations)
    k = family.dim()
    quantum_k = table.n + 1 - 2 * k
    if quantum_k < 0:
        raise VerificationError("self-orthogonal family with negative quantum dimension")
    d_lower = table.n + 1 - t_family.max_degree()
    return QuantumCodeReport(family_s=family, t_family=t_family,
                             classical_k=k, quantum_k=quantum_k, d_lower=d_lower,
                             self_orthogonal=True, parent=field_for_table(table))


def certify_dual(report: QuantumCodeReport,
                 budget: int = DEFAULT_BUDGET) -> DistanceCertificate:
    """Certify the minimum distance of the report's dual code C_T exhaustively.

    The budget is checked on q^dim(C_T) - 1 codewords before C_T's
    generator matrix is built; a refusal raises
    :class:`~cosetcodes.linalg.BudgetExceededError`, whose message names
    the limit.
    """
    check_budget(report.q, report.t_family.dim(), budget)
    return min_distance_exhaustive(generator_matrix(report.t_family).mat, budget=budget)


# ---------------------------------------------------------------------------
# Compatibility graph and frontier search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompatibilityGraph:
    """Conflict graph over nonzero cosets for the containment condition.

    A and B conflict when A = dual(ell*B).  That map is an involution, so
    the graph is the matching v -- image[v] plus the self-loops image[v] =
    v; a family {0} + I is admissible iff I avoids the self-loop vertices
    and never holds both ends of a matching edge.
    """

    table: CosetTable
    vertices: tuple[int, ...]      # choosable nonzero coset ids
    excluded: tuple[int, ...]      # self-loop ids, never choosable
    image: tuple[int, ...]         # cosets.hermitian_image of the table

    def is_admissible(self, coset_ids) -> bool:
        family = CosetFamily(self.table, (self.table.coset_of(0), *coset_ids))
        return not _self_orthogonality_violations(family, self.image)


def build_compatibility_graph(table: CosetTable,
                              ell: int | None = None) -> CompatibilityGraph:
    """The conflict matching of the table; a given ``ell`` must be the
    table's (``cosets.check_hermitian``)."""
    check_hermitian(table.q, ell)
    image = hermitian_image(table)
    check_dualizable(table)
    zero_id = table.coset_of(0)
    nonzero = [i for i in range(len(table)) if i != zero_id]
    return CompatibilityGraph(table=table,
                              vertices=tuple(i for i in nonzero if image[i] != i),
                              excluded=tuple(i for i in nonzero if image[i] == i),
                              image=image)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Frontier search outcome: the reports of the chain between the floors.

    ``nodes`` counts the prefixes the walk weighed, so it equals
    ``len(reports)`` when ``min_d`` drops none of them.  ``complete`` is
    always true, since the walk is exact.  Both, and the positional
    ``ell`` of :func:`search`, stay only until the benchmark stops reading
    them (ROADMAP item 1a).
    """

    reports: tuple[QuantumCodeReport, ...]
    complete: bool
    nodes: int

    def frontier(self) -> list[tuple[int, int]]:
        return [(r.quantum_k, r.d_lower) for r in self.reports]


def search(table: CosetTable, ell: int | None = None, min_quantum_k: int = 0,
           min_d: int = 0) -> SearchResult:
    """Return the (quantum_k, d) frontier of the admissible families
    whose quantum_k is at least ``min_quantum_k`` and whose d is at least
    ``min_d``.

    The frontier is one sorted walk over the matched pairs of
    :class:`CompatibilityGraph`, and it is exact:

    - The two ends of a matched pair are cosets of one size, because
      x -> -ell*x is a unit of Z_n that commutes with x -> q*x.
    - Choosing one end drops the other end from T and keeps the chosen
      one, so only the end of lower degree is ever worth choosing.
    - A family's d is n+1 minus the largest degree left in T: the largest
      of the self-paired cosets (``graph.excluded``), the chosen ends and
      the higher ends of the unchosen pairs.
    - So for each target d, the smallest family chooses exactly the pairs
      whose higher end exceeds n+1-d.
    - With the pairs sorted by their higher end, descending, the
      candidates are the prefixes of that list.  Along the prefixes
      quantum_k strictly falls and d strictly rises, until the next
      pair's higher end is no longer above the largest degree T keeps;
      from there on d cannot rise.

    The frontier is that chain of prefixes, and the two floors cut it to
    one stretch: the walk stops at the ``min_quantum_k`` floor or at the
    first prefix where d can no longer rise, and ``min_d`` drops the head
    of the chain below it.  So the first report at ``min_d=t`` has the
    largest quantum_k with d >= t, and the last report at
    ``min_quantum_k=t`` the largest d with quantum_k >= t.

    Each returned prefix is derived as :func:`derive_quantum` derives it,
    but all of them are verified from one generator matrix, that of the
    last prefix, and one Hermitian Gram product of it: every prefix is a
    row subset of that matrix, so a zero product proves them all.  An
    empty result builds no matrix.

    ell is the table's; a given ``ell`` must be that one
    (``cosets.check_hermitian``).
    """
    graph = build_compatibility_graph(table, ell)
    n = table.n
    zero_id = table.coset_of(0)
    deg = table.degrees
    # each matched pair once, as (lower end, higher end)
    pairs = sorted(((v, graph.image[v]) for v in graph.vertices
                    if deg[v] < deg[graph.image[v]]), key=lambda pair: -deg[pair[1]])
    floor = max(0, min_quantum_k)
    chosen, k = [zero_id], 1
    kept = max((deg[v] for v in graph.excluded), default=0)
    chain = []  # (quantum_k, d, chosen ids) per prefix
    # the zero coset (degree 0) closes the list: the prefix of all pairs
    for low, high in [*pairs, (None, zero_id)]:
        qk = n + 1 - 2 * k
        if qk < floor:
            break
        chain.append((qk, n + 1 - max(kept, deg[high]), tuple(chosen)))
        if deg[high] <= kept:
            break
        chosen.append(low)
        k += table.sizes[low]
        kept = max(kept, deg[low])
    walked = len(chain)
    # d rises along the chain, so the min_d floor drops its head
    chain = [link for link in chain if link[1] >= min_d]

    # the prefixes are nested, so the last one's zero Gram proves every prefix's
    if chain:
        _check_gram(CosetFamily(table, chain[-1][2]))
    reports = []
    for qk, d, ids in chain:
        report = _derive(CosetFamily(table, ids))
        if (report.quantum_k, report.d_lower) != (qk, d):
            raise VerificationError("frontier bookkeeping disagrees with derivation")
        reports.append(report)
    return SearchResult(reports=tuple(reports), complete=True, nodes=walked)
