"""Quantum code parameters from Hermitian self-orthogonal coset codes.

A coset family S (containing {0}) over F_q, q = ell^2, yields an ell-ary
quantum code with parameters [[n+1, n+1-2k, >= d]] whenever the attached
code C_S lies inside its Hermitian dual C_T: k is the dimension of C_S
and d is the degree bound n+1 - max_degree(T).  Containment S within T
is equivalent to a purely combinatorial condition: no two chosen nonzero
cosets A, B may satisfy A = dual(ell*B).  The map B -> dual(ell*B) and
its rule q = ell^2 are :func:`~cosetcodes.cosets.hermitian_image`; the
pair scan of :func:`derive_quantum` and
:meth:`CompatibilityGraph.is_admissible` reads that map, and
:func:`derive_quantum` checks the scan against containment in T.  The map
is an involution, so the conflicts form a matching: each coset's only
conflict is its image, and a coset that is its own image can never be
chosen.  :class:`CompatibilityGraph` holds that image map.

Derivation never enumerates codewords.  :func:`certify_dual` is the
separate step that certifies d(C_T) exhaustively, for any report: C_T is
a code whether or not S is self-orthogonal.

The search walks admissible families depth-first with vertices ordered by
the degree their dual image removes (largest first), pruning branches
whose optimistic (quantum_k, d) pair is already dominated, and returns
the exact Pareto frontier.  Every emitted report re-verifies
self-orthogonality both combinatorially and by a Hermitian Gram product
of the generator matrix with itself; disagreement is a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import (CosetFamily, CosetTable, check_dualizable, hermitian_dual_family,
                     hermitian_image)
from .codes import field_for_table, generator_matrix
from .duality import VerificationError
from .galois import Field
from .linalg import (DEFAULT_BUDGET, DistanceCertificate, check_budget,
                     gram_is_zero, min_distance_exhaustive, pow_entrywise)


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
    """Derived quantum code parameters plus the self-orthogonality witness."""

    ell: int
    family_s: CosetFamily
    t_family: CosetFamily
    classical_k: int
    quantum_k: int
    d_lower: int
    self_orthogonal: bool
    parent: Field

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


def derive_quantum(family: CosetFamily, ell: int,
                   require_self_orthogonal: bool = True) -> QuantumCodeReport:
    """Derive the [[n+1, n+1-2k, >= d]] parameters for a coset family.

    Containment of the family in its Hermitian dual family is checked
    combinatorially and by the Hermitian Gram product of the generator
    matrix with itself; any disagreement between the two routes raises.
    Families that fail self-orthogonality raise
    :class:`NotSelfOrthogonalError` unless ``require_self_orthogonal`` is
    false, in which case a report with ``self_orthogonal=False`` is
    returned for inspection.
    """
    table = family.table
    t_family = hermitian_dual_family(family, ell)
    violations = _self_orthogonality_violations(family, hermitian_image(table, ell))
    self_orthogonal = not violations
    contained = set(family.members) <= set(t_family.members)
    if contained != self_orthogonal:
        raise VerificationError("containment check disagrees with pair scan")
    if not self_orthogonal and require_self_orthogonal:
        raise NotSelfOrthogonalError(violations)
    g_s = generator_matrix(family)
    if gram_is_zero(pow_entrywise(g_s.mat, ell), g_s.mat) != self_orthogonal:
        raise VerificationError(
            "Hermitian Gram disagrees with the combinatorial containment")
    k = family.dim()
    quantum_k = table.n + 1 - 2 * k
    if self_orthogonal and quantum_k < 0:
        raise VerificationError("self-orthogonal family with negative quantum dimension")
    d_lower = table.n + 1 - t_family.max_degree()
    return QuantumCodeReport(ell=ell, family_s=family, t_family=t_family,
                             classical_k=k, quantum_k=quantum_k, d_lower=d_lower,
                             self_orthogonal=self_orthogonal,
                             parent=field_for_table(table))


def certify_dual(report: QuantumCodeReport,
                 budget: int = DEFAULT_BUDGET) -> DistanceCertificate:
    """Certify the minimum distance of the report's dual code C_T exhaustively.

    The budget is checked on q^dim(C_T) - 1 codewords before C_T's
    generator matrix is built; a refusal raises
    :class:`~cosetcodes.linalg.BudgetExceededError`, whose message names
    the limit.  A report made with ``require_self_orthogonal=False`` is
    certified too: C_T is a code either way.
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


def build_compatibility_graph(table: CosetTable, ell: int) -> CompatibilityGraph:
    image = hermitian_image(table, ell)
    check_dualizable(table)
    zero_id = table.coset_of(0)
    nonzero = [i for i in range(len(table)) if i != zero_id]
    return CompatibilityGraph(table=table,
                              vertices=tuple(i for i in nonzero if image[i] != i),
                              excluded=tuple(i for i in nonzero if image[i] == i),
                              image=image)


OBJECTIVES = ("pareto", "max_d_given_k", "max_k_given_d")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Frontier search outcome; ``complete`` is false when the node budget ran out."""

    reports: tuple[QuantumCodeReport, ...]
    complete: bool
    nodes: int
    objective: str

    def frontier(self) -> list[tuple[int, int]]:
        return [(r.quantum_k, r.d_lower) for r in self.reports]


def search(table: CosetTable, ell: int, objective: str = "pareto",
           target: int | None = None, min_quantum_k: int = 0,
           node_budget: int = 1_000_000) -> SearchResult:
    """Enumerate admissible families and return the (quantum_k, d) frontier.

    Vertices are processed in descending order of the degree their dual
    image removes from the dual family, so the first depth-first dive
    already walks the chain of minimal window covers; dominated branches
    are pruned against the growing frontier, which keeps the search exact
    and fast.  ``min_quantum_k`` floors the dimension (prunes deep
    inclusions), ``node_budget`` caps the traversal (a partial frontier
    is returned flagged as incomplete).

    Objectives (:data:`OBJECTIVES`): ``pareto`` returns the full frontier
    and takes no target; ``max_d_given_k`` returns the best-distance report
    with quantum_k >= target; ``max_k_given_d`` the best-dimension report
    with d >= target.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "pareto" and target is not None:
        raise ValueError("objective 'pareto' takes no target")
    if objective != "pareto" and target is None:
        raise ValueError(f"objective {objective!r} requires a target")
    graph = build_compatibility_graph(table, ell)
    n = table.n
    zero_id = table.coset_of(0)
    w = {v: table.cosets[graph.image[v]].max_elem for v in graph.vertices}
    order = sorted(graph.vertices, key=lambda v: -w[v])
    sizes = [table.cosets[v].size for v in order]
    floor = max(0, min_quantum_k)

    # images of self-loop cosets can never be covered: hard distance cap
    base_skip = max((table.cosets[graph.image[v]].max_elem for v in graph.excluded),
                    default=0)

    frontier: list[tuple[int, int, tuple[int, ...]]] = []  # (qk, d, chosen ids)

    def dominated(qk: int, d: int) -> bool:
        return any(fq >= qk and fd >= d for fq, fd, _ in frontier)

    def emit(qk: int, d: int, chosen: tuple[int, ...]) -> None:
        if dominated(qk, d):
            return
        frontier[:] = [(fq, fd, fam) for fq, fd, fam in frontier
                       if not (qk >= fq and d >= fd)]
        frontier.append((qk, d, chosen))

    # depth-first on an explicit stack: the skip branch is pushed first, so
    # the include branch is explored first
    nodes, complete = 0, True
    stack = [(0, (), 1, base_skip)]
    while stack:
        if nodes >= node_budget:
            complete = False
            break
        idx, chosen, k_now, skip_max = stack.pop()
        nodes += 1
        qk_now = n + 1 - 2 * k_now
        if qk_now < floor:
            continue
        if idx < len(order):
            d_here = n + 1 - max(skip_max, w[order[idx]])
        else:
            d_here = n + 1 - skip_max
        emit(qk_now, d_here, chosen)
        if idx == len(order):
            continue
        if dominated(qk_now, n + 1 - skip_max):
            continue
        v = order[idx]
        stack.append((idx + 1, chosen, k_now, max(skip_max, w[v])))
        # the matching leaves image[v] as v's only conflict
        if graph.image[v] not in chosen:
            stack.append((idx + 1, chosen + (v,), k_now + sizes[idx], skip_max))

    frontier.sort(key=lambda t: -t[0])
    reports = []
    for qk, d, chosen in frontier:
        family = CosetFamily(table, tuple(sorted((zero_id,) + chosen)))
        report = derive_quantum(family, ell)
        if (report.quantum_k, report.d_lower) != (qk, d):
            raise VerificationError("frontier bookkeeping disagrees with derivation")
        reports.append(report)

    if objective == "max_d_given_k":
        eligible = [r for r in reports if r.quantum_k >= target]
        reports = [max(eligible, key=lambda r: (r.d_lower, r.quantum_k))] if eligible else []
    elif objective == "max_k_given_d":
        eligible = [r for r in reports if r.d_lower >= target]
        reports = [max(eligible, key=lambda r: (r.quantum_k, r.d_lower))] if eligible else []
    return SearchResult(reports=tuple(reports), complete=complete,
                        nodes=nodes, objective=objective)

