"""Quantum code parameters from Hermitian self-orthogonal coset codes.

A coset family S (containing {0}) over F_q, q = ell^2, yields an ell-ary
quantum code with parameters [[n+1, n+1-2k, >= d]] whenever the attached
code C_S lies inside its Hermitian dual C_T: k is the dimension of C_S
and d is the degree bound n+1 - max_degree(T).  Containment S within T
is equivalent to a purely combinatorial condition: no two chosen nonzero
cosets A, B may satisfy A = dual(ell*B).  One pair scan states that rule
for :func:`derive_quantum` and :meth:`CompatibilityGraph.is_admissible`
alike.  The map B -> dual(ell*B) is an involution (ell^2 = q fixes every
coset), so the conflicts form a matching: each coset's only conflict is
its image, and a coset that is its own image can never be chosen.
:class:`CompatibilityGraph` holds that image map.

The search walks admissible families depth-first with vertices ordered by
the degree their dual image removes (largest first), pruning branches
whose optimistic (quantum_k, d) pair is already dominated, and returns
the exact Pareto frontier.  Every emitted report re-verifies
self-orthogonality both combinatorially and by a Hermitian Gram product
of the generator matrix with itself; disagreement is a hard failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cosets import CosetFamily, CosetTable, hermitian_dual_family
from .codes import field_for_table, generator_matrix
from .duality import VerificationError, check_q
from .galois import Field
from .linalg import (DEFAULT_BUDGET, BudgetExceededError, DistanceCertificate,
                     check_budget, gram_is_zero, min_distance_exhaustive,
                     pow_entrywise)


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
    distance_certificate: DistanceCertificate | None = None

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
        obj = {
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
        if self.distance_certificate is not None:
            obj["distance_certificate"] = self.distance_certificate.as_dict()
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def __repr__(self) -> str:
        return (f"[[{self.block_length},{self.quantum_k},>={self.d_lower}]]_"
                f"{self.ell} from S reps {list(self.family_s.reps())}")


def _self_orthogonality_violations(family: CosetFamily, ell: int) -> list[tuple[int, int]]:
    """Pairs (a, b) of member reps with S_a = dual(ell * S_b)."""
    table = family.table
    zero_id = table.coset_of(0)
    members = set(family.members)
    out = []
    for b in family.members:
        if b == zero_id:
            continue
        img = table.dual_coset(table.scaled_coset(b, ell))
        if img in members and img != zero_id:
            out.append((table.cosets[img].min_rep, table.cosets[b].min_rep))
    return sorted(out)


def derive_quantum(family: CosetFamily, ell: int, verify_gram: bool = True,
                   require_self_orthogonal: bool = True, certify: bool = False,
                   budget: int = DEFAULT_BUDGET, jobs: int = 1) -> QuantumCodeReport:
    """Derive the [[n+1, n+1-2k, >= d]] parameters for a coset family.

    Containment of the family in its Hermitian dual family is checked
    combinatorially and, when ``verify_gram`` is set, also by the
    Hermitian Gram product of the generator matrix with itself; any
    disagreement between the two routes raises.  Families that fail
    self-orthogonality raise :class:`NotSelfOrthogonalError` unless
    ``require_self_orthogonal`` is false, in which case a report with
    ``self_orthogonal=False`` is returned for inspection.

    With ``certify`` set, an exhaustive distance certificate for the dual
    code C_T is attached unless :func:`~cosetcodes.linalg.check_budget`
    refuses its q^dim(C_T) - 1 codewords; the report then stays
    bound-only.
    """
    table = family.table
    check_q(table.q, ell)
    t_family = hermitian_dual_family(family, ell)
    violations = _self_orthogonality_violations(family, ell)
    self_orthogonal = not violations
    contained = set(family.members) <= set(t_family.members)
    if contained != self_orthogonal:
        raise VerificationError("containment check disagrees with pair scan")
    if not self_orthogonal and require_self_orthogonal:
        raise NotSelfOrthogonalError(violations)
    if verify_gram:
        g_s = generator_matrix(family)
        gram_zero = gram_is_zero(pow_entrywise(g_s.mat, ell), g_s.mat)
        if gram_zero != self_orthogonal:
            raise VerificationError(
                "Hermitian Gram disagrees with the combinatorial containment")
    k = family.dim()
    quantum_k = table.n + 1 - 2 * k
    if self_orthogonal and quantum_k < 0:
        raise VerificationError("self-orthogonal family with negative quantum dimension")
    d_lower = table.n + 1 - t_family.max_degree()
    certificate = None
    if certify and self_orthogonal:
        try:
            check_budget(table.q, t_family.dim(), budget)
        except BudgetExceededError:
            pass  # the report stays bound-only
        else:
            g_t = generator_matrix(t_family)
            certificate = min_distance_exhaustive(g_t.mat, budget=budget, jobs=jobs)
    return QuantumCodeReport(ell=ell, family_s=family, t_family=t_family,
                             classical_k=k, quantum_k=quantum_k, d_lower=d_lower,
                             self_orthogonal=self_orthogonal,
                             parent=field_for_table(table),
                             distance_certificate=certificate)


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
    ell: int
    vertices: tuple[int, ...]      # choosable nonzero coset ids
    excluded: tuple[int, ...]      # self-loop ids, never choosable
    image: tuple[int, ...]         # full map: coset id -> dual(ell * coset) id

    def is_admissible(self, coset_ids) -> bool:
        family = CosetFamily(self.table, (self.table.coset_of(0), *coset_ids))
        return not _self_orthogonality_violations(family, self.ell)


def build_compatibility_graph(table: CosetTable, ell: int) -> CompatibilityGraph:
    check_q(table.q, ell)
    zero_id = table.coset_of(0)
    image = tuple(table.dual_coset(table.scaled_coset(i, ell)) for i in range(len(table)))
    nonzero = [i for i in range(len(table)) if i != zero_id]
    return CompatibilityGraph(table=table, ell=ell,
                              vertices=tuple(i for i in nonzero if image[i] != i),
                              excluded=tuple(i for i in nonzero if image[i] == i),
                              image=image)


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
           node_budget: int = 1_000_000, verify: bool = True) -> SearchResult:
    """Enumerate admissible families and return the (quantum_k, d) frontier.

    Vertices are processed in descending order of the degree their dual
    image removes from the dual family, so the first depth-first dive
    already walks the chain of minimal window covers; dominated branches
    are pruned against the growing frontier, which keeps the search exact
    and fast.  ``min_quantum_k`` floors the dimension (prunes deep
    inclusions), ``node_budget`` caps the traversal (a partial frontier
    is returned flagged as incomplete).

    Objectives: ``pareto`` returns the full frontier; ``max_d_given_k``
    returns the best-distance report with quantum_k >= target;
    ``max_k_given_d`` the best-dimension report with d >= target.
    """
    if objective not in ("pareto", "max_d_given_k", "max_k_given_d"):
        raise ValueError(f"unknown objective {objective!r}")
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
        report = derive_quantum(family, ell, verify_gram=verify)
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


@dataclass(frozen=True)
class ComparisonRecord:
    """Dimension and length deltas against one reference triple (same d)."""

    ours: tuple[int, int, int]
    reference: tuple[int, int, int]
    delta_k: int
    delta_n: int

    def as_dict(self) -> dict:
        return {"ours": list(self.ours), "reference": list(self.reference),
                "delta_k": self.delta_k, "delta_n": self.delta_n}


def compare_with_reference(report: QuantumCodeReport,
                           reference: tuple[tuple[int, int, int], ...]
                           ) -> list[ComparisonRecord]:
    """Compare a report against every same-distance triple in a reference table."""
    ours = report.triple()
    out = []
    for ref in reference:
        if ref[2] == report.d_lower:
            out.append(ComparisonRecord(ours=ours, reference=ref,
                                        delta_k=report.quantum_k - ref[1],
                                        delta_n=report.block_length - ref[0]))
    return out
