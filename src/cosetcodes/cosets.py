"""q-cyclotomic cosets modulo n and set-level operations on coset families.

The coset of a residue a is its orbit {a*q^i mod n} under multiplication
by q.  Cosets partition Z_n; a :class:`CosetTable` holds the full
partition with cosets ordered (and identified) by minimum representative,
which keeps every downstream output deterministic.

A :class:`CosetFamily` is a selected subset of a table's cosets.  The
family-level operations implemented here are purely combinatorial:
scaling by an integer, member-wise dualization (negation mod n), and the
complement construction that describes the Euclidean dual code of the
evaluation code attached to a family.  The Hermitian dual family is
defined through it, as the Euclidean dual family of the ell-scaled
family (see the ``duality`` module for the code-level verification).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def order_mod(q: int, n: int) -> int:
    """Multiplicative order of q modulo n."""
    if n <= 1:
        raise ValueError("n must be greater than 1")
    if gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    m = 1
    v = q % n
    while v != 1:
        v = (v * q) % n
        m += 1
    return m


@dataclass(frozen=True)
class Coset:
    """One q-cyclotomic coset, stored as its sorted residues."""

    elements: tuple[int, ...]

    @property
    def min_rep(self) -> int:
        return self.elements[0]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def max_elem(self) -> int:
        return self.elements[-1]

    def __contains__(self, residue: int) -> bool:
        return residue in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


@dataclass(frozen=True, eq=False)
class CosetTable:
    """The full partition of Z_n into q-cyclotomic cosets."""

    q: int
    n: int
    m: int
    cosets: tuple[Coset, ...]
    _id_of: tuple[int, ...]   # residue -> coset id
    _dual: tuple[int, ...]    # coset id -> id of the dual coset

    def __len__(self) -> int:
        return len(self.cosets)

    def __iter__(self):
        return iter(self.cosets)

    def coset_of(self, residue: int) -> int:
        return self._id_of[residue % self.n]

    def dual_coset(self, coset_id: int) -> int:
        """Id of the coset containing the negatives mod n of the given coset."""
        return self._dual[coset_id]

    def scaled_coset(self, coset_id: int, ell: int) -> int:
        """Id of the coset containing ell * (any element of the coset)."""
        return self.coset_of(self.cosets[coset_id].min_rep * ell)

    def full_family(self) -> CosetFamily:
        return CosetFamily(self, tuple(range(len(self.cosets))))

    def family(self, residues) -> CosetFamily:
        """Family of the cosets containing the given residues."""
        ids = sorted({self.coset_of(r) for r in residues})
        return CosetFamily(self, tuple(ids))

    def to_json_obj(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "cosets": [list(c.elements) for c in self.cosets],
        }

    def to_text(self) -> str:
        """Plain-text table, three cosets per row."""
        cells = [repr(c) for c in self.cosets]
        width = max(len(s) for s in cells) + 2
        lines = []
        for i in range(0, len(cells), 3):
            lines.append("".join(s.ljust(width) for s in cells[i:i + 3]).rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CosetTable(q={self.q}, n={self.n}, m={self.m}, cosets={len(self.cosets)})"


def compute_cosets(q: int, n: int) -> CosetTable:
    """Partition Z_n into q-cyclotomic cosets (requires gcd(q, n) = 1, n > 1)."""
    m = order_mod(q, n)  # validates the preconditions
    id_of = [-1] * n
    cosets: list[Coset] = []
    for a in range(n):
        if id_of[a] != -1:
            continue
        orbit = []
        x = a
        while id_of[x] == -1:
            id_of[x] = len(cosets)
            orbit.append(x)
            x = (x * q) % n
        cosets.append(Coset(tuple(sorted(orbit))))
    # cosets were discovered in order of their smallest element already
    if sum(c.size for c in cosets) != n:
        raise AssertionError("cosets do not partition Z_n")
    dual = tuple(id_of[(-c.min_rep) % n] for c in cosets)
    return CosetTable(q=q, n=n, m=m, cosets=tuple(cosets),
                      _id_of=tuple(id_of), _dual=dual)


@dataclass(frozen=True, eq=False)
class CosetFamily:
    """A set of cosets from one table, stored as sorted coset ids."""

    table: CosetTable
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = self.members
        if list(ids) != sorted(set(ids)):
            object.__setattr__(self, "members", tuple(sorted(set(ids))))
        if self.members and not (0 <= self.members[0] and self.members[-1] < len(self.table)):
            raise ValueError("coset id outside table")

    def __eq__(self, other) -> bool:
        return (isinstance(other, CosetFamily)
                and self.table is other.table
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.table), self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, coset_id: int) -> bool:
        return coset_id in set(self.members)

    def cosets(self) -> list[Coset]:
        return [self.table.cosets[i] for i in self.members]

    @property
    def contains_zero(self) -> bool:
        return bool(self.members) and self.members[0] == self.table.coset_of(0)

    def reps(self) -> tuple[int, ...]:
        return tuple(self.table.cosets[i].min_rep for i in self.members)

    def dim(self) -> int:
        """Sum of member coset sizes (the dimension of the attached code)."""
        return sum(self.table.cosets[i].size for i in self.members)

    def max_degree(self) -> int:
        """Largest element over all member cosets."""
        if not self.members:
            raise ValueError("empty family has no degree")
        return max(self.table.cosets[i].max_elem for i in self.members)

    def scale(self, ell: int) -> CosetFamily:
        """Replace each member coset by the coset of ell times its elements."""
        return CosetFamily(self.table, tuple(sorted(
            {self.table.scaled_coset(i, ell) for i in self.members})))

    def dual(self) -> CosetFamily:
        """Member-wise dual (negation mod n); an involution."""
        return CosetFamily(self.table, tuple(sorted(
            {self.table.dual_coset(i) for i in self.members})))

    def to_json_obj(self) -> list[list[int]]:
        return [list(c.elements) for c in self.cosets()]

    def __repr__(self) -> str:
        return "CosetFamily[" + ", ".join(repr(c) for c in self.cosets()) + "]"


def euclidean_dual_family(family: CosetFamily) -> CosetFamily:
    """The family describing the Euclidean dual code: {0} plus every coset
    not in the member-wise dual of the input.  Requires {0} in the input."""
    if not family.contains_zero:
        raise ValueError("family must contain the coset {0}")
    table = family.table
    keep = set(range(len(table))) - set(family.dual().members)
    keep.add(table.coset_of(0))
    return CosetFamily(table, tuple(sorted(keep)))


def hermitian_dual_family(family: CosetFamily, ell: int) -> CosetFamily:
    """The family describing the Hermitian dual code: by definition the
    Euclidean dual family of the ell-scaled input, which is {0} plus every
    coset not in the dual of ell*S.  Requires {0} in the input itself: an
    ell sharing a factor with n could scale a nonzero coset onto {0}.
    ``duality.hermitian_dual`` checks the identity on codes."""
    if not family.contains_zero:
        raise ValueError("family must contain the coset {0}")
    return euclidean_dual_family(family.scale(ell))
