"""q-cyclotomic cosets modulo n and set-level operations on coset families.

The coset of a residue a is its orbit {a*q^i mod n} under multiplication
by q.  Cosets partition Z_n; a :class:`CosetTable` holds the full
partition with cosets ordered (and identified) by minimum representative,
which keeps every downstream output deterministic.  Its ``degrees`` and
``sizes`` give each coset's largest element and size by id, derived from
the cosets on first read; family dimensions, degree bounds and the
frontier walk read them.

A :class:`CosetFamily` is a selected subset of a table's cosets.  The
family-level operations implemented here are purely combinatorial:
scaling by an integer, member-wise dualization (negation mod n), and the
complement construction: {0} plus every coset outside the family's image
describes the dual code.  The Euclidean image is negation; the Hermitian
one, B -> dual(ell*B) for q = ell^2, is :func:`hermitian_image` (see the
``duality`` module for the code-level verification).  q fixes ell: the
table keeps it as :attr:`CosetTable.ell`, and :func:`check_hermitian`
is the one check of the rule q = ell^2.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

from .galois import prime_power_base


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

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


@dataclass(frozen=True, eq=False)
class CosetTable:
    """The full partition of Z_n into q-cyclotomic cosets."""

    q: int
    n: int
    m: int
    ell: int | None           # the ell with q = ell^2, None when q is not a square
    cosets: tuple[Coset, ...]
    _id_of: tuple[int, ...]   # residue -> coset id
    _dual: tuple[int, ...]    # coset id -> id of the dual coset
    _hermitian: tuple[int, ...] | None  # hermitian_image, when q = ell^2

    def __len__(self) -> int:
        return len(self.cosets)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Coset id -> largest element, the degree of the coset's orbit sums."""
        return tuple(c.max_elem for c in self.cosets)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Coset id -> size, the number of rows the coset contributes."""
        return tuple(c.size for c in self.cosets)

    def coset_of(self, residue: int) -> int:
        """Id of the coset containing residue mod n (``scaled_coset`` relies on the mod)."""
        return self._id_of[residue % self.n]

    def scaled_coset(self, coset_id: int, factor: int) -> int:
        """Id of the coset containing factor * (any element of the coset)."""
        return self.coset_of(self.cosets[coset_id].min_rep * factor)

    def family(self, residues) -> CosetFamily:
        """Family of the cosets containing the given residues, each in 0..n-1."""
        ids = set()
        for r in residues:
            if not 0 <= r < self.n:
                raise ValueError(f"residue {r} is outside 0..{self.n - 1}")
            ids.add(self._id_of[r])
        return CosetFamily(self, ids)

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
    """Partition Z_n into q-cyclotomic cosets (requires a prime power q,
    gcd(q, n) = 1 and n > 1)."""
    if prime_power_base(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    m = order_mod(q, n)  # validates the other preconditions
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
    ell = isqrt(q)
    if ell * ell != q:
        ell = None  # F_q has no Hermitian form
    hermitian = tuple(id_of[-c.min_rep * ell % n] for c in cosets) if ell else None
    return CosetTable(q=q, n=n, m=m, ell=ell, cosets=tuple(cosets),
                      _id_of=tuple(id_of), _dual=dual, _hermitian=hermitian)


@dataclass(frozen=True, eq=False)
class CosetFamily:
    """A set of cosets from one table, given as any iterable of coset ids
    and stored as their sorted tuple: the one place ids are ordered."""

    table: CosetTable
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
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
        i = bisect_left(self.members, coset_id)
        return i < len(self.members) and self.members[i] == coset_id

    def cosets(self) -> list[Coset]:
        return [self.table.cosets[i] for i in self.members]

    @property
    def contains_zero(self) -> bool:
        return bool(self.members) and self.members[0] == self.table.coset_of(0)

    def reps(self) -> tuple[int, ...]:
        return tuple(self.table.cosets[i].min_rep for i in self.members)

    def dim(self) -> int:
        """Sum of member coset sizes (the dimension of the attached code)."""
        return sum(map(self.table.sizes.__getitem__, self.members))

    def max_degree(self) -> int:
        """Largest element over all member cosets."""
        if not self.members:
            raise ValueError("empty family has no degree")
        return max(map(self.table.degrees.__getitem__, self.members))

    def scale(self, factor: int) -> CosetFamily:
        """Replace each member coset by the coset of factor times its elements."""
        return CosetFamily(self.table, {self.table.scaled_coset(i, factor)
                                        for i in self.members})

    def to_json_obj(self) -> list[list[int]]:
        return [list(c.elements) for c in self.cosets()]

    def __repr__(self) -> str:
        return "CosetFamily[" + ", ".join(repr(c) for c in self.cosets()) + "]"


def check_hermitian(q: int, ell: int | None = None) -> int:
    """Return the ell >= 2 with q = ell^2, which names the Hermitian form
    over F_q, or raise ValueError: the one check of that rule.  It reads q
    alone, so the CLI refuses before it builds a table.  A given ``ell``
    must be that one: ``quantum.search``, ``quantum.build_compatibility_graph``
    and ``duality.hermitian_dual`` still accept one, which perfbench passes."""
    root = isqrt(max(q, 0))
    if root < 2 or root * root != q or ell not in (None, root):
        given = "" if ell is None else f", ell={ell}"
        raise ValueError(f"the Hermitian form needs q = ell^2 with ell >= 2; got q={q}{given}")
    return root


def hermitian_image(table: CosetTable) -> tuple[int, ...]:
    """Coset id -> id of dual(ell * coset), for q = ell^2 with ell >= 2; an
    involution, as ell^2 = q fixes every coset.  Built once per table."""
    check_hermitian(table.q)
    return table._hermitian


def check_dualizable(table: CosetTable) -> None:
    """Reject tables where p = char(q) does not divide n+1: the zero coset's
    row is a constant c, whose self-product (n+1)*c^2 must vanish for {0}
    to lie in a family and its dual family.  Even q passes (n is odd)."""
    if gcd(table.q, table.n + 1) == 1:
        raise ValueError(f"the characteristic of q={table.q} does not divide "
                         f"n+1={table.n + 1}; dual families need it to")


def euclidean_dual_family(family: CosetFamily) -> CosetFamily:
    """The family describing the Euclidean dual code: {0} plus every coset
    not in the member-wise dual of the input.  Requires {0} in the input."""
    return _dual_family(family, family.table._dual)


def hermitian_dual_family(family: CosetFamily) -> CosetFamily:
    """The family describing the Hermitian dual code for q = ell^2: {0}
    plus every coset outside the :func:`hermitian_image` of the input.
    Requires {0} in the input.  ``duality.hermitian_dual`` checks at the
    code level that this is the Euclidean dual family of ell*S."""
    return _dual_family(family, hermitian_image(family.table))


def _dual_family(family: CosetFamily, image: tuple[int, ...]) -> CosetFamily:
    """{0} plus every coset outside image(S): dimension n+1-dim(S) needs {0}
    in image(S).  -1 and ell (ell^2 = q, gcd(q, n) = 1) are units mod n, so
    only {0} maps to {0}, and one check on S states that requirement."""
    table = family.table
    check_dualizable(table)
    if not family.contains_zero:
        raise ValueError("family must contain the coset {0}")
    dropped = {image[i] for i in family.members}
    zero_id = table.coset_of(0)
    return CosetFamily(table, [i for i in range(len(table))
                               if i == zero_id or i not in dropped])
