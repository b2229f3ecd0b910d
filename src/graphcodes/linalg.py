"""GF(2) linear algebra on edge-space bit vectors.

Families closed under symmetric difference are subspaces of GF(2)^C(n,2);
this module computes ranks, reduced bases (pivot on the lowest set slot),
span membership, and deterministic span enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import LabeledGraph, edge_slots
from .errors import CapabilityError, DomainError
from .family import GraphFamily

SPAN_RANK_BUDGET = 26


def gf2_reduced_basis(masks) -> list[int]:
    """Reduced row-echelon basis of the span, rows sorted by pivot slot."""
    pivots: dict[int, int] = {}
    for mask in masks:
        cur = mask
        while cur:
            p = (cur & -cur).bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                break
    # eliminate each pivot from every other row
    for p in sorted(pivots):
        row = pivots[p]
        for q, other in pivots.items():
            if q != p and other >> p & 1:
                pivots[q] = other ^ row
    return [pivots[p] for p in sorted(pivots)]


def gf2_rank(masks) -> int:
    return len(gf2_reduced_basis(masks))


def gf2_reduce(mask: int, reduced_rows) -> int:
    """Residue of mask after elimination against a reduced basis."""
    cur = mask
    for row in reduced_rows:
        p = row & -row
        if cur & p:
            cur ^= row
    return cur


def gf2_in_span(mask: int, reduced_rows) -> bool:
    return gf2_reduce(mask, reduced_rows) == 0


def gray_span(rows) -> list[int]:
    """All 2^len(rows) elements of the span of independent rows, in Gray-code
    order: element 0 is the empty graph and each next one flips one row."""
    vals = [0] * (1 << len(rows))
    cur = 0
    for i in range(1, len(vals)):
        cur ^= rows[(i & -i).bit_length() - 1]
        vals[i] = cur
    return vals


@dataclass(frozen=True, slots=True)
class LinearFamily:
    """The GF(2) span of a list of generator graphs.

    Generators may be deliberately dependent (``redundant`` is then set); the
    span itself always contains the empty graph and has exactly 2^rank
    members.
    """

    n: int
    basis: tuple[LabeledGraph, ...]
    rank: int = field(init=False)
    redundant: bool = field(init=False)
    _reduced: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        for g in self.basis:
            if g.n != self.n:
                raise DomainError(
                    f"generator on {g.n} vertices in a family on {self.n}"
                )
        reduced = gf2_reduced_basis(g.bits for g in self.basis)
        object.__setattr__(self, "_reduced", tuple(reduced))
        object.__setattr__(self, "rank", len(reduced))
        object.__setattr__(self, "redundant", len(self.basis) > len(reduced))

    @property
    def span_size(self) -> int:
        return 1 << self.rank

    def contains(self, g: LabeledGraph) -> bool:
        return g.n == self.n and gf2_in_span(g.bits, self._reduced)

    def span_masks(self) -> list[int]:
        """All 2^rank span elements as masks, ascending."""
        if self.rank > SPAN_RANK_BUDGET:
            raise CapabilityError(
                f"rank {self.rank} exceeds the enumeration budget "
                f"{SPAN_RANK_BUDGET}"
            )
        return sorted(gray_span(self._reduced))

    def enumerate_span(self, provenance: dict | None = None) -> GraphFamily:
        """The span as an explicit family, deduplicated, ascending edge order."""
        masks = self.span_masks()
        prov = dict(provenance) if provenance else {"construction": "span"}
        prov.setdefault("rank", self.rank)
        return GraphFamily(
            self.n,
            tuple(LabeledGraph(self.n, m) for m in masks),
            provenance=prov,
            claimed_size=1 << self.rank,
        )


def rank(generators) -> int:
    """Dimension of the span of a list of generator graphs."""
    gens = list(generators)
    if not gens:
        return 0
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise DomainError("generators must share a vertex count")
    return gf2_rank(g.bits for g in gens)


def enumerate_span(fam: LinearFamily) -> GraphFamily:
    return fam.enumerate_span()


def double_cover_check(generators) -> bool:
    """True iff every edge slot of K_n is set in exactly two generators."""
    gens = list(generators)
    if not gens:
        return False
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise DomainError("generators must share a vertex count")
    counts = [0] * edge_slots(n)
    for g in gens:
        m = g.bits
        while m:
            lowbit = m & -m
            counts[lowbit.bit_length() - 1] += 1
            m ^= lowbit
    return all(c == 2 for c in counts)
