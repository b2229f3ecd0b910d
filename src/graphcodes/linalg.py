"""GF(2) linear algebra on edge-space bit vectors.

Families closed under symmetric difference are subspaces of GF(2)^C(n,2);
this module computes ranks, the reduced basis that pivots on each row's
highest set slot, span membership, and the one span enumerator, which lists
the span in ascending order from that basis.
"""

from __future__ import annotations

from .core import Frozen, LabeledGraph, edge_slots
from .errors import DomainError
from .family import GraphFamily, check_enumerable


def gf2_ordered_basis(masks) -> list[int]:
    """Reduced basis of the span pivoting on each row's highest set slot,
    rows in ascending pivot order; every pivot slot is set in its own row
    only.  Member i of the sorted span is the XOR of the rows at the set
    bits of i (``ordered_span``): where the coefficients of two members
    first differ from the top, at row j, only row j holds its pivot slot and
    every higher slot is equal, so the member with bit j set is the larger."""
    pivots: dict[int, int] = {}
    for mask in masks:
        cur = mask
        while cur:
            p = cur.bit_length() - 1
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
    return len(gf2_ordered_basis(masks))


def gf2_reduce(mask: int, ordered_rows) -> int:
    """Residue of mask after elimination against a ``gf2_ordered_basis``."""
    cur = mask
    for row in ordered_rows:
        if cur >> row.bit_length() - 1 & 1:
            cur ^= row
    return cur


def gf2_in_span(mask: int, ordered_rows) -> bool:
    return gf2_reduce(mask, ordered_rows) == 0


def ordered_span(rows) -> list[int]:
    """All 2^len(rows) elements of the span of independent rows, element i
    the XOR of the rows at the set bits of i: ascending when the rows are a
    ``gf2_ordered_basis``."""
    vals = [0]
    for row in rows:
        vals += [v ^ row for v in vals]
    return vals


class LinearFamily(Frozen):
    """The GF(2) span of a list of generator graphs.

    Generators may be deliberately dependent (``redundant`` is then set); the
    span itself always contains the empty graph and has exactly 2^rank
    members.  ``rank``, ``redundant`` and ``rows`` are derived from the
    generators; the repr, equality and hashing leave ``rows`` out.
    """

    # rows: the span's gf2_ordered_basis, member i of the sorted span being
    # the XOR of the rows at the set bits of i
    __slots__ = ("n", "basis", "rank", "redundant", "rows")
    _fields = ("n", "basis")

    def __init__(self, n: int, basis) -> None:
        basis = tuple(basis)
        for g in basis:
            if g.n != n:
                raise DomainError(
                    f"generator on {g.n} vertices in a family on {n}"
                )
        rows = gf2_ordered_basis(g.bits for g in basis)
        self._set(n, basis, len(rows), len(basis) > len(rows), tuple(rows))

    def _key(self) -> tuple:
        return (self.n, self.basis, self.rank, self.redundant)

    def __repr__(self) -> str:
        return (f"LinearFamily(n={self.n!r}, basis={self.basis!r}, "
                f"rank={self.rank!r}, redundant={self.redundant!r})")

    @property
    def span_size(self) -> int:
        return 1 << self.rank

    def contains(self, g: LabeledGraph) -> bool:
        return g.n == self.n and gf2_in_span(g.bits, self.rows)

    def span_masks(self) -> list[int]:
        """All 2^rank span elements as masks, ascending."""
        check_enumerable(self.span_size)
        return ordered_span(self.rows)

    def enumerate_span(self) -> GraphFamily:
        """The span as an explicit family, deduplicated, ascending edge order."""
        return GraphFamily(
            self.n,
            tuple(LabeledGraph(self.n, m) for m in self.span_masks()),
            provenance={"construction": "span", "rank": self.rank},
            claimed_size=self.span_size,
        )


def _same_n(generators) -> list[LabeledGraph]:
    """The generators as a list; mixed vertex counts raise DomainError."""
    gens = list(generators)
    if any(g.n != gens[0].n for g in gens):
        raise DomainError("generators must share a vertex count")
    return gens


def rank(generators) -> int:
    """Dimension of the span of a list of generator graphs."""
    return gf2_rank(g.bits for g in _same_n(generators))


def enumerate_span(fam: LinearFamily) -> GraphFamily:
    return fam.enumerate_span()


def double_cover_check(generators) -> bool:
    """True iff every edge slot of K_n is set in exactly two generators."""
    gens = _same_n(generators)
    if not gens:
        return False
    counts = [0] * edge_slots(gens[0].n)
    for g in gens:
        m = g.bits
        while m:
            lowbit = m & -m
            counts[lowbit.bit_length() - 1] += 1
            m ^= lowbit
    return all(c == 2 for c in counts)
