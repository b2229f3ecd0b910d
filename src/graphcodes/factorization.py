"""One-factorizations and proper edge colorings of complete graphs.

The rotational starter construction on Z_{m-1} plus a fixed point always
yields a valid one-factorization of K_m; when m-1 is prime every union of two
matchings is a single Hamiltonian cycle, which is exactly what the
Hamiltonicity constructions need and what ``verify_p1f`` certifies.
"""

from __future__ import annotations

from .core import (Frozen, LabeledGraph, adjacency_masks, check_vertex_count,
                   complete_graph, graph_from_edges, reach)
from .errors import DomainError


class OneFactorization(Frozen):
    """m-1 pairwise edge-disjoint perfect matchings partitioning K_m."""

    __slots__ = ("m", "matchings")

    def __init__(self, m: int, matchings) -> None:
        matchings = tuple(matchings)
        if m % 2 or m < 4:
            raise DomainError("a one-factorization needs even m >= 4")
        if len(matchings) != m - 1:
            raise DomainError(f"expected {m - 1} matchings, got {len(matchings)}")
        acc = 0
        for matching in matchings:
            if matching.n != m:
                raise DomainError("matching on wrong vertex count")
            if matching.num_edges != m // 2 or 0 in matching.degree_sequence():
                raise DomainError("class is not a perfect matching")
            if acc & matching.bits:
                raise DomainError("matchings are not edge-disjoint")
            acc |= matching.bits
        if acc != complete_graph(m).bits:
            raise DomainError("matchings do not cover K_m")
        self._set(m, matchings)


def starter_factorization(m: int) -> OneFactorization:
    """Rotational one-factorization of K_m on Z_{m-1} plus a fixed point.

    Matching i (i in Z_{m-1}) pairs the fixed point with i and pairs i+j
    with i-j mod m-1 for j = 1..(m-2)/2.  Residue r is relabeled to vertex
    r+1 and the fixed point to vertex m.
    """
    if m % 2 or m < 4:
        raise DomainError(f"need even m >= 4, got {m}")
    check_vertex_count(m)
    mod = m - 1
    matchings = []
    for i in range(mod):
        edges = [(i + 1, m)]
        for j in range(1, (m - 2) // 2 + 1):
            a = (i + j) % mod + 1
            b = (i - j) % mod + 1
            edges.append((min(a, b), max(a, b)))
        matchings.append(graph_from_edges(m, edges))
    return OneFactorization(m, tuple(matchings))


def verify_p1f(factorization: OneFactorization) -> bool:
    """True iff every union of two matchings is a Hamiltonian cycle.  The
    union of two disjoint perfect matchings is 2-regular, so it is one
    cycle exactly when it is connected."""
    matchings = factorization.matchings
    m = factorization.m
    full = (1 << m) - 1
    for i in range(len(matchings)):
        for j in range(i + 1, len(matchings)):
            adj = adjacency_masks(m, matchings[i].bits ^ matchings[j].bits)
            if reach(adj, 1, full) != full:
                return False
    return True


def proper_edge_coloring(m: int) -> list[LabeledGraph]:
    """Color classes of an optimal proper edge coloring of K_m.

    Even m: the m-1 starter matchings.  Odd m: m classes where class c holds
    the edges {i,j} with i+j = c mod m, each a matching of (m-1)/2 edges.
    The class count realizes the edge chromatic number of K_m exactly.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    if m == 2:
        return [complete_graph(2)]
    if m % 2 == 0:
        return list(starter_factorization(m).matchings)
    classes = []
    for c in range(m):
        edges = [
            (i, j)
            for j in range(2, m + 1)
            for i in range(1, j)
            if (i + j) % m == c
        ]
        classes.append(graph_from_edges(m, edges))
    return classes
