"""Explicit graph families: codes meeting each bound and the dual families
certifying the matching upper bounds.

Primal constructions produce families whose pairwise symmetric differences
satisfy a predicate (connectivity, Hamiltonicity, spanning stars, triangle
or odd-cycle containment); dual constructions produce families none of whose
symmetric differences do.  Every family carries a claimed closed-form size
that the container validates on construction.
"""

from __future__ import annotations

from math import comb

from .core import (
    LabeledGraph,
    _is_prime,
    check_vertex_count,
    complete_graph,
    cut_mask,
    edge_index,
    edge_slots,
    empty_graph,
    graph_from_edges,
    two_coloring,
    vertex_limit,
)
from .errors import CapabilityError, DomainError, UnsupportedParameterError
from .factorization import starter_factorization, verify_p1f
from .family import GraphFamily, ImplicitFamily, check_enumerable
from .linalg import LinearFamily, gf2_ordered_basis, ordered_span


# ---------------------------------------------------------------------------
# split-clique families (connectivity and 2-connectivity)


def _split_clique_mask(n: int, side: int) -> int:
    """Edges of K_S union K_complement: the complement of the cut of S."""
    return ((1 << edge_slots(n)) - 1) ^ cut_mask(n, side)


def _split_family(n: int, construction: str, claimed_size: int,
                  keep) -> GraphFamily:
    """The split-clique graphs of the bipartitions whose side S containing
    vertex 1 passes ``keep(S)``, each unordered bipartition once."""
    sides = ((t << 1) | 1 for t in range(1 << (n - 1)))
    graphs = tuple(LabeledGraph(n, _split_clique_mask(n, side))
                   for side in sides if keep(side))
    return GraphFamily(
        n, graphs, provenance={"construction": construction, "n": n},
        claimed_size=claimed_size,
    )


def _empty_and_complete(n: int, provenance: dict) -> GraphFamily:
    """The pair {empty, K_n}, whose one difference is K_n."""
    return GraphFamily(n, (empty_graph(n), complete_graph(n)),
                       provenance=provenance, claimed_size=2)


def split_clique_family(n: int) -> GraphFamily:
    """All vertex-disjoint unions of two cliques covering [n]; size 2^(n-1).

    Any two members differ in a complete bipartite graph with both classes
    nonempty, so every pairwise symmetric difference is connected.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    check_vertex_count(n)
    return _split_family(n, "split-clique", 1 << (n - 1), lambda side: True)


def even_split_family(n: int) -> GraphFamily:
    """Split-clique graphs whose bipartition has both classes even; 2^(n-2).

    Pairwise symmetric differences are complete bipartite with both classes
    of size at least 2, hence 2-connected.
    """
    if n % 2 or n < 4:
        raise DomainError("need even n >= 4")
    check_vertex_count(n)
    return _split_family(n, "even-split", 1 << (n - 2),
                         lambda side: side.bit_count() % 2 == 0)


def odd_two_conn_family(n: int) -> GraphFamily:
    """Best known 2-connectivity family for odd n.

    n=3 is the pair {empty, K_3}, meeting the 2^(n-2) bound.  For odd n >= 5,
    keep the bipartitions whose smaller class is odd when n = 1 mod 4 and
    even when n = 3 mod 4, giving 2^(n-2) - C(n-2, (n-3)/2) graphs (a lower
    bound only; no matching upper bound is known).
    """
    if n % 2 == 0 or n < 3:
        raise DomainError("need odd n >= 3")
    check_vertex_count(n)
    if n == 3:
        return _empty_and_complete(3, {"construction": "odd-2conn", "n": 3})
    want_parity = 1 if n % 4 == 1 else 0
    return _split_family(
        n, "odd-2conn", (1 << (n - 2)) - comb(n - 2, (n - 3) // 2),
        lambda s: min(s.bit_count(), n - s.bit_count()) % 2 == want_parity)


# ---------------------------------------------------------------------------
# Hamming-code cut families (3-connected, linear)


def hamming_code(k: int) -> tuple[int, list[int]]:
    """Length n = 2^k - 1 and a codeword basis of the Hamming code.

    Parity-check columns are the binary expansions of 1..n in increasing
    order.  Each non-power-of-two position d yields the basis word with bit
    d and the bits of d's binary expansion at the power-of-two positions.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    n = (1 << k) - 1
    basis = []
    for d in range(1, n + 1):
        if d & (d - 1):
            word = 1 << (d - 1)
            for i in range(k):
                if d >> i & 1:
                    word |= 1 << ((1 << i) - 1)
            basis.append(word)
    return n, basis


def hamming_minimum_distance(k: int) -> int:
    """Minimum nonzero codeword weight, by scanning the full code."""
    _, basis = hamming_code(k)
    return min(w.bit_count() for w in ordered_span(gf2_ordered_basis(basis))[1:])


def hamming_bipartite_family(k: int) -> LinearFamily:
    """Cut graphs of Hamming codewords on n = 2^k - 1 vertices.

    The word-to-cut map is linear with kernel {zero, all-ones}; since the
    all-ones word is a codeword, the images of a codeword basis span a
    family of rank n-k-1 whose 2^(n-k-1) - 1 nonzero members are complete
    bipartite graphs with both classes of size >= 3, hence 3-connected.
    The cut graph of a word joins its 1-positions to its 0-positions.
    """
    # n = 2^k - 1 exceeds the limit exactly when 2^k exceeds limit + 1
    if k >= 2 and (vertex_limit() + 1) >> k == 0:
        raise CapabilityError(
            f"n=2^{k}-1 exceeds the configured vertex limit {vertex_limit()}"
        )
    n, basis = hamming_code(k)
    return LinearFamily(n, tuple(
        LabeledGraph(n, cut_mask(n, w)) for w in basis))


# ---------------------------------------------------------------------------
# Hamiltonicity families from perfect one-factorizations


def _perfect_factorization(m: int):
    f = starter_factorization(m)
    if not verify_p1f(f):
        raise UnsupportedParameterError(
            f"the starter factorization of K_{m} is not perfect; only the "
            "m = p+1 case (p an odd prime) is supported"
        )
    return f


def ham_cycle_family(m: int) -> LinearFamily:
    """Even-size unions of the m-1 matchings of a perfect factorization of K_m.

    Requires m = p+1 for an odd prime p.  Every nonzero member is a union of
    at least two matchings of a perfect one-factorization and so contains a
    Hamiltonian cycle; the span has rank m-2.
    """
    if m < 4 or m % 2:
        raise DomainError("need even m >= 4")
    check_vertex_count(m)
    if not _is_prime(m - 1):
        raise UnsupportedParameterError(
            f"m-1 = {m - 1} is not prime; only the m = p+1 case is built"
        )
    mats = _perfect_factorization(m).matchings
    return LinearFamily(m, tuple(mats[0] ^ mats[i] for i in range(1, m - 1)))


def ham_path_family(p: int) -> LinearFamily:
    """Even-size unions of p truncated matchings on [p]; rank p-1.

    Deleting one vertex of K_{p+1} from a perfect factorization leaves p
    matchings of K_p any two of which unite into a Hamiltonian path.
    Requires an odd prime p.
    """
    check_vertex_count(p)
    if p < 3 or not _is_prime(p):
        raise UnsupportedParameterError(f"p = {p} is not an odd prime")
    mats = _perfect_factorization(p + 1).matchings
    verts = range(1, p + 1)
    truncated = [mat.induced_subgraph(verts) for mat in mats]
    return LinearFamily(p, tuple(truncated[0] ^ truncated[i] for i in range(1, p)))


# ---------------------------------------------------------------------------
# spanning-star family


def star_family(n: int) -> GraphFamily:
    """A family of n+1 (odd n) or n (even n) graphs any two of which differ
    in a graph with a full-degree vertex.

    Odd n: take the n matchings of a one-factorization of K_{n+1} on
    auxiliary vertices v_1..v_{n+1}.  Edge {i,j} of K_n joins G_k exactly
    when v_k falls in class A of the 2-coloring of the even cycles of
    M_i union M_j (minimum-index vertex per component in A).  Even n: build
    the odd-case graphs on [n-1] from K_n's matchings, then decide each edge
    {i,n} by the bipartition of the single matching M_i (lower endpoint of
    each matching edge in A).
    """
    if n < 2:
        raise DomainError("need n >= 2")
    check_vertex_count(n)
    if n == 2:
        return _empty_and_complete(2, {"construction": "star", "n": 2})
    # m members and K_m's matchings: m = n + 1 for odd n; for even n, m = n
    # and each edge {i, n} is decided by M_i alone
    m = n + n % 2
    mats = starter_factorization(m).matchings
    bits = [0] * m
    for j in range(2, n + 1):
        for i in range(1, j):
            union = mats[i - 1] ^ mats[j - 1] if j < m else mats[i - 1]
            # unions of matchings are bipartite, so the coloring exists
            a_mask = two_coloring(union.adjacency())
            slot = edge_index(i, j, n)
            for k in range(m):
                if a_mask >> k & 1:
                    bits[k] |= 1 << slot
    return GraphFamily(
        n, tuple(LabeledGraph(n, b) for b in bits),
        provenance={"construction": "star", "n": n}, claimed_size=m,
    )


# ---------------------------------------------------------------------------
# hard-coded triangle and odd-cycle families


def _g(n: int, edge_text: str) -> LabeledGraph:
    return graph_from_edges(
        n, [(int(tok[0]), int(tok[1])) for tok in edge_text.split()]
    )


def k3_family_3() -> GraphFamily:
    """The empty graph and a triangle; pairwise difference is K_3."""
    return _empty_and_complete(3, {"construction": "k3-3"})


def k3_family_4() -> GraphFamily:
    """Four graphs on [4] whose pairwise differences all contain a triangle."""
    graphs = (
        empty_graph(4),
        _g(4, "12 23 13 34"),
        _g(4, "23 34 24 14"),
        _g(4, "12 13 24 14"),
    )
    return GraphFamily(
        4, graphs, provenance={"construction": "k3-4"}, claimed_size=4,
    )


def k3_family_5() -> LinearFamily:
    """Rotationally symmetric generators on a pentagon; span of 16 graphs,
    every nonzero member containing a triangle.  The five generators cover
    each edge of K_5 exactly twice, so the rank is 4."""
    gens = (
        _g(5, "12 23 13 35"),
        _g(5, "23 34 24 14"),
        _g(5, "34 45 35 25"),
        _g(5, "45 15 14 13"),
        _g(5, "15 12 25 24"),
    )
    return LinearFamily(5, gens)


def k3_family_6() -> LinearFamily:
    """Four edge-disjoint triangles plus three rotated K_4's on a hexagon;
    the seven generators cover each edge of K_6 exactly twice (rank 6,
    span 64), and every nonzero span member contains a triangle."""
    gens = (
        _g(6, "12 23 13"),
        _g(6, "34 45 35"),
        _g(6, "56 16 15"),
        _g(6, "24 46 26"),
        _g(6, "12 24 45 15 14 25"),
        _g(6, "23 35 56 26 25 36"),
        _g(6, "34 46 16 13 36 14"),
    )
    return LinearFamily(6, gens)


def codd_family_7() -> LinearFamily:
    """A Steiner triple system of seven triangles plus three edge-disjoint
    seven-cycles on [7]; each group covers every pair once, so the ten
    generators cover K_7 exactly twice (rank 9, span 512).  Every nonzero
    member contains an odd cycle."""
    gens = (
        _g(7, "12 24 14"),
        _g(7, "23 35 25"),
        _g(7, "34 46 36"),
        _g(7, "45 57 47"),
        _g(7, "56 16 15"),
        _g(7, "67 27 26"),
        _g(7, "17 13 37"),
        _g(7, "12 23 34 45 56 67 17"),
        _g(7, "13 35 57 27 24 46 16"),
        _g(7, "14 47 37 36 26 25 15"),
    )
    return LinearFamily(7, gens)


# ---------------------------------------------------------------------------
# agreement and dual families


def clique_agreement_implicit(n: int, r: int) -> ImplicitFamily:
    """All graphs with no edge inside {1..r}; size 2^(C(n,2)-C(r,2)).

    Any two members differ in a graph where {1..r} is an independent set,
    i.e. the difference contains the edgeless r-vertex graph induced.
    """
    if not 2 <= r <= n:
        raise DomainError("need 2 <= r <= n")
    check_vertex_count(n)
    # in colex order the edges inside {1..r} are the first C(r,2) slots
    free = (1 << edge_slots(n)) - (1 << edge_slots(r))
    return ImplicitFamily(
        n, 0, free,
        provenance={"construction": "clique-agreement", "n": n, "r": r},
    )


def clique_agreement_family(n: int, r: int) -> GraphFamily:
    return clique_agreement_implicit(n, r).enumerate()


def dual_isolated_implicit(n: int) -> ImplicitFamily:
    """All graphs with vertex n isolated; no pairwise difference is connected."""
    if n < 2:
        raise DomainError("need n >= 2")
    check_vertex_count(n)
    return ImplicitFamily(
        n, 0, (1 << edge_slots(n - 1)) - 1,
        provenance={"construction": "dual-isolated", "n": n},
    )


def dual_isolated_family(n: int) -> GraphFamily:
    return dual_isolated_implicit(n).enumerate()


def dual_pendant_implicit(n: int) -> ImplicitFamily:
    """Vertex n isolated or joined only to n-1; differences are never
    2-connected (vertex n keeps degree <= 2 with at most one fresh edge)."""
    if n < 3:
        raise DomainError("need n >= 3")
    check_vertex_count(n)
    free = ((1 << edge_slots(n - 1)) - 1) | 1 << edge_index(n - 1, n, n)
    return ImplicitFamily(
        n, 0, free, provenance={"construction": "dual-pendant", "n": n},
    )


def dual_pendant_family(n: int) -> GraphFamily:
    return dual_pendant_implicit(n).enumerate()


def dual_lowdeg_size(n: int) -> int:
    """The size of dual_lowdeg_family(n), without enumerating it."""
    return n << edge_slots(n - 1)


def dual_lowdeg_family(n: int) -> GraphFamily:
    """Vertex n of degree at most 1; sized n * 2^C(n-1,2).  Differences give
    vertex n degree at most 2, so none is 3-connected."""
    if n < 2:
        raise DomainError("need n >= 2")
    check_vertex_count(n)
    inner = edge_slots(n - 1)
    size = dual_lowdeg_size(n)
    check_enumerable(size)
    graphs = []
    for choice in range(n):
        extra = 0 if choice == 0 else 1 << edge_index(choice, n, n)
        for x in range(1 << inner):
            graphs.append(LabeledGraph(n, x | extra))
    return GraphFamily(
        n, tuple(graphs), provenance={"construction": "dual-lowdeg", "n": n},
        claimed_size=size,
    )


def star_cover_edges(n: int) -> list[tuple[int, int]]:
    """A fixed minimum edge cover of [n]: consecutive pairs, plus {n-1, n}
    when n is odd; ceil(n/2) edges, no vertex isolated."""
    if n < 2:
        raise DomainError("need n >= 2")
    edges = [(i, i + 1) for i in range(1, n, 2)]
    if n % 2:
        edges.append((n - 1, n))
    return edges


def dual_star_implicit(n: int) -> ImplicitFamily:
    """All graphs containing a fixed minimum edge cover T; every vertex then
    misses its T-edge in any pairwise difference, so no difference has a
    spanning star.  Size 2^(C(n,2) - ceil(n/2))."""
    check_vertex_count(n)
    base = 0
    for i, j in star_cover_edges(n):
        base |= 1 << edge_index(i, j, n)
    full = (1 << edge_slots(n)) - 1
    return ImplicitFamily(
        n, base, full ^ base, provenance={"construction": "dual-star", "n": n},
    )


def dual_star_family(n: int) -> GraphFamily:
    return dual_star_implicit(n).enumerate()


def dual_subgraph_implicit(n: int, host: LabeledGraph) -> ImplicitFamily:
    """All 2^|E(host)| subgraphs of a host graph; pairwise differences stay
    inside the host, so anything the host avoids they avoid too."""
    if host.n != n:
        raise DomainError(f"host is on {host.n} vertices, expected {n}")
    return ImplicitFamily(
        n, 0, host.bits,
        provenance={"construction": "dual-subgraph", "n": n,
                     "host": host.to_hex()},
    )


def dual_subgraph_family(n: int, host: LabeledGraph) -> GraphFamily:
    return dual_subgraph_implicit(n, host).enumerate()



# ---------------------------------------------------------------------------
# registry for the CLI


REGISTRY: dict[str, tuple[tuple[str, ...], object]] = {
    "split-clique": (("n",), split_clique_family),
    "even-split": (("n",), even_split_family),
    "odd-2conn": (("n",), odd_two_conn_family),
    "hamming-3conn": (("k",), hamming_bipartite_family),
    "hampath": (("p",), ham_path_family),
    "hamcycle": (("n",), ham_cycle_family),
    "star": (("n",), star_family),
    "k3-3": ((), k3_family_3),
    "k3-4": ((), k3_family_4),
    "k3-5": ((), k3_family_5),
    "k3-6": ((), k3_family_6),
    "codd-7": ((), codd_family_7),
    "clique-agreement": (("n", "r"), clique_agreement_family),
    "dual-isolated": (("n",), dual_isolated_family),
    "dual-pendant": (("n",), dual_pendant_family),
    "dual-lowdeg": (("n",), dual_lowdeg_family),
    "dual-star": (("n",), dual_star_family),
    "dual-subgraph": (("n", "host"), dual_subgraph_family),
}
