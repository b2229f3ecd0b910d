"""Independent brute-force re-implementations of every predicate.

These deliberately use different methods than the main implementations
(transitive closure instead of search, subset enumeration instead of max-flow,
dynamic programming instead of backtracking, full injective-map enumeration
instead of pruned matching) so the two routes cross-validate each other.
Intended for tests; capped at 8 vertices.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import LabeledGraph, adjacency_masks, edge_slots
from .errors import CapabilityError, DomainError
from .predicates import Predicate

ORACLE_CAP = 8


def _check_cap(n: int) -> None:
    if n > ORACLE_CAP:
        raise CapabilityError(f"oracle capped at {ORACLE_CAP} vertices, got {n}")


def _closure_components(n: int, adj: list[int]) -> list[int]:
    """Reachability sets per vertex by iterated closure (no explicit search)."""
    reach = [adj[v] | (1 << v) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            acc = reach[v]
            m = acc
            while m:
                lowbit = m & -m
                acc |= reach[lowbit.bit_length() - 1]
                m ^= lowbit
            if acc != reach[v]:
                reach[v] = acc
                changed = True
    return reach


def oracle_connected(g: LabeledGraph) -> bool:
    _check_cap(g.n)
    if g.n < 2:
        raise DomainError("connectivity needs at least 2 vertices")
    reach = _closure_components(g.n, adjacency_masks(g.n, g.bits))
    return reach[0] == (1 << g.n) - 1


def _sub_adjacency(n: int, adj: list[int], keep: int) -> tuple[list[int], list[int]]:
    verts = [v for v in range(n) if keep >> v & 1]
    remap = {v: i for i, v in enumerate(verts)}
    sub = [0] * len(verts)
    for v in verts:
        m = adj[v] & keep
        while m:
            lowbit = m & -m
            sub[remap[v]] |= 1 << remap[lowbit.bit_length() - 1]
            m ^= lowbit
    return sub, verts


def oracle_vertex_connectivity(g: LabeledGraph) -> int:
    """Smallest vertex subset whose removal disconnects, by enumeration."""
    _check_cap(g.n)
    n = g.n
    if n < 2:
        raise DomainError("connectivity needs at least 2 vertices")
    if g.bits == (1 << edge_slots(n)) - 1:
        return n - 1
    adj = adjacency_masks(n, g.bits)
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            keep = (1 << n) - 1
            for v in cut:
                keep ^= 1 << v
            sub, verts = _sub_adjacency(n, adj, keep)
            if len(verts) < 2:
                continue
            reach = _closure_components(len(verts), sub)
            if reach[0] != (1 << len(verts)) - 1:
                return size
    return n - 1


def oracle_is_k_connected(g: LabeledGraph, k: int) -> bool:
    return g.n >= k + 1 and oracle_vertex_connectivity(g) >= k


def _ham_dp(n: int, adj: list[int], seeds: list[int]) -> list[int]:
    """dp[mask] = possible endpoints of simple paths covering exactly mask,
    among paths starting at one of the seed vertices."""
    size = 1 << n
    dp = [0] * size
    for s in seeds:
        dp[1 << s] = 1 << s
    for mask in range(size):
        ends = dp[mask]
        if not ends:
            continue
        m = ends
        while m:
            lowbit = m & -m
            v = lowbit.bit_length() - 1
            m ^= lowbit
            ext = adj[v] & ~mask
            while ext:
                lb = ext & -ext
                dp[mask | lb] |= lb
                ext ^= lb
    return dp


def oracle_hamiltonian_path(g: LabeledGraph) -> bool:
    _check_cap(g.n)
    if g.n < 2:
        raise DomainError("a Hamiltonian path needs at least 2 vertices")
    adj = adjacency_masks(g.n, g.bits)
    full = (1 << g.n) - 1
    return bool(_ham_dp(g.n, adj, list(range(g.n)))[full])


def oracle_hamiltonian_cycle(g: LabeledGraph) -> bool:
    _check_cap(g.n)
    if g.n < 3:
        raise DomainError("a Hamiltonian cycle needs at least 3 vertices")
    adj = adjacency_masks(g.n, g.bits)
    full = (1 << g.n) - 1
    return bool(_ham_dp(g.n, adj, [0])[full] & adj[0])


def oracle_spanning_star(g: LabeledGraph) -> bool:
    """A spanning star exists iff the complement has an isolated vertex."""
    _check_cap(g.n)
    if g.n < 2:
        raise DomainError("a spanning star needs at least 2 vertices")
    return 0 in g.complement().degree_sequence()


def _oracle_contains(g: LabeledGraph, pattern: LabeledGraph, induced: bool) -> bool:
    _check_cap(g.n)
    pn = pattern.n
    if pn > g.n:
        return False
    hadj = adjacency_masks(g.n, g.bits)
    pedges = [(i - 1, j - 1) for i, j in pattern.edges()]
    pnon = [
        (a, b)
        for a in range(pn)
        for b in range(a + 1, pn)
        if not pattern.has_edge(a + 1, b + 1)
    ]
    for combo in combinations(range(g.n), pn):
        for perm in permutations(combo):
            if all(hadj[perm[a]] >> perm[b] & 1 for a, b in pedges) and (
                not induced
                or all(not hadj[perm[a]] >> perm[b] & 1 for a, b in pnon)
            ):
                return True
    return False


def oracle_contains_subgraph(g: LabeledGraph, pattern: LabeledGraph) -> bool:
    if pattern.is_empty:
        raise DomainError("subgraph containment needs a pattern with an edge")
    return _oracle_contains(g, pattern, induced=False)


def oracle_contains_induced(g: LabeledGraph, pattern: LabeledGraph) -> bool:
    return _oracle_contains(g, pattern, induced=True)


def oracle_odd_cycle(g: LabeledGraph) -> bool:
    """Not bipartite, decided by trying all 2^n two-colorings."""
    _check_cap(g.n)
    edges = [(i - 1, j - 1) for i, j in g.edges()]
    for coloring in range(1 << g.n):
        if all((coloring >> a & 1) != (coloring >> b & 1) for a, b in edges):
            return False
    return True


_ORACLES = {
    "connected": lambda p, g: oracle_connected(g),
    "kconn": lambda p, g: oracle_is_k_connected(g, p.k),
    "hampath": lambda p, g: oracle_hamiltonian_path(g),
    "hamcycle": lambda p, g: oracle_hamiltonian_cycle(g),
    "star": lambda p, g: oracle_spanning_star(g),
    "contains": lambda p, g: oracle_contains_subgraph(g, p.pattern),
    "contains-induced": lambda p, g: oracle_contains_induced(g, p.pattern),
    "oddcycle": lambda p, g: oracle_odd_cycle(g),
}


def oracle_check(pred: Predicate, g: LabeledGraph) -> bool:
    """Evaluate ``pred`` on ``g`` by the independent brute-force route."""
    _check_cap(g.n)
    return _ORACLES[pred.kind](pred, g)
