"""Exact boolean graph tests used as family conditions.

All predicates are total on graphs with enough vertices and evaluate exactly;
there are no heuristics.  Each has a mask-level entry point so that verifiers
can test millions of symmetric differences without building graph objects.

Each kind also has a formula over the bit columns of a block of masks
(``bitslice.edge_matrix``, one bitset per vertex pair) that combines them with
AND, OR and complement into the bitset of the masks on which the predicate
holds, so each big-int operation decides the whole block (Biham, FSE 1997).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from itertools import combinations, permutations
from math import comb, perm
from typing import NamedTuple

from .core import (
    Frozen,
    LabeledGraph,
    incidence_masks,
    adjacency_masks,
    complete_graph,
    edge_slots,
    pair_slot,
    reach,
    two_coloring,
)
from .errors import CapabilityError, DomainError

DEFAULT_HAMILTONIAN_CAP = 16
PATTERN_CAP = 8

_hamiltonian_cap = DEFAULT_HAMILTONIAN_CAP


def set_hamiltonian_cap(limit: int) -> None:
    """Raise or lower the vertex cap for Hamiltonicity backtracking."""
    global _hamiltonian_cap
    if limit < 3:
        raise DomainError("cap must be at least 3")
    _hamiltonian_cap = limit


# ---------------------------------------------------------------------------
# connectivity and k-connectivity (core's reach BFS also prunes Hamiltonicity)


def _connected_mask(n: int, bits: int) -> bool:
    full = (1 << n) - 1
    return reach(adjacency_masks(n, bits), 1, full) == full


def _biconnected_from_adj(n: int, adj: list[int], keep: int | None = None) -> bool:
    """No articulation vertex and connected, on the subgraph induced by the
    vertex mask ``keep`` (default: every vertex), via one bitset DFS.

    Each stack entry carries its subtree and the OR of the subtree's rows.
    A DFS tree has no cross edges, so a finished child's subtree reaches
    nothing outside itself and its parent p but ancestors of p: p is a cut
    vertex iff it reaches none.  The root is one iff it gets a second child.
    """
    full = (1 << n) - 1
    if keep is None:
        keep = full
    root = (keep & -keep).bit_length() - 1
    visited = full & ~keep | 1 << root
    stack = [root]
    subs = [1 << root]
    nbs = [adj[root]]
    root_children = 0
    while stack:
        v = stack[-1]
        m = adj[v] & ~visited
        if m:
            if v == root:
                root_children += 1
                if root_children > 1:
                    return False
            low = m & -m
            u = low.bit_length() - 1
            visited |= low
            stack.append(u)
            subs.append(low)
            nbs.append(adj[u])
        else:
            stack.pop()
            sub = subs.pop()
            nb = nbs.pop()
            if stack:
                p = stack[-1]
                if p != root and not nb & keep & ~(sub | 1 << p):
                    return False
                subs[-1] |= sub
                nbs[-1] |= nb
    return visited == full


def _max_flow_at_most(n: int, adj: list[int], s: int, t: int, cap: int) -> int:
    """Internally vertex-disjoint s-t paths, counted up to ``cap``.

    Unit-capacity max flow on the vertex-split digraph (Menger): node v splits
    into in(v)=v and out(v)=v+n with an internal arc of capacity 1 (unbounded
    for s and t); each edge uv gives arcs out(u)->in(v) and out(v)->in(u) of
    unbounded capacity.  Callers only pass non-adjacent pairs, so every
    augmenting path crosses a unit internal arc and augments by exactly 1.
    """
    if cap <= 0:
        return 0
    big = n
    size = 2 * n
    nbrs: list[list[int]] = [[] for _ in range(size)]
    # residual capacity of arc a->b, keyed by a * size + b (one key per arc
    # for every node count)
    residual: dict[int, int] = {}

    def arc(a: int, b: int, c: int) -> None:
        ka, kb = a * size + b, b * size + a
        if ka not in residual:
            residual[ka] = 0
            residual.setdefault(kb, 0)
            nbrs[a].append(b)
            nbrs[b].append(a)
        residual[ka] += c

    for v in range(n):
        arc(v, v + n, big if v == s or v == t else 1)
        m = adj[v]
        while m:
            lowbit = m & -m
            arc(v + n, lowbit.bit_length() - 1, big)
            m ^= lowbit
    source, sink = s + n, t
    flow = 0
    while flow < cap:
        parent = [-1] * size
        parent[source] = source
        dq = deque([source])
        found = False
        while dq:
            a = dq.popleft()
            if a == sink:
                found = True
                break
            for b in nbrs[a]:
                if parent[b] < 0 and residual[a * size + b] > 0:
                    parent[b] = a
                    dq.append(b)
        if not found:
            break
        b = sink
        while b != source:
            a = parent[b]
            residual[a * size + b] -= 1
            residual[b * size + a] += 1
            b = a
        flow += 1
    return flow


def _cut_pairs(n: int, adj: list[int]) -> list[tuple[int, int]]:
    """Pairs whose local connectivity minimum equals the global one.

    Fix a minimum-degree vertex v.  Any minimum vertex cut either avoids v
    (then it separates v from some non-neighbor) or contains v (then it
    separates two non-adjacent neighbors of v), so checking v against its
    non-neighbors plus all non-adjacent pairs of its neighbors suffices.
    """
    full = (1 << n) - 1
    v = min(range(n), key=lambda u: (adj[u].bit_count(), u))
    pairs = []
    m = full & ~adj[v] & ~(1 << v)
    while m:
        lowbit = m & -m
        pairs.append((v, lowbit.bit_length() - 1))
        m ^= lowbit
    nbr_list = []
    m = adj[v]
    while m:
        lowbit = m & -m
        nbr_list.append(lowbit.bit_length() - 1)
        m ^= lowbit
    for ai in range(len(nbr_list)):
        a = nbr_list[ai]
        for bi in range(ai + 1, len(nbr_list)):
            b = nbr_list[bi]
            if not adj[a] >> b & 1:
                pairs.append((a, b))
    return pairs


def _kappa(n: int, adj: list[int], cap: int, need: int = 1) -> int:
    """min(vertex connectivity, cap) of the graph with these adjacency masks,
    for a cap of at most n - 1 (a complete graph has no cut pairs).  The
    loop stops at the first local connectivity below ``need`` and returns
    it: then the value only shows that the graph is not ``need``-connected."""
    best = cap
    for s, t in _cut_pairs(n, adj):
        best = _max_flow_at_most(n, adj, s, t, best)
        if best < need:
            break
    return best


def _kappa_mask(n: int, bits: int, cap: int | None = None) -> int:
    """min(vertex connectivity, cap); complete graphs count as (n-1)-connected."""
    limit = n - 1 if cap is None else min(cap, n - 1)
    if bits == (1 << edge_slots(n)) - 1:
        return limit
    return _kappa(n, adjacency_masks(n, bits), limit)


def _is_k_connected_mask(n: int, bits: int, k: int) -> bool:
    if n < k + 1:
        return False
    if 2 * bits.bit_count() < k * n:  # handshake: min degree k needs kn/2 edges
        return False
    if k == 1:
        return _connected_mask(n, bits)
    adj = adjacency_masks(n, bits)
    if min(a.bit_count() for a in adj) < k:
        return False
    if k == 2:
        return _biconnected_from_adj(n, adj)
    if k == 3:  # n >= 4 here, so kappa >= 3 iff every G - v is 2-connected
        full = (1 << n) - 1
        return all(_biconnected_from_adj(n, adj, full ^ (1 << v))
                   for v in range(n))
    return _kappa(n, adj, k, need=k) == k


def _reach_table(n: int, e: list[list[int]], seed: int, alive: int) -> int:
    """The masks of ``seed`` on which the vertex set ``alive`` induces a
    connected graph: a BFS from its lowest vertex, run on every mask at once
    until no reach set grows."""
    verts = [v for v in range(n) if alive >> v & 1]
    sets = [0] * n
    sets[verts[0]] = seed
    grown = True
    while grown:
        grown = False
        for v in verts:
            r = old = sets[v]
            row = e[v]
            for u in verts:
                r |= sets[u] & row[u]
            if r != old:
                sets[v] = r
                grown = True
    out = seed
    for v in verts:
        out &= sets[v]
    return out


def _kconn_table(n: int, e: list[list[int]], ones: int, k: int) -> int:
    """n >= k + 1, and G - X is connected for every X of fewer than k
    vertices."""
    if n < k + 1:
        return 0
    full = (1 << n) - 1
    out = ones
    for size in range(k):
        for cut in combinations(range(n), size):
            out = _reach_table(n, e, out, full ^ sum(1 << v for v in cut))
            if not out:
                return 0
    return out


# ---------------------------------------------------------------------------
# Hamiltonian paths and cycles (one backtrack with a path/cycle switch)


def _hamiltonian_mask(n: int, bits: int, cycle: bool) -> int | None:
    """The edges of a Hamiltonian cycle (``cycle``) or path, by
    backtracking, or None when there is none.  A path may start at any
    vertex.  A cycle starts at vertex 0 and must close back to it; it also
    filters on minimum degree 2 and prunes a branch that leaves an unvisited
    vertex fewer than two usable neighbours.  Both prune a branch whose
    unvisited vertices are not all reachable from the current end."""
    adj = adjacency_masks(n, bits)
    full = (1 << n) - 1
    if cycle and any(a.bit_count() < 2 for a in adj):
        return None
    if reach(adj, 1, full) != full:
        return None

    def rec(cur: int, visited: int) -> int | None:
        """The edges of the rest of the path from ``cur``, or None."""
        if visited == full:
            if not cycle:
                return 0
            return 1 << pair_slot(cur, 0) if adj[cur] & 1 else None
        unvisited = full & ~visited
        cand = adj[cur] & unvisited
        if reach(adj, cand, unvisited) != unvisited:
            return None
        if cycle:
            avail = unvisited | (1 << cur) | 1
            m = unvisited
            while m:
                lowbit = m & -m
                if (adj[lowbit.bit_length() - 1] & avail).bit_count() < 2:
                    return None
                m ^= lowbit
        while cand:
            lowbit = cand & -cand
            rest = rec(lowbit.bit_length() - 1, visited | lowbit)
            if rest is not None:
                return rest | 1 << pair_slot(cur, lowbit.bit_length() - 1)
            cand ^= lowbit
        return None

    if cycle:
        return rec(0, 1)
    for s in range(n):
        path = rec(s, 1 << s)
        if path is not None:
            return path
    return None


def _ham_table(n: int, e: list[list[int]], ones: int, cycle: bool) -> int:
    """Held-Karp (1962) on every mask at once: ``layer[(s, v)]`` is the masks
    with a path through exactly the vertex set s that ends at v, starting
    anywhere for a path and at vertex 0 for a cycle.  Only the layer of the
    current |s| is kept."""
    layer = {(1, 0): ones} if cycle else {(1 << v, v): ones for v in range(n)}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (s, v), d in layer.items():
            row = e[v]
            for w in range(n):
                if not s >> w & 1:
                    t = d & row[w]
                    if t:
                        key = (s | 1 << w, w)
                        nxt[key] = nxt.get(key, 0) | t
        layer = nxt
    out = 0
    for (s, v), d in layer.items():
        out |= d & e[v][0] if cycle else d
    return out


# ---------------------------------------------------------------------------
# spanning star, subgraph containment, odd cycles (core's 2-coloring)


def _spanning_star_mask(n: int, bits: int) -> bool:
    for inc in incidence_masks(n):
        if bits & inc == inc:
            return True
    return False


def _star_table(n: int, e: list[list[int]], ones: int) -> int:
    """The OR over the vertices of the AND of their edges."""
    out = 0
    for v in range(n):
        t = ones
        for u in range(n):
            if u != v:
                t &= e[u][v]
        out |= t
    return out


def _pattern_order(pn: int, padj: list[int]) -> list[int]:
    degs = [padj[v].bit_count() for v in range(pn)]
    order = [max(range(pn), key=lambda v: (degs[v], -v))]
    placed = 1 << order[0]
    while len(order) < pn:
        best = max(
            (v for v in range(pn) if not placed >> v & 1),
            key=lambda v: ((padj[v] & placed).bit_count(), degs[v], -v),
        )
        order.append(best)
        placed |= 1 << best
    return order


def _contains_mask(n: int, bits: int, pn: int, pbits: int,
                   induced: bool) -> int | None:
    """The edges of a placement of the pattern (``induced``: with its
    non-edges absent too) in the graph, by backtracking, or None."""
    if pn > n:
        return None
    padj = adjacency_masks(pn, pbits)
    hadj = adjacency_masks(n, bits)
    hdeg = [hadj[v].bit_count() for v in range(n)]
    pdeg = [padj[v].bit_count() for v in range(pn)]
    order = _pattern_order(pn, padj)
    mapping = [-1] * pn

    def place(k: int, used: int) -> bool:
        if k == pn:
            return True
        p = order[k]
        need = pdeg[p]
        for h in range(n):
            if used >> h & 1 or hdeg[h] < need:
                continue
            ok = True
            for qi in range(k):
                q = order[qi]
                p_edge = padj[p] >> q & 1
                h_edge = hadj[h] >> mapping[q] & 1
                if p_edge != h_edge and (p_edge or induced):
                    ok = False
                    break
            if ok:
                mapping[p] = h
                if place(k + 1, used | (1 << h)):
                    return True
        return False

    if not place(0, 0):
        return None
    placed = 0
    for p in range(pn):
        m = padj[p] >> p + 1
        while m:
            low = m & -m
            placed |= 1 << pair_slot(mapping[p], mapping[p + low.bit_length()])
            m ^= low
    return placed


def _contains_table(n: int, e: list[list[int]], ones: int,
                    pattern: LabeledGraph, induced: bool) -> int:
    """The OR over the distinct placements of the pattern of the AND of its
    edges (and, when induced, of the complements of its non-edges)."""
    if pattern.n > n:
        return 0
    pedges = [(i - 1, j - 1) for i, j in pattern.edges()]
    seen = set()
    out = 0
    for image in permutations(range(n), pattern.n):
        edges = frozenset((min(image[p], image[q]), max(image[p], image[q]))
                          for p, q in pedges)
        key = (edges, frozenset(image) if induced else None)
        if key in seen:
            continue
        seen.add(key)
        t = ones
        for u, v in edges:
            t &= e[u][v]
        if induced:
            for u, v in combinations(sorted(image), 2):
                if (u, v) not in edges:
                    t &= ones ^ e[u][v]
        out |= t
        if out == ones:
            break
    return out


def _odd_cycle_mask(n: int, bits: int) -> bool:
    """True iff some component is not two-colorable."""
    return two_coloring(adjacency_masks(n, bits)) is None


def _odd_cycle_table(n: int, e: list[list[int]], ones: int) -> int:
    """The complement of the OR, over the 2-colorings that give vertex 0
    color 0, of "no edge inside a color class"; colorings grow one vertex at
    a time, carrying the masks that already have a monochromatic edge."""

    def bipartite(v: int, sides: int, mono: int) -> int:
        if mono == ones:
            return 0
        if v >= n:
            return ones ^ mono
        out = 0
        for side in (0, 1):
            m = mono
            for u in range(v):
                if sides >> u & 1 == side:
                    m |= e[u][v]
            out |= bipartite(v + 1, sides | side << v, m)
        return out

    return ones ^ bipartite(1, 0, 0)


# ---------------------------------------------------------------------------
# public operations


def is_connected(g: LabeledGraph) -> bool:
    """One component covering every vertex (isolated vertices disconnect)."""
    return CONNECTED.test(g)


def vertex_connectivity(g: LabeledGraph) -> int:
    """Minimum vertex cut size; n-1 for complete graphs."""
    CONNECTED._domain(g.n)
    return _kappa_mask(g.n, g.bits)


def is_k_connected(g: LabeledGraph, k: int) -> bool:
    return k_connected(k).test(g)


def has_hamiltonian_path(g: LabeledGraph) -> bool:
    return HAMPATH.test(g)


def has_hamiltonian_cycle(g: LabeledGraph) -> bool:
    return HAMCYCLE.test(g)


def has_spanning_star(g: LabeledGraph) -> bool:
    """Some vertex adjacent to all others (degree n-1)."""
    return STAR.test(g)


def _check_pattern(pattern: LabeledGraph, need_edge: bool) -> None:
    if pattern.n > PATTERN_CAP:
        raise CapabilityError(
            f"pattern on {pattern.n} vertices exceeds the cap {PATTERN_CAP}"
        )
    if need_edge and pattern.is_empty:
        raise DomainError("subgraph containment needs a pattern with an edge")


def contains_subgraph(g: LabeledGraph, pattern: LabeledGraph) -> bool:
    """Exact (not necessarily induced) subgraph isomorphism by backtracking."""
    return contains(pattern).test(g)


def contains_induced(g: LabeledGraph, pattern: LabeledGraph) -> bool:
    """Exact induced subgraph isomorphism by backtracking."""
    return contains_induced_pred(pattern).test(g)


def has_odd_cycle(g: LabeledGraph) -> bool:
    return ODDCYCLE.test(g)


# ---------------------------------------------------------------------------
# predicate objects


class _Kind(NamedTuple):
    """What every predicate of one ``Predicate.kind`` shares."""

    min_n: int  # smaller graphs raise DomainError(too_small)
    too_small: str
    ham_capped: bool  # subject to the Hamiltonicity cap
    kernel: Callable[[Predicate, int, int], bool]  # (predicate, n, bits)
    # (predicate, n, edge matrix, ones) -> truth table
    table: Callable[[Predicate, int, list[list[int]], int], int]
    # (predicate, n) -> an estimate of the big-int operations of one table
    ops: Callable[[Predicate, int], int]
    # monotone kinds only: (predicate, n, bits) -> an edge mask W within
    # bits on which the predicate holds, or None when it fails on bits; then
    # it holds on every graph that contains W
    witness: Callable[[Predicate, int, int], int | None] | None = None


_CONNECTIVITY_MIN = "connectivity needs at least 2 vertices"

_KINDS: dict[str, _Kind] = {
    "connected": _Kind(
        2, _CONNECTIVITY_MIN, False,
        lambda p, n, bits: _connected_mask(n, bits),
        lambda p, n, e, ones: _reach_table(n, e, ones, (1 << n) - 1),
        lambda p, n: n * n),
    "kconn": _Kind(
        2, _CONNECTIVITY_MIN, False,
        lambda p, n, bits: _is_k_connected_mask(n, bits, p.k),
        lambda p, n, e, ones: _kconn_table(n, e, ones, p.k),
        lambda p, n: sum(comb(n, s) for s in range(min(p.k, n + 1))) * n * n),
    "hampath": _Kind(
        2, "a Hamiltonian path needs at least 2 vertices", True,
        lambda p, n, bits: _hamiltonian_mask(n, bits, False) is not None,
        lambda p, n, e, ones: _ham_table(n, e, ones, False),
        lambda p, n: (1 << n) * n * n,
        lambda p, n, bits: _hamiltonian_mask(n, bits, False)),
    "hamcycle": _Kind(
        3, "a Hamiltonian cycle needs at least 3 vertices", True,
        lambda p, n, bits: _hamiltonian_mask(n, bits, True) is not None,
        lambda p, n, e, ones: _ham_table(n, e, ones, True),
        lambda p, n: (1 << n) * n * n,
        lambda p, n, bits: _hamiltonian_mask(n, bits, True)),
    "star": _Kind(
        2, "a spanning star needs at least 2 vertices", False,
        lambda p, n, bits: _spanning_star_mask(n, bits),
        lambda p, n, e, ones: _star_table(n, e, ones),
        lambda p, n: n * n),
    "contains": _Kind(
        0, "", False,
        lambda p, n, bits: _contains_mask(
            n, bits, p.pattern.n, p.pattern.bits, False) is not None,
        lambda p, n, e, ones: _contains_table(n, e, ones, p.pattern, False),
        lambda p, n: perm(n, p.pattern.n) * p.pattern.bits.bit_count(),
        lambda p, n, bits: _contains_mask(
            n, bits, p.pattern.n, p.pattern.bits, False)),
    "contains-induced": _Kind(
        0, "", False,
        lambda p, n, bits: _contains_mask(
            n, bits, p.pattern.n, p.pattern.bits, True) is not None,
        lambda p, n, e, ones: _contains_table(n, e, ones, p.pattern, True),
        lambda p, n: perm(n, p.pattern.n) * comb(p.pattern.n, 2)),
    "oddcycle": _Kind(
        0, "", False,
        lambda p, n, bits: _odd_cycle_mask(n, bits),
        lambda p, n, e, ones: _odd_cycle_table(n, e, ones),
        lambda p, n: (1 << n) * n // 2),
}


class Predicate(Frozen):
    """A named total boolean test on labeled graphs."""

    __slots__ = ("name", "kind", "k", "pattern")

    def __init__(self, name: str, kind: str, k: int | None = None,
                 pattern: LabeledGraph | None = None) -> None:
        if kind not in _KINDS:
            raise DomainError(f"unknown predicate kind {kind!r}")
        self._set(name, kind, k, pattern)

    def _domain(self, n: int) -> _Kind:
        """The kind's entry, once n is checked against its minimum and the
        Hamiltonicity cap."""
        kind = _KINDS[self.kind]
        if n < kind.min_n:
            raise DomainError(kind.too_small)
        if kind.ham_capped and n > _hamiltonian_cap:
            raise CapabilityError(
                f"n={n} exceeds the Hamiltonicity cap {_hamiltonian_cap}; "
                "raise it with set_hamiltonian_cap"
            )
        return kind

    def test_mask(self, n: int, bits: int) -> bool:
        return self._domain(n).kernel(self, n, bits)

    def table(self, n: int, block: int = 0, width: int | None = None,
              basis=None) -> int:
        """The verdicts on 2^width masks as one bitset: bit i is the verdict
        on the XOR of the ``basis`` rows at the set bits of
        ``block << width | i``.  ``basis`` defaults to the unit rows of the
        C(n, 2) slots, the whole mask space, so that bit i is the verdict on
        mask ``block << width | i``, and ``width`` defaults to the number of
        rows, the whole truth table.  The kind's formula over the bit
        columns of the block's edges (``bitslice.edge_matrix``) answers the
        whole block at once."""
        kind = self._domain(n)
        from .bitslice import edge_matrix

        if width is None:
            width = edge_slots(n) if basis is None else len(basis)
        e, ones = edge_matrix(n, block, width, basis)
        return kind.table(self, n, e, ones)

    def test(self, g: LabeledGraph) -> bool:
        return self.test_mask(g.n, g.bits)

    def __call__(self, g: LabeledGraph) -> bool:
        return self.test(g)


def k_connected(k: int) -> Predicate:
    if k < 1:
        raise DomainError("k must be at least 1")
    name = f"{k}conn" if k in (2, 3) else f"kconn:{k}"
    return Predicate(name, "kconn", k=k)


def contains(pattern: LabeledGraph, name: str | None = None) -> Predicate:
    _check_pattern(pattern, need_edge=True)
    return Predicate(name or f"sub:{pattern.n}v/{pattern.to_hex()}", "contains",
                     pattern=pattern)


def contains_induced_pred(pattern: LabeledGraph, name: str | None = None) -> Predicate:
    _check_pattern(pattern, need_edge=False)
    return Predicate(name or f"indsub:{pattern.n}v/{pattern.to_hex()}",
                     "contains-induced", pattern=pattern)


CONNECTED = Predicate("connected", "connected")
TWO_CONNECTED = k_connected(2)
THREE_CONNECTED = k_connected(3)
HAMPATH = Predicate("hampath", "hampath")
HAMCYCLE = Predicate("hamcycle", "hamcycle")
STAR = Predicate("star", "star")
ODDCYCLE = Predicate("oddcycle", "oddcycle")
K3 = contains(complete_graph(3), "k3")

# the named predicates, in the order of the theorem table (bounds.PREDICATES)
NAMED = {p.name: p for p in (CONNECTED, TWO_CONNECTED, THREE_CONNECTED,
                             HAMPATH, HAMCYCLE, STAR, K3, ODDCYCLE)}


def parse_predicate(text: str) -> Predicate:
    """Resolve a CLI predicate name.

    Accepted: connected, 2conn, 3conn, kconn:<k>, hampath, hamcycle, star,
    k3, oddcycle, sub:<pattern-file>, indsub:<pattern-file>; a pattern file
    holds exactly one graph (``family.load_graph``).
    """
    if text in NAMED:
        return NAMED[text]
    if text.startswith("kconn:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad k in {text!r}") from exc
        return k_connected(k)
    if text.startswith(("sub:", "indsub:")):
        from .family import load_graph

        prefix, path = text.split(":", 1)
        pattern = load_graph(path)
        if prefix == "sub":
            return contains(pattern, name=text)
        return contains_induced_pred(pattern, name=text)
    raise DomainError(f"unknown predicate {text!r}")
