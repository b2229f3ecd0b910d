"""Exact boolean graph tests used as family conditions.

All predicates are total on graphs with enough vertices and evaluate exactly;
there are no heuristics.  Each has a mask-level entry point so that verifiers
can test millions of symmetric differences without building graph objects.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    LabeledGraph,
    incidence_masks,
    adjacency_masks,
    complete_graph,
    edge_slots,
)
from .errors import CapabilityError, DomainError

DEFAULT_HAMILTONIAN_CAP = 16
PATTERN_CAP = 8

_hamiltonian_cap = DEFAULT_HAMILTONIAN_CAP


def hamiltonian_cap() -> int:
    return _hamiltonian_cap


def set_hamiltonian_cap(limit: int) -> None:
    """Raise or lower the vertex cap for Hamiltonicity backtracking."""
    global _hamiltonian_cap
    if limit < 3:
        raise DomainError("cap must be at least 3")
    _hamiltonian_cap = limit


# ---------------------------------------------------------------------------
# connectivity


def _connected_from_adj(adj: list[int], full: int) -> bool:
    reached = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~reached
        reached |= frontier
    return reached == full


def _connected_mask(n: int, bits: int) -> bool:
    return _connected_from_adj(adjacency_masks(n, bits), (1 << n) - 1)


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


# ---------------------------------------------------------------------------
# Hamiltonicity (exact backtracking with reachability pruning)


def _ham_reach_ok(adj: list[int], cur: int, unvisited: int) -> bool:
    reach = adj[cur] & unvisited
    if reach != unvisited:
        if not reach:
            return False
        frontier = reach
        while frontier:
            nxt = 0
            m = frontier
            while m:
                lowbit = m & -m
                nxt |= adj[lowbit.bit_length() - 1]
                m ^= lowbit
            frontier = nxt & unvisited & ~reach
            reach |= frontier
        if reach != unvisited:
            return False
    return True


def _ham_cycle_mask(n: int, bits: int) -> bool:
    adj = adjacency_masks(n, bits)
    full = (1 << n) - 1
    if any(a.bit_count() < 2 for a in adj):
        return False
    if not _connected_from_adj(adj, full):
        return False

    def rec(cur: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[cur] & 1)
        unvisited = full & ~visited
        if not _ham_reach_ok(adj, cur, unvisited):
            return False
        avail = unvisited | (1 << cur) | 1
        m = unvisited
        while m:
            lowbit = m & -m
            if (adj[lowbit.bit_length() - 1] & avail).bit_count() < 2:
                return False
            m ^= lowbit
        cand = adj[cur] & unvisited
        while cand:
            lowbit = cand & -cand
            if rec(lowbit.bit_length() - 1, visited | lowbit):
                return True
            cand ^= lowbit
        return False

    return rec(0, 1)


def _ham_path_mask(n: int, bits: int) -> bool:
    adj = adjacency_masks(n, bits)
    full = (1 << n) - 1
    if not _connected_from_adj(adj, full):
        return False
    if n <= 2:
        return True

    def rec(cur: int, visited: int) -> bool:
        if visited == full:
            return True
        unvisited = full & ~visited
        if not _ham_reach_ok(adj, cur, unvisited):
            return False
        cand = adj[cur] & unvisited
        while cand:
            lowbit = cand & -cand
            if rec(lowbit.bit_length() - 1, visited | lowbit):
                return True
            cand ^= lowbit
        return False

    return any(rec(s, 1 << s) for s in range(n))


# ---------------------------------------------------------------------------
# spanning star, subgraph containment, odd cycles


def _spanning_star_mask(n: int, bits: int) -> bool:
    for inc in incidence_masks(n):
        if bits & inc == inc:
            return True
    return False


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


def _contains_mask(n: int, bits: int, pn: int, pbits: int, induced: bool) -> bool:
    if pn > n:
        return False
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

    return place(0, 0)


def _odd_cycle_mask(n: int, bits: int) -> bool:
    """True iff some component is not two-colorable."""
    adj = adjacency_masks(n, bits)
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            m = adj[v]
            while m:
                lowbit = m & -m
                u = lowbit.bit_length() - 1
                m ^= lowbit
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    dq.append(u)
                elif color[u] == color[v]:
                    return True
    return False


# ---------------------------------------------------------------------------
# public operations


def is_connected(g: LabeledGraph) -> bool:
    """One component covering every vertex (isolated vertices disconnect)."""
    return CONNECTED.test(g)


def vertex_connectivity(g: LabeledGraph) -> int:
    """Minimum vertex cut size; n-1 for complete graphs."""
    if g.n < 2:
        raise DomainError("connectivity needs at least 2 vertices")
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


_CONNECTIVITY_MIN = "connectivity needs at least 2 vertices"

_KINDS: dict[str, _Kind] = {
    "connected": _Kind(2, _CONNECTIVITY_MIN, False,
                       lambda p, n, bits: _connected_mask(n, bits)),
    "kconn": _Kind(2, _CONNECTIVITY_MIN, False,
                   lambda p, n, bits: _is_k_connected_mask(n, bits, p.k)),
    "hampath": _Kind(2, "a Hamiltonian path needs at least 2 vertices", True,
                     lambda p, n, bits: _ham_path_mask(n, bits)),
    "hamcycle": _Kind(3, "a Hamiltonian cycle needs at least 3 vertices", True,
                      lambda p, n, bits: _ham_cycle_mask(n, bits)),
    "star": _Kind(2, "a spanning star needs at least 2 vertices", False,
                  lambda p, n, bits: _spanning_star_mask(n, bits)),
    "contains": _Kind(0, "", False, lambda p, n, bits: _contains_mask(
        n, bits, p.pattern.n, p.pattern.bits, False)),
    "contains-induced": _Kind(0, "", False, lambda p, n, bits: _contains_mask(
        n, bits, p.pattern.n, p.pattern.bits, True)),
    "oddcycle": _Kind(0, "", False, lambda p, n, bits: _odd_cycle_mask(n, bits)),
}


@dataclass(frozen=True, slots=True)
class Predicate:
    """A named total boolean test on labeled graphs."""

    name: str
    kind: str
    k: int | None = None
    pattern: LabeledGraph | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown predicate kind {self.kind!r}")

    def test_mask(self, n: int, bits: int) -> bool:
        min_n, too_small, ham_capped, kernel = _KINDS[self.kind]
        if n < min_n:
            raise DomainError(too_small)
        if ham_capped and n > _hamiltonian_cap:
            raise CapabilityError(
                f"n={n} exceeds the Hamiltonicity cap {_hamiltonian_cap}; "
                "raise it with set_hamiltonian_cap"
            )
        return kernel(self, n, bits)

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


def parse_predicate(text: str, pattern_loader=None) -> Predicate:
    """Resolve a CLI predicate name.

    Accepted: connected, 2conn, 3conn, kconn:<k>, hampath, hamcycle, star,
    k3, oddcycle, sub:<pattern-file>, indsub:<pattern-file>.
    """
    fixed = {
        "connected": CONNECTED,
        "2conn": TWO_CONNECTED,
        "3conn": THREE_CONNECTED,
        "hampath": HAMPATH,
        "hamcycle": HAMCYCLE,
        "star": STAR,
        "k3": K3,
        "oddcycle": ODDCYCLE,
    }
    if text in fixed:
        return fixed[text]
    if text.startswith("kconn:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad k in {text!r}") from exc
        return k_connected(k)
    if text.startswith(("sub:", "indsub:")):
        prefix, path = text.split(":", 1)
        if pattern_loader is None:
            pattern_loader = _default_pattern_loader
        pattern = pattern_loader(path)
        if prefix == "sub":
            return contains(pattern, name=text)
        return contains_induced_pred(pattern, name=text)
    raise DomainError(f"unknown predicate {text!r}")


def _default_pattern_loader(path: str) -> LabeledGraph:
    from .family import load_family

    loaded = load_family(path)
    if len(loaded.graphs) != 1:
        raise DomainError(f"pattern file {path} must hold exactly one graph")
    return loaded.graphs[0]
