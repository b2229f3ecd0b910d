"""Exact extremal search over all 2^C(n,2) labeled graphs.

The compatibility graph has every labeled graph as a vertex, with two graphs
adjacent when their symmetric difference satisfies the predicate.  Maximum
good families are its cliques and maximum dual families its independent sets;
both searches exploit translation symmetry (XOR by a member maps families to
families), so the optimum may be assumed to contain the empty graph and the
search runs on the graphs satisfying (or violating) the predicate alone.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

from .core import LabeledGraph, edge_slots
from .errors import CapabilityError, DomainError
from .family import GraphFamily
from .linalg import gf2_reduced_basis, gray_span
from .predicates import Predicate
from . import bounds

GOOD_EXACT_LIMIT = 5
DUAL_EXACT_LIMIT = 4
LINEAR_LIMIT = 8
DEFAULT_BUDGET_NODES = 10**8


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Optimum (or best-so-far on timeout) with a verifiable certificate."""

    optimum: int
    certificate: GraphFamily
    explored: int
    status: str  # "exact" | "timeout"
    rank: int | None = None
    # compatibility searches only: graphs classified as candidates, and the
    # edges of the compatibility graph among them
    candidates: int | None = None
    compat_edges: int | None = None
    # good searches on a named predicate: the family sizes of its theorem
    # row the search started from (the construction) and stopped at (the
    # proven bound), None where the row has no such value
    size_floor: int | None = None
    size_cap: int | None = None


class _BudgetExhausted(Exception):
    pass


class _CapReached(Exception):
    pass


class _Budget:
    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, budget_nodes: int | None, time_ms: int | None):
        if budget_nodes is not None and budget_nodes < 0:
            raise DomainError("the node budget must be at least 0")
        if time_ms is not None and time_ms < 0:
            raise DomainError("the time budget must be at least 0 ms")
        self.nodes = 0
        self.limit = budget_nodes if budget_nodes is not None else DEFAULT_BUDGET_NODES
        self.deadline = (
            time.perf_counter() + time_ms / 1000.0 if time_ms is not None else None
        )

    def spend(self) -> None:
        """Count one expanded node; the node that would exceed the budget
        raises instead and is not counted."""
        nodes = self.nodes + 1
        if nodes > self.limit:
            raise _BudgetExhausted
        if (
            self.deadline is not None
            and nodes % 1024 == 0
            and time.perf_counter() > self.deadline
        ):
            raise _BudgetExhausted
        self.nodes = nodes


def _max_clique(
    adj: list[int], budget: _Budget, floor: int = 0, cap: int | None = None
) -> tuple[list[int], bool]:
    """Deterministic branch and bound (greedy coloring bound) over vertices
    0..len(adj)-1 in index order.  Returns (clique, exhausted): the clique is
    a maximum one unless the budget ran out, then the incumbent.

    Each node colors its candidate set p with bitsets (San Segundo et al.,
    Computers & OR 38, 2011), one color class at a time: a class is the
    greedy maximal independent set, in index order, of the vertices not yet
    colored.  These are exactly the classes that first-fit coloring in index
    order builds (a vertex joins the first class holding none of its
    neighbors), so the bounds and the branching order -- highest color
    first, highest index first within a class -- are those of first-fit
    coloring sorted by color.

    Only cliques larger than ``floor`` are sought: a subtree is pruned when
    its bound is at most max(floor, len(best)).  The incumbent never changes
    the branching order, so a floor below the clique number prunes only
    subtrees without a maximum clique, and the first maximum clique in
    depth-first order is still the one returned; with a floor at or above
    the clique number the clique comes back empty.  The search stops as soon
    as the clique reaches ``cap``, a proven bound on the clique number."""
    best: list[int] = []
    size = floor  # max(floor, len(best))
    nadj = [~a for a in adj]

    def expand(r: list[int], p: int) -> None:
        nonlocal best, size
        budget.spend()
        depth = len(r)
        # classes with color <= size - depth are never branched on (size
        # only grows), so they are colored but not kept
        skip = size - depth
        classes: list[int] = []
        color = 0
        q = p
        while q:
            color += 1
            avail = start = q
            while avail:
                low = avail & -avail
                q ^= low
                avail = (avail ^ low) & nadj[low.bit_length() - 1]
            if color > skip:
                classes.append(start ^ q)
        while classes:
            members = classes.pop()
            while members:
                if depth + color <= size:
                    return
                v = members.bit_length() - 1
                bit = 1 << v
                r.append(v)
                nxt = p & adj[v]
                if nxt:
                    expand(r, nxt)
                elif depth + 1 > size:
                    best = r.copy()
                    size = depth + 1
                    if cap is not None and size >= cap:
                        raise _CapReached
                r.pop()
                p ^= bit
                members ^= bit
            color -= 1

    exhausted = False
    try:
        if adj:
            expand([], (1 << len(adj)) - 1)
    except _BudgetExhausted:
        exhausted = True
    except _CapReached:
        pass
    return best, exhausted


def _compatibility_graph(
    n: int, pred: Predicate, expect: bool
) -> tuple[list[int], list[int]]:
    """(candidates, adjacency): the nonzero masks whose predicate verdict is
    ``expect``, ascending, and for each one the bitset of the candidates
    whose difference with it has that verdict too."""
    slots = edge_slots(n)
    test = pred.test_mask
    # one predicate call per mask: table[d] says whether difference d is
    # admissible, and the adjacency is read off it (the empty graph is never
    # a difference of two distinct candidates, so it is not tested)
    table = [False] + [test(n, m) == expect for m in range(1, 1 << slots)]
    cands = [m for m in range(1, 1 << slots) if table[m]]
    adj = [0] * len(cands)
    for i, ci in enumerate(cands):
        for j in range(i + 1, len(cands)):
            if table[ci ^ cands[j]]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return cands, adj


def _theorem_seed(pred: Predicate, n: int) -> tuple[int | None, int | None]:
    """(lower, upper): the family sizes a good search on this predicate may
    start from and stop at.  ``lower`` is the size of the theorem row's
    construction and ``upper`` its proven bound, kept only where it covers
    every family (the 3conn row caps linear families alone); None where
    there is no row or no such value."""
    if pred.name not in bounds.PREDICATES:
        return None, None
    rep = bounds.bound_report(pred.name, n)
    return rep.lower, rep.upper if rep.predicate == pred.name else None


def _compatibility_search(
    n: int, pred: Predicate, expect: bool, budget_nodes, time_ms, mode: str
) -> SearchResult:
    cands, adj = _compatibility_graph(n, pred, expect)
    lower, upper = _theorem_seed(pred, n) if mode == "good" else (None, None)
    # in clique sizes, which leave out the pinned empty graph: beating
    # lower - 2 means reaching a family as large as the construction
    floor = max(lower - 2, 0) if lower is not None else 0
    cap = upper - 1 if upper is not None else None
    budget = _Budget(budget_nodes, time_ms)
    clique, exhausted = _max_clique(adj, budget, floor, cap)
    if floor and not exhausted and not clique:
        raise RuntimeError(
            f"internal error: the theorem row of {pred.name} at n={n} claims "
            f"a family of {lower}, but the exact search found none that large"
        )
    status = "timeout" if exhausted else "exact"
    masks = sorted([0] + [cands[i] for i in clique])
    certificate = GraphFamily(
        n,
        tuple(LabeledGraph(n, m) for m in masks),
        provenance={"construction": "search", "mode": mode,
                     "predicate": pred.name, "n": n},
    )
    return SearchResult(
        optimum=len(masks),
        certificate=certificate,
        explored=budget.nodes,
        status=status,
        candidates=len(cands),
        compat_edges=sum(a.bit_count() for a in adj) // 2,
        size_floor=lower,
        size_cap=upper,
    )


def max_good_family(
    n: int,
    pred: Predicate,
    budget_nodes: int | None = None,
    time_ms: int | None = None,
) -> SearchResult:
    """Exact largest family whose pairwise differences satisfy the predicate.

    Translation symmetry pins the empty graph into the family, so this is
    1 + the clique number among the predicate-satisfying graphs.

    A named predicate's theorem row seeds the search: it looks only for
    families at least as large as the row's construction (``size_floor``)
    and stops once it reaches the row's upper bound (``size_cap``), where
    that bound covers every family.  The certificate is the one an unseeded
    search finds.  So a search that times out has searched only at or above
    the construction's size; its incumbent may then be the empty graph
    alone, and ``build`` gives the construction's family."""
    if n > GOOD_EXACT_LIMIT:
        raise CapabilityError(
            f"exact good-family search is limited to n <= {GOOD_EXACT_LIMIT}"
        )
    if n < 2:
        raise DomainError("need n >= 2")
    return _compatibility_search(n, pred, True, budget_nodes, time_ms, "good")


def max_dual_family(
    n: int,
    pred: Predicate,
    budget_nodes: int | None = None,
    time_ms: int | None = None,
) -> SearchResult:
    """Exact largest family with no pairwise difference satisfying the
    predicate: a maximum independent set of the compatibility graph, found
    as a clique among the predicate-violating graphs."""
    if n > DUAL_EXACT_LIMIT:
        raise CapabilityError(
            f"exact dual-family search is limited to n <= {DUAL_EXACT_LIMIT}"
        )
    if n < 2:
        raise DomainError("need n >= 2")
    return _compatibility_search(n, pred, False, budget_nodes, time_ms, "dual")


def linear_rank_bound(pred: Predicate, n: int) -> int | None:
    """A proven cap on the rank of a linear family for this predicate, where
    one is known; used to stop the basis search early.  The named predicates
    take it from their theorem row, clique patterns from Turan's theorem."""
    if pred.name in bounds.PREDICATES:
        return bounds.bound_report(pred.name, n).upper.bit_length() - 1
    if pred.kind == "contains" and pred.pattern is not None:
        p = pred.pattern
        if p.bits == (1 << edge_slots(p.n)) - 1:  # clique pattern
            return bounds.subgraph_upper_bound(n, p.n)
    return None


def max_linear_family(
    n: int,
    pred: Predicate,
    max_rank: int | None = None,
    budget_nodes: int | None = None,
    time_ms: int | None = None,
) -> SearchResult:
    """Depth-first search for the largest-rank family closed under symmetric
    difference whose nonzero members all satisfy the predicate.

    Bases grow in ascending edge-vector order; a basis extension by g is
    admitted when every element of span + g satisfies the predicate.  Where a
    theorem caps the achievable rank, reaching the cap proves optimality."""
    if n > LINEAR_LIMIT:
        raise CapabilityError(f"linear search is limited to n <= {LINEAR_LIMIT}")
    if n < 2:
        raise DomainError("need n >= 2")
    slots = edge_slots(n)
    test = pred.test_mask
    cap = linear_rank_bound(pred, n)
    if max_rank is not None:
        cap = max_rank if cap is None else min(cap, max_rank)
    if cap is None:
        cap = slots
    budget = _Budget(budget_nodes, time_ms)

    # lazily discovered predicate-satisfying masks, ascending; every mask
    # below scan_state[0] has been classified
    cand_cache: list[int] = []
    scan_state = [1]

    def next_candidate(at_least: int) -> int | None:
        idx = bisect_left(cand_cache, at_least)
        if idx < len(cand_cache):
            return cand_cache[idx]
        probe = scan_state[0]
        top = 1 << slots
        while probe < top:
            budget.spend()
            m = probe
            probe += 1
            scan_state[0] = probe
            if test(n, m):
                cand_cache.append(m)
                if m >= at_least:
                    return m
        return None

    def satisfies(m: int) -> bool:
        # below the scan frontier a mask satisfies the predicate iff it was
        # cached, so only unclassified masks reach the kernel.  The empty
        # graph is never cached: a g inside the span puts it into span + g,
        # and g is refused even where the predicate holds on the empty graph
        if m < scan_state[0]:
            idx = bisect_left(cand_cache, m)
            return idx < len(cand_cache) and cand_cache[idx] == m
        return test(n, m)

    best_basis: list[int] = []
    done = False

    def extend(basis: list[int], span: list[int], start: int) -> None:
        nonlocal best_basis, done
        if len(basis) > len(best_basis):
            best_basis = basis.copy()
            if len(best_basis) >= cap:
                done = True
                return
        if len(basis) + 1 > cap:
            return
        at_least = start
        while not done:
            g = next_candidate(at_least)
            if g is None:
                return
            at_least = g + 1
            budget.spend()
            new = [s ^ g for s in span]
            if all(satisfies(x) for x in new):
                extend(basis + [g], span + new, g + 1)

    status = "exact"
    try:
        extend([], [0], 1)
    except _BudgetExhausted:
        status = "timeout"
    rows = gf2_reduced_basis(best_basis)
    masks = sorted(gray_span(rows))
    certificate = GraphFamily(
        n,
        tuple(LabeledGraph(n, m) for m in masks),
        provenance={"construction": "search", "mode": "linear",
                     "predicate": pred.name, "n": n},
    )
    return SearchResult(
        optimum=len(masks),
        certificate=certificate,
        explored=budget.nodes,
        status=status,
        rank=len(rows),
    )
