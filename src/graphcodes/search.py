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
from dataclasses import dataclass

from . import bitslice
from .core import LabeledGraph, edge_slots
from .errors import CapabilityError, DomainError
from .family import GraphFamily
from .linalg import gf2_ordered_basis, ordered_span
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
    # wall time per phase, in seconds: classify, adjacency and clique for
    # compatibility searches, classify and basis for linear ones
    phase_seconds: dict[str, float] | None = None


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

    def spend(self, count: int = 1) -> None:
        """Count ``count`` expanded nodes, as ``count`` single steps would:
        the node that would exceed the budget raises instead and is not
        counted, the ones before it are.  The deadline is read at the nodes
        whose count is a multiple of 1024 (once per call), and a passed
        deadline stops the count just before the first of them."""
        nodes = self.nodes + count
        if nodes > self.limit:
            self.nodes = self.limit
            raise _BudgetExhausted
        if (
            self.deadline is not None
            and nodes >> 10 != self.nodes >> 10
            and time.perf_counter() > self.deadline
        ):
            self.nodes |= 1023
            raise _BudgetExhausted
        self.nodes = nodes


def _max_clique(
    adj: list[int],
    budget: _Budget,
    floor: int = 0,
    cap: int | None = None,
    start: int | None = None,
) -> tuple[list[int], bool]:
    """Deterministic branch and bound (greedy coloring bound) over the
    vertices in the bitset ``start`` (default: every index of ``adj``), in
    index order.  ``adj[v]`` is the neighbor bitset of vertex v; only its
    bits inside ``start`` are ever read.  Returns (clique, exhausted): the
    clique, as vertex indices in the order chosen, is a maximum one unless
    the budget ran out, then the incumbent.

    Each node colors its candidate set p with bitsets (San Segundo et al.,
    Computers & OR 38, 2011), one color class at a time: a class is the
    greedy maximal independent set, in index order, of the vertices not yet
    colored.  These are exactly the classes that first-fit coloring in index
    order builds (a vertex joins the first class holding none of its
    neighbors), so the bounds and the branching order -- highest color
    first, highest index first within a class -- are those of first-fit
    coloring sorted by color.  Only the relative order of the vertices
    matters, so the search on ``start`` is the search on the subgraph it
    induces, relabeled in index order.

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

    if start is None:
        start = (1 << len(adj)) - 1
    exhausted = False
    try:
        if start:
            expand([], start)
    except _BudgetExhausted:
        exhausted = True
    except _CapReached:
        pass
    return best, exhausted


def _candidates(n: int, pred: Predicate, expect: bool) -> int:
    """The nonzero masks whose predicate verdict is ``expect``, as one bitset
    over all 2^C(n,2) masks: the predicate's truth table, complemented for
    ``expect`` False.  Bit 0, the empty graph, is never a difference of two
    distinct candidates and stays clear."""
    table = pred.table(n)
    if not expect:
        table ^= (1 << (1 << edge_slots(n))) - 1
    return table & ~1


def _translated_rows(n: int, table: int) -> list[int]:
    """``rows[c]`` is the bitset of the candidates whose difference with
    candidate c is a candidate too, and 0 for a mask c that is not one.
    That row is the table translated by c (bit m set iff bit m ^ c is) and
    masked with the table: the graph is a Cayley graph of Z_2^C(n,2).  The
    translates are produced in Gray-code order of c, each from the one
    before by swapping the blocks of width 2^s whose masks differ in bit s,
    so every row costs a few big-int operations."""
    slots = edge_slots(n)
    cols = bitslice.slot_columns(slots)
    rows = [0] * (1 << slots)
    x = table
    for k in range(1, len(rows)):
        s = (k & -k).bit_length() - 1  # the Gray code flips bit s at step k
        w, high = 1 << s, cols[s]
        x = (x & high) >> w | (x & ~high) << w
        c = k ^ (k >> 1)
        if table >> c & 1:
            rows[c] = x & table
    return rows


def _compatibility_graph(
    n: int, pred: Predicate, expect: bool
) -> tuple[int, list[int]]:
    """(table, rows) of the compatibility graph on the candidates, the
    nonzero masks whose predicate verdict is ``expect``: the table from one
    evaluation of the predicate's truth-table formula (``_candidates``) and
    the rows by translating it (``_translated_rows``)."""
    table = _candidates(n, pred, expect)
    return table, _translated_rows(n, table)


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
    t0 = time.perf_counter()
    table = _candidates(n, pred, expect)
    t1 = time.perf_counter()
    rows = _translated_rows(n, table)
    t2 = time.perf_counter()
    lower, upper = _theorem_seed(pred, n) if mode == "good" else (None, None)
    # in clique sizes, which leave out the pinned empty graph: beating
    # lower - 2 means reaching a family as large as the construction
    floor = max(lower - 2, 0) if lower is not None else 0
    cap = upper - 1 if upper is not None else None
    budget = _Budget(budget_nodes, time_ms)
    t3 = time.perf_counter()
    clique, exhausted = _max_clique(rows, budget, floor, cap, table)
    t4 = time.perf_counter()
    if floor and not exhausted and not clique:
        raise RuntimeError(
            f"internal error: the theorem row of {pred.name} at n={n} claims "
            f"a family of {lower}, but the exact search found none that large"
        )
    status = "timeout" if exhausted else "exact"
    masks = sorted([0] + clique)
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
        candidates=table.bit_count(),
        compat_edges=sum(r.bit_count() for r in rows) // 2,
        size_floor=lower,
        size_cap=upper,
        phase_seconds={"classify": t1 - t0, "adjacency": t2 - t1,
                       "clique": t4 - t3},
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


class _VerdictBlocks(dict):
    """The masks in blocks of 2^width: ``blocks[b][i]`` is "1" iff mask
    b << width | i satisfies the predicate.  Each block is classified from
    the predicate's truth table on first use, and ``seconds`` sums the time
    that takes.  The empty graph is never a candidate: a basis vector g
    inside the span puts it into span + g, and g is refused even where the
    predicate holds on the empty graph."""

    def __init__(self, n: int, pred: Predicate, width: int):
        super().__init__()
        self.n, self.pred, self.width = n, pred, width
        self.seconds = 0.0

    def __missing__(self, b: int) -> str:
        t = time.perf_counter()
        table = self.pred.table(self.n, b, self.width)
        if b == 0:
            table &= ~1
        verdicts = self[b] = format(table, f"0{1 << self.width}b")[::-1]
        self.seconds += time.perf_counter() - t
        return verdicts


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
    cap = linear_rank_bound(pred, n)
    if max_rank is not None:
        cap = max_rank if cap is None else min(cap, max_rank)
    if cap is None:
        cap = slots
    budget = _Budget(budget_nodes, time_ms)
    began = time.perf_counter()
    # blocks of 2^BLOCK_WIDTH, so a budgeted search at n = 8 builds only the
    # blocks it reaches
    width = min(slots, bitslice.BLOCK_WIDTH)
    low = (1 << width) - 1
    top = 1 << slots
    blocks = _VerdictBlocks(n, pred, width)
    blocks[0]  # checks n against the predicate's domain before any search
    frontier = 1  # every mask below it has been probed

    def next_candidate(at_least: int) -> int | None:
        # the least satisfying mask >= at_least; each mask probed past the
        # frontier costs one node, spent a block at a time
        nonlocal frontier
        m = at_least
        while m < top:
            b = m >> width
            i = blocks[b].find("1", m & low)
            end = (b + 1) << width if i < 0 else (b << width | i) + 1
            if end > frontier:
                budget.spend(end - frontier)
                frontier = end
            if i >= 0:
                return end - 1
            m = end
        return None

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
            for s in span:
                x = s ^ g
                if blocks[x >> width][x & low] != "1":
                    break
            else:
                extend(basis + [g], span + [s ^ g for s in span], g + 1)

    status = "exact"
    try:
        extend([], [0], 1)
    except _BudgetExhausted:
        status = "timeout"
    rows = gf2_ordered_basis(best_basis)
    masks = ordered_span(rows)
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
        phase_seconds={"classify": blocks.seconds,
                       "basis": time.perf_counter() - began - blocks.seconds},
    )
