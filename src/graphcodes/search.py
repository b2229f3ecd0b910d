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

from . import bitslice, core
from .core import Frozen, LabeledGraph, edge_slots
from .errors import CapabilityError, DomainError
from .family import GraphFamily
from .linalg import gf2_ordered_basis, ordered_span
from .predicates import NAMED, Predicate
from . import bounds

GOOD_EXACT_LIMIT = 5
DUAL_EXACT_LIMIT = 4
LINEAR_LIMIT = 8
DEFAULT_BUDGET_NODES = 10**8


class SearchResult(Frozen):
    """Optimum (or best-so-far on timeout) with a verifiable certificate."""

    __slots__ = ("optimum", "certificate", "explored", "status", "rank",
                 "candidates", "compat_edges", "size_floor", "size_cap",
                 "phase_seconds")

    def __init__(
        self,
        optimum: int,
        certificate: GraphFamily,
        # budget nodes spent: branch-and-bound nodes expanded in
        # compatibility searches, candidate-set blocks built in linear ones
        explored: int,
        status: str,  # "exact" | "timeout"
        rank: int | None = None,
        # compatibility searches only: graphs classified as candidates, and
        # the edges of the compatibility graph among them
        candidates: int | None = None,
        compat_edges: int | None = None,
        # good searches on a named predicate: the family sizes of its
        # theorem row the search started from (the construction) and
        # stopped at (the proven bound), None where the row has no such value
        size_floor: int | None = None,
        size_cap: int | None = None,
        # wall time per phase, in seconds: classify, adjacency and clique
        # for compatibility searches, classify and basis for linear ones
        phase_seconds: dict[str, float] | None = None,
    ) -> None:
        self._set(optimum, certificate, explored, status, rank, candidates,
                  compat_edges, size_floor, size_cap, phase_seconds)


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
        """Count one expanded node.  The node that would exceed the budget,
        or start past the deadline, raises instead and is not counted."""
        if self.nodes >= self.limit or (
            self.deadline is not None and time.perf_counter() > self.deadline
        ):
            raise _BudgetExhausted
        self.nodes += 1


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
    before by ``bitslice.translate`` by the one bit the code flips, so every
    row costs a few big-int operations."""
    slots = edge_slots(n)
    rows = [0] * (1 << slots)
    x = table
    for k in range(1, len(rows)):
        x = bitslice.translate(x, k & -k, slots)
        c = k ^ (k >> 1)
        if table >> c & 1:
            rows[c] = x & table
    return rows


def _theorem_seed(pred: Predicate, n: int) -> tuple[int | None, int | None]:
    """(lower, upper): the family sizes a good search on this predicate may
    start from and stop at.  ``lower`` is the size of the theorem row's
    construction and ``upper`` its proven bound, kept only where it covers
    every family (the 3conn row caps linear families alone); None where
    there is no row or no such value.  Only a predicate equal to a named
    one has a row: a name alone may label any test."""
    if NAMED.get(pred.name) != pred:
        return None, None
    rep = bounds.bound_report(pred.name, n)
    return rep.lower, rep.upper if rep.predicate == pred.name else None


def _check_n(n: int, limit: int, search: str) -> None:
    """Refuse n past the search's limit, then n below 2."""
    if n > limit:
        raise CapabilityError(f"{search} search is limited to n <= {limit}")
    if n < 2:
        raise DomainError("need n >= 2")


def _result(n: int, pred: Predicate, mode: str, masks: list[int],
            budget: _Budget, status: str, **counters) -> SearchResult:
    """The search's result, its certificate the family of ``masks``."""
    certificate = GraphFamily(
        n,
        tuple(LabeledGraph(n, m) for m in masks),
        provenance={"construction": "search", "mode": mode,
                     "predicate": pred.name, "n": n},
    )
    return SearchResult(optimum=len(masks), certificate=certificate,
                        explored=budget.nodes, status=status, **counters)


def _compatibility_search(
    n: int, pred: Predicate, mode: str, budget_nodes, time_ms
) -> SearchResult:
    good = mode == "good"
    _check_n(n, GOOD_EXACT_LIMIT if good else DUAL_EXACT_LIMIT,
             f"exact {mode}-family")
    t0 = time.perf_counter()
    table = _candidates(n, pred, good)
    t1 = time.perf_counter()
    rows = _translated_rows(n, table)
    t2 = time.perf_counter()
    lower, upper = _theorem_seed(pred, n) if good else (None, None)
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
    return _result(
        n, pred, mode, sorted([0] + clique), budget,
        "timeout" if exhausted else "exact",
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

    The theorem row of a predicate equal to a named one seeds the search:
    it looks only for families at least as large as the row's construction
    (``size_floor``) and stops once it reaches the row's upper bound
    (``size_cap``), where that bound covers every family.  The certificate
    is the one an unseeded search finds.  So a search that times out has
    searched only at or above the construction's size; its incumbent may
    then be the empty graph alone, and ``build`` gives the construction's
    family."""
    return _compatibility_search(n, pred, "good", budget_nodes, time_ms)


def max_dual_family(
    n: int,
    pred: Predicate,
    budget_nodes: int | None = None,
    time_ms: int | None = None,
) -> SearchResult:
    """Exact largest family with no pairwise difference satisfying the
    predicate: a maximum independent set of the compatibility graph, found
    as a clique among the predicate-violating graphs."""
    return _compatibility_search(n, pred, "dual", budget_nodes, time_ms)


def linear_rank_bound(pred: Predicate, n: int) -> int | None:
    """A proven cap on the rank of a linear family for this predicate, where
    one is known; used to stop the basis search early.  A predicate equal to
    a named one takes it from its theorem row, clique patterns from Turan's
    theorem."""
    if NAMED.get(pred.name) == pred:
        return bounds.bound_report(pred.name, n).upper.bit_length() - 1
    if pred.kind == "contains" and pred.pattern is not None:
        p = pred.pattern
        if p.bits == (1 << edge_slots(p.n)) - 1:  # clique pattern
            return bounds.subgraph_upper_bound(n, p.n)
    return None


def max_linear_family(
    n: int,
    pred: Predicate,
    budget_nodes: int | None = None,
    time_ms: int | None = None,
) -> SearchResult:
    """Depth-first search for the largest-rank family closed under symmetric
    difference whose nonzero members all satisfy the predicate.

    A node is a subspace V with its candidate set C_V = {x : x ^ v satisfies
    the predicate for every v in V}, so V + g is admissible exactly when g
    lies in C_V, and C_{V+g} = C_V & (C_V translated by g).  C_V is kept in
    blocks of 2^``core.BLOCK_WIDTH`` masks, each built on first read:
    at the root from the truth table, without the empty graph (so no g lies
    inside V), below it from two blocks of the parent.  The next generator
    is the least candidate above the last one that is clear at every pivot
    (highest bit) of V's generators, the least element of g + V: each
    subspace is reached once, through its basis reduced on highest bits,
    and the first one reached at each rank is the one the search over every
    ascending basis found.  A generator whose pivot leaves too few slots
    above it to beat the best rank ends the node.  Where a theorem caps the
    achievable rank, reaching the cap proves optimality.

    ``explored`` counts the blocks built, one budget node each at every n,
    so a budgeted search stops at other incumbents than the mask-probing
    search it replaced."""
    _check_n(n, LINEAR_LIMIT, "linear")
    pred._domain(n)
    slots = edge_slots(n)
    cap = linear_rank_bound(pred, n)
    if cap is None:
        cap = slots
    budget = _Budget(budget_nodes, time_ms)
    began = time.perf_counter()
    width = min(slots, core.BLOCK_WIDTH)
    cols = bitslice.slot_columns(width)
    classify = 0.0

    def root(b: int) -> int:
        nonlocal classify
        t = time.perf_counter()
        x = pred.table(n, b, width)
        classify += time.perf_counter() - t
        return x & ~1 if b == 0 else x

    def node(parent, g: int):
        # C_{V+g} from the parent's C_V (the root's without a parent)
        built: dict[int, int] = {}
        high, shift = g >> width, g & (1 << width) - 1

        def block(b: int) -> int:
            if b not in built:
                budget.spend()
                built[b] = root(b) if parent is None else parent(b) & \
                    bitslice.translate(parent(b ^ high), shift, width)
            return built[b]

        return block

    best: list[int] = []

    def extend(basis: list[int], cands, start: int) -> None:
        nonlocal best
        if len(basis) > len(best):
            best = basis.copy()
            if len(best) >= cap:
                raise _CapReached
        if len(basis) >= cap:
            return
        pivots = sum(1 << g.bit_length() - 1 for g in basis)
        keep = -1  # the masks of a block clear at every low pivot
        for p in range(width):
            if pivots >> p & 1:
                keep &= ~cols[p]
        for b in range(start >> width, 1 << slots - width):
            if b & pivots >> width:
                continue  # a high pivot is set throughout the block
            x = cands(b) & keep & -1 << max(start - (b << width), 0)
            while x:
                g = b << width | (x & -x).bit_length() - 1
                if len(basis) + 1 + slots - g.bit_length() <= len(best):
                    return  # so does every later g
                extend(basis + [g], node(cands, g), g + 1)
                x &= x - 1

    status = "exact"
    try:
        extend([], node(None, 0), 1)
    except _BudgetExhausted:
        status = "timeout"
    except _CapReached:
        pass
    rows = gf2_ordered_basis(best)
    return _result(
        n, pred, "linear", ordered_span(rows), budget, status,
        rank=len(rows),
        phase_seconds={"classify": classify,
                       "basis": time.perf_counter() - began - classify},
    )
