import time

import pytest

from graphcodes import (CapabilityError, DomainError, GraphFamily,
                        complete_graph, empty_graph, path_graph)
from graphcodes import bounds
from graphcodes import constructions as C
from graphcodes import predicates as P
from graphcodes import search as S
from graphcodes.core import edge_slots
from graphcodes.linalg import gf2_ordered_basis, ordered_span
from graphcodes.verify import verify_dual_family, verify_family


def test_max_good_small_values():
    assert S.max_good_family(3, P.K3).optimum == 2
    assert S.max_good_family(4, P.K3).optimum == 4
    assert S.max_good_family(4, P.CONNECTED).optimum == 8


def test_max_good_certificate_verifies():
    result = S.max_good_family(4, P.CONNECTED)
    assert result.status == "exact"
    assert len(result.certificate) == result.optimum
    assert verify_family(result.certificate, P.CONNECTED).passed


def test_max_dual_small_values():
    assert S.max_dual_family(4, P.STAR).optimum == 16
    assert S.max_dual_family(3, P.CONNECTED).optimum == 2
    result = S.max_dual_family(4, P.CONNECTED)
    assert result.optimum == 8
    assert verify_dual_family(result.certificate, P.CONNECTED).passed


@pytest.mark.parametrize("n", (3, 4))
def test_linear_search_for_an_edge_is_the_whole_space(n):
    # every nonempty graph contains K_2, so the whole edge space is linear
    # good, and the rank cap C(n, 2) - ex(n, K_2) is met
    result = S.max_linear_family(n, P.contains(complete_graph(2)))
    assert (result.optimum, result.rank, result.status) == (
        2 ** edge_slots(n), edge_slots(n), "exact")


def test_search_bracketed_by_construction_and_bound():
    result = S.max_good_family(4, P.CONNECTED)
    assert len(C.split_clique_family(4)) <= result.optimum <= 2 ** 3


def test_certificate_translates():
    result = S.max_good_family(4, P.K3)
    cert = result.certificate
    t = cert[1]
    translated = GraphFamily(4, tuple(sorted((g ^ t for g in cert),
                                             key=lambda g: g.bits)))
    assert len(translated) == len(cert)
    assert verify_family(translated, P.K3).passed


def test_size_limits():
    # each search checks its limit first, then n >= 2
    for search, limit, message in (
            (S.max_good_family, 5,
             "exact good-family search is limited to n <= 5"),
            (S.max_dual_family, 4,
             "exact dual-family search is limited to n <= 4"),
            (S.max_linear_family, 8, "linear search is limited to n <= 8")):
        with pytest.raises(CapabilityError) as exc:
            search(limit + 1, P.CONNECTED)
        assert str(exc.value) == message
        for n in (1, 0):
            with pytest.raises(DomainError) as exc:
                search(n, P.CONNECTED)
            assert str(exc.value) == "need n >= 2"


def test_budget_exhaustion_reports_timeout():
    result = S.max_good_family(4, P.CONNECTED, budget_nodes=3)
    assert result.status == "timeout"
    assert result.optimum >= 1
    assert verify_family(result.certificate, P.CONNECTED).passed \
        if len(result.certificate) >= 2 else True


def test_negative_budgets_are_rejected():
    for search in (S.max_good_family, S.max_dual_family, S.max_linear_family):
        with pytest.raises(DomainError, match="node budget"):
            search(3, P.K3, budget_nodes=-1)
        with pytest.raises(DomainError, match="time budget"):
            search(3, P.K3, time_ms=-5)
    assert S.max_good_family(3, P.K3, budget_nodes=0, time_ms=0).explored == 0


def test_explored_counts_expanded_nodes_only():
    # the node that would exceed the budget is not expanded, so not counted
    for limit in (1, 1000):
        result = S.max_good_family(5, P.HAMPATH, budget_nodes=limit)
        assert (result.status, result.explored) == ("timeout", limit)
    assert S.max_linear_family(5, P.K3, budget_nodes=10).explored == 10


def test_max_linear_small():
    r = S.max_linear_family(3, P.K3)
    assert (r.rank, r.optimum, r.status) == (1, 2, "exact")
    r = S.max_linear_family(4, P.K3)
    assert (r.rank, r.optimum) == (2, 4)
    r = S.max_linear_family(4, P.CONNECTED)
    assert (r.rank, r.optimum) == (3, 8)
    assert verify_family(r.certificate, P.CONNECTED).passed


def test_max_linear_never_beats_max_good():
    for pred in (P.K3, P.CONNECTED, P.STAR):
        lin = S.max_linear_family(4, pred)
        good = S.max_good_family(4, pred)
        assert lin.status == good.status == "exact"
        assert lin.optimum <= good.optimum


def test_linear_rank_bound_table():
    # the rank caps for n = 2..12, as the search used them before the
    # named predicates took them from their theorem rows
    expected = {
        "connected": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        "2conn": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "3conn": [0, 0, 1, 1, 2, 3, 4, 4, 5, 6, 7],
        "hampath": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        # a Hamiltonian cycle needs 3 vertices, and so does its theorem row
        "hamcycle": ["domain", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "star": [1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3],
        "k3": [0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30],
        "oddcycle": [0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30],
        "kconn:4": [None] * 11,
        "sub:4v/3f": [0, 0, 1, 2, 3, 5, 7, 9, 12, 15, 18],
    }
    preds = [P.parse_predicate(name) for name in list(expected)[:9]]
    preds.append(P.contains(complete_graph(4)))

    def rank_bound(p, n):
        try:
            return S.linear_rank_bound(p, n)
        except DomainError:
            return "domain"

    assert {p.name: [rank_bound(p, n) for n in range(2, 13)]
            for p in preds} == expected


def test_linear_search_answers_classified_masks_from_its_cache(monkeypatch):
    # every search classifies masks from the predicate's truth table, so the
    # per-mask kernel is never called (the linear search at n=6 made 39,051
    # calls on 20,543 masks when it classified them one at a time)
    def refuse(self, n, bits):
        raise AssertionError("test_mask called")

    monkeypatch.setattr(P.Predicate, "test_mask", refuse)
    r = S.max_linear_family(6, P.CONNECTED)
    assert (r.rank, r.optimum, r.status, r.explored) == (5, 32, "exact", 5)
    assert S.max_good_family(4, P.HAMPATH).status == "exact"
    assert S.max_dual_family(4, P.STAR).status == "exact"


# the ordered bases that budgeted searches reach: connected at n=8 has no
# connected graph in its first 32 blocks (vertex 8 is isolated there)
CONNECTED_N8_ROWS = [2131019, 4262037, 8524070, 17048120, 34096064, 68189184]
K3_N7_ROWS = [7, 57, 450, 3728, 12888, 119872, 414745, 1589248]


@pytest.mark.parametrize("limit, connected_masks, k3_masks", (
    (1, [0], [0, 7]),
    (10, [0], ordered_span(K3_N7_ROWS[:5])),
    (1_000, ordered_span(CONNECTED_N8_ROWS[:5]), ordered_span(K3_N7_ROWS)),
    (5_000, ordered_span(CONNECTED_N8_ROWS), ordered_span(K3_N7_ROWS)),
))
def test_budgeted_linear_search_stops_at_its_limit(limit, connected_masks,
                                                   k3_masks):
    # the search spends one node per block it builds and stops at exactly
    # the limit
    for n, pred, masks in ((8, P.CONNECTED, connected_masks),
                           (7, P.K3, k3_masks)):
        r = S.max_linear_family(n, pred, budget_nodes=limit)
        assert (r.explored, r.status, r.certificate.masks()) == \
            (limit, "timeout", masks)


def test_phase_seconds_cover_each_search_phase():
    r = S.max_good_family(4, P.CONNECTED)
    assert list(r.phase_seconds) == ["classify", "adjacency", "clique"]
    r = S.max_dual_family(3, P.K3)
    assert list(r.phase_seconds) == ["classify", "adjacency", "clique"]
    r = S.max_linear_family(5, P.CONNECTED)
    assert list(r.phase_seconds) == ["classify", "basis"]
    assert all(t >= 0 for t in r.phase_seconds.values())


def test_linear_search_refuses_a_basis_vector_inside_the_span():
    # the empty graph has an independent 3-set.  When the zero member of
    # span + g went to the kernel, a g inside the span was admitted, so the
    # basis filled up to C(n,2) vectors early and the search stopped,
    # reporting exact: rank 3 at n=4 after 19 nodes, rank 4 at n=5
    pred = P.contains_induced_pred(empty_graph(3), "indsub:edgeless-3")
    r = S.max_linear_family(4, pred)
    assert (r.rank, r.optimum, r.status, r.explored) == (3, 8, "exact", 19)
    r = S.max_linear_family(5, pred, budget_nodes=200)
    assert (r.rank, r.optimum, r.status) == (7, 128, "timeout")
    assert verify_family(r.certificate, pred).passed


def test_linear_timeout_is_labeled():
    r = S.max_linear_family(5, P.K3, budget_nodes=10)
    assert r.status == "timeout"


def test_independence_number_differences_match_clique_agreement():
    # families whose differences all have an independent set of size r;
    # at n=4 the graphs agreeing on an r-clique are optimal for r in {2, 3}
    from graphcodes import empty_graph

    for r in (2, 3):
        pred = P.contains_induced_pred(empty_graph(r), f"indsub:edgeless-{r}")
        result = S.max_good_family(4, pred)
        assert result.status == "exact"
        assert result.optimum == len(C.clique_agreement_family(4, r))
        assert verify_family(result.certificate, pred).passed


def test_extended_good_search_n5():
    # candidate set ~728 connected graphs
    result = S.max_good_family(5, P.CONNECTED, budget_nodes=50_000_000)
    assert result.status == "exact"
    assert result.optimum == 16


def test_hampath_n5_search_tree_and_counters():
    # pins the size of the unseeded branch-and-bound tree, the seeded one
    # (the theorem row's floor 14 and cap 15 cut it) and the search counters
    table = S._candidates(5, P.HAMPATH, True)
    rows = S._translated_rows(5, table)
    budget = S._Budget(None, None)
    clique, exhausted = S._max_clique(rows, budget, start=table)
    assert (len(clique), exhausted, budget.nodes) == (15, False, 187_756)
    result = S.max_good_family(5, P.HAMPATH)
    assert (result.status, result.optimum, result.explored) == \
        ("exact", 16, 1_660)
    assert (result.candidates, result.compat_edges) == (633, 116_658)
    assert (result.size_floor, result.size_cap) == (16, 16)
    assert result.certificate.masks() == sorted([0] + clique)
    assert verify_family(result.certificate, P.HAMPATH).passed


def reference_compatibility_graph(n, pred, expect):
    """(candidates, adjacency) by a double loop over candidate pairs: the
    nonzero masks whose verdict is expect, ascending, and for each one the
    bitset, in candidate indices, of those whose difference with it has
    that verdict too."""
    slots = n * (n - 1) // 2
    table = [False] + [pred.test_mask(n, m) == expect
                       for m in range(1, 1 << slots)]
    cands = [m for m in range(1, 1 << slots) if table[m]]
    adj = [0] * len(cands)
    for i, ci in enumerate(cands):
        for j in range(i + 1, len(cands)):
            if table[ci ^ cands[j]]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return cands, adj


def _compatibility_cases():
    # indsub:edgeless-3 holds on the empty graph, sub:3v/07 is a pattern
    preds = (P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.HAMPATH,
             P.HAMCYCLE, P.STAR, P.K3, P.ODDCYCLE,
             P.contains_induced_pred(empty_graph(3), "indsub:edgeless-3"),
             P.contains(complete_graph(3)))
    for pred in preds:
        for expect, top in ((True, 5), (False, 4)):
            for n in range(3 if pred is P.HAMCYCLE else 2, top + 1):
                yield pytest.param(pred, n, expect,
                                   id=f"{pred.name}-{n}-{expect}")


@pytest.mark.parametrize("pred, n, expect", _compatibility_cases())
def test_translated_rows_match_the_pairwise_reference(pred, n, expect):
    cands, adj = reference_compatibility_graph(n, pred, expect)
    table = S._candidates(n, pred, expect)
    rows = S._translated_rows(n, table)
    assert table == sum(1 << c for c in cands)
    expected = [0] * (1 << n * (n - 1) // 2)
    for c, a in zip(cands, adj):
        expected[c] = sum(1 << d for j, d in enumerate(cands) if a >> j & 1)
    assert rows == expected


@pytest.mark.parametrize("pred", (P.K3, P.ODDCYCLE), ids=lambda p: p.name)
def test_triangle_and_odd_cycle_n5_optimum(pred):
    # the seeded search finishes in well under a second; unseeded it took
    # 1.19 M (k3) and 3.13 M (oddcycle) nodes
    result = S.max_good_family(5, pred)
    assert (result.status, result.optimum) == ("exact", 16)
    assert verify_family(result.certificate, pred).passed


NAMED = (P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.HAMPATH,
         P.HAMCYCLE, P.STAR, P.K3, P.ODDCYCLE)


def _seed_cases():
    for pred in NAMED:
        for n in range(3 if pred is P.HAMCYCLE else 2, 6):
            if (pred, n) == (P.HAMPATH, 5):
                continue  # test_hampath_n5_search_tree_and_counters
            # unseeded, these two take about 35 s and 90 s
            slow = n == 5 and pred in (P.K3, P.ODDCYCLE)
            yield pytest.param(pred, n, id=f"{pred.name}-{n}",
                               marks=[pytest.mark.slow] if slow else [])


@pytest.mark.parametrize("pred, n", _seed_cases())
def test_seeded_search_matches_unseeded(monkeypatch, pred, n):
    seeded = S.max_good_family(n, pred)
    with monkeypatch.context() as m:
        m.setattr(S, "_theorem_seed", lambda pred, n: (None, None))
        plain = S.max_good_family(n, pred)
    assert (seeded.certificate.masks(), seeded.optimum, seeded.status) == \
        (plain.certificate.masks(), plain.optimum, plain.status)
    assert seeded.explored <= plain.explored
    assert (plain.size_floor, plain.size_cap) == (None, None)
    rep = bounds.bound_report(pred.name, n)
    assert seeded.size_floor == rep.lower
    assert seeded.size_cap == (None if pred is P.THREE_CONNECTED else rep.upper)


def test_dual_and_unnamed_searches_are_unseeded():
    assert S._theorem_seed(P.contains(complete_graph(4)), 5) == (None, None)
    result = S.max_dual_family(4, P.CONNECTED)
    assert (result.size_floor, result.size_cap) == (None, None)


def test_named_predicates_are_the_theorem_table_rows():
    assert tuple(P.NAMED) == bounds.PREDICATES
    assert all(P.parse_predicate(name) is pred
               for name, pred in P.NAMED.items())


def test_a_predicate_named_like_a_row_is_unseeded():
    # a theorem row applies to the named predicate, not to every predicate
    # that carries its name: these took the k3 and star rows and returned
    # 4 and 5 as exact optima
    p3 = P.contains(path_graph(3), name="k3")
    assert S.linear_rank_bound(p3, 4) is None
    linear = S.max_linear_family(4, p3)
    assert (linear.optimum, linear.status) == (16, "exact")
    connected = P.Predicate("star", "connected")
    assert S._theorem_seed(connected, 4) == (None, None)
    good = S.max_good_family(4, connected)
    assert (good.optimum, good.status, good.size_floor, good.size_cap) == \
        (8, "exact", None, None)


def test_wrong_theorem_row_is_an_internal_error(monkeypatch):
    # hampath n=4: no construction, bound 8, exact optimum 5
    real = bounds.bound_report

    def raised_lower(name, n):
        r = real(name, n)
        return bounds.BoundReport(r.n, r.predicate, 6, r.lower_source,
                                  r.upper, r.upper_log2, r.upper_source)

    monkeypatch.setattr(bounds, "bound_report", raised_lower)
    with pytest.raises(RuntimeError, match="hampath at n=4 claims a family of 6"):
        S.max_good_family(4, P.HAMPATH)
    # a search that runs out of budget has proven nothing
    assert S.max_good_family(4, P.HAMPATH, budget_nodes=2).status == "timeout"


def test_linear_3conn_n7_matches_hamming_rank():
    # classifies the 2^21 masks in 32 truth-table blocks, then grows bases
    # up to the proven rank cap
    result = S.max_linear_family(7, P.THREE_CONNECTED)
    assert (result.status, result.explored) == ("exact", 119)
    assert result.rank == 3
    assert result.optimum == 8
    assert verify_family(result.certificate, P.THREE_CONNECTED).passed


def test_linear_connected_n8_reaches_its_rank_cap():
    result = S.max_linear_family(8, P.CONNECTED)
    assert (result.status, result.rank, result.explored) == ("exact", 7, 5_549)
    assert verify_family(result.certificate, P.CONNECTED).passed


def test_linear_time_budget_holds_at_n8():
    # every block is a budget node, so the deadline is read between blocks
    began = time.perf_counter()
    result = S.max_linear_family(8, P.THREE_CONNECTED, time_ms=1000)
    assert result.status == "timeout"
    assert time.perf_counter() - began < 3


class _RankCapReached(Exception):
    pass


def reference_max_linear_family(n, pred):
    """(certificate masks, rank, status) of the basis search that the
    candidate-set search replaced, without its budget: bases grow in
    ascending mask order, and g extends a basis when every member of
    span + g satisfies the predicate, so a subspace is reached once per
    ascending basis of it."""
    cap = S.linear_rank_bound(pred, n)
    if cap is None:
        cap = edge_slots(n)
    slots = edge_slots(n)
    verdicts = format(pred.table(n) & ~1, f"0{1 << slots}b")[::-1]
    best = []

    def extend(basis, span, start):
        nonlocal best
        if len(basis) > len(best):
            best = basis.copy()
            if len(best) >= cap:
                raise _RankCapReached
        if len(basis) >= cap:
            return
        g = verdicts.find("1", start)
        while g >= 0:
            if all(verdicts[s ^ g] == "1" for s in span):
                extend(basis + [g], span + [s ^ g for s in span], g + 1)
            g = verdicts.find("1", g + 1)

    try:
        extend([], [0], 1)
    except _RankCapReached:
        pass
    rows = gf2_ordered_basis(best)
    return ordered_span(rows), len(rows), "exact"


def _linear_reference_cases():
    for pred in NAMED:
        for n in range(3 if pred is P.HAMCYCLE else 2, 6):
            yield pytest.param(pred, n, id=f"{pred.name}-{n}")
    for pred in (P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.HAMPATH,
                 P.STAR):
        yield pytest.param(pred, 6, id=f"{pred.name}-6")
    # the reference takes about 4 s (k3, oddcycle) and 40 s (hamcycle)
    for pred in (P.K3, P.ODDCYCLE, P.HAMCYCLE):
        yield pytest.param(pred, 6, id=f"{pred.name}-6",
                           marks=[pytest.mark.slow])
    pred = P.contains_induced_pred(empty_graph(3), "indsub:edgeless-3")
    yield pytest.param(pred, 4, id=f"{pred.name}-4")


@pytest.mark.parametrize("pred, n", _linear_reference_cases())
def test_linear_search_matches_the_reference(pred, n):
    r = S.max_linear_family(n, pred)
    assert (r.certificate.masks(), r.rank, r.status) == \
        reference_max_linear_family(n, pred)


# ---------------------------------------------------------------------------
# the bitset-coloring clique search against first-fit coloring

import random

from hypothesis import given, settings, strategies as st


class _CapReached(Exception):
    pass


def reference_max_clique(adj, budget, floor=0, cap=None, start=None):
    """Branch and bound with a first-fit greedy coloring in index order, the
    coloring sorted by color, branching from the highest color down, over
    the vertices in start (default all); only cliques larger than floor are
    sought, and the search stops once the clique reaches cap."""
    best = []
    size = floor

    def color_order(p):
        classes = []
        order = []
        v = 0
        while p >> v:
            if p >> v & 1:
                for c, members in enumerate(classes):
                    if not adj[v] & members:
                        classes[c] |= 1 << v
                        order.append((v, c + 1))
                        break
                else:
                    classes.append(1 << v)
                    order.append((v, len(classes)))
            v += 1
        order.sort(key=lambda vc: vc[1])
        return order

    def expand(r, p):
        nonlocal best, size
        budget.spend()
        for v, bound in reversed(color_order(p)):
            if len(r) + bound <= size:
                return
            r.append(v)
            nxt = p & adj[v]
            if nxt:
                expand(r, nxt)
            elif len(r) > size:
                best = r.copy()
                size = len(r)
                if cap is not None and size >= cap:
                    raise _CapReached
            r.pop()
            p ^= 1 << v

    if start is None:
        start = (1 << len(adj)) - 1
    exhausted = False
    try:
        if start:
            expand([], start)
    except S._BudgetExhausted:
        exhausted = True
    except _CapReached:
        pass
    return best, exhausted


@st.composite
def random_graphs(draw):
    """Adjacency masks of a G(n, density) graph on up to 40 vertices."""
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def run_clique(search, adj, limit, *seed):
    budget = S._Budget(limit, None)
    clique, exhausted = search(adj, budget, *seed)
    return clique, exhausted, budget.nodes


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.one_of(st.none(), st.integers(1, 60)),
       st.integers(0, 12), st.one_of(st.none(), st.integers(0, 14)))
def test_max_clique_matches_first_fit_reference(adj, limit, floor, cap):
    # unseeded, and with any floor and cap, also ones no clique number fits
    for seed in ((), (floor, cap)):
        new = run_clique(S._max_clique, adj, limit, *seed)
        assert new == run_clique(reference_max_clique, adj, limit, *seed)
        clique = new[0]
        assert all(adj[a] >> b & 1 for i, a in enumerate(clique)
                   for b in clique[i + 1:])
    assert not clique or len(clique) > floor


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.data())
def test_seeded_max_clique_returns_the_unseeded_clique(adj, data):
    # a floor below the clique number and a cap at or above it change only
    # how much of the tree is searched
    plain, exhausted, nodes = run_clique(S._max_clique, adj, None)
    omega = len(plain)
    floor = data.draw(st.integers(0, max(omega - 1, 0)), label="floor")
    cap = data.draw(st.one_of(st.none(), st.integers(omega, omega + 3)),
                    label="cap")
    seeded, seeded_exhausted, seeded_nodes = \
        run_clique(S._max_clique, adj, None, floor, cap)
    assert not exhausted and (seeded, seeded_exhausted) == (plain, False)
    assert seeded_nodes <= nodes


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.data())
def test_max_clique_on_a_start_set_is_the_induced_search(adj, data):
    # the search on start is the one on the subgraph start induces, with
    # its vertices relabeled 0, 1, ... in index order
    start = data.draw(st.integers(0, (1 << len(adj)) - 1), label="start")
    limit = data.draw(st.one_of(st.none(), st.integers(1, 60)), label="limit")
    floor = data.draw(st.integers(0, 8), label="floor")
    cap = data.draw(st.one_of(st.none(), st.integers(0, 10)), label="cap")
    verts = [v for v in range(len(adj)) if start >> v & 1]
    sub = [sum(1 << j for j, u in enumerate(verts) if adj[v] >> u & 1)
           for v in verts]
    clique, exhausted, nodes = run_clique(S._max_clique, adj, limit, floor,
                                          cap, start)
    ref_clique, ref_exhausted, ref_nodes = run_clique(
        reference_max_clique, sub, limit, floor, cap)
    assert (clique, exhausted, nodes) == \
        ([verts[i] for i in ref_clique], ref_exhausted, ref_nodes)


@pytest.mark.parametrize("search", (S.max_good_family, S.max_dual_family))
@pytest.mark.parametrize("n", (3, 4))
def test_compatibility_search_matches_first_fit_reference(monkeypatch, search, n):
    preds = (P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.HAMPATH,
             P.HAMCYCLE, P.STAR, P.K3, P.ODDCYCLE)
    for pred in preds:
        for limit in (None, 1, 3, 10):
            new = search(n, pred, budget_nodes=limit)
            with monkeypatch.context() as m:
                m.setattr(S, "_max_clique", reference_max_clique)
                old = search(n, pred, budget_nodes=limit)
            assert (new.explored, new.status, new.certificate.masks()) == \
                (old.explored, old.status, old.certificate.masks()), pred.name
