import pytest

from graphcodes import CapabilityError, DomainError, GraphFamily, complete_graph
from graphcodes import constructions as C
from graphcodes import predicates as P
from graphcodes import search as S
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
    with pytest.raises(CapabilityError):
        S.max_good_family(6, P.CONNECTED)
    with pytest.raises(CapabilityError):
        S.max_dual_family(5, P.CONNECTED)
    with pytest.raises(CapabilityError):
        S.max_linear_family(9, P.CONNECTED)


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


def test_max_linear_respects_rank_cap():
    r = S.max_linear_family(4, P.CONNECTED, max_rank=2)
    assert r.rank == 2 and r.optimum == 4


def test_linear_rank_bound_table():
    # the rank caps for n = 2..12, as the search used them before the
    # named predicates took them from their theorem rows
    expected = {
        "connected": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        "2conn": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "3conn": [0, 0, 1, 1, 2, 3, 4, 4, 5, 6, 7],
        "hampath": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        "hamcycle": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "star": [1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3],
        "k3": [0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30],
        "oddcycle": [0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30],
        "kconn:4": [None] * 11,
        "sub:4v/3f": [0, 0, 1, 2, 3, 5, 7, 9, 12, 15, 18],
    }
    preds = [P.parse_predicate(name) for name in list(expected)[:9]]
    preds.append(P.contains(complete_graph(4)))
    assert {p.name: [S.linear_rank_bound(p, n) for n in range(2, 13)]
            for p in preds} == expected


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
    # pins the size of the branch-and-bound tree and the search counters
    result = S.max_good_family(5, P.HAMPATH)
    assert (result.status, result.optimum, result.explored) == \
        ("exact", 16, 187_756)
    assert (result.candidates, result.compat_edges) == (633, 116_658)
    assert verify_family(result.certificate, P.HAMPATH).passed


@pytest.mark.slow
def test_linear_3conn_n7_matches_hamming_rank():
    # ~6.5 minutes single-core: scans the 2^21 masks for 3-connected
    # candidates and stops at the proven rank cap
    result = S.max_linear_family(7, P.THREE_CONNECTED)
    assert result.status == "exact"
    assert result.rank == 3
    assert result.optimum == 8
    assert verify_family(result.certificate, P.THREE_CONNECTED).passed


# ---------------------------------------------------------------------------
# the bitset-coloring clique search against first-fit coloring

import random

from hypothesis import given, settings, strategies as st


def reference_max_clique(adj, budget):
    """Branch and bound with a first-fit greedy coloring in index order, the
    coloring sorted by color, branching from the highest color down."""
    best = []

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
        nonlocal best
        budget.spend()
        for v, bound in reversed(color_order(p)):
            if len(r) + bound <= len(best):
                return
            r.append(v)
            nxt = p & adj[v]
            if nxt:
                expand(r, nxt)
            elif len(r) > len(best):
                best = r.copy()
            r.pop()
            p ^= 1 << v

    exhausted = False
    try:
        if adj:
            expand([], (1 << len(adj)) - 1)
    except S._BudgetExhausted:
        exhausted = True
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


def run_clique(search, adj, limit):
    budget = S._Budget(limit, None)
    clique, exhausted = search(adj, budget)
    return clique, exhausted, budget.nodes


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.one_of(st.none(), st.integers(1, 60)))
def test_max_clique_matches_first_fit_reference(adj, limit):
    new = run_clique(S._max_clique, adj, limit)
    assert new == run_clique(reference_max_clique, adj, limit)
    clique = new[0]
    assert all(adj[a] >> b & 1 for i, a in enumerate(clique)
               for b in clique[i + 1:])


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
