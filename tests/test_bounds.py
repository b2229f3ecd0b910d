import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from graphcodes import (
    CapabilityError,
    DomainError,
    GraphCodesError,
    LabeledGraph,
    UnsupportedParameterError,
    complete_graph,
    cycle_graph,
    edge_slots,
    empty_graph,
    graph_from_edges,
    path_graph,
)
from graphcodes import bounds as B
from graphcodes import constructions as C


def test_product_upper_bound_examples():
    assert B.product_upper_bound(5, comb(4, 2)) == 4
    assert B.product_upper_bound(4, comb(3, 2) + 1) == 2
    assert B.product_upper_bound(6, 0) == edge_slots(6)
    with pytest.raises(DomainError):
        B.product_upper_bound(4, 7)


def test_turan_number_examples():
    assert B.turan_number(5, 3) == 6
    assert B.turan_number(6, 3) == 9
    assert B.turan_number(7, 4) == 16


@pytest.mark.parametrize("n", range(1, 9))
def test_turan_number_of_an_edge_is_zero(n):
    # ex(n, K_2) = 0: the one-part "partite" graph has no edges
    assert B.turan_number(n, 2) == 0
    assert B.subgraph_upper_bound(n, 2) == edge_slots(n)
    with pytest.raises(DomainError, match="need r >= 2"):
        B.turan_number(n, 1)


def _turan_with_every_part(n, r):
    # the balanced (r-1)-partition with all r - 1 parts, empty ones included
    q, rem = divmod(n, r - 1)
    sizes = [q + 1] * rem + [q] * (r - 1 - rem)
    return comb(n, 2) - sum(comb(s, 2) for s in sizes)


@pytest.mark.parametrize("n", range(0, 13))
def test_turan_number_ignores_empty_parts(n):
    for r in range(2, 16):
        assert B.turan_number(n, r) == _turan_with_every_part(n, r), r


def test_turan_number_of_a_huge_clique_is_immediate():
    # r - 1 parts, of which at most n are nonempty; r = 10^7 took about 1 s
    # when every part was listed, and r = 10^12 would have listed 10^12
    for r in (10**7, 10**12):
        start = time.perf_counter()
        assert B.turan_number(5, r) == 10
        assert time.perf_counter() - start < 0.1, r


@pytest.mark.parametrize("n", range(1, 31))
def test_turan_triangle_closed_form(n):
    assert B.turan_number(n, 3) == (n // 2) * ((n + 1) // 2)


def test_turan_matches_direct_count():
    # balanced 3-partition of 7 vertices: parts 3, 2, 2
    parts = [{1, 2, 3}, {4, 5}, {6, 7}]
    edges = sum(
        1
        for j in range(2, 8)
        for i in range(1, j)
        if not any(i in p and j in p for p in parts)
    )
    assert B.turan_number(7, 4) == edges


def test_subgraph_upper_bound_examples():
    assert B.subgraph_upper_bound(5, 3) == 4
    assert B.subgraph_upper_bound(6, 3) == 6
    assert B.subgraph_upper_bound(7, 3) == 9


def test_star_upper_bound():
    assert B.star_upper_bound(5) == 6
    assert B.star_upper_bound(6) == 6
    assert B.star_upper_bound(2) == 2
    assert B.star_upper_bound(11) == 12


def test_shearer_bounds():
    assert B.shearer_dual_star_bounds(4) == (4, 4)
    assert B.shearer_dual_star_bounds(5) == (7, Fraction(15, 2))
    assert B.shearer_dual_star_bounds(6) == (12, 12)


def test_chromatic_number():
    assert B.chromatic_number(cycle_graph(5)) == 3
    assert B.chromatic_number(complete_graph(4)) == 4
    assert B.chromatic_number(empty_graph(3)) == 1
    assert B.chromatic_number(path_graph(4)) == 2
    with pytest.raises(CapabilityError):
        B.chromatic_number(empty_graph(11))


def reference_colorable(n, adj, k):
    """Whether the graph with neighbor masks ``adj`` has a proper k-coloring,
    by backtracking over vertices in decreasing degree: the test that
    chromatic_number ran before it became the cover search."""
    color = [-1] * n
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())

    def assign(idx):
        if idx == n:
            return True
        v = order[idx]
        used = 0
        for u in range(n):
            if adj[v] >> u & 1 and color[u] >= 0:
                used |= 1 << color[u]
        limit = min(k, idx + 1)  # new colors beyond the first unseen are symmetric
        for c in range(limit):
            if not used >> c & 1:
                color[v] = c
                if assign(idx + 1):
                    return True
                color[v] = -1
        return False

    return assign(0)


def reference_chromatic_number(g):
    adj = g.adjacency()
    return next(k for k in range(1, g.n + 1)
                if reference_colorable(g.n, adj, k))


def brute_chromatic_number(g):
    """The fewest colors of a proper coloring, over every assignment."""
    edges = [(i - 1, j - 1) for i, j in g.edges()]
    return next(k for k in range(1, g.n + 1)
                if any(all(c[a] != c[b] for a, b in edges)
                       for c in product(range(k), repeat=g.n)))


@pytest.mark.parametrize("n", range(1, 6))
def test_chromatic_number_matches_brute_force(n):
    for bits in range(1 << edge_slots(n)):
        g = LabeledGraph(n, bits)
        assert B.chromatic_number(g) == brute_chromatic_number(g), bits


@pytest.mark.slow
def test_chromatic_number_matches_reference_on_every_graph_n6():
    for bits in range(1 << edge_slots(6)):
        g = LabeledGraph(6, bits)
        assert B.chromatic_number(g) == reference_chromatic_number(g), bits


@settings(max_examples=200, deadline=None)
@given(st.integers(1, B.CHROMATIC_CAP).flatmap(
    lambda n: st.builds(LabeledGraph, st.just(n),
                        st.integers(0, (1 << edge_slots(n)) - 1))))
def test_chromatic_number_matches_reference_on_drawn_graphs(g):
    assert B.chromatic_number(g) == reference_chromatic_number(g)


def test_partition_number():
    c5 = cycle_graph(5)
    assert B.partition_number(c5) == 2
    assert B.partition_number(c5) == B.chromatic_number(c5) - 1


@pytest.mark.parametrize(
    "pattern",
    [cycle_graph(5), complete_graph(4), path_graph(4), cycle_graph(6),
     graph_from_edges(5, [(1, 2), (3, 4)])],
)
def test_partition_number_at_least_chi_minus_one(pattern):
    assert B.partition_number(pattern) >= B.chromatic_number(pattern) - 1


def test_distancity():
    assert B.distancity(complete_graph(3)) == Fraction(1, 2)
    assert B.distancity(complete_graph(4)) == Fraction(1, 3)
    assert B.distancity(cycle_graph(5), induced=True) == Fraction(1, 2)
    with pytest.raises(UnsupportedParameterError):
        B.distancity(empty_graph(3))


def test_distancity_of_class():
    odd_cycles = [cycle_graph(k) for k in (3, 5, 7)]
    assert B.distancity_of_class(odd_cycles) == Fraction(1, 2)
    with pytest.raises(DomainError):
        B.distancity_of_class([])


def test_rate():
    assert B.rate(5, 16) == 2 * 4 / 20
    assert B.rate(3, 1) == 0.0
    with pytest.raises(DomainError):
        B.rate(5, 0)


def test_product_lemma_numeric_for_built_pairs():
    for n in range(3, 9):
        a = 1 << (n - 1)
        b = C.dual_isolated_implicit(n).size
        assert a * b <= 1 << edge_slots(n)
        a2 = len(C.star_family(n))
        b2 = C.dual_star_implicit(n).size
        assert a2 * b2 <= 1 << edge_slots(n)


def test_rate_meets_bound_with_equality_small_n():
    sizes = {3: 2, 4: 4, 5: 16, 6: 64}
    for n, size in sizes.items():
        assert size == 1 << B.subgraph_upper_bound(n, 3)
        assert B.rate(n, size) == pytest.approx(
            2 * B.subgraph_upper_bound(n, 3) / (n * (n - 1))
        )


def test_monotone_family_sizes():
    sizes = [len(C.split_clique_family(n)) for n in range(3, 11)]
    assert sizes == sorted(sizes)
    k3_sizes = [2, 4, 16, 64]
    assert k3_sizes == sorted(k3_sizes)


def test_bound_report_invariant():
    with pytest.raises(DomainError):
        B.BoundReport(4, "x", 10, "a", 5, None, "b")
    rep = B.BoundReport(4, "x", 8, "a", 8, Fraction(3), "b")
    assert rep.tight


def test_bound_report_domain():
    for name in B.PREDICATES:
        for n in (-2, 0, 1):
            with pytest.raises(DomainError, match="need n >= 2"):
                B.bound_report(name, n)
        if name != "hamcycle":
            assert B.bound_report(name, 2).n == 2
    # the row follows the predicate's own domain, as search and verify do
    with pytest.raises(DomainError,
                       match="a Hamiltonian cycle needs at least 3 vertices"):
        B.bound_report("hamcycle", 2)
    assert B.bound_report("hamcycle", 3).upper == 2
    with pytest.raises(GraphCodesError, match="no bound row"):
        B.bound_report("kconn:4", 5)


def test_odd_2conn_row_is_refused_past_its_cap(monkeypatch):
    monkeypatch.setattr(B, "ODD_2CONN_N_CAP", 21)
    assert B.bound_report("2conn", 21).lower == 2 ** 19 - comb(19, 9)
    with pytest.raises(CapabilityError, match="n <= 21, got n=23"):
        B.bound_report("2conn", 23)
    # even n takes no binomial
    assert B.bound_report("2conn", 22).lower == 2 ** 20
