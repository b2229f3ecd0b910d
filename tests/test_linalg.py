import random
import time

import pytest

from graphcodes import (CapabilityError, DomainError, LabeledGraph,
                        empty_graph, graph_from_edges)
from hypothesis import given, settings, strategies as st

from graphcodes.linalg import (
    LinearFamily,
    double_cover_check,
    enumerate_span,
    gf2_in_span,
    gf2_ordered_basis,
    gf2_rank,
    ordered_span,
    rank,
)
from graphcodes.constructions import (
    codd_family_7,
    hamming_bipartite_family,
    k3_family_5,
    k3_family_6,
)


def test_rank_of_hardcoded_generators():
    assert rank(k3_family_5().basis) == 4
    assert rank(k3_family_6().basis) == 6
    assert rank(codd_family_7().basis) == 9


def test_rank_edge_cases():
    assert rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2


def test_redundant_flag():
    assert k3_family_5().redundant
    assert not LinearFamily(3, (graph_from_edges(3, [(1, 2)]),)).redundant


def test_enumerate_span_examples():
    assert enumerate_span(LinearFamily(3, ())).graphs == (empty_graph(3),)
    span5 = enumerate_span(k3_family_5())
    assert len(span5) == 16
    span_h7 = enumerate_span(hamming_bipartite_family(3))
    assert len(span_h7) == 8
    assert span_h7[0].is_empty


@pytest.mark.parametrize("fam", (LinearFamily(3, ()), k3_family_5(),
                                 hamming_bipartite_family(3)),
                         ids=("empty", "k3-5", "hamming-3"))
def test_enumerate_span_provenance(fam):
    expected = {"construction": "span", "rank": fam.rank}
    assert enumerate_span(fam).provenance == expected
    assert fam.enumerate_span().provenance == expected


def test_span_sorted_and_sized():
    fam = k3_family_6()
    masks = fam.span_masks()
    assert masks == sorted(masks)
    assert len(set(masks)) == 1 << fam.rank == 64


def test_double_cover_examples():
    assert double_cover_check(k3_family_5().basis)
    assert double_cover_check(k3_family_6().basis)
    assert double_cover_check(codd_family_7().basis)
    single_edges = [graph_from_edges(3, [e]) for e in [(1, 2), (1, 3), (2, 3)]]
    assert not double_cover_check(single_edges)


@pytest.mark.parametrize("check", (rank, double_cover_check))
def test_generators_must_share_a_vertex_count(check):
    with pytest.raises(DomainError, match="share a vertex count"):
        check([empty_graph(3), empty_graph(4)])


def test_double_cover_implies_zero_total():
    for fam in (k3_family_5(), k3_family_6(), codd_family_7()):
        total = empty_graph(fam.n)
        for g in fam.basis:
            total ^= g
        assert total.is_empty


def test_span_closure_under_xor():
    fam = k3_family_5()
    members = enumerate_span(fam).graphs
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.choice(members), rng.choice(members)
        assert fam.contains(a ^ b)
    outside = LabeledGraph(5, 0b1)
    if not fam.contains(outside):
        assert all((outside ^ m).bits != 0 for m in members)


def test_rank_budget():
    n = 9
    gens = [graph_from_edges(n, [e]) for e in
            [(i, j) for j in range(2, n + 1) for i in range(1, j)][:27]]
    fam = LinearFamily(n, gens)
    assert fam.rank == 27
    with pytest.raises(CapabilityError):
        fam.span_masks()


def test_span_listing_refused_past_the_enumeration_budget():
    # 2^25 members: refused before any is listed
    n = 8
    fam = LinearFamily(n, [LabeledGraph(n, 1 << s) for s in range(25)])
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match=r"^2\^25 graphs exceed the "
                       r"enumeration budget 2\^24$"):
        fam.span_masks()
    assert time.perf_counter() - start < 1


def xor_closure(masks):
    """The span of masks by brute force: the smallest set holding 0 and
    closed under XOR with each mask."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, (1 << 21) - 1), max_size=9))
def test_ordered_basis_enumerates_the_sorted_span(gens):
    rows = gf2_ordered_basis(gens)
    assert 1 << gf2_rank(gens) == len(xor_closure(gens))
    # pivots (highest slots) ascend, and each is set in its own row only
    tops = [r.bit_length() - 1 for r in rows]
    assert tops == sorted(set(tops))
    for r in rows:
        assert sum(other >> r.bit_length() - 1 & 1 for other in rows) == 1
    # member i is the XOR of the rows at the set bits of i, ascending
    span = ordered_span(rows)
    for i, member in enumerate(span):
        x = 0
        for j, row in enumerate(rows):
            if i >> j & 1:
                x ^= row
        assert member == x
    assert span == sorted(xor_closure(gens))
    assert all(gf2_in_span(m, rows) for m in gens)
    outside = [m for m in range(64) if m not in set(span)]
    assert not any(gf2_in_span(m, rows) for m in outside)
