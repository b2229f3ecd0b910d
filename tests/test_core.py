import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphcodes import (
    CapabilityError,
    DomainError,
    LabeledGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_from_index,
    edge_index,
    edge_slots,
    empty_graph,
    graph_from_edges,
    path_graph,
    save_family,
    star_graph,
    load_family,
)
from graphcodes.core import (DEFAULT_VERTEX_LIMIT, _fits_str, adjacency_masks,
                             two_coloring)
from graphcodes.family import family_to_json


def test_edge_index_examples():
    assert edge_index(1, 2, 4) == 0
    assert edge_index(2, 3, 4) == 2
    assert edge_index(1, 4, 4) == 3


@pytest.mark.parametrize("bad", [(2, 2, 4), (3, 2, 4), (0, 1, 4), (1, 5, 4)])
def test_edge_index_domain(bad):
    with pytest.raises(DomainError):
        edge_index(*bad)


@pytest.mark.parametrize("n", range(2, DEFAULT_VERTEX_LIMIT + 1))
def test_edge_index_round_trip(n):
    seen = set()
    for j in range(2, n + 1):
        for i in range(1, j):
            idx = edge_index(i, j, n)
            assert edge_from_index(idx, n) == (i, j)
            seen.add(idx)
    assert seen == set(range(edge_slots(n)))


def test_edge_index_colex_increasing():
    pairs = [(i, j) for j in range(2, 8) for i in range(1, j)]
    indices = [edge_index(i, j, 7) for i, j in pairs]
    assert indices == sorted(indices) == list(range(len(pairs)))


def reference_adjacency(n, bits):
    adj = [0] * n
    for slot in range(edge_slots(n)):
        if bits >> slot & 1:
            i, j = edge_from_index(slot, n)
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
    return adj


@pytest.mark.parametrize("n", range(1, 65))
def test_adjacency_masks_match_slot_reference(n):
    # every kernel and oracle decodes through adjacency_masks, so agreement
    # between them cannot catch a decode bug; this reference can
    rng = random.Random(n)
    full = (1 << edge_slots(n)) - 1
    for bits in (0, full, rng.getrandbits(edge_slots(n)),
                 rng.getrandbits(edge_slots(n)) & rng.getrandbits(edge_slots(n))):
        adj = adjacency_masks(n, bits)
        assert adj == reference_adjacency(n, bits)
        for v in range(n):
            assert not adj[v] >> v & 1
            for u in range(n):
                assert adj[v] >> u & 1 == adj[u] >> v & 1


@pytest.mark.parametrize("limit", (640, 4300))
def test_fits_str_agrees_with_str(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for x in (1, 8**limit - 1, 8**limit, 2 * 8**limit, 10**limit - 1,
                  10**limit, 10**limit + 1):
            try:
                str(x)
                fits = True
            except ValueError:
                fits = False
            assert _fits_str(x) == fits, x.bit_length()
        sys.set_int_max_str_digits(0)
        assert _fits_str(10**limit)
    finally:
        sys.set_int_max_str_digits(old)


def test_fits_str_without_a_digit_limit(monkeypatch):
    # Python 3.10 before 3.10.7 has no int-to-str limit and no getter for it
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert _fits_str(10**5000)


def test_sym_diff_self_inverse_and_identity():
    g = graph_from_edges(4, [(1, 2), (3, 4), (1, 3)])
    assert (g ^ g) == empty_graph(4)
    assert (g ^ empty_graph(4)) == g


def test_sym_diff_split_clique_example():
    # cliques {1,2}|{3,4,5} versus {1,4}|{2,3,5}: set algebra on the edge
    # sets leaves the complete bipartite graph between {2,4} and {1,3,5}
    g = graph_from_edges(5, [(1, 2), (3, 4), (3, 5), (4, 5)])
    h = graph_from_edges(5, [(1, 4), (2, 3), (2, 5), (3, 5)])
    expected = set(g.edges()) ^ set(h.edges())
    assert set((g ^ h).edges()) == expected
    assert (g ^ h) == complete_bipartite_graph(5, {2, 4})


def test_sym_diff_dimension_mismatch():
    with pytest.raises(DomainError):
        empty_graph(3) ^ empty_graph(4)


@given(
    st.integers(min_value=0, max_value=2**15 - 1),
    st.integers(min_value=0, max_value=2**15 - 1),
    st.integers(min_value=0, max_value=2**15 - 1),
)
def test_xor_group_laws(a, b, c):
    ga, gb, gc_ = (LabeledGraph(6, x) for x in (a, b, c))
    assert ga ^ gb == gb ^ ga
    assert (ga ^ gb) ^ gc_ == ga ^ (gb ^ gc_)
    assert (ga ^ ga).is_empty


@given(
    st.integers(min_value=0, max_value=2**15 - 1),
    st.integers(min_value=0, max_value=2**15 - 1),
    st.integers(min_value=0, max_value=2**15 - 1),
)
def test_xor_translation_preserves_differences(a, b, t):
    ga, gb, gt = (LabeledGraph(6, x) for x in (a, b, t))
    assert (ga ^ gt) ^ (gb ^ gt) == ga ^ gb


def test_translation_is_bijection():
    t = LabeledGraph(4, 0b101010)
    images = {(LabeledGraph(4, m) ^ t).bits for m in range(64)}
    assert images == set(range(64))


def test_complement_and_degrees():
    assert empty_graph(3).complement() == complete_graph(3)
    assert complete_graph(4).degree(1) == 3
    assert path_graph(3).degree_sequence() == [1, 2, 1]
    with pytest.raises(DomainError):
        complete_graph(4).degree(5)


def test_hex_bit_placement():
    # slot 10 sits at byte 1, bit 2
    g = LabeledGraph(6, 1 << 10)
    assert g.to_hex() == "0004"
    assert LabeledGraph.from_hex(6, "0004") == g


def test_hex_round_trip_and_validation():
    g = graph_from_edges(7, [(1, 2), (2, 7), (6, 7)])
    assert LabeledGraph.from_hex(7, g.to_hex()) == g
    with pytest.raises(DomainError):
        LabeledGraph.from_hex(7, "00")  # wrong length
    with pytest.raises(DomainError):
        LabeledGraph.from_hex(3, "ff")  # padding bits set


def test_induced_subgraph():
    g = graph_from_edges(5, [(1, 2), (2, 4), (4, 5)])
    sub = g.induced_subgraph([2, 4, 5])
    assert sub.n == 3
    assert set(sub.edges()) == {(1, 2), (2, 3)}


def test_graph_from_edges_rejects_duplicates_and_loops():
    with pytest.raises(DomainError):
        graph_from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(DomainError):
        graph_from_edges(3, [(2, 2)])


def test_family_file_round_trip_byte_exact(tmp_path):
    graphs = [graph_from_edges(5, [(1, 2)]), empty_graph(5), complete_graph(5)]
    path = tmp_path / "fam.json"
    save_family(path, 5, graphs, provenance={"construction": "test", "n": 5})
    first = path.read_text()
    loaded = load_family(path)
    assert [g.bits for g in loaded.graphs] == [g.bits for g in graphs]
    again = family_to_json(loaded.n, loaded.graphs, role=loaded.role,
                           provenance=loaded.provenance)
    assert again == first


def test_family_file_validates_header(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"version": 2, "n": 3, "edge_order": "colex-1based", "graphs": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError):
        load_family(path)


@pytest.mark.parametrize("build", [
    lambda: complete_graph(3000), lambda: path_graph(3000),
    lambda: cycle_graph(3000), lambda: star_graph(3000),
    lambda: complete_bipartite_graph(3000, {1}),
], ids=("complete", "path", "cycle", "star", "complete-bipartite"))
def test_core_builders_check_n_before_building(build):
    # on 3,000 vertices the edge lists take 170-340 KB and the complete
    # graph's mask 560 KB, so a refusal that allocates next to nothing
    # checked n first
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        f"n=3000 exceeds the configured vertex limit {DEFAULT_VERTEX_LIMIT}")
    assert peak < 16 << 10


def test_family_file_n_past_the_vertex_limit(tmp_path):
    # checked before any graph entry is read, so an empty list cannot hide it
    path = tmp_path / "big.json"
    doc = {"version": 1, "n": 65, "edge_order": "colex-1based", "graphs": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(CapabilityError, match="vertex limit 64"):
        load_family(path)
    doc["n"] = 64
    path.write_text(json.dumps(doc))
    assert load_family(path).n == 64


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << edge_slots(n)) - 1))))
def test_two_coloring_is_the_anchored_proper_coloring(case):
    n, bits = case
    adj = adjacency_masks(n, bits)
    even = two_coloring(adj)
    bipartite = any(
        all(bool(c >> u & 1) != bool(c >> v & 1)
            for v in range(n) for u in range(v) if adj[v] >> u & 1)
        for c in range(1 << n))
    assert (even is not None) == bipartite
    if even is None:
        return
    for v in range(n):
        # every edge crosses the classes, and the lowest vertex of each
        # component (no lower vertex reaches it) lies in class 0
        side = even if even >> v & 1 else ~even
        assert not adj[v] & side
    seen = 0
    for v in range(n):
        if not seen >> v & 1:
            assert even >> v & 1
            comp = frontier = 1 << v
            while frontier:
                nxt = 0
                for u in range(n):
                    if frontier >> u & 1:
                        nxt |= adj[u]
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
