import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphcodes import (
    CapabilityError,
    DomainError,
    GraphCodesError,
    LabeledGraph,
    complete_bipartite_graph,
    complete_graph,
    contains_induced,
    contains_subgraph,
    cycle_graph,
    edge_index,
    edge_slots,
    empty_graph,
    graph_from_edges,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    has_odd_cycle,
    has_spanning_star,
    is_connected,
    is_k_connected,
    k_connected,
    parse_predicate,
    path_graph,
    star_graph,
    vertex_connectivity,
)
from graphcodes import predicates as P
from graphcodes.constructions import k3_family_5, star_family, starter_factorization
from graphcodes.bitslice import edge_matrix, slot_columns, translate
from graphcodes.linalg import gf2_ordered_basis, ordered_span
from graphcodes.core import adjacency_masks
from graphcodes.oracles import oracle_check, oracle_vertex_connectivity


def pad(g, n):
    """The same edge set viewed on a larger vertex set."""
    return graph_from_edges(n, g.edges())


def test_is_connected_examples():
    assert is_connected(path_graph(3))
    assert not is_connected(pad(graph_from_edges(2, [(1, 2)]), 3))
    assert not is_connected(empty_graph(4))
    with pytest.raises(DomainError):
        is_connected(empty_graph(1))


def test_vertex_connectivity_examples():
    assert vertex_connectivity(cycle_graph(4)) == 2
    k34 = complete_bipartite_graph(7, {1, 2, 3})
    assert vertex_connectivity(k34) == 3
    assert oracle_vertex_connectivity(k34) == 3
    assert vertex_connectivity(complete_graph(5)) == 4


def test_vertex_connectivity_above_128_vertices():
    # two cycles joined only through the hubs 127 and 129: kappa = 2.  With
    # n = 130 the split digraph has 260 nodes, past any 8-bit arc key.
    import graphcodes.core as core

    a = list(range(1, 64))
    b = list(range(64, 127)) + [128, 130]
    edges = set()
    for cyc in (a, b):
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            edges.add((min(u, v), max(u, v)))
    for v in a + b:
        edges.update({(v, 127), (v, 129)})
    core.set_vertex_limit(200)
    try:
        g = graph_from_edges(130, sorted(edges))
        assert vertex_connectivity(g) == 2
        assert not is_k_connected(g, 3)
        assert is_k_connected(g, 2)
        assert not is_connected(g.induced_subgraph(a + b))
    finally:
        core.set_vertex_limit(core.DEFAULT_VERTEX_LIMIT)


def test_degree_one_vertex_blocks_two_connectivity():
    g = graph_from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert not is_k_connected(g, 2)
    assert is_k_connected(g, 1)


@pytest.mark.parametrize("a", range(1, 7))
def test_complete_bipartite_connectivity_closed_form(a):
    for b in range(a, 7):
        g = complete_bipartite_graph(a + b, set(range(1, a + 1)))
        assert vertex_connectivity(g) == a


def test_is_k_connected_needs_enough_vertices():
    assert not is_k_connected(complete_graph(3), 3)
    assert is_k_connected(complete_graph(4), 3)
    with pytest.raises(DomainError):
        is_k_connected(complete_graph(3), 0)


def test_hamiltonian_examples():
    mats = starter_factorization(8).matchings
    assert has_hamiltonian_cycle(mats[0] ^ mats[3])
    assert not has_hamiltonian_path(star_graph(5))
    assert has_hamiltonian_path(cycle_graph(5))
    assert has_hamiltonian_cycle(cycle_graph(5))
    assert not has_hamiltonian_cycle(path_graph(5))


def test_hamiltonian_cap():
    P.set_hamiltonian_cap(10)
    try:
        with pytest.raises(CapabilityError):
            has_hamiltonian_path(empty_graph(11))
    finally:
        P.set_hamiltonian_cap(P.DEFAULT_HAMILTONIAN_CAP)
    assert has_hamiltonian_path(cycle_graph(12))


def test_spanning_star_examples():
    assert has_spanning_star(star_graph(6))
    assert not has_spanning_star(cycle_graph(6))
    fam = star_family(5)
    assert has_spanning_star(fam[0] ^ fam[1])


def test_contains_examples():
    assert contains_subgraph(complete_graph(4), complete_graph(3))
    assert not contains_induced(complete_graph(4), path_graph(3))
    assert contains_induced(complete_graph(4), complete_graph(3))
    gens = k3_family_5().basis
    g12 = gens[0] ^ gens[1]
    for edge in [(1, 2), (2, 4), (1, 4)]:
        assert g12.has_edge(*edge)
    assert contains_subgraph(g12, complete_graph(3))


def test_contains_pattern_rules():
    with pytest.raises(DomainError):
        contains_subgraph(complete_graph(4), empty_graph(3))
    assert contains_induced(complete_graph(2), empty_graph(3)) is False
    assert contains_induced(empty_graph(4), empty_graph(3))
    with pytest.raises(CapabilityError):
        contains_subgraph(complete_graph(10), complete_graph(9))


def test_odd_cycle_examples():
    assert has_odd_cycle(cycle_graph(7))
    assert not has_odd_cycle(complete_bipartite_graph(7, {1, 2, 3}))
    assert not has_odd_cycle(empty_graph(5))


def test_odd_cycle_matches_odd_cycle_containment():
    rng = random.Random(7)
    patterns = [cycle_graph(3), cycle_graph(5), cycle_graph(7)]
    for _ in range(300):
        g = LabeledGraph(7, rng.getrandbits(21))
        expected = any(contains_subgraph(g, c) for c in patterns)
        assert has_odd_cycle(g) == expected


def test_locality_of_local_predicates():
    rng = random.Random(11)
    k3 = complete_graph(3)
    p3 = path_graph(3)
    for _ in range(300):
        g = LabeledGraph(7, rng.getrandbits(21))
        size = rng.randint(3, 7)
        subset = sorted(rng.sample(range(1, 8), size))
        sub = g.induced_subgraph(subset)
        if contains_subgraph(sub, k3):
            assert contains_subgraph(g, k3)
        if contains_induced(sub, p3):
            assert contains_induced(g, p3)
        if has_odd_cycle(sub):
            assert has_odd_cycle(g)


def test_implication_chain_on_random_graphs():
    rng = random.Random(13)
    for _ in range(300):
        g = LabeledGraph(7, rng.getrandbits(21))
        if has_hamiltonian_cycle(g):
            assert is_k_connected(g, 2)
        if is_k_connected(g, 2):
            assert is_connected(g)
        if has_hamiltonian_path(g):
            assert is_connected(g)
        if has_spanning_star(g):
            assert is_connected(g)


def test_containment_monotone_under_edge_addition():
    rng = random.Random(17)
    k3 = complete_graph(3)
    for _ in range(200):
        bits = rng.getrandbits(15)
        g = LabeledGraph(6, bits)
        slot = rng.randrange(edge_slots(6))
        bigger = LabeledGraph(6, bits | 1 << slot)
        if contains_subgraph(g, k3):
            assert contains_subgraph(bigger, k3)


def test_parse_predicate_names():
    assert parse_predicate("connected").kind == "connected"
    assert parse_predicate("2conn").k == 2
    assert parse_predicate("kconn:4").k == 4
    assert parse_predicate("k3").pattern == complete_graph(3)
    assert parse_predicate("hamcycle").kind == "hamcycle"
    with pytest.raises(DomainError):
        parse_predicate("nonsense")


def test_parse_predicate_pattern_file(tmp_path):
    from graphcodes import save_family

    path = tmp_path / "pat.json"
    save_family(path, 3, [path_graph(3)])
    pred = parse_predicate(f"indsub:{path}")
    assert pred.kind == "contains-induced"
    assert pred.pattern == path_graph(3)


def test_predicate_domain_guards():
    with pytest.raises(DomainError):
        parse_predicate("hamcycle").test(empty_graph(2))
    with pytest.raises(DomainError):
        parse_predicate("connected").test(empty_graph(1))


WRAPPERS = (
    (is_connected, P.CONNECTED),
    (lambda g: is_k_connected(g, 1), k_connected(1)),
    (lambda g: is_k_connected(g, 2), P.TWO_CONNECTED),
    (lambda g: is_k_connected(g, 3), P.THREE_CONNECTED),
    (lambda g: is_k_connected(g, 4), k_connected(4)),
    (has_hamiltonian_path, P.HAMPATH),
    (has_hamiltonian_cycle, P.HAMCYCLE),
    (has_spanning_star, P.STAR),
    (lambda g: contains_subgraph(g, complete_graph(3)), P.K3),
    (lambda g: contains_subgraph(g, path_graph(3)), P.contains(path_graph(3))),
    (lambda g: contains_induced(g, path_graph(3)),
     P.contains_induced_pred(path_graph(3))),
    (has_odd_cycle, P.ODDCYCLE),
)


def outcome(test, g):
    try:
        return test(g)
    except DomainError as exc:
        return type(exc), str(exc)


def test_public_wrappers_match_predicates_on_all_small_graphs():
    for n in range(1, 6):
        for bits in range(1 << edge_slots(n)):
            g = LabeledGraph(n, bits)
            for wrapper, pred in WRAPPERS:
                assert outcome(wrapper, g) == outcome(pred.test, g), \
                    (pred.name, n, bits)


CONNECTIVITY_MIN = "connectivity needs at least 2 vertices"


@pytest.mark.parametrize("call, cls, message", [
    (lambda: is_connected(empty_graph(1)), DomainError, CONNECTIVITY_MIN),
    (lambda: P.CONNECTED.test_mask(1, 0), DomainError, CONNECTIVITY_MIN),
    (lambda: is_k_connected(empty_graph(1), 2), DomainError, CONNECTIVITY_MIN),
    (lambda: P.TWO_CONNECTED.test_mask(1, 0), DomainError, CONNECTIVITY_MIN),
    (lambda: vertex_connectivity(empty_graph(1)), DomainError, CONNECTIVITY_MIN),
    (lambda: has_hamiltonian_path(empty_graph(1)), DomainError,
     "a Hamiltonian path needs at least 2 vertices"),
    (lambda: P.HAMPATH.test_mask(1, 0), DomainError,
     "a Hamiltonian path needs at least 2 vertices"),
    (lambda: has_hamiltonian_cycle(empty_graph(2)), DomainError,
     "a Hamiltonian cycle needs at least 3 vertices"),
    (lambda: P.HAMCYCLE.test_mask(2, 0), DomainError,
     "a Hamiltonian cycle needs at least 3 vertices"),
    (lambda: has_spanning_star(empty_graph(1)), DomainError,
     "a spanning star needs at least 2 vertices"),
    (lambda: P.STAR.test_mask(1, 0), DomainError,
     "a spanning star needs at least 2 vertices"),
    (lambda: has_hamiltonian_path(empty_graph(17)), CapabilityError,
     "n=17 exceeds the Hamiltonicity cap 16; raise it with set_hamiltonian_cap"),
    (lambda: has_hamiltonian_cycle(empty_graph(17)), CapabilityError,
     "n=17 exceeds the Hamiltonicity cap 16; raise it with set_hamiltonian_cap"),
    (lambda: P.HAMPATH.test_mask(17, 0), CapabilityError,
     "n=17 exceeds the Hamiltonicity cap 16; raise it with set_hamiltonian_cap"),
    (lambda: is_k_connected(complete_graph(4), 0), DomainError,
     "k must be at least 1"),
    (lambda: k_connected(0), DomainError, "k must be at least 1"),
    (lambda: contains_subgraph(complete_graph(10), complete_graph(9)),
     CapabilityError, "pattern on 9 vertices exceeds the cap 8"),
    (lambda: contains_induced(complete_graph(10), complete_graph(9)),
     CapabilityError, "pattern on 9 vertices exceeds the cap 8"),
    (lambda: contains_subgraph(complete_graph(4), empty_graph(3)), DomainError,
     "subgraph containment needs a pattern with an edge"),
    (lambda: P.Predicate("x", "bogus"), DomainError,
     "unknown predicate kind 'bogus'"),
])
def test_bad_input_errors(call, cls, message):
    with pytest.raises(GraphCodesError) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)


def test_vertex_limit_is_configurable():
    import graphcodes.core as core

    core.set_vertex_limit(5)
    try:
        with pytest.raises(CapabilityError):
            empty_graph(6)
    finally:
        core.set_vertex_limit(core.DEFAULT_VERTEX_LIMIT)
    assert empty_graph(6).n == 6


# ---------------------------------------------------------------------------
# 3-connectivity by vertex-deleted biconnectivity, against Menger max-flow


def maxflow_3conn(n, bits):
    return P._kappa_mask(n, bits, 3) >= 3


@pytest.mark.parametrize("n, count", [(4, 1), (5, 26), (6, 1768)])
def test_3conn_matches_max_flow_on_all_small_graphs(n, count):
    found = 0
    for bits in range(1 << edge_slots(n)):
        got = P.THREE_CONNECTED.test_mask(n, bits)
        assert got == maxflow_3conn(n, bits), (n, bits)
        found += got
    # labeled 3-connected graphs on n vertices (OEIS A013922)
    assert found == count


def random_bits(n, density, rng):
    return sum(1 << s for s in range(edge_slots(n)) if rng.random() < density)


def near_cubic_bits(n, rng):
    """A Hamiltonian cycle plus a random matching, then a few edges flipped."""
    order = rng.sample(range(1, n + 1), n)
    edges = {frozenset(p) for p in zip(order, order[1:] + order[:1])}
    rest = order[:]
    rng.shuffle(rest)
    edges |= {frozenset(rest[i:i + 2]) for i in range(0, n - 1, 2)}
    bits = sum(1 << edge_index(min(e), max(e), n) for e in edges)
    for _ in range(rng.randint(0, 2)):
        bits ^= 1 << rng.randrange(edge_slots(n))
    return bits


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 16), st.sampled_from((0.2, 0.35, 0.5, 0.7, 0.9, None)),
       st.randoms(use_true_random=False))
def test_3conn_matches_max_flow_on_random_graphs(n, density, rng):
    if density is None:
        bits = near_cubic_bits(n, rng)
    else:
        bits = random_bits(n, density, rng)
    assert P.THREE_CONNECTED.test_mask(n, bits) == maxflow_3conn(n, bits)


def wheel(k):
    """Hub 1 joined to every vertex of the cycle 2..k."""
    rim = list(range(2, k + 1))
    return graph_from_edges(k, [(1, v) for v in rim]
                            + [(min(a, b), max(a, b))
                               for a, b in zip(rim, rim[1:] + rim[:1])])


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return graph_from_edges(10, outer + spokes
                            + [(min(a, b), max(a, b)) for a, b in inner])


def cube():
    return graph_from_edges(8, [(a + 1, b + 1) for a in range(8) for b in range(8)
                                if a < b and (a ^ b).bit_count() == 1])


def prism():
    return graph_from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                                (1, 4), (2, 5), (3, 6)])


def two_k5_on_two_vertices():
    """K5 on {1..5} and K5 on {1, 2, 6, 7, 8}: min degree 4, {1, 2} cuts."""
    edges = {(a, b) for part in ((1, 2, 3, 4, 5), (1, 2, 6, 7, 8))
             for a in part for b in part if a < b}
    return graph_from_edges(8, sorted(edges))


def two_k4s():
    """Two disjoint K4's: min degree 3 and disconnected."""
    return graph_from_edges(8, [(a, b) for part in ((1, 2, 3, 4), (5, 6, 7, 8))
                                for a in part for b in part if a < b])


@pytest.mark.parametrize("g, expected", [
    (complete_graph(4), True),
    (complete_graph(4) ^ graph_from_edges(4, [(1, 2)]), False),
    (complete_bipartite_graph(6, {1, 2, 3}), True),
    (petersen(), True),
    (cube(), True),
    (prism(), True),
    (wheel(5), True),
    (wheel(6), True),
    (wheel(7), True),
    (wheel(8), True),
    (two_k5_on_two_vertices(), False),
    (two_k4s(), False),
])
def test_3conn_named_graphs(g, expected):
    assert is_k_connected(g, 3) is expected
    assert (vertex_connectivity(g) >= 3) is expected


@pytest.mark.parametrize("g, k, kappa", [
    (two_k5_on_two_vertices(), 3, 2),
    (two_k4s(), 3, 0),
    (graph_from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]), 2, 0),
])
def test_connectivity_rejection_past_the_degree_prefilters(g, k, kappa):
    # only the bitset DFS can reject these: min degree and edge count pass
    assert min(g.degree_sequence()) >= k
    assert 2 * g.num_edges >= k * g.n
    assert vertex_connectivity(g) == kappa
    assert not is_k_connected(g, k)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_biconnected_keep_mask_matches_induced_subgraph(n, data):
    bits = data.draw(st.integers(0, (1 << edge_slots(n)) - 1))
    keep = data.draw(st.integers(1, (1 << n) - 1))
    g = LabeledGraph(n, bits)
    sub = g.induced_subgraph([v + 1 for v in range(n) if keep >> v & 1])
    assert P._biconnected_from_adj(n, g.adjacency(), keep) == \
        P._biconnected_from_adj(sub.n, sub.adjacency())


# ---------------------------------------------------------------------------
# the bitset DFS against the lowlink DFS it replaced


def lowlink_biconnected(n, adj, keep=None):
    """Tarjan's lowlink DFS, as `_biconnected_from_adj` was before the bitset
    DFS: no articulation vertex and connected on the vertices of ``keep``."""
    if keep is None:
        keep = (1 << n) - 1
    root = (keep & -keep).bit_length() - 1
    disc = [0] * n
    low = [0] * n
    timer = 1
    disc[root] = low[root] = 1
    root_children = 0
    stack = [(root, -1)]
    pending = [adj[root] & keep]
    while stack:
        v, parent = stack[-1]
        m = pending[-1]
        if m:
            lowbit = m & -m
            u = lowbit.bit_length() - 1
            pending[-1] = m ^ lowbit
            if u == parent:
                continue
            if disc[u]:
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                timer += 1
                disc[u] = low[u] = timer
                if v == root:
                    root_children += 1
                stack.append((u, v))
                pending.append(adj[u] & keep)
        else:
            stack.pop()
            pending.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != root and low[v] >= disc[p]:
                    return False
    if root_children > 1:
        return False
    return timer == keep.bit_count()


@pytest.mark.parametrize("n", range(1, 7))
def test_bitset_dfs_matches_lowlink_on_all_small_graphs(n):
    # every nonempty keep mask up to n = 5; at n = 6 every vertex, or all but one
    full = (1 << n) - 1
    keeps = (range(1, full + 1) if n <= 5
             else [full] + [full ^ 1 << v for v in range(n)])
    for bits in range(1 << edge_slots(n)):
        adj = adjacency_masks(n, bits)
        for keep in keeps:
            assert P._biconnected_from_adj(n, adj, keep) == \
                lowlink_biconnected(n, adj, keep), (n, bits, keep)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 20), st.sampled_from((0.1, 0.2, 0.35, 0.5, 0.7, 0.9)),
       st.randoms(use_true_random=False))
def test_bitset_dfs_matches_lowlink_on_random_graphs(n, density, rng):
    adj = adjacency_masks(n, random_bits(n, density, rng))
    for keep in (None, rng.randint(1, (1 << n) - 1)):
        assert P._biconnected_from_adj(n, adj, keep) == \
            lowlink_biconnected(n, adj, keep)


@pytest.mark.parametrize("n, count", [(3, 1), (4, 10), (5, 238), (6, 11368)])
def test_2conn_matches_max_flow_on_all_small_graphs(n, count):
    found = 0
    for bits in range(1 << edge_slots(n)):
        got = P.TWO_CONNECTED.test_mask(n, bits)
        assert got == (P._kappa_mask(n, bits, 2) >= 2), (n, bits)
        found += got
    # labeled 2-connected graphs on n vertices
    assert found == count


# ---------------------------------------------------------------------------
# truth tables against the kernels

TABLE_PREDS = (P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.HAMPATH,
               P.HAMCYCLE, P.STAR, P.K3, P.ODDCYCLE, k_connected(4),
               k_connected(5), P.contains(path_graph(4)),
               P.contains_induced_pred(empty_graph(3), "indsub:edgeless-3"))


@pytest.mark.parametrize("pred", TABLE_PREDS, ids=lambda p: p.name)
def test_table_matches_the_kernel_on_all_small_graphs(pred):
    for n in range(1, 6):
        try:
            expected = sum(1 << m for m in range(1 << edge_slots(n))
                           if pred.test_mask(n, m))
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                pred.table(n)
            continue
        assert pred.table(n) == expected, n
        # the blocks of every width tile the table
        for width in range(edge_slots(n) + 1):
            blocks = [pred.table(n, b, width)
                      for b in range(1 << edge_slots(n) - width)]
            assert sum(t << (b << width) for b, t in enumerate(blocks)) \
                == expected, (n, width)


@pytest.mark.parametrize("n", (6, 7, 8))
@pytest.mark.parametrize("pred", TABLE_PREDS, ids=lambda p: p.name)
def test_table_blocks_match_the_kernel_on_sampled_masks(pred, n):
    rng = random.Random(f"{pred.name}-{n}")
    slots = edge_slots(n)
    for _ in range(6):
        width = rng.randint(0, 12)
        block = rng.randrange(1 << slots - width)
        table = pred.table(n, block, width)
        assert table >> (1 << width) == 0
        for i in rng.sample(range(1 << width), min(40, 1 << width)):
            assert table >> i & 1 == pred.test_mask(n, block << width | i), \
                (width, block, i)


def test_table_counts_labeled_graphs():
    # labeled connected, 2- and 3-connected graphs on 6 vertices
    assert P.CONNECTED.table(6).bit_count() == 26_704
    assert P.TWO_CONNECTED.table(6).bit_count() == 11_368
    assert P.THREE_CONNECTED.table(6).bit_count() == 1_768


def test_a_table_past_the_enumeration_budget_is_refused_at_once():
    # the 28 slot columns of the whole n = 8 table would take about 0.9 GiB;
    # the child's address space is capped so that building them fails with
    # MemoryError instead of filling the machine
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS,\n"
        "    (700 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from graphcodes.errors import CapabilityError\n"
        "from graphcodes.predicates import CONNECTED\n"
        "try:\n"
        "    CONNECTED.table(8)\n"
        "except CapabilityError as exc:\n"
        "    print(exc)\n")
    src = Path(P.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout) == (
        0, "2^28 graphs exceed the enumeration budget 2^24\n"), proc.stderr


def test_table_domain_checks():
    with pytest.raises(DomainError, match="at least 3 vertices"):
        P.HAMCYCLE.table(2)
    with pytest.raises(CapabilityError, match="Hamiltonicity cap 16"):
        P.HAMPATH.table(17, 0, 0)
    for block, width in ((0, 4), (2, 2), (-1, 2), (0, -1)):
        with pytest.raises(DomainError, match="no block"):
            P.CONNECTED.table(3, block, width)


@pytest.mark.parametrize("pred", TABLE_PREDS, ids=lambda p: p.name)
def test_table_over_a_basis_matches_the_kernel_on_its_span(pred):
    # bit i of block b is the verdict on the XOR of the rows at the set bits
    # of b << width | i
    rng = random.Random(f"basis-{pred.name}")
    for n in (4, 5, 6, 8):
        slots = edge_slots(n)
        rows = gf2_ordered_basis(rng.getrandbits(slots)
                                 for _ in range(rng.randint(0, 7)))
        width = rng.randint(0, len(rows))
        block = rng.randrange(1 << len(rows) - width)
        table = pred.table(n, block, width, rows)
        assert table >> (1 << width) == 0
        for i in range(1 << width):
            member = 0
            for j, row in enumerate(rows):
                if (block << width | i) >> j & 1:
                    member ^= row
            assert table >> i & 1 == pred.test_mask(n, member), (n, i)
        # the whole span by default
        assert pred.table(n, basis=rows) == sum(
            pred.test_mask(n, m) << i for i, m in enumerate(ordered_span(rows)))


def test_unit_rows_give_the_mask_space_matrix():
    for n in (2, 4, 6):
        slots = edge_slots(n)
        unit = [1 << s for s in range(slots)]
        for width in range(slots + 1):
            for block in (0, (1 << slots - width) - 1, 5 % (1 << slots - width)):
                assert edge_matrix(n, block, width, unit) == \
                    edge_matrix(n, block, width)


def test_table_basis_domain_checks():
    with pytest.raises(DomainError, match="past the 6"):
        P.CONNECTED.table(4, 0, 1, [1 << 6])
    with pytest.raises(DomainError, match="no block 2 of width 1 among 2"):
        P.CONNECTED.table(4, 2, 1, [1, 2])
    assert P.CONNECTED.table(4, 0, 0, []) == 0  # the empty graph alone


def test_table_cost_estimates():
    # big-int operations of one table, which decide whether linear
    # verification uses it
    def ops(pred, n):
        return P._KINDS[pred.kind].ops(pred, n)

    assert ops(P.CONNECTED, 13) == ops(P.STAR, 13) == 169
    assert ops(P.THREE_CONNECTED, 15) == (1 + 15 + 105) * 225
    assert ops(k_connected(4), 15) == (1 + 15 + 105 + 455) * 225
    assert ops(P.HAMCYCLE, 14) == ops(P.HAMPATH, 14) == 2 ** 14 * 196
    assert ops(P.ODDCYCLE, 7) == 2 ** 6 * 7
    assert ops(P.K3, 6) == 120 * 3
    assert ops(P.contains_induced_pred(empty_graph(3), "e3"), 5) == 60 * 3
    assert ops(P.K3, 2) == 0  # no placement


def test_slot_columns_mark_the_masks_with_each_bit_set():
    for width in range(11):
        assert slot_columns(width) == tuple(
            sum(1 << i for i in range(1 << width) if i >> e & 1)
            for e in range(width))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_translate_moves_bit_m_xor_g_to_bit_m(data):
    width = data.draw(st.integers(0, 10), label="width")
    x = data.draw(st.integers(0, (1 << (1 << width)) - 1), label="x")
    g = data.draw(st.integers(0, (1 << width) - 1), label="g")
    assert translate(x, g, width) == sum(
        1 << m for m in range(1 << width) if x >> (m ^ g) & 1)


# ---------------------------------------------------------------------------
# witnesses of the monotone kinds (the cover path of linear verification)

WITNESS_PREDS = (P.HAMPATH, P.HAMCYCLE, P.K3,
                 P.contains(path_graph(4), "sub:P4"))


def test_only_the_monotone_kinds_have_witnesses():
    assert {name for name, kind in P._KINDS.items()
            if kind.witness is not None} == {"hampath", "hamcycle", "contains"}
    assert P._KINDS["contains-induced"].witness is None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WITNESS_PREDS), st.integers(3, 8),
       st.sampled_from((0.2, 0.35, 0.5, 0.7)), st.randoms(use_true_random=False))
def test_witness_is_a_passing_subgraph_exactly_when_the_oracle_holds(
        pred, n, density, rng):
    bits = random_bits(n, density, rng)
    w = P._KINDS[pred.kind].witness(pred, n, bits)
    holds = oracle_check(pred, LabeledGraph(n, bits))
    assert (w is not None) == holds == pred.test_mask(n, bits)
    if holds:
        assert w & ~bits == 0
        assert oracle_check(pred, LabeledGraph(n, w))
        # exactly a Hamiltonian path or cycle, or one placement's edges
        if pred.pattern is None:
            assert w.bit_count() == n - (pred.kind == "hampath")
        else:
            assert w.bit_count() == pred.pattern.bits.bit_count()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WITNESS_PREDS), st.integers(3, 8),
       st.sampled_from((0.2, 0.35, 0.5, 0.7)), st.randoms(use_true_random=False))
def test_monotone_kinds_hold_on_every_supergraph(pred, n, density, rng):
    # adding any edge to a passing graph never makes it fail, which is what
    # lets one witness decide every span member that contains it
    bits = random_bits(n, density, rng)
    if not oracle_check(pred, LabeledGraph(n, bits)):
        return
    for s in range(edge_slots(n)):
        if not bits >> s & 1:
            assert oracle_check(pred, LabeledGraph(n, bits | 1 << s)), s
