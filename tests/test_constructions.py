import hashlib
import time
from math import comb

import pytest

from graphcodes import (
    CapabilityError,
    DomainError,
    UnsupportedParameterError,
    complete_bipartite_graph,
    complete_graph,
    edge_slots,
    empty_graph,
    graph_from_edges,
    has_spanning_star,
)
from graphcodes import constructions as C
from graphcodes import core
from graphcodes import factorization as F
from graphcodes.factorization import starter_factorization
from graphcodes.linalg import enumerate_span


def test_split_clique_small():
    fam = C.split_clique_family(3)
    expected = {
        complete_graph(3).bits,
        graph_from_edges(3, [(1, 2)]).bits,
        graph_from_edges(3, [(1, 3)]).bits,
        graph_from_edges(3, [(2, 3)]).bits,
    }
    assert set(fam.masks()) == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_split_clique_sizes(n):
    assert len(C.split_clique_family(n)) == 1 << (n - 1)


def _split_clique_by_slots(n, side):
    # every slot in colex order, kept when both ends lie on the same side
    bits = 0
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (side >> i & 1) == (side >> j & 1):
                bits |= 1 << idx
            idx += 1
    return bits


@pytest.mark.parametrize("n", range(1, 10))
def test_split_clique_and_cut_masks_match_the_slot_walk(n):
    full = (1 << edge_slots(n)) - 1
    for side in range(1 << n):
        reference = _split_clique_by_slots(n, side)
        assert C._split_clique_mask(n, side) == reference, side
        assert core.cut_mask(n, side) == full ^ reference, side


def test_split_clique_diffs_are_complete_bipartite():
    fam = C.split_clique_family(5)
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            diff = fam[i] ^ fam[j]
            # reconstruct a candidate bipartition from vertex 1's neighbors
            side = {v for v in range(2, 6) if not diff.has_edge(1, v)} | {1}
            assert diff == complete_bipartite_graph(5, side)


def test_even_split_small():
    fam = C.even_split_family(4)
    assert len(fam) == 4
    assert complete_graph(4).bits in fam.masks()
    with pytest.raises(DomainError):
        C.even_split_family(5)


@pytest.mark.parametrize("n,size", [(4, 4), (6, 16), (8, 64), (10, 256)])
def test_even_split_sizes(n, size):
    assert len(C.even_split_family(n)) == size


@pytest.mark.parametrize("n,size", [(3, 2), (5, 5), (7, 22), (9, 93)])
def test_odd_two_conn_sizes(n, size):
    fam = C.odd_two_conn_family(n)
    assert len(fam) == size
    assert size == ((1 << (n - 2)) - comb(n - 2, (n - 3) // 2) if n > 3 else 2)


def test_odd_two_conn_small_members():
    fam = C.odd_two_conn_family(3)
    assert set(fam.masks()) == {0, complete_graph(3).bits}
    with pytest.raises(DomainError):
        C.odd_two_conn_family(4)


def test_hamming_code_small():
    n, basis = C.hamming_code(3)
    assert n == 7
    assert len(basis) == 4
    assert C.hamming_minimum_distance(3) == 3
    assert C.hamming_minimum_distance(4) == 3


def test_hamming_family_collapses_at_k2():
    fam = C.hamming_bipartite_family(2)
    assert fam.rank == 0
    assert enumerate_span(fam).graphs == (empty_graph(3),)


def test_hamming_family_k3_members():
    fam = C.hamming_bipartite_family(3)
    assert fam.rank == 3
    span = enumerate_span(fam)
    assert len(span) == 8
    for g in span:
        if g.is_empty:
            continue
        # nonzero members are complete bipartite K_{3,4}
        assert sorted(set(g.degree_sequence())) == [3, 4]
        assert g.num_edges == 12


def test_hamming_family_k4_rank():
    assert C.hamming_bipartite_family(4).rank == 10


def test_ham_cycle_family_m4():
    fam = C.ham_cycle_family(4)
    span = enumerate_span(fam)
    assert len(span) == 4
    cycles = [g for g in span if not g.is_empty]
    assert all(g.num_edges == 4 and set(g.degree_sequence()) == {2} for g in cycles)


def test_ham_families_reject_bad_parameters():
    with pytest.raises(UnsupportedParameterError):
        C.ham_cycle_family(10)  # 9 composite
    with pytest.raises(DomainError):
        C.ham_cycle_family(7)
    with pytest.raises(UnsupportedParameterError):
        C.ham_path_family(9)
    with pytest.raises(UnsupportedParameterError):
        C.ham_path_family(2)


def test_ham_path_family_truncation():
    fam = C.ham_path_family(7)
    assert fam.n == 7
    assert fam.rank == 6
    for g in fam.basis:
        assert g.num_edges <= 6


@pytest.mark.parametrize("n,size", [(2, 2), (3, 4), (4, 4), (5, 6), (6, 6), (9, 10)])
def test_star_family_sizes(n, size):
    assert len(C.star_family(n)) == size


# sha256 of repr(star_family(n).masks()), recorded from the construction
# with one branch per parity of n
STAR_FAMILY_MASKS = {
    2: "923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836",
    3: "afe1c8dfb91145ead5f1d5ccfa4942bbf3d356c7a0ed88489fba20b8f007e7f1",
    4: "dfb397245b5ad1b509e14294e63de383d4848fb56044355d959a30d19070c9a2",
    5: "93e7b883a430ca0ff20b4627bd88ba482d60c1b9ee77951919a17e7eb534a6cb",
    6: "27ba3bbddb8179374258cb87cfde0a0ccbd10d85bb7edc4a07fc73e9b30059e0",
    7: "b9732d02565c93d8bf7acd8df24e068ba9789dcba6eca4ccde3997ff31b48665",
    8: "0bf1502304a02556d126ecb341800e05b37c74a8ea56b18df6a17cc9e5f75f0b",
    9: "5b305dfd506304007b0b9d3a30c7a64c40c8415ac189eb44599bbcc1f650b7b5",
    10: "b6e1cbabf1ebda6f9df2e19bb8492a92e6a617160c25a510043801d1990b3d50",
    11: "aa09c3ae0a3189d9a7f92342215296c66a8e39795288bd1f8810341c9f1418d2",
    12: "665e4fd9d6134b6ac257bd8596be660b8d0d65c44f4b5e63bab06f0577668906",
    13: "ce0c8849688aa596b0035841f9779e585589b7f8339737310492347b5386198b",
    14: "cd572d66d662d6343e9193d34618ca94f642bbcbc6f3401988a061f3d28b5279",
    15: "8e1af5592a74bbc1db15dc28c98227bffe3bdfa663d0de927c5a0d5d02f37d0d",
    16: "9a2facfa135627f286679eca83dabf30101f4efeb29e22c18deba7fcfaeeb20a",
}


@pytest.mark.parametrize("n", sorted(STAR_FAMILY_MASKS))
def test_star_family_masks_are_pinned(n):
    masks = repr(C.star_family(n).masks()).encode()
    assert hashlib.sha256(masks).hexdigest() == STAR_FAMILY_MASKS[n]


# sha256 of repr(masks()) of each split-clique family, recorded from one
# loop over the sides containing vertex 1 per family
SPLIT_FAMILY_MASKS = {
    ("split-clique", 2): "923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836",
    ("split-clique", 3): "5a45f46a6cc8b037f3977143a496ba2e34cfbc6bea3acb4295ad78c611c0efba",
    ("split-clique", 4): "a33962386fadfeb049692860329e39a9c6a3982605d3a06a836c771e16ef6e1c",
    ("split-clique", 5): "6c425aed4537a77de10de3abe6a6d674bb567e6b606f06f8e79470dd9a69ba25",
    ("split-clique", 6): "0c708536bd731a5f49bb2e44546d4b6f045a0f119821b553b862959966665674",
    ("split-clique", 7): "693c428bcf13b22b2e0d9c8a5b06b5c681205da66ea724de80bf881fec8597b2",
    ("split-clique", 8): "2b07a71d551797ce231518c93cf11b58eb93d100d354d9234b27131720204872",
    ("split-clique", 9): "3dce2dbd3e7edb4f845df8754cf855987e3fa3053f93b373c689f944fb5c14bf",
    ("split-clique", 10): "f14be90c34c1f47d28ee488f4b99d2b7470c0916848e61600cc7556175ebbfbc",
    ("split-clique", 11): "139ae9dce30a9d4478b9710c182f5aa02643b4f1a41333d433f6bd14bbb31a19",
    ("split-clique", 12): "356734a2bfef93a9aefc4d9e59de7d02d0b1e7089ebbf1541ff2f63fcf74d6f0",
    ("even-split", 4): "77a72b9c3a714d1899e4ec8f1be594742bade0adb0432eba2745ca7a6cf184c5",
    ("even-split", 6): "92c5cdd0979977ecab16dd60b92e8949c56aec00d59d9c3901e2b3fa5bdc4c93",
    ("even-split", 8): "0c0f33a3872e1054bc789f7ba3dfcd79881962b8fd45be9ab6e3834e3da06494",
    ("even-split", 10): "424ff1e518168b9d22d2e0daa55db5fa701865f8282766b36e3a4a82b0f487a8",
    ("even-split", 12): "2e87300d1acfd6b2260349d9b8c8096a7914ca0f89db8aad53e5f3de316d9097",
    ("odd-2conn", 3): "9256b3c60b4c2079ce02d8b72d585797f60e6f1f80d4297bd39d7e5c36036012",
    ("odd-2conn", 5): "c4ca8d1cfa82882c075ec3c9879cd47ed7297e62a65dc54261f2e3e8a53ae1d0",
    ("odd-2conn", 7): "43df8c01c860b886849e55b860cb512707fd30088472862b4ebb2224ca674992",
    ("odd-2conn", 9): "e06cdd10e70821bb24f8b19ea2bb8def4ab159b018221f58865ae4446db73bc1",
    ("odd-2conn", 11): "cb18a4fad3f316df8a6639540e28e42e76ffbbc9a8367b64aa181773a5dbf574",
}


@pytest.mark.parametrize("construction, n", sorted(SPLIT_FAMILY_MASKS))
def test_split_families_are_pinned(construction, n):
    fam = C.REGISTRY[construction][1](n)
    masks = repr(fam.masks()).encode()
    assert hashlib.sha256(masks).hexdigest() == SPLIT_FAMILY_MASKS[construction, n]
    assert fam.provenance == {"construction": construction, "n": n}


@pytest.mark.parametrize("fam, provenance", (
    (C.k3_family_3(), {"construction": "k3-3"}),
    (C.odd_two_conn_family(3), {"construction": "odd-2conn", "n": 3}),
    (C.star_family(2), {"construction": "star", "n": 2}),
), ids=("k3-3", "odd-2conn-3", "star-2"))
def test_empty_and_complete_pairs_are_pinned(fam, provenance):
    assert fam.masks() == [0, (1 << edge_slots(fam.n)) - 1]
    assert (fam.provenance, fam.claimed_size) == (provenance, 2)


@pytest.mark.parametrize("n", [5, 6])
def test_star_family_center_matches_auxiliary_coloring(n):
    fam = C.star_family(n)
    aux = n + 1 if n % 2 else n
    mats = starter_factorization(aux).matchings
    for h in range(1, len(fam) + 1):
        for k in range(h + 1, len(fam) + 1):
            color = next(
                idx + 1
                for idx, mat in enumerate(mats)
                if mat.has_edge(h, k)
            )
            diff = fam[h - 1] ^ fam[k - 1]
            assert diff.degree(color) == n - 1
            assert has_spanning_star(diff)


def test_k3_family_4_exact_graphs():
    fam = C.k3_family_4()
    assert fam[0] == empty_graph(4)
    assert set(fam[1].edges()) == {(1, 2), (2, 3), (1, 3), (3, 4)}
    assert set(fam[2].edges()) == {(2, 3), (3, 4), (2, 4), (1, 4)}
    assert set(fam[3].edges()) == {(1, 2), (1, 3), (2, 4), (1, 4)}
    # closed under symmetric difference
    masks = set(fam.masks())
    assert all(a ^ b in masks for a in masks for b in masks)


def test_k3_and_codd_span_sizes():
    assert C.k3_family_5().span_size == 16
    assert C.k3_family_6().span_size == 64
    assert C.codd_family_7().span_size == 512
    assert len(C.k3_family_3()) == 2


def test_clique_agreement_family():
    assert len(C.clique_agreement_family(3, 2)) == 4
    fam = C.clique_agreement_family(4, 3)
    assert len(fam) == 8
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            diff = fam[i] ^ fam[j]
            for a in range(1, 4):
                for b in range(a + 1, 4):
                    assert not diff.has_edge(a, b)
    with pytest.raises(CapabilityError):
        C.clique_agreement_family(9, 2)


def test_dual_family_sizes():
    assert len(C.dual_isolated_family(4)) == 8
    assert len(C.dual_pendant_family(4)) == 16
    assert len(C.dual_lowdeg_family(4)) == 32
    assert len(C.dual_star_family(4)) == 16
    assert C.dual_isolated_implicit(5).size == 2 ** 6
    assert C.dual_pendant_implicit(5).size == 2 ** 7
    assert C.dual_lowdeg_size(5) == 5 * 2 ** 6
    assert C.dual_star_implicit(5).size == 2 ** 7


def test_dual_members_have_required_shape():
    for g in C.dual_isolated_family(4):
        assert g.degree(4) == 0
    for g in C.dual_pendant_family(4):
        assert g.degree(4) <= 1
        assert g.degree(4) == 0 or g.has_edge(3, 4)
    for g in C.dual_lowdeg_family(4):
        assert g.degree(4) <= 1
    cover = C.star_cover_edges(5)
    assert cover == [(1, 2), (3, 4), (4, 5)]
    for g in C.dual_star_family(5):
        for e in cover:
            assert g.has_edge(*e)


def test_dual_subgraph_family():
    host = complete_bipartite_graph(5, {1, 2})
    fam = C.dual_subgraph_family(5, host)
    assert len(fam) == 64
    for g in fam:
        assert g.bits & ~host.bits == 0
    with pytest.raises(DomainError):
        C.dual_subgraph_family(4, host)


def test_dual_lowdeg_refuses_past_the_enumeration_budget():
    # 9 * 2^28 graphs: refused from the closed-form size, before any listing
    start = time.perf_counter()
    with pytest.raises(CapabilityError):
        C.dual_lowdeg_family(9)
    assert time.perf_counter() - start < 1


def test_enumeration_budget():
    with pytest.raises(CapabilityError):
        C.dual_isolated_family(9)


def test_implicit_families():
    import random

    imp = C.dual_star_implicit(8)
    assert imp.log2_size == edge_slots(8) - 4
    rng = random.Random(0)
    for _ in range(20):
        g = imp.sample(rng)
        assert imp.contains(g)
        for e in C.star_cover_edges(8):
            assert g.has_edge(*e)
    assert not imp.contains(empty_graph(8))
    iso = C.dual_isolated_implicit(5)
    assert iso.log2_size == edge_slots(4)
    assert iso.contains(empty_graph(5))
    pendant = C.dual_pendant_implicit(5)
    assert pendant.contains(graph_from_edges(5, [(1, 2), (4, 5)]))
    assert not pendant.contains(graph_from_edges(5, [(3, 5)]))
    with pytest.raises(DomainError):
        C.dual_pendant_implicit(2)


def subset_families(n):
    """Every subset family on n vertices, with the hosts of dual-subgraph
    taken as the empty graph, a complete bipartite graph and K_n."""
    if n >= 2:
        yield C.dual_isolated_implicit(n)
        yield C.dual_star_implicit(n)
        for r in range(2, n + 1):
            yield C.clique_agreement_implicit(n, r)
    if n >= 3:
        yield C.dual_pendant_implicit(n)
    for host in (empty_graph(n), complete_bipartite_graph(n, {1}),
                 complete_graph(n)):
        yield C.dual_subgraph_implicit(n, host)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_equals_brute_force_filter(n):
    for imp in subset_families(n):
        base, free = imp.base_bits, imp.free_mask
        brute = sorted(m for m in range(1 << comb(n, 2)) if m & ~free == base)
        fam = imp.enumerate()
        assert fam.masks() == brute, imp.provenance
        assert fam.claimed_size == imp.size == len(brute)
        assert fam.provenance == imp.provenance


def test_enumeration_budget_message():
    with pytest.raises(CapabilityError, match=r"^2\^31 graphs exceed the "
                       r"enumeration budget 2\^24$"):
        C.dual_star_family(9)


@pytest.mark.parametrize("n", range(3, 9))
def test_product_saturation(n):
    primal = 1 << (n - 1)
    dual = C.dual_isolated_implicit(n).size
    assert primal * dual == 1 << edge_slots(n)


def test_complement_closure_of_split_clique():
    fam = C.split_clique_family(4)
    complemented = [g.complement() for g in fam]
    masks = {g.bits for g in complemented}
    assert 0 in masks
    assert all(a ^ b in masks for a in masks for b in masks)
    for g, h in zip(fam, complemented):
        for g2, h2 in zip(fam, complemented):
            assert g ^ g2 == h ^ h2


@pytest.mark.parametrize("build, shown", [
    (lambda: C.split_clique_family(9), "n=9"),
    (lambda: C.even_split_family(10), "n=10"),
    (lambda: C.odd_two_conn_family(9), "n=9"),
    (lambda: C.hamming_bipartite_family(4), "n=2^4-1"),
    (lambda: C.ham_cycle_family(12), "n=12"),
    (lambda: C.ham_path_family(11), "n=11"),
    (lambda: C.star_family(9), "n=9"),
    (lambda: C.clique_agreement_implicit(9, 3), "n=9"),
    (lambda: C.dual_isolated_implicit(9), "n=9"),
    (lambda: C.dual_pendant_implicit(9), "n=9"),
    (lambda: C.dual_lowdeg_family(9), "n=9"),
    (lambda: C.dual_star_implicit(9), "n=9"),
    (lambda: starter_factorization(10), "n=10"),
    (lambda: graph_from_edges(9, [(1, 2)]), "n=9"),
], ids=("split-clique", "even-split", "odd-2conn", "hamming-3conn",
        "hamcycle", "hampath", "star", "clique-agreement", "dual-isolated",
        "dual-pendant", "dual-lowdeg", "dual-star", "factorization",
        "graph_from_edges"))
def test_builders_check_the_vertex_limit_before_building(monkeypatch, build,
                                                         shown):
    # every helper that sizes or fills a mask fails the test if reached, so
    # a builder past the limit must refuse n first
    def unreachable(*args):
        raise AssertionError("a mask was built past the vertex limit")

    for module, name in ((C, "_split_clique_mask"), (C, "cut_mask"),
                         (C, "edge_slots"), (C, "edge_index"),
                         (C, "hamming_code"), (C, "_is_prime"),
                         (C, "starter_factorization"),
                         (C, "star_cover_edges"), (core, "edge_index"),
                         (F, "graph_from_edges")):
        monkeypatch.setattr(module, name, unreachable)
    core.set_vertex_limit(8)
    try:
        with pytest.raises(CapabilityError) as exc:
            build()
    finally:
        core.set_vertex_limit(core.DEFAULT_VERTEX_LIMIT)
    assert str(exc.value) == f"{shown} exceeds the configured vertex limit 8"
