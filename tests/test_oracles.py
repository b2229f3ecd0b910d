import random

import pytest

from graphcodes import CapabilityError, LabeledGraph, complete_graph, path_graph
from graphcodes import predicates as P
from graphcodes import oracles as O


ALL_PREDICATES = [
    P.CONNECTED,
    P.TWO_CONNECTED,
    P.THREE_CONNECTED,
    P.HAMPATH,
    P.HAMCYCLE,
    P.STAR,
    P.K3,
    P.ODDCYCLE,
    P.contains_induced_pred(path_graph(3), "indsub:P3"),
]


def applicable(pred, n):
    if pred.kind == "hamcycle":
        return n >= 3
    return True


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_agreement_exhaustive_small(n):
    for bits in range(1 << (n * (n - 1) // 2)):
        g = LabeledGraph(n, bits)
        for pred in ALL_PREDICATES:
            if applicable(pred, n):
                assert pred.test(g) == O.oracle_check(pred, g), (pred.name, bits)
        assert P.vertex_connectivity(g) == O.oracle_vertex_connectivity(g)


def test_oracle_agreement_sampled_n6():
    rng = random.Random(99)
    for _ in range(300):
        g = LabeledGraph(6, rng.getrandbits(15))
        for pred in ALL_PREDICATES:
            assert pred.test(g) == O.oracle_check(pred, g), (pred.name, g.bits)
        assert P.vertex_connectivity(g) == O.oracle_vertex_connectivity(g)


def test_every_predicate_kind_has_an_oracle():
    assert set(O._ORACLES) == set(P._KINDS)


def test_oracle_cap():
    with pytest.raises(CapabilityError):
        O.oracle_check(P.CONNECTED, complete_graph(9))
    with pytest.raises(CapabilityError):
        O.oracle_vertex_connectivity(complete_graph(9))


@pytest.mark.parametrize("k", [4, 5])
def test_k_connected_matches_oracle(k):
    # k >= 4 is decided by max flow over the cut pairs; every graph at n=5,
    # then dense seeded samples at n=6..8, where both verdicts occur
    pred = P.k_connected(k)
    for bits in range(1 << 10):
        g = LabeledGraph(5, bits)
        assert pred.test(g) == O.oracle_is_k_connected(g, k), bits
    rng = random.Random(4000 + k)
    for n in (6, 7, 8):
        slots = n * (n - 1) // 2
        seen = set()
        for _ in range(150):
            density = rng.choice((0.6, 0.75, 0.85, 0.95))
            bits = sum(1 << i for i in range(slots) if rng.random() < density)
            g = LabeledGraph(n, bits)
            verdict = pred.test(g)
            assert verdict == O.oracle_is_k_connected(g, k), (n, bits)
            seen.add(verdict)
        assert seen == {True, False}, n
