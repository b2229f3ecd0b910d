import pytest

from graphcodes import (DomainError, complete_graph, has_hamiltonian_cycle,
                        has_odd_cycle)
from graphcodes.factorization import (
    OneFactorization,
    proper_edge_coloring,
    starter_factorization,
    verify_p1f,
)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14, 16, 18, 20])
def test_starter_factorization_is_valid(m):
    f = starter_factorization(m)  # the constructor validates the invariants
    assert len(f.matchings) == m - 1
    union = 0
    for matching in f.matchings:
        assert matching.num_edges == m // 2
        assert union & matching.bits == 0
        union |= matching.bits
    assert union == complete_graph(m).bits


@pytest.mark.parametrize("m", [3, 2, 5, 7])
def test_starter_factorization_domain(m):
    with pytest.raises(DomainError):
        starter_factorization(m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_perfection_for_prime_case(p):
    assert verify_p1f(starter_factorization(p + 1))


def test_perfection_fails_for_m16():
    assert not verify_p1f(starter_factorization(16))


@pytest.mark.parametrize("m", range(4, 17, 2))
def test_perfection_matches_hamiltonian_cycles(m):
    matchings = starter_factorization(m).matchings
    perfect = all(has_hamiltonian_cycle(a ^ b)
                  for i, a in enumerate(matchings) for b in matchings[i + 1:])
    assert verify_p1f(starter_factorization(m)) == perfect
    assert perfect == (m not in (10, 16))


def test_one_factorization_validation():
    f = starter_factorization(4)
    with pytest.raises(DomainError):
        OneFactorization(4, f.matchings[:2])
    with pytest.raises(DomainError):
        OneFactorization(4, (f.matchings[0],) * 3)


def test_proper_edge_coloring_sizes():
    assert [c.num_edges for c in proper_edge_coloring(5)] == [2] * 5
    assert [c.num_edges for c in proper_edge_coloring(4)] == [2] * 3
    assert len(proper_edge_coloring(2)) == 1
    for m in range(2, 12):
        classes = proper_edge_coloring(m)
        # class count realizes the edge chromatic number of K_m
        assert len(classes) == (m - 1 if m % 2 == 0 else m)
        union = 0
        for c in classes:
            assert union & c.bits == 0
            assert max(c.degree_sequence()) <= 1
            union |= c.bits
        assert union == complete_graph(m).bits


@pytest.mark.parametrize("m", [5, 7, 8, 9])
def test_pairwise_class_unions_are_paths_and_even_cycles(m):
    classes = proper_edge_coloring(m)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            union = classes[i] ^ classes[j]
            assert max(union.degree_sequence()) <= 2
            assert not has_odd_cycle(union)
