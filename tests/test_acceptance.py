"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from graphcodes import (
    LabeledGraph,
    complete_graph,
    cycle_graph,
    edge_slots,
    path_graph,
)
from graphcodes import bounds as B
from graphcodes import constructions as C
from graphcodes import oracles as O
from graphcodes import predicates as P
from graphcodes import search as S
from graphcodes.factorization import starter_factorization, verify_p1f
from graphcodes.verify import (
    cross_difference_distinct,
    verify_dual_family,
    verify_dual_sampled,
    verify_family,
    verify_linear_family,
)


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed <= budget_s, (
        f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    )
    print(f"[criterion {num:2d}] {name}: PASS ({elapsed:.1f}s <= {budget_s}s)")


def test_criterion_1_connectivity():
    with criterion(1, "connectivity families", 10):
        for n in range(3, 11):
            fam = C.split_clique_family(n)
            assert len(fam) == 1 << (n - 1)
            start = time.perf_counter()
            assert verify_family(fam, P.CONNECTED).passed
            if n == 10:
                assert time.perf_counter() - start <= 10
            dual_log2 = edge_slots(n - 1)
            assert (n - 1) + dual_log2 == edge_slots(n)
            assert C.dual_isolated_implicit(n).size == 1 << dual_log2
            if n <= 5:
                dual = C.dual_isolated_family(n)
                assert verify_dual_family(dual, P.CONNECTED).passed


def test_criterion_2_two_connectivity():
    with criterion(2, "2-connectivity families", 10):
        for n in (4, 6, 8, 10):
            fam = C.even_split_family(n)
            assert len(fam) == 1 << (n - 2)
            assert verify_family(fam, P.TWO_CONNECTED).passed
        for n, size in ((5, 5), (7, 22), (9, 93)):
            fam = C.odd_two_conn_family(n)
            assert len(fam) == size
            assert verify_family(fam, P.TWO_CONNECTED).passed


def test_criterion_3_three_connected_linear():
    with criterion(3, "3-connected linear families", 60):
        fam3 = C.hamming_bipartite_family(3)
        assert fam3.span_size == 8
        assert verify_linear_family(fam3, P.THREE_CONNECTED).passed
        fam4 = C.hamming_bipartite_family(4)
        assert fam4.span_size == 1024
        assert verify_linear_family(fam4, P.THREE_CONNECTED).passed
        for k in (2, 3, 4):
            assert C.hamming_minimum_distance(k) == 3


def test_criterion_4_hamiltonian_path():
    with criterion(4, "Hamiltonian path families", 120):
        for p in (3, 5, 7, 11):
            fam = C.ham_path_family(p)
            assert fam.span_size == 1 << (p - 1)
            assert verify_linear_family(fam, P.HAMPATH).passed


def test_criterion_5_hamiltonian_cycle():
    with criterion(5, "Hamiltonian cycle families", 120):
        for n in (4, 6, 8, 12):
            fam = C.ham_cycle_family(n)
            assert fam.span_size == 1 << (n - 2)
            assert verify_linear_family(fam, P.HAMCYCLE).passed
            assert verify_p1f(starter_factorization(n))
        assert not verify_p1f(starter_factorization(16))


def test_criterion_6_spanning_star():
    with criterion(6, "spanning-star families", 5):
        for n in range(2, 11):
            fam = C.star_family(n)
            assert len(fam) == B.star_upper_bound(n)
            assert verify_family(fam, P.STAR).passed


def test_criterion_7_dual_star():
    with criterion(7, "dual spanning-star families", 60):
        for n in (4, 6):
            fam = C.dual_star_family(n)
            assert len(fam) == 1 << (edge_slots(n) - n // 2)
            assert verify_dual_family(fam, P.STAR).passed
        imp = C.dual_star_implicit(8)
        assert imp.log2_size == edge_slots(8) - 4
        assert verify_dual_sampled(imp, P.STAR, pairs=2000, seed=0).passed
        result = S.max_dual_family(4, P.STAR)
        assert result.status == "exact" and result.optimum == 16
        assert verify_dual_family(result.certificate, P.STAR).passed


def test_criterion_8_triangle_and_odd_cycle_families():
    with criterion(8, "triangle / odd-cycle families", 5):
        assert len(C.k3_family_3()) == 2
        assert verify_family(C.k3_family_3(), P.K3).passed
        assert len(C.k3_family_4()) == 4
        assert verify_family(C.k3_family_4(), P.K3).passed
        fam5 = C.k3_family_5()
        assert fam5.span_size == 16
        assert verify_linear_family(fam5, P.K3).passed
        fam6 = C.k3_family_6()
        assert fam6.span_size == 64
        assert verify_linear_family(fam6, P.K3).passed
        codd = C.codd_family_7()
        assert codd.span_size == 512
        rep = verify_linear_family(codd, P.ODDCYCLE)
        assert rep.passed and rep.pairs_checked == 511
        for n, size in ((3, 2), (4, 4), (5, 16), (6, 64), (7, 512)):
            assert size == 1 << B.subgraph_upper_bound(n, 3)


def test_criterion_9_exhaustive_optima():
    cases = [
        ("M_K3(3)", lambda: S.max_good_family(3, P.K3), 2, P.K3, False),
        ("M_K3(4)", lambda: S.max_good_family(4, P.K3), 4, P.K3, False),
        ("M_conn(3)", lambda: S.max_good_family(3, P.CONNECTED), 4,
         P.CONNECTED, False),
        ("M_conn(4)", lambda: S.max_good_family(4, P.CONNECTED), 8,
         P.CONNECTED, False),
        ("M_star(4)", lambda: S.max_good_family(4, P.STAR), 4, P.STAR, False),
        ("D_conn(4)", lambda: S.max_dual_family(4, P.CONNECTED), 8,
         P.CONNECTED, True),
    ]
    with criterion(9, "exhaustive optima", 60):
        for name, run, expected, pred, dual in cases:
            start = time.perf_counter()
            result = run()
            assert time.perf_counter() - start <= 60, name
            assert result.status == "exact", name
            assert result.optimum == expected, name
            check = verify_dual_family if dual else verify_family
            assert check(result.certificate, pred).passed, name


def _oracle_predicates():
    return [
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


def test_criterion_10_oracle_equivalence():
    preds = _oracle_predicates()
    with criterion(10, "oracle equivalence", 120):
        for n in (2, 3, 4, 5):
            for bits in range(1 << edge_slots(n)):
                g = LabeledGraph(n, bits)
                for pred in preds:
                    if pred.kind == "hamcycle" and n < 3:
                        continue
                    assert pred.test(g) == O.oracle_check(pred, g), (
                        n, bits, pred.name,
                    )
                assert P.vertex_connectivity(g) == O.oracle_vertex_connectivity(g)
        for n in (6, 7):
            rng = random.Random(20240 + n)
            for _ in range(10_000):
                g = LabeledGraph(n, rng.getrandbits(edge_slots(n)))
                for pred in preds:
                    assert pred.test(g) == O.oracle_check(pred, g), (
                        n, g.bits, pred.name,
                    )


def test_criterion_11_distancity_and_rates():
    with criterion(11, "distancity formulas and rates", 30):
        assert B.distancity(complete_graph(3)) == Fraction(1, 2)
        assert B.distancity(complete_graph(4)) == Fraction(1, 3)
        assert B.distancity(cycle_graph(5), induced=True) == Fraction(1, 2)
        c5 = cycle_graph(5)
        assert B.partition_number(c5) == 2 == B.chromatic_number(c5) - 1
        # every built family stays within its bound: size <= 2^(bound exponent)
        built = []
        for n in range(3, 11):
            built.append((n, len(C.split_clique_family(n)), n - 1))
            if n % 2 == 0:
                built.append((n, len(C.even_split_family(n)), n - 2))
            else:
                built.append((n, len(C.odd_two_conn_family(n)), n - 2))
            if n % 2 == 0 and n - 1 in (3, 5, 7, 11):
                built.append((n, C.ham_cycle_family(n).span_size, n - 2))
            if n % 2 and n in (3, 5, 7):
                built.append((n, C.ham_path_family(n).span_size, n - 1))
        built.append((7, C.hamming_bipartite_family(3).span_size, 3))
        for n, size in ((3, 2), (4, 4), (5, 16), (6, 64)):
            built.append((n, size, B.subgraph_upper_bound(n, 3)))
        built.append((7, C.codd_family_7().span_size,
                      B.subgraph_upper_bound(7, 3)))
        for n, size, exponent in built:
            assert size <= 1 << exponent
            assert B.rate(n, size) <= 2 * exponent / (n * (n - 1)) + 1e-12
        # star families against the non-power-of-two coloring bound
        for n in range(2, 11):
            assert len(C.star_family(n)) <= B.star_upper_bound(n)


def test_criterion_12_cross_difference_distinctness():
    with criterion(12, "cross-difference distinctness", 10):
        for n in (5, 6):
            a = C.split_clique_family(n)
            b = C.dual_isolated_family(n)
            assert cross_difference_distinct(a, b)
            assert len(a) * len(b) == 1 << edge_slots(n)
        for n in range(3, 11):
            assert (1 << (n - 1)) * C.dual_isolated_implicit(n).size == 1 << edge_slots(n)
