"""Value semantics of the package's immutable classes: equality, hashing,
repr, immutability, pickling, copying, construction and validation.  The
expected values were recorded when these classes were frozen slotted
dataclasses, so that replacing the dataclass machinery changes none of them."""

import copy
import pickle
from fractions import Fraction

import pytest

from graphcodes.bounds import BoundReport
from graphcodes.core import LabeledGraph, complete_graph, empty_graph
from graphcodes.errors import CapabilityError, DomainError
from graphcodes.factorization import OneFactorization, starter_factorization
from graphcodes.family import GraphFamily, ImplicitFamily, LoadedFamily
from graphcodes.linalg import LinearFamily
from graphcodes.predicates import K3, Predicate
from graphcodes.search import SearchResult
from graphcodes.verify import VerifyReport

E3 = empty_graph(3)
K3G = complete_graph(3)
FAM = GraphFamily(3, (E3, K3G), provenance={"construction": "k3-3"},
                  claimed_size=2)
LINEAR = LinearFamily(3, (LabeledGraph(3, 1), LabeledGraph(3, 2),
                          LabeledGraph(3, 3)))
G3 = "LabeledGraph(n=3, edges=[])"
K3R = "LabeledGraph(n=3, edges=[(1, 2), (1, 3), (2, 3)])"

# (value, its repr, the fields equality and hashing compare)
CASES = [
    (LabeledGraph(4, 0b101), "LabeledGraph(n=4, edges=[(1, 2), (2, 3)])",
     ("n", "bits")),
    (FAM,
     f"GraphFamily(n=3, graphs=({G3}, {K3R}), "
     "provenance={'construction': 'k3-3'}, claimed_size=2)",
     ("n", "graphs")),
    (ImplicitFamily(3, 1, 6, provenance={"n": 3}),
     "ImplicitFamily(n=3, base_bits=1, free_mask=6, provenance={'n': 3})",
     ("n", "base_bits", "free_mask")),
    (LoadedFamily(n=3, graphs=(E3, K3G), role="basis", provenance={"a": 1}),
     f"LoadedFamily(n=3, graphs=({G3}, {K3R}), role='basis', "
     "provenance={'a': 1})",
     ("n", "graphs", "role", "provenance")),
    (LINEAR,
     "LinearFamily(n=3, basis=(LabeledGraph(n=3, edges=[(1, 2)]), "
     "LabeledGraph(n=3, edges=[(1, 3)]), "
     "LabeledGraph(n=3, edges=[(1, 2), (1, 3)])), rank=2, redundant=True)",
     ("n", "basis", "rank", "redundant")),
    (K3, f"Predicate(name='k3', kind='contains', k=None, pattern={K3R})",
     ("name", "kind", "k", "pattern")),
    (Predicate("2conn", "kconn", k=2),
     "Predicate(name='2conn', kind='kconn', k=2, pattern=None)",
     ("name", "kind", "k", "pattern")),
    (VerifyReport(False, "pairwise", 1, ((0, 1), K3G), "memoized", 1),
     "VerifyReport(passed=False, mode='pairwise', pairs_checked=1, "
     f"witness=((0, 1), {K3R}), method='memoized', predicate_calls=1)",
     ("passed", "mode", "pairs_checked", "witness", "method",
      "predicate_calls")),
    (VerifyReport(True, "linear", 3, None),
     "VerifyReport(passed=True, mode='linear', pairs_checked=3, "
     "witness=None, method=None, predicate_calls=None)",
     ("passed", "mode", "pairs_checked", "witness", "method",
      "predicate_calls")),
    (SearchResult(2, FAM, 5, "exact", rank=1,
                  phase_seconds={"classify": 0.5}),
     f"SearchResult(optimum=2, certificate={FAM!r}, explored=5, "
     "status='exact', rank=1, candidates=None, compat_edges=None, "
     "size_floor=None, size_cap=None, phase_seconds={'classify': 0.5})",
     ("optimum", "certificate", "explored", "status", "rank", "candidates",
      "compat_edges", "size_floor", "size_cap", "phase_seconds")),
    (SearchResult(2, FAM, 5, "timeout"),
     f"SearchResult(optimum=2, certificate={FAM!r}, explored=5, "
     "status='timeout', rank=None, candidates=None, compat_edges=None, "
     "size_floor=None, size_cap=None, phase_seconds=None)",
     ("optimum", "certificate", "explored", "status", "rank", "candidates",
      "compat_edges", "size_floor", "size_cap", "phase_seconds")),
    (BoundReport(4, "connected", 8, "split-clique", 8, Fraction(3), "cut"),
     "BoundReport(n=4, predicate='connected', lower=8, "
     "lower_source='split-clique', upper=8, upper_log2=Fraction(3, 1), "
     "upper_source='cut')",
     ("n", "predicate", "lower", "lower_source", "upper", "upper_log2",
      "upper_source")),
    (starter_factorization(4),
     "OneFactorization(m=4, matchings=("
     "LabeledGraph(n=4, edges=[(2, 3), (1, 4)]), "
     "LabeledGraph(n=4, edges=[(1, 3), (2, 4)]), "
     "LabeledGraph(n=4, edges=[(1, 2), (3, 4)])))",
     ("m", "matchings")),
]
IDS = [f"{type(value).__name__}-{i}" for i, (value, _, _) in enumerate(CASES)]


def _hashable(key: tuple) -> bool:
    try:
        hash(key)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_repr_is_unchanged(value, text, compared):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(value, text, compared):
    key = tuple(getattr(value, name) for name in compared)
    if _hashable(key):
        assert hash(value) == hash(key)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_equality_is_by_class_and_compared_fields(value, text, compared):
    assert value == value
    assert value != tuple(getattr(value, name) for name in compared)
    assert type(value).__eq__(value, object()) is NotImplemented
    assert value != LabeledGraph(1)


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_assignment_and_deletion_raise(value, text, compared):
    for name in (*compared, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field "
                                                 f"'{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field "
                                                 f"'{name}'"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_pickle_and_copies_round_trip(value, text, compared):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == text
    assert copy.deepcopy(value) is not value


def test_uncompared_fields_are_ignored():
    bare = GraphFamily(3, (E3, K3G))
    assert bare == FAM and hash(bare) == hash(FAM)
    assert (bare.provenance, bare.claimed_size) == ({}, None)
    assert GraphFamily(3, (K3G, E3)) != FAM
    implicit = ImplicitFamily(3, 1, 6)
    assert implicit == ImplicitFamily(3, 1, 6, provenance={"n": 3})
    assert hash(implicit) == hash(ImplicitFamily(3, 1, 6, provenance={"x": 1}))
    assert implicit != ImplicitFamily(3, 0, 6)
    # the same span from other generators differs: basis is compared
    assert LINEAR.rows == (1, 2)
    assert LINEAR != LinearFamily(3, (LabeledGraph(3, 1), LabeledGraph(3, 2)))
    assert LabeledGraph(3, 1) != LabeledGraph(4, 1)


def test_keyword_construction_and_defaults():
    assert LabeledGraph(n=3) == LabeledGraph(3, 0)
    fam = GraphFamily(n=3, graphs=[E3, K3G])
    assert fam.graphs == (E3, K3G) and fam.provenance == {}
    assert fam.provenance is not GraphFamily(3, ()).provenance
    assert ImplicitFamily(n=3, base_bits=0, free_mask=7).provenance == {}
    lin = LinearFamily(n=3, basis=[K3G])
    assert (lin.basis, lin.rank, lin.redundant, lin.rows) == (
        (K3G,), 1, False, (7,))
    pred = Predicate(name="x", kind="connected")
    assert (pred.k, pred.pattern) == (None, None)
    report = VerifyReport(passed=True, mode="pairwise", pairs_checked=0,
                          witness=None)
    assert (report.method, report.predicate_calls) == (None, None)
    result = SearchResult(optimum=1, certificate=FAM, explored=0,
                          status="exact")
    assert (result.rank, result.candidates, result.compat_edges,
            result.size_floor, result.size_cap, result.phase_seconds) == (
        None, None, None, None, None, None)
    assert OneFactorization(m=4, matchings=list(
        starter_factorization(4).matchings)).matchings == (
        starter_factorization(4).matchings)


@pytest.mark.parametrize("build, message", [
    (lambda: GraphFamily(3), "GraphFamily.__init__() missing 1 required "
                             "positional argument: 'graphs'"),
    (lambda: LinearFamily(3, (), rank=0),
     "LinearFamily.__init__() got an unexpected keyword argument 'rank'"),
    (lambda: LabeledGraph(3, 0, 1),
     "LabeledGraph.__init__() takes from 2 to 3 positional arguments but 4 "
     "were given"),
    (lambda: LoadedFamily(3, (), None),
     "LoadedFamily.__init__() missing 1 required positional argument: "
     "'provenance'"),
])
def test_bad_signatures_raise_type_error(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda: LabeledGraph(0), DomainError, "a graph needs at least one vertex"),
    (lambda: LabeledGraph(65), CapabilityError,
     "n=65 exceeds the configured vertex limit 64"),
    (lambda: LabeledGraph(3, 8), DomainError, "edge bits out of range for n=3"),
    (lambda: LabeledGraph(3, -1), DomainError,
     "edge bits out of range for n=3"),
    (lambda: GraphFamily(3, (empty_graph(4),)), DomainError,
     "member on 4 vertices in a family on 3"),
    (lambda: GraphFamily(3, (E3, E3)), DomainError,
     "duplicate graph in family"),
    (lambda: GraphFamily(3, (E3, K3G), claimed_size=3), DomainError,
     "construction produced 2 graphs, expected 3"),
    (lambda: ImplicitFamily(3, 1, 3), DomainError,
     "base bits must avoid the free slots"),
    (lambda: ImplicitFamily(3, 8, 0), DomainError, "slot masks out of range"),
    (lambda: LinearFamily(3, (empty_graph(4),)), DomainError,
     "generator on 4 vertices in a family on 3"),
    (lambda: Predicate("x", "nope"), DomainError,
     "unknown predicate kind 'nope'"),
    (lambda: VerifyReport(True, "pairwise", 1, ((0, 1), K3G)), DomainError,
     "pass verdict and witness disagree"),
    (lambda: VerifyReport(False, "pairwise", 1, None), DomainError,
     "pass verdict and witness disagree"),
    (lambda: BoundReport(4, "connected", 9, None, 8, None, None), DomainError,
     "lower bound exceeds upper bound"),
    (lambda: OneFactorization(5, ()), DomainError,
     "a one-factorization needs even m >= 4"),
    (lambda: OneFactorization(4, starter_factorization(4).matchings[:2]),
     DomainError, "expected 3 matchings, got 2"),
    (lambda: OneFactorization(4, starter_factorization(6).matchings[:3]),
     DomainError, "matching on wrong vertex count"),
    (lambda: OneFactorization(4, (complete_graph(4),) * 3), DomainError,
     "class is not a perfect matching"),
    (lambda: OneFactorization(4, starter_factorization(4).matchings[:1] * 3),
     DomainError, "matchings are not edge-disjoint"),
])
def test_validation_errors_are_unchanged(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("value, text, compared", CASES, ids=IDS)
def test_every_slot_is_set(value, text, compared):
    for name in type(value).__slots__:
        getattr(value, name)


@pytest.mark.parametrize("values", [("x", "connected"),
                                    ("x", "connected", None, None, 1)])
def test_set_refuses_the_wrong_number_of_values(values):
    with pytest.raises(ValueError, match="zip"):
        Predicate.__new__(Predicate)._set(*values)


def test_fields_default_to_the_slots():
    for cls in {type(value) for value, _, _ in CASES}:
        if cls is LinearFamily:
            assert cls._fields == ("n", "basis") != cls.__slots__
        else:
            assert cls._fields == cls.__slots__, cls.__name__
