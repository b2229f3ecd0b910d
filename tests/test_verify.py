import random

import pytest

from graphcodes import (
    CapabilityError,
    DomainError,
    GraphFamily,
    ImplicitFamily,
    LabeledGraph,
    complete_bipartite_graph,
    complete_graph,
    cross_difference_distinct,
    cycle_graph,
    empty_graph,
    verify_dual_family,
    verify_dual_sampled,
    verify_family,
    verify_linear_family,
)
from graphcodes import constructions as C
from graphcodes import predicates as P
from graphcodes import core
from graphcodes import verify as V
from graphcodes.linalg import LinearFamily, enumerate_span


def test_verify_split_clique_six():
    rep = verify_family(C.split_clique_family(6), P.CONNECTED)
    assert rep.passed and rep.mode == "pairwise"
    assert rep.pairs_checked == 496
    assert rep.witness is None


def test_verify_perturbed_family_fails_with_witness():
    fam = C.k3_family_4()
    bad = GraphFamily(4, (fam[0], fam[1], fam[2], fam[1].complement()))
    rep = verify_family(bad, P.K3)
    assert not rep.passed
    (i, j), diff = rep.witness
    assert (i, j) == (0, 3)
    assert set(diff.edges()) == {(1, 4), (2, 4)}
    assert rep.pairs_checked == 3  # pairs (0,1), (0,2), (0,3)


def test_verify_star_family():
    assert verify_family(C.star_family(5), P.STAR).passed


def test_verify_linear_families():
    rep = verify_linear_family(C.k3_family_5(), P.K3)
    assert rep.passed and rep.pairs_checked == 15
    rep = verify_linear_family(C.codd_family_7(), P.ODDCYCLE)
    assert rep.passed and rep.pairs_checked == 511
    rep = verify_linear_family(C.ham_cycle_family(8), P.HAMCYCLE)
    assert rep.passed and rep.pairs_checked == 63


def test_verify_linear_failure_witness():
    gens = (complete_graph(3),)  # span {0, K_3}; K_3 has no spanning... it does
    fam = LinearFamily(3, gens)
    rep = verify_linear_family(fam, P.TWO_CONNECTED)
    assert rep.passed
    bad = LinearFamily(3, (LabeledGraph(3, 0b001),))
    rep = verify_linear_family(bad, P.TWO_CONNECTED)
    assert not rep.passed
    assert rep.witness[0] == (0, 1)


def test_linear_equivalent_to_pairwise_on_span():
    preds = (P.K3, P.THREE_CONNECTED, P.HAMCYCLE, P.STAR)
    failures = 0
    for fam in (C.k3_family_5(), C.hamming_bipartite_family(3)):
        for pred in preds:
            linear = verify_linear_family(fam, pred)
            pairwise = verify_family(enumerate_span(fam), pred)
            assert linear.passed == pairwise.passed
            if not linear.passed:
                failures += 1
                assert linear.witness == pairwise.witness
                assert linear.pairs_checked == pairwise.pairs_checked
    assert failures >= 4


def test_verify_dual_families():
    assert verify_dual_family(C.dual_isolated_family(4), P.CONNECTED).passed
    rep = verify_dual_family(C.dual_star_family(4), P.STAR)
    assert rep.passed and rep.pairs_checked == 120
    host = complete_bipartite_graph(5, {1, 2})
    assert verify_dual_family(C.dual_subgraph_family(5, host), P.K3).passed


def test_verify_dual_failure():
    fam = GraphFamily(3, (empty_graph(3), complete_graph(3)))
    rep = verify_dual_family(fam, P.CONNECTED)
    assert not rep.passed
    assert rep.witness[0] == (0, 1)


def test_verdicts_invariant_under_translation_and_complement():
    fam = C.k3_family_4()
    t = LabeledGraph(4, 0b110101)
    translated = GraphFamily(4, tuple(g ^ t for g in fam))
    complemented = GraphFamily(4, tuple(g.complement() for g in fam))
    assert verify_family(fam, P.K3).passed
    assert verify_family(translated, P.K3).passed
    assert verify_family(complemented, P.K3).passed


def test_verify_needs_two_graphs():
    fam = GraphFamily(3, (empty_graph(3),))
    with pytest.raises(DomainError):
        verify_family(fam, P.CONNECTED)


def test_capability_error_carries_context():
    big = GraphFamily(
        17, (empty_graph(17), complete_graph(17), LabeledGraph(17, 1))
    )
    with pytest.raises(CapabilityError) as err:
        verify_family(big, P.HAMCYCLE)
    assert "verifying" in str(err.value)


def test_cross_difference_examples():
    a5, b5 = C.split_clique_family(5), C.dual_isolated_family(5)
    assert cross_difference_distinct(a5, b5)
    assert len(a5) * len(b5) == 1 << 10
    assert cross_difference_distinct(C.star_family(4), C.dual_star_family(4))
    with pytest.raises(DomainError):
        cross_difference_distinct(a5, a5)
    with pytest.raises(CapabilityError):
        cross_difference_distinct(a5, b5, budget=100)
    with pytest.raises(DomainError, match="different vertex counts"):
        cross_difference_distinct(a5, C.dual_isolated_family(4))


def test_sampled_dual_check():
    imp = C.dual_star_implicit(8)
    rep = verify_dual_sampled(imp, P.STAR, pairs=500, seed=3)
    assert rep.passed and rep.mode == "dual-sampled"
    assert rep.pairs_checked == 500
    # a family that is NOT dual gets caught quickly
    good = C.split_clique_family(5)
    rep = verify_dual_sampled(good, P.CONNECTED, pairs=200, seed=1)
    assert not rep.passed


@pytest.mark.parametrize("fam", (
    GraphFamily(4, (empty_graph(4),)),
    ImplicitFamily(4, 0, 0),
), ids=("one-graph", "one-member-implicit"))
def test_sampled_check_needs_two_graphs(fam):
    with pytest.raises(DomainError, match="need at least 2 graphs"):
        verify_dual_sampled(fam, P.STAR)


def test_sampled_check_deterministic():
    imp = C.dual_isolated_implicit(6)
    a = verify_dual_sampled(imp, P.CONNECTED, pairs=100, seed=9)
    b = verify_dual_sampled(imp, P.CONNECTED, pairs=100, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# the difference-set engine against a naive pairwise loop

from hypothesis import example, given, settings, strategies as st

from graphcodes.core import edge_slots

SHIPPED_PREDICATES = (
    P.CONNECTED, P.TWO_CONNECTED, P.THREE_CONNECTED, P.k_connected(4),
    P.HAMPATH, P.HAMCYCLE, P.STAR, P.K3, P.ODDCYCLE,
    P.contains_induced_pred(LabeledGraph(3, 0b011), "indsub:P3"),
)


def naive_pairwise(fam, pred, expect):
    """(passed, witness, pairs_checked) of a plain lexicographic pair loop."""
    masks = fam.masks()
    checked = 0
    for i in range(len(masks) - 1):
        for j in range(i + 1, len(masks)):
            checked += 1
            diff = masks[i] ^ masks[j]
            if pred.test_mask(fam.n, diff) != expect:
                return False, ((i, j), LabeledGraph(fam.n, diff)), checked
    return True, None, checked


def distinct_differences(fam):
    masks = fam.masks()
    return len({a ^ b for i, a in enumerate(masks) for b in masks[i + 1:]})


def xor_closure(masks):
    """The span of masks by brute force: the smallest set holding 0 and
    closed under XOR with each mask."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


def assert_engine_matches_naive(fam, exact_calls=True):
    """Verdict, witness and pairs_checked equal the naive loop's for every
    shipped predicate, good and dual.  A coset takes a span path ("table",
    "cover" or "linear"), never the cover on a dual check, and any other
    family the memoized scan.  The predicate calls follow the method: on a
    pass, "linear" and "memoized" test each distinct difference once,
    "table" evaluates one table per block of 2^width members and "cover"
    searches at most one witness per difference; a failure costs at most
    one call per distinct difference.  Returns the methods taken."""
    masks = fam.masks()
    d = distinct_differences(fam)
    rank = len(masks).bit_length() - 1
    coset = len(xor_closure(m ^ masks[0] for m in masks)) == len(masks)
    methods = set()
    for pred in SHIPPED_PREDICATES:
        for check, expect in ((verify_family, True), (verify_dual_family, False)):
            rep = check(fam, pred)
            assert (rep.passed, rep.witness, rep.pairs_checked) == \
                naive_pairwise(fam, pred, expect), (pred.name, expect)
            methods.add(rep.method)
            if coset:
                assert rep.method in ("table", "cover", "linear")
                assert expect or rep.method != "cover"
            else:
                assert rep.method == "memoized"
            if not exact_calls:
                continue
            if not rep.passed or rep.method == "cover":
                assert rep.predicate_calls <= d
            elif rep.method == "table":
                width = min(rank, core.BLOCK_WIDTH)
                assert rep.predicate_calls == 1 << rank - width
            else:
                assert rep.predicate_calls == d
    return methods


vertex_counts = st.integers(min_value=3, max_value=6)


@st.composite
def random_families(draw):
    n = draw(vertex_counts)
    masks = draw(st.lists(st.integers(0, (1 << edge_slots(n)) - 1),
                          min_size=2, max_size=14, unique=True))
    return GraphFamily(n, tuple(LabeledGraph(n, m) for m in masks))


@st.composite
def coset_masks(draw):
    """(n, members of a shuffled affine coset of rank 1..4)."""
    n = draw(vertex_counts)
    top = (1 << edge_slots(n)) - 1
    gens = draw(st.lists(st.integers(1, top), min_size=1, max_size=4))
    shift = draw(st.integers(0, top))
    masks = draw(st.permutations(sorted(shift ^ s for s in xor_closure(gens))))
    return n, masks


@settings(max_examples=40, deadline=None)
@given(random_families())
def test_engine_matches_naive_on_random_families(fam):
    assert_engine_matches_naive(fam)


@settings(max_examples=40, deadline=None)
@given(coset_masks())
def test_engine_matches_naive_on_cosets(coset):
    n, masks = coset
    if len(masks) >= 2:
        fam = GraphFamily(n, tuple(LabeledGraph(n, m) for m in masks))
        assert_engine_matches_naive(fam)


@settings(max_examples=40, deadline=None)
@given(coset_masks(), st.data())
def test_engine_matches_naive_on_perturbed_cosets(coset, data):
    n, masks = coset
    top = (1 << edge_slots(n)) - 1
    extra = data.draw(st.integers(0, top).filter(lambda m: m not in masks))
    masks = list(masks)
    masks[data.draw(st.integers(0, len(masks) - 1))] = extra
    fam = GraphFamily(n, tuple(LabeledGraph(n, m) for m in masks))
    assert_engine_matches_naive(fam)


def test_engine_matches_naive_when_coset_fails_at_its_largest_difference():
    # a rank-3 subspace on 5 vertices whose only disconnected element is its
    # largest: the table finds it, and the pair scan for the witness then
    # meets only differences at or below it, which cost no kernel call
    rng = random.Random(11)
    while True:
        span = sorted(xor_closure(rng.getrandbits(10) for _ in range(3)))
        verdicts = [P.CONNECTED.test_mask(5, d) for d in span[1:]]
        if len(span) == 8 and all(verdicts[:-1]) and not verdicts[-1]:
            break
    members = [0b1000100110 ^ s for s in span]
    rng.shuffle(members)
    fam = GraphFamily(5, tuple(LabeledGraph(5, m) for m in members))
    rep = verify_family(fam, P.CONNECTED)
    assert rep.method == "table" and not rep.passed
    assert rep.witness[1].bits == span[-1]
    assert rep.predicate_calls == 1
    assert_engine_matches_naive(fam)


def test_engine_matches_naive_on_multi_block_cosets(monkeypatch):
    # with blocks of 4 members, shuffled and shifted cosets of rank up to 6
    # take the table over several blocks, the cover and the kernel walk
    monkeypatch.setattr(core, "BLOCK_WIDTH", 2)
    rng = random.Random(19)
    cosets = [(6, C.split_clique_family(6).masks()),
              (4, C.dual_star_family(4).masks())]
    for rank in range(1, 7):
        for n in (4, 5, 6):
            gens = [rng.getrandbits(edge_slots(n)) for _ in range(rank)]
            cosets.append((n, sorted(xor_closure(gens))))
    methods = set()
    for n, span in cosets:
        shift = rng.getrandbits(edge_slots(n))
        members = [shift ^ m for m in span]
        rng.shuffle(members)
        fam = GraphFamily(n, tuple(LabeledGraph(n, m) for m in members))
        methods |= assert_engine_matches_naive(fam)
    assert methods == {"table", "cover", "linear"}


@settings(max_examples=25, deadline=None)
@given(st.one_of(random_families(), coset_masks().map(
    lambda c: GraphFamily(c[0], tuple(LabeledGraph(c[0], m) for m in c[1]))
    if len(c[1]) >= 2 else C.split_clique_family(4))),
    st.integers(0, 5))
def test_engine_matches_naive_past_the_memo_cap(fam, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "MEMO_CAP", cap)
        assert_engine_matches_naive(fam, exact_calls=False)


def test_predicate_calls_count_distinct_differences():
    # the cosets take one table for their whole span, and the kernel walk
    # and the memoized scan test each distinct difference once
    cases = (
        (C.split_clique_family(6), P.CONNECTED, verify_family, "table", 1),
        (C.dual_star_family(4), P.STAR, verify_dual_family, "table", 1),
        (C.dual_isolated_family(5), P.HAMPATH, verify_dual_family, "linear",
         63),
        (C.dual_lowdeg_family(5), P.THREE_CONNECTED, verify_dual_family,
         "memoized", distinct_differences(C.dual_lowdeg_family(5))),
    )
    for fam, pred, check, method, calls in cases:
        rep = check(fam, pred)
        assert rep.passed and rep.method == method
        assert rep.predicate_calls == calls
    sc = C.split_clique_family(6)
    bad = GraphFamily(6, sc.graphs[:5] + (sc[0] ^ LabeledGraph(6, 1),)
                      + sc.graphs[6:])
    rep = verify_family(bad, P.CONNECTED)
    assert not rep.passed and rep.method == "memoized"
    assert rep.witness[0] == (0, 5) and rep.pairs_checked == 5
    assert rep.predicate_calls == 5 <= distinct_differences(bad)


def test_linear_and_sampled_report_their_calls():
    rep = verify_linear_family(C.k3_family_5(), P.K3)
    assert rep.method == "cover" and rep.predicate_calls == 8
    rep = verify_linear_family(C.codd_family_7(), P.ODDCYCLE)
    assert rep.method == "table" and rep.predicate_calls == 1
    rep = verify_linear_family(C.k3_family_5(), P.THREE_CONNECTED)
    assert rep.method == "linear" and rep.predicate_calls == 1
    rep = verify_dual_sampled(C.dual_star_implicit(6), P.STAR, pairs=30)
    assert rep.method == "sampled" and rep.predicate_calls == 30


# ---------------------------------------------------------------------------
# linear verification against the member loop it replaced


def member_loop_linear(fam, pred):
    """The dedicated loop over the sorted span that verify_linear_family ran
    before it went through the difference-set engine, kept as a reference;
    the span is sorted here, not taken in the order of the ordered basis."""
    masks = sorted(xor_closure(g.bits for g in fam.basis))
    test = pred.test_mask
    for idx in range(1, len(masks)):
        if not test(fam.n, masks[idx]):
            return V.VerifyReport(
                False, "linear", idx, ((0, idx), LabeledGraph(fam.n, masks[idx])),
                "linear", idx,
            )
    return V.VerifyReport(True, "linear", len(masks) - 1, None,
                          "linear", len(masks) - 1)


NAMED_PREDICATES = tuple(P.parse_predicate(name) for name in (
    "connected", "2conn", "3conn", "hampath", "hamcycle", "star", "k3",
    "oddcycle", "kconn:4"))


def verdict(rep):
    return rep.passed, rep.mode, rep.pairs_checked, rep.witness


def assert_matches_member_loop(fam, pred):
    """The verdict fields equal the member loop's; the method's own counter
    is pinned or bounded: the kernel scan tests every member up to the
    witness, the table path evaluates one table per block of 2^16 members,
    and the cover searches a witness for at most as many members as the
    kernel scan tests.  Only a kind with a witness takes the cover, so
    indsub never does."""
    rep = verify_linear_family(fam, pred)
    ref = member_loop_linear(fam, pred)
    assert verdict(rep) == verdict(ref), (fam.n, pred.name)
    if rep.method == "table":
        assert rep.predicate_calls == 1 and fam.rank <= 16
    elif rep.method == "cover":
        assert P._KINDS[pred.kind].witness is not None
        assert rep.predicate_calls <= ref.predicate_calls
    else:
        assert rep.method == "linear"
        assert P._KINDS[pred.kind].witness is None
        assert rep.predicate_calls == ref.predicate_calls
    return rep


def shipped_linear_families():
    yield from (C.hamming_bipartite_family(k) for k in (2, 3))
    yield from (C.ham_path_family(p) for p in (3, 5, 7))
    yield from (C.ham_cycle_family(m) for m in (4, 6, 8))
    yield from (C.k3_family_5(), C.k3_family_6(), C.codd_family_7())


def test_linear_reports_match_member_loop_on_shipped_constructions():
    compared = failed = tables = covers = 0
    for fam in shipped_linear_families():
        for pred in NAMED_PREDICATES:
            rep = assert_matches_member_loop(fam, pred)
            compared += 1
            failed += not rep.passed
            tables += rep.method == "table"
            covers += rep.method == "cover"
    assert compared == 99 and 0 < failed < compared
    # every hampath, hamcycle and k3 pair that the table does not take
    assert tables == 43 and covers == 27


@st.composite
def linear_families(draw):
    """Spans on 3..8 vertices: rank 0 (no generators or only zero ones),
    redundant generator lists and arbitrary, mostly failing, spans."""
    n = draw(st.integers(min_value=3, max_value=8))
    top = (1 << edge_slots(n)) - 1
    gens = draw(st.lists(st.integers(0, top), max_size=5))
    if len(gens) >= 2 and draw(st.booleans()):
        gens.append(gens[0] ^ gens[1])
    return LinearFamily(n, tuple(LabeledGraph(n, m) for m in gens))


@settings(max_examples=60, deadline=None)
@given(linear_families())
@example(LinearFamily(4, ()))
@example(LinearFamily(4, (empty_graph(4), empty_graph(4))))
@example(C.k3_family_5())  # five generators of rank 4
def test_linear_reports_match_member_loop_on_drawn_spans(fam):
    for pred in SHIPPED_PREDICATES:
        assert_matches_member_loop(fam, pred)


def test_linear_calls_past_the_memo_cap():
    # a rank-4 span on 5 vertices whose first member without an induced P3
    # in sorted order comes late; the kernel scan keeps no memo, so past
    # MEMO_CAP it still tests each member once (indsub has no witness, so
    # it stays on the kernel scan)
    pred = SHIPPED_PREDICATES[-1]
    rng = random.Random(3)
    while True:
        fam = LinearFamily(5, tuple(LabeledGraph(5, rng.getrandbits(10))
                                    for _ in range(4)))
        ref = member_loop_linear(fam, pred)
        if fam.rank == 4 and not ref.passed and ref.pairs_checked >= 6:
            break
    i = ref.pairs_checked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "MEMO_CAP", 3)
        rep = verify_linear_family(fam, pred)
    assert (rep.passed, rep.witness, rep.pairs_checked, rep.method) == \
        (ref.passed, ref.witness, ref.pairs_checked, ref.method)
    assert rep.predicate_calls == i
    assert verify_linear_family(fam, pred) == ref


def test_kernel_scan_walks_the_span_without_listing_it(monkeypatch):
    # the unit span of rank 20 on 12 vertices fails at its first member, a
    # single edge; listing the span before the first test peaked at 67 MB
    def refuse(self):
        raise AssertionError("span_masks called")

    monkeypatch.setattr(LinearFamily, "span_masks", refuse)
    pred = P.contains_induced_pred(complete_graph(6), "indsub:K6")
    fam = LinearFamily(12, tuple(LabeledGraph(12, 1 << s) for s in range(20)))
    assert verify_linear_family(fam, pred) == V.VerifyReport(
        False, "linear", 1, ((0, 1), LabeledGraph(12, 1)), "linear", 1)


def test_cover_checks_the_hamiltonicity_cap():
    # the cover calls the witness search directly, so n is checked against
    # the cap before the first witness is asked for
    fam = LinearFamily(17, (complete_graph(17), cycle_graph(17)))

    def searched(*args):
        raise AssertionError("a witness was searched past the cap")

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(P._KINDS, "hamcycle",
                   P._KINDS["hamcycle"]._replace(witness=searched))
        with pytest.raises(CapabilityError, match="Hamiltonicity cap 16"):
            verify_linear_family(fam, P.HAMCYCLE)
    P.set_hamiltonian_cap(17)
    try:
        rep = verify_linear_family(fam, P.HAMCYCLE)
    finally:
        P.set_hamiltonian_cap(P.DEFAULT_HAMILTONIAN_CAP)
    assert rep.passed and rep.method == "cover" and rep.predicate_calls == 2


def test_table_path_walks_blocks_until_the_first_failure(monkeypatch):
    # with blocks of 4 members, a rank-5 span whose first disconnected
    # member lies past the second block is decided by the table of its own
    # block, after the passing blocks before it
    monkeypatch.setattr(core, "BLOCK_WIDTH", 2)
    rng = random.Random(5)
    while True:
        fam = LinearFamily(6, tuple(LabeledGraph(6, rng.getrandbits(15))
                                    for _ in range(5)))
        ref = member_loop_linear(fam, P.CONNECTED)
        if fam.rank == 5 and not ref.passed and ref.pairs_checked >= 8:
            break
    rep = verify_linear_family(fam, P.CONNECTED)
    i = ref.pairs_checked
    assert verdict(rep) == verdict(ref)
    assert rep.method == "table" and rep.predicate_calls == i // 4 + 1 >= 3
    # a passing rank-6 span takes all 16 blocks
    fam = C.ham_cycle_family(8)
    rep = verify_linear_family(fam, P.CONNECTED)
    assert verdict(rep) == verdict(member_loop_linear(fam, P.CONNECTED))
    assert rep.passed and rep.method == "table" and rep.predicate_calls == 16


# the linear verify jobs of the benchmark's span-certify workload (and the
# hampath one of exact-search): (predicate, family, method, predicate_calls,
# pairs_checked).  The table is used when its formula's estimated big-int
# operations are at most 2^min(rank, 16) * C(n, 2); kconn:4 on h4 misses that
# by 576 * 15^2 = 129,600 against 2^10 * 105 = 107,520.  The Hamiltonicity
# spans miss it too and take the cover: each nonzero member of hc14 (hp13) is
# a union of at least two of 13 (truncated) perfect matchings, any two of
# which form a Hamiltonian cycle (path), so the C(13, 2) = 78 witnesses that
# are such pairs decide all 4,095 members.
SPAN_CERTIFY_JOBS = (
    ("3conn", lambda: C.hamming_bipartite_family(4), "table", 1, 1023),
    ("hamcycle", lambda: C.ham_cycle_family(14), "cover", 78, 4095),
    ("2conn", lambda: C.ham_cycle_family(14), "table", 1, 4095),
    ("hampath", lambda: C.ham_path_family(13), "cover", 78, 4095),
    ("connected", lambda: C.ham_path_family(13), "table", 1, 4095),
    ("oddcycle", C.codd_family_7, "table", 1, 511),
    ("k3", C.k3_family_6, "table", 1, 63),
    ("kconn:4", lambda: C.hamming_bipartite_family(4), "linear", 1, 1),
    ("hampath", lambda: C.ham_path_family(5), "cover", 10, 15),
)


@pytest.mark.parametrize("name, family, method, calls, pairs",
                         SPAN_CERTIFY_JOBS,
                         ids=[f"{job[0]}-{i}"
                              for i, job in enumerate(SPAN_CERTIFY_JOBS)])
def test_benchmark_linear_jobs_take_their_pinned_method(name, family, method,
                                                        calls, pairs):
    rep = verify_linear_family(family(), P.parse_predicate(name))
    assert (rep.method, rep.predicate_calls, rep.pairs_checked) == \
        (method, calls, pairs)
    assert rep.passed == (name != "kconn:4")
