"""Certification engine: is a family pairwise good (or dual) for a predicate?

A family's verdict depends only on its set of distinct pairwise differences.
A linear family's differences are its nonzero span members, and when an
explicit family is an affine coset of a GF(2) subspace its differences are
exactly the nonzero members of the span of its translates, so both are
decided by one span decider over the sorted span of an ordered basis: a
block at a time from the predicate's truth table where that formula is
cheaper than one kernel call per member; else, for a monotone predicate on
a good check, by a cover of witnesses, each deciding every member that
contains it; and one kernel call per member otherwise.  Any other family,
and a coset that fails, walks index pairs (i, j), i < j, in lexicographic
order with a memo of verdicts per difference, so the first failing pair is
a deterministic witness and the scan stops there.
"""

from __future__ import annotations

import random

from . import core
from .core import Frozen, LabeledGraph, edge_slots
from .errors import CapabilityError, DomainError
from .family import GraphFamily, ImplicitFamily
from .linalg import LinearFamily, gf2_ordered_basis, ordered_span
from .predicates import Predicate

MEMO_CAP = 1 << 18
CROSS_PRODUCT_BUDGET = 1 << 24


class VerifyReport(Frozen):
    """Outcome of a verification run.

    ``witness`` is the lexicographically first failing index pair together
    with the offending symmetric difference; on failure ``pairs_checked``
    counts the pairs up to and including the witness.  A linear family counts
    span members instead of pairs, and its witness is (0, i) for the first
    failing member i of the sorted span.  ``method`` names the engine path:
    "table", "cover" or "linear" (the kernel walk) for a span, which a coset
    family takes too, "memoized" for any other explicit family, and
    "sampled"; a failing coset then finds its witness by the memoized pair
    scan.  ``predicate_calls`` counts the predicate evaluations: kernel
    calls, on the "table" path the truth tables evaluated, one per block of
    up to 2^16 span members, and on the "cover" path the witness searches;
    a failing coset adds the kernel calls of its pair scan."""

    __slots__ = ("passed", "mode", "pairs_checked", "witness", "method",
                 "predicate_calls")

    def __init__(
        self, passed: bool, mode: str, pairs_checked: int,
        witness: tuple[tuple[int, int], LabeledGraph] | None,
        method: str | None = None, predicate_calls: int | None = None,
    ) -> None:
        if passed != (witness is None):
            raise DomainError("pass verdict and witness disagree")
        self._set(passed, mode, pairs_checked, witness, method,
                  predicate_calls)


def _pair_rank(i: int, j: int, m: int) -> int:
    """1-based position of (i, j) in lexicographic pair order."""
    return i * (2 * m - i - 1) // 2 + (j - i)


def _member(rows, i: int) -> int:
    """Member i of the span of ``rows``: the XOR of the rows at the set bits
    of i, the i-th smallest when ``rows`` is a ``gf2_ordered_basis``."""
    member = 0
    for j, row in enumerate(rows):
        if i >> j & 1:
            member ^= row
    return member


def _scan_pairs(
    n: int, masks: list[int], below: int, pred: Predicate, expect: bool,
) -> tuple[tuple[int, int] | None, int]:
    """(first failing pair or None, predicate calls) of the lexicographic
    pair scan.  ``below`` is 0, or the smallest failing difference of a
    coset family: every smaller difference passes and ``below`` fails, so
    neither costs a call.  The scan stops at the first failing difference,
    so it remembers only the passing ones, up to ``MEMO_CAP``."""
    test = pred.test_mask
    passed: set[int] = set()
    calls = 0
    m = len(masks)
    for i in range(m - 1):
        mi = masks[i]
        for j in range(i + 1, m):
            d = mi ^ masks[j]
            if d < below or d in passed:
                continue
            if d == below:
                return (i, j), calls
            calls += 1
            if test(n, d) != expect:
                return (i, j), calls
            if len(passed) < MEMO_CAP:
                passed.add(d)
    return None, calls


def _run_pairwise(
    fam: GraphFamily, pred: Predicate, expect: bool, mode: str
) -> VerifyReport:
    if len(fam) < 2:
        raise DomainError("need at least 2 graphs to verify")
    masks = fam.masks()
    m = len(masks)
    # members are distinct, so they form a coset exactly when their
    # translates span a space of size m
    rows = gf2_ordered_basis(x ^ masks[0] for x in masks)
    try:
        if 1 << len(rows) != m:
            failure, calls = _scan_pairs(fam.n, masks, 0, pred, expect)
            method = "memoized"
        else:
            i, calls, method = _first_failure(fam.n, rows, pred, expect)
            failure = None
            if i is not None:
                failure, scanned = _scan_pairs(fam.n, masks, _member(rows, i),
                                               pred, expect)
                calls += scanned
    except CapabilityError as exc:
        raise CapabilityError(f"{exc} (while verifying {m} graphs)") from exc
    if failure is None:
        return VerifyReport(True, mode, m * (m - 1) // 2, None, method, calls)
    i, j = failure
    return VerifyReport(False, mode, _pair_rank(i, j, m),
                        ((i, j), LabeledGraph(fam.n, masks[i] ^ masks[j])),
                        method, calls)


def verify_family(fam: GraphFamily, pred: Predicate) -> VerifyReport:
    """Check that every pairwise symmetric difference satisfies the predicate."""
    return _run_pairwise(fam, pred, True, "pairwise")


def verify_dual_family(fam: GraphFamily, pred: Predicate) -> VerifyReport:
    """Check that no pairwise symmetric difference satisfies the predicate."""
    return _run_pairwise(fam, pred, False, "dual")


def _first_failure(n: int, rows, pred: Predicate,
                   expect: bool) -> tuple[int | None, int, str]:
    """(index of the first member of the sorted span of the ordered basis
    ``rows`` on which the predicate is not ``expect``, or None; predicate
    calls; method), skipping member 0, the empty graph.

    The span is walked in blocks of 2^width members, width = min(rank,
    ``core.BLOCK_WIDTH``), member b << width | k being the XOR of the high
    rows' span element b and the low rows' element k.  Each block keeps a
    bitset of its undecided members; the walk decides the lowest one and
    clears every member that decision covers.  The method is chosen once:

    - where the predicate's truth-table formula costs at most one kernel
      call per member (its estimated big-int operations at most 2^width *
      C(n, 2)), one ``Predicate.table`` decides the whole block (method
      "table"), so the calls count the tables;
    - else, on a good check (``expect`` true), a monotone predicate (one
      whose kind has a witness) gets a witness W for the member, which
      covers every member of the block that contains W, the AND of W's slot
      columns (method "cover"), so the calls count the witnesses, at most i;
    - otherwise one kernel call per member decides the block's undecided
      members in order, up to the first failure (method "linear"), so the
      calls are i, or 2^rank - 1 on a pass."""
    kind = pred._domain(n)
    rank, slots, ops = len(rows), edge_slots(n), kind.ops(pred, n)
    width = min(rank, core.BLOCK_WIDTH)
    # a span of rank 0 has no member to decide and reports a per-member path
    if rank and ops <= (1 << width) * slots:
        method = "table"
    elif expect and kind.witness is not None:
        method = "cover"
        # bitslice is imported only for the cover's slot columns
        from .bitslice import slot_matrix
    else:
        method = "linear"
    # the table decides by block number alone, so only the other paths
    # list the low span
    low = () if method == "table" else ordered_span(rows[:width])
    ones = (1 << (1 << width)) - 1
    calls = 0
    for b, top in enumerate(ordered_span(rows[width:])):
        undecided = ones ^ 1 if b == 0 else ones  # member 0 is empty
        if method == "cover":
            cols = slot_matrix(n, b, width, rows)[0]
        while undecided:
            bit = undecided & -undecided
            if method == "table":
                calls += 1
                table = pred.table(n, b, width, rows)
                failed = undecided & (ones ^ table if expect else table)
                covered = undecided
            elif method == "cover":
                calls += 1
                w = kind.witness(pred, n, top ^ low[bit.bit_length() - 1])
                failed = bit if w is None else 0
                # the members that contain W, bit among them; clearing bit
                # explicitly ends the walk whatever the witness
                covered = undecided
                while w:
                    s = w & -w
                    covered &= cols[s.bit_length() - 1]
                    w ^= s
                covered |= bit
            else:
                # one kernel call per undecided member, in order, up to the
                # first failure, so the bitset is touched once per block
                failed = 0
                for k in range(bit.bit_length() - 1, len(low)):
                    calls += 1
                    if pred.test_mask(n, top ^ low[k]) != expect:
                        failed = 1 << k
                        break
                covered = undecided
            if failed:
                return (b << width | (failed & -failed).bit_length() - 1,
                        calls, method)
            undecided ^= covered
    return None, calls, method


def verify_linear_family(fam: LinearFamily, pred: Predicate) -> VerifyReport:
    """Check every nonzero span member; ``pairs_checked`` counts members.

    The sorted span puts the empty graph at index 0, so the first failing
    pair is (0, i) for the smallest failing member i, and ``pairs_checked``
    is i.  The members are decided by ``_first_failure`` over the span's
    ordered basis, on the table, cover or kernel path."""
    fam.check_span_budget()
    i, calls, method = _first_failure(fam.n, fam.rows, pred, True)
    if i is None:
        return VerifyReport(True, "linear", fam.span_size - 1, None, method,
                            calls)
    return VerifyReport(False, "linear", i,
                        ((0, i), LabeledGraph(fam.n, _member(fam.rows, i))),
                        method, calls)


def verify_dual_sampled(
    fam: ImplicitFamily | GraphFamily,
    pred: Predicate,
    pairs: int = 1000,
    seed: int = 0,
) -> VerifyReport:
    """Spot-check a (possibly implicit) dual family on seeded random pairs.

    Draws ``pairs`` member pairs with replacement, redrawing the second
    member only when it equals the first, so a pair may repeat; sampled pair
    t is reported with indices (2t, 2t+1).  A pass is evidence, not a
    certificate."""
    if pairs < 1:
        raise DomainError("need at least one sampled pair")
    rng = random.Random(seed)
    if isinstance(fam, GraphFamily):
        if len(fam) < 2:
            raise DomainError("need at least 2 graphs to verify")
        draw = lambda: rng.choice(fam.graphs)  # noqa: E731
    else:
        if fam.log2_size < 1:
            raise DomainError("need at least 2 graphs to verify")
        draw = lambda: fam.sample(rng)  # noqa: E731
    test = pred.test_mask
    for t in range(pairs):
        a = draw()
        b = draw()
        while b.bits == a.bits:
            b = draw()
        diff = a.bits ^ b.bits
        if test(fam.n, diff):
            return VerifyReport(
                False, "dual-sampled", t + 1,
                ((2 * t, 2 * t + 1), LabeledGraph(fam.n, diff)),
                "sampled", t + 1,
            )
    return VerifyReport(True, "dual-sampled", pairs, None, "sampled", pairs)


def cross_difference_distinct(
    a: GraphFamily, b: GraphFamily, budget: int = CROSS_PRODUCT_BUDGET
) -> bool:
    """Whether all |A| * |B| differences G xor T (G in A, T in B) are distinct.

    Callers pair a good family with a dual family for the same predicate;
    overlapping families violate that premise and are rejected."""
    if a.n != b.n:
        raise DomainError("families live on different vertex counts")
    a_masks = a.masks()
    b_masks = b.masks()
    if len(a_masks) * len(b_masks) > budget:
        raise CapabilityError(
            f"{len(a_masks)} * {len(b_masks)} differences exceed the budget {budget}"
        )
    if len(set(a_masks) & set(b_masks)) >= 2:
        raise DomainError(
            "families share two or more graphs; good/dual premise violated"
        )
    seen: set[int] = set()
    for ma in a_masks:
        for mb in b_masks:
            seen.add(ma ^ mb)
    return len(seen) == len(a_masks) * len(b_masks)
