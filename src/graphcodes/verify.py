"""Certification engine: is a family pairwise good (or dual) for a predicate?

A family's verdict depends only on its set of distinct pairwise differences,
so the pairwise engine tests each difference once.  When the members form an
affine coset of a GF(2) subspace, the differences are exactly the nonzero
span elements, which are enumerated directly; a linear family is such a span
and passes its sorted nonzero members.  Otherwise (or once a difference
fails) index pairs (i, j), i < j, are walked in lexicographic order
with a memo of verdicts per difference, so the first failing pair is a
deterministic witness and the scan stops there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import LabeledGraph
from .errors import CapabilityError, DomainError
from .family import GraphFamily, ImplicitFamily
from .linalg import LinearFamily, gf2_reduced_basis, gray_span
from .predicates import Predicate

MEMO_CAP = 1 << 18
CROSS_PRODUCT_BUDGET = 1 << 24


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of a verification run.

    ``witness`` is the lexicographically first failing index pair together
    with the offending symmetric difference; on failure ``pairs_checked``
    counts the pairs up to and including the witness.  A linear family counts
    span members instead of pairs, and its witness is (0, i) for the first
    failing member i of the sorted span.  ``method`` names the engine path
    ("coset", "memoized", "linear" or "sampled"; a failing coset or span
    still finds its witness by the memoized scan) and ``predicate_calls``
    counts the predicate evaluations."""

    passed: bool
    mode: str
    pairs_checked: int
    witness: tuple[tuple[int, int], LabeledGraph] | None
    method: str | None = None
    predicate_calls: int | None = None

    def __post_init__(self) -> None:
        if self.passed != (self.witness is None):
            raise DomainError("pass verdict and witness disagree")


def _pair_rank(i: int, j: int, m: int) -> int:
    """1-based position of (i, j) in lexicographic pair order."""
    return i * (2 * m - i - 1) // 2 + (j - i)


def _coset_differences(masks: list[int]) -> list[int] | None:
    """The nonzero differences of a family that is an affine coset of a GF(2)
    subspace, in Gray-code order; None when the family is not a coset.

    Members are distinct, so they form a coset exactly when the translates
    ``m ^ masks[0]`` span a space of size len(masks)."""
    base = masks[0]
    rows = gf2_reduced_basis(m ^ base for m in masks)
    if 1 << len(rows) != len(masks):
        return None
    return gray_span(rows)[1:]


def _scan_pairs(
    n: int, masks: list[int], diffs: list[int] | None, pred: Predicate,
    expect: bool,
) -> tuple[tuple[int, int] | None, int]:
    """(first failing pair or None, predicate calls).

    ``diffs`` is every nonzero pairwise difference of ``masks`` or None when
    that set is not known; each one is tested once, and if all pass the
    family passes.  Otherwise the lexicographic pair scan finds the witness.
    n is checked against the predicate's domain first, so a scan that tests
    nothing (a rank-0 span) cannot pass outside it."""
    pred._domain(n)
    test = pred.test_mask
    verdicts: dict[int, bool] = {}
    calls = 0
    if diffs is not None:
        for d in diffs:
            calls += 1
            ok = test(n, d) == expect
            if len(verdicts) < MEMO_CAP:
                verdicts[d] = ok
            if not ok:
                break
        else:
            return None, calls
    # lexicographic scan; a difference whose verdict is memoized costs no call
    m = len(masks)
    for i in range(m - 1):
        mi = masks[i]
        for j in range(i + 1, m):
            d = mi ^ masks[j]
            ok = verdicts.get(d)
            if ok is None:
                calls += 1
                ok = test(n, d) == expect
                if len(verdicts) < MEMO_CAP:
                    verdicts[d] = ok
            if not ok:
                return (i, j), calls
    return None, calls


def _report(
    n: int, masks: list[int], failure: tuple[int, int] | None, mode: str,
    method: str, calls: int, passed_count: int,
) -> VerifyReport:
    if failure is None:
        return VerifyReport(True, mode, passed_count, None, method, calls)
    i, j = failure
    return VerifyReport(
        False, mode, _pair_rank(i, j, len(masks)),
        ((i, j), LabeledGraph(n, masks[i] ^ masks[j])), method, calls,
    )


def _run_pairwise(
    fam: GraphFamily, pred: Predicate, expect: bool, mode: str
) -> VerifyReport:
    if len(fam) < 2:
        raise DomainError("need at least 2 graphs to verify")
    masks = fam.masks()
    m = len(masks)
    diffs = _coset_differences(masks)
    try:
        failure, calls = _scan_pairs(fam.n, masks, diffs, pred, expect)
    except CapabilityError as exc:
        raise CapabilityError(f"{exc} (while verifying {m} graphs)") from exc
    method = "memoized" if diffs is None else "coset"
    return _report(fam.n, masks, failure, mode, method, calls, m * (m - 1) // 2)


def verify_family(fam: GraphFamily, pred: Predicate) -> VerifyReport:
    """Check that every pairwise symmetric difference satisfies the predicate."""
    return _run_pairwise(fam, pred, True, "pairwise")


def verify_dual_family(fam: GraphFamily, pred: Predicate) -> VerifyReport:
    """Check that no pairwise symmetric difference satisfies the predicate."""
    return _run_pairwise(fam, pred, False, "dual")


def verify_linear_family(fam: LinearFamily, pred: Predicate) -> VerifyReport:
    """Check every nonzero span member, through the pairwise engine with the
    members as the difference set: the differences of a span are exactly its
    nonzero members, and ``pairs_checked`` counts members.

    The sorted span puts the empty graph at index 0, so the first failing
    pair is (0, i) for the smallest failing member i, and ``pairs_checked``
    and ``predicate_calls`` are both i.  The one exception: when i lies
    beyond ``MEMO_CAP``, ``predicate_calls`` is 2i - MEMO_CAP, because the
    witness scan re-tests the members past the memo."""
    masks = fam.span_masks()
    failure, calls = _scan_pairs(fam.n, masks, masks[1:], pred, True)
    return _report(fam.n, masks, failure, "linear", "linear", calls,
                   len(masks) - 1)


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
