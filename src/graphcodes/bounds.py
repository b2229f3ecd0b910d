"""Closed-form bounds and asymptotic invariants for graph family codes, and
the theorem rows that pair each named predicate's construction with its
proven upper bound.

Sizes are exact Python integers (arbitrary precision); a theorem row whose
bound would exceed 2^BOUND_LOG2_CAP, or an odd-n 2conn row past
ODD_2CONN_N_CAP, raises CapabilityError instead of computing it.
Theorem-row exponents are integers.  The fractional values, Shearer's
star-dual exponents and distancity, are exact Fractions; ``fractions`` is
imported only where they are computed, so that processes that only read
theorem rows do not load it.
"""

from __future__ import annotations

import math
from math import comb

from .core import (Frozen, LabeledGraph, _fits_str, _fmt_size, _is_prime,
                   adjacency_masks, edge_slots)
from .errors import (CapabilityError, DomainError, GraphCodesError,
                     UnsupportedParameterError)

CHROMATIC_CAP = 10
# largest exponent a theorem row may shift out: 2^28 bits is 32 MiB per bound
BOUND_LOG2_CAP = 1 << 28
# odd n above this get no 2conn row: its exact binomial C(n-2, (n-3)/2) takes
# about 0.3 s at n = 2^17 and about 4 times as long per doubling of n
ODD_2CONN_N_CAP = 1 << 17


def product_upper_bound(n: int, dual_lower_log2: int) -> int:
    """Exponent bound from the product inequality: a dual family of size
    2^d forces good families to at most 2^(C(n,2) - d) members."""
    if not 0 <= dual_lower_log2 <= edge_slots(n):
        raise DomainError("dual exponent out of range")
    return edge_slots(n) - dual_lower_log2


def turan_number(n: int, r: int) -> int:
    """Maximum edges of an n-vertex graph with no K_r: the edge count of the
    balanced complete (r-1)-partite graph (none for r = 2)."""
    if r < 2:
        raise DomainError("need r >= 2")
    parts = min(r - 1, n)  # parts past the n-th are empty
    if parts == 0:
        return 0
    q, rem = divmod(n, parts)
    sizes = [q + 1] * rem + [q] * (parts - rem)
    return comb(n, 2) - sum(comb(s, 2) for s in sizes)


def subgraph_upper_bound(n: int, r: int) -> int:
    """log2 of the clique-containment bound: C(n,2) - ex(n, K_r)."""
    return edge_slots(n) - turan_number(n, r)


def star_upper_bound(n: int) -> int:
    """Edge-coloring bound on spanning-star families: n+1 if n odd, n if even."""
    if n < 2:
        raise DomainError("need n >= 2")
    return n + 1 if n % 2 else n


def shearer_dual_star_bounds(n: int) -> tuple[Fraction, Fraction]:
    """(log2 lower, log2 upper) for the largest family with no spanning star
    in any difference: C(n,2) - ceil(n/2) <= log2 D <= C(n,2) - n/2, the
    upper side via Shearer's projection inequality over the vertex stars."""
    from fractions import Fraction

    if n < 2:
        raise DomainError("need n >= 2")
    slots = edge_slots(n)
    return Fraction(slots - (n + 1) // 2), Fraction(slots) - Fraction(n, 2)


# ---------------------------------------------------------------------------
# chromatic and partition numbers of small patterns


def _pattern_masks(g: LabeledGraph) -> tuple[list[int], list[int]]:
    """The neighbor masks of a pattern and of its complement, for the cover
    search; refuses a pattern past the cap."""
    if g.n > CHROMATIC_CAP:
        raise CapabilityError(f"pattern cap is {CHROMATIC_CAP} vertices, got {g.n}")
    full = (1 << g.n) - 1
    adj = adjacency_masks(g.n, g.bits)
    return adj, [full ^ a ^ (1 << v) for v, a in enumerate(adj)]


def chromatic_number(g: LabeledGraph) -> int:
    """Exact chromatic number: the fewest independent sets that cover the
    vertices, by the cover search with no cliques."""
    adj, comp = _pattern_masks(g)
    return next(k for k in range(1, g.n + 1)
                if _cover_possible(g.n, adj, comp, 0, k))


def _maximal_parts(v: int, neigh: list[int], within: int) -> list[int]:
    """Maximal cliques containing v in the graph induced on ``within``,
    for the given adjacency (pass complement adjacency for independent
    sets).  Bron-Kerbosch with pivoting."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        px = p | x
        u = (px & -px).bit_length() - 1
        cand = p & ~neigh[u]
        while cand:
            lowbit = cand & -cand
            cand ^= lowbit
            w = lowbit.bit_length() - 1
            bk(r | lowbit, p & neigh[w], x & neigh[w])
            p ^= lowbit
            x |= lowbit

    bk(1 << v, neigh[v] & within, 0)
    return out


def _cover_possible(
    n: int, adj: list[int], comp: list[int], cliques: int, indep: int
) -> bool:
    """Whether s cliques plus t independent sets can cover all n vertices.

    Branches on the parts containing the lowest uncovered vertex; parts
    maximal within the uncovered set suffice because enlarging a part never
    hurts a cover."""

    def rec(uncovered: int, s: int, t: int) -> bool:
        if not uncovered:
            return True
        if s == 0 and t == 0:
            return False
        v = (uncovered & -uncovered).bit_length() - 1
        if s > 0:
            for part in _maximal_parts(v, adj, uncovered):
                if rec(uncovered & ~part, s - 1, t):
                    return True
        if t > 0:
            for part in _maximal_parts(v, comp, uncovered):
                if rec(uncovered & ~part, s, t - 1):
                    return True
        return False

    return rec((1 << n) - 1, cliques, indep)


def partition_number(g: LabeledGraph) -> int:
    """Largest r such that for some s the vertices cannot be covered by s
    cliques and r-s independent sets; exhaustive over covers.

    Coverability is monotone in r (drop a part), so scanning r upward may
    stop at the first r where every split succeeds."""
    n = g.n
    adj, comp = _pattern_masks(g)
    best = 0
    for r in range(1, n + 1):
        if any(not _cover_possible(n, adj, comp, s, r - s) for s in range(r + 1)):
            best = r
        else:
            break
    return best


# ---------------------------------------------------------------------------
# rate and distancity


def distancity(pattern: LabeledGraph, induced: bool = False) -> Fraction:
    """Asymptotic rate limit for containment conditions: 1/(chi - 1).

    The induced and non-induced variants coincide.  Edgeless patterns fall
    outside the formula (their families behave like clique-agreement codes).
    """
    if pattern.is_empty:
        raise UnsupportedParameterError(
            "distancity formula needs a pattern with at least one edge"
        )
    from fractions import Fraction

    del induced  # same value either way
    return Fraction(1, chromatic_number(pattern) - 1)


def distancity_of_class(patterns) -> Fraction:
    """Distancity of a finite union of containment conditions: the minimum
    chromatic number over the class governs."""
    pats = list(patterns)
    if not pats:
        raise DomainError("need at least one pattern")
    chi_min = min(chromatic_number(p) for p in pats)
    if any(p.is_empty for p in pats) or chi_min < 2:
        raise UnsupportedParameterError("patterns must each contain an edge")
    from fractions import Fraction

    return Fraction(1, chi_min - 1)


def rate(n: int, family_size: int) -> float:
    """Code rate over the C(n,2) edge slots: 2 log2(size) / (n(n-1))."""
    if n < 2:
        raise DomainError("need n >= 2")
    if family_size < 1:
        raise DomainError("need a positive size")
    return 2.0 * math.log2(family_size) / (n * (n - 1))


# ---------------------------------------------------------------------------
# bound reports


class BoundReport(Frozen):
    """A lower bound (from a construction) paired with an upper bound."""

    __slots__ = ("n", "predicate", "lower", "lower_source", "upper",
                 "upper_log2", "upper_source")

    def __init__(
        self, n: int, predicate: str, lower: int | None,
        lower_source: str | None, upper: int | None,
        upper_log2: int | None, upper_source: str | None,
    ) -> None:
        if lower is not None and upper is not None and lower > upper:
            raise DomainError("lower bound exceeds upper bound")
        self._set(n, predicate, lower, lower_source, upper, upper_log2,
                  upper_source)

    @property
    def tight(self) -> bool:
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower == self.upper
        )


# ---------------------------------------------------------------------------
# theorem rows: each named predicate's best construction against its proven
# upper bound


def _pow2(exp: int) -> int:
    if exp > BOUND_LOG2_CAP:
        raise CapabilityError(
            f"a bound of 2^{exp} exceeds the size cap 2^{BOUND_LOG2_CAP}"
        )
    return 1 << exp


# the predicates that have a theorem row, in the order of the table
PREDICATES = ("connected", "2conn", "3conn", "hampath", "hamcycle", "star",
              "k3", "oddcycle")


def bound_report(pred_name: str, n: int) -> BoundReport:
    """The theorem row of a named predicate at n vertices.

    ``lower`` is the size of the construction that exists at this n, or None
    where the paper gives none; ``upper`` is the proven bound, which also caps
    the rank of a linear family."""
    if n < 2:
        raise DomainError("need n >= 2")
    if pred_name == "connected":
        upper = _pow2(product_upper_bound(n, edge_slots(n - 1)))
        return BoundReport(
            n, "connected", _pow2(n - 1), "split-clique", upper,
            n - 1, "product bound via dual-isolated",
        )
    if pred_name == "2conn":
        upper_exp = product_upper_bound(n, edge_slots(n - 1) + 1)
        upper = _pow2(upper_exp)
        if n % 2 == 0:
            lower, source = _pow2(n - 2), "even-split"
        elif n == 3:
            lower, source = 2, "odd-2conn"
        elif n > ODD_2CONN_N_CAP:
            raise CapabilityError(
                f"the odd-2conn lower bound is computed only for n <= "
                f"{ODD_2CONN_N_CAP}, got n={n}"
            )
        else:
            lower = _pow2(n - 2) - comb(n - 2, (n - 3) // 2)
            source = "odd-2conn"
        return BoundReport(
            n, "2conn", lower, source, upper, upper_exp,
            "product bound via dual-pendant",
        )
    if pred_name == "3conn":
        exp = (_pow2(n - 1) // n).bit_length() - 1
        upper = _pow2(exp)
        if n >= 3 and (n + 1) & n == 0:  # n = 2^k - 1
            k = n.bit_length()
            lower, source = _pow2(n - k - 1), "hamming-3conn"
        else:
            lower, source = None, None
        return BoundReport(
            n, "3conn-linear", lower, source, upper, exp,
            "power-of-two cap under the product bound via dual-lowdeg",
        )
    if pred_name == "hampath":
        upper = _pow2(n - 1)  # before the primality test, which is slow
        built = n % 2 == 1 and _is_prime(n)
        lower, source = (upper, "hampath") if built else (None, None)
        return BoundReport(
            n, "hampath", lower, source, upper, n - 1,
            "product bound via dual-isolated",
        )
    if pred_name == "hamcycle":
        if n < 3:  # the predicate's own domain
            raise DomainError("a Hamiltonian cycle needs at least 3 vertices")
        upper = _pow2(n - 2)  # before the primality test, which is slow
        built = n % 2 == 0 and _is_prime(n - 1)
        lower, source = (upper, "hamcycle") if built else (None, None)
        return BoundReport(
            n, "hamcycle", lower, source, upper, n - 2,
            "product bound via dual-pendant",
        )
    if pred_name == "star":
        m = star_upper_bound(n)
        return BoundReport(n, "star", m, "star family", m, None,
                           "edge-coloring bound")
    if pred_name in ("k3", "oddcycle"):
        exp = subgraph_upper_bound(n, 3)
        sizes = {3: 2, 4: 4, 5: 16, 6: 64}
        lower = source = None
        if n in sizes:
            lower, source = sizes[n], f"k3-{n}"
        elif pred_name == "oddcycle" and n == 7:
            lower, source = 512, "codd-7"
        return BoundReport(
            n, pred_name, lower, source, _pow2(exp), exp,
            "subgraph bound via the triangle-free edge maximum",
        )
    raise GraphCodesError(f"no bound row for predicate {pred_name!r}")


# the fields of a theorem row, as `bound --json` and `table` print them
_ROW_KEYS = ("n", "predicate", "lower", "lower_source", "upper",
             "upper_source", "tight")


def bound_output(pred_name: str, n: int) -> tuple[dict, list[str]]:
    """What `bound` prints: the JSON payload and the text lines of a
    predicate's theorem row, and for spanning stars Shearer's star-dual
    bounds as log2 values.  A size past the int-to-str digit limit prints
    as ~2^x in both."""
    rep = bound_report(pred_name, n)
    payload = {key: getattr(rep, key) for key in _ROW_KEYS}
    for key in ("lower", "upper"):  # JSON prints ints through str
        if payload[key] is not None and not _fits_str(payload[key]):
            payload[key] = _fmt_size(payload[key])
    lines = [f"predicate {rep.predicate}, n={rep.n}"]
    if rep.lower is not None:
        lines.append(f"M >= {_fmt_size(rep.lower)} ({rep.lower_source})")
    lines += [f"M <= {_fmt_size(rep.upper)} ({rep.upper_source})",
              f"tight: {'yes' if rep.tight else 'no'}"]
    if pred_name == "star":
        lo, hi = shearer_dual_star_bounds(n)  # lo is always an integer
        payload["dual"] = {"lower_log2": str(lo), "upper_log2": str(hi),
                           "tight": lo == hi}
        hi_text = hi if hi.denominator == 1 else float(hi)
        lines.append(f"dual: 2^{lo} <= D <= 2^{hi_text}"
                     f" ({'tight' if lo == hi else 'not tight'})")
    return payload, lines


def table_output(lo: int, hi: int) -> tuple[list[dict], list[str]]:
    """What `table` prints for lo <= n <= hi: the rows, as JSON, and the
    text lines.  Each predicate has a row where a construction gives it a
    lower bound; spanning stars add Shearer's star-dual row."""
    if not 3 <= lo <= hi <= 14:
        raise GraphCodesError("range must satisfy 3 <= a <= b <= 14")
    rows = []
    for n in range(lo, hi + 1):
        for name in PREDICATES:
            rep = bound_report(name, n)
            if rep.lower is not None:
                rows.append({key: getattr(rep, key) for key in _ROW_KEYS})
            if name == "star":
                d_lo, d_hi = shearer_dual_star_bounds(n)
                hi_text = d_hi if d_hi.denominator == 1 else float(d_hi)
                rows.append({
                    "n": n, "predicate": "star-dual", "lower": 1 << int(d_lo),
                    "lower_source": "edge-cover superset family",
                    "upper": None,
                    "upper_source": f"projection bound 2^{hi_text}",
                    "tight": d_lo == d_hi,
                })
    header = f"{'n':>3}  {'predicate':<14} {'size':>12} {'bound':>12}  tight"
    lines = [header, "-" * len(header)]
    for row in rows:
        size = _fmt_size(row["lower"]) if row["lower"] is not None else "-"
        if row["upper"] is not None:
            bound = _fmt_size(row["upper"])
        else:
            bound = row["upper_source"].rsplit(" ", 1)[-1]
        tick = "tight" if row["tight"] else ""
        lines.append(f"{row['n']:>3}  {row['predicate']:<14} {size:>12} "
                     f"{bound:>12}  {tick}")
    return rows, lines
