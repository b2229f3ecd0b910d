"""Predicates as Boolean formulas over bit columns (bit-slicing).

Mask i of a block of 2^width masks is bit i of a big int.  The masks are
the whole mask space in order, or the members of a GF(2) span in the order
of their coefficients over its basis rows.  Column e of the
block is the bitset of its masks that hold edge slot e, and the edge matrix
holds, for each vertex pair, the column of its slot.  A formula combines
these columns with AND, OR and complement and returns the bitset of the
masks on which its predicate holds, so each big-int operation decides every
mask of the block at once (Biham, FSE 1997).  ``predicates.Predicate.table``
picks the formula of each predicate kind, and ``verify`` covers a span with
the columns of ``slot_matrix``; this module is imported only when a table is
built or a span is covered, so processes that only call the per-mask kernels
do not load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .core import LabeledGraph, edge_slots
from .errors import DomainError


@lru_cache(maxsize=None)
def slot_columns(width: int) -> tuple[int, ...]:
    """Bit columns over the 2^width masks of ``width`` slots: column e is the
    bitset of the masks with bit e set (blocks of 2^e zeros then 2^e ones),
    built from repeated bytes."""
    ones = (1 << (1 << width)) - 1
    nbytes = max(1 << width >> 3, 1)
    cols = []
    for e in range(width):
        unit = (bytes((0xAA, 0xCC, 0xF0)[e:e + 1]) if e < 3
                else bytes(1 << e - 3) + b"\xff" * (1 << e - 3))
        cols.append(int.from_bytes(unit * (nbytes // len(unit)), "little") & ones)
    return tuple(cols)


def translate(x: int, g: int, width: int) -> int:
    """The bitset ``x`` over the 2^width masks translated by mask ``g``: bit
    m of the result is bit m ^ g of x.  Each set bit s of g swaps the blocks
    of 2^s bits whose masks differ in slot s."""
    cols = slot_columns(width)
    while g:
        s = (g & -g).bit_length() - 1
        w, high = 1 << s, cols[s]
        x = (x & high) >> w | (x & ~high) << w
        g &= g - 1
    return x


def slot_matrix(n: int, block: int, width: int,
                rows=None) -> tuple[list[int], int]:
    """(col, ones) for the 2^width masks of block ``block``: mask i of the
    block is the XOR of ``rows`` at the set bits of ``block << width | i``,
    col[s] is the bitset of the masks that hold edge slot s, and ``ones`` is
    the whole block.  The column of slot s is the XOR of
    ``slot_columns(width)[j]`` over the rows j < width that hold s,
    complemented when an odd number of the rows j >= width that ``block``
    selects hold s.  ``rows`` defaults to the unit rows of the C(n, 2)
    slots, so that mask i is ``block << width | i``."""
    slots = edge_slots(n)
    if rows is None:
        rows = [1 << s for s in range(slots)]
    if any(row >> slots for row in rows):
        raise DomainError(f"a row holds a slot past the {slots} of n={n}")
    if not 0 <= width <= len(rows) or not 0 <= block < 1 << len(rows) - width:
        raise DomainError(
            f"no block {block} of width {width} among {len(rows)} rows")
    cols = slot_columns(width)
    ones = (1 << (1 << width)) - 1
    fixed = 0
    for j in range(width, len(rows)):
        if block >> j - width & 1:
            fixed ^= rows[j]
    col = [ones if fixed >> s & 1 else 0 for s in range(slots)]
    for j in range(width):
        m = rows[j]
        while m:
            low = m & -m
            col[low.bit_length() - 1] ^= cols[j]
            m ^= low
    return col, ones


def edge_matrix(n: int, block: int, width: int,
                rows=None) -> tuple[list[list[int]], int]:
    """(e, ones) for the block of ``slot_matrix``, with the columns by
    vertex pair: e[u][v] is the bitset of the masks that hold edge
    {u+1, v+1} (e[v][v] is 0)."""
    col, ones = slot_matrix(n, block, width, rows)
    e = [[0] * n for _ in range(n)]
    s = 0
    for v in range(1, n):
        for u in range(v):
            e[u][v] = e[v][u] = col[s]
            s += 1
    return e, ones


def reach(n: int, e: list[list[int]], seed: int, alive: int) -> int:
    """The masks of ``seed`` on which the vertex set ``alive`` induces a
    connected graph: a BFS from its lowest vertex, run on every mask at once
    until no reach set grows."""
    verts = [v for v in range(n) if alive >> v & 1]
    sets = [0] * n
    sets[verts[0]] = seed
    grown = True
    while grown:
        grown = False
        for v in verts:
            r = old = sets[v]
            row = e[v]
            for u in verts:
                r |= sets[u] & row[u]
            if r != old:
                sets[v] = r
                grown = True
    out = seed
    for v in verts:
        out &= sets[v]
    return out


def k_connected(n: int, e: list[list[int]], ones: int, k: int) -> int:
    """n >= k + 1, and G - X is connected for every X of fewer than k
    vertices."""
    if n < k + 1:
        return 0
    full = (1 << n) - 1
    out = ones
    for size in range(k):
        for cut in combinations(range(n), size):
            out = reach(n, e, out, full ^ sum(1 << v for v in cut))
            if not out:
                return 0
    return out


def hamiltonian(n: int, e: list[list[int]], ones: int, cycle: bool) -> int:
    """Held-Karp (1962) on every mask at once: ``layer[(s, v)]`` is the masks
    with a path through exactly the vertex set s that ends at v, starting
    anywhere for a path and at vertex 0 for a cycle.  Only the layer of the
    current |s| is kept."""
    layer = {(1, 0): ones} if cycle else {(1 << v, v): ones for v in range(n)}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (s, v), d in layer.items():
            row = e[v]
            for w in range(n):
                if not s >> w & 1:
                    t = d & row[w]
                    if t:
                        key = (s | 1 << w, w)
                        nxt[key] = nxt.get(key, 0) | t
        layer = nxt
    out = 0
    for (s, v), d in layer.items():
        out |= d & e[v][0] if cycle else d
    return out


def star(n: int, e: list[list[int]], ones: int) -> int:
    """The OR over the vertices of the AND of their edges."""
    out = 0
    for v in range(n):
        t = ones
        for u in range(n):
            if u != v:
                t &= e[u][v]
        out |= t
    return out


def odd_cycle(n: int, e: list[list[int]], ones: int) -> int:
    """The complement of the OR, over the 2-colorings that give vertex 0
    color 0, of "no edge inside a color class"; colorings grow one vertex at
    a time, carrying the masks that already have a monochromatic edge."""

    def bipartite(v: int, sides: int, mono: int) -> int:
        if mono == ones:
            return 0
        if v >= n:
            return ones ^ mono
        out = 0
        for side in (0, 1):
            m = mono
            for u in range(v):
                if sides >> u & 1 == side:
                    m |= e[u][v]
            out |= bipartite(v + 1, sides | side << v, m)
        return out

    return ones ^ bipartite(1, 0, 0)


def contains(n: int, e: list[list[int]], ones: int, pattern: LabeledGraph,
             induced: bool) -> int:
    """The OR over the distinct placements of the pattern of the AND of its
    edges (and, when induced, of the complements of its non-edges)."""
    if pattern.n > n:
        return 0
    pedges = [(p, q) for q in range(pattern.n) for p in range(q)
              if pattern.bits >> (q * (q - 1) // 2 + p) & 1]
    seen = set()
    out = 0
    for image in permutations(range(n), pattern.n):
        edges = frozenset((min(image[p], image[q]), max(image[p], image[q]))
                          for p, q in pedges)
        key = (edges, frozenset(image) if induced else None)
        if key in seen:
            continue
        seen.add(key)
        t = ones
        for u, v in edges:
            t &= e[u][v]
        if induced:
            for u, v in combinations(sorted(image), 2):
                if (u, v) not in edges:
                    t &= ones ^ e[u][v]
        out |= t
        if out == ones:
            break
    return out
