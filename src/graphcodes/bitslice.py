"""Bit columns over blocks of edge masks (bit-slicing).

Mask i of a block of 2^width masks is bit i of a big int.  The masks are
the whole mask space in order, or the members of a GF(2) span in the order
of their coefficients over its basis rows.  Column e of the block is the
bitset of its masks that hold edge slot e, and the edge matrix holds, for
each vertex pair, the column of its slot.  Only the truth-table, cover and
search paths import this module, so processes that only call the per-mask
kernels do not load it.
"""

from __future__ import annotations

from functools import lru_cache

from .core import edge_slots
from .errors import DomainError
from .family import check_enumerable


@lru_cache(maxsize=None)
def slot_columns(width: int) -> tuple[int, ...]:
    """Bit columns over the 2^width masks of ``width`` slots: column e is the
    bitset of the masks with bit e set (blocks of 2^e zeros then 2^e ones),
    built from repeated bytes.  A width past the enumeration budget is
    refused before anything is built."""
    check_enumerable(1 << width)
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

