"""Labeled graphs on {1..n} stored as bit vectors over colex edge slots.

Edge {i,j} with 1 <= i < j <= n lives at slot (j-1)(j-2)/2 + (i-1), so the
slots enumerate pairs in colex order of (j, i).  The symmetric difference of
two graphs is the XOR of their bit vectors.  Graphs are immutable and
hashable, like every value class of the package, which derive from
``Frozen``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import CapabilityError, DomainError

DEFAULT_VERTEX_LIMIT = 64
# masks are decided in blocks of 2^BLOCK_WIDTH (8 KiB per column), so that
# neither a search at n = 8 nor a span of rank 26 holds a whole table
BLOCK_WIDTH = 16

_vertex_limit = DEFAULT_VERTEX_LIMIT


def vertex_limit() -> int:
    return _vertex_limit


def set_vertex_limit(limit: int) -> None:
    """Raise or lower the cap on vertex counts (default 64)."""
    global _vertex_limit
    if limit < 1:
        raise DomainError("vertex limit must be at least 1")
    _vertex_limit = limit


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count past the configured limit, before any mask on
    that many vertices is built."""
    if n > _vertex_limit:
        raise CapabilityError(
            f"n={n} exceeds the configured vertex limit {_vertex_limit}"
        )


def edge_slots(n: int) -> int:
    """Number of edge slots C(n, 2) for an n-vertex graph."""
    return n * (n - 1) // 2


def pair_slot(u: int, v: int) -> int:
    """Slot of the edge between 0-based vertices u != v, in either order.
    Unchecked, for the witness paths; ``edge_index`` checks."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def edge_index(i: int, j: int, n: int) -> int:
    """Slot of edge {i, j}; requires 1 <= i < j <= n."""
    if not 1 <= i < j <= n:
        raise DomainError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return pair_slot(i - 1, j - 1)


def _unordered_index(i: int, j: int, n: int) -> int:
    """``edge_index`` of the pair {i, j} given in either order."""
    if i == j:
        raise DomainError("no self-loops")
    return edge_index(i, j, n) if i < j else edge_index(j, i, n)


def edge_from_index(idx: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index: the pair (i, j) stored at slot idx."""
    if not 0 <= idx < edge_slots(n):
        raise DomainError(f"slot {idx} out of range for n={n}")
    # idx = t(t-1)/2 + r with 0 <= r < t puts 1 + 8 idx in
    # [(2t-1)^2, (2t+1)^2), so the integer square root gives t exactly
    t = (1 + math.isqrt(1 + 8 * idx)) // 2
    return idx - t * (t - 1) // 2 + 1, t + 1


def _is_prime(p: int) -> bool:
    """Primality by trial division, for the orders the constructions need."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _fits_str(x: int) -> bool:
    """str(x) stays within the interpreter's int-to-str digit limit.  An x
    below 8^limit fits without building 10^limit, which takes about 30 us
    at the default limit of 4,300 digits.  Python 3.10 before 3.10.7 has
    no limit and no ``sys.get_int_max_str_digits``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit == 0 or x.bit_length() <= 3 * limit or x < 10 ** limit


def _fmt_size(x: int) -> str:
    """A family size as printed: 2^k for a power of two from 2^16 on,
    ~2^x past the int-to-str limit, else the decimal digits."""
    if x >= 1 << 16 and x & (x - 1) == 0:
        return f"2^{x.bit_length() - 1}"
    if not _fits_str(x):
        return f"~2^{math.log2(x):.6f}"
    return str(x)


@lru_cache(maxsize=None)
def incidence_masks(n: int) -> tuple[int, ...]:
    """For each vertex v (0-based), the mask of slots of edges touching v+1."""
    inc = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            inc[i] |= 1 << idx
            inc[j] |= 1 << idx
            idx += 1
    return tuple(inc)


def cut_mask(n: int, side: int) -> int:
    """Edges between S and its complement for the side bitmask (bit v-1 =
    v in S): the XOR of the incidence rows of S, in which each edge inside S
    cancels."""
    inc = incidence_masks(n)
    bits = 0
    while side:
        low = side & -side
        bits ^= inc[low.bit_length() - 1]
        side ^= low
    return bits


def adjacency_masks(n: int, bits: int) -> list[int]:
    """Neighbor bitmasks per vertex (0-based): bit u of adj[v] <=> edge {u+1, v+1}.

    In colex order the lower neighbors of vertex j are the j slots starting at
    j(j-1)/2, so each row is one shift and one mask; the upper half is filled
    in from the set bits of the rows."""
    adj = [0] * n
    off = 0
    for j in range(1, n):
        row = bits >> off & ((1 << j) - 1)
        off += j
        adj[j] = row
        bit = 1 << j
        while row:
            low = row & -row
            adj[low.bit_length() - 1] |= bit
            row ^= low
    return adj


def reach(adj: list[int], seed: int, within: int) -> int:
    """The closure of the vertex mask ``seed`` (a subset of ``within``) under
    adjacency inside ``within``, by a frontier BFS; it stops as soon as the
    closure is all of ``within``."""
    closure = frontier = seed
    while frontier and closure != within:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & within & ~closure
        closure |= frontier
    return closure


def two_coloring(adj: list[int]) -> int | None:
    """The color-0 class of the proper 2-coloring that gives the lowest
    vertex of each component color 0, as a vertex mask; None when the graph
    (given by its neighbor masks) has an odd cycle.

    Each component is walked in BFS layers from its lowest vertex, and the
    even layers form the class.  Edges join equal or adjacent layers, so
    the coloring is proper iff no edge lies inside a layer."""
    unseen = (1 << len(adj)) - 1
    even = 0
    while unseen:
        layer = unseen & -unseen
        parity = 0
        while layer:
            unseen ^= layer
            if not parity:
                even |= layer
            nxt = 0
            m = layer
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            if nxt & layer:
                return None
            layer = nxt & unseen
            parity ^= 1
    return even


class Frozen:
    """Base of the package's immutable value classes.

    A subclass keeps its fields in ``__slots__``, stores them in
    ``__init__`` with one ``_set`` call and names its constructor arguments,
    in order, in ``_fields``, which defaults to ``__slots__``.  Instances
    refuse assignment and deletion, equal the instances of their own class
    with an equal ``_key()`` and hash on it, show ``_fields`` in their repr,
    and pickle and copy by calling the class on ``_fields`` again, so the
    constructor's checks run."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass that declares no slots of its own keeps its base's
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__dict__.get("__slots__") or cls._fields

    def _set(self, *values) -> None:
        """Store ``values`` into ``__slots__``, in order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        """What equality and hashing compare: every field, unless a
        subclass leaves some out."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class LabeledGraph(Frozen):
    """Graph on vertex set {1..n}; bit k of ``bits`` is edge slot k."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 1:
            raise DomainError("a graph needs at least one vertex")
        check_vertex_count(n)
        if not 0 <= bits < (1 << edge_slots(n)):
            raise DomainError(f"edge bits out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.bits) == (other.n, other.bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    @property
    def num_slots(self) -> int:
        return edge_slots(self.n)

    @property
    def num_edges(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.bits >> _unordered_index(i, j, self.n) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(edge_from_index(low.bit_length() - 1, self.n))
            bits ^= low
        return out

    def __xor__(self, other: "LabeledGraph") -> "LabeledGraph":
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        if self.n != other.n:
            raise DomainError(f"vertex counts differ: {self.n} vs {other.n}")
        return LabeledGraph(self.n, self.bits ^ other.bits)

    def complement(self) -> "LabeledGraph":
        return LabeledGraph(self.n, self.bits ^ ((1 << self.num_slots) - 1))

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range for n={self.n}")
        return (self.bits & incidence_masks(self.n)[v - 1]).bit_count()

    def degree_sequence(self) -> list[int]:
        inc = incidence_masks(self.n)
        return [(self.bits & inc[v]).bit_count() for v in range(self.n)]

    def adjacency(self) -> list[int]:
        return adjacency_masks(self.n, self.bits)

    def induced_subgraph(self, vertices) -> "LabeledGraph":
        """Induced subgraph on the given vertices, relabeled 1..k in sorted order."""
        vs = sorted(set(vertices))
        if not vs or vs[0] < 1 or vs[-1] > self.n:
            raise DomainError("vertex subset out of range")
        bits = 0
        for b, jv in enumerate(vs):
            for a in range(b):
                if self.has_edge(vs[a], jv):
                    bits |= 1 << edge_index(a + 1, b + 1, len(vs))
        return LabeledGraph(len(vs), bits)

    def to_hex(self) -> str:
        """Pack slot k at byte k//8, bit k%8; lowercase hex of those bytes."""
        nbytes = (self.num_slots + 7) // 8
        return self.bits.to_bytes(nbytes, "little").hex()

    @classmethod
    def from_hex(cls, n: int, text: str) -> "LabeledGraph":
        nbytes = (edge_slots(n) + 7) // 8
        if len(text) != 2 * nbytes:
            raise DomainError(
                f"hex length {len(text)} != {2 * nbytes} expected for n={n}"
            )
        bits = int.from_bytes(bytes.fromhex(text), "little")
        if bits >> edge_slots(n):
            raise DomainError("padding bits beyond the last edge slot must be zero")
        return cls(n, bits)

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, edges={self.edges()})"


def sym_diff(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Symmetric difference of edge sets: bitwise XOR of the edge vectors."""
    return g ^ h


def empty_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, 0)


def complete_graph(n: int) -> LabeledGraph:
    check_vertex_count(n)
    return LabeledGraph(n, (1 << edge_slots(n)) - 1)


def graph_from_edges(n: int, edges) -> LabeledGraph:
    check_vertex_count(n)
    bits = 0
    for i, j in edges:
        slot = _unordered_index(i, j, n)
        if bits >> slot & 1:
            raise DomainError(f"duplicate edge {{{min(i, j)},{max(i, j)}}}")
        bits |= 1 << slot
    return LabeledGraph(n, bits)


def path_graph(n: int) -> LabeledGraph:
    check_vertex_count(n)
    return graph_from_edges(n, [(v, v + 1) for v in range(1, n)])


def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise DomainError("a cycle needs at least 3 vertices")
    check_vertex_count(n)
    return graph_from_edges(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])


def star_graph(n: int, center: int = 1) -> LabeledGraph:
    if not 1 <= center <= n:
        raise DomainError("center out of range")
    check_vertex_count(n)
    return graph_from_edges(n, [(center, v) for v in range(1, n + 1) if v != center])


def complete_bipartite_graph(n: int, side) -> LabeledGraph:
    """All edges between ``side`` and its complement in {1..n}: its cut
    graph."""
    side = set(side)
    if not all(v in range(1, n + 1) for v in side):
        raise DomainError("side vertices out of range")
    check_vertex_count(n)
    return LabeledGraph(n, cut_mask(n, sum(1 << v - 1 for v in side)))
