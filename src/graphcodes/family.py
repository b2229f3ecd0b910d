"""Graph family containers and the JSON interchange file format.

A family file is a JSON document
``{"version": 1, "n": <int>, "edge_order": "colex-1based", "graphs": [<hex>, ...]}``
with optional ``"role"`` ("basis" or "factorization") and ``"provenance"``
entries.  Each graph is its edge bit vector packed little-endian within bytes
(slot k at byte k//8, bit k%8) and hex-encoded lowercase.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so that a loaded
file re-serializes byte-identically.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .core import Frozen, LabeledGraph, _fmt_size, edge_slots, vertex_limit
from .errors import CapabilityError, DomainError

FORMAT_VERSION = 1
EDGE_ORDER = "colex-1based"
ENUM_BUDGET = 1 << 24


def check_enumerable(size: int) -> None:
    """Refuse to list more than ``ENUM_BUDGET`` graphs at once."""
    if size > ENUM_BUDGET:
        raise CapabilityError(f"{_fmt_size(size)} graphs exceed the "
                              f"enumeration budget {_fmt_size(ENUM_BUDGET)}")


class GraphFamily(Frozen):
    """Ordered, duplicate-free collection of graphs on a common vertex set.
    Equality and hashing ignore ``provenance`` and ``claimed_size``."""

    __slots__ = ("n", "graphs", "provenance", "claimed_size")

    def __init__(self, n: int, graphs, provenance: dict | None = None,
                 claimed_size: int | None = None) -> None:
        graphs = tuple(graphs)
        seen = set()
        for g in graphs:
            if g.n != n:
                raise DomainError(f"member on {g.n} vertices in a family on {n}")
            if g.bits in seen:
                raise DomainError("duplicate graph in family")
            seen.add(g.bits)
        if claimed_size is not None and len(graphs) != claimed_size:
            raise DomainError(
                f"construction produced {len(graphs)} graphs, "
                f"expected {claimed_size}"
            )
        self._set(n, graphs, {} if provenance is None else provenance,
                  claimed_size)

    def _key(self) -> tuple:
        return (self.n, self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, idx: int) -> LabeledGraph:
        return self.graphs[idx]

    def masks(self) -> list[int]:
        return [g.bits for g in self.graphs]


class ImplicitFamily(Frozen):
    """All graphs of the form ``base | (x & free)``, i.e. fixed bits outside
    ``free_mask`` and free choice inside it.  Carries a closed-form size plus
    membership and sampling, so it serves where enumeration is too large.
    Equality and hashing ignore ``provenance``."""

    __slots__ = ("n", "base_bits", "free_mask", "provenance")

    def __init__(self, n: int, base_bits: int, free_mask: int,
                 provenance: dict | None = None) -> None:
        if base_bits & free_mask:
            raise DomainError("base bits must avoid the free slots")
        if (base_bits | free_mask) >> edge_slots(n):
            raise DomainError("slot masks out of range")
        self._set(n, base_bits, free_mask,
                  {} if provenance is None else provenance)

    def _key(self) -> tuple:
        return (self.n, self.base_bits, self.free_mask)

    @property
    def log2_size(self) -> int:
        return self.free_mask.bit_count()

    @property
    def size(self) -> int:
        return 1 << self.log2_size

    def contains(self, g: LabeledGraph) -> bool:
        return g.n == self.n and (g.bits & ~self.free_mask) == self.base_bits

    def sample(self, rng: random.Random) -> LabeledGraph:
        bits = self.base_bits | (rng.getrandbits(edge_slots(self.n)) & self.free_mask)
        return LabeledGraph(self.n, bits)

    def enumerate(self) -> GraphFamily:
        """Every member as an explicit family, in increasing mask order (the
        submasks of ``free_mask`` counted upward)."""
        check_enumerable(self.size)
        free = self.free_mask
        graphs = [LabeledGraph(self.n, self.base_bits)]
        sub = 0
        while sub != free:
            sub = (sub - free) & free
            graphs.append(LabeledGraph(self.n, self.base_bits | sub))
        return GraphFamily(
            self.n, tuple(graphs), provenance=dict(self.provenance),
            claimed_size=self.size,
        )


class LoadedFamily(Frozen):
    """Raw contents of a family file, before interpretation."""

    __slots__ = ("n", "graphs", "role", "provenance")

    def __init__(self, n: int, graphs: tuple[LabeledGraph, ...],
                 role: str | None, provenance: dict) -> None:
        self._set(n, graphs, role, provenance)

    def to_graph_family(self) -> GraphFamily:
        return GraphFamily(self.n, self.graphs, provenance=dict(self.provenance))


def family_to_json(
    n: int,
    graphs,
    role: str | None = None,
    provenance: dict | None = None,
) -> str:
    doc: dict = {
        "version": FORMAT_VERSION,
        "n": n,
        "edge_order": EDGE_ORDER,
        "graphs": [g.to_hex() for g in graphs],
    }
    if role is not None:
        doc["role"] = role
    if provenance:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_family(
    path,
    n: int,
    graphs,
    role: str | None = None,
    provenance: dict | None = None,
) -> None:
    Path(path).write_text(family_to_json(n, graphs, role=role, provenance=provenance))


def load_family(path) -> LoadedFamily:
    """Read a family file; a malformed file raises DomainError."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise DomainError(f"{path}: not a JSON family file ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: family file must hold a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise DomainError(f"unsupported family file version {doc.get('version')!r}")
    if doc.get("edge_order") != EDGE_ORDER:
        raise DomainError(f"unsupported edge order {doc.get('edge_order')!r}")
    for key in ("n", "graphs"):
        if key not in doc:
            raise DomainError(f"{path}: family file lacks {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError("bad vertex count in family file")
    if n > vertex_limit():
        raise CapabilityError(
            f"{path}: n={n} exceeds the configured vertex limit {vertex_limit()}"
        )
    if not isinstance(doc["graphs"], list):
        raise DomainError(f"{path}: 'graphs' must be a list of hex strings")
    role = doc.get("role")
    if "role" in doc and not isinstance(role, str):
        raise DomainError(f"{path}: 'role' must be a string")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DomainError(f"{path}: 'provenance' must be a JSON object")
    try:
        graphs = tuple(LabeledGraph.from_hex(n, h) for h in doc["graphs"])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{path}: bad graph entry ({exc})") from exc
    return LoadedFamily(n=n, graphs=graphs, role=role, provenance=provenance)


def load_graph(path) -> LabeledGraph:
    """The one graph of a family file, such as a pattern or host graph; a
    file holding any other number of graphs raises DomainError."""
    graphs = load_family(path).graphs
    if len(graphs) != 1:
        raise DomainError(
            f"{path}: must hold exactly one graph, not {len(graphs)}")
    return graphs[0]
