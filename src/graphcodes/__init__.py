"""Families of labeled graphs with prescribed pairwise symmetric differences.

Constructions meeting each known bound, exact predicate verification with
deterministic witnesses, closed-form upper/lower bounds, and exhaustive
optimum search for tiny vertex counts.

`import graphcodes` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it lends to the package
_EXPORTS = {
    "core": (
        "LabeledGraph", "complete_bipartite_graph", "complete_graph",
        "cycle_graph", "edge_from_index", "edge_index", "edge_slots",
        "empty_graph", "graph_from_edges", "path_graph", "star_graph",
        "sym_diff",
    ),
    "errors": (
        "CapabilityError", "DomainError", "GraphCodesError",
        "UnsupportedParameterError",
    ),
    "family": ("GraphFamily", "ImplicitFamily", "load_family", "save_family"),
    "linalg": ("LinearFamily", "double_cover_check", "enumerate_span", "rank"),
    "predicates": (
        "CONNECTED", "HAMCYCLE", "HAMPATH", "K3", "ODDCYCLE", "STAR",
        "THREE_CONNECTED", "TWO_CONNECTED", "Predicate", "contains_induced",
        "contains_subgraph", "has_hamiltonian_cycle", "has_hamiltonian_path",
        "has_odd_cycle", "has_spanning_star", "is_connected",
        "is_k_connected", "k_connected", "parse_predicate",
        "vertex_connectivity",
    ),
    "verify": (
        "VerifyReport", "cross_difference_distinct", "verify_dual_family",
        "verify_dual_sampled", "verify_family", "verify_linear_family",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
