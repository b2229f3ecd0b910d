"""The package's public names and the modules each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcodes
from graphcodes.cli import main
from graphcodes.constructions import split_clique_family
from graphcodes.core import complete_graph, cycle_graph, empty_graph
from graphcodes.family import save_family

SRC = Path(graphcodes.__file__).resolve().parents[1]

# every public name `import graphcodes` bound when it imported all of them
# eagerly, with the submodule that defines it (None: the name is a submodule)
PUBLIC_NAMES = {
    **dict.fromkeys(("core", "errors", "family", "linalg", "predicates",
                     "verify")),
    **dict.fromkeys((
        "LabeledGraph", "complete_bipartite_graph", "complete_graph",
        "cycle_graph", "edge_from_index", "edge_index", "edge_slots",
        "empty_graph", "graph_from_edges", "path_graph", "star_graph",
        "sym_diff"), "core"),
    **dict.fromkeys(("CapabilityError", "DomainError", "GraphCodesError",
                     "UnsupportedParameterError"), "errors"),
    **dict.fromkeys(("GraphFamily", "ImplicitFamily", "load_family",
                     "save_family"), "family"),
    **dict.fromkeys(("LinearFamily", "double_cover_check", "enumerate_span",
                     "rank"), "linalg"),
    **dict.fromkeys((
        "CONNECTED", "HAMCYCLE", "HAMPATH", "K3", "ODDCYCLE", "STAR",
        "THREE_CONNECTED", "TWO_CONNECTED", "Predicate", "contains_induced",
        "contains_subgraph", "has_hamiltonian_cycle", "has_hamiltonian_path",
        "has_odd_cycle", "has_spanning_star", "is_connected",
        "is_k_connected", "k_connected", "parse_predicate",
        "vertex_connectivity"), "predicates"),
    **dict.fromkeys((
        "VerifyReport", "cross_difference_distinct", "verify_dual_family",
        "verify_dual_sampled", "verify_family", "verify_linear_family"),
        "verify"),
}


def test_public_names_resolve_to_their_submodule_objects():
    assert len(PUBLIC_NAMES) == 56
    for name, module in PUBLIC_NAMES.items():
        if module is None:
            expected = importlib.import_module(f"graphcodes.{name}")
        else:
            expected = getattr(importlib.import_module(f"graphcodes.{module}"),
                               name)
        assert getattr(graphcodes, name) is expected, name


def test_public_names_are_listed():
    assert set(graphcodes.__all__) == set(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(graphcodes))
    assert "__version__" in dir(graphcodes)


def test_star_and_submodule_imports():
    namespace = {}
    exec("from graphcodes import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["verify_family"] is graphcodes.verify.verify_family
    from graphcodes import constructions

    assert constructions is sys.modules["graphcodes.constructions"]


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphcodes.no_such_name
    with pytest.raises(ImportError):
        from graphcodes import no_such_name  # noqa: F401


# `build --help` at 80 columns, recorded when the parser listed the families
# from `constructions.REGISTRY` as it was built
BUILD_HELP = """\
usage: graphcodes build [-h] --family FAMILY [--n N] [--k K] [--p P] [--r R]
                        [--host HOST] [--out OUT] [--json]

options:
  -h, --help       show this help message and exit
  --family FAMILY  clique-agreement, codd-7, dual-isolated, dual-lowdeg, dual-
                   pendant, dual-star, dual-subgraph, even-split, hamcycle,
                   hamming-3conn, hampath, k3-3, k3-4, k3-5, k3-6, odd-2conn,
                   split-clique, star
  --n N
  --k K
  --p P
  --r R
  --host HOST      family file holding one host graph
  --out OUT        output family file
  --json
"""


def test_build_help_lists_every_family(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["build", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == BUILD_HELP


# ---------------------------------------------------------------------------
# import footprint: the graphcodes modules a fresh process holds after one
# command, and the heavy stdlib modules it must not hold, so that a module
# creeping back into a command's imports shows

NUMERIC = {"graphcodes", "graphcodes.cli", "graphcodes.errors",
           "graphcodes.core", "graphcodes.bounds"}
FAMILIES = {"graphcodes", "graphcodes.cli", "graphcodes.errors",
            "graphcodes.core", "graphcodes.family", "graphcodes.linalg"}
FOOTPRINTS = {
    "import": (None, {"graphcodes"}),
    "bound": (["bound", "--pred", "connected", "--n", "3"], NUMERIC),
    "table": (["table", "--range", "3..5"], NUMERIC),
    "build": (["build", "--family", "split-clique", "--n", "5"],
              FAMILIES | {"graphcodes.constructions",
                          "graphcodes.factorization"}),
    # a pairwise rank-1 coset stays on the per-member kernel, while the
    # rank-4 coset of split-clique n=5 is decided from the truth table
    "verify": (["verify", "--pred", "connected", "{family}"],
               FAMILIES | {"graphcodes.predicates", "graphcodes.verify"}),
    "verify-coset": (["verify", "--pred", "connected", "{coset}"],
                     FAMILIES | {"graphcodes.predicates", "graphcodes.verify",
                                 "graphcodes.bitslice"}),
    # a span decided from the truth table loads bitslice for its edge
    # matrix, and so does a cover, for its slot columns; oddcycle stays on
    # the per-member kernel and does not
    "verify-table": (["verify", "--pred", "connected", "{basis}"],
                     FAMILIES | {"graphcodes.predicates", "graphcodes.verify",
                                 "graphcodes.bitslice"}),
    "verify-cover": (["verify", "--pred", "hamcycle", "{basis}"],
                     FAMILIES | {"graphcodes.predicates", "graphcodes.verify",
                                 "graphcodes.bitslice"}),
    "verify-kernel": (["verify", "--pred", "oddcycle", "{basis}"],
                      FAMILIES | {"graphcodes.predicates",
                                  "graphcodes.verify"}),
    "search": (["search", "--pred", "k3", "--n", "4", "--mode", "good"],
               FAMILIES | {"graphcodes.predicates", "graphcodes.search",
                           "graphcodes.bounds", "graphcodes.bitslice"}),
    "factorize": (["factorize", "--m", "6"],
                  {"graphcodes", "graphcodes.cli", "graphcodes.errors",
                   "graphcodes.core", "graphcodes.factorization",
                   "graphcodes.family"}),
}

PROBE = """\
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import graphcodes
else:
    from graphcodes import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m == "graphcodes" or m.startswith("graphcodes."))))
print(json.dumps(sorted(m for m in sys.argv[2:] if m in sys.modules)))
"""

# stdlib modules no command may load: `dataclasses` imports the rest, which
# together cost a fresh process about 10 ms
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# ... and the commands that read only integer theorem rows must not load
# `fractions` (with `decimal` and `numbers`, about 4.5 ms), which only the
# star-dual bounds and distancity need
NO_FRACTIONS = {"bound", "search"}


@pytest.mark.parametrize("command", sorted(FOOTPRINTS))
def test_command_imports_only_what_it_runs(tmp_path, command):
    argv, expected = FOOTPRINTS[command]
    if argv is not None:
        family = tmp_path / "fam.json"
        save_family(family, 4, [empty_graph(4), complete_graph(4)])
        # a rank-2 span whose three members have Hamiltonian cycles (and so
        # odd cycles: K_5, C_5 and its complement, again a 5-cycle)
        basis = tmp_path / "basis.json"
        save_family(basis, 5, [complete_graph(5), cycle_graph(5)],
                    role="basis")
        coset = tmp_path / "coset.json"
        save_family(coset, 5, split_clique_family(5).graphs)
        argv = [a.format(family=family, basis=basis, coset=coset)
                for a in argv]
    absent = HEAVY_STDLIB + (("fractions",) if command in NO_FRACTIONS
                             else ())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), *absent],
        env=env, capture_output=True, text=True, check=True)
    modules, heavy = proc.stdout.splitlines()
    assert set(json.loads(modules)) == expected
    assert json.loads(heavy) == []
