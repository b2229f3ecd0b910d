"""Command-line interface: build, verify, bound, search, table, factorize.

Exit codes: 0 success / verification pass, 1 verification fail (or a search
that proved a claimed size wrong), 2 usage or capability errors.

Each command imports the modules it runs when it runs, so `bound` and
`table` do not pay for constructions, verification or search.  Each handler
returns ``(payload, lines, exit_code)`` and writes nothing to stdout;
``main`` prints the payload as one JSON line under ``--json`` and the lines
otherwise.  Only ``--stats`` and ``search --expect`` write to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import GraphCodesError


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args):
    from . import constructions
    from .core import _fmt_size
    from .family import load_graph, save_family
    from .linalg import LinearFamily

    if args.family not in constructions.REGISTRY:
        known = ", ".join(sorted(constructions.REGISTRY))
        raise GraphCodesError(f"unknown family {args.family!r}; known: {known}")
    param_names, builder = constructions.REGISTRY[args.family]
    for name in ("n", "k", "p", "r", "host"):
        if name not in param_names and getattr(args, name) is not None:
            raise GraphCodesError(f"family {args.family!r} takes no --{name}")
    params = []
    prov_params = {}
    for name in param_names:
        value = getattr(args, name)
        if value is None:
            raise GraphCodesError(f"family {args.family!r} needs --{name}")
        if name == "host":  # its builder records it in its own provenance
            value = load_graph(value)
        else:
            prov_params[name] = value
        params.append(value)
    fam = builder(*params)
    if isinstance(fam, LinearFamily):
        provenance = {"construction": args.family, **prov_params,
                      "rank": fam.rank}
        if args.out:
            save_family(args.out, fam.n, fam.basis, role="basis",
                        provenance=provenance)
        size, claimed = 1 << fam.rank, 1 << fam.rank
        detail = f"basis of {len(fam.basis)} generators, rank {fam.rank}"
    else:
        provenance = dict(fam.provenance)
        if args.out:
            save_family(args.out, fam.n, fam.graphs, provenance=provenance)
        size, claimed = len(fam), fam.claimed_size
        detail = f"{len(fam)} graphs"
    payload = {"family": args.family, "n": fam.n, "size": size,
               "claimed_size": claimed, "detail": detail, "out": args.out}
    lines = [f"{args.family}: {detail}; size {_fmt_size(size)}, "
             f"claimed {_fmt_size(claimed)}"]
    if args.out:
        lines.append(f"wrote {args.out}")
    return payload, lines, 0


def _cmd_verify(args):
    from .family import load_family
    from .linalg import LinearFamily
    from .predicates import parse_predicate
    from .verify import (verify_dual_family, verify_dual_sampled,
                         verify_family, verify_linear_family)

    pred = parse_predicate(args.pred)
    loaded = load_family(args.family_file)
    linear = args.linear or loaded.role == "basis"
    if linear and args.dual:
        raise GraphCodesError("linear verification has no dual mode")
    start = time.perf_counter()
    if args.sample is not None:
        if not args.dual:
            raise GraphCodesError("--sample is only available for dual checks")
        fam = loaded.to_graph_family()
        report = verify_dual_sampled(fam, pred, pairs=args.sample, seed=args.seed)
    elif linear:
        fam = LinearFamily(loaded.n, loaded.graphs)
        report = verify_linear_family(fam, pred)
    else:
        fam = loaded.to_graph_family()
        if args.dual:
            report = verify_dual_family(fam, pred)
        else:
            report = verify_family(fam, pred)
    verify_s = time.perf_counter() - start
    payload = {
        "passed": report.passed,
        "mode": report.mode,
        "pairs_checked": report.pairs_checked,
        "method": report.method,
        "predicate_calls": report.predicate_calls,
    }
    lines = [f"{'PASS' if report.passed else 'FAIL'} [{report.mode}] checked "
             f"{report.pairs_checked} "
             f"{'members' if report.mode == 'linear' else 'pairs'}"]
    if report.witness:
        (i, j), diff = report.witness
        payload["witness"] = {"pair": [i, j], "difference": diff.to_hex()}
        lines.append(f"witness pair ({i}, {j}); "
                     f"difference edges {diff.edges()}")
    if args.stats:
        print(f"stats: mode={report.mode} method={report.method} "
              f"predicate_calls={report.predicate_calls} "
              f"checked={report.pairs_checked} verify_s={verify_s:.4f}",
              file=sys.stderr)
    return payload, lines, 0 if report.passed else 1


def _cmd_bound(args):
    from .bounds import bound_output

    return *bound_output(args.pred, args.n), 0


def _cmd_search(args):
    from . import search
    from .family import save_family
    from .predicates import parse_predicate

    pred = parse_predicate(args.pred)
    kwargs = {"budget_nodes": args.budget_nodes, "time_ms": args.time_ms}
    if args.mode == "good":
        result = search.max_good_family(args.n, pred, **kwargs)
    elif args.mode == "dual":
        result = search.max_dual_family(args.n, pred, **kwargs)
    else:
        result = search.max_linear_family(args.n, pred, **kwargs)
    if args.out:
        save_family(args.out, result.certificate.n, result.certificate.graphs,
                    provenance=dict(result.certificate.provenance))
    payload = {
        "optimum": result.optimum, "status": result.status,
        "explored": result.explored, "rank": result.rank,
        "out": args.out, "candidates": result.candidates,
        "compat_edges": result.compat_edges,
        "size_floor": result.size_floor, "size_cap": result.size_cap,
    }
    line = (f"optimum {result.optimum} [{result.status}], "
            f"explored {result.explored} nodes")
    if result.rank is not None:
        line += f", rank {result.rank}"
    lines = [line]
    if args.out:
        lines.append(f"certificate written to {args.out}")
    if args.stats:
        fields = [f"mode={args.mode}", f"status={result.status}",
                  f"explored={result.explored}"]
        if result.candidates is not None:
            fields += [f"candidates={result.candidates}",
                       f"compat_edges={result.compat_edges}"]
        fields += [f"{phase}_s={secs:.4f}"
                   for phase, secs in result.phase_seconds.items()]
        print("stats: " + " ".join(fields), file=sys.stderr)
    if args.expect is not None and result.status == "exact" \
            and result.optimum < args.expect:
        print(f"search proved the optimum is {result.optimum} < {args.expect}",
              file=sys.stderr)
        return payload, lines, 1
    return payload, lines, 0


def _cmd_table(args):
    from .bounds import table_output

    try:
        lo_text, hi_text = args.range.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise GraphCodesError(f"bad range {args.range!r}; expected a..b") from exc
    return *table_output(lo, hi), 0


def _cmd_factorize(args):
    from .factorization import starter_factorization, verify_p1f
    from .family import save_family

    f = starter_factorization(args.m)
    perfect = verify_p1f(f)
    if args.out:
        save_family(
            args.out, f.m, f.matchings, role="factorization",
            provenance={"construction": "starter-factorization", "m": f.m,
                        "perfect": perfect},
        )
    payload = {"m": f.m, "matchings": len(f.matchings), "perfect": perfect,
               "out": args.out}
    lines = [f"K_{f.m}: {len(f.matchings)} matchings, "
             f"{'perfect' if perfect else 'not perfect'}"]
    if args.out:
        lines.append(f"wrote {args.out}")
    return payload, lines, 0


# ---------------------------------------------------------------------------
# parser


class _BuildHelp(argparse.HelpFormatter):
    """Lists the known families as the help of `--family`, importing them
    only when help is printed rather than whenever the parser is built."""

    def _get_help_string(self, action):
        if action.dest != "family":
            return action.help
        from .constructions import REGISTRY

        return ", ".join(sorted(REGISTRY))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcodes",
        description="Construct, verify, bound, and search families of labeled "
        "graphs whose pairwise symmetric differences satisfy a predicate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a family and write it",
                             formatter_class=_BuildHelp)
    p_build.add_argument("--family", required=True, help="known families")
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--k", type=int)
    p_build.add_argument("--p", type=int)
    p_build.add_argument("--r", type=int)
    p_build.add_argument("--host", help="family file holding one host graph")
    p_build.add_argument("--out", help="output family file")
    p_build.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="certify a family file")
    p_verify.add_argument("family_file")
    p_verify.add_argument("--pred", required=True)
    p_verify.add_argument("--dual", action="store_true",
                          help="require that no difference satisfies the predicate")
    p_verify.add_argument("--linear", action="store_true",
                          help="treat the file as a basis and check the span")
    p_verify.add_argument("--threads", type=int, default=1,
                          help="accepted for compatibility; verification "
                               "runs in one process")
    p_verify.add_argument("--sample", type=int,
                          help="spot-check this many random pairs (dual only)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for sampled checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--stats", action="store_true",
                          help="print the method, counters and time on stderr")

    p_bound = sub.add_parser("bound", help="print bound reports")
    p_bound.add_argument("--pred", required=True)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--json", action="store_true")

    p_search = sub.add_parser("search", help="exact extremal search (small n)")
    p_search.add_argument("--pred", required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--mode", choices=("good", "dual", "linear"),
                          required=True)
    p_search.add_argument("--budget-nodes", type=int, default=None)
    p_search.add_argument("--time-ms", type=int, default=None)
    p_search.add_argument("--out", help="write the certificate family here")
    p_search.add_argument("--expect", type=int,
                          help="exit 1 if the exact optimum is below this")
    p_search.add_argument("--json", action="store_true")
    p_search.add_argument("--stats", action="store_true",
                          help="print counters and phase times on stderr")

    p_table = sub.add_parser("table", help="theorem table over a range of n")
    p_table.add_argument("--range", required=True, help="a..b with 3<=a<=b<=14")
    p_table.add_argument("--json", action="store_true")

    p_fact = sub.add_parser("factorize", help="one-factorization of K_m")
    p_fact.add_argument("--m", type=int, required=True)
    p_fact.add_argument("--out", help="output family file")
    p_fact.add_argument("--json", action="store_true")

    return parser


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "search": _cmd_search,
    "table": _cmd_table,
    "factorize": _cmd_factorize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = _COMMANDS[args.command](args)
        if args.json:
            print(json.dumps(payload))
        else:
            print(*lines, sep="\n")
    except (GraphCodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
