"""Traced in-process replay of a workload's jobs through `graphcodes.cli.main`.

Spans wrap the public functions and methods of each package module; the
module is the layer.  Spans live in memory as (name, layer, parent, start,
end) and are reduced to per-layer busy and self times when the replay ends.
Predicate calls are far too many to keep one span each (8.4 million on
pairwise-certify), so `Predicate.test_mask` feeds an aggregate per parent
span and predicate name instead: a call count and total seconds.  `core` is
not wrapped, because its decode runs inside every predicate call; its cost
is timed apart, over the distinct graphs the predicates were given.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from check import job_problems
from workloads import BUILD, SEARCH, VERIFY, Job

LAYERS = ("cli", "constructions", "factorization", "family", "linalg",
          "bounds", "verify", "search", "predicates")
PREDICATES = ("connected", "2conn", "3conn", "kconn:4", "hampath",
              "hamcycle", "star", "k3", "oddcycle")

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, parent index, start, end]
        self.stack = [-1]
        self.leaf: dict[tuple[int, str], list] = {}  # -> [calls, seconds]
        self.seen: set[tuple[int, int]] = set()  # (n, bits) given to predicates
        self._undo: list = []

    def _span(self, func, name: str, layer: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = [name, layer, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def _predicate(self, test_mask):
        leaf, stack, seen = self.leaf, self.stack, self.seen

        @functools.wraps(test_mask)
        def traced(pred, n, bits):
            t0 = clock()
            result = test_mask(pred, n, bits)
            dt = clock() - t0
            key = (stack[-1], pred.name)
            cell = leaf.get(key)
            if cell is None:
                cell = leaf[key] = [0, 0.0]
            cell[0] += 1
            cell[1] += dt
            seen.add((n, bits))
            return result

        return traced

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target.__setitem__, key, target[key]))
            target[key] = value
        else:
            self._undo.append((functools.partial(setattr, target), key,
                               getattr(target, key)))
            setattr(target, key, value)

    def install(self) -> None:
        """Wrap every layer's public functions and methods, then rebind the
        references other modules and module-level registries hold."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"graphcodes.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj) and layer != "predicates":
                    wrapped[obj] = self._span(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if meth_name.startswith("_") \
                                or not inspect.isfunction(meth):
                            continue
                        if layer == "predicates":
                            if meth_name == "test_mask":
                                self._set(obj, meth_name, self._predicate(meth))
                            continue
                        self._set(obj, meth_name, self._span(
                            meth, f"{layer}.{attr}.{meth_name}", layer))

        def swap(value):
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                return value if new == value else new
            try:
                return wrapped.get(value, value)
            except TypeError:  # unhashable
                return value

        for name, mod in list(sys.modules.items()):
            if name != "graphcodes" and not name.startswith("graphcodes."):
                continue
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not obj:
                    self._set(mod, attr, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = swap(val)
                        if new is not val:
                            self._set(obj, key, new)

    def dump(self, path: Path) -> None:
        """Write the spans and predicate aggregates as JSON, times in seconds
        from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {"spans": [[name, layer, parent, start - t0, end - t0]
                         for name, layer, parent, start, end in self.spans],
               "predicate_calls": [[parent, name, calls, secs] for
                                   (parent, name), (calls, secs)
                                   in sorted(self.leaf.items())]}
        path.write_text(json.dumps(doc) + "\n")

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    def layer_times(self) -> dict:
        """Busy time (outermost spans of each layer), self time (spans minus
        their children, predicate aggregates included) and predicate totals
        by name and by the layer of the calling span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        pred_calls: dict = defaultdict(int)
        pred_s: dict = defaultdict(float)
        for (parent, pname), (calls, secs) in self.leaf.items():
            if parent >= 0:
                covered[parent] += secs
            caller = spans[parent][1] if parent >= 0 else "-"
            for key in (pname, "layer:" + caller, "all"):
                pred_calls[key] += calls
                pred_s[key] += secs
        busy: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        outer_by_name: dict = defaultdict(float)
        ancestors: list[frozenset] = []
        for i, (name, layer, parent, t0, t1) in enumerate(spans):
            anc = (ancestors[parent] | {spans[parent][1]} if parent >= 0
                   else frozenset())
            ancestors.append(anc)
            self_s[layer] += t1 - t0 - covered[i]
            if layer not in anc:
                busy[layer] += t1 - t0
                outer_by_name[name] += t1 - t0
        return {"busy": busy, "self": self_s, "by_name": outer_by_name,
                "pred_calls": pred_calls, "pred_s": pred_s}


# ---------------------------------------------------------------------------
# replay


def _call(argv: list[str]) -> tuple[int, str, float]:
    """Run `graphcodes.cli.main(argv)` in this process, looked up afresh so
    a traced wrapper is used when installed."""
    main = sys.modules["graphcodes.cli"].main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        dt = clock() - t0
    return code, out.getvalue(), dt


def _replay_argv(job: Job) -> list[str]:
    # one thread, so that every predicate call happens in this process
    return list(job.argv) + (["--threads", "1"] if job.phase == VERIFY else [])


def distinct_differences(masks: list[int], pairs: int) -> int:
    """Distinct symmetric differences among the first `pairs` index pairs
    (i, j), i < j, in lexicographic order."""
    seen: set[int] = set()
    left = pairs
    for i, mi in enumerate(masks):
        if left <= 0:
            break
        row = masks[i + 1:i + 1 + left]
        seen.update(mi ^ mj for mj in row)
        left -= len(row)
    return len(seen)


def replay(jobs: list[Job], workdir: Path, src: Path,
           spans_path: Path) -> tuple[int, int, dict]:
    """Untraced then traced in-process replay; (attempted, failed, metrics).
    The traced pass's spans are written to `spans_path`."""
    sys.path.insert(0, str(src))
    import graphcodes.cli  # noqa: F401  (imported for _call and the tracer)
    from graphcodes.core import adjacency_masks

    attempted = failed = 0
    counts: dict = defaultdict(int)
    totals = {"untraced": 0.0, "traced": 0.0}
    tracer = Tracer()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.install()
            try:
                for job in jobs:
                    code, out, dt = _call(_replay_argv(job))
                    totals[mode] += dt
                    attempted += 1
                    problems = job_problems(job, code, out, workdir)
                    if problems:
                        failed += 1
                        print(f"FAILED ({mode} replay) {job.label}: "
                              + "; ".join(problems), file=sys.stderr)
                    if mode == "traced" and not problems:
                        _count(job, out, workdir, counts)
            finally:
                tracer.uninstall()
    finally:
        os.chdir(home)
    tracer.dump(spans_path)
    return attempted, failed, _metrics(tracer, counts, totals, adjacency_masks)


def _count(job: Job, out: str, workdir: Path, counts: dict) -> None:
    """Work counts read from the job's output, outside any span."""
    payload = json.loads(out.strip().splitlines()[-1]) if job.expect else {}
    if job.phase == BUILD:
        data = (workdir / job.output).read_bytes()
        counts["graphs"] += len(json.loads(data)["graphs"])
        counts["bytes"] += len(data)
    elif job.phase == VERIFY:
        pairs = payload["pairs_checked"]
        counts["pairs"] += pairs
        if payload["mode"] == "linear":
            counts["members"] += pairs
            counts["distinct"] += pairs  # span members are distinct
        else:
            doc = json.loads((workdir / job.argv[3]).read_text())
            masks = [int.from_bytes(bytes.fromhex(h), "little")
                     for h in doc["graphs"]]
            counts["distinct"] += distinct_differences(masks, pairs)
    elif job.phase == SEARCH and job.output:
        counts["nodes"] += payload["explored"]
        counts["bytes"] += (workdir / job.output).stat().st_size


def _decode_us(seen: set, adjacency_masks) -> float:
    """Median over three passes of the mean `adjacency_masks` time, in µs,
    over the distinct graphs the predicates were given."""
    items = sorted(seen)
    if not items:
        return 0.0
    passes = []
    for _ in range(3):
        t0 = clock()
        for n, bits in items:
            adjacency_masks(n, bits)
        passes.append(clock() - t0)
    return statistics.median(passes) / len(items) * 1e6


def _metrics(tracer: Tracer, counts: dict, totals: dict,
             adjacency_masks) -> dict:
    t = tracer.layer_times()
    busy, self_s, calls, secs = t["busy"], t["self"], t["pred_calls"], \
        t["pred_s"]
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per_call_us(key):
        return secs[key] / calls[key] * 1e6 if calls[key] else 0.0

    put("verify.busy_s", busy["verify"], "s")
    put("verify.self_s", self_s["verify"], "s")
    put("verify.pairs", counts["pairs"], "count")
    put("verify.pred_calls", calls["layer:verify"], "count")
    put("verify.distinct_diffs", counts["distinct"], "count")
    put("verify.useful_ratio", counts["distinct"] / calls["layer:verify"]
        if calls["layer:verify"] else 0.0, "ratio")
    put("predicates.calls", calls["all"], "count")
    put("predicates.busy_s", secs["all"], "s")
    for name in PREDICATES:
        key = name.replace(":", "")
        put(f"predicates.{key}.calls", calls[name], "count")
        put(f"predicates.{key}.us_per_call", per_call_us(name), "us")
    decode = _decode_us(tracer.seen, adjacency_masks)
    put("core.decode_us", decode, "us")
    put("core.decode_share", decode / per_call_us("all")
        if calls["all"] else 0.0, "ratio")
    put("linalg.span_s", busy["linalg"], "s")
    put("linalg.members", counts["members"], "count")
    put("search.busy_s", busy["search"], "s")
    put("search.pred_calls", calls["layer:search"], "count")
    put("search.pred_s", secs["layer:search"], "s")
    put("search.self_s", self_s["search"], "s")
    put("search.nodes", counts["nodes"], "count")
    put("constructions.busy_s", busy["constructions"], "s")
    put("constructions.graphs", counts["graphs"], "count")
    put("factorization.busy_s", busy["factorization"], "s")
    put("family.save_s", t["by_name"]["family.save_family"], "s")
    put("family.load_s", t["by_name"]["family.load_family"], "s")
    put("family.bytes", counts["bytes"], "count")
    put("bounds.busy_s", busy["bounds"], "s")
    put("cli.self_s", self_s["cli"], "s")
    put("trace.untraced_s", totals["untraced"], "s")
    put("trace.traced_s", totals["traced"], "s")
    put("trace.overhead_s", totals["traced"] - totals["untraced"], "s")
    return m
