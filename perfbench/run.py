"""Benchmark of the graphcodes CLI.

    python3 perfbench/run.py --workload pairwise-certify --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout.  With `--trace 0` one benchmark process
runs the workload's `python -m graphcodes` jobs as child processes, one at a
time (closed loop, one client), cycling through the list for `--seconds`
seconds after one full pass, and reports the end-to-end metrics.  With
`--trace 1` it replays the jobs once untraced and once traced inside this
process, reports the per-layer metrics and writes the spans to
`.perfbench-work/`.  Every job's output is checked.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import job_problems
from workloads import BUILD, SEARCH, VERIFY, WORKLOADS, Job, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
# the trivial process every job pays for: interpreter start and import
TRIVIAL = Job("setup", ("bound", "--pred", "connected", "--n", "3", "--json"),
              expect={"lower": 4, "upper": 4, "tight": True})

clock = time.perf_counter
# children still running 170 s after start are killed, so that a hung job
# cannot hold the run past its 180-second limit
DEADLINE = clock() + 170


def run_child(job: Job, workdir: Path) -> tuple[int, str, float]:
    """Run one CLI job in its own process group, so a timed-out job's worker
    processes are killed along with it; (exit code, stdout, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = clock()
    proc = subprocess.Popen([sys.executable, "-m", "graphcodes", *job.argv],
                            cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE - clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return -signal.SIGKILL, out, clock() - t0
    return proc.returncode, out, clock() - t0


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, job: Job, code: int, out: str, workdir: Path) -> None:
        self.attempted += 1
        problems = job_problems(job, code, out, workdir)
        if problems:
            self.failed += 1
            print(f"FAILED {job.label}: " + "; ".join(problems),
                  file=sys.stderr)


def setup(workload: str, seed: int, workdir: Path, tally: Tally) -> float:
    """Median over repeats of writing the seeded inputs plus one trivial
    CLI process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        write_inputs(workload, workdir, seed)
        code, out, _ = run_child(TRIVIAL, workdir)
        times.append(clock() - t0)
        tally.record(TRIVIAL, code, out, workdir)
    return statistics.median(times)


def end_to_end(jobs: list[Job], workdir: Path, seconds: float,
               tally: Tally) -> dict:
    """One full pass, then keep cycling while the next job's last time still
    fits in `seconds`.  Each phase time sums the per-job median times."""
    times: list[list[float]] = [[] for _ in jobs]
    start = clock()
    step = 0
    while True:
        idx = step % len(jobs)
        if step >= len(jobs) and clock() - start + times[idx][-1] > seconds:
            break
        code, out, dt = run_child(jobs[idx], workdir)
        times[idx].append(dt)
        tally.record(jobs[idx], code, out, workdir)
        step += 1
    print(f"{step} jobs in {clock() - start:.1f} s", file=sys.stderr)
    for job, t in zip(jobs, times):
        print(f"  {statistics.median(t):8.3f} s median of {len(t)} "
              f"({min(t):.3f}-{max(t):.3f})  {job.label}", file=sys.stderr)

    def phase_s(*phases: str) -> float:
        return sum(statistics.median(t) for job, t in zip(jobs, times)
                   if job.phase in phases)

    verify_s = phase_s(VERIFY)
    checked = sum(job.expect["pairs_checked"] for job in jobs
                  if job.phase == VERIFY)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": {"value": phase_s(BUILD, VERIFY, SEARCH), "unit": "s"},
        "build_s": {"value": phase_s(BUILD), "unit": "s"},
        "verify_s": {"value": verify_s, "unit": "s"},
        "search_s": {"value": phase_s(SEARCH), "unit": "s"},
        "checked_per_s": {"value": checked / verify_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss * 1024 / 1e6, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphcodes" / "__init__.py").is_file():
        print(f"error: no graphcodes package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        setup_s = setup(args.workload, args.seed, workdir, tally)
        if args.trace:
            from tracing import replay

            spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            attempted, failed, metrics = replay(jobs, workdir, SRC, spans)
            print(f"spans written to {spans}", file=sys.stderr)
            tally.attempted += attempted
            tally.failed += failed
        else:
            metrics = end_to_end(jobs, workdir, args.seconds, tally)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
