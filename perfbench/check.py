"""Output checks for benchmark jobs, and brute-force reference predicates
used to re-check search certificates without the package's kernels."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, permutations
from pathlib import Path

from workloads import Job


def job_problems(job: Job, exit_code: int, stdout: str,
                 workdir: Path) -> list[str]:
    """Every way the job's exit code, JSON line, hashed bytes or certificate
    differs from what a correct program gives; empty when the job is right."""
    problems = []
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, want {job.exit_code}")
    if job.expect:
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            payload = None
        if not isinstance(payload, dict):
            return problems + ["no JSON result object on stdout"]
        for key, want in job.expect.items():
            got = payload.get(key)
            if got != want:
                problems.append(f"{key} = {got!r}, want {want!r}")
    if job.sha256 is not None:
        try:
            data = ((workdir / job.output).read_bytes() if job.output
                    else stdout.encode())
        except OSError as exc:
            return problems + [f"cannot read output: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if digest != job.sha256:
            problems.append(f"sha256 {digest}, want {job.sha256}")
    if job.certificate is not None:
        pred, mode = job.certificate
        try:
            doc = json.loads((workdir / job.output).read_text())
            problems += certificate_problems(doc, pred, mode,
                                             job.expect["optimum"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable certificate: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# reference predicates on edge bit vectors (colex slots, small n)


def adjacency(n: int, bits: int) -> list[int]:
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> idx & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return adj


def _connected_within(adj: list[int], keep: int) -> bool:
    if not keep:
        return False
    start = keep & -keep
    reached = frontier = start
    while frontier:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = adj[v] & keep & ~reached
        reached |= new
        frontier |= new
    return reached == keep


def k_connected(n: int, bits: int, k: int) -> bool:
    """More than k vertices and connected after removing any k-1 of them."""
    if n <= k:
        return False
    adj = adjacency(n, bits)
    full = (1 << n) - 1
    for size in range(k):
        for cut in combinations(range(n), size):
            keep = full
            for v in cut:
                keep ^= 1 << v
            if not _connected_within(adj, keep):
                return False
    return True


def hamiltonian_path(n: int, bits: int) -> bool:
    adj = adjacency(n, bits)
    return any(all(adj[p[i]] >> p[i + 1] & 1 for i in range(n - 1))
               for p in permutations(range(n)))


def spanning_star(n: int, bits: int) -> bool:
    adj = adjacency(n, bits)
    full = (1 << n) - 1
    return any(adj[v] == full ^ (1 << v) for v in range(n))


REFERENCE = {
    "connected": lambda n, b: k_connected(n, b, 1),
    "2conn": lambda n, b: k_connected(n, b, 2),
    "3conn": lambda n, b: k_connected(n, b, 3),
    "hampath": hamiltonian_path,
    "star": spanning_star,
}


def certificate_problems(doc: dict, pred: str, mode: str,
                         optimum: int) -> list[str]:
    """A search certificate must hold `optimum` distinct graphs whose pairwise
    differences all satisfy the predicate (good, linear) or none do (dual);
    a linear certificate must also be closed under symmetric difference."""
    n = doc["n"]
    masks = [int.from_bytes(bytes.fromhex(h), "little") for h in doc["graphs"]]
    problems = []
    if len(set(masks)) != len(masks) or len(masks) != optimum:
        problems.append(f"certificate holds {len(set(masks))} distinct graphs,"
                        f" optimum {optimum}")
    if mode == "linear" and {a ^ b for a in masks for b in masks} != set(masks):
        problems.append("linear certificate is not closed under xor")
    test = REFERENCE[pred]
    want = mode != "dual"
    for a, b in combinations(masks, 2):
        if test(n, a ^ b) != want:
            problems.append(f"difference {a ^ b:#x} breaks the {mode} "
                            f"condition for {pred}")
            break
    return problems
