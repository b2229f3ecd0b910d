"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import run
from check import certificate_problems, job_problems, k_connected
from workloads import (FAIL_FILE, FAIL_N, build, exact_search,
                       failing_case, pairwise_certify, split_clique_masks,
                       verify, write_failing_family)

# the cheap jobs of exact-search: three builds, their verifies and the table
CHEAP = [job for job in exact_search(0) if job.certificate is None]


def _tally(outcomes, workdir: Path) -> tuple[int, int]:
    tally = run.Tally()
    for job, code, out in outcomes:
        tally.record(job, code, out, workdir)
    return tally.attempted, tally.failed


@pytest.fixture(scope="module")
def real_outcomes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    return workdir, [(job, *run.run_child(job, workdir)[:2]) for job in CHEAP]


def test_correct_run_has_no_failures(real_outcomes):
    workdir, outcomes = real_outcomes
    assert _tally(outcomes, workdir) == (len(CHEAP), 0)


def test_wrong_verdict_is_counted(real_outcomes):
    workdir, outcomes = real_outcomes
    job, code, out = next(o for o in outcomes if o[0].argv[0] == "verify")
    payload = json.loads(out)
    payload["passed"] = False
    bad = [(job, 1, json.dumps(payload))]
    assert _tally(outcomes + bad, workdir) == (len(CHEAP) + 1, 1)


def test_shifted_witness_is_counted(tmp_path):
    k, d = failing_case(7)
    job = pairwise_certify(7)[6]
    assert job.expect["witness"]["pair"] == [0, k]
    right = {"passed": False, "mode": "pairwise", "pairs_checked": k,
             "witness": job.expect["witness"]}
    shifted = dict(right, pairs_checked=k + 1,
                   witness=dict(right["witness"], pair=[0, k + 1]))
    outcomes = [(job, 1, json.dumps(right)), (job, 1, json.dumps(shifted))]
    assert _tally(outcomes, tmp_path) == (2, 1)


def test_changed_file_hash_is_counted(real_outcomes):
    workdir, outcomes = real_outcomes
    job, code, out = outcomes[0]
    assert job.argv[0] == "build" and job_problems(job, code, out, workdir) == []
    path = workdir / job.output
    saved = path.read_bytes()
    try:
        path.write_bytes(saved.replace(b'"n": 5', b'"n":  5'))
        assert _tally([(job, code, out)], workdir) == (1, 1)
    finally:
        path.write_bytes(saved)


def test_exit_code_and_missing_output_are_counted(tmp_path):
    data = b"family bytes\n"
    job = build("x", (), "f.json", 3, hashlib.sha256(data).hexdigest())
    out = json.dumps({"size": 3})
    assert _tally([(job, 0, out)], tmp_path) == (1, 1)  # file missing
    (tmp_path / "f.json").write_bytes(data)
    assert _tally([(job, 0, out), (job, 2, out), (job, 0, "")],
                  tmp_path) == (3, 2)


def test_passing_verify_must_not_report_a_witness(tmp_path):
    job = verify("connected", "f.json", "pairwise", 10)
    ok = {"passed": True, "mode": "pairwise", "pairs_checked": 10}
    extra = dict(ok, witness={"pair": [0, 1], "difference": "00"})
    assert job_problems(job, 0, json.dumps(ok), tmp_path) == []
    assert job_problems(job, 0, json.dumps(extra), tmp_path) != []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_failing_case_first_fails_at_pair_0_k(tmp_path, seed):
    k, d = failing_case(seed)
    write_failing_family(tmp_path, seed)
    doc = json.loads((tmp_path / FAIL_FILE).read_text())
    masks = [int.from_bytes(bytes.fromhex(h), "little") for h in doc["graphs"]]
    assert len(set(masks)) == len(masks) == 1 << (FAIL_N - 1)
    assert masks[k] == masks[0] ^ d
    assert masks[:k] == split_clique_masks(FAIL_N)[:k]
    connected = [k_connected(FAIL_N, masks[0] ^ masks[j], 1)
                 for j in range(1, k + 1)]
    assert connected == [True] * (k - 1) + [False]


def test_certificate_checks():
    # all graphs on 4 vertices containing the edge cover {12, 34}
    cover = 1 << 0 | 1 << 5
    free = [s for s in range(6) if not cover >> s & 1]
    masks = []
    for t in range(16):
        bits = cover
        for b, s in enumerate(free):
            if t >> b & 1:
                bits |= 1 << s
        masks.append(bits)
    doc = {"n": 4, "graphs": [m.to_bytes(1, "little").hex() for m in masks]}
    assert certificate_problems(doc, "star", "dual", 16) == []
    assert certificate_problems(doc, "star", "dual", 17) != []
    assert certificate_problems(doc, "star", "good", 16) != []
    doc["graphs"][1] = "00"  # empty graph: its difference with K4 is K4
    assert certificate_problems(doc, "star", "dual", 16) != []

