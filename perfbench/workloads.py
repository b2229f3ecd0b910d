"""The benchmark's workloads: fixed lists of `python -m graphcodes` jobs.

Each job carries what a correct run must print and write.  Family-file and
table hashes were recorded from the CLI and pin the bytes the ROADMAP says
must not change; verdicts, witnesses and optima come from the families'
closed-form sizes.  The only seeded input is the perturbed split-clique
family of the failing pairwise case.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BUILD, VERIFY, SEARCH = "build", "verify", "search"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the output a correct program gives for it.

    ``phase`` is the end-to-end metric the job's time counts towards
    (``search`` covers both `search` and `table`).  ``expect`` lists fields of
    the JSON line on stdout; a ``None`` value means the key must be absent.
    ``sha256`` hashes ``output`` (a file the job writes) or, when ``output``
    is None, the job's stdout.  ``certificate`` is ``(predicate, mode)`` for a
    search whose certificate file is re-checked by the reference predicates.
    """

    phase: str
    argv: tuple[str, ...]
    exit_code: int = 0
    expect: dict = field(default_factory=dict)
    output: str | None = None
    sha256: str | None = None
    certificate: tuple[str, str] | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def build(family: str, params: tuple[str, ...], out: str, size: int,
          sha256: str) -> Job:
    return Job(BUILD, ("build", "--family", family, *params, "--out", out,
                       "--json"),
               expect={"size": size}, output=out, sha256=sha256)


def verify(pred: str, path: str, mode: str, pairs: int, *, dual: bool = False,
           witness: dict | None = None) -> Job:
    argv = ("verify", "--pred", pred, path, *(("--dual",) if dual else ()),
            "--json")
    return Job(VERIFY, argv, exit_code=0 if witness is None else 1,
               expect={"passed": witness is None, "mode": mode,
                       "pairs_checked": pairs, "witness": witness})


def search(pred: str, n: int, mode: str, optimum: int,
           rank: int | None = None) -> Job:
    out = f"cert-{mode}-{pred}-{n}.json"
    argv = ("search", "--pred", pred, "--n", str(n), "--mode", mode,
            "--expect", str(optimum), "--out", out, "--json")
    return Job(SEARCH, argv,
               expect={"optimum": optimum, "status": "exact", "rank": rank},
               output=out, certificate=(pred, mode))


def table(lo: int, hi: int, sha256: str) -> Job:
    return Job(SEARCH, ("table", "--range", f"{lo}..{hi}", "--json"),
               sha256=sha256)


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


# ---------------------------------------------------------------------------
# the seeded failing pairwise case

FAIL_N = 11
FAIL_FILE = "perturbed-split-clique.json"


def split_clique_masks(n: int) -> list[int]:
    """Split-clique members in CLI order: side t<<1|1 for t < 2^(n-1), edges
    inside both sides, colex slot order."""
    masks = []
    for t in range(1 << (n - 1)):
        side = t << 1 | 1
        bits = idx = 0
        for j in range(1, n):
            sj = side >> j & 1
            for i in range(j):
                if (side >> i & 1) == sj:
                    bits |= 1 << idx
                idx += 1
        masks.append(bits)
    return masks


def to_hex(n: int, bits: int) -> str:
    return bits.to_bytes((n * (n - 1) // 2 + 7) // 8, "little").hex()


def failing_case(seed: int) -> tuple[int, int]:
    """(k, D): member k of split-clique n=11 becomes member0 ^ D.

    D has edges only inside the two classes of a random bipartition, so it
    is a nonempty disconnected graph.  Every other pairwise difference of
    the family is complete bipartite, hence connected, so the first failing
    pair is (0, k) and `pairs_checked` is k."""
    rng = random.Random(seed)
    k = rng.randrange(1, 1 << (FAIL_N - 1))
    side = rng.randrange(1, (1 << FAIL_N) - 1)
    d = 0
    while not d:
        idx = 0
        for j in range(1, FAIL_N):
            for i in range(j):
                if (side >> i & 1) == (side >> j & 1) and rng.random() < 0.5:
                    d |= 1 << idx
                idx += 1
    return k, d


def write_failing_family(workdir: Path, seed: int) -> None:
    k, d = failing_case(seed)
    masks = split_clique_masks(FAIL_N)
    masks[k] = masks[0] ^ d
    doc = {"version": 1, "n": FAIL_N, "edge_order": "colex-1based",
           "graphs": [to_hex(FAIL_N, m) for m in masks],
           "provenance": {"construction": "perturbed-split-clique",
                          "seed": seed, "k": k}}
    (workdir / FAIL_FILE).write_text(json.dumps(doc, indent=2, sort_keys=True)
                                     + "\n")


# ---------------------------------------------------------------------------
# workloads


def pairwise_certify(seed: int) -> list[Job]:
    k, d = failing_case(seed)
    return [
        build("split-clique", ("--n", "11"), "sc11.json", 1024,
              "1abc4f069fadb04e9dced70256448910d8a63d5e9a61b664f71c468fed8809cc"),
        verify("connected", "sc11.json", "pairwise", _pairs(1024)),
        build("even-split", ("--n", "10"), "es10.json", 256,
              "5c0f7bd4d4b710bb2c2f0860c869d5ab675784e764d291355098facbef94ff7a"),
        verify("2conn", "es10.json", "pairwise", _pairs(256)),
        build("dual-star", ("--n", "6"), "ds6.json", 4096,
              "6ef71f9ca16afbb1962521db52c3bd60d0ae0f81f0349bfb55fa86032e2a8744"),
        verify("star", "ds6.json", "dual", _pairs(4096), dual=True),
        verify("connected", FAIL_FILE, "pairwise", k,
               witness={"pair": [0, k], "difference": to_hex(FAIL_N, d)}),
        # its compatibility graph is a pairwise scan: 264,628 pairs of
        # connected graphs against 1,023 distinct differences
        search("connected", 5, "good", 16),
    ]


def span_certify(seed: int) -> list[Job]:
    return [
        build("hamming-3conn", ("--k", "4"), "h4.json", 1024,
              "928f965789fac7d2ccaf0c6558c0a63f70df177082ed7ccbd91471e7c4c1b743"),
        verify("3conn", "h4.json", "linear", 1023),
        build("hamcycle", ("--n", "14"), "hc14.json", 4096,
              "e362f18b468c1d9366bcc3f9b0953864e3460003ac6ad965a0e368a10a69d1f5"),
        verify("hamcycle", "hc14.json", "linear", 4095),
        verify("2conn", "hc14.json", "linear", 4095),
        build("hampath", ("--p", "13"), "hp13.json", 4096,
              "1af65241b9de3f29dc1823f635c242e4263d49ba146274e0205c8539ea810c2b"),
        verify("hampath", "hp13.json", "linear", 4095),
        verify("connected", "hp13.json", "linear", 4095),
        build("codd-7", (), "c7.json", 512,
              "4ea89d6163830617526739eb943d07af66933b7b0cc87c858ae54d750ab8ef1f"),
        verify("oddcycle", "c7.json", "linear", 511),
        build("k3-6", (), "k36.json", 64,
              "be699830a9fa8ea1eeb53e47d0178053ea65072cb3cb035fd5c52d472dc4f4ab"),
        verify("k3", "k36.json", "linear", 63),
        # the first nonzero span member has a 3-vertex cut
        verify("kconn:4", "h4.json", "linear", 1,
               witness={"pair": [0, 1],
                        "difference": "f89de37070e080031cc001380000"}),
        # basis searches test whole span cosets at once
        search("3conn", 6, "linear", 4, rank=2),
        search("connected", 6, "linear", 32, rank=5),
    ]


def exact_search(seed: int) -> list[Job]:
    # Each construction is built and verified next to the search whose
    # optimum it meets, so every phase has time in this workload too.
    return [
        build("split-clique", ("--n", "5"), "sc5.json", 16,
              "c4ef21d8ddb20ad72ee0cc9c9bc295d8e2ae676359e6a7975a6262382d1f36ef"),
        verify("connected", "sc5.json", "pairwise", _pairs(16)),
        build("hampath", ("--p", "5"), "hp5.json", 16,
              "413f7731b9fd7d96b7d033dabdc29a1c36f0ad5ad30e4caecfa3c60b03b58bfc"),
        verify("hampath", "hp5.json", "linear", 15),
        build("dual-star", ("--n", "4"), "ds4.json", 16,
              "e41e633caec22af6b0c810aca11fd450e9dabcd3791a2fbbc34e853d689ea04e"),
        verify("star", "ds4.json", "dual", _pairs(16), dual=True),
        table(3, 14,
              "071926d974ff47a34f121f53bc7e8ee1ae88764300d25fbe4e148976e68f47a9"),
        search("star", 4, "dual", 16),
        search("3conn", 6, "linear", 4, rank=2),
        search("connected", 6, "linear", 32, rank=5),
        search("connected", 5, "good", 16),
        search("hampath", 5, "good", 16),
    ]


WORKLOADS = {
    "pairwise-certify": pairwise_certify,
    "span-certify": span_certify,
    "exact-search": exact_search,
}


def write_inputs(workload: str, workdir: Path, seed: int) -> None:
    """Write the workload's seeded input files into ``workdir``."""
    if workload == "pairwise-certify":
        write_failing_family(workdir, seed)
