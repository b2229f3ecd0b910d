"""Golden stdout of every command, as text and under `--json`.

Each case runs in a fresh directory holding the input files below, with
relative paths, so that the `wrote ...` lines and `out` fields are the same
on every machine.
"""

import hashlib
import json

import pytest

from graphcodes.cli import main
from graphcodes.constructions import (dual_star_family, ham_cycle_family,
                                      split_clique_family)
from graphcodes.core import complete_bipartite_graph, empty_graph
from graphcodes.family import save_family


def _inputs():
    save_family("plain.json", 5, split_clique_family(5).graphs)
    save_family("bad.json", 4,
                [empty_graph(4), complete_bipartite_graph(4, {1})])
    save_family("star.json", 4, dual_star_family(4).graphs)
    save_family("basis.json", 6, ham_cycle_family(6).basis, role="basis")


# id: (argv, exit code, sha256 of the text stdout, of the `--json` stdout)
GOLDEN = {
    "build-plain": (
        ["build", "--family", "split-clique", "--n", "5", "--out", "o.json"],
        0,
        "4f45211281cfdffff989a331aad52030a20e3a6153695a32ad535d4b8bdaa5c0",
        "9dec9c2e0bfeedeff1208d4414dad0eb715f19a9ce7d5cffe4438483a7e9f1e1"),
    "build-basis": (
        ["build", "--family", "hamcycle", "--n", "6", "--out", "o.json"],
        0,
        "d40a70fd0af77bb8b9466cce49186bfd7f9e68a3542946c7337d5fd3042c23a2",
        "692572021076dfc1835dc9c439ab1354cac2fd7a3ba05ac58efae654fb3ad5e3"),
    "verify-pass": (
        ["verify", "--pred", "connected", "plain.json"],
        0,
        "652b00e7f9d64c39d9ea84a0695b65d34bc385d063fa68d2305637a1198406ef",
        "d8370356fd5426b68f45fb01804e75ced5beea49651cc672dfd34aaf5cb1539b"),
    "verify-fail": (
        ["verify", "--pred", "k3", "bad.json"],
        1,
        "bf9be1c012451345edda728112ab3a0ede989027039087d7a8d656046d82d430",
        "8c89be233d2454c75e0ac11a947f4178e573e8f1e9a81fc9ad5a28b856af0dc0"),
    "verify-dual": (
        ["verify", "--pred", "star", "--dual", "star.json"],
        0,
        "0f163d9cfa45f4b0a59d017c5fdace65173fe7bd10f5bbd0c4bce3fe241793ec",
        "27ab2c311a51db79f3fe4cbaa0de31b422a4b4d1ced53cdc4583c41a941200c7"),
    "verify-basis": (
        ["verify", "--pred", "hamcycle", "basis.json"],
        0,
        "fe488d8aa20d684af24d3d8fd10e6a071c60e83574ea1de6eb2f57f1cf137074",
        "db9fe2beddb66f05f99b7271fa84bd0cde7cb0e0bbd1ee72cac0cfb81bc09fd7"),
    "search-good": (
        ["search", "--pred", "k3", "--n", "4", "--mode", "good",
         "--out", "o.json"],
        0,
        "37b9dcd270ef117462d3b02ae2641b2245aea41cb00be825b2e2acbd51ee8b14",
        "b2ae6182f48c9b1863634d2a1fb5ecaf689d9c35b0c22ea196bfc2d2f080df2a"),
    "search-dual": (
        ["search", "--pred", "star", "--n", "4", "--mode", "dual"],
        0,
        "8dd392a58de4a0536b2ba62a57fd3535d3dc2344d27f4bab16b432fb8e0029de",
        "6b7e54aeea5e61d70f62df99a8d4080455cb7e94dc559e45a1761edbc3b8e6bc"),
    "search-linear": (
        ["search", "--pred", "k3", "--n", "4", "--mode", "linear"],
        0,
        "ec34b80a1efced568fca2923565d4bc0bd7592acecef3099e4c50d53409ca94d",
        "ad23b4e1dfdf50ce5817c69fcfa82e3087881c6a22a8c3eaf445938d762d250c"),
    "factorize": (
        ["factorize", "--m", "8", "--out", "o.json"],
        0,
        "5e0a2a8f91375ec16ca4dcefab131b7cf927ffb218596cfbfade4f3840a3e2bf",
        "5f97b235a53d44cd06ca607ae7a0b926f82727a9444406a6b9b7b6fdbc5c3415"),
    "table": (
        ["table", "--range", "3..14"],
        0,
        "12a75eb72fa8060bdde050b813eac3efa99b79644afead5082f98874e1c60d10",
        None),
}


def _run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_is_pinned(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    _inputs()
    argv, exit_code, text_sha, json_sha = GOLDEN[case]
    for extra, sha in (((), text_sha), (("--json",), json_sha)):
        if sha is None:  # pinned in tests/test_cli.py
            continue
        code, out = _run([*argv, *extra], capsys)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == sha, (extra, out)


JSON_COMMANDS = {
    **{case: argv for case, (argv, _, _, _) in GOLDEN.items()},
    "bound": ["bound", "--pred", "star", "--n", "7"],
    "bound-huge": ["bound", "--pred", "2conn", "--n", "20001"],
}


@pytest.mark.parametrize("case", sorted(JSON_COMMANDS))
def test_json_output_is_one_json_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    _inputs()
    _, out = _run([*JSON_COMMANDS[case], "--json"], capsys)
    lines = out.splitlines()
    assert len(lines) == 1 and out.endswith("\n")
    json.loads(lines[0])
