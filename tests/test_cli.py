import hashlib
import json
import time

import pytest

from graphcodes.cli import main
from graphcodes.family import load_family, save_family
from graphcodes import complete_bipartite_graph, empty_graph, complete_graph


def run(*argv):
    return main(list(argv))


def test_build_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "sc6.json"
    assert run("build", "--family", "split-clique", "--n", "6",
               "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "size 32" in text
    assert run("verify", "--pred", "connected", str(out)) == 0
    assert "PASS" in capsys.readouterr().out
    # byte-exact re-serialization
    loaded = load_family(out)
    from graphcodes.family import family_to_json

    assert family_to_json(loaded.n, loaded.graphs, role=loaded.role,
                          provenance=loaded.provenance) == out.read_text()


def test_build_linear_and_linear_verify(tmp_path, capsys):
    out = tmp_path / "hc8.json"
    assert run("build", "--family", "hamcycle", "--n", "8",
               "--out", str(out), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 64
    assert load_family(out).role == "basis"
    assert run("verify", "--pred", "hamcycle", str(out)) == 0
    assert "[linear]" in capsys.readouterr().out


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    save_family(bad, 4, [empty_graph(4), complete_bipartite_graph(4, {1})])
    assert run("verify", "--pred", "k3", str(bad)) == 1
    assert "witness" in capsys.readouterr().out


def test_verify_dual_and_sampled(tmp_path, capsys):
    out = tmp_path / "ds4.json"
    assert run("build", "--family", "dual-star", "--n", "4",
               "--out", str(out)) == 0
    assert run("verify", "--pred", "star", "--dual", str(out)) == 0
    assert run("verify", "--pred", "star", "--dual", "--sample", "50",
               "--seed", "4", str(out)) == 0
    capsys.readouterr()


def test_unsupported_parameter_exit_code(tmp_path, capsys):
    assert run("build", "--family", "hampath", "--p", "9",
               "--out", str(tmp_path / "x.json")) == 2
    assert "not an odd prime" in capsys.readouterr().err


def test_bound_star(capsys):
    assert run("bound", "--pred", "star", "--n", "11") == 0
    text = capsys.readouterr().out
    assert "M <= 12" in text
    assert "tight: yes" in text


def test_bound_json(capsys):
    assert run("bound", "--pred", "k3", "--n", "5", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == 16 and payload["upper"] == 16 and payload["tight"]


def test_bound_and_table_outputs_are_pinned(capsys):
    names = ("connected", "2conn", "3conn", "hampath", "hamcycle", "star",
             "k3", "oddcycle")
    digest = hashlib.sha256()
    for name in names:
        for n in range(2, 17):
            if name == "hamcycle" and n == 2:  # outside the domain, below
                continue
            for extra in ((), ("--json",)):
                assert run("bound", "--pred", name, "--n", str(n), *extra) == 0
                digest.update(capsys.readouterr().out.encode())
    # every row but hamcycle at n=2, which printed "M <= 1" before bound
    # checked the predicate's domain
    assert digest.hexdigest() == \
        "725a4d08f06aceff80462a73173eb4930a57ba95d3b54e2c1c1f2fe11def55d5"
    assert run("table", "--range", "3..14", "--json") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "071926d974ff47a34f121f53bc7e8ee1ae88764300d25fbe4e148976e68f47a9"


def test_bound_past_the_int_to_str_limit(capsys):
    # the odd-2conn lower bound at n = 20001 has about 6,000 decimal digits,
    # more than the interpreter turns into a string; it prints as a log2
    assert run("bound", "--pred", "2conn", "--n", "20001") == 0
    assert capsys.readouterr().out == (
        "predicate 2conn, n=20001\n"
        "M >= ~2^19998.991838 (odd-2conn)\n"
        "M <= 2^19999 (product bound via dual-pendant)\n"
        "tight: no\n")
    assert run("bound", "--pred", "2conn", "--n", "20001", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lower"], payload["upper"], payload["tight"]) == \
        ("~2^19998.991838", "2^19999", False)


@pytest.mark.parametrize("pred", ("connected", "3conn", "hamcycle", "star",
                                  "k3"))
@pytest.mark.parametrize("n", ("-2", "0", "1"))
def test_bound_rejects_n_below_two(capsys, pred, n):
    assert run("bound", "--pred", pred, "--n", n) == 2
    assert "error: need n >= 2" in capsys.readouterr().err


def test_search_cli(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run("search", "--pred", "k3", "--n", "4", "--mode", "good",
               "--out", str(cert), "--expect", "4") == 0
    assert "optimum 4" in capsys.readouterr().out
    assert len(load_family(cert).graphs) == 4
    assert run("verify", "--pred", "k3", str(cert)) == 0
    capsys.readouterr()


def test_search_json_counters(capsys):
    assert run("search", "--pred", "k3", "--n", "4", "--mode", "good",
               "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"optimum": 4, "status": "exact", "explored": 3,
                       "rank": None, "out": None, "candidates": 23,
                       "compat_edges": 60, "size_floor": 4, "size_cap": 4}
    assert run("search", "--pred", "k3", "--n", "4", "--mode", "linear",
               "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["candidates"] is None and payload["compat_edges"] is None


@pytest.mark.parametrize("mode", ("good", "dual", "linear"))
@pytest.mark.parametrize("flag", ("--budget-nodes", "--time-ms"))
def test_search_rejects_negative_budgets(capsys, mode, flag):
    assert run("search", "--pred", "k3", "--n", "4", "--mode", mode,
               flag, "-1") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ("good", "dual", "linear"))
def test_search_checks_the_predicate_domain(capsys, mode):
    # hamcycle n=2 has a rank cap of 0, so the linear search used to stop
    # before any predicate call and print "optimum 1 [exact]" with exit 0
    assert run("search", "--pred", "hamcycle", "--n", "2", "--mode", mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: a Hamiltonian cycle needs at least 3 vertices\n"


@pytest.mark.parametrize("extra", ((), ("--json",)))
def test_bound_checks_the_predicate_domain(capsys, extra):
    # it used to print "M <= 1 (product bound via dual-pendant)" and exit 0
    assert run("bound", "--pred", "hamcycle", "--n", "2", *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: a Hamiltonian cycle needs at least 3 vertices\n"


@pytest.mark.parametrize("mode, phases", (
    ("good", ("classify", "adjacency", "clique")),
    ("linear", ("classify", "basis")),
))
def test_search_stats_line(capsys, mode, phases):
    argv = ("search", "--pred", "k3", "--n", "4", "--mode", mode, "--json")
    assert run(*argv) == 0
    plain = capsys.readouterr()
    assert run(*argv, "--stats") == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out and plain.err == ""
    payload = json.loads(captured.out)
    assert captured.err.count("\n") == 1
    fields = dict(f.split("=") for f in
                  captured.err.removeprefix("stats: ").split())
    counters = {"mode": mode, "status": "exact",
                "explored": str(payload["explored"])}
    if mode == "good":
        counters.update(candidates=str(payload["candidates"]),
                        compat_edges=str(payload["compat_edges"]))
    assert list(fields) == list(counters) + [f"{p}_s" for p in phases]
    assert all(fields[k] == v for k, v in counters.items())
    assert all(float(fields[f"{p}_s"]) >= 0 for p in phases)


def test_search_expect_failure(capsys):
    assert run("search", "--pred", "k3", "--n", "4", "--mode", "good",
               "--expect", "5") == 1
    capsys.readouterr()


def test_table(capsys):
    assert run("table", "--range", "5..7") == 0
    text = capsys.readouterr().out
    lines = [ln for ln in text.splitlines() if ln.strip()]
    k3_row = next(ln for ln in lines if "k3" in ln and ln.strip().startswith("5"))
    assert "16" in k3_row and "tight" in k3_row
    row_3conn = next(ln for ln in lines if "3conn-linear" in ln)
    assert row_3conn.strip().startswith("7") and "tight" in row_3conn
    odd9 = [ln for ln in lines if ln.strip().startswith("9")]
    assert not odd9  # outside requested range


def test_table_odd_2conn_row(capsys):
    assert run("table", "--range", "9..9") == 0
    text = capsys.readouterr().out
    row = next(ln for ln in text.splitlines()
               if "2conn" in ln and "3conn" not in ln)
    assert "93" in row and "128" in row and "tight" not in row


def test_table_range_validation(capsys):
    assert run("table", "--range", "2..5") == 2
    assert run("table", "--range", "nonsense") == 2
    capsys.readouterr()


def test_factorize(tmp_path, capsys):
    out = tmp_path / "f8.json"
    assert run("factorize", "--m", "8", "--out", str(out)) == 0
    assert "perfect" in capsys.readouterr().out
    loaded = load_family(out)
    assert loaded.role == "factorization"
    assert len(loaded.graphs) == 7
    assert run("factorize", "--m", "16", "--json") == 0
    assert json.loads(capsys.readouterr().out)["perfect"] is False
    assert run("factorize", "--m", "7") == 2
    capsys.readouterr()


def test_build_dual_subgraph_with_host_file(tmp_path, capsys):
    host = tmp_path / "host.json"
    save_family(host, 5, [complete_bipartite_graph(5, {1, 2})])
    out = tmp_path / "subs.json"
    assert run("build", "--family", "dual-subgraph", "--n", "5",
               "--host", str(host), "--out", str(out)) == 0
    assert run("verify", "--pred", "k3", "--dual", str(out)) == 0
    capsys.readouterr()


def test_unknown_family(capsys):
    assert run("build", "--family", "nope", "--n", "4") == 2
    capsys.readouterr()


def test_build_missing_parameter(capsys):
    assert run("build", "--family", "split-clique") == 2
    assert "needs --n" in capsys.readouterr().err


def test_sample_requires_dual(tmp_path, capsys):
    out = tmp_path / "f.json"
    save_family(out, 4, [empty_graph(4), complete_graph(4)])
    assert run("verify", "--pred", "star", "--sample", "10", str(out)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sample", ("0", "-1"))
def test_dual_sample_needs_a_positive_count(tmp_path, capsys, sample):
    # --sample 0 is a sample of no pairs, not a request for the exact check
    out = tmp_path / "ds4.json"
    assert run("build", "--family", "dual-star", "--n", "4",
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--pred", "star", "--dual", "--sample", sample,
               str(out)) == 2
    assert "need at least one sampled pair" in capsys.readouterr().err


@pytest.mark.parametrize("sample", ((), ("--sample", "5")))
def test_basis_file_has_no_dual_check(tmp_path, capsys, sample):
    # a sampled dual check of a basis file tested pairs of its generators,
    # not of the span, and reported FAIL with exit 1
    out = tmp_path / "hc8.json"
    assert run("build", "--family", "hamcycle", "--n", "8",
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--pred", "hamcycle", "--dual", *sample,
               str(out)) == 2
    captured = capsys.readouterr()
    assert "linear verification has no dual mode" in captured.err
    assert captured.out == ""


def test_sub_pattern_predicate(tmp_path, capsys):
    pat = tmp_path / "k3.json"
    save_family(pat, 3, [complete_graph(3)])
    fam = tmp_path / "fam.json"
    assert run("build", "--family", "k3-4", "--out", str(fam)) == 0
    assert run("verify", "--pred", f"sub:{pat}", str(fam)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("family, pred", (
    (("hamcycle", "--n", "8"), "hamcycle"),  # the cover
    (("hamcycle", "--n", "8"), "connected"),  # the table
    (("hamming-3conn", "--k", "3"), "3conn"),  # the kernel walk
    (("hamcycle", "--n", "8"), "kconn:4"),  # a failing kernel walk
), ids=("cover", "table", "kernel", "kernel-fail"))
@pytest.mark.parametrize("extra", ((), ("--json",)), ids=("text", "json"))
def test_linear_flag_reads_a_plain_file_as_a_basis(tmp_path, capsys, family,
                                                   pred, extra):
    basis = tmp_path / "basis.json"
    name, *params = family
    assert run("build", "--family", name, *params, "--out", str(basis)) == 0
    loaded = load_family(basis)
    plain = tmp_path / "plain.json"
    save_family(plain, loaded.n, loaded.graphs)
    capsys.readouterr()
    code = run("verify", "--pred", pred, str(basis), *extra)
    expected = capsys.readouterr()
    assert run("verify", "--pred", pred, "--linear", str(plain),
               *extra) == code
    assert capsys.readouterr() == expected
    assert "linear" in expected.out


def _one_error_line(capsys, *argv):
    """Run the CLI, expect exit 2, and return its single stderr line."""
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("doc, message", (
    ([1, 2], "family file must hold a JSON object"),
    ({"version": 1, "n": 3, "edge_order": "lex", "graphs": ["00"]},
     "unsupported edge order 'lex'"),
), ids=("json-list", "edge-order"))
def test_malformed_family_documents(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert message in _one_error_line(capsys, "verify", "--pred",
                                      "connected", str(bad))


def test_kconn_needs_an_integer_k(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    save_family(fam, 4, [empty_graph(4), complete_graph(4)])
    assert "bad k in 'kconn:x'" in _one_error_line(
        capsys, "verify", "--pred", "kconn:x", str(fam))


@pytest.mark.parametrize("prefix", ("sub", "indsub"))
def test_pattern_file_must_hold_one_graph(tmp_path, capsys, prefix):
    pat = tmp_path / "two.json"
    save_family(pat, 3, [empty_graph(3), complete_graph(3)])
    fam = tmp_path / "fam.json"
    save_family(fam, 4, [empty_graph(4), complete_graph(4)])
    err = _one_error_line(capsys, "verify", "--pred", f"{prefix}:{pat}",
                          str(fam))
    assert err == f"error: {pat}: must hold exactly one graph, not 2\n"


def test_host_file_must_hold_one_graph(tmp_path, capsys):
    host = tmp_path / "two.json"
    save_family(host, 5, [empty_graph(5), complete_graph(5)])
    err = _one_error_line(capsys, "build", "--family", "dual-subgraph",
                          "--n", "5", "--host", str(host))
    assert err == f"error: {host}: must hold exactly one graph, not 2\n"


def _family_doc(**changes):
    doc = {"version": 1, "n": 3, "edge_order": "colex-1based",
           "graphs": ["00", "07"]}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("pred, n, message", (
    ("connected", 1, "error: connectivity needs at least 2 vertices\n"),
    ("hamcycle", 1, "error: a Hamiltonian cycle needs at least 3 vertices\n"),
    ("connected", 1000, "exceeds the configured vertex limit 64\n"),
    ("hamcycle", 1000, "exceeds the configured vertex limit 64\n"),
    ("hamcycle", 20, "exceeds the Hamiltonicity cap 16; "
                     "raise it with set_hamiltonian_cap\n"),
), ids=("connected-1", "hamcycle-1", "connected-1000", "hamcycle-1000",
        "hamcycle-20"))
def test_verify_checks_the_domain_of_an_empty_span(tmp_path, capsys, pred, n,
                                                   message):
    # a basis with no nonzero generator tests no member, so the verdict used
    # to be "PASS [linear] checked 0 members" with exit 0 outside the domain
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_family_doc(n=n, graphs=[], role="basis")))
    assert run("verify", "--pred", pred, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(message)
    # inside the domain the same empty span passes
    path.write_text(json.dumps(_family_doc(n=5, graphs=[], role="basis")))
    assert run("verify", "--pred", pred, str(path)) == 0
    assert capsys.readouterr().out == "PASS [linear] checked 0 members\n"


@pytest.mark.parametrize("argv, shown", (
    (("factorize", "--m", "1000000"), "n=1000000"),
    (("build", "--family", "star", "--n", "1000000"), "n=1000000"),
    (("build", "--family", "hampath", "--p", "1000003"), "n=1000003"),
    (("build", "--family", "dual-star", "--n", "1000000"), "n=1000000"),
    (("build", "--family", "hamming-3conn", "--k", "30"), "n=2^30-1"),
), ids=("factorize", "star", "hampath", "dual-star", "hamming-3conn"))
def test_oversized_builds_exit_2_at_once(capsys, argv, shown):
    # the limit is checked before any mask on n vertices is built, which
    # would take minutes or exhaust memory at these sizes
    start = time.perf_counter()
    assert run(*argv) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {shown} exceeds the configured vertex limit 64\n")


@pytest.mark.parametrize("pred, n", (
    ("hamcycle", "1000000000000000004"),
    ("hampath", "1000000000000000003"),
))
def test_oversized_hamiltonian_bounds_exit_2_at_once(capsys, pred, n):
    # the size cap is checked before the primality test of n - 1 or n,
    # whose trial division would run for hours at these sizes
    start = time.perf_counter()
    assert run("bound", "--pred", pred, "--n", n) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound of 2^1000000000000000002 "
                            "exceeds the size cap 2^268435456\n")


def test_huge_kconn_verify_fails_at_once(tmp_path, capsys):
    # the table's cost estimate sums C(n, s) only up to s = n, not for every
    # s < k, which at this k would run for hours
    out = tmp_path / "h3.json"
    assert run("build", "--family", "hamming-3conn", "--k", "3",
               "--out", str(out)) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert run("verify", "--pred", "kconn:1000000000000", str(out)) == 1
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.startswith(
        "FAIL [linear] checked 1 members\n")


def test_linear_search_for_an_edge_pattern(tmp_path, capsys):
    # K_2 is a clique pattern, whose Turan rank cap ex(n, K_2) = 0 gives
    # the whole edge space
    pattern = tmp_path / "k2.json"
    save_family(pattern, 2, [complete_graph(2)])
    assert run("search", "--pred", f"sub:{pattern}", "--n", "4",
               "--mode", "linear") == 0
    assert capsys.readouterr().out.startswith("optimum 64 [exact]")


def test_verify_json_reports_method_and_calls(tmp_path, capsys):
    out = tmp_path / "sc5.json"
    assert run("build", "--family", "split-clique", "--n", "5",
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--pred", "connected", "--json", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"passed": True, "mode": "pairwise",
                       "pairs_checked": 120, "method": "table",
                       "predicate_calls": 1}


@pytest.mark.parametrize("family, params, pred, exit_code, counters", (
    ("split-clique", ("--n", "5"), "connected", 0,
     {"mode": "pairwise", "method": "table", "predicate_calls": "1",
      "checked": "120"}),
    ("hamcycle", ("--n", "8"), "hamcycle", 0,
     {"mode": "linear", "method": "cover", "predicate_calls": "21",
      "checked": "63"}),
    ("k3-5", (), "hampath", 1,
     {"mode": "linear", "method": "cover", "predicate_calls": "1",
      "checked": "1"}),
), ids=("pairwise", "cover", "cover-fails"))
@pytest.mark.parametrize("json_flag", ((), ("--json",)), ids=("text", "json"))
def test_verify_stats_line(tmp_path, capsys, family, params, pred, exit_code,
                           counters, json_flag):
    out = tmp_path / "fam.json"
    assert run("build", "--family", family, *params, "--out", str(out)) == 0
    capsys.readouterr()
    argv = ("verify", "--pred", pred, str(out), *json_flag)
    assert run(*argv) == exit_code
    plain = capsys.readouterr()
    assert run(*argv, "--stats") == exit_code
    captured = capsys.readouterr()
    assert captured.out == plain.out and plain.err == ""
    assert captured.err.startswith("stats: ") and captured.err.count("\n") == 1
    fields = dict(f.split("=") for f in
                  captured.err.removeprefix("stats: ").split())
    assert list(fields) == list(counters) + ["verify_s"]
    assert all(fields[k] == v for k, v in counters.items())
    assert float(fields["verify_s"]) >= 0


def test_verify_cover_keeps_the_hamiltonicity_cap(tmp_path, capsys):
    # a hamcycle basis past the cap takes no path, the cover included
    path = tmp_path / "hc17.json"
    save_family(path, 17, [complete_graph(17), complete_bipartite_graph(17, {1})],
                role="basis")
    assert run("verify", "--pred", "hamcycle", "--stats", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: n=17 exceeds the Hamiltonicity cap 16; "
                            "raise it with set_hamiltonian_cap\n")


def test_malformed_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_non_hex_graph(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_family_doc(graphs=["00", "zz"])))
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_missing_n(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_family_doc(n=None)))
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_missing_graphs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_family_doc(graphs=None)))
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graphs_not_a_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_family_doc(graphs="0007")))
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("changes,message", (
    ({"provenance": [1]}, "'provenance' must be a JSON object"),
    ({"provenance": "split-clique"}, "'provenance' must be a JSON object"),
    ({"role": 5}, "'role' must be a string"),
    ({"n": True, "graphs": [""]}, "bad vertex count"),
), ids=("provenance-list", "provenance-str", "role-int", "n-bool"))
def test_malformed_field_types(tmp_path, capsys, changes, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_family_doc(**changes)))
    assert run("verify", "--pred", "connected", str(bad)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ("connected", "2conn", "3conn", "hampath",
                                  "hamcycle", "star", "k3", "oddcycle"))
def test_bound_answers_every_predicate_at_n_20001(capsys, name):
    # k3 and oddcycle have an upper exponent of about 10^8 here
    assert run("bound", "--pred", name, "--n", "20001") == 0
    assert run("bound", "--pred", name, "--n", "20001", "--json") == 0
    capsys.readouterr()


@pytest.mark.parametrize("extra", ((), ("--json",)))
def test_bound_refuses_a_bound_past_the_size_cap(capsys, extra):
    # k3's upper exponent at n = 1000001 is about 2.5 * 10^11 bits
    assert run("bound", "--pred", "k3", "--n", "1000001", *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a bound of 2^")
    assert run("bound", "--pred", "connected", "--n", "1000001", *extra) == 0
    assert "2^1000000" in capsys.readouterr().out


@pytest.mark.parametrize("extra", ((), ("--json",)))
def test_bound_refuses_odd_2conn_past_the_binomial_cap(capsys, extra):
    # the exact binomial C(999999, 499999) took about 12 s
    start = time.perf_counter()
    assert run("bound", "--pred", "2conn", "--n", "1000001", *extra) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the odd-2conn lower bound is "
                                   "computed only for n <= 131072")
    # even n takes no binomial
    assert run("bound", "--pred", "2conn", "--n", "1000000", *extra) == 0
    assert "2^999998" in capsys.readouterr().out


@pytest.mark.parametrize("argv", (
    ("verify", "--pred", "connected", "{d}"),
    ("build", "--family", "split-clique", "--n", "5", "--out", "{d}"),
    ("search", "--pred", "star", "--n", "4", "--mode", "dual", "--out", "{d}"),
    ("factorize", "--m", "6", "--out", "{d}"),
), ids=("verify", "build", "search", "factorize"))
def test_a_directory_path_is_a_usage_error(tmp_path, capsys, argv):
    # IsADirectoryError exits 2 like a missing file, not 1 (verification failed)
    assert run(*(a.format(d=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


# sha256 of `build --out` for every subset family, pinned from the files the
# builders wrote before they became enumerations of their implicit families
SUBSET_FAMILY_FILES = {
    "clique-agreement": (("--n", "5", "--r", "3"),
        "83a5b17d69c3decbbc48362474e87fb967ceaa51bf9771b9b9a97ccf8f7d1f7d"),
    "dual-isolated": (("--n", "5"),
        "ce262234f1a78b68fec295aff0d6d7ed1542f7d9b600c473285bcd61dcf3ccc0"),
    "dual-pendant": (("--n", "5"),
        "a391d9bad0b8a645314433d82c5e3f8ec5bfe8b99cff125b5b281e71d2eb31a9"),
    "dual-star": (("--n", "5"),
        "1a985a6448147563b99a5647bc242b01a1f8727621ad0250a1ce8da4ffc4ea23"),
    "dual-subgraph": (("--n", "5", "--host", "{host}"),
        "38e432449577dee606733e831574cc6da829550bf48292398df0c916037d1467"),
}

# the families built with the core 2-coloring (star) and split-clique
# complements (hamming-3conn)
COLORING_FAMILY_FILES = {
    ("star", "5"):
        "7e655fdf7872276059b88e6ad9edcfba0ac19d204481c9dd5cfc3a390eafa134",
    ("star", "6"):
        "39f9fe6d79bc10e1e0feacebee777f836245e2367c3a8a376f153735a35a8eb6",
    ("star", "9"):
        "2cb8180af87c199dd4281e017825882a3884156d370e9d128b71906979a5eddc",
    ("star", "10"):
        "cc7b2bcd4a00ff8856e3516d02d569fcaf5b1bd21247f152085e8cf81b51b1b7",
    ("hamming-3conn", "3"):
        "9aaaa48e5e0b6f5c46ec394a30a5425a5bcb904aee6fc8c3848b27db782b7d37",
}


@pytest.mark.parametrize("family", sorted(SUBSET_FAMILY_FILES))
def test_subset_family_files_are_pinned(tmp_path, capsys, family):
    host = tmp_path / "host.json"
    save_family(host, 5, [complete_bipartite_graph(5, {1, 2})])
    params, sha = SUBSET_FAMILY_FILES[family]
    out = tmp_path / "fam.json"
    argv = [p.format(host=host) for p in params]
    assert run("build", "--family", family, *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    capsys.readouterr()


@pytest.mark.parametrize("family, value", sorted(COLORING_FAMILY_FILES))
def test_coloring_family_files_are_pinned(tmp_path, capsys, family, value):
    flag = "--k" if family == "hamming-3conn" else "--n"
    out = tmp_path / "fam.json"
    assert run("build", "--family", family, flag, value, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        COLORING_FAMILY_FILES[family, value]
    capsys.readouterr()
