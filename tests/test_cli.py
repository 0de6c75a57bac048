"""End-to-end CLI behavior through run(argv): outputs and exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from oracles import naive_directed_saw_counts
import sawkit.certificate as certificate
import sawkit.counting as counting
import sawkit.events as events
from sawkit.certificate import RatioCertificate
from sawkit.cli import run
from sawkit.graphs import catalog, load_spec_file
from sawkit.quotient import build_quotient, sublattice_action

Z1MOD3 = ["--graph", "zd:1", "--sublattice", "3"]


def lines_of(capsys):
    out = capsys.readouterr()
    return out.out.splitlines(), out.err


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    out, _ = lines_of(capsys)
    assert out[0] == "name,degree,simple,kind"
    assert "zd(2),4,yes,lattice d=2 cells=1" in out
    assert any(row.startswith("tree-with-end(3),3,yes,tree") for row in out)


def test_count_ladder(capsys):
    assert run(["count", "--graph", "ladder", "--n", "3"]) == 0
    out, err = lines_of(capsys)
    assert out[0] == "n,sigma_n,a_n"
    assert out[1] == "1,3,3"
    assert out[2].startswith("2,6,")
    assert err == ""


def test_count_quotient_directed(capsys):
    assert run(["count", *Z1MOD3, "--n", "4"]) == 0
    out, _ = lines_of(capsys)
    assert [r.split(",")[1] for r in out[1:]] == ["2", "2", "0", "0"]


def test_count_walks_json(capsys):
    assert run(["count", "--graph", "zd:2", "--n", "3", "--walks",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "walks" and doc["directed"] is False
    assert [r["sigma"] for r in doc["rows"]] == ["4", "16", "64"]


def test_count_truncation_note(capsys):
    assert run(["count", "--graph", "zd:2", "--n", "10",
                "--max-nodes", "300"]) == 0
    out, err = lines_of(capsys)
    assert "truncated" in err
    assert 2 <= len(out) - 1 < 10


def test_count_refuses_a_negative_budget(capsys):
    assert run(["count", "--graph", "zd:2", "--n", "3",
                "--max-nodes", "-3"]) == 4
    got = capsys.readouterr()
    assert got.out == "" and "max_nodes" in got.err


def test_count_names_a_bad_saw_workers(capsys, monkeypatch):
    monkeypatch.setenv("SAW_WORKERS", "abc")
    assert run(["count", "--graph", "zd:2", "--n", "3"]) == 4
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == ("error: SAW_WORKERS must be a positive integer, "
                       "not 'abc'\n")


@pytest.mark.parametrize("argv,flag", [
    (["--graph", "zd:2", "--sublattice", "2 0;0 2", "--start", "0:1,0"],
     "--start"),
    ([*Z1MOD3, "--max-nodes", "1"], "--max-nodes"),
    (["--graph", "tree-with-end(3)", "--action", "child-swap",
      "--max-nodes", "1"], "--max-nodes"),
    (["--graph", "zd:2", "--walks", "--max-nodes", "1"], "--max-nodes"),
], ids=["start-on-quotient", "budget-on-quotient", "budget-on-action",
        "budget-on-walks"])
def test_count_refuses_a_flag_it_would_ignore(argv, flag, capsys):
    assert run(["count", *argv, "--n", "3"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"usage error: {flag} ")


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "zd:2", "--walks", "--n", "3"],
    ["bounds", "--graph", "ladder"],
    ["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1"]], ids=["count-walks", "bounds-degree", "augment-spec"])
def test_workers_is_refused_where_nothing_is_counted(argv, capsys):
    assert run([*argv, "--workers", "2"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("usage error: --workers ")


@pytest.mark.parametrize("argv", [
    ["quotient", *Z1MOD3],
    ["quotient", *Z1MOD3, "--report", "summary"],
    ["quotient", *Z1MOD3, "--report", "symmetry"],
    ["quotient", *Z1MOD3, "--report", "independence"],
    ["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1"]],
    ids=["quotient-default", "quotient-summary", "quotient-symmetry",
         "quotient-independence", "augment-spec"])
def test_format_json_is_refused_where_only_text_is_printed(argv, capsys):
    assert run([*argv, "--format", "json"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("usage error: --format json ")
    assert got.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--graph", "zd:2", "--walks", "--n", "-1"],
    ["--graph", "zd:2", "--sublattice", "2 0;0 2", "--walks", "--n", "-2"]],
    ids=["graph", "quotient"])
def test_negative_walk_counts_are_refused(argv, capsys):
    assert run(["count", *argv]) == 4
    assert capsys.readouterr() == ("", "error: n_max must be >= 0\n")


def test_out_error_names_the_file_asked_for(tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "x")
    errs = []
    for _ in range(2):
        assert run(["count", "--graph", "zd:2", "--n", "3", "--out", out]) == 4
        got = capsys.readouterr()
        assert got.out == ""
        errs.append(got.err)
    assert errs[0] == errs[1] == \
        f"error: [Errno 2] No such file or directory: {out!r}\n"
    # a failed rename names the target too and leaves no temp file behind
    target = tmp_path / "a-dir"
    target.mkdir()
    assert run(["count", "--graph", "zd:2", "--n", "3",
                "--out", str(target)]) == 4
    assert str(target) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir"]


def test_count_start_key(capsys):
    assert run(["count", "--graph", "zd:2", "--n", "2",
                "--start", "0:5,-1"]) == 0
    out, _ = lines_of(capsys)
    assert out[1] == "1,4,4"


def test_quotient_reports(capsys):
    assert run(["quotient", *Z1MOD3, "--report", "type"]) == 0
    out, _ = lines_of(capsys)
    assert out == ["type 3 (shortest directed cycle length 3)"]

    assert run(["type", *Z1MOD3, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "3" and doc["cycle_length"] == "3"
    assert len(doc["witness"]) == 4

    assert run(["quotient", *Z1MOD3]) == 0
    out, _ = lines_of(capsys)
    assert out[1] == "orbits 3"

    assert run(["quotient", *Z1MOD3, "--report", "symmetry"]) == 0
    out, _ = lines_of(capsys)
    assert out == ["symmetric within radius 4: True"]

    assert run(["quotient", "--graph", "tree-with-end(3)", "--action",
                "child-swap", "--report", "symmetry", "--radius", "3"]) == 0
    out, _ = lines_of(capsys)
    assert out == ["symmetric within radius 3: False"]

    assert run(["quotient", "--graph", "zd:2", "--sublattice", "2 0; 0 2",
                "--report", "independence", "--radius", "6"]) == 0
    out, _ = lines_of(capsys)
    assert out == ["representative-independent within radius 6: True"]


def test_events_series(capsys):
    assert run(["events", *Z1MOD3, "--n", "4"]) == 0
    out, _ = lines_of(capsys)
    assert out[0] == "n,count"
    assert [r.split(",")[1] for r in out[1:]] == ["1", "2", "0", "0", "0"]

    assert run(["events", *Z1MOD3, "--n", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == "3" and doc["r"] == "0" and doc["m"] is None
    assert "lambda_upper" in doc

    assert run(["events", *Z1MOD3, "--n", "3", "--k", "2", "--m", "0",
                "--r", "1"]) == 0
    out, _ = lines_of(capsys)
    assert [r.split(",")[1] for r in out[1:]] == ["1", "2", "2", "0"]

    # a negative length is refused with or without a window
    for extra in ([], ["--m", "1"], ["--r", "1"]):
        assert run(["events", *Z1MOD3, "--n", "-1", *extra]) == 4
        assert "n_max must be >= 0" in capsys.readouterr().err


def test_events_json_enumerates_once(capsys, monkeypatch):
    # lambda_upper comes from the series already computed, not a rerun
    calls = []
    original = events.event_free_series

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(events, "event_free_series", counted)
    assert run(["events", "--graph", "square-octagon", "--sublattice",
                "1 -1", "--n", "8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert calls == [4]
    assert json.loads(out)["lambda_upper"] == "1.7347093988430926"
    # the bytes printed when lambda_upper re-enumerated the series
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0555fffc848f01bd0365fd71df82c74b26d7d838a93e0714d5b11039a41eabac"


def test_events_windowed_enumerates_once(capsys, monkeypatch):
    # one split pass gives the count at every depth, not one per depth
    calls = []
    original = counting._Split.counts

    def counted(split, source, key, n_max, *args, **kwargs):
        calls.append(n_max)
        return original(split, source, key, n_max, *args, **kwargs)

    monkeypatch.setattr(counting._Split, "counts", counted)
    assert run(["events", "--graph", "square-octagon", "--sublattice",
                "1 -1", "--n", "12", "--m", "2", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert calls == [12]
    # the bytes printed when every depth was enumerated on its own
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "37ece6e23c6653f17557c137d98e88c82bc3c02733142a33adc7c997c26c914b"


def test_events_grid(capsys):
    assert run(["events", *Z1MOD3, "--n", "3", "--grid",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["k"] for e in doc["grid"]} == {1, 2, 3}
    assert {(e["k"], e["n"]) for e in doc["lambda"]} == {
        (k, n) for k in (1, 2, 3) for n in (1, 2, 3)}


@pytest.mark.parametrize("flag,value", [("--k", "2"), ("--m", "1"),
                                        ("--r", "1"), ("--r", "0")])
def test_events_grid_refuses_a_flag_it_would_ignore(flag, value, capsys):
    assert run(["events", *Z1MOD3, "--n", "3", "--grid", flag, value]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith(f"usage error: {flag} ")


def test_events_explicit_r_zero_is_the_default(capsys):
    assert run(["events", *Z1MOD3, "--n", "4", "--format", "json"]) == 0
    default = capsys.readouterr().out
    assert run(["events", *Z1MOD3, "--n", "4", "--format", "json",
                "--r", "0"]) == 0
    assert capsys.readouterr().out == default


def test_bounds_bridges(capsys):
    assert run(["bounds", "--graph", "zd:2", "--n", "6"]) == 0
    out, _ = lines_of(capsys)
    assert out[0] == "n,beta_n,b_n,provenance"
    assert out[2] == "2,3,1.7320508075688772,bridge"
    assert all(r.endswith("bridge") for r in out[1:])


# the bytes `saw bounds --dimension d` printed before the lower bound of
# `saw bounds` came from the graph
@pytest.mark.parametrize("d,n,fmt,digest", [
    (1, 8, "csv",
     "d311d9ab169081bcfa0880a77ed94df50fe4bd5955ff3e0696a4c9d29e5e3683"),
    (1, 8, "json",
     "456921936b30e11e7adfb6384664afd6b62084009b8cc19c463b8861e3edca78"),
    (2, 6, "csv",
     "75fdd1a154b1afbf10550b2c24186f04e378545ee589b6f767cee79680ce4c8e"),
    (2, 6, "json",
     "9ae92d357df2bd7cba7934091fcd69f01d1eb4bd838237a1e4a46897d9382295"),
    (3, 5, "csv",
     "2e298b6131750f77082312da21f89140f7521be1f2e070bb577cf1e987d05893"),
    (3, 5, "json",
     "2858435768728ecdbc7519afb1cd19184deb0fc6990c666de35bbbe8b7ab2baa")])
def test_bounds_on_zd_prints_the_bridge_table(d, n, fmt, digest, capsys):
    assert run(["bounds", "--graph", f"zd:{d}", "--n", str(n),
                "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_degree(capsys):
    assert run(["bounds", "--graph", "ladder"]) == 0
    out, _ = lines_of(capsys)
    assert out[1] == "ladder,3,1.4142135623730951,degree"


def test_ratio_verify_chain(tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert run(["ratio", *Z1MOD3, "--mu-exact", "1", "--budget", "10",
                "--deterministic", "--out", cert]) == 0
    payload = json.loads(open(cert).read())
    assert payload["status"] == "certified"
    assert "created" not in payload
    assert float(payload["parameters"]["ln_ratio_bound"]) < 0
    capsys.readouterr()

    assert run(["verify", cert]) == 0
    out, _ = lines_of(capsys)
    assert out[0] == "verified: certified"

    # tampering with a stored count must flip verify to a contradiction
    payload["counts"]["event_free"][2] = "999"
    with open(cert, "w") as fh:
        json.dump(payload, fh)
    assert run(["verify", cert]) == 4
    out, _ = lines_of(capsys)
    assert out[0].startswith("CONTRADICTION")


@pytest.mark.parametrize("field", ["cycle_length", "degree"])
def test_verify_huge_field_exits_4_without_traceback(tmp_path, capsys, field):
    # the saw command itself, not run(): an uncaught error would exit 1
    cert = str(tmp_path / "cert.json")
    assert run(["ratio", *Z1MOD3, "--mu-exact", "1", "--budget", "10",
                "--deterministic", "--out", cert]) == 0
    capsys.readouterr()
    payload = json.loads(open(cert).read())
    payload[field] = 10 ** 400
    with open(cert, "w") as fh:
        json.dump(payload, fh)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "sawkit", "verify", cert],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("CONTRADICTION")
    assert f"{field} = 1000" in proc.stdout


def test_ratio_inconclusive_exit_code(tmp_path, capsys):
    cert = str(tmp_path / "weak.json")
    assert run(["ratio", *Z1MOD3, "--mu-exact", "9/10", "--budget", "5",
                "--deterministic", "--out", cert]) == 3
    _, err = lines_of(capsys)
    assert "inconclusive" in err
    payload = json.loads(open(cert).read())
    assert payload["status"] == "inconclusive-budget"
    # verifying an inconclusive-but-consistent certificate exits 3
    assert run(["verify", cert]) == 3
    out, _ = lines_of(capsys)
    assert out[0] == "verified: inconclusive-budget"


def test_ratio_timestamp_only_without_deterministic(tmp_path):
    cert = str(tmp_path / "c.json")
    assert run(["ratio", *Z1MOD3, "--mu-exact", "1", "--budget", "10",
                "--out", cert]) == 0
    payload = json.loads(open(cert).read())
    keys = list(payload.keys())
    assert keys[:3] == ["format", "version", "created"]
    assert payload["created"].endswith("Z")


def test_ratio_byte_determinism(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["ratio", *Z1MOD3, "--mu-exact", "1", "--budget", "10",
            "--deterministic"]
    assert run([*args, "--out", a]) == 0
    monkeypatch.setenv("SAW_WORKERS", "8")
    assert run([*args, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_ratio_deepens_the_directed_counts_past_the_budget(tmp_path,
                                                          capsys):
    # zd:1/5 certifies at block length 4, so the rewiring stage needs
    # directed counts to 2m = 8, one past the search's budget of 7
    args = ["ratio", "--graph", "zd:1", "--sublattice", "5", "--budget",
            "7", "--deterministic"]
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    assert run([*args, "--workers", "1", "--out", one]) == 0
    assert run([*args, "--workers", "2", "--out", two]) == 0
    assert open(one, "rb").read() == open(two, "rb").read()
    payload = json.loads(open(one).read())
    assert payload["status"] == "certified"
    assert payload["parameters"]["block_length"] == 4
    q = build_quotient(catalog("zd:1"), sublattice_action([[5]]))
    assert [int(c) for c in payload["counts"]["directed"]] == \
        naive_directed_saw_counts(q, 8)
    capsys.readouterr()
    assert run(["verify", one]) == 0
    out, _ = lines_of(capsys)
    assert out[0] == "verified: certified"


def test_out_files_are_atomic(tmp_path):
    out = str(tmp_path / "series.csv")
    assert run(["count", "--graph", "ladder", "--n", "4",
                "--out", out]) == 0
    assert os.path.exists(out)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_augment_spec_round_trip(tmp_path, capsys):
    spec = str(tmp_path / "aug.graph")
    assert run(["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1",
                "--out", spec]) == 0
    text = open(spec).read()
    assert text.startswith("# zd(2)+chord[")
    ga = load_spec_file(spec)
    assert ga.degree == 6
    capsys.readouterr()

    # counting on the augmented lattice straight from the flag
    assert run(["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1",
                "--n", "3"]) == 0
    out, _ = lines_of(capsys)
    assert out[1] == "1,6,6"
    assert out[2].split(",")[1] == "30"

    assert run(["augment", "--graph", "zd:2", "--chord", "0:0,0",
                ]) == 2                              # one key, not two
    # the reserved --certify flag is gone: argparse rejects it
    assert run(["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1",
                "--certify"]) == 2
    _, err = lines_of(capsys)
    assert "unrecognized arguments: --certify" in err


def test_usage_errors(capsys):
    assert run([]) == 2                              # subcommand required
    assert run(["no-such-command"]) == 2
    assert run(["quotient", "--graph", "zd:1"]) == 2           # no action
    assert run(["quotient", "--graph", "zd:1", "--sublattice", "3",
                "--action", "child-swap"]) == 2                # both
    assert run(["count", "--graph", "zd:1", "--spec", "x"]) == 2
    assert run(["quotient", "--graph", "zd:1", "--sublattice", "x y"]) == 2
    assert run(["ratio", *Z1MOD3, "--mu-exact", "bogus"]) == 2
    capsys.readouterr()


def test_domain_errors(capsys, tmp_path):
    assert run(["count", "--graph", "nonesuch"]) == 4
    assert run(["bounds", "--graph", "zd:0"]) == 4
    assert run(["verify", str(tmp_path / "missing.json")]) == 4
    assert run(["count", "--graph", "zd:1", "--n", "-3"]) == 4
    capsys.readouterr()


VERIFY = ["verify", "cert.json"]
AUGMENT = ["augment", "--graph", "zd:2", "--chord", "0:0,0 0:1,1"]


# each subcommand accepts only the flags it reads
@pytest.mark.parametrize("argv,flag", [
    (["catalog"], ["--deterministic"]),
    (["count", "--graph", "zd:1"], ["--deterministic"]),
    (["quotient", *Z1MOD3], ["--deterministic"]),
    (["type", *Z1MOD3], ["--deterministic"]),
    (["events", *Z1MOD3], ["--deterministic"]),
    (["bounds", "--graph", "ladder"], ["--deterministic"]),
    (["bounds", "--graph", "ladder"], ["--dimension", "2"]),
    (VERIFY, ["--deterministic"]),
    (AUGMENT, ["--deterministic"]),
    (["catalog"], ["--workers", "1"]),
    (["quotient", *Z1MOD3], ["--workers", "1"]),
    (["type", *Z1MOD3], ["--workers", "1"]),
    (["type", *Z1MOD3], ["--radius", "3"]),
    (VERIFY, ["--workers", "1"]),
    (["ratio", *Z1MOD3, "--mu-exact", "1"], ["--format", "json"]),
    (VERIFY, ["--format", "json"])])
def test_unread_flags_are_refused(argv, flag, capsys):
    assert run([*argv, *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["catalog", "count", "quotient", "type",
                                 "events", "bounds", "ratio", "verify",
                                 "augment"])
def test_help_screens(cmd, capsys):
    assert run([cmd, "--help"]) == 0
    out, _ = lines_of(capsys)
    assert out[0].startswith("usage: saw")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha("")
SUBCOMMANDS = ["catalog", "count", "quotient", "type", "events", "bounds",
               "ratio", "verify", "augment"]

# exit code, sha256 of stdout and sha256 of stderr at COLUMNS=80, recorded
# when every run built the subparsers of all nine subcommands
PINNED = [
    (["--help"], 0, "71396ae034f7962eef93ef8ed8d632d0"
     "ea6e0b77b42010dbea65aba3caa3d01a", EMPTY),
    (["-h"], 0, "71396ae034f7962eef93ef8ed8d632d0"
     "ea6e0b77b42010dbea65aba3caa3d01a", EMPTY),
    (["-h", "count"], 0, "71396ae034f7962eef93ef8ed8d632d0"
     "ea6e0b77b42010dbea65aba3caa3d01a", EMPTY),
    ([], 2, EMPTY, "091319798ea1d7f48f87906e6b9b7763"
     "8744f9277f1afe89165a469b8373b1f1"),
    (["bogus"], 2, EMPTY, "f7e01f484ba778b494e00f89fed9ea74"
     "53feea6abb73b43f32fda948237952b1"),
    (["--bogus"], 2, EMPTY, "091319798ea1d7f48f87906e6b9b7763"
     "8744f9277f1afe89165a469b8373b1f1"),
    (["catalog", "--help"], 0, "e629b348e281de1d1484f5ad98f69096"
     "e154163f32e3ba4f0e54ef2304e24cc0", EMPTY),
    (["count", "--help"], 0, "427acf378f4268e189ee8df4cf5a9669"
     "8eea1f5439b0947fbdc91ab2a30959d4", EMPTY),
    (["quotient", "--help"], 0, "3a52bb9b6316ec4b36c25f174ec48731"
     "2cc6f49644e0aa25f514f909dafa383e", EMPTY),
    (["type", "--help"], 0, "a7092d51bd81ad24df3f616c89007415"
     "ee37aa14a228bb8fb46220ba4c5a6c86", EMPTY),
    # re-recorded when --workers became an ordinary, listed events flag
    (["events", "--help"], 0, "3997f5e0e4b430652d89c8652d8b7c7b"
     "5f9ce09e7ae71ad65d3cdbfda33fe87a", EMPTY),
    (["bounds", "--help"], 0, "55a36322cef9ea3ff9cceb8e561fa902"
     "efc6f413fe6ffbb7053c84e5776a15ae", EMPTY),
    (["ratio", "--help"], 0, "55357b01c385c0a2f88a8cb9f0734e16"
     "3968b50b2135493073f744a099a54e29", EMPTY),
    (["verify", "--help"], 0, "d3c1702a75cd3ae5b9b167296afd08e1"
     "34b2ad2d0bcf2d05efabb0b7a4a29126", EMPTY),
    (["augment", "--help"], 0, "7a9cb66c2dc50eb875c50221b6f6a96b"
     "a17aaa8d78d27e0f880d95c089116ccb", EMPTY),
    (["count", "--bogus"], 2, EMPTY, "a362d9893fe42be5b9ca32f2c37eb614"
     "f78370767fc3c438dd5949aee7bbfebf"),
    (["count", "--n", "x"], 2, EMPTY, "d8218e1075b573197916a765f4902197"
     "2d00a49df772b7b1e80c3fef962c8565"),
    (["count", "--graph", "zd:2", "--n", "3", "extra"], 2, EMPTY,
     "0899fe5a32230d7c7b95ebc12366f24e311cd66fc7b46268a7af32ee03e327c9"),
    (["catalog", "count"], 2, EMPTY, "ecb67ffecf4564c01db7bb67f1cdf897"
     "9cf34915b1c5ebd0713d97175042c362"),
    (["events", "--grid", "--k", "2", "--graph", "zd:2"], 2, EMPTY,
     "f1b481021fbf2b01bce9eeb7095b426680ce2a098d7ff8121bf1d4e140f8c291"),
    (["ratio"], 2, EMPTY, "3380e6d99d028cfea4927d10151899ad"
     "b0ed9e8a118bace91e1a7abd1bf7b717"),
    (["verify"], 2, EMPTY, "55ae4170d71773509854ffa76de7cb40"
     "5d0945ed865dc5ec216f630ce3699121"),
]


@pytest.mark.parametrize("argv,code,out_sha,err_sha", PINNED,
                         ids=[" ".join(a) or "no-argv" for a, *_ in PINNED])
def test_help_and_usage_bytes_are_pinned(argv, code, out_sha, err_sha,
                                         capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == code
    got = capsys.readouterr()
    assert (sha(got.out), sha(got.err)) == (out_sha, err_sha)


@pytest.fixture
def parsers(monkeypatch):
    """The top-level parsers that ``run`` parses with, in call order."""
    seen, parse_args = [], argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    return seen


def subcommands_of(ap):
    sub, = [a for a in ap._actions
            if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("argv", [[cmd, "--help"] for cmd in SUBCOMMANDS]
                         + [["count", "--graph", "zd:2", "--n", "2"]],
                         ids=SUBCOMMANDS + ["count-job"])
def test_run_builds_only_the_subparser_it_runs(argv, capsys, parsers):
    run(argv)
    ap, = parsers
    assert subcommands_of(ap) == argv[:1]


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "count"],
                                  ["bogus"], ["--bogus", "count"]],
                         ids=["no-argv", "help", "option-first", "unknown",
                              "bad-option-first"])
def test_run_builds_every_subparser_without_a_name_first(argv, capsys,
                                                         parsers):
    run(argv)
    ap, = parsers
    assert subcommands_of(ap) == SUBCOMMANDS


def test_no_parser_outlives_a_run(capsys, parsers):
    run(["catalog", "--help"])
    run(["catalog", "--help"])
    first, second = parsers
    assert first is not second


def test_events_and_ratio_print_the_same_bytes_on_two_workers(
        capsys, forced_pool, monkeypatch):
    # each of the ratio's three series is asked for the --workers count
    asked = []
    for name in ("event_free_series", "count_directed_saws", "count_saws"):
        def spy(*args, real=getattr(certificate, name), name=name, **kw):
            asked.append((name, kw["workers"]))
            return real(*args, **kw)
        monkeypatch.setattr(certificate, name, spy)
    ladder3 = ["--graph", "ladder", "--sublattice", "3"]
    for argv in (["events", *ladder3, "--n", "8"],
                 ["events", *ladder3, "--n", "8", "--m", "1", "--r", "1"],
                 ["events", *ladder3, "--n", "8", "--grid"],
                 ["ratio", *ladder3, "--mu-exact", "1.6", "--budget", "14",
                  "--deterministic"]):
        outs = []
        for workers in (1, 2):
            asked.clear()
            forced_pool.clear()
            assert run([*argv, "--workers", str(workers)]) == 0
            outs.append(capsys.readouterr())
            assert forced_pool == [2] * len(forced_pool)
            assert bool(forced_pool) == (workers == 2)
            assert all(w == workers for _, w in asked)
        assert outs[1] == outs[0]
    assert {name for name, _ in asked} == {
        "event_free_series", "count_directed_saws", "count_saws"}


DEEP_JSON = {"object": '{"a":' * 3000 + "1" + "}" * 3000,
             "array": "[" * 200000 + "]" * 200000}


@pytest.mark.parametrize("kind", sorted(DEEP_JSON))
def test_verify_refuses_json_nested_too_deeply(kind, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON[kind])
    assert run(["verify", str(path)]) == 4
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "error: certificate JSON nests too deeply to decode\n"
    with pytest.raises(ValueError, match="nests too deeply"):
        RatioCertificate.from_json(DEEP_JSON[kind])


@pytest.mark.parametrize("argv,depth", [
    (["count", "--graph", "zd:1", "--n", "3000"], 3000),
    (["bounds", "--graph", "zd:1", "--n", "1000"], 1000),
    (["ratio", *Z1MOD3, "--budget", "1200"], 1200)],
    ids=["count", "bounds", "ratio"])
def test_counts_past_the_recursion_limit_exit_4(argv, depth, capsys):
    assert run(argv) == 4
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == (f"error: a count to depth {depth} exceeds the "
                       "interpreter's recursion limit\n")


# the deepest counts that ran to the end before the limit was caught
@pytest.mark.parametrize("argv,digest", [
    (["count", "--graph", "zd:1", "--n", "1200"],
     "554619c73eea899fb36f9ae6eae6d44fadcb541a7129e5343047b8a0115359fc"),
    (["bounds", "--graph", "zd:1", "--n", "900"],
     "b30a4fa9434d9bf6ee6d753bb45753fd278208106f16002f4fa4a9b3f122ff9f")],
    ids=["count", "bounds"])
def test_deep_counts_below_the_limit_keep_their_bytes(argv, digest, capsys):
    assert run(argv) == 0
    got = capsys.readouterr()
    assert (sha(got.out), got.err) == (digest, "")
