"""End-to-end CLI behavior through run(argv): outputs and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import sawkit.events as events
from sawkit.cli import run
from sawkit.graphs import load_spec_file

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
    original = events._split_counts

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(events, "_split_counts", counted)
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
