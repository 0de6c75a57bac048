"""The benchmark's own test: every workload at toy sizes.

    python3 -m pytest bench/test_bench.py

Checks metric names and units against BENCHMARK.json and that every
output matches its recorded reference (the run's ``correct`` flag); it
gates on no timing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("count", "count-2w", "certify", "verify")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_toy_run(workload, trace):
    res = result_of(run_bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    if workload != "verify":
        assert res["failed"] == 0
    want = spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if trace and workload == "count":
        for layer in ("counting.packed", "counting.generic",
                      "counting.quotient", "events.event_free",
                      "events.windowed"):
            assert values[f"{layer}.walks"] > 0, layer
    if trace and workload == "certify":
        assert values["certificate.recounts"] > 0
        assert values["bounds.bridge.walks"] > 0
    if not trace:
        assert all(v > 0 for v in values.values())


def test_verify_failed_share_is_the_same_for_every_seed():
    """Every null-class certificate is tampered once per load-bearing
    parameter, so the share of copies that make the verifier raise does
    not depend on the seed, and runs always end on a whole pass."""
    first = result_of(run_bench("verify", 0, seed=3))
    second = result_of(run_bench("verify", 0, seed=4))
    assert first["failed"] / first["attempted"] == \
        second["failed"] / second["attempted"]


def test_refuses_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("count", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
