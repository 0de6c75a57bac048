"""Smoke test of the benchmark harness at toy sizes.

Runs ``bench/run.py --toy`` for the ``count``, ``count-2w``, ``certify``
and ``verify`` workloads in a subprocess and checks that every CLI output and
certificate still matches the recorded references (the run's ``correct``
flag) and that the end-to-end metric names are the ones
``BENCHMARK.json`` declares.  The ``verify`` run pins the report bytes of
the genuine corpus certificates and the rejection of every tampered
copy.  It has no timing gate.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload",
                         ["count", "count-2w", "certify", "verify"])
def test_toy_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--toy",
         "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
