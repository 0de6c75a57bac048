"""The demos print fixed bytes.

Each script under ``demos/`` runs in a subprocess, as a user runs it from
the repository root, and the sha256 of its stdout must equal the value
recorded here.  A change that moves a count, a label or a certificate
field a demo prints fails this test; re-record a hash only for an output
change that is meant.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = {
    "01_counting_and_growth.py":
        "a7ca81c8f0c8efc5a0f621d0a317cbcde51140a453fbde5e46978aab1b4ca371",
    "02_quotients_and_correspondence.py":
        "f8f84ce33b2ff67fc512ed1edb277b3e2774c555ef1f9349996224e8be6f2708",
    "03_event_counting.py":
        "e35c76e71d9c34080a0f1c25626209a893be85267e5094d23c130714b0f20447",
    "04_ratio_certificates.py":
        "68f2b13c85b82068862673d76b87e7b5e4ea6125c2686bbf8f79e570eb738e70",
}


def test_every_demo_is_pinned():
    demos = os.listdir(os.path.join(ROOT, "demos"))
    assert sorted(PINNED) == sorted(f for f in demos if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(PINNED))
def test_demo_prints_its_recorded_bytes(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", demo)], cwd=ROOT,
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED[demo]
