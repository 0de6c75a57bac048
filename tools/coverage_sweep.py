"""Line-coverage sweep: the lines of ``src/sawkit/*.py`` that tier-1 never runs.

Runs pytest in this process under ``sys.settrace`` (stdlib only; the
``coverage`` package is not a dependency) and prints, per module, the
executable lines that no test ran, then one summary line.  Lines that
run only in a pool's worker processes count as unrun, because the
tracer sees this process alone.  Tracing makes the suite several times
slower.

    PYTHONPATH=src python tools/coverage_sweep.py [--since REV] [-- PYTEST ARGS]

``--since REV`` also lists, per module, the lines added or changed since
the git revision REV that no test ran.  Without pytest arguments the
tier-1 suite runs (``-q -p no:cacheprovider``).  The exit status is
pytest's.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sawkit")


def executable_lines(path: str) -> set:
    """The line numbers that carry bytecode in the module at ``path``,
    its nested functions and classes included."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _start, _end, line in co.co_lines()
                     if line)
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def changed_lines(rev: str) -> dict:
    """file name -> the line numbers added or changed since ``rev``."""
    diff = subprocess.run(
        ["git", "diff", "-U0", rev, "--", "src/sawkit"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout
    changed, name = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = os.path.basename(line[4:].strip())
        m = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", line)
        if m and name:
            first, count = int(m[1]), int(m[2] or 1)
            changed.setdefault(name, set()).update(
                range(first, first + count))
    return changed


def run_traced(pytest_args: list) -> tuple:
    """(pytest's exit status, path -> line numbers run)."""
    import pytest

    ran: dict = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, _arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    class Retrace:
        """Put the tracer back before each test: CPython drops it when
        a call into it fails, as it does in a test that exhausts the
        recursion limit on purpose."""

        @staticmethod
        def pytest_runtest_setup(item):
            if sys.gettrace() is not trace:
                sys.settrace(trace)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--since", metavar="REV",
                    help="also list the unrun lines changed since REV")
    ap.add_argument("pytest_args", nargs="*")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    status, ran = run_traced(args.pytest_args
                             or ["-q", "-p", "no:cacheprovider"])
    changed = changed_lines(args.since) if args.since else {}
    total = unrun_total = changed_total = changed_unrun = 0
    print("\nLines of src/sawkit that no test ran:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path, set()))
        total += len(lines)
        unrun_total += len(unrun)
        print(f"  {name}: {len(unrun)} of {len(lines)}"
              + (f": {_ranges(unrun)}" if unrun else ""))
        if args.since:
            new = lines & changed.get(name, set())
            missed = sorted(new.intersection(unrun))
            changed_total += len(new)
            changed_unrun += len(missed)
            if missed:
                print(f"    changed since {args.since} and unrun: "
                      f"{_ranges(missed)}")
    print(f"summary: {total - unrun_total} of {total} executable lines run "
          f"({100 * (total - unrun_total) / total:.1f}%)"
          + (f"; {changed_total - changed_unrun} of {changed_total} lines "
             f"changed since {args.since} run" if args.since else ""))
    return int(status)


def _ranges(lines: list) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    out, start = [], None
    for a, b in zip(lines, lines[1:] + [None]):
        start = a if start is None else start
        if b != a + 1:
            out.append(str(start) if start == a else f"{start}-{a}")
            start = None
    return ", ".join(out)


if __name__ == "__main__":
    sys.exit(main())
