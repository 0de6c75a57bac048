#!/usr/bin/env python3
"""sawkit benchmark: the user-visible jobs end to end, one process.

    python3 bench/run.py --workload count --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; sawkit is imported from
``src/``.  Workloads (see ``workloads.py`` and ``baseline.json``):

* ``count``     nine ``saw count``/``augment``/``events`` jobs on one
  worker;
* ``count-2w``  the six of them that reach the process pool, on two;
* ``certify``   four ``saw ratio`` jobs, each output then ``saw verify``-ed;
* ``verify``    replays of a corpus of genuine and seeded tampered
  certificates through the library.

Jobs run in-process through ``sawkit.cli.run`` as a closed loop: the
next job starts when the previous one ends.  The seed shuffles job order
in each pass and picks the tampering of the ``verify`` corpus.  A run
sets up several times and reports the median set-up, then repeats passes
over the workload's jobs while another pass still fits in ``--seconds``;
at least one pass always runs.  Every output is checked against
``refs.json``, recorded from the seed commit with ``--record-refs``.

Times are reported in reference seconds.  The speed of a shared host
drifts by 15-60% for tens of seconds at a time, which no estimator over a
run of this length removes.  So a fixed reference loop (a plain-Python
count of the 7-step walks on the square lattice, no sawkit code) is timed
around each item and each set-up, every item's time is divided by it,
and the median of these ratios is multiplied by ``REF_LOOP_S``, the
loop's time at full speed on the machine ``baseline.json`` was recorded
on.  When the host slows, the loop and the job slow together and the
ratio stays; when sawkit gets faster, only the job does.  The raw times
are printed beside them.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``);
with ``--trace 1`` passes alternate untraced and traced and the metrics
are the per-layer ones of ``tracer.py``, the per-job wall times, and
``trace.overhead`` (traced pass wall / untraced pass wall).  The lines
before it print every metric by name with its unit, including
``failed_ratio`` and, on ``verify``, the per-op latency.  ``correct`` is
false only for a wrong output; a verifier exception on a tampered
certificate is a failed op, not a wrong output.
"""

from __future__ import annotations

import argparse
import array
import collections
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")

sys.path.insert(0, BENCH_DIR)
from tracer import ENUM_LAYERS, TIMED_LAYERS, Tracer  # noqa: E402
from workloads import (JOBS, RATIO_JOBS, WORKLOADS, build_corpus,  # noqa: E402
                       build_inputs, job_argv, job_key, tamper)

SETUP_REPEATS = (7, 30)   # least and most set-ups in a run
SETUP_SECONDS = 3.0       # set up again while less than this has passed
REF_LOOP_N, REF_LOOP_WALKS = 7, 2172
REF_LOOP_S = 0.00125      # reference_loop() at full speed on the baseline VM
REF_REPEATS = 3           # a reference time is the fastest of this many loops
REF_EVERY_S = 0.05        # time the reference loop again after this long
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def cpu_now() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + ru.ru_utime + ru.ru_stime


def reference_loop() -> float:
    """Seconds to count the ``REF_LOOP_N``-step self-avoiding walks on the
    square lattice in plain Python: the measure of the host's speed.  The
    fastest of ``REF_REPEATS`` counts, so that a stall of a few
    milliseconds, which a 100 ms job absorbs, does not skew it."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    seen = {(0, 0)}

    def walks(x, y, left):
        if left == 0:
            return 1
        total = 0
        for dx, dy in steps:
            site = (x + dx, y + dy)
            if site not in seen:
                seen.add(site)
                total += walks(site[0], site[1], left - 1)
                seen.discard(site)
        return total

    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        n = walks(0, 0, REF_LOOP_N)
        best = min(best, perf_counter() - t0)
        if n != REF_LOOP_WALKS:
            raise AssertionError(f"reference loop counted {n} walks")
    return best


def compile_sawkit():
    """Bring sawkit's cached bytecode up to date, in a child process so
    that compiling adds nothing to this one's peak memory.  Set-up then
    imports from bytecode, as a user's second run does, even where the
    environment says not to write bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "sawkit")], check=True)


def fresh_import():
    """Import sawkit from the checkout's src/, discarding any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "sawkit" or n.startswith("sawkit.")]:
        del sys.modules[name]
    sk = importlib.import_module("sawkit")
    importlib.import_module("sawkit.cli")
    if not os.path.abspath(sk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sawkit imported from {sk.__file__}, not {SRC}")
    return sk


def per_layer_names() -> dict:
    names = {}
    for layer in ENUM_LAYERS:
        names.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.walks": "count",
                      f"{layer}.walks_per_s": "1/s"})
    for layer in TIMED_LAYERS:
        names.update({f"{layer}.calls": "count", f"{layer}.self_s": "s"})
    names["certificate.recounts"] = "count"
    for jobs in WORKLOADS.values():
        for jid, workers in jobs:
            names[f"job.{job_key(jid, workers)}.wall_s"] = "s"
    for jid in RATIO_JOBS:
        names[f"job.{jid}.recounts"] = "count"
    names["trace.overhead"] = "ratio"
    return names


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class Setup:
    """What one set-up leaves behind: the package and the verify ops."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.sk = fresh_import()
        self.errors = []
        self.ops = []            # (id, text, expectation)
        build_inputs(self.sk, [jid for jid, _ in WORKLOADS[workload]])
        if workload == "verify":
            self._build_verify_ops(seed, refs)

    def _build_verify_ops(self, seed: int, refs: dict):
        genuine = build_corpus(self.sk)
        corpus_dir = os.path.join(OUT_DIR, "corpus")
        os.makedirs(corpus_dir, exist_ok=True)
        texts = dict(genuine)
        bad = tamper(genuine, seed)
        texts.update({cid: text for cid, (text, _) in bad.items()})
        for cid, text in texts.items():
            path = os.path.join(corpus_dir, f"{cid}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(path, "r", encoding="utf-8") as fh:
                texts[cid] = fh.read()
        for cid, text in genuine.items():
            ref = refs["corpus"][cid]
            if sha256(text) != ref["cert_sha256"]:
                self.errors.append(f"corpus {cid}: certificate bytes differ "
                                   "from the reference")
            self.ops.append((cid, texts[cid], ref))
        for cid, (_, what) in bad.items():
            self.ops.append((cid, texts[cid], {"tampered": what}))


def set_up(workload, seed, refs, toy):
    """Set up ``SETUP_REPEATS[0]`` times and then again while less than
    ``SETUP_SECONDS`` have passed (once for toy sizes); returns the last
    set-up, the median time of one in reference seconds (against the
    mean of the reference loop before and after it) and the median raw
    time.  The copies an earlier set-up imported are collected between
    repeats, outside the timing, so that peak memory does not depend on
    how many there were."""
    least, most = (1, 1) if toy else SETUP_REPEATS
    times, rel = [], []
    start = perf_counter()
    while len(times) < least or (len(times) < most and
                                 perf_counter() - start < SETUP_SECONDS):
        gc.collect()
        ref = reference_loop()
        t0 = perf_counter()
        st = Setup(workload, seed, refs)
        times.append(perf_counter() - t0)
        rel.append(2 * times[-1] / (ref + reference_loop()))
    gc.collect()
    return st, statistics.median(rel) * REF_LOOP_S, statistics.median(times)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def execute_job(sk, argv: list, jid: str) -> dict:
    """Run one CLI job (for ratio, then ``saw verify`` on its certificate)
    and return its exit codes and output hashes."""
    got = {}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if argv[0] == "ratio":
            cert = os.path.join(OUT_DIR, f"{jid}.json")
            got["exit"] = sk.cli.run(argv + ["--deterministic", "--out", cert])
            with open(cert, "rb") as fh:
                got["cert_sha256"] = sha256(fh.read())
            vout = io.StringIO()
            with contextlib.redirect_stdout(vout):
                got["verify_exit"] = sk.cli.run(["verify", cert])
            got["verify_stdout_sha256"] = sha256(vout.getvalue())
        else:
            got["exit"] = sk.cli.run(argv)
    got["stdout_sha256"] = sha256(out.getvalue())
    return got


def run_job(sk, jid, toy, workers, refs):
    """Run one job; None when every output matches its reference,
    otherwise a description of the mismatch or exception."""
    argv = job_argv(jid, toy) + ["--workers", str(workers)]
    try:
        got = execute_job(sk, argv, jid)
    except Exception as e:  # a failed op is counted, never fatal
        return f"{jid}: {type(e).__name__}: {e}"
    want = refs["jobs"][f"{'toy' if toy else 'full'}:{jid}"]
    diff = sorted(k for k in want if k != "argv" and got.get(k) != want[k])
    return f"{jid}: {', '.join(diff)} differ from the reference" if diff \
        else None


def run_verify_op(sk, op):
    """One replay: parse, verify, summarise.

    Returns (failure or None, wrong) where ``wrong`` marks a wrong output
    (a genuine certificate rejected or a tampered one accepted), as
    opposed to an exception on a tampered input.
    """
    cid, text, want = op
    try:
        report = sk.verify_certificate(sk.RatioCertificate.from_json(text))
        summary = report.summary()
    except Exception as e:  # counted as failed: the verifier must not raise
        return f"{cid}: {type(e).__name__}: {e}", "tampered" not in want
    if "tampered" in want:
        if report.ok:
            return f"{cid}: tampered certificate accepted " \
                   f"({want['tampered']})", True
        return None, False
    if not report.ok or report.status != want["status"] \
            or sha256(summary) != want["summary_sha256"]:
        return f"{cid}: verdict or summary differs from the reference", True
    return None, False


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """The measured loop of one workload and what it recorded.

    An item is one job (a CLI invocation) or, on ``verify``, one replay.
    Items are timed one by one, each against the mean of the reference
    loop's latest times before and after it.  The loop is timed again
    whenever ``REF_EVERY_S`` has passed, so between any two jobs.  The end-to-end times are sums over the workload's items
    of each item's median in reference seconds: the time of one pass.
    """

    def __init__(self, args, refs, setup):
        self.args = args
        self.refs = refs
        self.sk = setup.sk
        jobs = WORKLOADS[args.workload]
        # (key, run) where run() gives (failure or None, wrong output)
        self.items = [(job_key(jid, w), functools.partial(self._job, jid, w))
                      for jid, w in jobs] or \
            [(op[0], functools.partial(run_verify_op, self.sk, op))
             for op in setup.ops]
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failures = collections.Counter(setup.errors)
        self.wrong = bool(setup.errors)
        self.passes = {False: 0, True: 0}          # keyed by traced
        self.pass_walls = []
        self.walls = {False: {}, True: {}}         # traced -> item -> [s]
        self.rel_walls = {False: {}, True: {}}     # same, / reference loop
        self.rel_cpus = {}                         # item -> [cpu / ref]
        self.refs_s = array.array("d")             # reference loop times
        self.ref_at = float("-inf")
        self.tracer = Tracer()
        self.layer_samples = []                    # per traced pass
        self.recount_samples = []                  # per traced pass
        self.job_layers = {}                       # last traced pass

    def _job(self, jid, workers):
        fail = run_job(self.sk, jid, self.args.toy, workers, self.refs)
        return fail, fail is not None

    def reference(self) -> float:
        """The reference loop's latest time, timed again if it is stale."""
        if perf_counter() - self.ref_at >= REF_EVERY_S:
            self.refs_s.append(reference_loop())
            self.ref_at = perf_counter()
        return self.refs_s[-1]

    def one_pass(self, traced: bool) -> float:
        if traced:
            self.tracer.reset_pass()
            self.tracer.install(self.sk)
        job_recounts = {}
        t_pass = perf_counter()
        try:
            for key, run in self.rng.sample(self.items, len(self.items)):
                ref_before = self.reference()
                if traced:
                    r0, s0 = self.tracer.recounts, self.tracer.self_times()
                t0, c0 = perf_counter(), cpu_now()
                fail, wrong = run()
                wall, cpu = perf_counter() - t0, cpu_now() - c0
                ref = (ref_before + self.reference()) / 2
                self.walls[traced].setdefault(key, array.array("d")).append(
                    wall)
                self.rel_walls[traced].setdefault(
                    key, array.array("d")).append(wall / ref)
                if traced:
                    job_recounts[key] = self.tracer.recounts - r0
                    self.job_layers[key] = {
                        k: v - s0.get(k, 0.0)
                        for k, v in self.tracer.self_times().items()}
                else:
                    self.rel_cpus.setdefault(key, array.array("d")).append(
                        cpu / ref)
                self.attempted += 1
                if fail:
                    self.failures[fail] += 1
                    self.wrong |= wrong
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes[traced] += 1
        self.pass_walls.append(round(perf_counter() - t_pass, 4))
        if traced:
            self.layer_samples.append(self.tracer.stats)
            self.recount_samples.append(job_recounts)
        return self.pass_walls[-1]

    def measure(self):
        """Passes while another one still fits in the time given; with
        tracing, untraced and traced passes alternate, one of each at
        least."""
        trace = bool(self.args.trace)
        start = perf_counter()
        longest = 0.0
        n = 0
        while True:
            traced = trace and n % 2 == 1
            longest = max(longest, self.one_pass(traced))
            n += 1
            if trace and n < 2:
                continue
            if perf_counter() - start + longest > self.args.seconds:
                break

    # -- results -----------------------------------------------------------

    @staticmethod
    def ref_pass(rel_samples: dict) -> float:
        """One pass in reference seconds: the items' median ratios, summed."""
        return REF_LOOP_S * sum(statistics.median(v)
                                for v in rel_samples.values())

    def end_to_end(self, setup_s: float) -> dict:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"setup_s": setup_s,
                "wall_s": self.ref_pass(self.rel_walls[False]),
                "cpu_s": self.ref_pass(self.rel_cpus),
                "peak_rss_mb": rss_kb / 1024.0}

    def per_layer(self) -> dict:
        def med(values):
            return statistics.median(values) if values else 0

        out = {}
        for layer in ENUM_LAYERS + TIMED_LAYERS:
            stats = [s[layer] for s in self.layer_samples if layer in s]
            out[f"{layer}.calls"] = med([s.calls for s in stats])
            out[f"{layer}.self_s"] = med([s.self_s for s in stats])
            if layer in ENUM_LAYERS:
                out[f"{layer}.walks"] = med([s.walks for s in stats])
                out[f"{layer}.walks_per_s"] = med(
                    [s.walks / s.incl_s for s in stats if s.incl_s > 0])
        out["certificate.recounts"] = med(
            [sum(r.values()) for r in self.recount_samples])
        for jobs in WORKLOADS.values():
            for jid, workers in jobs:
                key = job_key(jid, workers)
                rel = self.rel_walls[False].get(key)
                out[f"job.{key}.wall_s"] = \
                    REF_LOOP_S * statistics.median(rel) if rel else 0
        for jid in RATIO_JOBS:
            out[f"job.{jid}.recounts"] = med(
                [r[jid] for r in self.recount_samples if jid in r])
        out["trace.overhead"] = self.ref_pass(self.rel_walls[True]) \
            / self.ref_pass(self.rel_walls[False])
        return out

    def report_lines(self, setup_raw_s: float) -> list:
        failed = sum(self.failures.values())
        refs_ms = sorted(t * 1e3 for t in self.refs_s)
        raw_pass = sum(statistics.median(v)
                       for v in self.walls[False].values())
        lines = [f"passes = {self.passes[False]} untraced, "
                 f"{self.passes[True]} traced",
                 "pass walls in order (s): " + " ".join(
                     str(w) for w in self.pass_walls[:200]),
                 f"reference loop: {len(refs_ms)} runs, median "
                 f"{statistics.median(refs_ms):.4f} ms, min "
                 f"{refs_ms[0]:.4f} ms, max {refs_ms[-1]:.4f} ms "
                 f"(baseline {REF_LOOP_S * 1e3:.4f} ms)",
                 f"raw setup median = {setup_raw_s:.6f} s",
                 f"raw pass of item medians = {raw_pass:.6f} s",
                 f"failed_ratio = {failed / self.attempted:.6f} "
                 f"({failed}/{self.attempted})"]
        if self.args.workload == "verify":
            ts = sorted(t for v in self.walls[False].values() for t in v)
            p99 = statistics.quantiles(ts, n=100)[98] if len(ts) > 1 else ts[0]
            lines += [f"verify_per_s = {len(ts) / sum(ts):.2f} 1/s",
                      f"verify_p50_ms = {statistics.median(ts) * 1e3:.4f} ms",
                      f"verify_p99_ms = {p99 * 1e3:.4f} ms "
                      f"({len(ts)} samples, "
                      f"{sum(t > p99 for t in ts)} beyond p99)"]
        for key, walls in sorted(self.walls[False].items()):
            rel = self.rel_walls[False][key]
            lines.append(f"item {key}: {len(walls)} runs, median wall "
                         f"{statistics.median(walls):.6f} s, "
                         f"min {min(walls):.6f} s, median "
                         f"{statistics.median(rel):.3f} reference loops")
        for jid, layers in self.job_layers.items():
            total = sum(layers.values()) or 1.0
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
            lines.append(f"job {jid} traced self time: " + ", ".join(
                f"{k} {v / total:.0%}" for k, v in top))
        return lines


# ---------------------------------------------------------------------------
# Reference recording
# ---------------------------------------------------------------------------

def record_refs():
    """Run every job once at both sizes and the corpus; write refs.json."""
    sk = fresh_import()
    jobs = {}
    for toy in (False, True):
        for jid in JOBS:
            argv = job_argv(jid, toy) + ["--workers", "1"]
            got = {"argv": argv, **execute_job(sk, argv, jid)}
            jobs[f"{'toy' if toy else 'full'}:{jid}"] = got
            print(f"recorded {'toy' if toy else 'full'}:{jid}", file=sys.stderr)
    corpus = {}
    for cid, text in build_corpus(sk).items():
        report = sk.verify_certificate(sk.RatioCertificate.from_json(text))
        corpus[cid] = {"status": report.status, "ok": report.ok,
                       "cert_sha256": sha256(text),
                       "summary_sha256": sha256(report.summary())}
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "corpus": corpus}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes, for the benchmark's own test")
    ap.add_argument("--record-refs", action="store_true",
                    help="record refs.json from the current source")
    args = ap.parse_args(argv)
    if not args.record_refs and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sawkit", "__init__.py")):
        print(f"error: no sawkit source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    compile_sawkit()
    if args.record_refs:
        record_refs()
        return 0
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        refs = json.load(fh)

    setup, setup_s, setup_raw_s = set_up(args.workload, args.seed, refs,
                                         args.toy)
    run = Run(args, refs, setup)
    run.measure()

    if args.trace:
        metrics = run.per_layer()
        units = per_layer_names()
        run.tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = run.end_to_end(setup_s)
        units = E2E_UNITS
    for line in run.report_lines(setup_raw_s):
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    for fail, n in run.failures.most_common(10):
        print(f"failed {n}x: {fail}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
