"""Command-line front end: catalog, counting, quotient reports, bounds,
and the ratio-certificate pipeline, with machine-readable output.  The
lower bound of ``saw bounds`` and ``saw ratio`` is chosen by
:func:`sawkit.bounds.lower_bounds`; here only ``--mu-exact`` is parsed.
Each :func:`run` builds the subparser of the subcommand it runs and no
other (every one only for top-level help or a bad name), since building
all nine cost about as much as a small count; no parser outlives the
call, so the saving reaches a new process as well as an in-process one.

Exit codes: 0 success, 2 usage error, 3 inconclusive certificate,
4 computation error.  Output goes to stdout or, with ``--out``, is
written atomically (temp file + rename in the target directory).
Identical invocations produce byte-identical outputs; the only
timestamp, the certificate's ``created`` field, is suppressed under
``--deterministic``.

All exact integers in JSON output are decimal strings so that consumers
with float-only JSON parsers cannot silently lose precision; CSV is the
hand-off format for plotting tools.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional

from .bounds import BoundError, bound_rows, lower_bounds
from .certificate import CertificateError, RatioCertificate, certify_ratio, \
    verify_certificate
from .counting import count_directed_saws, count_saws, \
    count_directed_walks, count_walks
from .events import EventError, build_cycle_family, build_event_profile, \
    event_series
from .exact import Radical, float_repr
from .graphs import CATALOG_NAMES, GraphError, PeriodicLattice, \
    augment, catalog, load_spec_file, spec_text
from .quotient import QuotientError, build_quotient, \
    check_representative_independence, check_symmetry, classify_type, \
    sublattice_action, tree_action


class UsageError(Exception):
    """Bad flag values; maps to exit code 2."""


_DOMAIN_ERRORS = (GraphError, QuotientError, EventError, BoundError,
                  CertificateError, OSError, ValueError)


# ---------------------------------------------------------------------------
# Plumbing: selectors, output
# ---------------------------------------------------------------------------

def _graph_from(args):
    if getattr(args, "spec", None):
        if getattr(args, "graph", None):
            raise UsageError("give either --graph or --spec, not both")
        return load_spec_file(args.spec)
    if not getattr(args, "graph", None):
        raise UsageError("a graph selector is required (--graph or --spec)")
    return catalog(args.graph)


def _parse_rows(text: str) -> list:
    rows = []
    for part in text.split(";"):
        part = part.replace(",", " ").strip()
        if not part:
            continue
        try:
            rows.append([int(t) for t in part.split()])
        except ValueError:
            raise UsageError(f"bad sublattice row {part!r}") from None
    if not rows:
        raise UsageError("empty sublattice row list")
    return rows


def _action_from(args):
    sub = getattr(args, "sublattice", None)
    act = getattr(args, "action", None)
    if (sub is None) == (act is None):
        raise UsageError("give exactly one of --sublattice or --action")
    return sublattice_action(_parse_rows(sub)) if sub is not None \
        else tree_action(act)


def _quotient_from(args, g):
    return build_quotient(g, _action_from(args))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".saw-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException as e:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(e, OSError):  # name the file asked for, not the temp
            raise OSError(e.errno, e.strerror, out) from None
        raise


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join("" if c is None else str(c) for c in row) + "\n")
    return buf.getvalue()


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    rows = []
    for name in CATALOG_NAMES:
        g = catalog(name)
        kind = (f"lattice d={g.dimension} cells={g.cells}"
                if isinstance(g, PeriodicLattice) else
                ("tree" if g.is_acyclic else "word graph"))
        rows.append((name, g.degree, "yes" if g.is_simple else "no", kind))
    if args.format == "json":
        doc = {"catalog": [{"name": n, "degree": str(d), "simple": s,
                            "kind": k} for n, d, s, k in rows]}
        _emit(_json_doc(doc), args.out)
    else:
        _emit(_csv(["name", "degree", "simple", "kind"], rows), args.out)
    return 0


def _series_output(args, graph_label: str, start_label: str, counts: list,
                   directed: bool, kind: str) -> None:
    rows = [(n, counts[n], float_repr(float(Radical.nth_root(counts[n], n))))
            for n in range(1, len(counts))]
    if args.format == "json":
        doc = {"graph": graph_label, "start": start_label, "kind": kind,
               "directed": directed,
               "rows": [{"n": n, "sigma": str(c), "a": a}
                        for n, c, a in rows]}
        _emit(_json_doc(doc), args.out)
    else:
        _emit(_csv(["n", "sigma_n", "a_n"],
                   [(n, c, a) for n, c, a in rows]), args.out)


def cmd_count(args) -> int:
    quotient = args.sublattice is not None or args.action is not None
    if quotient and args.start is not None:
        raise UsageError("--start does not apply to a quotient count, "
                         "which starts at the origin's orbit")
    if args.max_nodes is not None and (quotient or args.walks):
        raise UsageError("--max-nodes applies only to SAW counts on a "
                         "graph, not to a quotient or --walks count")
    if args.workers is not None and args.walks:
        raise UsageError("--workers applies only to SAW counts, not to a "
                         "--walks count")
    g = _graph_from(args)
    if quotient:
        q = _quotient_from(args, g)
        if args.walks:
            counts = count_directed_walks(q, args.n)
        else:
            wc = count_directed_saws(q, args.n, workers=args.workers)
            counts = list(wc.counts)
        _series_output(args, q.quotient_id, q.base.key_str(q.rep_of(
            q.origin_orbit())), counts, True,
            "walks" if args.walks else "saws")
        return 0
    start = g.parse_key(args.start) if args.start else None
    if args.walks:
        counts = count_walks(g, start, args.n)
        _series_output(args, g.graph_id, args.start or g.key_str(g.origin()),
                       counts, False, "walks")
        return 0
    wc = count_saws(g, start, args.n, workers=args.workers,
                    max_nodes=args.max_nodes)
    label = g.key_str(wc.start)
    counts = list(wc.counts)
    if wc.truncated:
        print(f"note: node budget reached; series truncated at "
              f"n={wc.n_max}", file=sys.stderr)
    _series_output(args, g.graph_id, label, counts, False, "saws")
    return 0


def cmd_quotient(args) -> int:
    report = args.report
    if args.format == "json" and report != "type":
        raise UsageError(f"--format json applies only to the type report, "
                         f"not to --report {report}")
    g = _graph_from(args)
    q = build_quotient(g, _action_from(args))
    if report == "summary":
        _emit(q.to_text(probe_radius=args.radius) + "\n", args.out)
        return 0
    if report == "type":
        rep = classify_type(q)
        if args.format == "json":
            doc = {"quotient": q.quotient_id, "type": str(rep.type_),
                   "cycle_length": str(rep.length),
                   "witness": [g.key_str(v) for v in rep.witness]}
            _emit(_json_doc(doc), args.out)
        else:
            _emit(f"type {rep.type_} (shortest directed cycle length "
                  f"{rep.length})\n", args.out)
        return 0
    if report == "symmetry":
        ok = check_symmetry(q, probe_radius=args.radius)
        _emit(f"symmetric within radius {args.radius}: {ok}\n", args.out)
        return 0
    if report == "independence":
        ok = check_representative_independence(g, q, args.radius)
        _emit(f"representative-independent within radius {args.radius}: "
              f"{ok}\n", args.out)
        return 0
    raise UsageError(f"unknown report {report!r}")


def cmd_type(args) -> int:
    args.report = "type"
    return cmd_quotient(args)


def cmd_events(args) -> int:
    if args.grid:
        for flag in ("k", "m", "r"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} does not apply to --grid, which "
                                 "tabulates every k with m unwindowed and "
                                 "r = 0")
    g = _graph_from(args)
    q = _quotient_from(args, g)
    rep = classify_type(q)
    family = build_cycle_family(q, rep)
    k = family.length if args.k is None else args.k
    if args.grid:
        prof = build_event_profile(q, family, args.n, workers=args.workers)
        rows = [(n, kk, mm if mm >= 0 else None, rr, c)
                for (n, kk, mm, rr), c in prof.grid]
        if args.format == "json":
            doc = {"quotient": q.quotient_id,
                   "cycle_length": str(family.length),
                   "grid": [{"n": n, "k": kk,
                             "m": None if mm is None else mm,
                             "r": rr, "count": str(c)}
                            for n, kk, mm, rr, c in rows],
                   "lambda": [{"k": kk, "n": n, "value": float_repr(float(v))}
                              for (kk, n), v in prof.lambdas]}
            _emit(_json_doc(doc), args.out)
        else:
            _emit(_csv(["n", "k", "m", "r", "count"], rows), args.out)
        return 0
    r = 0 if args.r is None else args.r
    series = event_series(q, family, k, args.n, args.m, r,
                          workers=args.workers)
    rows = [(n, series[n]) for n in range(args.n + 1)]
    if args.format == "json":
        doc = {"quotient": q.quotient_id, "cycle_length": str(family.length),
               "k": str(k), "m": None if args.m is None else str(args.m),
               "r": str(r),
               "rows": [{"n": n, "count": str(c)} for n, c in rows]}
        if r == 0 and args.m is None and args.n >= 1:
            doc["lambda_upper"] = float_repr(
                float(Radical.nth_root(series[args.n], args.n)))
        _emit(_json_doc(doc), args.out)
    else:
        _emit(_csv(["n", "count"], rows), args.out)
    return 0


def cmd_bounds(args) -> int:
    g = _graph_from(args)
    betas, seq = lower_bounds(g, args.n, workers=args.workers)
    if betas is None:
        if args.workers is not None:
            raise UsageError("--workers applies only to bridge bounds, "
                             "which need a graph that contains Z^d")
        (_, b, p), = seq.rows()
        header = ["graph", "degree", "b", "provenance"]
        rows = [(g.graph_id, g.degree, float_repr(b), p)]
        doc = {"graph": g.graph_id, "degree": str(g.degree),
               "b": float_repr(b), "provenance": p}
    else:
        header = ["n", "beta_n", "b_n", "provenance"]
        rows = [(n, beta, float_repr(b), p)
                for n, beta, b, p in bound_rows(betas, seq)]
        doc = {"graph": seq.graph_id,
               "rows": [{"n": n, "beta": str(beta), "b": b, "provenance": p}
                        for n, beta, b, p in rows]}
    _emit(_json_doc(doc) if args.format == "json" else _csv(header, rows),
          args.out)
    return 0


def cmd_ratio(args) -> int:
    g = _graph_from(args)
    q = _quotient_from(args, g)
    rep = classify_type(q)
    family = build_cycle_family(q, rep)
    mu = None
    if args.mu_exact is not None:
        try:
            mu = Fraction(args.mu_exact)
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"--mu-exact wants a rational, got {args.mu_exact!r}") \
                from None
        if mu <= 0:
            raise UsageError("--mu-exact must be positive")
    try:
        _, b = lower_bounds(g, max(args.budget, 1), workers=args.workers,
                            mu_exact=mu)
    except BoundError:
        if g.is_simple:     # only a multigraph is left with no bound
            raise
        raise UsageError("no automatic lower bound for this graph; "
                         "pass --mu-exact") from None
    cert = certify_ratio(g, q, family, b, args.budget, workers=args.workers)
    if not args.deterministic:
        stamp = datetime.datetime.now(datetime.timezone.utc) \
            .strftime("%Y-%m-%dT%H:%M:%SZ")
        payload = {"format": cert.payload["format"],
                   "version": cert.payload["version"],
                   "created": stamp}
        payload.update({k: v for k, v in cert.payload.items()
                        if k not in ("format", "version")})
        cert = RatioCertificate(payload)
    _emit(cert.to_json(), args.out)
    if cert.status != "certified":
        print(f"inconclusive: {cert.payload.get('reason')}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    cert = RatioCertificate.load(args.certificate)
    report = verify_certificate(cert)
    _emit(report.summary() + "\n", args.out)
    if not report.ok:
        return 4
    return 0 if report.status == "certified" else 3


def cmd_augment(args) -> int:
    for flag, given in (("--workers", args.workers is not None),
                        ("--format json", args.format == "json")):
        if given and not args.n:
            raise UsageError(f"{flag} applies only to a SAW count, "
                             "which needs --n")
    g = _graph_from(args)
    parts = args.chord.split()
    if len(parts) != 2:
        raise UsageError("--chord wants two vertex keys, e.g. '0:0,0 0:1,1'")
    ga = augment(g, (g.parse_key(parts[0]), g.parse_key(parts[1])))
    if args.n:
        wc = count_saws(ga, None, args.n, workers=args.workers)
        _series_output(args, ga.graph_id, ga.key_str(wc.start),
                       list(wc.counts), False, "saws")
        return 0
    _emit(f"# {ga.graph_id}\n" + spec_text(ga), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, graph=True, quotient=False, fmt=True, workers=True,
                graph_help="catalog graph name (see `saw catalog`)"):
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="output format (default csv)")
    p.add_argument("--out", metavar="FILE",
                   help="write output atomically to FILE instead of stdout")
    if workers:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: SAW_WORKERS or 1); "
                       "a pool starts only when the work estimated from a "
                       "sample reaches its break-even, else counts run "
                       "inline")
    if graph:
        p.add_argument("--graph", metavar="NAME", help=graph_help)
        p.add_argument("--spec", metavar="FILE",
                       help="graph-spec file instead of a catalog name")
    if quotient:
        p.add_argument("--sublattice", metavar="ROWS",
                       help="semicolon-separated integer row vectors, "
                            "e.g. '3' or '2 0;0 2'")
        p.add_argument("--action", metavar="NAME",
                       help="catalog action name, e.g. 'child-swap'")


def _count_args(p):
    _add_common(p, quotient=True)
    p.add_argument("--n", type=int, default=10, help="maximum length")
    p.add_argument("--start", metavar="KEY",
                   help="start vertex key (default: origin)")
    p.add_argument("--walks", action="store_true",
                   help="count all walks instead of self-avoiding ones")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search-node budget (>= 0): depth n is counted "
                   "only while the nodes charged so far, sum_{j<n} "
                   "sigma_j per depth n, stay within it; the series "
                   "truncates at the last depth counted")


def _quotient_args(p):
    _add_common(p, quotient=True, workers=False)
    p.add_argument("--report",
                   choices=("summary", "type", "symmetry", "independence"),
                   default="summary")
    p.add_argument("--radius", type=int, default=4,
                   help="probe radius for summary/symmetry/independence")


def _events_args(p):
    _add_common(p, quotient=True)
    p.add_argument("--n", type=int, default=8, help="maximum length")
    p.add_argument("--k", type=int, default=None,
                   help="occurrence threshold (default: full cycle length)")
    p.add_argument("--m", type=int, default=None,
                   help="window half-width (default: unwindowed)")
    p.add_argument("--r", type=int, default=None,
                   help="occurrence allowance (default 0)")
    p.add_argument("--grid", action="store_true",
                   help="emit the (n,k,m,r) profile grid over every k; "
                   "refuses --k, --m and --r")


def _bounds_args(p):
    _add_common(p, graph_help="catalog graph name; its bound is the Z^d "
                "bridge table where it contains Z^d, else the degree bound")
    p.add_argument("--n", type=int, default=10, help="maximum index")


def _ratio_args(p):
    _add_common(p, quotient=True, fmt=False)
    p.add_argument("--deterministic", action="store_true",
                   help="leave the timestamp field out of the certificate")
    p.add_argument("--budget", type=int, default=10,
                   help="search budget (maximum probe length)")
    p.add_argument("--mu-exact", metavar="Q",
                   help="use the constant lower bound Q (rational)")


def _verify_args(p):
    _add_common(p, graph=False, fmt=False, workers=False)
    p.add_argument("certificate", metavar="FILE")


def _augment_args(p):
    _add_common(p)
    p.add_argument("--chord", required=True, metavar="'U V'",
                   help="two vertex keys, e.g. '0:0,0 0:1,1'")
    p.add_argument("--n", type=int, default=0,
                   help="if > 0, count SAWs on the augmented graph")


# name -> (help, command, adds its arguments), in the order help lists them
_COMMANDS = {
    "catalog": ("list built-in graphs", cmd_catalog,
                lambda p: _add_common(p, graph=False, workers=False)),
    "count": ("exact SAW or walk counts", cmd_count, _count_args),
    "quotient": ("build a quotient and report on it", cmd_quotient,
                 _quotient_args),
    "type": ("classify a quotient (shortcut)", cmd_type,
             lambda p: _add_common(p, quotient=True, workers=False)),
    "events": ("pattern-event constrained counts", cmd_events, _events_args),
    "bounds": ("lower-bound sequences b_n", cmd_bounds, _bounds_args),
    "ratio": ("finite-time ratio certificate", cmd_ratio, _ratio_args),
    "verify": ("replay a certificate file", cmd_verify, _verify_args),
    "augment": ("add a chord orbit to a lattice", cmd_augment, _augment_args),
}


def build_parser(names=_COMMANDS) -> argparse.ArgumentParser:
    """The ``saw`` parser with the subparsers of ``names`` (default: all)."""
    ap = argparse.ArgumentParser(
        prog="saw",
        description="Exact self-avoiding-walk enumeration, quotient "
                    "multigraphs, and certified growth-ratio bounds.")
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="SUBCOMMAND")
    for name in names:
        help_, _, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_))
    return ap


def run(argv=None) -> int:
    """Run one ``saw`` invocation (default argv: ``sys.argv[1:]``) and
    return its exit code.

    The parser holds only the subparser that ``argv[0]`` names; with no
    argv, an option first, or an unknown name it holds all of them, so
    the top-level help and the invalid-choice error list every one.  A
    subcommand's help and errors come from its own subparser, and the
    top-level usage hides the choices behind ``SUBCOMMAND``, so the
    bytes printed do not depend on which siblings were built.  Building
    all nine took about ten times as long as one, most of a small job.
    Nothing is kept between calls: a cached parser would spare only
    in-process callers, while this spares every invocation.
    """
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.cmd][1](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
