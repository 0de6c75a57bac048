"""Span tracer for the benchmark's traced run.

Wrappers are patched around the public entry points of each ``sawkit``
module for the duration of a traced pass and removed afterwards.  A name
is replaced in every ``sawkit`` module namespace that holds it, because
``cli`` and ``certificate`` import functions directly; methods are
replaced on their class.

Every wrapped call is a span with a name, start, end and parent.  A
layer's self time is its spans' duration minus the part covered by child
spans.  Spans are kept in memory and written out when the run ends.
Leaf layers called millions of times a pass (``graphs.reduce_word``,
``exact.radical``, ``exact.interval``) feed the same per-layer totals
and their parents' child time, but are not stored one by one, which
keeps memory flat.

``walks`` is the sum of the series a counting call returned: exact and
independent of the machine and of how the kernel reaches it.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Layers whose entry points count walks; each also reports walks_per_s.
ENUM_LAYERS = ("counting.packed", "counting.generic", "counting.quotient",
               "events.event_free", "events.windowed", "bounds.bridge")
TIMED_LAYERS = ("graphs.reduce_word", "quotient.build", "certificate.certify",
                "certificate.search", "certificate.stage2",
                "certificate.verify", "exact.radical", "exact.interval", "cli")
LEAF_LAYERS = frozenset(("graphs.reduce_word", "exact.radical",
                         "exact.interval"))


def _sum_series(result):
    return sum(result.counts) if hasattr(result, "counts") else sum(result)


class LayerStats:
    __slots__ = ("calls", "self_s", "incl_s", "walks")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.walks = 0


class Tracer:
    """Collects spans and per-layer totals while its wrappers are patched in."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent id]
        self.stats = {}
        self.recounts = 0        # count_saws calls made inside certify_ratio
        self._stack = []         # open frames: [id, name, start, child time]
        self._next_id = 0
        self._certifying = 0
        self._patched = []       # (owner, attribute, original)

    def self_times(self) -> dict:
        return {name: st.self_s for name, st in self.stats.items()}

    def reset_pass(self):
        self.stats = {}
        self.recounts = 0

    # -- spans ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, walks_of=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = LayerStats()
            st.calls += 1
            st.self_s += dur - frame[3]
            st.incl_s += dur
            if self._stack:
                self._stack[-1][3] += dur
            if name not in LEAF_LAYERS:
                self.spans.append([sid, name, frame[2], end, parent])
        if walks_of is not None:
            st.walks += walks_of(result)
        return result

    def _wrap(self, fn, name, walks_of=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, walks_of)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def install(self, sk):
        """Patch wrappers into the freshly imported package ``sk``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "sawkit" or n.startswith("sawkit.")]
        counting, events, certificate = sk.counting, sk.events, sk.certificate
        lattice_cls = sk.graphs.PeriodicLattice

        count_saws = counting.count_saws
        count_sig = inspect.signature(count_saws)

        def count_saws_wrapper(*args, **kwargs):
            a = count_sig.bind(*args, **kwargs).arguments
            packed = (isinstance(a["g"], lattice_cls)
                      and a.get("max_nodes") is None)
            if self._certifying:
                self.recounts += 1
            name = "counting.packed" if packed else "counting.generic"
            return self._call(name, count_saws, args, kwargs, _sum_series)
        self._replace_everywhere(modules, count_saws, count_saws_wrapper)

        count_with_events = events.count_with_events
        events_sig = inspect.signature(count_with_events)

        def count_with_events_wrapper(*args, **kwargs):
            a = events_sig.bind(*args, **kwargs).arguments
            if a["m"] is None and a["r"] == 0:
                # delegates to event_free_series, which is traced itself
                return count_with_events(*args, **kwargs)
            return self._call("events.windowed", count_with_events, args,
                              kwargs, int)
        self._replace_everywhere(modules, count_with_events,
                                 count_with_events_wrapper)

        certify_ratio = certificate.certify_ratio

        def certify_wrapper(*args, **kwargs):
            self._certifying += 1
            try:
                return self._call("certificate.certify", certify_ratio,
                                  args, kwargs)
            finally:
                self._certifying -= 1
        self._replace_everywhere(modules, certify_ratio, certify_wrapper)

        for fn, name, walks_of in (
                (counting.count_directed_saws, "counting.quotient",
                 _sum_series),
                (events.event_free_series, "events.event_free", _sum_series),
                (sk.bounds.bridge_counts, "bounds.bridge", _sum_series),
                (sk.quotient.build_quotient, "quotient.build", None),
                (sk.quotient.classify_type, "quotient.build", None),
                (events.build_cycle_family, "quotient.build", None),
                (certificate.find_epsilon_m, "certificate.search", None),
                (certificate.compute_R, "certificate.stage2", None),
                (certificate.compute_S, "certificate.stage2", None),
                (certificate.verify_certificate, "certificate.verify", None),
                (sk.cli.run, "cli", None)):
            self._replace_everywhere(modules, fn,
                                     self._wrap(fn, name, walks_of))

        self._replace_method(sk.graphs.CayleyGraph, "reduce_word",
                             "graphs.reduce_word")
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            self._replace_method(sk.exact.Radical, op, "exact.radical")
        for op in ("log", "log1p", "exp"):
            self._replace_method(sk.exact.Interval, op, "exact.interval")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")
