"""Pattern-event counting on directed quotient SAW enumerations.

A *cycle family* attaches to each orbit the vertex-orbit sets of the
shortest orbit-returning self-avoiding walks through it (their length is
the quotient's directed girth, i.e. the classification length).  While a
directed SAW runs, the pattern event with threshold k occurs at position
j whenever some family set attached to the position-j orbit has at least
k of its members visited by the walk — by the whole walk in the
unwindowed form, or by the positions within j±m in the windowed form
(windows truncate at the walk's ends).  The central quantity is the
exact number of n-step directed SAWs with at most r occurrences.

The zero-occurrence, unwindowed counts are the growth series the ratio
certificate consumes, so they get a dedicated pruned kernel on interned
orbit and family-set ids: each family set carries a live intersection
count with the walk and an anchor count (how many visited orbits it is
attached to), and a branch dies the moment an anchored set's count
reaches k.  Counter growth is monotone along extensions, which is what
makes the pruning sound and lets one pass produce the counts at every
depth.  The kernel's prefixes are merged under the quotient's start
stabiliser, as in :mod:`sawkit.counting`.  The general (windowed /
r > 0) series is one DFS as well: occurrences only accumulate along an
extension, so it prunes once they exceed r, and it re-evaluates only
the positions whose window can still widen.

Event evaluation, and hence every count here, is single-pass
deterministic; worker settings cannot affect the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .counting import (_IdTable, _quotient_maps, _quotient_table,
                       _split_counts)
from .exact import Radical
from .quotient import QuotientGraph, TypeReport, classify_type


class EventError(Exception):
    """Cycle-family construction failed an internal consistency check."""


class EventParameterError(ValueError):
    """Event parameters outside their defined range (e.g. k > cycle length)."""


# ---------------------------------------------------------------------------
# Cycle families
# ---------------------------------------------------------------------------

class CycleFamily:
    """Per-orbit families of orbit-key sets of shortest returning SAWs.

    ``sets_at(orbit)`` lists, for walks through that orbit, every set of
    orbits traced by a length-``length`` SAW of the base graph from the
    orbit's representative back to a different vertex of the same orbit.
    Every such set contains the orbit itself and has exactly ``length``
    members (a repeat inside one would yield a directed cycle shorter
    than the girth).  Sets are built from canonical representatives, so
    the family is constant along each orbit — the translation-closure
    property — and they are cached per orbit, which keeps infinite-orbit
    quotients affordable.

    On a sublattice quotient the sets are built once per cell, at the
    orbit (c, 0), and translated: the translation by x is an automorphism
    of the base graph that carries orbits to orbits, so it carries the
    walks from (c, 0) onto those from (c, x) and the sets at (c, 0) onto
    the sets at (c, x).  Tree quotients build every orbit's sets.

    This family contains *every* girth-length directed cycle through the
    orbit that lifts to a SAW.  That can be a superset of a single
    symmetry orbit of cycles; a larger family only makes the event occur
    more often, which only lowers the zero-occurrence counts and keeps
    everything downstream sound.
    """

    def __init__(self, q: QuotientGraph, length: int):
        if length < 1:
            raise EventParameterError("cycle length must be >= 1")
        self.quotient = q
        self.length = length
        self._cache: dict = {}

    def sets_at(self, orbit) -> tuple:
        got = self._cache.get(orbit)
        if got is None:
            got = self._cache[orbit] = self._translated(orbit)
        return got

    def _translated(self, orbit) -> tuple:
        """The sets at ``orbit``: those at its cell's orbit (c, 0),
        translated by x, on a sublattice quotient; built otherwise."""
        q = self.quotient
        if q.action.kind != "sublattice":
            return self._build(orbit)
        c, x = orbit
        home = (c, (0,) * len(x))
        if orbit == home:
            return self._build(orbit)
        at_home = self._cache.get(home)
        if at_home is None:
            at_home = self._cache[home] = self._build(home)
        return tuple(sorted(
            (frozenset(q.orbit_of((tc, tuple(a + b for a, b in zip(y, x))))
                       for tc, y in s) for s in at_home), key=sorted))

    def _build(self, orbit) -> tuple:
        q, L = self.quotient, self.length
        g = q.base
        rep = q.rep_of(orbit)
        found = set()
        path = [rep]

        def rec():
            if len(path) - 1 == L:
                last = path[-1]
                if last != rep and q.orbit_of(last) == orbit:
                    found.add(frozenset(q.orbit_of(v) for v in path))
                return
            for w in g.expanded_neighbors(path[-1]):
                if w not in path:
                    path.append(w)
                    rec()
                    path.pop()

        rec()
        for s in found:
            if len(s) != L:
                raise EventError(
                    f"family set {sorted(s)!r} at {orbit!r} has "
                    f"{len(s)} orbits, expected {L}")
        return tuple(sorted(found, key=sorted))


def build_cycle_family(q: QuotientGraph, report: Optional[TypeReport] = None,
                       radius: Optional[int] = None) -> CycleFamily:
    """Cycle family at the quotient's classification length.

    ``report`` defaults to a fresh classification; ``radius``, when
    given, caps the accepted cycle length (a guard for callers that can
    only afford a bounded search).
    """
    if report is None:
        report = classify_type(q)
    if radius is not None and report.length > radius:
        raise EventParameterError(
            f"cycle length {report.length} exceeds the radius cap {radius}")
    return CycleFamily(q, report.length)


# ---------------------------------------------------------------------------
# Zero-occurrence series (pruned kernel)
# ---------------------------------------------------------------------------

def _event_free_walker(table: _IdTable, family: CycleFamily, k: int):
    """``run(task, n_total)``: the zero-occurrence counts of the walks
    extending a prefix task (orbit-id path, slot indices, weight), for
    depths len(path)-1 .. n_total.

    State, indexed by orbit id: ``members[o]`` lists the ids of the known
    family sets through o, ``anchors[o]`` the ids of the sets attached to
    o (None until o is first reached).  Indexed by set id: ``live`` is
    the set's intersection count with the walk, ``anchored`` the number
    of visited orbits it is attached to.  A node dies when a set with
    ``anchored`` above zero reaches ``live`` >= k.  Sets are interned
    when an orbit they are attached to is first reached, with ``live``
    counted from the orbits already visited; all other mutations are
    undone on departure, stack-fashion.
    """
    visited, rows, row_of, keys = \
        table.visited, table.rows, table.row, table.keys
    members: list = []
    anchors: list = []
    live: list = []
    anchored: list = []
    set_ids: dict = {}

    def grow():
        members.extend([] for _ in range(len(keys) - len(members)))
        anchors.extend([None] * (len(keys) - len(anchors)))

    def attach(o):
        sids = []
        for s in family.sets_at(keys[o]):
            sid = set_ids.get(s)
            if sid is None:
                sid = set_ids[s] = len(live)
                ids = [table.intern(t) for t in sorted(s)]
                grow()
                for t in ids:
                    members[t].append(sid)
                live.append(sum(visited[t] for t in ids))
                anchored.append(0)
            sids.append(sid)
        grow()
        anchors[o] = sids = tuple(sids)
        return sids

    def run(task, n_total):
        path, _slots, weight = task
        counts = [0] * (n_total - len(path) + 2)
        limit = len(counts) - 1

        # Depths count from the path's endpoint; the path's other orbits
        # sit at negative depths and are replayed, not counted.
        def rec(o, depth, wt):
            anc = anchors[o] if o < len(anchors) else None
            if anc is None:
                anc = attach(o)
            visited[o] = 1
            mem = members[o]
            alive = True
            for s in mem:
                c = live[s] + 1
                live[s] = c
                if c >= k and anchored[s]:
                    alive = False
            for s in anc:
                anchored[s] += 1
                if live[s] >= k:
                    alive = False
            if alive:
                if depth < 0:
                    rec(path[depth], depth + 1, wt)
                else:
                    counts[depth] += wt
                    if depth < limit:
                        for t, m in rows[o] or row_of(o):
                            if not visited[t]:
                                rec(t, depth + 1, wt * m)
            for s in mem:
                live[s] -= 1
            for s in anc:
                anchored[s] -= 1
            visited[o] = 0

        rec(path[0], 1 - len(path), weight)
        return counts

    return run


def _check_event_params(family: CycleFamily, k: int, m: Optional[int],
                        r: int) -> None:
    if k < 1 or k > family.length:
        raise EventParameterError(
            f"threshold k={k} outside 1..{family.length}")
    if m is not None and m < 0:
        raise EventParameterError("window half-width m must be >= 0")
    if r < 0:
        raise EventParameterError("occurrence allowance r must be >= 0")


def event_free_series(q: QuotientGraph, family: CycleFamily, k: int,
                      n_max: int, start=None) -> list:
    """Exact zero-occurrence counts for every depth 0..n_max in one pass.

    Runs on interned orbit ids (see :func:`_event_free_walker` for the
    walk state).  The prefixes of the split are merged under the
    quotient's start stabiliser, whose maps carry the family sets at o
    onto those at the image of o, and every merged task runs inline; a
    task replays the arrivals along its prefix, so a prefix that already
    holds an event adds nothing.
    """
    _check_event_params(family, k, None, 0)
    table, s0 = _quotient_table(q, start)
    # one worker: the walker is a closure, which cannot be pickled
    return _split_counts(table, s0, n_max, 1, _quotient_maps(q, table, s0),
                         table.act, _event_free_walker(table, family, k))


# ---------------------------------------------------------------------------
# General windowed / bounded-occurrence counting
# ---------------------------------------------------------------------------

def _windowed_series(q: QuotientGraph, family: CycleFamily, k: int,
                     m: Optional[int], r: int, n_max: int, start) -> list:
    """The counts at most r occurrences allow, for every depth 0..n_max,
    from one DFS on interned orbit ids.

    ``pos[o]`` is orbit o's position on the walk (-1 off it).  A
    position's window only widens as the walk grows, and the walk's
    orbit set only grows, so a position's event, once it occurs, keeps
    occurring, and a node whose total exceeds r has no counted extension.
    With a window, position j is settled once j + m <= depth (its window
    is full); ``settled`` carries the occurrences among the settled
    positions, and each node re-evaluates only the positions
    depth-m..depth.  Without one no position is ever settled.
    """
    table, s0 = _quotient_table(q, start)
    rows, row_of, keys = table.rows, table.row, table.keys
    sets: list = []
    pos: list = []
    path: list = []
    counts = [0] * (n_max + 1)

    def grow():
        sets.extend([None] * (len(keys) - len(sets)))
        pos.extend([-1] * (len(keys) - len(pos)))

    def sets_at(o):
        got = sets[o]
        if got is None:
            got = sets[o] = tuple(tuple(table.intern(t) for t in sorted(s))
                                  for s in family.sets_at(keys[o]))
            grow()
        return got

    def occurs(j, depth):
        if m is None:
            lo, hi = 0, depth
        else:
            lo, hi = max(0, j - m), j + m
        for s in sets_at(path[j]):
            hits = 0
            for t in s:
                if lo <= pos[t] <= hi:
                    hits += 1
            if hits >= k:
                return True
        return False

    def rec(o, depth, wt, settled):
        pos[o] = depth
        path.append(o)
        first, done = (0, -1) if m is None else (max(0, depth - m), depth - m)
        total = settled
        for j in range(first, depth + 1):
            if occurs(j, depth):
                total += 1
                if total > r:
                    break
                if j == done:
                    settled += 1
        if total <= r:
            counts[depth] += wt
            if depth < n_max:
                row = rows[o]
                if row is None:
                    row = row_of(o)
                    grow()
                for t, mult in row:
                    if pos[t] < 0:
                        rec(t, depth + 1, wt * mult, settled)
        path.pop()
        pos[o] = -1

    grow()
    rec(s0, 0, 1, 0)
    return counts


def event_series(q: QuotientGraph, family: CycleFamily, k: int, n_max: int,
                 m: Optional[int] = None, r: int = 0, start=None) -> list:
    """Exact numbers of directed SAWs from ``start`` (a canonical orbit
    key; the origin's orbit by default) with at most r event occurrences,
    for every depth 0..n_max in one pass.

    ``m`` is the window half-width; ``m=None`` selects the unwindowed
    event, whose occurrences may involve vertices the walk only reaches
    later.  Occurrences are counted over all n+1 walk positions, so only
    ``r >= n+1`` is guaranteed unconstraining.  The unwindowed
    zero-occurrence series comes from :func:`event_free_series`.
    """
    if r == 0 and m is None:
        return event_free_series(q, family, k, n_max, start=start)
    _check_event_params(family, k, m, r)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _windowed_series(q, family, k, m, r, n_max, start)


def count_with_events(q: QuotientGraph, v0, n: int, family: CycleFamily,
                      k: int, m: Optional[int], r: int) -> int:
    """Exact number of n-step directed SAWs from v0 (an orbit key;
    ``None`` means the origin's orbit) with at most r event occurrences:
    entry n of :func:`event_series`."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return event_series(q, family, k, n, m, r, start=v0)[n]


def lambda_upper(q: QuotientGraph, family: CycleFamily, k: int,
                 n: int) -> Radical:
    """Certified upper estimate for the event-avoiding growth rate: the
    exact n-th root of the n-step zero-occurrence count (unwindowed).
    Subadditivity of the log-counts makes every such root an upper bound
    on the limit rate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = event_free_series(q, family, k, n)[n]
    return Radical.nth_root(c, n)


# ---------------------------------------------------------------------------
# Profile grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventProfile:
    """Counts over a parameter grid plus derived growth estimates.

    ``grid`` holds ((n, k, m, r), count) entries sorted by key with
    m=None encoded as -1 for orderability; ``lambdas`` holds
    ((k, n), estimate) pairs for the unwindowed zero-occurrence roots.
    """

    quotient_id: str
    cycle_length: int
    n_max: int
    grid: tuple
    lambdas: tuple

    def count(self, n: int, k: int, m: Optional[int], r: int) -> int:
        key = (n, k, -1 if m is None else m, r)
        for kk, v in self.grid:
            if kk == key:
                return v
        raise KeyError(key)


def build_event_profile(q: QuotientGraph, family: CycleFamily, n_max: int,
                        ks=None, ms=(None,), rs=(0,), start=None) -> EventProfile:
    """Evaluate the event counts over a small parameter grid.

    Defaults probe every threshold up to the cycle length, the unwindowed
    event, and the zero-occurrence column, which is the certificate-facing
    slice; pass explicit ``ms``/``rs`` for wider grids.  Each (k, m, r)
    column comes from one :func:`event_series` pass.
    """
    ks = tuple(range(1, family.length + 1)) if ks is None else tuple(ks)
    entries = []
    lambdas = []
    for k in ks:
        free = None
        for m in ms:
            for r in rs:
                series = event_series(q, family, k, n_max, m, r, start=start)
                if r == 0 and m is None:
                    free = series
                entries.extend(((n, k, -1 if m is None else m, r), c)
                               for n, c in enumerate(series))
        if free is None:
            free = event_free_series(q, family, k, n_max, start=start)
        for n in range(1, n_max + 1):
            lambdas.append(((k, n), Radical.nth_root(free[n], n)))
    return EventProfile(q.quotient_id, family.length, n_max,
                        tuple(sorted(entries)), tuple(lambdas))
