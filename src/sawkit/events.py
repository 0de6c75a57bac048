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

Every series is counted by :meth:`sawkit.counting._Split.counts` on
interned orbit and family-set ids (:func:`_quotient_series`), through
the caller's orbit split of the quotient
(:func:`sawkit.counting._orbit_split`) or one of its own: its prefixes
are merged under the quotient's start stabiliser maps, which act on
slots and carry the cycle family onto itself, and where the stabiliser
is the identity alone, the walker runs once from the root.  Below full
rank the directed counts run on the quotient's free lattice instead,
but an event series never does: that lattice's own maps need not carry
the family (on square-octagon / (1 -1) its reflection does not, and
merging under it gives 14 event-free 4-step walks, not 16), so an
event series refuses a free-lattice split.  One walker,
:func:`_event_counts_from`, counts every (k, m, r): it keeps each set's
live intersection count with the walk and marks a position once, when
it occurs; the unwindowed zero-occurrence counts, which the ratio
certificate consumes, are its case m=None, r=0.  Occurrences only
accumulate along an extension, so a branch dies once they exceed r, and
one pass gives every depth.  The walker vets its own prefixes: it
replays a prefix's arrivals, and one that already holds more than r
occurrences counts zeros.  It is bound with ``partial``, as the SAW and
bridge walkers are, so it pickles and honours ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Optional

from .counting import _IdTable, _orbit_split, _Split
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
# The event walker on interned orbit and family-set ids
# ---------------------------------------------------------------------------

def _event_counts_from(task, table: _IdTable, family: CycleFamily, k: int,
                       m: Optional[int], r: int, sets: tuple, n_total: int):
    """The counts at most r occurrences allow of the walks extending a
    prefix task (orbit-id path, slot indices, weight), for depths
    len(path)-1 .. n_total.

    ``sets`` is the interned state, kept for the count as the table is.
    ``set_ids`` maps a family set to its id; ``pos[o]`` is orbit o's
    position on the walk: -1 off it, -2 until o is first reached and the
    sets attached to it are interned.  Per set id, ``mems`` holds the
    member ids, ``owners`` the orbits the set is attached to and ``live``
    its members on the walk, counted when the set is interned and kept
    stack-fashion after; ``through[o]`` lists the sets containing o.
    Every set contains the orbits it is attached to.

    A window only widens as the walk grows, so an occurrence never goes
    away and a position is marked once, when it occurs, by the node that
    undoes the mark.  The sets through the orbit at a new position d
    reach d and every earlier position whose window holds d; no other
    position gained a member, and none other is evaluated.  A set can
    hold k members in a window only with ``live`` >= k, which is the
    whole test when m is None.  A node whose marks exceed r has no
    counted extension.
    """
    set_ids, pos, through, mems, owners, live = sets
    keys, intern = table.keys, table.intern
    rows, row_of = table.rows, table.row

    def grow():
        n = len(keys)
        pos.extend([-2] * (n - len(pos)))
        through.extend([] for _ in range(n - len(through)))

    def attach(o):
        for s in family.sets_at(keys[o]):
            sid = set_ids.get(s)
            if sid is None:
                sid = set_ids[s] = len(mems)
                mems.append(tuple(map(intern, sorted(s))))
                owners.append([])
                grow()
                for t in mems[sid]:
                    through[t].append(sid)
                live.append(sum(pos[t] >= 0 for t in mems[sid]))
            owners[sid].append(o)

    def held(s, lo):
        """Whether set s has k members at positions lo.. of the walk."""
        c = 0
        for t in mems[s]:
            if pos[t] >= lo:
                c += 1
        return c >= k

    path, _slots, weight = task
    base = len(path) - 1
    counts = [0] * (n_total - base + 1)
    marked = bytearray(n_total + 1)
    # without a window every window is the whole walk, as with m = n
    w = n_total if m is None else m
    grow()

    # the path's orbits before its endpoint are replayed, not counted
    def rec(o, d, wt, occ):
        if pos[o] == -2:
            attach(o)
        pos[o] = d
        # Position j's window [j - w, j + w] holds d when j >= lo, and
        # then the walk ends inside it: only its lower end can leave a
        # member out, none when j <= w, where live >= k decides.
        lo = d - w if d > w else 0
        new = []
        for s in through[o]:
            c = live[s] = live[s] + 1
            if c >= k and occ <= r:
                for a in owners[s]:
                    j = pos[a]
                    if j >= lo and not marked[j] and (
                            j <= w or held(s, j - w)):
                        marked[j] = 1
                        new.append(j)
                        occ += 1
                        if occ > r:
                            break
        if occ <= r:
            if d < base:
                rec(path[d + 1], d + 1, wt, occ)
            else:
                counts[d - base] += wt
                if d < n_total:
                    row = rows[o]
                    if row is None:
                        row = row_of(o)
                        grow()
                    for t, mult in row:
                        if pos[t] < 0:
                            rec(t, d + 1, wt * mult, occ)
        for s in through[o]:
            live[s] -= 1
        for j in new:
            marked[j] = 0
        pos[o] = -1

    rec(path[0], 0, weight, 0)
    rec = None      # break the closure's cycle, which holds the table
    return counts


def _quotient_series(q: QuotientGraph, family: CycleFamily, k: int,
                     n_max: int, m: Optional[int], r: int, start,
                     workers: Optional[int],
                     split: Optional[_Split] = None) -> list:
    """The counts of :func:`_event_counts_from`, bound with ``partial``
    and so picklable, for depths 0..n_max, through ``split`` (see
    :func:`sawkit.counting.count_directed_saws`) or a split of its own:
    an id table of q's orbit keys with its prefixes merged under the
    start stabiliser, whose maps carry the family sets at o onto those
    at the image of o and keep every orbit's position on the walk."""
    if k < 1 or k > family.length:
        raise EventParameterError(
            f"threshold k={k} outside 1..{family.length}")
    if m is not None and m < 0:
        raise EventParameterError("window half-width m must be >= 0")
    if r < 0:
        raise EventParameterError("occurrence allowance r must be >= 0")
    walker = partial(_event_counts_from, family=family, k=k, m=m, r=r,
                     sets=({}, [], [], [], [], []))
    if split is None:
        split = _orbit_split(q, start, n_max)
    elif split.table.source != q.drow:
        raise ValueError("event series are counted on the quotient's orbit "
                         "keys, not on its free lattice")
    return split.counts(q, start, n_max, workers, walker)


def event_free_series(q: QuotientGraph, family: CycleFamily, k: int,
                      n_max: int, start=None,
                      workers: Optional[int] = None,
                      split: Optional[_Split] = None) -> list:
    """Exact zero-occurrence counts of the unwindowed event for every
    depth 0..n_max in one pass: :func:`event_series` with m=None, r=0.
    A task replays the arrivals along its prefix, so a prefix that
    already holds an event adds nothing.  ``split``, from
    ``_orbit_split(q, start, bound)``, is a run's table to count on, as
    for :func:`sawkit.counting.count_directed_saws`."""
    return _quotient_series(q, family, k, n_max, None, 0, start, workers,
                            split)


def event_series(q: QuotientGraph, family: CycleFamily, k: int, n_max: int,
                 m: Optional[int] = None, r: int = 0, start=None,
                 workers: Optional[int] = None) -> list:
    """Exact numbers of directed SAWs from ``start`` (a canonical orbit
    key; the origin's orbit by default) with at most r event occurrences,
    for every depth 0..n_max in one pass.

    ``m`` is the window half-width; ``m=None`` selects the unwindowed
    event, whose occurrences may involve vertices the walk only reaches
    later.  Occurrences are counted over all n+1 walk positions, so only
    ``r >= n+1`` is guaranteed unconstraining.  Every series comes from
    :func:`_event_counts_from` through one split on ``workers``
    (default: ``SAW_WORKERS`` or 1); the unwindowed zero-occurrence
    series is :func:`event_free_series`.
    """
    if r == 0 and m is None:
        return event_free_series(q, family, k, n_max, start, workers)
    return _quotient_series(q, family, k, n_max, m, r, start, workers)


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
                        ks=None, ms=(None,), rs=(0,), start=None,
                        workers: Optional[int] = None) -> EventProfile:
    """Evaluate the event counts over a small parameter grid.

    Defaults probe every threshold up to the cycle length, the unwindowed
    event, and the zero-occurrence column, which is the certificate-facing
    slice; pass explicit ``ms``/``rs`` for wider grids.  Each (k, m, r)
    column comes from one :func:`event_series` pass.
    """
    ks = tuple(range(1, family.length + 1)) if ks is None else tuple(ks)
    entries, lambdas = [], []
    for k in ks:
        free = None
        for m, r in product(ms, rs):
            series = event_series(q, family, k, n_max, m, r, start, workers)
            if r == 0 and m is None:
                free = series
            entries.extend(((n, k, -1 if m is None else m, r), c)
                           for n, c in enumerate(series))
        if free is None:
            free = event_free_series(q, family, k, n_max, start, workers)
        for n in range(1, n_max + 1):
            lambdas.append(((k, n), Radical.nth_root(free[n], n)))
    return EventProfile(q.quotient_id, family.length, n_max,
                        tuple(sorted(entries)), tuple(lambdas))
