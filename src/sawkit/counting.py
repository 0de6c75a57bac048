"""Exact counting of self-avoiding walks, directed quotient SAWs, and walks.

All counts are exact Python integers.  The engines are:

* a packed-integer depth-first kernel for periodic lattices — vertices are
  encoded as single integers so the visited set is a set of ints and each
  step is one addition;
* a generic keyed kernel for any handle (trees, word graphs, derived
  graphs), with parallel-edge weights;
* a directed quotient kernel on integer orbit ids, interned per call on
  first sight with lazily built (target id, multiplicity) rows, so
  infinite quotients cost only what the walks reach;
* closed forms for acyclic regular handles, where a SAW is exactly a
  non-backtracking walk: sigma_n = d(d-1)**(n-1);
* frontier dynamic programming for (not necessarily self-avoiding) walks.

Parallel runs partition the search by short prefixes and sum exact integer
subtree counts.  Integer addition is associative and commutative, so the
worker count and scheduling cannot change any output; the test-suite
compares 1-worker and multi-worker runs bit for bit.

On a periodic lattice the prefixes are first merged under the start
vertex's stabiliser (:func:`lattice_stabiliser`): an automorphism fixing
the start carries the SAWs extending one prefix bijectively onto those
extending its image, so each orbit's subtree is enumerated once and
weighted by the orbit's summed prefix weight.  On a sublattice quotient
the stabiliser maps that normalise the sublattice and fix the start
orbit descend to the quotient and merge its prefixes the same way
(:func:`_merge_prefixes` serves both).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, permutations, product
from typing import Callable, Optional

from .exact import Radical
from .graphs import GraphHandle, PeriodicLattice
from .quotient import QuotientGraph


class BudgetExceeded(Exception):
    """Internal signal: node budget exhausted mid-depth."""


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkCounts:
    """Exact counts sigma_0..sigma_N from one start vertex.

    ``truncated`` marks a node-budget run that stopped early: ``counts``
    then holds only the depths that were fully enumerated.
    """

    graph_id: str
    start: object
    directed: bool
    counts: tuple
    truncated: bool = False

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def sigma(self, n: int) -> int:
        return self.counts[n]

    def a(self, n: int) -> Radical:
        """Exact upper estimate sigma_n**(1/n) (n >= 1)."""
        if n < 1:
            raise ValueError("a(n) wants n >= 1")
        return Radical.nth_root(self.counts[n], n)

    def a_float(self, n: int) -> float:
        return float(self.a(n))

    def rows(self) -> list:
        """(n, sigma_n, a_n) rows for n >= 1, ready for CSV/JSON export."""
        return [(n, self.counts[n], self.a_float(n))
                for n in range(1, len(self.counts))]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else the SAW_WORKERS environment variable, else 1."""
    if workers is None:
        env = os.environ.get("SAW_WORKERS", "").strip()
        workers = int(env) if env else 1
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# Packed-integer lattice kernel
# ---------------------------------------------------------------------------
#
# A lattice vertex (cell, x) with |x_i| bounded by B is encoded as
#     cell + C * sum_i (x_i + B) * W**i        with W = 2B + 1,
# so a neighbor step is the addition of a precomputed integer and the
# visited set is a set of machine-sized ints.  B is derived from the walk
# length and the largest edge offset, which bounds every reachable
# coordinate.

def _lattice_codec(lat: PeriodicLattice, n_max: int):
    maxoff = max((abs(c) for _, _, off, _ in lat.edges for c in off), default=1)
    B = maxoff * max(n_max, 1) + 1
    W = 2 * B + 1
    C = lat.cells
    weights = [C]
    for _ in range(lat.dimension - 1):
        weights.append(weights[-1] * W)

    def encode(v):
        c, x = v
        return c + sum((xi + B) * w for xi, w in zip(x, weights))

    moves = []
    for cell in range(C):
        row = []
        for (tc, delta, m) in lat.slot_table()[cell]:
            add = (tc - cell) + sum(di * w for di, w in zip(delta, weights))
            row.append((add, m))
        moves.append(tuple(row))
    return tuple(moves), encode


def _packed_counts_from(task, moves=None, n_total=0, simple=True):
    """Counts for depths len(prefix)-1 .. n_total from a prefix task
    (encoded path, slot indices, weight): the path's vertices are already
    visited, and its endpoint is counted here, earlier depths are not.

    The default-argument bindings below turn every hot name into a local;
    this loop dominates large lattice enumerations.
    """
    prefix, _slots, weight = task
    base = len(prefix) - 1
    counts = [0] * (n_total - base + 1)
    counts[0] = weight
    if base == n_total:
        return counts
    visited = set(prefix)
    limit = n_total - base
    ncells = len(moves)
    start = prefix[-1]

    if simple:
        smoves = tuple(tuple(add for add, _m in row) for row in moves)
        if ncells == 1:
            row0 = smoves[0]

            def rec(v, depth, row=row0, visited=visited, counts=counts,
                    limit=limit, vadd=visited.add, vrem=visited.remove):
                nd = depth + 1
                for add in row:
                    w = v + add
                    if w not in visited:
                        counts[nd] += 1
                        if nd < limit:
                            vadd(w)
                            rec(w, nd)
                            vrem(w)
        else:
            def rec(v, depth, smoves=smoves, ncells=ncells, visited=visited,
                    counts=counts, limit=limit, vadd=visited.add,
                    vrem=visited.remove):
                nd = depth + 1
                for add in smoves[v % ncells]:
                    w = v + add
                    if w not in visited:
                        counts[nd] += 1
                        if nd < limit:
                            vadd(w)
                            rec(w, nd)
                            vrem(w)

        rec(start, 0)
        if weight != 1:
            counts = [c * weight if i else c for i, c in enumerate(counts)]
    else:
        def rec(v, depth, wt, moves=moves, ncells=ncells, visited=visited,
                counts=counts, limit=limit, vadd=visited.add,
                vrem=visited.remove):
            nd = depth + 1
            for add, m in moves[v % ncells]:
                w = v + add
                if w not in visited:
                    counts[nd] += wt * m
                    if nd < limit:
                        vadd(w)
                        rec(w, nd, wt * m)
                        vrem(w)

        rec(start, 0, weight)
    return counts


# ---------------------------------------------------------------------------
# Start-vertex stabiliser of a periodic lattice
# ---------------------------------------------------------------------------
#
# A map (c, x) -> (pi[c], P.x + t[c]) with P a signed permutation is an
# automorphism exactly when it carries every slot of every cell onto a
# slot of equal multiplicity.  Maps fixing (cell, 0) act on SAWs from that
# vertex through their slot tables alone, so prefixes are canonicalised on
# slot-index sequences and no vertex is ever decoded.
#
# Merging under any set of automorphisms that fix the start is sound, so
# the search is bounded: at most _MAX_MAPS signed permutations are tried
# (all of them for d <= 3) and at most _MAX_MAPS maps are kept.  Above
# that only part of the group is found, which merges fewer prefixes.

_MAX_MAPS = 48


def _signed_perms(d: int):
    """Signed permutations P as ((axis, sign), ...), meaning
    (P.x)_i = sign_i * x[axis_i], generated lazily; the identity first."""
    for axes in permutations(range(d)):
        for signs in product((1, -1), repeat=d):
            yield tuple(zip(axes, signs))


def _slot_target(index, P, pi, t, c, tc, delta):
    """The slot of cell pi[c] onto which the slot (tc, delta) of cell c is
    carried, or None if pi[c] has no such slot."""
    return index[pi[c]].get((pi[tc], tuple(
        s * delta[a] + b - x for (a, s), b, x in zip(P, t[tc], t[c]))))


def _cell_maps(slots, index, P, c0):
    """Every (pi, t) with pi[c0] = c0 and t[c0] = 0 that carries each slot
    between mapped cells onto a slot of equal multiplicity.

    The slot table is walked from cell c0: each slot that reaches a new
    cell is tried against every slot of equal multiplicity of its image
    cell, which fixes the new cell's image and offset.  A branch is cut as
    soon as a slot between the new cell and a mapped one has no image.
    """
    def fits(pi, t, new):
        for c in pi:
            for tc, delta, m in slots[c]:
                if (c == new or tc == new) and tc in pi:
                    k = _slot_target(index, P, pi, t, c, tc, delta)
                    if k is None or slots[pi[c]][k][2] != m:
                        return False
        return True

    def extend(pi, t):
        for c in pi:
            for tc, delta, m in slots[c]:
                if tc in pi:
                    continue
                used = set(pi.values())
                for tc2, d2, m2 in slots[pi[c]]:
                    if m2 == m and tc2 not in used:
                        # d2 = P.delta + t[tc] - t[c]
                        ttc = tuple(b + x - s * delta[a]
                                    for (a, s), b, x in zip(P, d2, t[c]))
                        pi2, t2 = {**pi, tc: tc2}, {**t, tc: ttc}
                        if fits(pi2, t2, tc):
                            yield from extend(pi2, t2)
                return
        yield pi, t

    pi, t = {c0: c0}, {c0: (0,) * len(P)}
    if fits(pi, t, c0):
        yield from extend(pi, t)


def lattice_stabiliser(lat: PeriodicLattice, cell: int = 0,
                       fix_first: bool = False) -> tuple:
    """Automorphisms of ``lat`` fixing the vertex (cell, 0), each a plain
    tuple (P, pi, t, table) acting by (c, x) -> (pi[c], P.x + t[c]).

    ``table[c][k]`` is the slot of cell pi[c] onto which slot k of cell c
    is carried.  Cells that walks from ``cell`` never reach are left
    fixed.  With ``fix_first`` only maps with P.e_1 = e_1 are kept (for
    Z^d bridges).  A map is kept only if it carries every slot onto a slot
    of equal multiplicity, which is all that merging needs for soundness.
    The search stops after _MAX_MAPS signed permutations or _MAX_MAPS
    maps, so above dimension 3 only part of the group is found.  The
    identity comes first.
    """
    slots = lat.slot_table()
    index = [{(tc, delta): k for k, (tc, delta, _m) in enumerate(row)}
             for row in slots]
    perms = (P for P in _signed_perms(lat.dimension)
             if not fix_first or P[0] == (0, 1))
    found: dict = {}
    for P in islice(perms, _MAX_MAPS):
        for pi, t in _cell_maps(slots, index, P, cell):
            table = tuple(
                tuple(_slot_target(index, P, pi, t, c, tc, delta)
                      for tc, delta, _m in row)
                if c in pi else tuple(range(len(row)))
                for c, row in enumerate(slots))
            found.setdefault(table, (
                P, tuple(pi.get(c, c) for c in range(lat.cells)),
                tuple(t.get(c, (0,) * lat.dimension)
                      for c in range(lat.cells)), table))
            if len(found) == _MAX_MAPS:
                return tuple(found.values())
    return tuple(found.values())


def _merge_prefixes(steps, act, start, pdepth, maps):
    """One task (path, slot indices, weight) per orbit of ``maps`` on the
    SAW prefixes of pdepth steps from ``start``; the weight sums the
    orbit's prefix weights.

    ``steps(v)`` lists the slots (next vertex, multiplicity) out of v and
    ``act(map, v, k)`` the slot onto which a map fixing v carries slot k.
    Prefixes grow one step at a time.  The maps that fix a prefix fix its
    endpoint, so they act on its next step; steps in one orbit of that
    action share the subtree counts of the first of them, which is kept
    with their summed weight and with the maps that also fix it.
    """
    level = [((start,), (), 1, tuple(maps))]
    for _ in range(pdepth):
        grown = []
        for path, slots, weight, stab in level:
            v = path[-1]
            orbits: dict = {}
            for k, (w, m) in enumerate(steps(v)):
                if w in path:
                    continue
                images = [act(s, v, k) for s in stab]
                key = min(images)
                if key in orbits:
                    orbits[key][2] += weight * m
                else:
                    orbits[key] = [path + (w,), slots + (k,), weight * m,
                                   tuple(s for s, j in zip(stab, images)
                                         if j == k)]
            grown.extend(orbits.values())
        level = grown
    return [(path, slots, weight) for path, slots, weight, _ in level]


def _orbit_prefixes(moves, start, pdepth, maps):
    """:func:`_merge_prefixes` on the packed encoding of a lattice, under
    stabiliser maps of :func:`lattice_stabiliser`, which act on the slots
    of a vertex's cell through their tables."""
    ncells = len(moves)

    def steps(v):
        return [(v + add, m) for add, m in moves[v % ncells]]

    def act(table, v, k):
        return table[v % ncells][k]

    return _merge_prefixes(steps, act, start, pdepth,
                           [table for *_, table in maps])


# ---------------------------------------------------------------------------
# Interned quotient orbits
# ---------------------------------------------------------------------------
#
# The directed quotient kernels run on integer orbit ids.  A table made
# when counting starts interns orbit keys on first sight and builds
# adjacency rows lazily, so infinite quotients cost only what the walks
# reach.  Neither the table nor the maps below are stored on the
# quotient: the maps are closures, and the quotient must stay picklable
# for the worker pool.
#
# Automorphisms of the base lattice that fix the start cell's origin and
# normalise the translation sublattice L (P.L = L) descend to the
# quotient: (c, x) -> (pi[c], P.x + t[c]) carries the orbit of (c, x) to
# the orbit of its image, and directed quotient SAWs onto directed
# quotient SAWs of equal weight.  Those that also fix the start orbit
# merge quotient prefixes exactly as the lattice stabiliser merges
# lattice prefixes.

class _OrbitTable:
    """Orbit keys of one quotient interned as ids 0, 1, 2, ... on first
    sight.  ``rows[i]`` is None until :meth:`row` builds it as a tuple of
    (target id, multiplicity); ``visited`` is a bytearray indexed by id."""

    def __init__(self, q: QuotientGraph):
        self.q = q
        self.ids: dict = {}
        self.keys: list = []
        self.rows: list = []
        self.visited = bytearray()

    def intern(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(None)
            self.visited.append(0)
        return i

    def row(self, i: int) -> tuple:
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = tuple(
                (self.intern(t), m) for t, m in self.q.drow(self.keys[i]))
        return row

    def act(self, sigma, i: int, k: int) -> int:
        """The slot of row i onto which ``sigma`` (fixing i) carries
        slot k."""
        row = self.row(i)
        t = sigma(row[k][0])
        return next(j for j, (u, _m) in enumerate(row) if u == t)


def _orbit_map(table: _OrbitTable, P, pi, t):
    """The lattice map (c, x) -> (pi[c], P.x + t[c]) acting on the
    table's orbit ids, each image computed on first use."""
    images: dict = {}
    q = table.q

    def sigma(i: int) -> int:
        j = images.get(i)
        if j is None:
            c, x = table.keys[i]
            j = images[i] = table.intern(q.orbit_of((pi[c], tuple(
                s * x[a] + b for (a, s), b in zip(P, t[c])))))
        return j
    return sigma


def _quotient_maps(table: _OrbitTable, start: int) -> tuple:
    """Maps of ``lattice_stabiliser(q.base, start cell)`` that descend to
    the table's quotient q and fix the start orbit, as functions on the
    table's orbit ids; the identity comes first.

    A map descends when P.h lies in L for each generator h of L; that
    containment gives P.L = L because P has finite order.  Tree actions
    get the identity only.
    """
    q = table.q
    if q.action.kind != "sublattice":
        return (lambda i: i,)
    c0 = table.keys[start][0]
    zero = (0,) * q.base.dimension
    kept = []
    for P, pi, t, _slots in lattice_stabiliser(q.base, c0):
        if all(q.orbit_of((0, tuple(s * h[a] for a, s in P)))[1] == zero
               for h in q.action.rows):
            sigma = _orbit_map(table, P, pi, t)
            if sigma(start) == start:
                kept.append(sigma)
    return tuple(kept)


def _quotient_prefixes(table: _OrbitTable, start: int, pdepth: int):
    """The merged prefix tasks of a directed quotient walk from ``start``."""
    return _merge_prefixes(table.row, table.act, start, pdepth,
                           _quotient_maps(table, start))


def _quotient_counts_from(task, table=None, n_total=0):
    """Weighted directed SAW counts for depths len(prefix)-1 .. n_total
    from a prefix task (orbit-id path, slot indices, weight); the
    prefix's endpoint is counted here, earlier depths are not."""
    prefix, _slots, weight = task
    base = len(prefix) - 1
    counts = [0] * (n_total - base + 1)
    counts[0] = weight
    if base == n_total:
        return counts
    visited = table.visited
    for o in prefix:
        visited[o] = 1

    def rec(o, depth, wt, rows=table.rows, row_of=table.row,
            visited=visited, counts=counts, limit=n_total - base):
        nd = depth + 1
        row = rows[o] or row_of(o)
        if nd == limit:
            for t, m in row:
                if not visited[t]:
                    counts[nd] += wt * m
            return
        for t, m in row:
            if not visited[t]:
                w = wt * m
                counts[nd] += w
                visited[t] = 1
                rec(t, nd, w)
                visited[t] = 0

    rec(prefix[-1], 0, weight)
    for o in prefix:
        visited[o] = 0
    return counts


# ---------------------------------------------------------------------------
# Generic keyed kernels
# ---------------------------------------------------------------------------

def _generic_counts_from(neigh: Callable, prefix: tuple, weight: int,
                         n_total: int, node_cap: Optional[list] = None):
    """Weighted SAW DFS over hashable keys from an already-visited prefix.

    ``neigh(u)`` yields (key, multiplicity) pairs in deterministic order.
    ``node_cap`` is a one-element [remaining] list decremented per
    expanded node; hitting zero raises BudgetExceeded.
    """
    base = len(prefix) - 1
    counts = [0] * (n_total - base + 1)
    counts[0] = weight
    if base == n_total:
        return counts
    visited = set(prefix)
    limit = n_total - base

    def rec(u, depth, wt):
        if node_cap is not None:
            node_cap[0] -= 1
            if node_cap[0] < 0:
                raise BudgetExceeded
        nd = depth + 1
        for w, m in neigh(u):
            if w not in visited:
                counts[nd] += wt * m
                if nd < limit:
                    visited.add(w)
                    rec(w, nd, wt * m)
                    visited.remove(w)

    rec(prefix[-1], 0, weight)
    return counts


def _graph_neigh(g: GraphHandle):
    def neigh(u):
        return [(w, m) for (w, _lab, m) in g.neighbors(u)]
    return neigh


def _generic_prefixes(neigh, start, pdepth):
    head = [0] * pdepth
    head[0] = 1
    tasks = []

    def rec(path, weight, depth):
        for w, m in neigh(path[-1]):
            if w not in path:
                nw = weight * m
                if depth + 1 == pdepth:
                    tasks.append((path + (w,), nw))
                else:
                    head[depth + 1] += nw
                    rec(path + (w,), nw, depth + 1)

    rec((start,), 1, 0)
    return head, tasks


def _graph_task(task, g=None, n_total=0):
    prefix, weight = task
    return _generic_counts_from(_graph_neigh(g), prefix, weight, n_total)


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _note_clamp(workers: int, cpus: int) -> None:
    print(f"note: {workers} workers requested, {cpus} CPUs available; "
          f"using at most {cpus}", file=sys.stderr)


def _run_split(head, tasks, task_fn, n_max: int, pdepth: int, workers: int):
    """Head counts (depths below pdepth) followed by the summed task counts.

    At most min(workers, CPU count, task count) processes are started; a
    request above the CPU count is noted once on stderr.
    """
    tail = [0] * (n_max - pdepth + 1)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        _note_clamp(workers, cpus)
    procs = min(workers, cpus, len(tasks))
    if procs > 1:
        chunk = max(1, len(tasks) // (4 * procs))
        with ProcessPoolExecutor(max_workers=procs) as ex:
            parts = list(ex.map(task_fn, tasks, chunksize=chunk))
    else:
        parts = [task_fn(t) for t in tasks]
    for p in parts:
        for i, v in enumerate(p):
            tail[i] += v
    return list(head) + tail


def _choose_pdepth(n_max: int, workers: int = 1) -> int:
    # Deeper prefixes give the pool more tasks to balance; single-worker
    # runs keep the split shallow (it is executed inline either way).
    if workers > 1 and n_max >= 8:
        return 4
    return min(3, n_max)


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------

def count_saws(g: GraphHandle, v0=None, n_max: int = 0,
               workers: Optional[int] = None,
               max_nodes: Optional[int] = None) -> WalkCounts:
    """Exact sigma_0..sigma_n_max from v0 (default: the origin).

    Parallel edges count as distinct SAWs.  With ``max_nodes`` set, the
    enumeration runs depth by depth under a cumulative node budget and
    returns a truncated result (``truncated=True``) containing the depths
    that completed; without it the fastest kernel for the handle is used.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    v0 = g.origin() if v0 is None else v0
    g.validate_key(v0)
    workers = resolve_workers(workers)

    if max_nodes is not None:
        return _budgeted_saws(g, v0, n_max, max_nodes)

    if g.is_acyclic and n_max >= 1:
        # SAW == non-backtracking walk on a tree: d*(d-1)**(n-1) exactly.
        d = g.degree
        counts = [1] + [d * (d - 1) ** (n - 1) for n in range(1, n_max + 1)]
        return WalkCounts(g.graph_id, v0, False, tuple(counts))

    if isinstance(g, PeriodicLattice):
        moves, encode = _lattice_codec(g, n_max)
        simple = all(m == 1 for row in moves for _, m in row)
        pdepth = _choose_pdepth(n_max, workers)
        if pdepth == 0:
            return WalkCounts(g.graph_id, v0, False, (1,))
        start = encode(v0)
        head = _packed_counts_from(((start,), (), 1), moves, pdepth - 1,
                                   simple)
        tasks = _orbit_prefixes(moves, start, pdepth,
                                lattice_stabiliser(g, v0[0]))
        fn = partial(_packed_counts_from, moves=moves, n_total=n_max,
                     simple=simple)
        counts = _run_split(head, tasks, fn, n_max, pdepth, workers)
        return WalkCounts(g.graph_id, v0, False, tuple(counts))

    neigh = _graph_neigh(g)
    pdepth = _choose_pdepth(n_max, workers)
    if pdepth == 0:
        return WalkCounts(g.graph_id, v0, False, (1,))
    head, tasks = _generic_prefixes(neigh, v0, pdepth)
    fn = partial(_graph_task, g=g, n_total=n_max)
    counts = _run_split(head, tasks, fn, n_max, pdepth, workers)
    return WalkCounts(g.graph_id, v0, False, tuple(counts))


def _budgeted_saws(g, v0, n_max, max_nodes) -> WalkCounts:
    # Depth-by-depth so a budget hit still leaves fully-correct shorter
    # depths.  The re-enumeration overhead is the documented price of
    # graceful truncation.
    neigh = _graph_neigh(g)
    done = [1]
    cap = [max_nodes]
    for n in range(1, n_max + 1):
        try:
            c = _generic_counts_from(neigh, (v0,), 1, n, node_cap=cap)
        except BudgetExceeded:
            return WalkCounts(g.graph_id, v0, False, tuple(done), truncated=True)
        done.append(c[n])
    return WalkCounts(g.graph_id, v0, False, tuple(done))


def count_directed_saws(q: QuotientGraph, n_max: int, start=None,
                        workers: Optional[int] = None) -> WalkCounts:
    """Exact directed SAW counts on a quotient from a start orbit
    (default: the origin's orbit).  Parallel directed edges are distinct;
    loops never appear in a SAW of length >= 1."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    start = q.origin_orbit() if start is None else start
    workers = resolve_workers(workers)
    pdepth = _choose_pdepth(n_max, workers)
    if pdepth == 0:
        return WalkCounts(q.quotient_id, start, True, (1,))
    table = _OrbitTable(q)
    s0 = table.intern(start)
    head = _quotient_counts_from(((s0,), (), 1), table, pdepth - 1)
    tasks = _quotient_prefixes(table, s0, pdepth)
    fn = partial(_quotient_counts_from, table=table, n_total=n_max)
    counts = _run_split(head, tasks, fn, n_max, pdepth, workers)
    return WalkCounts(q.quotient_id, start, True, tuple(counts))


def count_walks(g: GraphHandle, v0=None, n_max: int = 0) -> list:
    """All n-step walks (repeats allowed), counting edge multiplicity, by
    frontier dynamic programming.  Used by the walk-correspondence checks."""
    v0 = g.origin() if v0 is None else v0
    g.validate_key(v0)
    counts = [1]
    frontier = {v0: 1}
    for _ in range(n_max):
        nxt: dict = {}
        for u, c in frontier.items():
            for (w, _lab, m) in g.neighbors(u):
                nxt[w] = nxt.get(w, 0) + c * m
        counts.append(sum(nxt.values()))
        frontier = nxt
    return counts


def count_directed_walks(q: QuotientGraph, n_max: int, start=None) -> list:
    """All directed n-step walks on the quotient (loops usable)."""
    start = q.origin_orbit() if start is None else start
    counts = [1]
    frontier = {start: 1}
    for _ in range(n_max):
        nxt: dict = {}
        for o, c in frontier.items():
            for t, m in q.drow(o):
                nxt[t] = nxt.get(t, 0) + c * m
        counts.append(sum(nxt.values()))
        frontier = nxt
    return counts
