"""Exact counting of self-avoiding walks, directed quotient SAWs, and walks.

All counts are exact Python integers.  The engines are:

* one depth-first SAW kernel (:func:`_counts_from`) on integer vertex
  ids, interned per table on first sight with lazily built (target id,
  multiplicity) rows, so infinite graphs cost only what the walks reach.
  The only per-graph part is the row source: packed integers for
  periodic lattices (a neighbor is one addition away), including the
  free lattice of a quotient by a sublattice of rank below d, on which
  its directed SAWs are counted (:meth:`QuotientGraph.free_lattice`);
  orbit keys for the directed rows of finite and tree quotients and for
  every event series; and plain keys for any other handle (trees, word
  graphs, derived graphs), with parallel-edge weights;
* a tail memo on periodic lattices, free lattices included, and on no
  other table, shared by that kernel and the Z^d bridge walker of
  :mod:`sawkit.bounds`: the last K steps of a walk
  depend only on which vertices of its endpoint's radius-K ball are
  occupied (and, for bridges, on two capped distances), so each such
  tail is counted once per class of cells and key in a table: cells
  that a lattice automorphism exchanges share one memo, their balls
  listed in matching order.  The step above looks each child's tail up
  and sums the children's weights per distinct tail, which is
  multiplied into the counts once when the call ends
  (:func:`_store_tail`, :func:`_flush_tails`); the depth, the balls and
  the classes come from one cached search (:func:`_tail_balls`).  The
  kernel's last two depths are counted in one loop, with no call per
  child;
* closed forms for acyclic regular handles, where a SAW is exactly a
  non-backtracking walk: sigma_n = d(d-1)**(n-1);
* frontier dynamic programming for (not necessarily self-avoiding) walks.

Every series, here and in :mod:`sawkit.bounds` (Z^d bridges) and
:mod:`sawkit.events` (both event series), is counted by
:meth:`_Split.counts`: it splits the search by short prefixes, by one
rule for every worker count, merges them under stabiliser maps that act
on slots, and sums exact integer subtree counts from the caller's
walker, which vets its own prefixes.  On one worker with at most one
map it runs the walker once from the root instead, as such a split
merges nothing and starts no pool.  Integer addition is associative and
commutative, so neither the worker count nor scheduling can change any
output; the test-suite compares 1-worker and multi-worker runs bit for
bit.  A process pool, which receives the walker once per process, starts
only when the work left, estimated from a sample of the prefix tasks run
inline first, reaches the break-even of starting one (:func:`_run_split`).

On a periodic lattice the maps are the start vertex's stabiliser
(:func:`lattice_stabiliser`): an automorphism fixing the start carries
the SAWs extending one prefix bijectively onto those extending its
image, so each orbit's subtree is enumerated once and weighted by the
orbit's summed prefix weight.  Its linear parts are the integer matrices
that permute the lattice's shortest translations (:func:`_linear_parts`),
which every automorphism's linear part does: the signed permutations on
Z^d, and the whole point group of order 12 on the triangular lattice.
On a sublattice quotient the stabiliser maps that normalise the
sublattice and fix the start orbit descend to the quotient and merge its
prefixes the same way (:func:`_merge_prefixes` serves both); they are
cached per lattice, sublattice and start (:func:`_quotient_maps`).  Both
act on slots through their lattice slot tables; a quotient orbit's
lattice slots are mapped to its row entries once
(:meth:`QuotientGraph.slot_rows`).

A split holds the id table, prefix levels and tail memo of one series
source (:func:`_series_split`; :func:`_orbit_split` for event series,
whose maps must carry the cycle family onto itself; Z^d bridges wrap
their half-space table in one).  A count makes its own split unless it
is given one: a run that counts one source several times, as ``saw
ratio``'s search does,
keeps one split per source and frees it with the run, and the passes of
a node-budget count share one.  Counts to any depth up to the split's
bound reuse the rows, tail memo and merged prefix levels of the counts
before them, and are the counts of a fresh table.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, takewhile
from math import lcm
from operator import add, itemgetter, mul, sub
from typing import Optional

from .exact import Radical
from .graphs import GraphHandle, PeriodicLattice
from .quotient import QuotientGraph, reduce_mod_lattice


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
        if not env:
            return 1
        if not (env.isdecimal() and int(env) >= 1):
            raise ValueError(
                f"SAW_WORKERS must be a positive integer, not {env!r}")
        return int(env)
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# Interned vertex ids and the SAW kernel
# ---------------------------------------------------------------------------
#
# Every count runs on integer ids.  A table interns vertex keys on first
# sight and builds their rows from a row source, its only per-graph part.
# The source must be picklable: a pool process receives the table once,
# with the walker, and goes on interning in its own copy.  Each table
# belongs to one :class:`_Split`, which lives as long as the count or
# the run that made it.  Tables are never stored on a graph, on a
# quotient or in a module-level cache.

class _IdTable:
    """Vertex keys interned as ids 0, 1, 2, ... on first sight.

    ``source(key)`` lists the key's out-slots as (target key, ...,
    multiplicity) tuples, such as ``q.drow`` pairs or ``g.neighbors``
    triples.  ``rows[i]`` is None until :meth:`row` builds it as a tuple
    of (target id, multiplicity); ``visited`` is a bytearray indexed by
    id.

    With a ``radius`` K > 0 the keys are packed lattice keys, whose
    residue modulo the cell count is the cell, and ``balls[c]`` lists the
    key offsets of the radius-K ball around a vertex of cell c (see
    :func:`_lattice_split`).  The table then holds the tail memo of its
    walker (:func:`_counts_from` or the bridge walker), one per class of
    cells: ``memos[c]`` is the one dict of ``classes[c]``, which every
    cell of that class reads and writes (:func:`_tail_balls`), and a
    pickled copy keeps that sharing.  The memo lives as long as the
    table: for the counts through its :class:`_Split`.  ``tails[i]`` is
    None until :meth:`tail` builds id i's (memo, occupancy getter) pair.
    """

    def __init__(self, source, radius=0, balls=(), classes=()):
        self.source = source
        self.radius = radius
        self.balls = balls
        memos = {r: {} for r in classes}
        self.memos = [memos[r] for r in classes]
        self.ids: dict = {}
        self.keys: list = []
        self.rows: list = []
        self.visited = bytearray()
        self.tails: list = []

    def intern(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(None)
            self.tails.append(None)
            self.visited.append(0)
        return i

    def row(self, i: int) -> tuple:
        row = self.rows[i]
        if row is None:
            get, intern = self.ids.get, self.intern
            out = []
            for t, *_, m in self.source(self.keys[i]):
                j = get(t)
                out.append((intern(t) if j is None else j, m))
            row = self.rows[i] = tuple(out)
        return row

    def tail(self, i: int) -> tuple:
        """Id i's (memo, occupancy getter): the memo of its cell's class,
        and ``itemgetter`` of the ids of its ball, its cell's offsets
        translated to i's key."""
        key = self.keys[i]
        c = key % len(self.balls)
        keys = list(map(key.__add__, self.balls[c]))
        ids = self.ids
        for k in [k for k in keys if k not in ids]:
            self.intern(k)
        # from a list: itemgetter(*map(...)) raised the peak RSS of the
        # bench's count runs by 0.25-0.36 MB (every pair, 2-CPU host)
        ball = list(map(ids.get, keys))
        tail = self.tails[i] = (self.memos[c], itemgetter(*ball))
        return tail


# The tail memo's depth K is the largest K >= 2 whose ball around the
# start holds at most _TAIL_BALL other vertices: zd:2 3, zd:3 2, ladder
# 6, square-octagon 3, augmented zd:2 2.  Measured on a 2-CPU host
# (Python 3.11, min of 9 runs, two runs), caps of 16, 24, 32 and 48
# gave kernel totals of 0.62-0.73, 0.47-0.54, 0.65-0.68 and 0.80-0.89 of
# the memo-free kernel's over zd:2 n=12, zd:3 n=8, ladder n=22,
# square-octagon n=18 and augmented zd:2 n=9: a smaller ball is seen in
# fewer states but memoises shorter tails.
_TAIL_BALL = 24


@lru_cache(maxsize=64)
def _tail_balls(slots: tuple, cell: int, dimension: int) -> tuple:
    """(K, balls, classes) for SAW counts from (cell, 0) on the lattice
    with slot table ``slots``: the memo depth K; ``balls[c]``, the
    vertices (cell, x) within K steps of (c, 0) for each cell c, (c, 0)
    first; and ``classes[c]``, the cell whose memo c shares.  (0, (), ())
    where no K >= 2 fits (no memo).

    The first cell of each class lists its ball in breadth-first slot
    order.  Every other cell c joins the first class whose cell r has an
    automorphism phi with phi(r, 0) = (c, 0) (:func:`_cell_maps`, with the
    linear parts of :func:`_linear_parts`), and lists phi's image of r's
    ball, in r's order.  On kagome only rotations by a third of a turn
    exchange the cells, so its three cells share one memo only because
    those linear parts are more than the signed permutations.  phi
    carries each slot onto a slot of equal multiplicity, and all cells
    have one degree, so it carries each row onto a row: each K-step tail
    from (r, 0) that avoids S goes onto one from (c, 0) that avoids
    phi(S), with equal multiplicities, and an occupancy key means the
    same tails in either cell.  A cell that no map found joins keeps its
    own memo, which only shares less.  A walker whose memo key holds more
    than occupancy, such as the distances of a height walker, may share
    a memo only under maps that keep them; the Z^d bridge tables have
    one cell.

    The class heads are tried in order, and for each every linear part
    in order; phi is the first map found.  On square-octagon that is 15
    :func:`_cell_maps` calls, paid once per slot table and start cell.

    Only lattice tables get a memo: one per id, on a table whose keys
    are no translates, did not pay.  Against no memo (min of 7 runs,
    2-CPU host, the 2K rule of :func:`_counts_from` kept) it took
    1.27-1.63x as long on directed counts of the zd:3 cube quotient at
    n = 8..11, whose radius-2 ball holds 25 of its 27 orbits, 1.21x and
    1.00x on the square-octagon quotient by (1, -1) at n = 14 and 18,
    and 1.13-1.19x on the Z^2 Cayley graph at n = 8 and 10; it paid only
    on longer counts (0.36x on that quotient at n = 22, 0.75x on the
    Cayley graph at n = 12).
    """
    def bfs(c):
        """(distance, vertex) from (c, 0) on, in breadth-first slot order."""
        dist = {(c, (0,) * dimension): 0}
        queue = list(dist)
        for v in queue:
            yield dist[v], v
            for tc, delta, _m in slots[v[0]]:
                w = (tc, tuple(a + b for a, b in zip(v[1], delta)))
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)

    # the first vertex past the cap lies at distance K + 1
    K = next((d - 1 for i, (d, _v) in enumerate(bfs(cell))
              if i > _TAIL_BALL), 0)
    if K < 2:
        return 0, (), ()
    index = _slot_index(slots)
    balls, classes = [], []
    for c in range(len(slots)):
        phi = next(((r, P, pi, t) for r in sorted(set(classes))
                    for P in _linear_parts(slots, dimension) for pi, t
                    in _cell_maps(slots, index, _moved(slots, P), r, c)),
                   None)
        if phi is None:
            classes.append(c)
            balls.append(tuple(v for _d, v in takewhile(
                lambda dv: dv[0] <= K, bfs(c))))
        else:
            r, P, pi, t = phi
            classes.append(r)
            balls.append(tuple(
                (pi[tc], tuple(a + b for a, b in zip(_act(P, x), t[tc])))
                for tc, x in balls[r]))
    return K, tuple(balls), tuple(classes)


# The tail memo step, shared by the SAW walker below and the bridge walker
# of :mod:`sawkit.bounds`.  A call counts tails only if it counts at least
# 2K steps past its prefix (:func:`_memo_depth`).  Its nodes one step
# above the memo depth then look each child's tail up in the memo of
# the child's cell class (``table.tail``), under a key that each walker
# builds in its own loop, count a missing tail once at weight 1
# (:func:`_store_tail`), and add the child's weight to the call's
# ``merged`` dict under the tail.  When the call ends, each distinct tail
# is multiplied into its counts once (:func:`_flush_tails`): sum_i w_i *
# tail = (sum_i w_i) * tail, in exact integers.

def _memo_depth(table, limit: int) -> int:
    """The depth, below a call's prefix, whose nodes' tails a call that
    counts ``limit`` steps past it looks up, or -1 for no memo.

    Only a call that counts at least 2K steps past its prefix uses the
    memo.  With fewer, a node K steps above the limit is fewer than K
    steps past the prefix's endpoint, which is then in its ball, with
    the prefix vertices near it; these differ from task to task, so its
    key rarely repeats.  Every lookup missed on the ladder at n = 12 and
    square-octagon at n = 8, and a memo in every call took 1.15-1.5x as
    long as none there and on zd:2 at n = 8 (min of 21-31 runs, 2-CPU
    host).  This rule uses no memo there (0.96-1.11x, within the noise
    of these sub-millisecond counts) and keeps it on zd:2 at n = 12.
    """
    K = table.radius
    return limit - K if K and limit >= 2 * K else -1


def _store_tail(memo, key, counts, start: int, count_tail) -> tuple:
    """Count a missing tail once and store it: ``count_tail()`` adds the
    tail's counts at weight 1 to ``counts[start:]``, which are set aside
    meanwhile; the stored tuple is what it added."""
    saved = counts[start:]
    counts[start:] = [0] * len(saved)
    count_tail()
    got = memo[key] = tuple(counts[start:])
    counts[start:] = saved
    return got


def _flush_tails(merged: dict, counts, start: int) -> None:
    """Add each distinct tail of ``merged``, times its summed weight, to
    ``counts[start:]``."""
    for tail, w in merged.items():
        for i, c in enumerate(tail, start):
            counts[i] += w * c


def _counts_from(task, table, n_total):
    """Weighted SAW counts for depths len(prefix)-1 .. n_total from a
    prefix task (id path, slot indices, weight); the prefix's endpoint is
    counted here, earlier depths are not.

    Each tail is counted once, by the memo step above: a node K + 1
    steps above the limit (K = ``table.radius``, see :func:`_tail_balls`)
    looks each child's last K depths up in the memo of the child's cell
    class, keyed by the visited bytes of the child's radius-K ball.  This
    is sound: a tail of at most K steps from o stays inside the ball of
    radius K around o, so its weighted counts depend only on which ball
    vertices are occupied.  One memo serves a class of cells: a
    translation carries o's ball onto the ball of any vertex of o's
    cell, and the automorphism that joined o's cell to its class carries
    the class's first cell's ball onto o's, each in the listed order,
    with equal multiplicities.

    A node two steps above the limit counts its children and their
    unvisited neighbours in one loop instead of a call per child.  It
    marks each child visited while reading the child's row, so a loop
    of a quotient row is never counted as a step.
    """
    prefix, _slots, weight = task
    base = len(prefix) - 1
    counts = [0] * (n_total - base + 1)
    counts[0] = weight
    if base == n_total:
        return counts
    visited = table.visited
    for o in prefix:
        visited[o] = 1
    limit = n_total - base
    top = _memo_depth(table, limit)
    merged: dict = {}

    def rec(o, depth, wt, top=top, last=limit - 1, rows=table.rows,
            row_of=table.row, tails=table.tails, tail_of=table.tail,
            visited=visited, counts=counts, limit=limit, merged=merged):
        nd = depth + 1
        row = rows[o] or row_of(o)
        if nd == last:
            # the children and their unvisited neighbours, in one loop;
            # a child is marked while its row is read, so no loop counts
            ones = twos = 0
            for t, m in row:
                if not visited[t]:
                    visited[t] = 1
                    s = 0
                    for u, mu in rows[t] or row_of(t):
                        if not visited[u]:
                            s += mu
                    visited[t] = 0
                    ones += m
                    twos += m * s
            counts[nd] += wt * ones
            counts[limit] += wt * twos
            return
        if nd == top:
            for t, m in row:
                if not visited[t]:
                    w = wt * m
                    counts[nd] += w
                    memo, occupied = tails[t] or tail_of(t)
                    key = occupied(visited)
                    got = memo.get(key)
                    if got is None:
                        visited[t] = 1
                        got = _store_tail(memo, key, counts, nd + 1,
                                          partial(rec, t, nd, 1))
                        visited[t] = 0
                    merged[got] = merged.get(got, 0) + w
            return
        if nd == limit:     # only the root of a one-step count
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
    rec = None      # break the closure's cycle, which holds the table
    for o in prefix:
        visited[o] = 0
    _flush_tails(merged, counts, top + 1)
    return counts


# ---------------------------------------------------------------------------
# Packed-integer lattice keys
# ---------------------------------------------------------------------------
#
# A lattice vertex (cell, x) with |x_i| bounded by B is encoded as
#     cell + C * sum_i (x_i + B) * W**i        with W = 2B + 1,
# so a neighbor key is the addition of a precomputed integer and keys hash
# as machine-sized ints.  B is derived from the walk length and the
# largest edge offset, which bounds every coordinate difference along a
# walk, so the encoding is injective on the vertices of any walk, and on
# the tail balls the memo reads, which reach no farther than the walk.

def _lattice_row(moves, v):
    """The out-slots (packed target, multiplicity) of packed vertex v."""
    return [(v + add, m) for add, m in moves[v % len(moves)]]


def _half_space_row(moves, x1, origin, v) -> list:
    """The out-slots of packed vertex v with every step to x_1 < 1 sent
    back to ``origin``, which every bridge holds, so that no bridge or
    prefix takes one; slot k stays slot k, as the stabiliser maps need."""
    return [(t if x1(t) >= 1 else origin, m)
            for t, m in _lattice_row(moves, v)]


def _lattice_x1(cells, B, W, v):
    """The first coordinate x_1 of packed vertex v, exact if |x_1| <= B."""
    return v // cells % W - B


def _lattice_slot(slot_map, cells, keys, i, k):
    """The slot of packed vertex id i onto which the stabiliser slot table
    ``slot_map`` carries slot k."""
    return slot_map[keys[i] % cells][k]


def _lattice_split(lat: PeriodicLattice, v0, n_max: int,
                   half_space: bool = False) -> tuple:
    """(table, start id, maps, x_1) for a split count from lattice vertex
    v0 to n_max steps: an id table on packed keys with the tail memo of
    :func:`_tail_balls`, the maps of :func:`lattice_stabiliser` as
    functions (id, slot) -> slot, and x_1 of a packed key.  With
    ``half_space`` (Z^d bridges) the rows are :func:`_half_space_row`'s
    and only the maps fixing x_1 are kept.  Those rows are no translates
    of one another near x_1 = 1, so the bridge walker adds a vertex's
    distance to that boundary to its memo key.  The table's row source
    and x_1 are picklable."""
    slots = lat.slot_table()
    maxoff = max((abs(c) for _, _, off, _ in lat.edges for c in off), default=1)
    B = maxoff * max(n_max, 1) + 1
    W = 2 * B + 1
    C = lat.cells
    c0, x0 = v0
    moves, K, balls, classes = _packing(slots, c0, lat.dimension, W)
    key0 = c0 + sum((xi + B) * C * W ** i for i, xi in enumerate(x0))
    x1 = partial(_lattice_x1, C, B, W)
    table = _IdTable(
        partial(_half_space_row, moves, x1, key0) if half_space
        else partial(_lattice_row, moves), K, balls, classes)
    start = table.intern(key0)
    maps = [partial(_lattice_slot, slot_map, C, table.keys)
            for *_, slot_map in lattice_stabiliser(lat, c0, half_space)]
    return table, start, maps, x1


@lru_cache(maxsize=64)
def _packing(slots: tuple, cell: int, dimension: int, W: int) -> tuple:
    """(moves, K, balls, classes) of a lattice with slot table ``slots``
    packed at width W: ``moves[c]`` lists the (key offset, multiplicity)
    of cell c's slots, and ``balls[c]`` the key offsets of the vertices
    of :func:`_tail_balls`' radius-K ball around a vertex of cell c, in
    its order, for counts from (cell, 0), with its ``classes``.  They
    depend on nothing else, so a lattice's counts to one depth share
    them; a graph id plays no part in the key."""
    C = len(slots)
    weights = [C * W ** i for i in range(dimension)]

    def offset(c, tc, x):
        """The packed key of (tc, y + x) minus that of (c, y)."""
        return tc - c + sum(xi * w for xi, w in zip(x, weights))

    K, balls, classes = _tail_balls(slots, cell, dimension)
    return (tuple(tuple((offset(c, tc, delta), m) for tc, delta, m in row)
                  for c, row in enumerate(slots)),
            K, tuple(tuple(offset(c, tc, x) for tc, x in ball)
                     for c, ball in enumerate(balls)), classes)


# ---------------------------------------------------------------------------
# Start-vertex stabiliser of a periodic lattice
# ---------------------------------------------------------------------------
#
# A map (c, x) -> (pi[c], P.x + t[c]), with P an integer matrix stored as
# a tuple of rows, is an automorphism exactly when it carries every slot
# of every cell onto a slot of equal multiplicity.  Maps fixing (cell, 0)
# act on SAWs from that vertex through their slot tables alone, so
# prefixes are canonicalised on slot-index sequences and no vertex is
# ever decoded.
#
# The stabiliser and the tail memo's cell classes take their linear parts
# P from one generator (:func:`_linear_parts`).  Merging under any set of
# automorphisms that fix the start is sound, so the search is bounded: at
# most _MAX_MAPS linear parts are tried and at most _MAX_MAPS maps are
# kept.  On Z^d the linear parts are the signed permutations, all of them
# for d <= 3; above that only part of the group is found, which merges
# fewer prefixes.

_MAX_MAPS = 48


def _act(P, x) -> tuple:
    """The matrix product P.x, with P a tuple of rows."""
    return tuple([sum(map(mul, row, x)) for row in P])


def _independent(vectors) -> list:
    """The vectors, in order, that are linearly independent of those
    kept before them (fraction-free elimination on exact integers)."""
    rows, kept = [], []
    for v in vectors:
        w = list(v)
        for p, r in rows:
            if w[p]:
                w = [r[p] * a - w[p] * b for a, b in zip(w, r)]
        p = next((i for i, a in enumerate(w) if a), None)
        if p is not None:
            rows.append((p, w))
            kept.append(v)
    return kept


def _short_translations(slots: tuple, dimension: int) -> tuple:
    """(dist, R): d(x) for each non-zero translation x with d(x) <= R,
    where d(x) is the least graph distance from (c, 0) to (c, x) over the
    cells c, and R is the least radius at which these x span R^d.

    If no radius does, R is 2C - 1 for C cells.  The translations of the
    component of (c, 0) are generated by the displacements of the
    fundamental cycles of a spanning tree of the cells, each a closed
    walk of at most 2C - 1 steps, so by then every component's
    translations are spanned."""
    C = len(slots)
    zero = (0,) * dimension
    seen = [{(c, zero)} for c in range(C)]
    fronts = [[(c, zero)] for c in range(C)]
    dist, R = {}, 0
    while len(_independent(dist)) < dimension and R < 2 * C - 1:
        R += 1
        for c in range(C):
            front = []
            for tc, x in fronts[c]:
                for uc, delta, _m in slots[tc]:
                    w = (uc, tuple(map(add, x, delta)))
                    if w not in seen[c]:
                        seen[c].add(w)
                        front.append(w)
                        if uc == c:
                            dist.setdefault(w[1], R)
            fronts[c] = front
    return dist, R


@lru_cache(maxsize=64)
def _linear_parts(slots: tuple, dimension: int) -> tuple:
    """The linear parts P tried as automorphisms (c, x) -> (pi[c],
    P.x + t[c]) of the lattice with slot table ``slots``: at most
    _MAX_MAPS of them, the identity first.  A search builds a P's slot
    images, ``_moved(slots, P)``, only when it tries that P.

    Every such automorphism keeps d (:func:`_short_translations`): it
    carries (c, 0) and (c, x) to (pi[c], t[c]) and (pi[c], P.x + t[c]),
    and pi permutes the cells, so d(P.x) = d(x).  Its P is invertible
    over Z, so it permutes the finite set T of non-zero translations with
    d(x) <= R, which spans R^d.  The candidates are built from a basis B
    of T: each b in B goes to some u in T with d(u) = d(b), and
    P = U.B^-1 is kept only if it is integral and P(T) = T.  A partial
    choice is cut once d(u - u') or d(u + u') differs from d(b - b') or
    d(b + b') for the basis vectors b' chosen before, distances past R
    read as R + 1: P keeps these too.  Where T spans less than R^d (a
    start whose component has lower rank, such as Z with jumps 1 and 2
    drawn in the plane), the coordinate vectors it does not span join T
    and B at distance R + 1, so only maps whose P permutes them are
    found.

    The candidates limit which maps are found, never which are kept:
    :func:`_cell_maps` checks every slot of each.  On Z^d, the ladder and
    square-octagon T is the +-e_i and the candidates are the signed
    permutations; the triangular lattice gets 12, all of its point group.
    """
    d = dimension
    dist, R = _short_translations(slots, d)
    # nearest first, and e_1, ..., e_d first among equals, so that the
    # basis of T is mostly the coordinate one, where P = U
    T = sorted(dist, key=lambda x: (dist[x], sum(map(abs, x)),
                                    tuple(-a for a in x)))
    eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    basis = _independent(T)
    for e in _independent(basis + eye)[len(basis):]:
        basis.append(e)
        for v in (e, tuple(-a for a in e)):
            T.append(v)
            dist[v] = R + 1
    members = set(T)

    def far(x):
        return dist.get(x, R + 1) if any(x) else 0

    gaps = {(u, v): (far(tuple(map(sub, u, v))), far(tuple(map(add, u, v))))
            for u in T for v in T}
    # B^-1 = inv / D with inv integral, so P = U.inv / D; P = U if B = I
    inv_cols = None
    if basis != eye:
        inv = _inverse(basis)
        D = lcm(*(x.denominator for row in inv for x in row))
        inv_cols = list(zip(*([int(x * D) for x in row] for row in inv)))
    # b's own image first, so that the identity comes first
    images = [sorted((u for u in T if dist[u] == dist[b]),
                     key=lambda u: u != b) for b in basis]
    wants = [[gaps[b, c] for c in basis[:k]] for k, b in enumerate(basis)]
    # Where T is +-B alone, the cuts keep the u apart and from each
    # other's negatives, so U is B times a signed permutation and P
    # permutes T: only a larger T needs checking.
    checked = T if len(T) > 2 * d else ()

    def choose(us):
        k = len(us)
        if k == d:
            P = tuple(zip(*us))
            if inv_cols is not None:
                P = tuple(tuple(sum(map(mul, row, col)) for col in inv_cols)
                          for row in P)
                if any(x % D for row in P for x in row):
                    return
                P = tuple(tuple(x // D for x in row) for row in P)
            if all(_act(P, x) in members for x in checked):
                yield P
            return
        for u in images[k]:
            if all(gaps[u, v] == want for v, want in zip(us, wants[k])):
                yield from choose(us + [u])

    return tuple(islice(choose([]), _MAX_MAPS))


def _inverse(columns) -> list:
    """The inverse, as rows of Fractions, of the invertible matrix whose
    columns are ``columns``."""
    d = len(columns)
    work = [[Fraction(columns[k][i]) for k in range(d)]
            + [Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for col in range(d):
        p = next(r for r in range(col, d) if work[r][col])
        work[col], work[p] = work[p], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(d):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[d:] for row in work]


def _slot_index(slots) -> list:
    """Per cell, the slot index of each (target cell, delta)."""
    return [{(tc, delta): k for k, (tc, delta, _m) in enumerate(row)}
            for row in slots]


def _moved(slots, P) -> tuple:
    """P.delta for the delta of each slot of each cell, in slot order."""
    image = {delta: _act(P, delta)
             for delta in {delta for row in slots for _tc, delta, _m in row}}
    return tuple(tuple(image[delta] for _tc, delta, _m in row)
                 for row in slots)


def _slot_target(index, pi, t, c, tc, moved):
    """The slot of cell pi[c] onto which the slot (tc, delta) of cell c is
    carried, with ``moved`` = P.delta, or None if pi[c] has no such
    slot."""
    return index[pi[c]].get((pi[tc], tuple(
        a + b - x for a, b, x in zip(moved, t[tc], t[c]))))


def _cell_maps(slots, index, moved, c0, c1):
    """Every (pi, t) with pi[c0] = c1 and t[c0] = 0 that carries each slot
    between mapped cells onto a slot of equal multiplicity, for the linear
    part P with ``moved = _moved(slots, P)``: the vertex (c0, 0) goes to
    (c1, 0).

    The slot table is walked from cell c0: each slot that reaches a new
    cell is tried against every slot of equal multiplicity of its image
    cell, which fixes the new cell's image and offset.  A branch is cut as
    soon as a slot between the new cell and a mapped one has no image.
    """
    def fits(pi, t, new):
        for c in pi:
            for (tc, _delta, m), pd in zip(slots[c], moved[c]):
                if (c == new or tc == new) and tc in pi:
                    k = _slot_target(index, pi, t, c, tc, pd)
                    if k is None or slots[pi[c]][k][2] != m:
                        return False
        return True

    def extend(pi, t):
        for c in pi:
            for (tc, _delta, m), pd in zip(slots[c], moved[c]):
                if tc in pi:
                    continue
                used = set(pi.values())
                for tc2, d2, m2 in slots[pi[c]]:
                    if m2 == m and tc2 not in used:
                        # d2 = P.delta + t[tc] - t[c]
                        ttc = tuple(b + x - a for a, b, x
                                    in zip(pd, d2, t[c]))
                        pi2, t2 = {**pi, tc: tc2}, {**t, tc: ttc}
                        if fits(pi2, t2, tc):
                            yield from extend(pi2, t2)
                return
        yield pi, t

    pi, t = {c0: c1}, {c0: (0,) * len(moved[c0][0])}
    if fits(pi, t, c0):
        yield from extend(pi, t)


def lattice_stabiliser(lat: PeriodicLattice, cell: int = 0,
                       fix_first: bool = False) -> tuple:
    """Automorphisms of ``lat`` fixing the vertex (cell, 0), each a plain
    tuple (P, pi, t, table) acting by (c, x) -> (pi[c], P.x + t[c]).

    ``table[c][k]`` is the slot of cell pi[c] onto which slot k of cell c
    is carried.  Cells that walks from ``cell`` never reach are left
    fixed.  With ``fix_first`` only the maps whose P keeps x_1, its first
    row e_1, are kept (for Z^d bridges), filtered from the cached maps
    without ``fix_first``, so the two share one search.  A map is kept
    only if it carries
    every slot onto a slot of equal multiplicity, which is all that
    merging needs for soundness.  The linear parts tried are those of
    :func:`_linear_parts`, which permute the lattice's shortest
    translations; the search stops after _MAX_MAPS of them or _MAX_MAPS
    maps, so on Z^d above dimension 3 only part of the group is found.
    The identity comes first.

    Results are cached on (dimension, cells, edges, cell, fix_first),
    which determine the slot table, so every count on a lattice after
    the first reuses the maps; a graph id plays no part in the key.
    """
    return _stabiliser(lat.dimension, lat.cells, lat.edges, cell, fix_first)


@lru_cache(maxsize=64)
def _stabiliser(dimension: int, cells: int, edges: tuple, cell: int,
                fix_first: bool) -> tuple:
    if fix_first:
        e_1 = (1,) + (0,) * (dimension - 1)
        return tuple(m for m in _stabiliser(dimension, cells, edges, cell,
                                            False) if m[0][0] == e_1)
    lat = PeriodicLattice(dimension, cells, edges)
    slots = lat.slot_table()
    index = _slot_index(slots)
    found: dict = {}
    for P in _linear_parts(slots, dimension):
        moved = _moved(slots, P)
        for pi, t in _cell_maps(slots, index, moved, cell, cell):
            table = tuple(
                tuple(_slot_target(index, pi, t, c, tc, pd)
                      for (tc, _delta, _m), pd in zip(row, moved[c]))
                if c in pi else tuple(range(len(row)))
                for c, row in enumerate(slots))
            found.setdefault(table, (
                P, tuple(pi.get(c, c) for c in range(lat.cells)),
                tuple(t.get(c, (0,) * lat.dimension)
                      for c in range(lat.cells)), table))
            if len(found) == _MAX_MAPS:
                return tuple(found.values())
    return tuple(found.values())


def _merge_prefixes(steps, start, n_max: int, maps=(), levels=None) -> tuple:
    """(pdepth, tasks) for a count to depth n_max: one task (path, slot
    indices, weight) per orbit of ``maps`` on the SAW prefixes of pdepth
    steps from ``start``; the weight sums the orbit's prefix weights.
    With no maps every prefix is its own orbit.

    ``steps(v)`` lists the slots (next vertex, multiplicity) out of v,
    and a map ``sigma`` that fixes v carries slot k of v onto slot
    ``sigma(v, k)``.  Prefixes grow one step at a time.  The maps that
    fix a prefix fix its endpoint, so they act on its next step; steps
    in one orbit of that action share the subtree counts of the first of
    them, which is kept with their summed weight and with the maps that
    also fix it.

    Prefixes take at least min(3, n_max) steps and grow on while there
    are fewer than _SPLIT_TASKS orbits and fewer than n_max // 2 steps,
    for every worker count: no one task is then a large share of the
    count, as :func:`_run_split` runs the first tasks inline before it
    starts a pool, and deeper merged prefixes expand fewer nodes.

    A level does not depend on n_max, so ``levels``, a list of the
    levels grown so far from ``start`` under ``maps`` (level d at index
    d), is extended only past its end, for later counts to reuse.
    """
    levels = [] if levels is None else levels
    if not levels:
        levels.append([((start,), (), 1, tuple(maps))])
    depth = 0
    while depth < min(3, n_max) or (0 < len(levels[depth]) < _SPLIT_TASKS
                                    and depth < n_max // 2):
        depth += 1
        if depth == len(levels):
            levels.append(_grow_level(steps, levels[-1]))
    return depth, [(path, slots, weight)
                   for path, slots, weight, _ in levels[depth]]


def _grow_level(steps, level) -> list:
    """The merged prefixes one step longer than those of ``level``."""
    grown = []
    for path, slots, weight, stab in level:
        v = path[-1]
        orbits: dict = {}
        for k, (w, m) in enumerate(steps(v)):
            if w in path:
                continue
            images = [s(v, k) for s in stab]
            key = min(images, default=k)
            if key in orbits:
                orbits[key][2] += weight * m
            else:
                orbits[key] = [path + (w,), slots + (k,), weight * m,
                               tuple(s for s, j in zip(stab, images)
                                     if j == k)]
        grown.extend(orbits.values())
    return grown


# ---------------------------------------------------------------------------
# Quotient orbit tables and their stabiliser maps
# ---------------------------------------------------------------------------
#
# Automorphisms of the base lattice that fix the start cell's origin and
# normalise the translation sublattice L (P.L = L) descend to the
# quotient: (c, x) -> (pi[c], P.x + t[c]) carries the orbit of (c, x) to
# the orbit of its image, and directed quotient SAWs onto directed
# quotient SAWs of equal weight.  Those that also fix the start orbit
# merge quotient prefixes exactly as the lattice stabiliser merges
# lattice prefixes, and act on slots through their lattice slot tables.

def _quotient_slot(slot_rows, keys, slot_map, i: int, k: int) -> int:
    """The slot of row i onto which a map with lattice slot table
    ``slot_map`` that fixes orbit i carries slot k.

    Such a map keeps orbit i's cell c, and carries lattice slot l of c
    onto slot ``slot_map[c][l]`` at a vertex of the same orbit.  A
    translation by L keeps every neighbour's orbit, so a lattice slot
    reaches the same row entry from every vertex of the orbit, which
    ``slot_rows`` (:meth:`QuotientGraph.slot_rows`) lists."""
    key = keys[i]
    rows, firsts = slot_rows(key)
    return rows[slot_map[key[0]][firsts[k]]]


def _quotient_maps(q: QuotientGraph, start) -> tuple:
    """The lattice slot table of each map of ``lattice_stabiliser(q.base,
    start cell)`` that descends to q and fixes the orbit key ``start``,
    a base vertex: the orbit of its image is the start.  The identity
    comes first.

    A map descends when P.h lies in L for each row h of L's Hermite
    normal form; that containment gives P.L = L because P permutes a
    finite spanning set of translations (:func:`_linear_parts`) and so
    has finite order.  A tree action gets none: its only map is the
    identity, which merges nothing.

    Results are cached on the base lattice's (dimension, cells, edges),
    L's Hermite rows and the start, which determine them, so every
    split of one quotient after the first reuses the maps.
    """
    if q.action.kind != "sublattice":
        return ()
    base = q.base
    return _descending_tables(base.dimension, base.cells, base.edges,
                              q.hermite, start)


@lru_cache(maxsize=64)
def _descending_tables(dimension: int, cells: int, edges: tuple,
                       hermite: tuple, start) -> tuple:
    hnf, piv = hermite
    c0, x0 = start
    zero = (0,) * dimension
    return tuple(
        slots for P, pi, t, slots
        in _stabiliser(dimension, cells, edges, c0, False)
        if all(reduce_mod_lattice(_act(P, h), hnf, piv) == zero for h in hnf)
        and (pi[c0], reduce_mod_lattice(tuple(
            a + b for a, b in zip(_act(P, x0), t[c0])), hnf, piv)) == start)


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------

# When a process pool pays for itself, in counted walks.  Measured on a
# 2-CPU host (Python 3.11, min of 5-11 runs per point): a 2-process pool
# costs 10-17 ms from start to shutdown with the table sent to it (6-8 ms
# bare), and with the tail memo the lattice kernel counts 8-30 M walks/s
# (4 M/s on quotients, which have no memo).  Two processes halve the time
# of the work they get, so they pay once it exceeds about 2 * 12 ms *
# 20 M/s, which is _POOL_BREAK_EVEN_NODES.  The 1-vs-2-worker curves
# agree (two runs, a pool for every count): two workers first beat one
# at a sampled estimate of 0.30 M walks on zd:3 (n = 6..10), 0.34 M on
# augmented zd:2 (n = 7..10), 0.51-0.54 M on square-octagon (n = 14..24)
# and the ladder (n = 16..32), 0.53-1.56 M on zd:2 (n = 9..16), and
# above 0.10 M, the largest point, on the zd:3 cube quotient
# (n = 7..10).  Below the break-even two workers took 1.2-1.5x as long
# as one on the ladder at n = 22 (0.16 M), and 0.88-1.25x on
# square-octagon at n = 18 (0.15 M) and augmented zd:2 at n = 9 (0.34 M).
# The sample runs serially, so a small one costs less.
# _SPLIT_TASKS merged tasks keep the first task a small share of a large
# count: 1.3% on zd:2 at n = 15 and 1.7% on the ladder at n = 28, against
# 8.8% and 12.9% at the 4-step split.
_POOL_SAMPLE_NODES = 10_000
_POOL_BREAK_EVEN_NODES = 500_000
_SPLIT_TASKS = 64


@lru_cache(maxsize=None)
def _note_clamp(workers: int, cpus: int) -> None:
    print(f"note: {workers} workers requested, {cpus} CPUs available; "
          f"using at most {cpus}", file=sys.stderr)


_installed = None     # the task function of this pool process


def _install(task_fn) -> None:
    """Pool initializer: keep ``task_fn``, and with it the walker's table,
    for every task this process runs."""
    global _installed
    _installed = task_fn


def _run_installed(task):
    return _installed(task)


def _run_split(head, tasks, task_fn, n_max: int, pdepth: int, workers: int):
    """Head counts (depths below pdepth) followed by the summed task counts.

    With more than one process allowed, tasks first run inline in order
    until they have counted _POOL_SAMPLE_NODES walks.  A task's walks are
    its summed counts over its weight.  They measure work unevenly: a
    bridge task expands more nodes than the bridges it counts, and a
    memoised SAW tail counts many walks in one lookup.  A pool starts for
    the remaining tasks only if their estimated walks, the sample's walks
    per task times the tasks left, reach _POOL_BREAK_EVEN_NODES;
    otherwise they finish inline too.  The decision depends on counts
    alone, never on time, and the sums cannot depend on it.  At most
    min(workers, CPU count, tasks left) processes are started, and none
    for a single task; a request above the CPU count is noted once on
    stderr.  Each process receives ``task_fn`` once, as it starts.
    """
    tail = [0] * (n_max - pdepth + 1)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        _note_clamp(workers, cpus)
    procs = min(workers, cpus, len(tasks))
    parts, sampled = [], 0
    if procs > 1:
        while len(parts) < len(tasks) and sampled < _POOL_SAMPLE_NODES:
            task = tasks[len(parts)]
            parts.append(task_fn(task))
            sampled += sum(parts[-1]) // task[2]
        rest = tasks[len(parts):]
        procs = min(procs, len(rest))
        if procs > 1 and (sampled * len(rest)
                          >= _POOL_BREAK_EVEN_NODES * len(parts)):
            chunk = max(1, len(rest) // (4 * procs))
            with ProcessPoolExecutor(max_workers=procs, initializer=_install,
                                     initargs=(task_fn,)) as ex:
                parts.extend(ex.map(_run_installed, rest, chunksize=chunk))
    parts.extend(task_fn(t) for t in tasks[len(parts):])
    for p in parts:
        for i, v in enumerate(p):
            tail[i] += v
    return list(head) + tail


class _Split:
    """One series source's split: the id table, start id and stabiliser
    maps, functions (id, slot) -> slot, of counts from the start key
    ``key`` on ``source`` (a graph or a quotient), to depths up to
    ``bound``.  The table need not be keyed like the source: a quotient
    below full rank keeps its orbit key as ``key`` but counts on a table
    of its free lattice.  Every count through it reuses the table's rows
    and tail memo, and the merged prefix levels kept in ``levels``: a
    memo entry is the K-step tail of an occupancy key, which no count
    depth changes, and a lattice's packing is wide enough for walks of
    ``bound`` steps.  Made by :func:`_series_split` or
    :func:`_orbit_split`, or around the Z^d bridge table."""

    __slots__ = ("source", "key", "bound", "table", "start", "maps",
                 "levels")

    def __init__(self, source, key, bound: int, table: _IdTable,
                 start: int, maps):
        self.source, self.key, self.bound = source, key, bound
        self.table, self.start, self.maps = table, start, tuple(maps)
        self.levels: list = []

    def check(self, source, key, n_max: int) -> None:
        """Refuse, with a ValueError that names the cause, counts on
        another source, from another start ``key`` (None: the split's
        own start) or to a depth past the bound."""
        if source is not self.source:
            raise ValueError("the split serves another series source")
        if key not in (None, self.key):
            raise ValueError(f"the split serves counts from {self.key!r}, "
                             f"not from {key!r}")
        if n_max > self.bound:
            raise ValueError(f"depth {n_max} is past the split's bound "
                             f"{self.bound}")

    def counts(self, source, key, n_max: int, workers: int,
               walker=None) -> list:
        """Counts for depths 0..n_max of the walks from the split's start,
        checked by :meth:`check`: the depths below the split from a direct
        run, the others summed over the prefix tasks merged under the
        maps (:func:`_merge_prefixes`, which extends ``levels``); one
        direct run counts every depth on one worker with at most one map,
        where the split would merge nothing and start no pool.

        ``walker(task, table=..., n_total=n)`` counts depths
        len(path)-1..n of a task (default: SAWs, :func:`_counts_from`)
        and vets its prefix: one that no counted walk extends counts
        zeros, where the table's rows do not already leave its steps out.
        A pool process receives it, with the split's table, once.  A
        count deeper than the interpreter's recursion limit allows raises
        a ValueError that names n_max."""
        self.check(source, key, n_max)
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        workers = resolve_workers(workers)
        table, start = self.table, self.start
        walker = partial(walker or _counts_from, table=table)
        root = ((start,), (), 1)
        try:
            if n_max == 0 or (workers == 1 and len(self.maps) <= 1):
                return walker(root, n_total=n_max)
            pdepth, tasks = _merge_prefixes(table.row, start, n_max,
                                            self.maps, self.levels)
            head = walker(root, n_total=pdepth - 1)
            return _run_split(head, tasks, partial(walker, n_total=n_max),
                              n_max, pdepth, workers)
        except RecursionError:
            raise ValueError(f"a count to depth {n_max} exceeds the "
                             "interpreter's recursion limit") from None


def _series_split(source, start, bound: int) -> Optional[_Split]:
    """A split for counts from ``start`` on ``source`` to depths up to
    ``bound``: SAWs on a graph (default start: the origin) or directed
    SAWs on a quotient (default: the origin's orbit).  None for an
    acyclic regular graph, whose SAW counts are a closed form.

    A quotient by a sublattice of rank below d is counted on its free
    lattice (:meth:`QuotientGraph.free_lattice`), whose table, start id
    and maps come from :func:`_lattice_split`, so its directed series
    gets that lattice's stabiliser and tail memo; the split still serves
    the quotient and the orbit key.  Every other quotient, and one whose
    free lattice has cells of unequal degree, gets :func:`_orbit_split`.

    A quotient start must be the canonical key of its orbit, with a
    valid base vertex as its representative;
    :meth:`QuotientGraph.validate_key` refuses any other key, because its
    rows belong to no orbit and would give wrong counts."""
    if isinstance(source, QuotientGraph):
        start = source.origin_orbit() if start is None else start
        source.validate_key(start)
        lat = source.free_lattice()
        if lat is None:
            return _orbit_split(source, start, bound)
        table, s0, maps, _x1 = _lattice_split(lat, source.free_vertex(start),
                                              bound)
        return _Split(source, start, bound, table, s0, maps)
    start = source.origin() if start is None else start
    source.validate_key(start)
    if source.is_acyclic:
        return None
    if isinstance(source, PeriodicLattice):
        table, s0, maps, _x1 = _lattice_split(source, start, bound)
        return _Split(source, start, bound, table, s0, maps)
    table = _IdTable(source.neighbors)
    return _Split(source, start, bound, table, table.intern(start), ())


def _orbit_split(q: QuotientGraph, start, bound: int) -> _Split:
    """A split for counts from the orbit key ``start`` (default: the
    origin's orbit) on q to depths up to ``bound``, on an id table of q's
    orbit keys with no tail memo, its prefixes merged under the maps of
    :func:`_quotient_maps` acting through :func:`_quotient_slot`.  Event
    series always take it: those maps carry the cycle family onto
    itself, which a free lattice's own maps need not do.  The start is
    validated as in :func:`_series_split`."""
    start = q.origin_orbit() if start is None else start
    q.validate_key(start)
    table = _IdTable(q.drow)
    maps = [partial(_quotient_slot, q.slot_rows, table.keys, slots)
            for slots in _quotient_maps(q, start)]
    return _Split(q, start, bound, table, table.intern(start), maps)


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------

def count_saws(g: GraphHandle, v0=None, n_max: int = 0,
               workers: Optional[int] = None,
               max_nodes: Optional[int] = None,
               split: Optional[_Split] = None) -> WalkCounts:
    """Exact sigma_0..sigma_n_max from v0 (default: the origin).

    Parallel edges count as distinct SAWs.  With ``max_nodes`` set, depth
    n is charged sum_{j<n} sigma_j nodes and is counted only if the
    charges of depths 1..n stay within ``max_nodes``; otherwise the
    result holds the depths that fit and ``truncated=True``.  On a simple
    graph the charge is the number of nodes a depth-first search to depth
    n expands.  On a multigraph sigma counts each walk with its edge
    multiplicities, and so does the charge.  The series is counted in one
    pass to the deepest n that fits when every depth not yet counted is
    bounded by sigma_{j+1} <= (degree - 1) * sigma_j; a further pass runs
    only if the counted sigma show that more depths fit.

    ``split``, from ``_series_split(g, v0, bound)`` (None on an acyclic
    graph), is a run's split to count on; without one the count makes
    its own, which every pass shares.  A split refuses a depth past its
    bound before any pass.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError("max_nodes must be >= 0")
    v0 = g.origin() if v0 is None else v0
    g.validate_key(v0)
    workers = resolve_workers(workers)
    split = split or _series_split(g, v0, n_max)
    if split is None:
        series = partial(_tree_counts, g.degree)
    else:
        split.check(g, v0, n_max)
        series = partial(split.counts, g, v0, workers=workers)
    if max_nodes is None:
        return WalkCounts(g.graph_id, v0, False, tuple(series(n_max)))
    counts = [1]
    while True:
        n = _budget_reach(counts, n_max, max_nodes, g.degree)
        if n < len(counts):
            return WalkCounts(g.graph_id, v0, False, tuple(counts[:n + 1]),
                              truncated=n < n_max)
        counts = series(n)


def _budget_reach(counts, n_max: int, max_nodes: int, degree: int) -> int:
    """The deepest n <= n_max whose charges, sum_{j<p} sigma_j for each
    depth p = 1..n, sum to at most ``max_nodes``, with sigma_j taken from
    ``counts`` and bounded past them: a SAW of length j >= 1 cannot step
    back along its last edge, so sigma_{j+1} <= (degree - 1) * sigma_j,
    and sigma_1 <= degree (both weighted by multiplicity)."""
    sigma = list(counts)
    n = spent = below = 0
    while n < n_max:
        below += sigma[n]
        spent += below
        if spent > max_nodes:
            break
        n += 1
        if n == len(sigma):
            sigma.append(sigma[-1] * (degree - 1 if n > 1 else degree))
    return n


def _tree_counts(d: int, n_max: int) -> list:
    """SAW counts to depth n_max on an acyclic d-regular graph, where a
    SAW is a non-backtracking walk: d*(d-1)**(n-1) exactly."""
    return [1] + [d * (d - 1) ** (n - 1) for n in range(1, n_max + 1)]


def count_directed_saws(q: QuotientGraph, n_max: int, start=None,
                        workers: Optional[int] = None,
                        split: Optional[_Split] = None) -> WalkCounts:
    """Exact directed SAW counts on a quotient from a start orbit
    (default: the origin's orbit), which must be given by its canonical
    key.  Parallel directed edges are distinct; loops never appear in a
    SAW of length >= 1.  ``split``, as for :func:`count_saws`, from
    ``_series_split(q, start, bound)``: below full rank the count runs on
    q's free lattice, with that lattice's stabiliser and tail memo
    (:meth:`QuotientGraph.free_lattice`), and otherwise on q's orbit
    keys."""
    split = split or _series_split(q, start, n_max)
    counts = split.counts(q, start, n_max, workers)
    return WalkCounts(q.quotient_id, split.key, True, tuple(counts))


def count_walks(g: GraphHandle, v0=None, n_max: int = 0) -> list:
    """All n-step walks (repeats allowed), counting edge multiplicity, by
    frontier dynamic programming.  Used by the walk-correspondence checks."""
    v0 = g.origin() if v0 is None else v0
    g.validate_key(v0)
    return _walk_counts(g.neighbors, v0, n_max)


def count_directed_walks(q: QuotientGraph, n_max: int, start=None) -> list:
    """All directed n-step walks on the quotient (loops usable) from a
    start orbit given by its canonical key (default: the origin's)."""
    start = q.origin_orbit() if start is None else start
    q.validate_key(start)
    return _walk_counts(q.drow, start, n_max)


def _walk_counts(source, v0, n_max: int) -> list:
    """Walk counts for depths 0..n_max from v0, where ``source(v)`` lists
    v's out-slots as (target, ..., multiplicity) tuples."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    counts = [1]
    frontier = {v0: 1}
    for _ in range(n_max):
        nxt: dict = {}
        for u, c in frontier.items():
            for t, *_, m in source(u):
                nxt[t] = nxt.get(t, 0) + c * m
        counts.append(sum(nxt.values()))
        frontier = nxt
    return counts
