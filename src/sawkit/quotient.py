"""Directed quotient multigraphs of vertex-transitive graphs.

A subgroup of the symmetry group partitions the vertices into orbits; the
quotient is the directed multigraph on orbits with as many edges from
orbit A to orbit B as any one vertex of A has neighbors in B (loops
allowed).  That count does not depend on the chosen vertex, which is
checked — not assumed — by :func:`check_representative_independence`.

Two kinds of actions are supported, covering every construction the
package catalogs:

* **Translation sublattices** on periodic lattices: an integer matrix
  whose rows generate a sublattice L of Z^d.  Orbit keys are canonical
  coset representatives computed by Hermite-normal-form reduction.  Full
  rank gives finitely many orbits; deficient rank gives infinitely many,
  supported lazily (orbit keys and adjacency rows on demand).
* **End-fixing tree actions** on :class:`~sawkit.graphs.TreeWithEnd`:
  ``child-swap`` collapses each horocyclic level to one orbit (infinitely
  many orbits, lazily), and ``child-swap+shift:k`` further identifies
  levels modulo k (finitely many).

Walks on the base graph correspond one-to-one with directed walks on the
quotient once edge slots are numbered consistently; :func:`lift` and
:func:`project` implement the two directions of that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import add
from typing import Optional

from .graphs import (GraphHandle, GraphError, PeriodicLattice, TreeWithEnd,
                     ball)


class QuotientError(GraphError):
    pass


class InvalidActionError(QuotientError):
    pass


class SymmetryRequiredError(QuotientError):
    pass


class InfiniteOrbitError(QuotientError):
    pass


class InvalidLabelError(QuotientError):
    pass


# ---------------------------------------------------------------------------
# Hermite normal form over Z (row style), exact integers
# ---------------------------------------------------------------------------

def hermite_rows(rows: tuple, d: int) -> tuple:
    """Row-style Hermite normal form of the lattice generated by ``rows``.

    Returns echelon rows with positive pivots in strictly increasing
    pivot columns; entries above each pivot are reduced into [0, pivot).
    Works for any rank, small dense integer matrices, no floats.
    """
    work = [list(r) for r in rows if any(r)]
    hnf: list = []
    for col in range(d):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            work = rest
            continue
        p = pivots[0]
        residuals = []
        for r in pivots[1:]:
            # Combine p and r so that r's entry in `col` becomes zero and
            # p's becomes gcd(p[col], r[col])  (Euclid on whole rows; the
            # names p and r may swap objects, so collect the zeroed row by
            # name, not by position in `pivots`).
            while r[col] != 0:
                if abs(p[col]) > abs(r[col]):
                    p, r = r, p
                q = r[col] // p[col]
                for t in range(d):
                    r[t] -= q * p[t]
            residuals.append(r)
        if p[col] < 0:
            p = [-x for x in p]
        hnf.append(p)
        work = [r for r in residuals if any(r)] + rest
    # Reduce entries above each pivot into [0, pivot).
    piv_cols = [next(c for c in range(d) if row[c]) for row in hnf]
    for j in range(len(hnf)):
        for i in range(j):
            q = hnf[i][piv_cols[j]] // hnf[j][piv_cols[j]]
            if q:
                hnf[i] = [a - q * b for a, b in zip(hnf[i], hnf[j])]
    return tuple(tuple(r) for r in hnf), tuple(piv_cols)


def reduce_mod_lattice(x: tuple, hnf: tuple, piv_cols: tuple) -> tuple:
    """Canonical representative of x modulo the HNF lattice: after
    reduction 0 <= x[pivot_j] < pivot_j's value for every row, which picks
    one point per coset (pivot columns are processed in increasing order,
    so earlier pivots stay reduced)."""
    x = list(x)
    for row, pc in zip(hnf, piv_cols):
        q = x[pc] // row[pc]
        if q:
            for t in range(len(x)):
                x[t] -= q * row[t]
    return tuple(x)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupAction:
    """A sublattice of translations or a named tree action.

    ``kind`` is "sublattice" (with ``rows``) or "catalog" (with ``name``,
    one of ``child-swap`` / ``child-swap+shift:k``).  Use the
    :func:`sublattice_action` / :func:`tree_action` constructors.
    """

    kind: str
    rows: tuple = ()
    name: str = ""

    def action_id(self) -> str:
        if self.kind == "sublattice":
            return "[" + ";".join(" ".join(str(x) for x in r)
                                  for r in self.rows) + "]"
        return self.name


def sublattice_action(rows) -> SubgroupAction:
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    if not rows or all(not any(r) for r in rows):
        raise InvalidActionError("sublattice action is trivial (no nonzero row)")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidActionError("sublattice rows have unequal lengths")
    return SubgroupAction(kind="sublattice", rows=rows)


def tree_action(name: str) -> SubgroupAction:
    name = name.strip()
    if name == "child-swap":
        return SubgroupAction(kind="catalog", name=name)
    if name.startswith("child-swap+shift:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            k = 0
        if k >= 1:
            return SubgroupAction(kind="catalog", name=f"child-swap+shift:{k}")
    raise InvalidActionError(f"unknown tree action {name!r}")


# ---------------------------------------------------------------------------
# The quotient graph
# ---------------------------------------------------------------------------

def _orbit_tally(g: GraphHandle, orbit_of, v) -> tuple:
    """Sorted (orbit, mult) tally of the neighbors of v in g."""
    counts: dict = {}
    for w in g.expanded_neighbors(v):
        t = orbit_of(w)
        counts[t] = counts.get(t, 0) + 1
    return tuple(sorted(counts.items()))


class QuotientGraph:
    """Directed multigraph of orbits, built by :func:`build_quotient`.

    Orbit keys are canonical and hashable: reduced (cell, offset) pairs
    for sublattice actions, integers (levels, or levels mod k) for the
    tree actions; :meth:`validate_key` alone decides what is one.
    ``finite`` tells whether the orbit set is finite; when it is,
    ``orbit_count`` is their number and ``orbits`` lists every key, worked
    out the first time it is read.  Each adjacency row is built the first
    time it is asked for, so a quotient costs only what is probed.

    No row needs an out-degree check: a row tallies the entries of the
    base graph's ``expanded_neighbors`` at one vertex, and every handle
    lists exactly ``degree`` of them there (a :class:`PeriodicLattice`
    refuses cells of unequal degree; a :class:`TreeWithEnd` lists d keys).
    """

    def __init__(self, base: GraphHandle, action: SubgroupAction):
        self.base = base
        self.action = action
        self.quotient_id = f"{base.graph_id}/{action.action_id()}"
        self._rows: dict = {}       # orbit -> tuple of (target_orbit, mult)
        self._slot_rows: dict = {}  # orbit -> (row entry per lattice slot,
                                    #          first lattice slot per entry)

        if action.kind == "sublattice":
            if not isinstance(base, PeriodicLattice):
                raise InvalidActionError(
                    "sublattice actions require a periodic lattice")
            if any(len(r) != base.dimension for r in action.rows):
                raise InvalidActionError(
                    f"sublattice rows must have length {base.dimension}")
            self._hnf, self._piv = hermite_rows(action.rows, base.dimension)
            self._diag = tuple(r[c] for r, c in zip(self._hnf, self._piv))
            self.finite = len(self._hnf) == base.dimension
            self.orbit_count: Optional[int] = \
                base.cells * prod(self._diag) if self.finite else None
        else:
            if not isinstance(base, TreeWithEnd):
                raise InvalidActionError(
                    "catalog tree actions require a tree-with-end graph")
            self._shift = 0 if action.name == "child-swap" else \
                int(action.name.split(":", 1)[1])
            self.finite = self._shift > 0
            self.orbit_count = self._shift or None

    # -- orbit machinery -----------------------------------------------------

    def orbit_of(self, v):
        if self.action.kind == "sublattice":
            c, x = v
            return (c, reduce_mod_lattice(x, self._hnf, self._piv))
        lvl = self.base.level(v)
        return lvl % self._shift if self._shift else lvl

    @property
    def hermite(self) -> tuple:
        """(rows, pivot columns) of the Hermite normal form of L, for a
        sublattice action."""
        return self._hnf, self._piv

    def free_lattice(self) -> Optional[PeriodicLattice]:
        """The quotient by a sublattice L of rank r < d as a periodic
        lattice of dimension d - r, on which its directed SAWs are
        counted; None for a finite or tree quotient, and where dropping
        the loops leaves cells of unequal degree (a base self-edge in L
        at one cell and none at another), which a
        :class:`PeriodicLattice` refuses.

        Its cells are the pairs (base cell c, pivot coordinates p) with p
        in prod_j [0, pivot_j), numbered by :meth:`free_vertex`, and its
        offsets are the non-pivot (free) coordinates.  Each base edge row
        (i, j, off, m), taken from every cell (i, p), joins it to the
        cell and free offset of the Hermite reduction of p + off, with p
        placed in the pivot coordinates; loops are dropped.

        Why this is the quotient: a translation by a vector f supported
        on the free coordinates changes no pivot coordinate, so every
        Hermite reduction step subtracts the same multiple of its row,
        and reduce(x + f) = reduce(x) + f.  The quotient is therefore
        periodic along the free coordinates, the orbit key (c, y) is the
        lattice vertex ((c, y_piv), y_free), and each lattice slot
        multiplicity is the :meth:`drow` multiplicity of its target.  A
        directed quotient SAW is a SAW on this multigraph, since a loop
        is never a SAW step.
        """
        if self.finite or self.action.kind != "sublattice":
            return None
        base, hnf, piv = self.base, self._hnf, self._piv
        d = base.dimension
        zero = (0,) * (d - len(piv))
        edges = []
        for i, j, off, m in base.edges:
            for p in product(*map(range, self._diag)):
                x = [0] * d
                for pc, a in zip(piv, p):
                    x[pc] = a
                cell = self.free_vertex((i, x))[0]
                target = self.free_vertex((j, reduce_mod_lattice(
                    tuple(map(add, x, off)), hnf, piv)))
                if target != (cell, zero):
                    edges.append((cell, *target, m))
        try:
            return PeriodicLattice(d - len(piv), base.cells * prod(self._diag),
                                   edges, f"{self.quotient_id}|free")
        except GraphError:
            return None

    def free_vertex(self, o) -> tuple:
        """The vertex (cell, free coordinates) of :meth:`free_lattice`
        that is the orbit key o = (c, y): its cell numbers (c, y's pivot
        coordinates) in the order of :attr:`orbits`, c first."""
        c, y = o
        for pc, h in zip(self._piv, self._diag):
            c = c * h + y[pc]
        piv = set(self._piv)
        return c, tuple(a for k, a in enumerate(y) if k not in piv)

    def rep_of(self, o):
        """The canonical representative vertex of an orbit key."""
        if self.action.kind == "sublattice":
            return o
        return (o, ())

    def validate_key(self, o) -> None:
        """Refuse anything but the canonical key of an orbit: the base
        graph refuses a malformed representative with its
        ``InvalidVertexError``, and a ``ValueError`` names the canonical
        key of the orbit the representative lies in."""
        rep = self.rep_of(o)
        self.base.validate_key(rep)
        key = self.orbit_of(rep)
        if key != o:
            raise ValueError(f"{o!r} is not a canonical orbit key "
                             f"(its orbit's key is {key!r})")

    @cached_property
    def orbits(self) -> Optional[tuple]:
        """Every orbit key of a finite quotient, sorted; None otherwise.
        At full rank the canonical offsets form the box prod_j [0, pivot_j)
        over the pivot columns, one per coset, listed in order."""
        if not self.finite:
            return None
        if self.action.kind != "sublattice":
            return tuple(range(self._shift))
        return tuple((c, off) for c in range(self.base.cells)
                     for off in product(*map(range, self._diag)))

    def drow(self, o) -> tuple:
        """Directed adjacency row: sorted tuple of (target_orbit, mult),
        loops included, computed from the canonical representative."""
        row = self._rows.get(o)
        if row is None:
            row = self._rows[o] = _orbit_tally(self.base, self.orbit_of,
                                               self.rep_of(o))
        return row

    def slot_rows(self, o) -> tuple:
        """(rows, firsts) for orbit o of a sublattice quotient: rows[l] is
        the index in ``drow(o)`` of the orbit that slot l of the base
        lattice's slot table reaches from o's cell, and firsts[j] the
        first slot reaching entry j.  A translation by L keeps every
        neighbour's orbit, so they hold at every vertex of o."""
        got = self._slot_rows.get(o)
        if got is None:
            c, x = o
            index = {t: j for j, (t, _m) in enumerate(self.drow(o))}
            rows = tuple(index[self.orbit_of((tc, tuple(
                a + b for a, b in zip(x, delta))))]
                for tc, delta, _m in self.base.slot_table()[c])
            got = self._slot_rows[o] = (rows, tuple(map(rows.index,
                                                        range(len(index)))))
        return got

    def dmult(self, o, t) -> int:
        """Number of directed edges o -> t, i.e. |neighbors of a vertex of
        o lying in t| (0 if none)."""
        for tgt, m in self.drow(o):
            if tgt == t:
                return m
        return 0

    def loops(self, o) -> int:
        return self.dmult(o, o)

    def origin_orbit(self):
        return self.orbit_of(self.base.origin())

    def probed_orbits(self, radius: int) -> tuple:
        """Every orbit of a finite quotient; else, sorted, the orbits of
        the radius-``radius`` ball around the base graph's origin."""
        if self.finite:
            return self.orbits
        probe = ball(self.base, self.base.origin(), radius)
        return tuple(sorted({self.orbit_of(v) for v in probe}))

    # -- serialization -------------------------------------------------------

    def to_text(self, probe_radius: int = 3) -> str:
        """Deterministic structured-text dump (orbit list, multiplicity
        rows, loop counts).  Infinite-orbit quotients dump the rows of the
        orbits within ``probe_radius`` of the origin orbit's representative."""
        orbits = self.probed_orbits(probe_radius)
        header = f"orbits {self.orbit_count}" if self.finite else \
            f"orbits infinite (showing radius-{probe_radius} probe)"
        lines = [f"quotient {self.quotient_id}", header]
        for o in orbits:
            row = " ".join(f"{t!r}:{m}" for t, m in self.drow(o))
            lines.append(f"  {o!r} -> {row}")
        lines.append("loops " + " ".join(
            f"{o!r}:{self.loops(o)}" for o in orbits if self.loops(o)))
        return "\n".join(lines)


def build_quotient(g: GraphHandle, action: SubgroupAction) -> QuotientGraph:
    """Validate the action against g and construct the quotient.

    No generator is checked against g's edges: a :class:`PeriodicLattice`
    lists each vertex's neighbours by cell and offset, the same rows at
    every translate, so every lattice translation is a symmetry by
    construction; :class:`QuotientGraph` refuses a graph of the wrong
    kind and rows of the wrong length.
    """
    return QuotientGraph(g, action)


# ---------------------------------------------------------------------------
# Soundness checks
# ---------------------------------------------------------------------------

def check_representative_independence(g: GraphHandle, q: QuotientGraph,
                                      radius: int) -> bool:
    """Does every vertex within ``radius`` of the origin see the same
    per-orbit neighbor multiplicities as its orbit's canonical
    representative?  True for genuine symmetry actions; False flags a
    corrupted adjacency table or a non-symmetry."""
    return all(_orbit_tally(g, q.orbit_of, u) == q.drow(q.orbit_of(u))
               for u in ball(g, g.origin(), radius))


def check_symmetry(q: QuotientGraph, probe_radius: int = 4) -> bool:
    """Is the directed multiplicity table symmetric (mult(a->b) ==
    mult(b->a) for all orbit pairs)?

    Finite quotients are checked exhaustively.  Infinite-orbit quotients
    are probed on the orbits within ``probe_radius`` of the origin — a
    relaxation: a False is definitive, a True is a radius-limited witness.
    """
    orbits = q.probed_orbits(probe_radius)
    sample = set(orbits)
    for o in orbits:
        for t, m in q.drow(o):
            if t in sample and q.dmult(t, o) != m:
                return False
    return True


# ---------------------------------------------------------------------------
# Type classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeReport:
    """Classification of the action by its shortest orbit-connecting walk.

    ``witness`` is a shortest self-avoiding walk in the base graph from
    the origin-orbit representative to a *different* vertex of the same
    orbit; ``length`` is its step count; ``type_`` is 1, 2 or 3 according
    to length 1, 2 or >= 3.  The length equals the shortest directed
    cycle length of the quotient.
    """

    type_: int
    witness: tuple
    length: int


_TYPE_SEARCH_CAP = 64


def classify_type(q: QuotientGraph) -> TypeReport:
    """Breadth-first search from the origin representative out to the
    nearest distinct vertex of the same orbit; a shortest path to it is
    automatically self-avoiding.

    The report's ``length`` is the quotient's directed girth: the shortest
    directed cycle that is the projection of a self-avoiding base walk
    (loops count as length 1; a 2-cycle whose only lifts backtrack along
    one base edge does not count)."""
    g = q.base
    v0 = q.rep_of(q.origin_orbit())
    o0 = q.orbit_of(v0)
    parent = {v0: None}
    frontier = [v0]
    for depth in range(1, _TYPE_SEARCH_CAP + 1):
        nxt = []
        for u in frontier:
            for w in set(g.expanded_neighbors(u)):
                if w in parent:
                    continue
                parent[w] = u
                if q.orbit_of(w) == o0:
                    path = [w]
                    cur = u
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    walk = tuple(reversed(path))
                    t = 1 if depth == 1 else (2 if depth == 2 else 3)
                    return TypeReport(type_=t, witness=walk, length=depth)
                nxt.append(w)
        frontier = nxt
    raise QuotientError(
        f"no orbit-connecting walk within {_TYPE_SEARCH_CAP} steps; "
        "is the action trivial?")


# ---------------------------------------------------------------------------
# Undirected derivations
# ---------------------------------------------------------------------------

class _DerivedGraph(GraphHandle):
    """An undirected graph on the orbit keys of ``quotient``, whose
    origin is the origin's orbit and whose keys the quotient validates."""

    def __init__(self, q: QuotientGraph, suffix: str):
        self.quotient = q
        self.graph_id = f"{q.quotient_id}|{suffix}"

    def origin(self):
        return self.quotient.origin_orbit()

    def validate_key(self, v) -> None:
        self.quotient.validate_key(v)

    def key_str(self, v) -> str:
        return repr(v)


class DerivedSimpleGraph(_DerivedGraph):
    """Simple undirected graph on orbit keys: one edge wherever any
    directed multiplicity is positive, loops dropped.

    Works lazily on infinite-orbit quotients: undirected adjacency of an
    orbit is exactly the set of orbits its representative's neighbors
    fall into (positivity of directed multiplicities is symmetric even
    when the counts are not).  Degrees may vary between orbits for wild
    quotients; ``degree`` reports the origin orbit's degree.
    """

    def __init__(self, q: QuotientGraph):
        super().__init__(q, "simple")
        self.is_simple = True
        self.degree = len(self.expanded_neighbors(self.origin()))

    def expanded_neighbors(self, v) -> tuple:
        return tuple(sorted(t for t, m in self.quotient.drow(v) if t != v))


class DerivedMultigraph(_DerivedGraph):
    """Undirected multigraph on orbit keys retaining multiplicities.

    Defined only for finite quotients whose multiplicity table is
    symmetric (so "the" undirected multiplicity between two orbits is
    well defined).  Loop counts are retained as-is on each vertex; the
    degree equals the base graph's degree, counting loops once.
    """

    def __init__(self, q: QuotientGraph):
        if not q.finite:
            raise InfiniteOrbitError(
                "multiplicity-retaining derivation needs a finite quotient")
        if not check_symmetry(q):
            raise SymmetryRequiredError(
                "multiplicity-retaining derivation needs a symmetric quotient")
        super().__init__(q, "multi")
        self.is_simple = all(m == 1 and t != o
                             for o in q.orbits for t, m in q.drow(o))
        self.degree = q.base.degree

    def expanded_neighbors(self, v) -> tuple:
        out = []
        for t, m in self.quotient.drow(v):
            out.extend([t] * m)
        return tuple(out)


def derive_undirected(q: QuotientGraph, keep_multiplicity: bool) -> GraphHandle:
    """The undirected shadow of a quotient: simple, or with multiplicities
    retained (the latter requires a finite symmetric quotient)."""
    return DerivedMultigraph(q) if keep_multiplicity else DerivedSimpleGraph(q)


# ---------------------------------------------------------------------------
# Lift / project: the walk correspondence
# ---------------------------------------------------------------------------
#
# A walk on the base graph is (vertices, slots): vertices[0..n] and, for
# each step, the index of the edge used in the expanded neighbor list of
# the vertex it leaves.  A directed walk on the quotient is
# (start_orbit, steps) with steps = ((target_orbit, parallel_index), ...):
# parallel_index ranks the edge among the slots of the current vertex
# that land in target_orbit.  For a fixed base vertex these two
# numberings determine each other slot-by-slot, which is what makes the
# correspondence a bijection on n-step walks.

def project(q: QuotientGraph, vertices: tuple, slots: tuple) -> tuple:
    """Project a base-graph walk to a directed quotient walk."""
    if len(vertices) != len(slots) + 1:
        raise InvalidLabelError("walk wants len(vertices) == len(slots)+1")
    steps = []
    for u, s, w in zip(vertices, slots, vertices[1:]):
        exp = q.base.expanded_neighbors(u)
        if not (0 <= s < len(exp)) or exp[s] != w:
            raise InvalidLabelError(f"slot {s} at {u!r} does not reach {w!r}")
        t = q.orbit_of(w)
        rank = sum(1 for s2 in range(s) if q.orbit_of(exp[s2]) == t)
        steps.append((t, rank))
    return (q.orbit_of(vertices[0]), tuple(steps))


def lift(q: QuotientGraph, base_vertex, dwalk: tuple) -> tuple:
    """Lift a directed quotient walk to the base-graph walk from
    ``base_vertex`` using the same slot numbering; inverse of
    :func:`project` for walks from that vertex."""
    start_orbit, steps = dwalk
    if q.orbit_of(base_vertex) != start_orbit:
        raise InvalidLabelError(
            f"base vertex {base_vertex!r} is not in orbit {start_orbit!r}")
    vertices = [base_vertex]
    slots = []
    for (t, rank) in steps:
        u = vertices[-1]
        exp = q.base.expanded_neighbors(u)
        cands = [i for i, w in enumerate(exp) if q.orbit_of(w) == t]
        if rank >= len(cands):
            raise InvalidLabelError(
                f"parallel index {rank} out of range at {u!r} -> {t!r}")
        s = cands[rank]
        slots.append(s)
        vertices.append(exp[s])
    return tuple(vertices), tuple(slots)
