"""Infinite vertex-transitive graphs behind a uniform neighbor interface.

Three families of handles are provided:

* :class:`PeriodicLattice` — graphs periodic under a full-rank translation
  action of Z^d, described by a finite cell of vertices and an edge list
  with integer cell offsets.  Covers zd(d), the ladder, the square-octagon
  lattice, and every chord augmentation of these.
* :class:`CayleyGraph` — graphs on reduced words of a finitely presented
  group, with a user-supplied (or catalog) rewriting system.  Used for the
  regular trees tree(d), realized as free products of d involutions.
* :class:`TreeWithEnd` — the d-regular tree with a distinguished end and
  its horocyclic level structure exposed.  Needed by the quotient module's
  level-collapsing catalog actions.

Vertex keys are plain hashable tuples (shapes documented per handle); a
key is meaningful only together with its handle.  Neighbor lists are
deterministically ordered and stable across runs, which the lift/project
machinery in :mod:`sawkit.quotient` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GraphError(Exception):
    """Base class for graph-construction and key errors."""


class InvalidVertexError(GraphError):
    pass


class CatalogError(GraphError):
    pass


class AugmentError(GraphError):
    pass


class SpecFormatError(GraphError):
    pass


class RewriteLimitError(GraphError):
    pass


# ---------------------------------------------------------------------------
# Handle interface
# ---------------------------------------------------------------------------

class GraphHandle:
    """Immutable locally finite graph with deterministic neighbor order.

    Subclasses set ``graph_id`` (a stable display string), ``degree``,
    ``is_simple`` (no loops or parallel edges) and ``is_acyclic``, and
    implement ``origin``, ``validate_key`` and ``expanded_neighbors``.

    ``expanded_neighbors(v)`` is the primitive: a tuple of exactly
    ``degree`` vertex keys, one per incident edge slot, in the handle's
    canonical order; a parallel edge contributes one slot per copy
    (adjacent in the order).  ``neighbors(v)`` is the aggregated view
    ``[(key, label, multiplicity), ...]`` where ``label`` is the index of
    the group's first slot.
    """

    graph_id: str = "?"
    degree: int = 0
    is_simple: bool = True
    is_acyclic: bool = False

    def origin(self):
        raise NotImplementedError

    def validate_key(self, v) -> None:
        raise NotImplementedError

    def expanded_neighbors(self, v) -> tuple:
        raise NotImplementedError

    def neighbors(self, v) -> list:
        """Aggregated neighbor list [(key, label, multiplicity), ...]: one
        triple per distinct target, in order of its first slot, labelled
        by that slot's index and counting every slot that reaches it."""
        out = []
        seen: dict = {}
        for i, w in enumerate(self.expanded_neighbors(v)):
            k = seen.get(w)
            if k is None:
                seen[w] = len(out)
                out.append((w, i, 1))
            else:
                out[k] = (w, out[k][1], out[k][2] + 1)
        return out

    # Key serialization (round-trips bit-exactly; formats per subclass).
    def key_str(self, v) -> str:
        raise NotImplementedError

    def parse_key(self, s: str):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.graph_id} degree={self.degree}>"


def ball(g: GraphHandle, v, r: int) -> set:
    """All vertices within graph distance r of v (BFS, exact)."""
    if r < 0:
        raise ValueError("ball radius must be >= 0")
    g.validate_key(v)
    return set(ball_with_dist(g, v, r))


def ball_with_dist(g: GraphHandle, v, r: int) -> dict:
    """Map vertex -> distance for the radius-r ball around v."""
    dist = {v: 0}
    frontier = [v]
    for layer in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in set(g.expanded_neighbors(u)):
                if w not in dist:
                    dist[w] = layer
                    nxt.append(w)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Periodic lattices
# ---------------------------------------------------------------------------

def _norm_edge(i: int, j: int, off: tuple, mult: int):
    """Canonical orientation of an undirected edge orbit: (i, j, off) and
    (j, i, -off) describe the same orbit; keep the lexicographically
    smaller encoding."""
    neg = tuple(-x for x in off)
    return min((i, j, off, mult), (j, i, neg, mult))


class PeriodicLattice(GraphHandle):
    """Graph on keys (cell, offset_vector) periodic under Z^d translations.

    ``edges`` rows are (i, j, offset, parallel_count): cell i of the
    origin copy is joined to cell j displaced by ``offset``, with
    ``parallel_count`` parallel copies of the edge.  Translations act by
    (c, x) -> (c, x + t), so one row describes a whole edge orbit.  Loops
    (i == j with zero offset) are rejected; parallel rows with the same
    endpoints merge their counts.

    Vertex-transitivity is *asserted* by the catalog (translations alone
    act transitively only within a cell index); :mod:`sawkit.balls`
    provides the radius-ball witness check used by the test-suite.
    """

    def __init__(self, dimension: int, cells: int, edges: Iterable[tuple],
                 graph_id: str = "lattice"):
        if dimension < 1 or cells < 1:
            raise GraphError("dimension and cells must be >= 1")
        self.dimension = dimension
        self.cells = cells
        self.graph_id = graph_id

        merged: dict = {}
        for row in edges:
            i, j, off, mult = row
            off = tuple(int(x) for x in off)
            if len(off) != dimension:
                raise GraphError(f"edge offset {off} has wrong dimension")
            if not (0 <= i < cells and 0 <= j < cells):
                raise GraphError(f"edge ({i},{j}) outside cell range")
            if mult < 1:
                raise GraphError("parallel_count must be >= 1")
            if i == j and all(x == 0 for x in off):
                raise GraphError("loops are not allowed outside quotients")
            ni, nj, noff, _ = _norm_edge(i, j, off, mult)
            merged[(ni, nj, noff)] = merged.get((ni, nj, noff), 0) + mult
        if not merged:
            raise GraphError("edge list is empty")
        self.edges = tuple(sorted((i, j, off, m)
                                  for (i, j, off), m in merged.items()))

        # Per-cell slot table: sorted (target_cell, delta, multiplicity).
        table: list = [dict() for _ in range(cells)]
        for (i, j, off, m) in self.edges:
            noff = tuple(-x for x in off)
            table[i][(j, off)] = table[i].get((j, off), 0) + m
            table[j][(i, noff)] = table[j].get((i, noff), 0) + m
        self._slots = tuple(
            tuple((tc, delta, m) for (tc, delta), m in sorted(row.items()))
            for row in table)

        degrees = {sum(m for _, _, m in row) for row in self._slots}
        if len(degrees) != 1:
            raise GraphError(
                f"cells have unequal degrees {sorted(degrees)}; "
                "the graph cannot be vertex-transitive")
        self.degree = degrees.pop()
        self.is_simple = all(m == 1 for row in self._slots for _, _, m in row)
        self.is_acyclic = False

        # Expanded slot view used by lift/project: repeat each entry by
        # multiplicity, preserving the sorted order.
        self._expanded = tuple(
            tuple((tc, delta)
                  for (tc, delta, m) in row for _ in range(m))
            for row in self._slots)

    # -- handle interface ----------------------------------------------------

    def origin(self):
        return (0, (0,) * self.dimension)

    def validate_key(self, v) -> None:
        ok = (isinstance(v, tuple) and len(v) == 2
              and isinstance(v[0], int) and 0 <= v[0] < self.cells
              and isinstance(v[1], tuple) and len(v[1]) == self.dimension
              and all(isinstance(x, int) for x in v[1]))
        if not ok:
            raise InvalidVertexError(f"malformed lattice key {v!r}")

    def expanded_neighbors(self, v) -> tuple:
        c, x = v
        return tuple((tc, tuple(a + b for a, b in zip(x, delta)))
                     for tc, delta in self._expanded[c])

    def slot_table(self) -> tuple:
        """Per-cell tuple of (target_cell, delta, multiplicity), sorted.

        Internal accessor for the counting kernels; stable order.
        """
        return self._slots

    def key_str(self, v) -> str:
        return f"{v[0]}:{','.join(str(x) for x in v[1])}"

    def parse_key(self, s: str):
        try:
            cell, rest = s.split(":", 1)
            v = (int(cell), tuple(int(x) for x in rest.split(",")))
        except Exception as e:
            raise InvalidVertexError(f"cannot parse lattice key {s!r}") from e
        self.validate_key(v)
        return v


# ---------------------------------------------------------------------------
# Finitely presented groups and Cayley graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation with an explicit rewriting system.

    ``generators`` are names; ``inverse[i]`` is the index of the formal
    inverse of generator i (self-inverse allowed), making the generating
    set closed under inversion with the identity excluded.  ``relators``
    are words (tuples of generator indices) that must close as walks.
    ``rewrite_rules`` map lhs words to strictly-shorter-or-equal rhs
    words; the free-reduction rules (i, inverse[i]) -> () are implied and
    need not be listed.  No completion is attempted: rewriting is applied
    to a fixed point with an iteration guard, and the ball-growth checks
    in the test-suite are the empirical termination/confluence witness.
    """

    generators: tuple
    inverse: tuple
    relators: tuple = ()
    rewrite_rules: tuple = ()

    def __post_init__(self):
        n = len(self.generators)
        if n == 0:
            raise GraphError("need at least one generator")
        if len(self.inverse) != n or sorted(self.inverse) != list(range(n)):
            raise GraphError("inverse must be a permutation of generator indices")
        for i, j in enumerate(self.inverse):
            if self.inverse[j] != i:
                raise GraphError("inverse must be an involution")
        for lhs, rhs in self.rewrite_rules:
            if not lhs:
                raise GraphError("rewrite rules need a non-empty lhs")
            if len(rhs) > len(lhs):
                raise GraphError("rewrite rules must not increase length")

    def all_rules(self) -> tuple:
        free = tuple(((i, self.inverse[i]), ()) for i in range(len(self.generators)))
        return free + tuple(self.rewrite_rules)


class CayleyGraph(GraphHandle):
    """Cayley graph on reduced words of a presented group.

    Keys are reduced words (tuples of generator indices); the identity is
    ``()``.  Neighbor order follows generator index, as the labels of a
    Cayley graph naturally do.  The degree is the number of generators;
    two generators reaching the same element produce a parallel edge.
    """

    _MAX_PASSES = 10_000

    def __init__(self, pres: GroupPresentation, graph_id: str = "cayley",
                 is_acyclic: bool = False):
        self.presentation = pres
        self.graph_id = graph_id
        self.degree = len(pres.generators)
        self.is_acyclic = is_acyclic
        self._rules = pres.all_rules()
        # The rules by the last letter of their lhs, in rule order.
        self._tail_rules = tuple(
            tuple((lhs, rhs) for lhs, rhs in self._rules if lhs[-1] == i)
            for i in range(self.degree))
        # Simplicity probe at the identity: transitivity carries it everywhere.
        nb = self.expanded_neighbors(())
        self.is_simple = len(set(nb)) == len(nb) and () not in nb

    def reduce_word(self, word: tuple) -> tuple:
        w = tuple(word)
        for _ in range(self._MAX_PASSES):
            changed = False
            for lhs, rhs in self._rules:
                k = len(lhs)
                i = 0
                while i + k <= len(w):
                    if w[i:i + k] == lhs:
                        w = w[:i] + tuple(rhs) + w[i + k:]
                        changed = True
                        i = max(i - k, 0)
                    else:
                        i += 1
            if not changed:
                return w
        raise RewriteLimitError(
            f"rewriting did not terminate within {self._MAX_PASSES} passes")

    def relators_close(self, v: tuple) -> bool:
        """Every relator, walked from v, returns to v (closed walk)."""
        return all(self.reduce_word(v + r) == v
                   for r in self.presentation.relators)

    # -- handle interface ----------------------------------------------------

    def origin(self):
        return ()

    def validate_key(self, v) -> None:
        if not (isinstance(v, tuple)
                and all(isinstance(i, int) and 0 <= i < self.degree for i in v)):
            raise InvalidVertexError(f"malformed word key {v!r}")
        if self.reduce_word(v) != v:
            raise InvalidVertexError(f"word key {v!r} is not reduced")

    def expanded_neighbors(self, v) -> tuple:
        # v is reduced, so every redex of v + (i,) is a suffix, and
        # reduce_word applies the first rule that has one.  A rule with
        # an empty rhs leaves a prefix of v, which is reduced; any other
        # rule takes the full rewrite.
        out = []
        for i, rules in enumerate(self._tail_rules):
            w = v + (i,)
            for lhs, rhs in rules:
                if w[-len(lhs):] == lhs:
                    w = self.reduce_word(w) if rhs else w[:-len(lhs)]
                    break
            out.append(w)
        return tuple(out)

    def key_str(self, v) -> str:
        return ".".join(str(i) for i in v) if v else "-"

    def parse_key(self, s: str):
        try:
            v = () if s == "-" else tuple(int(t) for t in s.split("."))
        except ValueError as e:
            raise InvalidVertexError(f"bad vertex key {s!r}") from e
        self.validate_key(v)
        return v


def regular_tree(degree: int) -> CayleyGraph:
    """The degree-regular infinite tree as a free product of involutions."""
    if degree < 2:
        raise CatalogError("regular tree needs degree >= 2")
    pres = GroupPresentation(
        generators=tuple(f"s{i}" for i in range(degree)),
        inverse=tuple(range(degree)),        # every generator self-inverse
        relators=tuple((i, i) for i in range(degree)),
    )
    return CayleyGraph(pres, graph_id=f"tree({degree})", is_acyclic=True)


# ---------------------------------------------------------------------------
# The regular tree with a distinguished end
# ---------------------------------------------------------------------------

class TreeWithEnd(GraphHandle):
    """Degree-d regular tree with a distinguished end and level structure.

    Fixing an end orients the tree: every vertex has one neighbor toward
    the end (its parent, one level up) and d-1 neighbors away from it
    (children, one level down).  Keys are (anchor, word):

    * (a, ()) is the a-th vertex of the reference ray ("spine"), level a;
    * descending from the spine at level a with a first turn c != 0 and
      further turns c' in {0..d-2} gives (a, (c, c', ...)), at level
      a - len(word).

    Child 0 of a spine vertex is the next spine vertex, which keeps the
    encoding unique (a descent word never starts with 0).  The level map
    level(v) = anchor - len(word) is exactly what the quotient module's
    end-fixing catalog actions collapse.
    """

    def __init__(self, degree: int):
        if degree < 3:
            raise CatalogError("tree-with-end needs degree >= 3")
        self.degree = degree
        self.graph_id = f"tree-with-end({degree})"
        self.is_simple = True
        self.is_acyclic = True

    def origin(self):
        return (0, ())

    def level(self, v) -> int:
        return v[0] - len(v[1])

    def validate_key(self, v) -> None:
        ok = (isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int)
              and isinstance(v[1], tuple)
              and all(isinstance(c, int) and 0 <= c <= self.degree - 2
                      for c in v[1])
              and (len(v[1]) == 0 or v[1][0] != 0))
        if not ok:
            raise InvalidVertexError(f"malformed tree-with-end key {v!r}")

    def expanded_neighbors(self, v) -> tuple:
        a, w = v
        if w:
            parent = (a, w[:-1])
            kids = [(a, w + (c,)) for c in range(self.degree - 1)]
        else:
            parent = (a + 1, ())
            kids = [(a - 1, ())] + [(a, (c,)) for c in range(1, self.degree - 1)]
        return tuple(sorted(kids + [parent]))

    def key_str(self, v) -> str:
        a, w = v
        return f"{a}:{'.'.join(str(c) for c in w)}"

    def parse_key(self, s: str):
        try:
            a, rest = s.split(":", 1)
            w = () if rest == "" else tuple(int(t) for t in rest.split("."))
            v = (int(a), w)
        except Exception as e:
            raise InvalidVertexError(f"cannot parse tree-with-end key {s!r}") from e
        self.validate_key(v)
        return v


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _zd(d: int) -> PeriodicLattice:
    if d < 1:
        raise CatalogError("zd needs dimension >= 1")
    eye = [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    return PeriodicLattice(d, 1, [(0, 0, e, 1) for e in eye],
                           graph_id=f"zd({d})")


def _ladder() -> PeriodicLattice:
    # Two rails along Z joined by rungs: cells 0 (bottom) and 1 (top).
    return PeriodicLattice(1, 2, [
        (0, 0, (1,), 1),   # bottom rail
        (1, 1, (1,), 1),   # top rail
        (0, 1, (0,), 1),   # rung
    ], graph_id="ladder")


def _square_octagon() -> PeriodicLattice:
    # Degree-3 lattice of squares and octagons, four cells per fundamental
    # domain.  Cells 0..3 are the four corners of the squares
    # (0=SW, 1=SE, 2=NW, 3=NE); E1..E4 are the square sides and E5/E6 the
    # links between squares.  Every vertex lies on one 4-gon and two 8-gons,
    # and the map (i,j) -> (-j,-i) on cells 0<->0,1<->2,3<->3 realizes the
    # reflection that makes the geometric symmetry group vertex-transitive.
    return PeriodicLattice(2, 4, [
        (0, 1, (0, 0), 1),
        (2, 3, (0, 0), 1),
        (0, 2, (0, 0), 1),
        (1, 3, (0, 0), 1),
        (3, 0, (1, 0), 1),
        (1, 2, (0, 1), 1),
    ], graph_id="square-octagon")


def catalog(name: str) -> GraphHandle:
    """Construct a catalog graph by stable name.

    Accepted: ``zd(d)`` / ``zd:d``, ``ladder``, ``square-octagon``,
    ``tree(d)`` / ``tree:d``, ``tree-with-end(d)`` / ``tree-with-end:d``.
    """
    name = name.strip()

    def arg_of(prefix: str):
        body = name[len(prefix):]
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        elif body.startswith(":"):
            body = body[1:]
        else:
            return None
        try:
            return int(body)
        except ValueError:
            return None

    if name == "ladder":
        return _ladder()
    if name == "square-octagon":
        return _square_octagon()
    for prefix, builder in (("zd", _zd), ("tree-with-end", TreeWithEnd),
                            ("tree", regular_tree)):
        if name.startswith(prefix):
            k = arg_of(prefix)
            if k is not None:
                return builder(k)
    raise CatalogError(f"unknown catalog graph {name!r}")


CATALOG_NAMES = ("zd(1)", "zd(2)", "zd(3)", "ladder", "square-octagon",
                 "tree(3)", "tree(4)", "tree-with-end(3)")


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def augment(g: GraphHandle, chord: tuple) -> PeriodicLattice:
    """Add the translation orbit of one chord to a periodic lattice.

    ``chord = (u, v)`` with distinct vertex keys of g.  The new edge may
    be parallel to an existing one, in which case the result is a
    multigraph.  Only lattice handles support augmentation: their
    translation group carries any chord to a full edge orbit; for word
    handles the equivalent operation is enlarging the generating set,
    which is out of scope here.
    """
    if not isinstance(g, PeriodicLattice):
        raise AugmentError("augment is supported for periodic lattices only")
    u, v = chord
    g.validate_key(u)
    g.validate_key(v)
    if u == v:
        raise AugmentError("chord endpoints coincide; loops are not allowed")
    (ci, xi), (cj, xj) = u, v
    off = tuple(b - a for a, b in zip(xi, xj))
    new_id = f"{g.graph_id}+chord[{g.key_str(u)}-{g.key_str(v)}]"
    return PeriodicLattice(g.dimension, g.cells,
                           list(g.edges) + [(ci, cj, off, 1)],
                           graph_id=new_id)


# ---------------------------------------------------------------------------
# Graph-spec files
# ---------------------------------------------------------------------------

SPEC_GRAMMAR = """\
Graph-spec file grammar (one directive per line, '#' starts a comment):

    kind lattice
    dimension <d>
    cells <c>
    edge <i> <j> <off_1> ... <off_d> <parallel_count>   (repeated)

Field order is free except that `dimension` must precede `edge` lines.
Only `kind lattice` is defined.
"""


def load_spec_file(path: str) -> PeriodicLattice:
    """Parse a graph-spec file (grammar in SPEC_GRAMMAR)."""
    kind = dim = cells = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "kind":
                    kind = parts[1]
                elif parts[0] == "dimension":
                    dim = int(parts[1])
                elif parts[0] == "cells":
                    cells = int(parts[1])
                elif parts[0] == "edge":
                    if dim is None:
                        raise SpecFormatError(
                            f"line {lineno}: edge before dimension")
                    nums = [int(t) for t in parts[1:]]
                    if len(nums) != 2 + dim + 1:
                        raise SpecFormatError(
                            f"line {lineno}: edge wants i j off*{dim} count")
                    i, j, off, m = nums[0], nums[1], tuple(nums[2:2 + dim]), nums[-1]
                    edges.append((i, j, off, m))
                else:
                    raise SpecFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
            except (IndexError, ValueError) as e:
                raise SpecFormatError(f"line {lineno}: {raw.strip()!r}") from e
    if kind != "lattice":
        raise SpecFormatError("spec file must declare 'kind lattice'")
    if dim is None or cells is None or not edges:
        raise SpecFormatError("spec file needs dimension, cells and edges")
    import os
    return PeriodicLattice(dim, cells, edges,
                           graph_id=f"file:{os.path.basename(path)}")


def spec_text(g: PeriodicLattice) -> str:
    """The spec-file lines of ``g``, as :func:`load_spec_file` reads them."""
    lines = ["kind lattice", f"dimension {g.dimension}", f"cells {g.cells}"]
    for (i, j, off, m) in g.edges:
        lines.append("edge " + " ".join(str(t) for t in (i, j, *off, m)))
    return "\n".join(lines) + "\n"


def dump_spec_file(g: PeriodicLattice, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec_text(g))
