"""Certified lower bounds on the base graph's growth constant.

Two sources are implemented: exact bridge counts on Z^d (walks forced
strictly right on the first step and never beyond their endpoint's first
coordinate; their counts multiply under concatenation, so every n-th
root is a valid lower bound), and the degree bound sqrt(degree-1) for
simple transitive graphs.  A user-supplied exact constant (e.g. a known
growth constant) is the third, trivial, source.  :func:`lower_bounds`
alone picks a graph's source, for ``saw ratio`` and ``saw bounds``
alike.  Bridges are counted by :meth:`sawkit.counting._Split.counts`
with their own walker, which carries the first coordinate and its
running maximum, on a split around the half-space table of
:func:`sawkit.counting._lattice_split`, which also supplies the origin's
stabiliser maps that fix the first coordinate and the tail memo of the
SAW kernel.  The walker shares that memo's step and adds the first
coordinate's two capped distances to its key.

Lower-bound sequences are kept non-decreasing by a running-maximum
transform — replacing an entry by an earlier, larger valid lower bound
is still a valid lower bound — because the certificate search assumes
monotonicity.  Entries are exact :class:`~sawkit.exact.Radical` values;
all comparisons here are integer-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .counting import (_flush_tails, _lattice_split, _memo_depth, _Split,
                       _store_tail)
from .exact import Radical
from .graphs import PeriodicLattice, catalog
from .quotient import hermite_rows


class BoundError(Exception):
    """A requested bound is not valid for the given graph."""


# ---------------------------------------------------------------------------
# Bridge enumeration on Z^d
# ---------------------------------------------------------------------------

def _bridge_counts_from(task, table, xs, x1, n_total):
    """Bridge counts by depth from a prefix task (id path, slot indices,
    weight); the prefix's endpoint is counted here, earlier depths are
    not.  ``xs[i]`` is the first coordinate of id i, extended with
    ``x1(key)`` whenever the table grows.

    The DFS explores SAWs on half-space rows, whose first coordinate x
    stays >= 1 after the origin, and counts a depth whenever x attains
    the walk's running maximum ``hi`` (the endpoint-confinement
    condition, checked incrementally).

    Each tail is counted once, by the memo step of the SAW walker
    (:func:`sawkit.counting._counts_from`), in the calls its 2K rule
    admits.  A tail of at most K steps from a vertex at x depends on
    three values, which key it: the occupancy of the vertex's radius-K
    ball; min(x - 1, K), its distance to the blocked half-space x < 1,
    which no tail from x > K reaches; and min(hi - x, K + 1), how far
    below ``hi`` it starts, as a tail from K + 1 or more below counts
    nothing.
    """
    prefix, _slots, weight = task
    keys, rows, row_of, visited = \
        table.keys, table.rows, table.row, table.visited

    def grow():
        xs.extend(map(x1, keys[len(xs):]))

    grow()
    hi = max(xs[o] for o in prefix)
    base = len(prefix) - 1
    counts = [0] * (n_total - base + 1)
    counts[0] = 1 if xs[prefix[-1]] == hi else 0
    if base < n_total:
        for o in prefix:
            visited[o] = 1
        limit = n_total - base
        top = _memo_depth(table, limit)
        merged: dict = {}

        def rec(o, hi, depth, rows=rows, xs=xs, visited=visited,
                counts=counts, limit=limit, top=top, tails=table.tails,
                tail_of=table.tail, K=table.radius, merged=merged):
            nd = depth + 1
            row = rows[o]
            if row is None:
                row = row_of(o)
                grow()
            if nd == top:
                for t, _m in row:
                    if not visited[t]:
                        x = xs[t]
                        if x >= hi:
                            counts[nd] += 1
                            nt = x
                        else:
                            nt = hi
                        memo, occupied = tails[t] or tail_of(t)
                        key = (occupied(visited), x - 1 if x <= K else K,
                               nt - x if nt - x <= K else K + 1)
                        got = memo.get(key)
                        if got is None:
                            visited[t] = 1
                            got = _store_tail(memo, key, counts, nd + 1,
                                              partial(rec, t, nt, nd))
                            visited[t] = 0
                        merged[got] = merged.get(got, 0) + 1
                return
            for t, _m in row:
                if not visited[t]:
                    x = xs[t]
                    if x >= hi:
                        counts[nd] += 1
                        nt = x
                    else:
                        nt = hi
                    if nd < limit:
                        visited[t] = 1
                        rec(t, nt, nd)
                        visited[t] = 0

        rec(prefix[-1], hi, 0)
        rec = None      # break the closure's cycle, which holds the table
        for o in prefix:
            visited[o] = 0
        _flush_tails(merged, counts, top + 1)
    return [c * weight for c in counts] if weight != 1 else counts


def bridge_counts(d: int, n_max: int, workers: Optional[int] = None) -> list:
    """Exact bridge counts beta_0..beta_n_max on Z^d (beta_0 = 1).

    A bridge advances its first coordinate on step one and keeps every
    vertex's first coordinate within (0, x1(end)].  Counts multiply under
    concatenation, so beta_n**(1/n) never exceeds the growth constant.
    The prefix split merges prefixes under the reflections and axis
    permutations that fix the first coordinate.
    """
    if d < 1:
        raise BoundError("bridge counts need dimension >= 1")
    lat = catalog(f"zd:{d}")
    table, start, maps, x1 = _lattice_split(lat, lat.origin(), n_max,
                                            half_space=True)
    split = _Split(lat, lat.origin(), n_max, table, start, maps)
    return split.counts(lat, None, n_max, workers,
                        partial(_bridge_counts_from, xs=[], x1=x1))


# ---------------------------------------------------------------------------
# Degree bound
# ---------------------------------------------------------------------------

def degree_bound(degree: int, simple: bool = True) -> Radical:
    """The constant lower bound sqrt(degree - 1), exact.

    Valid for infinite connected simple transitive graphs; refused for
    multigraphs, where the estimate does not apply.
    """
    if not simple:
        raise BoundError("degree bound requires a simple graph")
    if degree < 2:
        raise BoundError("degree bound needs degree >= 2")
    return Radical.nth_root(degree - 1, 2)


# ---------------------------------------------------------------------------
# Lower-bound sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundSequence:
    """Non-decreasing exact lower bounds b_1 <= ... <= b_N on the growth
    constant, with a provenance tag per entry.

    ``value_at(n)`` for n beyond the stored range returns the last entry:
    each entry bounds the same constant, so earlier entries remain valid
    at any later index.
    """

    graph_id: str
    entries: tuple
    provenance: tuple

    def __post_init__(self):
        if not self.entries:
            raise BoundError("empty lower-bound sequence")
        if len(self.entries) != len(self.provenance):
            raise BoundError("one provenance tag per entry, please")
        for earlier, later in zip(self.entries, self.entries[1:]):
            if not earlier <= later:
                raise BoundError("entries must be non-decreasing; "
                                 "regularize first")

    def __len__(self) -> int:
        return len(self.entries)

    def value_at(self, n: int) -> Radical:
        if n < 1:
            raise ValueError("indices start at 1")
        return self.entries[min(n, len(self.entries)) - 1]

    def provenance_at(self, n: int) -> str:
        if n < 1:
            raise ValueError("indices start at 1")
        return self.provenance[min(n, len(self.provenance)) - 1]

    def rows(self) -> list:
        return [(n + 1, float(v), p)
                for n, (v, p) in enumerate(zip(self.entries, self.provenance))]

    @classmethod
    def from_constant(cls, value, graph_id: str,
                      provenance: str = "constant") -> "LowerBoundSequence":
        """Single-entry sequence from an exact rational or Radical value
        (covers the 'growth constant known exactly' override)."""
        if not isinstance(value, Radical):
            value = Radical.from_fraction(Fraction(value))
        return cls(graph_id, (value,), (provenance,))


def monotone_regularize(values: Sequence, provenance=None,
                        graph_id: str = "?") -> LowerBoundSequence:
    """Running-maximum transform of valid lower bounds.

    Each output entry is the max of the inputs up to its index — still a
    lower bound on the same constant — and carries the provenance of the
    entry that attained the maximum.
    """
    vals = [v if isinstance(v, Radical) else Radical.from_fraction(Fraction(v))
            for v in values]
    if provenance is None:
        provenance = ["constant"] * len(vals)
    provenance = list(provenance)
    if len(provenance) != len(vals):
        raise BoundError("one provenance tag per value, please")
    out_v, out_p = [], []
    for v, p in zip(vals, provenance):
        if out_v and v < out_v[-1]:
            v, p = out_v[-1], out_p[-1]
        out_v.append(v)
        out_p.append(p)
    return LowerBoundSequence(graph_id, tuple(out_v), tuple(out_p))


def bridge_bounds(d: int, n_max: int,
                  workers: Optional[int] = None) -> tuple:
    """(beta counts, regularized LowerBoundSequence) for Z^d up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1 for a bound sequence")
    betas = bridge_counts(d, n_max, workers=workers)
    vals = [Radical.nth_root(betas[n], n) for n in range(1, n_max + 1)]
    seq = monotone_regularize(vals, ["bridge"] * len(vals),
                              graph_id=f"zd({d})")
    return betas, seq


def _contains_zd(g) -> bool:
    """Whether ``g`` is a one-cell lattice whose edge offsets hold d
    linearly independent vectors v_1..v_d.  Then x -> x_1 v_1 + ... +
    x_d v_d embeds Z^d in g as a subgraph, so sigma_n(g) >= sigma_n(Z^d)
    and the Z^d bridge bounds are lower bounds for mu(g) too."""
    if not isinstance(g, PeriodicLattice) or g.cells != 1:
        return False
    hnf, _ = hermite_rows(tuple(off for *_, off, _m in g.edges), g.dimension)
    return len(hnf) == g.dimension


def lower_bounds(g, n_max: int, workers: Optional[int] = None,
                 mu_exact: Optional[Fraction] = None) -> tuple:
    """(beta counts or None, LowerBoundSequence) for ``g`` from the first
    source that applies: the exact constant ``mu_exact``, the Z^d bridge
    table to ``n_max`` where g contains Z^d (the only one with counts),
    or the degree bound, a :class:`BoundError` on a multigraph."""
    if mu_exact is not None:
        return None, LowerBoundSequence.from_constant(
            mu_exact, g.graph_id, provenance="mu-exact")
    if _contains_zd(g):
        return bridge_bounds(g.dimension, n_max, workers=workers)
    return None, LowerBoundSequence.from_constant(
        degree_bound(g.degree, simple=g.is_simple), g.graph_id,
        provenance="degree")


def bound_rows(betas: list, seq: LowerBoundSequence) -> list:
    """(n, beta_n, b_n, provenance) export rows for n >= 1."""
    return [(n, betas[n], float(seq.value_at(n)), seq.provenance_at(n))
            for n in range(1, len(betas))]
