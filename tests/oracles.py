"""Independent naive reference implementations ("oracles").

Everything here is deliberately written the slow, literal way — explicit
path lists, no pruning tricks, no shared code with the package engines —
so that agreement between an engine and its oracle is meaningful
evidence.  Derived constants frozen into the test files were produced by
running these oracles before the engines existed (see
freeze_oracle_values.py next to this file).
"""

from __future__ import annotations

from collections import Counter


# ---------------------------------------------------------------------------
# Walk and SAW enumeration on a GraphHandle, by explicit path lists
# ---------------------------------------------------------------------------

def naive_saw_counts(g, v0, n_max: int) -> list:
    """[sigma_0..sigma_n_max] by enumerating edge-slot sequences whose
    vertex tracks are self-avoiding.  Parallel edges are distinct slots,
    hence distinct SAWs."""
    counts = [0] * (n_max + 1)
    counts[0] = 1
    paths = [[v0]]
    for n in range(1, n_max + 1):
        nxt = []
        for path in paths:
            seen = set(path)
            for w in g.expanded_neighbors(path[-1]):
                if w not in seen:
                    nxt.append(path + [w])
        counts[n] = len(nxt)
        paths = nxt
    return counts


def naive_walk_counts(g, v0, n_max: int) -> list:
    """[w_0..w_n_max]: all walks (repeats allowed), counting edge slots."""
    counts = [1]
    paths = [[v0]]
    for n in range(1, n_max + 1):
        nxt = []
        for path in paths:
            for w in g.expanded_neighbors(path[-1]):
                nxt.append(path + [w])
        counts.append(len(nxt))
        paths = nxt
    return counts


def apply_map(m, v):
    """The image of lattice vertex v = (c, x) under a stabiliser map
    m = (P, pi, t, slot table), P an integer matrix as a tuple of rows:
    (pi[c], P.x + t[c]), written out as plain row-times-column sums."""
    P, pi, t, _slots = m
    c, x = v
    image = []
    for i in range(len(P)):
        total = t[c][i]
        for j in range(len(x)):
            total += P[i][j] * x[j]
        image.append(total)
    return pi[c], tuple(image)


# ---------------------------------------------------------------------------
# Directed enumeration on a QuotientGraph
# ---------------------------------------------------------------------------

def _expanded_row(q, o) -> list:
    """One entry per directed edge slot out of orbit o (loops included)."""
    out = []
    for t, m in q.drow(o):
        out.extend([t] * m)
    return out


def naive_directed_saw_counts(q, n_max: int, start=None) -> list:
    start = q.origin_orbit() if start is None else start
    counts = [1] + [0] * n_max
    paths = [[start]]
    for n in range(1, n_max + 1):
        nxt = []
        for path in paths:
            seen = set(path)
            for t in _expanded_row(q, path[-1]):
                if t not in seen:
                    nxt.append(path + [t])
        counts[n] = len(nxt)
        paths = nxt
    return counts


def naive_directed_walk_counts(q, n_max: int, start=None) -> list:
    start = q.origin_orbit() if start is None else start
    counts = [1]
    paths = [[start]]
    for n in range(1, n_max + 1):
        nxt = []
        for path in paths:
            for t in _expanded_row(q, path[-1]):
                nxt.append(path + [t])
        counts.append(len(nxt))
        paths = nxt
    return counts


def naive_directed_saw_paths(q, n: int, start=None) -> list:
    """All n-step directed SAWs as orbit sequences, one per edge-slot
    choice (so a path may appear multiple times if parallel edges exist)."""
    start = q.origin_orbit() if start is None else start
    paths = [[start]]
    for _ in range(n):
        nxt = []
        for path in paths:
            seen = set(path)
            for t in _expanded_row(q, path[-1]):
                if t not in seen:
                    nxt.append(path + [t])
        paths = nxt
    return paths


# ---------------------------------------------------------------------------
# Cycle families and pattern events, straight from the definitions
# ---------------------------------------------------------------------------

def naive_family_sets(q, ell: int, orbit) -> frozenset:
    """Vertex-orbit sets of the length-ell cycles through ``orbit`` whose
    representative-based lifts are self-avoiding: enumerate SAWs of the
    base graph from rep(orbit) and keep those ending at a *different*
    vertex of the same orbit."""
    g = q.base
    rep = q.rep_of(orbit)
    paths = [[rep]]
    for _ in range(ell):
        nxt = []
        for path in paths:
            seen = set(path)
            for w in g.expanded_neighbors(path[-1]):
                if w not in seen:
                    nxt.append(path + [w])
        paths = nxt
    sets = set()
    for path in paths:
        if q.orbit_of(path[-1]) == orbit and path[-1] != rep:
            sets.add(frozenset(q.orbit_of(v) for v in path[:-1]))
    return frozenset(sets)


def naive_event_positions(orbit_seq, family_fn, k: int, m) -> list:
    """Positions j where the windowed event occurs on the walk with the
    given orbit sequence: some family set of the j-th orbit has >= k of
    its members among the orbits visited inside the window
    [j-m, j+m] (truncated at the walk ends; m=None means no window)."""
    n = len(orbit_seq) - 1
    whole = set(orbit_seq)
    hits = []
    for j in range(n + 1):
        if m is None:
            visited = whole
        else:
            visited = set(orbit_seq[max(0, j - m):min(n, j + m) + 1])
        for s in family_fn(orbit_seq[j]):
            if len(visited.intersection(s)) >= k:
                hits.append(j)
                break
    return hits


def naive_occurrence_tally(paths, family_fn, k: int, m) -> Counter:
    """How many of ``paths`` (orbit sequences) have each number of event
    occurrences; one evaluation per path serves every allowance r."""
    return Counter(len(naive_event_positions(path, family_fn, k, m))
                   for path in paths)


def naive_at_most(tally: Counter, r: int) -> int:
    """The paths of a tally with at most r occurrences."""
    return sum(c for occurrences, c in tally.items() if occurrences <= r)


def naive_event_count(q, family_fn, n: int, k: int, m, r: int, start=None) -> int:
    """sigma_n(r, E) by literal evaluation on every directed SAW."""
    return naive_at_most(naive_occurrence_tally(
        naive_directed_saw_paths(q, n, start), family_fn, k, m), r)


# ---------------------------------------------------------------------------
# Bridges on Z^d (first coordinate pinned between the endpoints)
# ---------------------------------------------------------------------------

def naive_bridge_counts(d: int, n_max: int) -> list:
    """[beta_0..beta_n_max]: SAWs on Z^d with x1 > 0 from step one on and
    x1 of every vertex <= x1 of the final vertex; enumerated as explicit
    paths with the x1 <= x1(final) condition checked per length."""
    origin = (0,) * d
    steps = []
    for i in range(d):
        for s in (1, -1):
            steps.append(tuple(s if t == i else 0 for t in range(d)))
    counts = [1] + [0] * n_max
    paths = [[origin]]
    for n in range(1, n_max + 1):
        nxt = []
        for path in paths:
            seen = set(path)
            for mv in steps:
                w = tuple(a + b for a, b in zip(path[-1], mv))
                if w[0] >= 1 and w not in seen:
                    nxt.append(path + [w])
        paths = nxt
        counts[n] = sum(1 for path in paths
                        if path[-1][0] == max(v[0] for v in path))
    return counts

