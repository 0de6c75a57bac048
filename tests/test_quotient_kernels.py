"""The directed quotient kernels on interned orbit ids, with prefixes
merged under the quotient's start stabiliser.

Directed counts and event-free series are checked against the naive
path-list oracles on finite and infinite quotients, from the origin
orbit and from other orbits; the stabiliser maps are checked to fix the
start orbit, to descend to the quotient's rows and to carry the cycle
family onto itself.
"""

import multiprocessing
from collections import Counter
from functools import partial

import pytest

from oracles import (apply_map, naive_at_most, naive_directed_saw_counts,
                     naive_directed_saw_paths, naive_event_count,
                     naive_occurrence_tally)
from sawkit import counting
from sawkit.bounds import LowerBoundSequence, bridge_bounds
from sawkit.certificate import certify_ratio, find_epsilon_m
from sawkit.cli import run
from sawkit.counting import (_counts_from, _merge_prefixes, _orbit_split,
                             _quotient_maps, _series_split,
                             count_directed_saws, lattice_stabiliser)
from sawkit.events import (CycleFamily, build_cycle_family, count_with_events,
                           event_free_series, event_series)
from sawkit.graphs import InvalidVertexError, augment, catalog, load_spec_file
from sawkit.quotient import build_quotient, sublattice_action, tree_action

# (graph, sublattice rows, order of the quotient's start stabiliser)
FINITE = [("zd:3", "3 0 0;0 3 0;0 0 3", 48), ("zd:2", "2 0;0 2", 8),
          ("zd:2", "3 0;0 1", 4), ("zd:2", "2 1;0 3", 2),
          ("ladder", "3", 2), ("zd:1", "3", 2)]
INFINITE = [("zd:2", "1 1", 4), ("square-octagon", "1 -1", 1)]
TREES = ["child-swap", "child-swap+shift:2"]


def _quotient(graph, rows):
    if rows in TREES:
        return build_quotient(catalog(graph), tree_action(rows))
    return build_quotient(catalog(graph), sublattice_action(
        [[int(x) for x in r.split()] for r in rows.split(";")]))


ALL = [(g, r) for g, r, _ in FINITE + INFINITE] + \
    [("tree-with-end(3)", a) for a in TREES]


def _starts(q):
    """The origin orbit and two others."""
    o0 = q.origin_orbit()
    if q.finite:
        return [o0, q.orbits[len(q.orbits) // 2], q.orbits[-1]]
    if q.action.kind != "sublattice":
        return [o0, 2, -3]
    # orbits two and three steps out along the first slots
    o1 = q.drow(q.drow(o0)[-1][0])[-1][0]
    return [o0, o1, q.drow(o1)[0][0]]


def _depth(q):
    return 5 if q.base.degree >= 6 else 7


@pytest.mark.parametrize("graph,rows", ALL)
def test_directed_counts_match_oracle(graph, rows):
    q = _quotient(graph, rows)
    n = _depth(q)
    for start in _starts(q):
        assert list(count_directed_saws(q, n, start=start).counts) == \
            naive_directed_saw_counts(q, n, start), start


@pytest.mark.parametrize("graph,rows", ALL)
def test_event_free_series_matches_oracle(graph, rows):
    q = _quotient(graph, rows)
    fam = build_cycle_family(q)
    n = _depth(q) - 1
    for start in _starts(q):
        for k in range(1, fam.length + 1):
            want = [naive_event_count(q, fam.sets_at, j, k, None, 0, start)
                    for j in range(n + 1)]
            assert event_free_series(q, fam, k, n, start=start) == want, \
                (start, k)


class _AnchoredAt(CycleFamily):
    """The girth family with its sets attached only at the orbits that
    ``keep`` accepts, so that a walk can visit members of a known set
    without visiting any orbit it is attached to."""

    def __init__(self, q, length, keep):
        super().__init__(q, length)
        self.keep = keep

    def sets_at(self, orbit):
        return super().sets_at(orbit) if self.keep(orbit) else ()


def test_windowed_series_matches_oracle_under_48_maps():
    # The zd:3 cube quotient merges its prefixes under 48 maps.  There a
    # girth-family occurrence needs a whole axis line inside the window,
    # so its three positions occur at once and every r column equals
    # r=0.  Attached only at orbits with other than one nonzero
    # coordinate, a family the 48 maps carry onto itself, one position
    # can occur alone.
    q = _quotient("zd:3", "3 0 0;0 3 0;0 0 3")
    girth = build_cycle_family(q)
    anchored = _AnchoredAt(q, 3, lambda o: sum(1 for c in o[1] if c) != 1)
    cases = [(girth, m, r) for m in (None, 0, 2) for r in (0, 1)] + \
        [(anchored, m, r) for m, r in ((None, 0), (None, 1), (None, 2),
                                       (2, 1))]
    # one oracle evaluation per (path, family, m) serves every r column
    paths = [naive_directed_saw_paths(q, n) for n in range(7)]
    tallies, columns = {}, {}
    for fam, m, r in cases:
        if (fam, m) not in tallies:
            tallies[fam, m] = [naive_occurrence_tally(p, fam.sets_at, 3, m)
                               for p in paths]
        want = columns[fam, m, r] = [naive_at_most(t, r)
                                     for t in tallies[fam, m]]
        assert event_series(q, fam, 3, 6, m, r) == want, (fam, m, r)
    # the anchored r columns differ, so a merge that ignored r would fail
    assert len({tuple(columns[anchored, None, r]) for r in (0, 1, 2)}) == 3


# quotients whose start stabiliser is the identity alone, so that any
# family is carried onto itself
@pytest.mark.parametrize("graph,rows,keep", [
    ("square-octagon", "1 -1", lambda o: o[0] == 0),
    ("tree-with-end(3)", "child-swap", lambda o: o % 2 == 0)])
def test_event_free_series_needs_an_anchor(graph, rows, keep):
    q = _quotient(graph, rows)
    fam = _AnchoredAt(q, build_cycle_family(q).length, keep)
    for k in range(1, fam.length + 1):
        want = [naive_event_count(q, fam.sets_at, j, k, None, 0)
                for j in range(8)]
        assert event_free_series(q, fam, k, 7) == want, k
        # the same walker with an allowance, with and without a window
        for m in (None, 1):
            for r in (1, 2):
                want = [naive_event_count(q, fam.sets_at, j, k, m, r)
                        for j in range(8)]
                assert event_series(q, fam, k, 7, m, r) == want, (k, m, r)


def test_deep_counts_match_unmerged_runs():
    # the merged split against a run with the identity map alone
    for graph, rows, _ in FINITE + INFINITE:
        q = _quotient(graph, rows)
        split = _series_split(q, None, 10)
        want = _counts_from(((split.start,), (), 1), split.table, 10)
        assert list(count_directed_saws(q, 10).counts) == want, rows


def _descending_maps(q, start):
    """The maps of ``lattice_stabiliser(q.base, start cell)`` that carry
    orbits onto orbits and fix the orbit ``start``, found from their
    action on base vertices: a map carries orbits onto orbits when it
    sends (c, h) and (c, 0) into one orbit for each generator h of L."""
    c0 = start[0]
    zero = (0,) * q.base.dimension
    return [m for m in lattice_stabiliser(q.base, c0)
            if all(q.orbit_of(apply_map(m, (c0, tuple(h))))
                   == q.orbit_of(apply_map(m, (c0, zero)))
                   for h in q.action.rows)
            and q.orbit_of(apply_map(m, q.rep_of(start))) == start]


def _orbit_sigma(q, table, m):
    """The map m acting on the ids of a table of q's orbit keys."""
    return lambda i: table.intern(
        q.orbit_of(apply_map(m, q.rep_of(table.keys[i]))))


@pytest.mark.parametrize("graph,rows,order", FINITE + INFINITE)
def test_quotient_map_orders(graph, rows, order):
    q = _quotient(graph, rows)
    start = q.origin_orbit()
    assert len(_quotient_maps(q, start)) == order
    assert _quotient_maps(q, start) == \
        tuple(m[3] for m in _descending_maps(q, start))


def test_quotient_maps_are_cached_on_lattice_sublattice_and_start():
    # a second build of one quotient, and rows with the same Hermite
    # form, reuse the maps; another start orbit gets its own
    q = _quotient("zd:3", "3 0 0;0 3 0;0 0 3")
    got = _quotient_maps(q, q.origin_orbit())
    for again in (_quotient("zd:3", "3 0 0;0 3 0;0 0 3"),
                  _quotient("zd:3", "0 3 0;3 0 0;0 0 -3")):
        assert _quotient_maps(again, again.origin_orbit()) is got
    base = q.base
    assert got == counting._descending_tables.__wrapped__(
        base.dimension, base.cells, base.edges, q.hermite, q.origin_orbit())
    other = (0, (1, 0, 0))
    assert len(_quotient_maps(q, other)) == 8
    assert _quotient_maps(q, other) == \
        tuple(m[3] for m in _descending_maps(q, other))


@pytest.mark.parametrize("workers", [1, 2])
def test_triangular_quotient_merges_under_its_point_group(workers):
    # all 12 maps of the triangular lattice's stabiliser normalise 3Z^2
    z2 = catalog("zd:2")
    tri = augment(z2, (z2.origin(), (0, (1, 1))))
    q = build_quotient(tri, sublattice_action([[3, 0], [0, 3]]))
    start = q.origin_orbit()
    assert len(_quotient_maps(q, start)) == 12
    assert _quotient_maps(q, start) == \
        tuple(m[3] for m in _descending_maps(q, start))
    assert list(count_directed_saws(q, 9, workers=workers).counts) == \
        naive_directed_saw_counts(q, 9)


def test_tree_actions_keep_the_identity_only():
    # the identity merges nothing, so a tree action's split has no maps
    for action in TREES:
        q = _quotient("tree-with-end(3)", action)
        assert _quotient_maps(q, q.origin_orbit()) == ()
        assert _series_split(q, None, 4).maps == ()


# rank-deficient quotients, counted on their free lattices: (graph,
# sublattice rows, free dimension, free cells)
FREE = [("square-octagon", "1 -1", 1, 4), ("square-octagon", "1 1", 1, 4),
        ("square-octagon", "2 0", 1, 8), ("square-octagon", "2 -2", 1, 8),
        ("zd:2", "1 0", 1, 1), ("zd:2", "2 0", 1, 2), ("zd:2", "1 1", 1, 1),
        ("zd:2", "2 1", 1, 2), ("zd:2", "3 0", 1, 3),
        ("zd:3", "1 0 0", 2, 1), ("zd:3", "2 0 0;0 2 0", 1, 4),
        ("zd:3", "1 1 0", 2, 1), ("zd:3", "1 1 1", 2, 1)]
# a base self-edge that L turns into a loop at cell 0 only: e_1 at cell
# 0 and e_2 at cell 1, the cells joined at offsets (0, 0) and (0, 1)
UNEQUAL_LOOPS = ("kind lattice\ndimension 2\ncells 2\nedge 0 0 1 0 1\n"
                 "edge 1 1 0 1 1\nedge 0 1 0 0 1\nedge 0 1 0 1 1\n")


@pytest.mark.parametrize("graph,rows,dimension,cells", FREE)
def test_free_lattice_rows_are_the_quotient_rows_without_loops(
        graph, rows, dimension, cells):
    q = _quotient(graph, rows)
    lat = q.free_lattice()
    assert (lat.dimension, lat.cells) == (dimension, cells)
    for o in _probe(q):
        c, y = q.free_vertex(o)
        row = Counter()
        for tc, delta, m in lat.slot_table()[c]:
            row[tc, tuple(a + b for a, b in zip(y, delta))] += m
        assert row == Counter({q.free_vertex(t): m for t, m in q.drow(o)
                               if t != o}), o


@pytest.mark.parametrize("workers", [1, 2])
def test_free_lattice_directed_counts_match_oracle(workers, forced_pool):
    for graph, rows, _d, _c in FREE:
        q = _quotient(graph, rows)
        n = 7 if graph == "zd:3" else 10
        assert _series_split(q, None, n).table.radius > 0, rows
        assert list(count_directed_saws(q, n, workers=workers).counts) == \
            naive_directed_saw_counts(q, n), rows
    # from other orbits of a torsion case: the other pivot cell, moved
    # along the free coordinate too
    q = _quotient("zd:2", "2 0")
    for start in ((0, (1, 0)), (0, (1, -3))):
        assert list(count_directed_saws(q, 10, start=start,
                                        workers=workers).counts) == \
            naive_directed_saw_counts(q, 10, start), start
    assert bool(forced_pool) == (workers == 2)


def test_unequal_degrees_after_loops_count_on_orbit_keys(tmp_path, capsys):
    # L = (1 0) drops cell 0's self-edge as a loop and keeps cell 1's,
    # which leaves the free cells degrees 2 and 4: no periodic lattice
    path = tmp_path / "unequal.txt"
    path.write_text(UNEQUAL_LOOPS)
    q = build_quotient(load_spec_file(str(path)), sublattice_action([[1, 0]]))
    assert q.loops((0, (0, 0))) == 2 and q.loops((1, (0, 0))) == 0
    assert q.free_lattice() is None
    split = _series_split(q, None, 10)
    assert split.table.source == q.drow and split.table.radius == 0
    want = naive_directed_saw_counts(q, 10)
    for start in ((0, (0, 0)), (1, (0, 0))):
        assert list(count_directed_saws(q, 10, start=start).counts) == \
            naive_directed_saw_counts(q, 10, start), start
    assert run(["count", "--spec", str(path), "--sublattice", "1 0",
                "--n", "10"]) == 0
    assert str(want[10]) in capsys.readouterr().out


@pytest.mark.parametrize("graph,rows", [
    ("square-octagon", "1 -1"), ("zd:2", "2 0"), ("zd:3", "2 0 0;0 2 0")])
def test_event_series_never_merge_under_free_lattice_maps(graph, rows):
    # the free lattice's reflection does not carry square-octagon's cycle
    # family onto itself: merged under it, sigma_4 reads 14, not 16
    q = _quotient(graph, rows)
    fam = build_cycle_family(q)
    want = [naive_event_count(q, fam.sets_at, j, fam.length, None, 0)
            for j in range(9)]
    assert event_free_series(q, fam, fam.length, 8) == want
    # the search pairs them as it should: the directed series on the
    # free lattice, the event series on an orbit split
    bound = LowerBoundSequence.from_constant(1, q.base.graph_id)
    for workers in (1, 2):
        out = find_epsilon_m(q, fam, bound, 8, workers)
        assert out.event_free == want
        assert out.directed == naive_directed_saw_counts(q, 8)
    with pytest.raises(ValueError, match="orbit keys"):
        event_free_series(q, fam, fam.length, 8,
                          split=_series_split(q, None, 8))


def test_free_lattice_maps_do_not_carry_the_cycle_family():
    # why event series keep orbit splits: on square-octagon / (1 -1) the
    # orbit key (c, (0, f)) is the free lattice vertex (c, (f,)), and the
    # reflection of that lattice's stabiliser maps the cycle family at
    # some orbit onto sets that are not the family at its image
    q = _quotient("square-octagon", "1 -1")
    fam = build_cycle_family(q)
    assert q.free_vertex((2, (0, -3))) == (2, (-3,))
    identity, reflection = lattice_stabiliser(q.free_lattice())

    def image(key):
        c, (f,) = apply_map(reflection, q.free_vertex(key))
        return c, (0, f)

    moved = [o for o in _probe(q) if {frozenset(map(image, s))
                                      for s in fam.sets_at(o)}
             != set(fam.sets_at(image(o)))]
    assert moved and apply_map(identity, (1, (4,))) == (1, (4,))


def _probe(q, radius=3):
    """The orbits within ``radius`` directed steps of the origin orbit."""
    seen = {q.origin_orbit()}
    frontier = list(seen)
    for _ in range(radius):
        frontier = [t for o in frontier for t, _m in q.drow(o)
                    if t not in seen and not seen.add(t)]
    return sorted(seen)


@pytest.mark.parametrize("graph,rows", [(g, r) for g, r, _ in
                                        FINITE + INFINITE])
def test_maps_fix_the_start_and_carry_rows_and_families(graph, rows,
                                                        monkeypatch):
    q = _quotient(graph, rows)
    fam = build_cycle_family(q)
    used = []
    real = counting._Split.counts

    def spy(split, *args, **kwargs):
        used.append(split)
        return real(split, *args, **kwargs)

    monkeypatch.setattr(counting._Split, "counts", spy)
    for start in _starts(q):
        # the split an event series counts on merges under exactly the
        # maps checked below, on orbit keys, at every rank
        event_free_series(q, fam, fam.length, 2, start=start)
        split = used.pop()
        assert split.table.source == q.drow
        assert [sigma.args[2] for sigma in split.maps] == \
            [m[3] for m in _descending_maps(q, start)]
        for m in _descending_maps(q, start):
            def image(key, m=m):
                return q.orbit_of(apply_map(m, q.rep_of(key)))

            assert image(start) == start

            for o in (q.orbits if q.finite else _probe(q)):
                # rows: sigma(row(o)) = row(sigma(o)), multiplicities kept
                assert Counter({image(t): m for t, m in q.drow(o)}) == \
                    Counter(dict(q.drow(image(o))))
                # families: sigma(sets_at(o)) = sets_at(sigma(o))
                assert {frozenset(map(image, s)) for s in fam.sets_at(o)} \
                    == set(fam.sets_at(image(o)))


def _orbit_image_slot(table, sigma, i, k):
    """The slot action the slot-table maps replaced, kept as their
    reference: the slot of row i holding the image under ``sigma``, a
    map on ids that fixes i, of slot k's target, found by a search of
    the row."""
    row = table.row(i)
    t = sigma(row[k][0])
    return next(j for j, (u, _m) in enumerate(row) if u == t)


def _merged_keys(table, maps, start, n):
    """``_merge_prefixes``' pdepth and every level it grew, with each
    path's ids given as orbit keys: the tasks alone are empty on the
    quotients whose SAWs end before pdepth."""
    levels = []
    pdepth, tasks = _merge_prefixes(table.row, start, n, maps, levels)
    assert tasks == [tuple(task[:3]) for task in levels[pdepth]]
    return pdepth, [[(tuple(table.keys[i] for i in path), slots, weight)
                     for path, slots, weight, _stab in level]
                    for level in levels]


@pytest.mark.parametrize("graph,rows", [(g, r) for g, r, _ in
                                        FINITE + INFINITE])
def test_slot_table_maps_merge_as_the_orbit_image_action(graph, rows):
    q = _quotient(graph, rows)
    for start in _starts(q):
        for n in (8, 10):
            split = _orbit_split(q, start, n)
            ref = _orbit_split(q, start, n)
            orbit_maps = [partial(_orbit_image_slot, ref.table,
                                  _orbit_sigma(q, ref.table, m))
                          for m in _descending_maps(q, start)]
            assert _merged_keys(split.table, split.maps, split.start, n) \
                == _merged_keys(ref.table, orbit_maps, ref.start, n), \
                (start, n)


def test_counting_leaves_the_quotient_as_it_was():
    q = _quotient("zd:3", "3 0 0;0 3 0;0 0 3")
    fam = build_cycle_family(q)
    before = set(vars(q))
    count_directed_saws(q, 6)
    event_free_series(q, fam, 3, 6)
    assert set(vars(q)) == before


def test_certifying_leaves_the_graph_and_quotient_as_they_were():
    # certify_ratio keeps its tables for the run and stores none of them
    q = _quotient("zd:3", "3 0 0;0 3 0;0 0 3")
    g = q.base
    before = set(vars(q)), dict(vars(g))
    certify_ratio(g, q, build_cycle_family(q), bridge_bounds(3, 6)[1], 6)
    assert (set(vars(q)), dict(vars(g))) == before


def test_directed_counts_match_across_workers(forced_pool, monkeypatch):
    cases = [("zd:3", "3 0 0;0 3 0;0 0 3", 9), ("zd:2", "2 1;0 3", 9),
             ("ladder", "3", 10), ("square-octagon", "1 -1", 12),
             ("tree-with-end(3)", "child-swap", 10)]
    for graph, rows, n in cases:
        q = _quotient(graph, rows)
        assert count_directed_saws(q, n, workers=2).counts == \
            count_directed_saws(q, n, workers=1).counts, rows
    assert forced_pool == [2] * len(cases)
    # on one worker a quotient whose stabiliser is the identity alone
    # merges nothing, so each of its event series runs once from the
    # root; square-octagon / (1 -1) counts its directed series on its
    # free lattice, whose stabiliser has two maps, so that count merges
    merged = []
    real = counting._merge_prefixes

    def spy(*args):
        merged.append(args[2])
        return real(*args)

    monkeypatch.setattr(counting, "_merge_prefixes", spy)
    for graph, rows, n in cases[3:]:
        q = _quotient(graph, rows)
        fam = build_cycle_family(q)
        count_directed_saws(q, n, workers=1)
        event_free_series(q, fam, fam.length, n)
        event_series(q, fam, fam.length, n, m=2, r=1)
    count_directed_saws(_quotient(*cases[0][:2]), 6, workers=1)
    assert merged == [12, 6]


# a spawned process receives the walker pickled, a forked one inherits it
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_event_series_match_across_workers(method, forced_pool):
    forced_pool.context = multiprocessing.get_context(method)
    for graph, rows, n in (("zd:3", "3 0 0;0 3 0;0 0 3", 9),
                           ("tree-with-end(3)", "child-swap", 10)):
        q = _quotient(graph, rows)
        fam = build_cycle_family(q)
        assert event_free_series(q, fam, fam.length, n, workers=2) == \
            event_free_series(q, fam, fam.length, n, workers=1), rows
        assert event_series(q, fam, 2, n, m=1, r=1, workers=2) == \
            event_series(q, fam, 2, n, m=1, r=1, workers=1), rows
    assert forced_pool == [2] * 4


def test_non_canonical_starts_are_refused(q_z2mod22):
    # (0, (5, 5)) lies in the orbit keyed (0, (1, 1)); Z^2 has no cell 3
    q = q_z2mod22
    fam = build_cycle_family(q)
    for bad, err in (((0, (5, 5)), ValueError),
                     ((3, (0, 0)), InvalidVertexError)):
        with pytest.raises(err):
            count_directed_saws(q, 4, start=bad)
        with pytest.raises(err):
            event_free_series(q, fam, 2, 4, start=bad)
        with pytest.raises(err):
            event_series(q, fam, 2, 4, m=1, r=0, start=bad)
        with pytest.raises(err):
            count_with_events(q, bad, 4, fam, 2, 1, 0)
    assert event_series(q, fam, 2, 4, m=1, r=0, start=(0, (1, 1))) == \
        [1, 0, 0, 0, 0]
