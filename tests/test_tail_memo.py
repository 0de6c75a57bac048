"""The tail memo of the SAW and bridge walkers against the naive oracles.

A node K steps above a count's limit has its last K depths looked up in
the memo of its cell, keyed by the occupancy of its radius-K ball, in
calls that count at least 2K steps (``counting._counts_from``); the
bridge walker adds its distances to x_1 = 1 and to the running maximum
to the key (``bounds._bridge_counts_from``).  Each cell's ball, decoded
from its packed keys, is the radius-K ball of ``graphs.ball_with_dist``
in breadth-first order.  Root counts run at every depth 0..2K+1, so the
limit is below, at and above both K and 2K; split counts run at a depth
whose prefix tasks reach 2K.  Cells that an automorphism exchanges share
one memo, also in a pickled table, and counts from every cell of a table
whose memo the start cell filled match the oracle.  Tables off a lattice
keep no memo, and no table outlives its count.
"""

import gc
import pickle
from functools import lru_cache

import pytest

from oracles import (naive_bridge_counts, naive_directed_saw_counts,
                     naive_saw_counts)
from sawkit import counting
from sawkit.bounds import _bridge_counts_from, bridge_bounds, bridge_counts
from sawkit.certificate import certify_ratio
from sawkit.counting import (_counts_from, _lattice_split, _tail_balls,
                             count_directed_saws, count_saws)
from sawkit.events import build_cycle_family, event_free_series
from sawkit.graphs import (CayleyGraph, PeriodicLattice, augment,
                           ball_with_dist, catalog)
from sawkit.quotient import build_quotient, sublattice_action, tree_action
from test_counting import SAW_Z2_10, SAW_Z2DIAG_8
from test_graphs import Z2_PRESENTATION
from test_symmetry import HONEYCOMB, KAGOME, SAW_Z3_8

# [frozen] square-lattice SAWs on Z^2 (OEIS A001411)
SAW_Z2_12 = SAW_Z2_10 + [120292, 324932]

Z2 = catalog("zd(2)")
# name -> (lattice, its memo depth K, or K per start cell where the balls
# of the start cells differ)
LATTICES = {
    "zd(1)": (catalog("zd(1)"), 12),
    "zd(2)": (Z2, 3),
    "zd(3)": (catalog("zd(3)"), 2),
    "ladder": (catalog("ladder"), 6),
    "square-octagon": (catalog("square-octagon"), 3),
    "chord(1,1)": (augment(Z2, (Z2.origin(), (0, (1, 1)))), 2),
    "chord(2,1)": (augment(Z2, (Z2.origin(), (0, (2, 1)))), 2),
    # zd(2) with doubled x-edges, a multigraph
    "doubled": (PeriodicLattice(2, 1, [(0, 0, (1, 0), 2),
                                       (0, 0, (0, 1), 1)]), 3),
    # Z with jumps 1 and 2: offsets reach 2
    "jumps": (PeriodicLattice(2, 1, [(0, 0, (1, 0), 1),
                                     (0, 0, (2, 0), 1)]), 6),
    "honeycomb": (HONEYCOMB, 3),
    "kagome": (KAGOME, 2),
    # both cells have degree 3, but their radius-4 balls hold 22 and 26
    # vertices: no automorphism exchanges them
    "two-ball": (PeriodicLattice(1, 2, [(0, 0, (1,), 1), (0, 1, (0,), 1),
                                        (1, 1, (2,), 1)]), (4, 3)),
}


def _depth(name, cell):
    """The memo depth K of counts from ``cell`` on LATTICES[name]."""
    K = LATTICES[name][1]
    return K[cell] if isinstance(K, tuple) else K


@pytest.mark.parametrize("name,cell", [
    (name, cell) for name, (g, _k) in LATTICES.items()
    for cell in range(g.cells)])
def test_root_counts_match_oracle_around_the_memo_depth(name, cell):
    g, K = LATTICES[name][0], _depth(name, cell)
    v0 = (cell, (0,) * g.dimension)
    want = naive_saw_counts(g, v0, 2 * K + 1)
    for n in range(2 * K + 2):
        table, start, _maps, _x1 = _lattice_split(g, v0, n)
        assert table.radius == K
        assert _counts_from(((start,), (), 1), table, n) == want[:n + 1]
        # the memo serves exactly the counts of at least 2K steps
        assert any(table.memos) == (n >= 2 * K)


def _decode(x1, dimension, key):
    """The lattice vertex (cell, x) of a packed key, from the cell count,
    the coordinate bound B and the base W that ``x1`` is bound to."""
    C, B, W = x1.args
    cell, rest = key % C, key // C
    x = []
    for _ in range(dimension):
        x.append(rest % W - B)
        rest //= W
    return cell, tuple(x)


@pytest.mark.parametrize("name,cell", [
    (name, cell) for name, (g, _k) in LATTICES.items()
    for cell in range(g.cells)])
def test_each_cell_ball_is_its_radius_k_ball_in_bfs_order(name, cell):
    # from a start in every cell, the ball of the first vertex met of
    # every cell: a ball one step short, or the offsets of another cell,
    # hold other vertices
    g, K = LATTICES[name][0], _depth(name, cell)
    table, start, _maps, x1 = _lattice_split(g, (cell, (0,) * g.dimension),
                                             4 * K)
    firsts, layer = {}, [start]
    while len(firsts) < g.cells:
        for i in layer:
            firsts.setdefault(table.keys[i] % g.cells, i)
        layer = [t for i in layer for t, _m in table.row(i)]
    for i in firsts.values():
        v = _decode(x1, g.dimension, table.keys[i])
        _memo, occupied = table.tail(i)
        ball = [_decode(x1, g.dimension, k) for k in occupied(table.keys)]
        dist = ball_with_dist(g, v, K)
        assert ball[0] == v
        assert len(ball) == len(set(ball)) and set(ball) == set(dist)
        assert [dist[u] for u in ball] == sorted(dist[u] for u in ball)


@pytest.mark.parametrize("name,cell,n,want", [
    ("zd(1)", 0, 48, [1] + [2] * 48),
    ("zd(2)", 0, 12, SAW_Z2_12),
    ("zd(3)", 0, 8, SAW_Z3_8),
    ("ladder", 1, 20, None),
    ("square-octagon", 2, 12, None),
    ("chord(1,1)", 0, 8, SAW_Z2DIAG_8),
    ("chord(2,1)", 0, 7, None)])
def test_split_counts_match_oracle_past_the_memo_depth(monkeypatch, name,
                                                       cell, n, want):
    g, K = LATTICES[name][0], _depth(name, cell)
    v0 = (cell, (0,) * g.dimension)
    depths = []
    real = counting._run_split

    def spy(head, tasks, task_fn, n_max, pdepth, workers):
        depths.append(pdepth)
        return real(head, tasks, task_fn, n_max, pdepth, workers)

    monkeypatch.setattr(counting, "_run_split", spy)
    got = list(count_saws(g, v0, n).counts)
    assert got == (want or naive_saw_counts(g, v0, n))
    # the merged prefix tasks have at least 2K steps left
    assert len(depths) == 1 and n - depths[0] >= 2 * K


@pytest.mark.parametrize("name,classes", [
    ("zd(1)", (0,)), ("zd(2)", (0,)), ("zd(3)", (0,)), ("ladder", (0, 0)),
    ("square-octagon", (0, 0, 0, 0)), ("two-ball", (0, 1)),
    ("honeycomb", (0, 0)), ("kagome", (0, 0, 0))])
def test_cells_an_automorphism_exchanges_share_one_memo(name, classes):
    g, K = LATTICES[name][0], _depth(name, 0)
    assert _tail_balls(g.slot_table(), 0, g.dimension)[2] == classes
    table, start, _maps, _x1 = _lattice_split(g, g.origin(), 2 * K + 3)
    assert _counts_from(((start,), (), 1), table, 2 * K + 1) == \
        naive_saw_counts(g, g.origin(), 2 * K + 1)
    # a spawned pool process receives the table pickled
    for t in (table, pickle.loads(pickle.dumps(table))):
        assert [[t.memos[c] is t.memos[r] for r in range(g.cells)]
                for c in range(g.cells)] == \
            [[classes[c] == classes[r] for r in range(g.cells)]
             for c in range(g.cells)]
        # the start cell filled the memo; counts from the origin of every
        # cell read it, deeper than the count that filled it
        assert all(t.memos)
        for cell in range(g.cells):
            v = (cell, (0,) * g.dimension)
            i = t.intern(t.keys[start] + cell)
            assert _counts_from(((i,), (), 1), t, 2 * K + 3) == \
                naive_saw_counts(g, v, 2 * K + 3)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cell", [0, 1])
def test_cells_no_map_joins_count_with_their_own_memo(monkeypatch, cell,
                                                      workers):
    g, K = LATTICES["two-ball"][0], _depth("two-ball", cell)
    v0 = (cell, (0,))
    seen = []
    real = counting._Split.counts

    def spy(split, *args, **kwargs):
        seen.append(split.table)
        return real(split, *args, **kwargs)

    monkeypatch.setattr(counting._Split, "counts", spy)
    got = count_saws(g, v0, 2 * K + 3, workers=workers).counts
    assert list(got) == naive_saw_counts(g, v0, 2 * K + 3)
    (table,) = seen
    assert table.radius == K and table.memos[0] is not table.memos[1]


Z2MOD22 = build_quotient(Z2, sublattice_action([[2, 0], [0, 2]]))


def _tables_of_one_count(monkeypatch, graph, n) -> list:
    """The tables that counting ``graph`` to n counts on, after checking
    the counts against the naive oracle."""
    seen = []
    real = counting._Split.counts

    def spy(split, *args, **kwargs):
        seen.append(split.table)
        return real(split, *args, **kwargs)

    monkeypatch.setattr(counting._Split, "counts", spy)
    if isinstance(graph, CayleyGraph):
        got = count_saws(graph, n_max=n).counts
        want = naive_saw_counts(graph, graph.origin(), n)
    else:
        got = count_directed_saws(graph, n).counts
        want = naive_directed_saw_counts(graph, n)
    assert list(got) == want
    return seen


@pytest.mark.parametrize("graph,n", [
    (build_quotient(catalog("zd(1)"), sublattice_action([[3]])), 8),
    (build_quotient(catalog("tree-with-end(3)"), tree_action("child-swap")),
     10),
    (CayleyGraph(Z2_PRESENTATION, "z2"), 8)],
    ids=["zd(1)/3", "tree-with-end(3)/child-swap", "cayley"])
def test_tables_off_a_lattice_keep_no_memo(monkeypatch, graph, n):
    seen = _tables_of_one_count(monkeypatch, graph, n)
    assert [t.radius for t in seen] == [0] and not seen[0].memos


@pytest.mark.parametrize("graph,n", [
    # parallel directed edges: (1, 0) and (0, -1) reach one orbit
    (build_quotient(Z2, sublattice_action([[1, 1]])), 10),
    (build_quotient(catalog("square-octagon"), sublattice_action([[1, -1]])),
     12)],
    ids=["zd(2)/(1,1)", "square-octagon/(1,-1)"])
def test_free_lattice_tables_keep_a_memo(monkeypatch, graph, n):
    # a quotient by a sublattice of rank below d counts on its free
    # lattice, with that lattice's memo depth and one memo per class
    seen = _tables_of_one_count(monkeypatch, graph, n)
    lat = graph.free_lattice()
    K, _balls, classes = _tail_balls(lat.slot_table(), 0, lat.dimension)
    assert [t.radius for t in seen] == [K] and K > 0
    assert len(seen[0].memos) == len(classes) == lat.cells
    assert len({id(m) for m in seen[0].memos}) == len(set(classes))


def _balls_trying_every_part(slots, dimension, heads_balls):
    """(balls, classes) as found when every cell tries every linear part
    from every class head, in order, with the heads' breadth-first balls
    taken from ``heads_balls``."""
    index = counting._slot_index(slots)
    balls, classes = [], []
    for c in range(len(slots)):
        phi = next(((r, P, pi, t) for r in sorted(set(classes))
                    for P in counting._linear_parts(slots, dimension)
                    for pi, t in counting._cell_maps(
                        slots, index, counting._moved(slots, P), r, c)),
                   None)
        if phi is None:
            classes.append(c)
            balls.append(heads_balls[c])
            continue
        r, P, pi, t = phi
        classes.append(r)
        balls.append(tuple(
            (pi[tc], tuple(sum(p * a for p, a in zip(row, x)) + b
                           for row, b in zip(P, t[tc])))
            for tc, x in balls[r]))
    return tuple(balls), tuple(classes)


def _free(graph, rows):
    return build_quotient(catalog(graph), sublattice_action(
        [[int(x) for x in r.split()] for r in rows.split(";")])).free_lattice()


@pytest.mark.parametrize("g", [
    LATTICES[name][0] for name in ("ladder", "square-octagon", "honeycomb",
                                   "kagome", "two-ball")] + [
    _free("square-octagon", "1 -1"), _free("square-octagon", "2 0"),
    _free("square-octagon", "2 -2"), _free("zd:2", "3 0"),
    _free("zd:3", "2 0 0;0 2 0")],
    ids=["ladder", "square-octagon", "honeycomb", "kagome", "two-ball",
         "square-octagon/(1,-1)", "square-octagon/(2,0)",
         "square-octagon/(2,-2)", "zd(2)/(3,0)", "zd(3)/(2,0,0;0,2,0)"])
def test_composed_maps_find_the_balls_a_full_search_finds(g):
    # a cell reached by composing maps found before tries only the linear
    # parts of the maps onto it, and still gets the first map of all
    slots = g.slot_table()
    for cell in range(g.cells):
        _K, balls, classes = _tail_balls(slots, cell, g.dimension)
        assert (balls, classes) == \
            _balls_trying_every_part(slots, g.dimension, balls), cell


naive_bridges = lru_cache(maxsize=None)(naive_bridge_counts)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d,n", [(1, 26), (1, 48), (2, 13), (3, 8)])
def test_bridge_counts_match_oracle_with_the_memo(monkeypatch, d, n,
                                                  workers):
    # half-space rows are no translates of one another near x_1 = 1, and
    # a bridge tail depends on the running maximum: the memo key holds
    # both distances
    seen = []
    real = counting._Split.counts

    def spy(split, *args, **kwargs):
        seen.append(split.table)
        return real(split, *args, **kwargs)

    monkeypatch.setattr(counting._Split, "counts", spy)
    assert bridge_counts(d, n, workers=workers) == naive_bridges(d, n)
    (table,) = seen
    # on two workers Z^1's one prefix grows to n // 2 steps, which leaves
    # its task 13 < 2K = 24 steps at n = 26
    assert any(table.memos) == ((d, n, workers) != (1, 26, 2))


def test_a_bridge_table_pickles_with_its_memo():
    # a spawned pool process receives the bridge table, memo included
    z2 = catalog("zd(2)")
    table, start, _maps, x1 = _lattice_split(z2, z2.origin(), 12,
                                             half_space=True)
    root = ((start,), (), 1)
    want = _bridge_counts_from(root, table, [], x1, 12)
    copy = pickle.loads(pickle.dumps(table))
    assert copy.memos == table.memos and any(copy.memos)
    assert _bridge_counts_from(root, copy, [], x1, 12) == want == \
        naive_bridges(2, 12)


def test_a_table_pickles_with_its_memo():
    # a spawned pool process receives the table, memo included
    ladder = catalog("ladder")
    table, start, _maps, _x1 = _lattice_split(ladder, ladder.origin(), 14)
    root = ((start,), (), 1)
    want = _counts_from(root, table, 14)
    copy = pickle.loads(pickle.dumps(table))
    assert copy.memos == table.memos and any(copy.memos)
    assert _counts_from(root, copy, 14) == want == \
        naive_saw_counts(ladder, ladder.origin(), 14)


@pytest.mark.parametrize("count", [
    lambda: count_saws(Z2, n_max=12),
    lambda: count_saws(catalog("ladder"), n_max=12),
    lambda: bridge_counts(2, 12),
    lambda: count_directed_saws(Z2MOD22, 8),
    lambda: event_free_series(Z2MOD22, build_cycle_family(Z2MOD22), 2, 8),
    lambda: certify_ratio(Z2, Z2MOD22, build_cycle_family(Z2MOD22),
                          bridge_bounds(2, 13)[1], 13)],
    ids=["zd(2)", "ladder", "bridges", "quotient", "event-free", "certify"])
def test_each_table_is_freed_when_its_count_returns(tables, count):
    # no reference cycle keeps a table, and its memo, alive until the
    # cyclic collector runs; the zd(2) and bridge counts reach the memo
    gc.collect()
    gc.disable()
    try:
        count()
        assert tables and all(ref() is None for ref in tables)
    finally:
        gc.enable()
