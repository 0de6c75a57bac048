"""Start-vertex stabilisers and the symmetry-merged prefix split.

The stabiliser maps are checked against the graph's own neighbour lists,
and merged counts against the frozen lists and the naive oracles.
"""

import pickle
import time
from collections import Counter
from functools import partial

import pytest

from oracles import apply_map, naive_bridge_counts, naive_saw_counts
from sawkit import counting
from sawkit.bounds import bridge_counts
from sawkit.cli import run
from sawkit.counting import (_IdTable, _lattice_split,
                             _merge_prefixes, count_directed_saws, count_saws,
                             lattice_stabiliser)
from sawkit.events import (build_cycle_family, event_free_series,
                           event_series)
from sawkit.graphs import (CayleyGraph, PeriodicLattice, augment, ball,
                           catalog, load_spec_file, spec_text)
from sawkit.quotient import build_quotient, sublattice_action
from test_counting import (SAW_LADDER_10, SAW_SQOCT_10, SAW_Z2_10,
                           SAW_Z2DIAG_8)
from test_graphs import Z2_PRESENTATION

# [frozen] square-lattice SAWs on Z^3 (OEIS A001412)
SAW_Z3_8 = [1, 6, 30, 150, 726, 3534, 16926, 81390, 387966]
# [frozen] SAWs on the triangular lattice (OEIS A001334), the honeycomb
# lattice (OEIS A001668) and the kagome lattice (counted with signed
# permutations as the only linear parts, before the point-group search)
SAW_TRIANGULAR_12 = [1, 6, 30, 138, 618, 2730, 11946, 51882, 224130,
                     964134, 4133166, 17668938, 75355206]
SAW_HONEYCOMB_14 = [1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328,
                    4416, 8388, 15780]
SAW_KAGOME_14 = [1, 4, 12, 32, 88, 240, 652, 1744, 4616, 12208, 32328,
                 85408, 224640, 589024, 1542944]

# cell 0 joined to cell 1 in three directions
HONEYCOMB = PeriodicLattice(2, 2, [(0, 1, (0, 0), 1), (0, 1, (-1, 0), 1),
                                   (0, 1, (0, -1), 1)], graph_id="honeycomb")
# cells 0, 1, 2 at 0, e_1/2 and e_2/2 of a triangular lattice with basis
# e_1, e_2: the first three rows are the up-triangles, the last three the
# down-triangles
KAGOME = PeriodicLattice(2, 3, [(0, 1, (0, 0), 1), (0, 2, (0, 0), 1),
                                (1, 2, (0, 0), 1), (1, 0, (1, 0), 1),
                                (2, 0, (0, 1), 1), (1, 2, (1, -1), 1)],
                         graph_id="kagome")
# shortest translations off the coordinate basis: the square lattice on
# the diagonals (one of its two components), and the triangular lattice
# on (2, 0), (1, 1), (-1, 1), where only the 4 point-group elements that
# are integer matrices are linear parts of maps (c, x) -> (c, P.x)
DIAGONAL = PeriodicLattice(2, 1, [(0, 0, (1, 1), 1), (0, 0, (1, -1), 1)],
                           graph_id="diagonal")
SHEARED = PeriodicLattice(2, 1, [(0, 0, (2, 0), 1), (0, 0, (1, 1), 1),
                                 (0, 0, (-1, 1), 1)], graph_id="sheared")


def _chord(x, y):
    z2 = catalog("zd(2)")
    return augment(z2, (z2.origin(), (0, (x, y))))


@pytest.fixture(scope="module")
def doubled(tmp_path_factory):
    # zd(2) with doubled x-edges, read from a spec file
    path = tmp_path_factory.mktemp("spec") / "z2x2.txt"
    path.write_text("kind lattice\ndimension 2\ncells 1\n"
                    "edge 0 0 1 0 2\nedge 0 0 0 1 1\n")
    return load_spec_file(str(path))


def _supercell(side):
    # Z^2 with a side x side block of vertices as its cell: the vertex
    # (a + side*b, X) is the point side*X + (a, b)
    edges = []
    for b in range(side):
        for a in range(side):
            c = a + side * b
            edges.append((c, (a + 1) % side + side * b,
                          (int(a == side - 1), 0), 1))
            edges.append((c, a + side * ((b + 1) % side),
                          (0, int(b == side - 1)), 1))
    return PeriodicLattice(2, side * side, edges, graph_id=f"z2x{side}")


@pytest.mark.parametrize("name,order", [
    ("zd(1)", 2), ("zd(2)", 8), ("zd(3)", 48), ("ladder", 2),
    ("square-octagon", 2)])
def test_catalog_stabiliser_orders(name, order):
    g = catalog(name)
    for cell in range(g.cells):
        assert len(lattice_stabiliser(g, cell)) == order, cell


def test_augmented_and_multigraph_orders(doubled):
    # chord (1, 1) makes the triangular lattice: its stabiliser is the
    # whole point group, of order 12.  Chord (2, 1) adds to -I the shear
    # e_2 -> -(2, 1), which fixes e_1 and permutes the six steps.
    assert len(lattice_stabiliser(_chord(1, 1))) == 12
    assert len(lattice_stabiliser(_chord(2, 1))) == 4
    assert len(lattice_stabiliser(doubled)) == 4


@pytest.mark.parametrize("g,orders", [(HONEYCOMB, [6, 6]),
                                      (KAGOME, [4, 4, 4]), (DIAGONAL, [8]),
                                      (SHEARED, [4])],
                         ids=["honeycomb", "kagome", "diagonal", "sheared"])
def test_point_group_orders_at_every_cell(g, orders):
    assert [len(lattice_stabiliser(g, cell))
            for cell in range(g.cells)] == orders


@pytest.mark.parametrize("name,tried", [
    ("zd(2)", 8), ("square-octagon", 8), ("ladder", 2), ("zd(3)", 48),
    ("triangular", 12), ("jumps", 4)])
def test_cold_search_tries_no_more_linear_parts(monkeypatch, name, tried):
    # the candidates are those that permute the shortest translations:
    # the signed permutations on the catalog lattices, as before the
    # point-group search, and the 12 of the triangular lattice's point
    # group.  With steps e_1, 2e_1 and e_2 these are +-e_1, +-2e_1 and
    # +-e_2, and only the 4 diagonal signed permutations permute them,
    # though 16 pass the distance cuts.
    g = {"triangular": _chord(1, 1),
         "jumps": PeriodicLattice(2, 1, [(0, 0, (1, 0), 1),
                                         (0, 0, (2, 0), 1),
                                         (0, 0, (0, 1), 1)])}.get(name) \
        or catalog(name)
    moved = []
    real = counting._cell_maps

    def spy(slots, index, images, c0, c1):
        moved.append(images)
        return real(slots, index, images, c0, c1)

    monkeypatch.setattr(counting, "_cell_maps", spy)
    counting._stabiliser.__wrapped__(g.dimension, g.cells, g.edges, 0,
                                     False)
    assert len(moved) == len(set(moved)) == tried


def test_high_dimension_search_is_bounded():
    # 2^8 * 8! = 10321920 signed permutations: only the first 48 linear
    # parts are tried
    z8 = catalog("zd:8")
    maps = lattice_stabiliser(z8)
    assert len(maps) == len(lattice_stabiliser(z8, fix_first=True)) == 48
    for m in maps:
        for v in ball(z8, z8.origin(), 1):
            assert Counter(apply_map(m, w) for w in z8.expanded_neighbors(v)) \
                == Counter(z8.expanded_neighbors(apply_map(m, v)))
    assert list(count_saws(z8, n_max=3).counts) == \
        naive_saw_counts(z8, z8.origin(), 3)
    assert bridge_counts(8, 3) == naive_bridge_counts(8, 3)


def test_many_cell_search_is_pruned():
    # a 64-cell cell of Z^2: a branch dies at its first wrong slot, so the
    # search stays far below the exponential count of tree embeddings
    g = _supercell(8)
    t0 = time.perf_counter()
    assert len(lattice_stabiliser(g, 9)) == 8
    assert time.perf_counter() - t0 < 10
    assert list(count_saws(g, (9, (0, 0)), 10).counts) == SAW_Z2_10


def test_bridge_subgroup_orders():
    assert len(lattice_stabiliser(catalog("zd(1)"), fix_first=True)) == 1
    assert len(lattice_stabiliser(catalog("zd(2)"), fix_first=True)) == 2
    assert len(lattice_stabiliser(catalog("zd(3)"), fix_first=True)) == 8


@pytest.mark.parametrize("name", ["zd(2)", "zd(3)", "ladder",
                                  "square-octagon", "chord11", "chord21",
                                  "doubled", "honeycomb", "kagome",
                                  "diagonal", "sheared"])
def test_every_map_is_an_automorphism_fixing_the_start(name, doubled):
    g = {"chord11": _chord(1, 1), "chord21": _chord(2, 1),
         "doubled": doubled, "honeycomb": HONEYCOMB, "kagome": KAGOME,
         "diagonal": DIAGONAL, "sheared": SHEARED}.get(name) or catalog(name)
    slots = g.slot_table()
    for cell in range(g.cells):
        v0 = (cell, (0,) * g.dimension)
        maps = lattice_stabiliser(g, cell)
        assert maps[0][3] == tuple(tuple(range(len(r))) for r in slots)
        for m in maps:
            assert apply_map(m, v0) == v0
            assert sorted(m[1]) == list(range(g.cells))
            for v in ball(g, v0, 2):
                # neighbour multisets, parallel edges included, map onto
                # the image's neighbour multiset
                image = Counter(apply_map(m, w)
                                for w in g.expanded_neighbors(v))
                assert image == Counter(g.expanded_neighbors(apply_map(m, v)))
            # the slot table says the same
            for c, row in enumerate(slots):
                for k, (tc, delta, mult) in enumerate(row):
                    src = (c, (0,) * g.dimension)
                    dst = apply_map(m, (tc, delta))
                    tc2, d2, m2 = slots[m[1][c]][m[3][c][k]]
                    img = apply_map(m, src)
                    assert dst == (tc2, tuple(a + b for a, b in
                                              zip(img[1], d2)))
                    assert m2 == mult


def test_orbit_prefixes_on_the_square_lattice():
    z2 = catalog("zd(2)")
    table, s0, maps, _x1 = _lattice_split(z2, z2.origin(), 3)
    pdepth, tasks = _merge_prefixes(table.row, s0, 3, maps)
    assert pdepth == 3
    # straight, turn-then-straight, straight-then-turn, two equal turns,
    # two opposite turns; together the 36 three-step SAWs
    assert len(tasks) == 5
    assert sorted(w for *_, w in tasks) == [4, 8, 8, 8, 8]


def test_merged_counts_match_frozen(doubled):
    assert list(count_saws(catalog("zd(1)"), n_max=8).counts) == [1] + [2] * 8
    assert list(count_saws(catalog("zd(2)"), n_max=10).counts) == SAW_Z2_10
    assert list(count_saws(catalog("zd(3)"), n_max=8).counts) == SAW_Z3_8
    assert list(count_saws(_chord(1, 1), n_max=8).counts) == SAW_Z2DIAG_8
    for g in (_chord(2, 1), doubled):
        assert list(count_saws(g, n_max=7).counts) == \
            naive_saw_counts(g, g.origin(), 7)


@pytest.mark.parametrize("workers", [1, 2])
def test_point_group_lattices_match_frozen(workers, forced_pool):
    # each series from every cell, merged under the whole point group,
    # through a pool process on two workers
    for g, want in ((_chord(1, 1), SAW_TRIANGULAR_12),
                    (HONEYCOMB, SAW_HONEYCOMB_14), (KAGOME, SAW_KAGOME_14),
                    (DIAGONAL, SAW_Z2_10), (SHEARED, SAW_TRIANGULAR_12[:11])):
        for cell in range(g.cells):
            assert list(count_saws(g, (cell, (0, 0)), len(want) - 1,
                                   workers=workers).counts) == want
    assert forced_pool == [2] * 8 * (workers - 1)


@pytest.mark.parametrize("g", [_chord(1, 1), HONEYCOMB, KAGOME, DIAGONAL,
                               SHEARED],
                         ids=["triangular", "honeycomb", "kagome",
                              "diagonal", "sheared"])
def test_point_group_lattices_match_naive_oracle(g):
    for cell in range(g.cells):
        v0 = (cell, (-1, 2))
        assert list(count_saws(g, v0, 7).counts) == \
            naive_saw_counts(g, v0, 7)


def test_honeycomb_spec_file_counts(tmp_path, capsys):
    path = tmp_path / "honeycomb.txt"
    path.write_text(spec_text(HONEYCOMB))
    assert run(["count", "--spec", str(path), "--n", "14"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == SAW_HONEYCOMB_14[1:]


def test_merged_counts_from_other_cells(capsys):
    ladder, sqoct = catalog("ladder"), catalog("square-octagon")
    assert list(count_saws(ladder, (1, (4,)), 10).counts) == SAW_LADDER_10
    for cell in (1, 2, 3):
        v0 = (cell, (-2, 1))
        assert list(count_saws(sqoct, v0, 10).counts) == SAW_SQOCT_10
        assert list(count_saws(sqoct, v0, 7).counts) == \
            naive_saw_counts(sqoct, v0, 7)
    assert run(["count", "--graph", "ladder", "--start", "1:0",
                "--n", "10"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == SAW_LADDER_10[1:]


def test_merged_counts_match_across_workers(doubled, forced_pool):
    # the word graph runs the unmerged split, and its table pickles with
    # the handle inside; the ladder's tasks reach past its tail memo's
    # depth of 6, which the pool processes go on filling
    for g, n in ((catalog("zd(2)"), 9), (catalog("square-octagon"), 10),
                 (_chord(1, 1), 8), (doubled, 7),
                 (CayleyGraph(Z2_PRESENTATION, "z2"), 8),
                 (catalog("ladder"), 16)):
        assert count_saws(g, n_max=n, workers=2).counts == \
            count_saws(g, n_max=n, workers=1).counts
    assert forced_pool == [2] * 6


def test_task_lists_do_not_depend_on_workers(monkeypatch):
    # every split series records its merged tasks as _run_split gets them
    seen = []
    real = counting._run_split

    def spy(head, tasks, task_fn, n_max, pdepth, workers):
        seen.append((pdepth, tasks))
        return real(head, tasks, task_fn, n_max, pdepth, workers)

    monkeypatch.setattr(counting, "_run_split", spy)
    cube = build_quotient(catalog("zd:3"), sublattice_action(
        [[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
    for count in (lambda w: count_saws(catalog("zd:2"), n_max=12, workers=w),
                  lambda w: count_saws(catalog("ladder"), n_max=22,
                                       workers=w),
                  lambda w: count_directed_saws(cube, 8, workers=w)):
        lists = []
        for workers in (1, 2):
            seen.clear()
            count(workers)
            lists.append(list(seen))
        assert len(lists[0]) == 1 and lists[0] == lists[1]
        assert len(lists[0][0][1]) > 1
    # both event series split the cube quotient as its directed count
    # does, on either worker count
    fam = build_cycle_family(cube)
    for series in (lambda w: event_free_series(cube, fam, 3, 8, workers=w),
                   lambda w: event_series(cube, fam, 3, 8, m=2, r=1,
                                          workers=w)):
        for workers in (1, 2):
            seen.clear()
            series(workers)
            assert seen == lists[0]


def test_each_pool_process_receives_the_table_once(spy_pools, monkeypatch):
    # the walker goes to a pool process with its table when the process
    # starts, not with every chunk of tasks; a fork sends it unpickled
    pickled = []

    def reduce_ex(table, protocol):
        pickled.append(len(table.keys))
        return object.__reduce_ex__(table, protocol)

    monkeypatch.setattr(_IdTable, "__reduce_ex__", reduce_ex, raising=False)
    # the ladder at n=26 is past the break-even, as n=22 is no more
    ladder = catalog("ladder")
    one = count_saws(ladder, n_max=26, workers=1).counts
    assert count_saws(ladder, n_max=26, workers=2).counts == one
    assert spy_pools == [2] and len(pickled) <= 2


def test_every_walker_pickles(monkeypatch):
    # a spawn or forkserver pool, the default off Linux, pickles the
    # walker for each process, so a closure walker would fail there only
    kinds = []
    real = counting._Split.counts

    def spy(split, source, key, n_max, workers, walker=None):
        bound = partial(walker or counting._counts_from, table=split.table)
        assert pickle.loads(pickle.dumps(bound)).func is bound.func
        kinds.append(bound.func.__name__)
        return real(split, source, key, n_max, workers, walker)

    monkeypatch.setattr(counting._Split, "counts", spy)
    cube = build_quotient(catalog("zd:3"), sublattice_action(
        [[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
    fam = build_cycle_family(cube)
    count_saws(catalog("zd:2"), n_max=6)
    count_saws(CayleyGraph(Z2_PRESENTATION, "z2"), n_max=4)
    bridge_counts(2, 6)
    count_directed_saws(cube, 6)
    event_free_series(cube, fam, 3, 6)
    event_series(cube, fam, 3, 6, m=2, r=1)
    assert kinds == ["_counts_from"] * 2 + ["_bridge_counts_from"] + \
        ["_counts_from"] + ["_event_counts_from"] * 2


@pytest.mark.parametrize("d,n", [(1, 10), (2, 8), (3, 6)])
def test_bridges_match_naive_oracle(d, n):
    want = naive_bridge_counts(d, n)
    assert bridge_counts(d, n) == want
    assert bridge_counts(d, n, workers=2) == want
