"""Counting engines against the frozen oracle outputs and live oracles.

The [frozen] lists were produced by tests/freeze_oracle_values.py (naive
path-list enumeration, written before the engines) and must never be
edited to match an engine.
"""

from functools import partial

import pytest

import sawkit.counting as counting
from oracles import (naive_directed_saw_counts, naive_directed_walk_counts,
                     naive_saw_counts, naive_walk_counts)
from sawkit.counting import (WalkCounts, count_directed_saws,
                             count_directed_walks, count_saws, count_walks,
                             resolve_workers)
from sawkit.exact import Radical
from sawkit.graphs import (InvalidVertexError, PeriodicLattice, augment,
                           catalog)
from sawkit.quotient import build_quotient, sublattice_action

# [frozen]
SAW_Z2_10 = [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100]
SAW_LADDER_10 = [1, 3, 6, 12, 20, 36, 58, 100, 160, 268, 430]
SAW_SQOCT_10 = [1, 3, 6, 12, 22, 42, 80, 152, 284, 536, 988]
SAW_Z2DIAG_8 = [1, 6, 30, 138, 618, 2730, 11946, 51882, 224130]
SAW_TREE3_8 = [1, 3, 6, 12, 24, 48, 96, 192, 384]
DSAW_Z1MOD3_8 = [1, 2, 2, 0, 0, 0, 0, 0, 0]
DSAW_Z2MOD22_8 = [1, 4, 8, 16, 0, 0, 0, 0, 0]
DSAW_TREEEND_10 = [1, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025]
DSAW_SQOCT_LADDERQ_10 = [1, 3, 6, 12, 20, 36, 58, 100, 160, 268, 430]
WALKS_Z2_6 = [1, 4, 16, 64, 256, 1024, 4096]


def test_saw_counts_match_frozen(z2, ladder, sqoct):
    assert list(count_saws(z2, n_max=10).counts) == SAW_Z2_10
    assert list(count_saws(ladder, n_max=10).counts) == SAW_LADDER_10
    assert list(count_saws(sqoct, n_max=10).counts) == SAW_SQOCT_10
    assert list(count_saws(catalog("tree(3)"), n_max=8).counts) == SAW_TREE3_8


def test_augmented_lattice_counts_match_frozen(z2):
    z2d = augment(z2, (z2.origin(), (0, (1, 1))))
    assert list(count_saws(z2d, n_max=8).counts) == SAW_Z2DIAG_8


def test_directed_counts_match_frozen(q_z1mod3, q_z2mod22, q_tree_end,
                                      q_sqoct_ladder):
    assert list(count_directed_saws(q_z1mod3, 8).counts) == DSAW_Z1MOD3_8
    assert list(count_directed_saws(q_z2mod22, 8).counts) == DSAW_Z2MOD22_8
    assert list(count_directed_saws(q_tree_end, 10).counts) == DSAW_TREEEND_10
    assert (list(count_directed_saws(q_sqoct_ladder, 10).counts)
            == DSAW_SQOCT_LADDERQ_10)


def test_live_oracle_agreement(z2, sqoct, q_z2mod22, q_sqoct_ladder):
    # re-derive small prefixes with the naive oracles at test time
    assert list(count_saws(z2, n_max=6).counts) == naive_saw_counts(
        z2, z2.origin(), 6)
    assert list(count_saws(sqoct, n_max=7).counts) == naive_saw_counts(
        sqoct, sqoct.origin(), 7)
    assert list(count_directed_saws(q_z2mod22, 6).counts) == \
        naive_directed_saw_counts(q_z2mod22, 6)
    assert list(count_directed_saws(q_sqoct_ladder, 7).counts) == \
        naive_directed_saw_counts(q_sqoct_ladder, 7)


def test_walk_counts_match(z2, q_z1mod3, q_tree_end):
    assert count_walks(z2, n_max=6) == WALKS_Z2_6
    assert count_walks(z2, n_max=4) == naive_walk_counts(z2, z2.origin(), 4)
    assert count_directed_walks(q_z1mod3, 6) == naive_directed_walk_counts(
        q_z1mod3, 6)
    assert count_directed_walks(q_tree_end, 6) == naive_directed_walk_counts(
        q_tree_end, 6)


def test_negative_walk_lengths_are_refused(z2, q_z2mod22):
    with pytest.raises(ValueError, match=r"n_max must be >= 0"):
        count_walks(z2, n_max=-1)
    with pytest.raises(ValueError, match=r"n_max must be >= 0"):
        count_directed_walks(q_z2mod22, -2)
    assert count_walks(z2, n_max=0) == [1]
    assert count_directed_walks(q_z2mod22, 0) == [1]


def test_directed_walks_refuse_non_canonical_starts(q_z2mod22):
    # (0, (5, 5)) lies in the orbit keyed (0, (1, 1)); Z^2 has no cell 3
    with pytest.raises(ValueError, match="orbit's key is"):
        count_directed_walks(q_z2mod22, 3, start=(0, (5, 5)))
    with pytest.raises(InvalidVertexError):
        count_directed_walks(q_z2mod22, 3, start=(3, (0, 0)))
    assert count_directed_walks(q_z2mod22, 3, start=(0, (1, 1))) == \
        [1, 4, 16, 64]


def test_tree_closed_form():
    t4 = catalog("tree(4)")
    wc = count_saws(t4, n_max=10)
    assert list(wc.counts) == [1] + [4 * 3 ** (n - 1) for n in range(1, 11)]


def test_budget_truncation(z2):
    wc = count_saws(z2, n_max=10, max_nodes=300)
    assert wc.truncated
    assert 1 <= wc.n_max < 10
    assert list(wc.counts) == SAW_Z2_10[:wc.n_max + 1]
    # a roomy budget changes nothing
    full = count_saws(z2, n_max=6, max_nodes=10 ** 9)
    assert not full.truncated and list(full.counts) == SAW_Z2_10[:7]


@pytest.mark.parametrize("graph,series", [
    ("zd(2)", SAW_Z2_10[:9]),
    ("tree(4)", [1] + [4 * 3 ** j for j in range(7)]),
    ("ladder", SAW_LADDER_10), ("square-octagon", SAW_SQOCT_10)])
def test_budget_boundary(graph, series):
    # depth n is charged sum_{j<n} sigma_j nodes (the nodes a depth-n
    # search expands) and is counted only while the running charge stays
    # within the budget
    g = catalog(graph)
    n_max = len(series) - 1
    charge = 0
    for n in range(1, n_max + 1):
        charge += sum(series[:n])
        at = count_saws(g, n_max=n_max, max_nodes=charge)
        assert at.counts == tuple(series[:n + 1]), (n, charge)
        assert at.truncated == (n < n_max)
        below = count_saws(g, n_max=n_max, max_nodes=charge - 1)
        assert below.counts == tuple(series[:n]) and below.truncated


def _per_depth_budget(g, n_max, max_nodes):
    """The budgeted count one depth at a time, each depth a fresh count
    from the root: the reference the one-pass count must equal."""
    counts, spent = [1], 0
    for n in range(1, n_max + 1):
        spent += sum(counts)
        if spent > max_nodes:
            return tuple(counts), True
        counts.append(count_saws(g, n_max=n).counts[n])
    return tuple(counts), False


# zd(2) with doubled x-edges: a multigraph of degree 6
DOUBLED = PeriodicLattice(2, 1, [(0, 0, (1, 0), 2), (0, 0, (0, 1), 1)])


@pytest.mark.parametrize("graph,n_max", [
    ("zd(2)", 9), ("ladder", 12), ("square-octagon", 12), ("doubled", 7),
    ("tree(4)", 8)])
def test_one_pass_budget_matches_per_depth_loop(graph, n_max):
    g = DOUBLED if graph == "doubled" else catalog(graph)
    series = count_saws(g, n_max=n_max).counts
    stops, charge = [0], 0
    for n in range(1, n_max + 1):
        charge += sum(series[:n])
        stops.append(charge)
    for budget in sorted({b + d for b in stops for d in (-1, 0, 1)} - {-1}):
        got = count_saws(g, n_max=n_max, max_nodes=budget)
        assert (got.counts, got.truncated) == \
            _per_depth_budget(g, n_max, budget), budget


def test_budget_covering_the_series_counts_once(monkeypatch, z2, tables):
    passes = []
    inner = counting._Split.counts

    def metered(split, *args, **kwargs):
        out = inner(split, *args, **kwargs)
        passes.append(sum(out))
        return out
    monkeypatch.setattr(counting._Split, "counts", metered)
    wc = count_saws(z2, n_max=10, max_nodes=10 ** 9)
    assert wc.counts == tuple(SAW_Z2_10) and not wc.truncated
    assert passes == [sum(SAW_Z2_10)]
    # at exactly the series' charge the bound sigma_{n+1} <= 3 sigma_n
    # stops the first pass one depth short, and the counts show the rest fits
    passes.clear()
    made = len(tables)
    charge = sum(sum(SAW_Z2_10[:n]) for n in range(1, 11))
    assert count_saws(z2, n_max=10, max_nodes=charge).counts == \
        tuple(SAW_Z2_10)
    assert passes == [sum(SAW_Z2_10[:10]), sum(SAW_Z2_10)]
    # the two passes share one table, with its rows and tail memo
    assert len(tables) - made == 1


Z2 = catalog("zd(2)")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("graph,head", [
    # the +-e_1 edges are loops
    (build_quotient(Z2, sublattice_action([[1, 0], [0, 2]])), [1, 2, 0]),
    (build_quotient(Z2, sublattice_action([[1, 0], [0, 3]])), [1, 2, 2]),
    # zd(2) with doubled x-edges
    (PeriodicLattice(2, 1, [(0, 0, (1, 0), 2), (0, 0, (0, 1), 1)]),
     [1, 6, 26])],
    ids=["Z2/(1,0;0,2)", "Z2/(1,0;0,3)", "doubled"])
def test_last_two_depths_skip_loops_and_keep_multiplicities(graph, head,
                                                            workers):
    # the kernel counts its last two depths in one loop, at every depth:
    # a loop must not count as a step, and parallel edges count apart
    if isinstance(graph, PeriodicLattice):
        want = naive_saw_counts(graph, graph.origin(), 6)
        count = partial(count_saws, graph)
    else:
        want = naive_directed_saw_counts(graph, 6)
        count = partial(count_directed_saws, graph)
    assert want[:3] == head
    for n in range(7):
        assert list(count(n_max=n, workers=workers).counts) == want[:n + 1]


def test_worker_count_does_not_change_counts(z2, q_z2mod22):
    base = count_saws(z2, n_max=8, workers=1)
    assert count_saws(z2, n_max=8, workers=4).counts == base.counts
    d1 = count_directed_saws(q_z2mod22, 8, workers=1)
    assert count_directed_saws(q_z2mod22, 8, workers=4).counts == d1.counts


def test_start_vertex_invariance(z2, q_z1mod3):
    shifted = count_saws(z2, v0=(0, (3, -5)), n_max=6)
    assert list(shifted.counts) == SAW_Z2_10[:7]
    assert shifted.start == (0, (3, -5))
    moved = count_directed_saws(q_z1mod3, 6, start=(0, (1,)))
    assert list(moved.counts) == DSAW_Z1MOD3_8[:7]


def test_walkcounts_accessors(ladder):
    wc = count_saws(ladder, n_max=5)
    assert isinstance(wc, WalkCounts)
    assert wc.n_max == 5 and wc.sigma(4) == 20 and not wc.directed
    assert wc.a(2) == Radical.nth_root(6, 2)
    assert wc.a_float(1) == 3.0
    rows = wc.rows()
    assert rows[0] == (1, 3, 3.0) and len(rows) == 5
    with pytest.raises(ValueError):
        wc.a(0)


def test_argument_validation(z2):
    with pytest.raises(ValueError):
        count_saws(z2, n_max=-1)
    with pytest.raises(ValueError):
        count_saws(z2, n_max=3, max_nodes=-3)
    with pytest.raises(Exception):
        count_saws(z2, v0=(0, (1,)), n_max=2)    # malformed key


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("SAW_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(5) == 5
    monkeypatch.setenv("SAW_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2               # argument wins
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("SAW_WORKERS", bad)
        with pytest.raises(ValueError, match="SAW_WORKERS must be a "
                                             "positive integer"):
            resolve_workers()


@pytest.mark.parametrize("graph,n,pooled", [("zd(3)", 8, []),
                                            ("zd(2)", 15, [2])])
def test_pool_starts_only_past_the_break_even(spy_pools, graph, n, pooled):
    # zd:3 at n=8 expands about 15k nodes after the split, below the
    # break-even; zd:2 at n=15 about 1.3M
    g = catalog(graph)
    one = count_saws(g, n_max=n, workers=1).counts
    for _ in range(2):
        spy_pools.clear()
        assert count_saws(g, n_max=n, workers=2).counts == one
        assert spy_pools == pooled


def test_workers_clamped_to_cpus_and_tasks(monkeypatch, capsys, z2):
    import sawkit.counting as counting
    from sawkit.bounds import bridge_counts
    from sawkit.cli import run

    started = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(counting, "ProcessPoolExecutor", InlinePool)
    # send every task to the pool, though zd:2 at n=10 is below the
    # break-even
    monkeypatch.setattr(counting, "_POOL_SAMPLE_NODES", 0)
    monkeypatch.setattr(counting, "_POOL_BREAK_EVEN_NODES", 0)
    counting._note_clamp.cache_clear()
    assert run(["count", "--graph", "zd:2", "--n", "10"]) == 0
    want = capsys.readouterr()
    assert run(["count", "--graph", "zd:2", "--n", "10",
                "--workers", "64"]) == 0
    assert started == [3]
    got = capsys.readouterr()
    assert got.out == want.out
    assert got.err.count("64 workers requested, 3 CPUs") == 1
    # the note is printed once per requested count, not once per call
    assert count_saws(z2, n_max=8, workers=64).counts == tuple(SAW_Z2_10[:9])
    assert capsys.readouterr().err == ""
    # one bridge prefix on Z^1: no pool for a single task
    started.clear()
    assert bridge_counts(1, 8, workers=3) == [1] * 9
    assert started == []
