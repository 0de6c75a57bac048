"""Work done once on the certify path, with outputs unchanged.

* The agreement search counts to a predicted index instead of once per
  candidate; its outcome and the certificate bytes are checked against
  the step-by-step search it replaced, kept here as the reference, and
  its cost in nodes against that reference's and its own last count's.
* Cycle families are built once per cell on sublattice quotients and
  translated; the translated sets are checked against per-orbit builds.
* The lattice stabiliser is cached on the lattice's content.
* The automatic lower bound uses Z^d bridges only for lattices that
  contain Z^d, and ``saw bounds`` prints the bound ``saw ratio`` uses.
"""

import json
from fractions import Fraction

import pytest

from sawkit import bounds, certificate
from sawkit.bounds import LowerBoundSequence, bridge_bounds, lower_bounds
from sawkit.certificate import (CheckRecord, SearchOutcome, _fmt_radical,
                                certify_ratio, find_epsilon_m)
from sawkit.cli import run
from sawkit.counting import (_orbit_split, _series_split, _stabiliser,
                             count_directed_saws, count_saws,
                             lattice_stabiliser)
from sawkit.events import CycleFamily, build_cycle_family, event_free_series
from sawkit.exact import Radical, float_repr
from sawkit.graphs import PeriodicLattice, catalog, load_spec_file
from sawkit.quotient import build_quotient, sublattice_action, tree_action


def _quotient(graph, rows):
    return build_quotient(catalog(graph), sublattice_action(
        [[int(x) for x in r.split()] for r in rows.split(";")]))


# ---------------------------------------------------------------------------
# The agreement search against the step-by-step reference
# ---------------------------------------------------------------------------

def _stepwise_search(q, family, b, n_budget=10, workers=None, g=None):
    """The three searches with the undirected counts extended one
    candidate at a time, each extension a fresh count from the root."""
    if n_budget < 1:
        return SearchOutcome("exhausted", "budget is zero", None, None,
                             None, None)
    g = q.base if g is None else g
    ef = event_free_series(q, family, family.length, n_budget)
    ds = list(count_directed_saws(q, n_budget, workers=workers).counts)
    us = [1]

    def us_at(n):
        nonlocal us
        if n >= len(us):
            us = list(certificate.count_saws(g, None, n,
                                             workers=workers).counts)
        return us[n]

    checks = []
    r = None
    for cand in range(1, n_budget + 1):
        lhs = Radical.nth_root(ef[cand], cand)
        rhs = b.value_at(cand).scaled(Fraction(cand - 1, cand))
        ok = lhs < rhs
        checks.append(CheckRecord("event_decay", cand, _fmt_radical(lhs),
                                  _fmt_radical(rhs), ok, "exact-root"))
        if ok:
            r = cand
            break
    if r is None:
        return SearchOutcome("exhausted",
                             f"no decay index r within budget {n_budget}",
                             None, None, None, None, checks, ef, ds, us)
    eps = Fraction(1, r)
    s = None
    for cand in range(r, n_budget + 1):
        lhs = b.value_at(cand).scaled(1 + eps)
        rhs = Radical.nth_root(us_at(cand), cand).scaled(1 + eps / 2)
        ok = lhs >= rhs
        checks.append(CheckRecord("bound_agreement", cand, _fmt_radical(lhs),
                                  _fmt_radical(rhs), ok, "exact-root"))
        if ok:
            s = cand
            break
    if s is None:
        return SearchOutcome("exhausted",
                             f"no agreement index s within budget {n_budget}",
                             r, eps, None, None, checks, ef, ds, us)
    b_s = b.value_at(s)
    m = None
    for cand in range(1, n_budget + 1):
        lhs1 = Radical.nth_root(ef[cand], cand)
        rhs1 = b_s.scaled(1 - eps)
        lhs2 = Radical.nth_root(ds[cand], cand)
        rhs2 = b_s.scaled(1 + eps)
        checks.append(CheckRecord("block_event_decay", cand,
                                  _fmt_radical(lhs1), _fmt_radical(rhs1),
                                  lhs1 < rhs1, "exact-root"))
        checks.append(CheckRecord("block_growth", cand, _fmt_radical(lhs2),
                                  _fmt_radical(rhs2), lhs2 <= rhs2,
                                  "exact-root"))
        if lhs1 < rhs1 and lhs2 <= rhs2:
            m = cand
            break
    if m is None:
        return SearchOutcome("exhausted",
                             f"no block length m within budget {n_budget}",
                             r, eps, s, None, checks, ef, ds, us)
    return SearchOutcome("found", None, r, eps, s, m, checks, ef, ds, us)


class _NodeMeter:
    """Wraps ``count_saws`` in the certificate module and sums the nodes
    of its runs: sigma_0 + ... + sigma_t for a run to depth t.  ``last``
    holds the nodes of the last run.

    ``series`` sums the same for every series the search counts, by
    name: ``us`` (``count_saws``), ``ds`` (``count_directed_saws``) and
    ``ef`` (``event_free_series``) as the certificate module calls them,
    and ``beta`` (``bridge_counts``) as the bounds module does."""

    def __init__(self, monkeypatch):
        self.nodes = self.last = 0
        self.series = {}
        for module, name, key in (
                (certificate, "count_saws", "us"),
                (certificate, "count_directed_saws", "ds"),
                (certificate, "event_free_series", "ef"),
                (bounds, "bridge_counts", "beta")):
            monkeypatch.setattr(module, name,
                                self._metered(getattr(module, name), key))

    def _metered(self, inner, key):
        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            nodes = sum(getattr(out, "counts", out))
            self.series[key] = self.series.get(key, 0) + nodes
            if key == "us":
                self.last = nodes
                self.nodes += nodes
            return out
        return counted


def _bound(g, mu, budget):
    if mu is None:
        return bridge_bounds(g.dimension, max(budget, 1), workers=1)[1]
    return LowerBoundSequence.from_constant(Fraction(mu), g.graph_id,
                                            provenance="mu-exact")


# (graph, sublattice rows, --mu-exact value or None for bridges, budget)
SEARCH_CASES = [
    ("zd:2", "2 0;0 2", None, 12), ("zd:2", "2 0;0 2", None, 13),
    ("zd:2", "2 0;0 2", None, 16), ("zd:2", "3 0;0 1", "2.63", 14),
    ("zd:2", "2 0;0 2", "2.63", 12), ("zd:1", "3", None, 10),
    ("square-octagon", "1 -1", "1.8", 16),
    ("square-octagon", "1 -1", "1.8", 18),
    ("ladder", "3", "1.61", 30), ("ladder", "2", "1.61", 30),
    ("zd:2", "2 0;0 2", None, 0), ("zd:2", "2 0;0 2", None, 1),
    ("zd:2", "2 0;0 2", None, 2), ("zd:1", "3", None, 2),
]


# the nodes each series of a SEARCH_CASES run metered before the search
# shared one split per series source, bridges included: sharing tables
# adds no count and drops none.  Only the two ladder cases' undirected
# counts differ, as the sigma model of _agreement_target fits the fall
# of the ratios there: ladder/3 counts to 4, 8 and 13 (5240 nodes) where
# the constant ratio counted to 4, 8, 9 and 14 (8906), and ladder/2 to
# 2, 5 and 7 (324) where it counted to 2, 5 and 8 (484).
SEARCH_NODES = {
    ("zd:2", "2 0;0 2", None, 12):
        {"beta": 42991, "ds": 29, "ef": 1, "us": 551162},
    ("zd:2", "2 0;0 2", None, 13):
        {"beta": 109644, "ds": 29, "ef": 1, "us": 1666727},
    ("zd:2", "2 0;0 2", None, 16):
        {"beta": 1843795, "ds": 29, "ef": 1, "us": 12179096},
    ("zd:2", "3 0;0 1", "2.63", 14): {"ds": 5, "ef": 0, "us": 607},
    ("zd:2", "2 0;0 2", "2.63", 12): {"ds": 29, "ef": 1, "us": 607},
    ("zd:1", "3", None, 10): {"beta": 11, "ds": 5, "ef": 3, "us": 21},
    ("square-octagon", "1 -1", "1.8", 16):
        {"ds": 20560, "ef": 6956, "us": 100870},
    ("square-octagon", "1 -1", "1.8", 18):
        {"ds": 53986, "ef": 16120, "us": 335808},
    ("ladder", "3", "1.61", 30): {"ds": 44, "ef": 14, "us": 5240},
    ("ladder", "2", "1.61", 30): {"ds": 14, "ef": 2, "us": 324},
    ("zd:2", "2 0;0 2", None, 0): {"beta": 2},
    ("zd:2", "2 0;0 2", None, 1): {"beta": 2, "ds": 5, "ef": 1},
    ("zd:2", "2 0;0 2", None, 2): {"beta": 5, "ds": 13, "ef": 1, "us": 17},
    ("zd:1", "3", None, 2): {"beta": 3, "ds": 5, "ef": 3, "us": 5},
}


@pytest.mark.parametrize("graph,rows,mu,budget", SEARCH_CASES)
def test_certificate_bytes_match_stepwise_search(graph, rows, mu, budget,
                                                  monkeypatch):
    q = _quotient(graph, rows)
    g, family = q.base, build_cycle_family(q)
    meter = _NodeMeter(monkeypatch)
    b = _bound(g, mu, budget)
    got = certify_ratio(g, q, family, b, budget, workers=1).to_json()
    assert meter.series == SEARCH_NODES[graph, rows, mu, budget]
    predicted = meter.nodes
    meter.nodes = 0
    monkeypatch.setattr(certificate, "find_epsilon_m", _stepwise_search)
    want = certify_ratio(g, q, family, b, budget, workers=1).to_json()
    assert got == want
    assert predicted <= 1.5 * meter.nodes, (predicted, meter.nodes)


def test_prediction_counts_fewer_times(monkeypatch):
    # the ladder's model says "never" at r = 4; the cost cap keeps the
    # search from counting to the budget of 30 and it still finds s = 13
    q = _quotient("ladder", "3")
    depths = []
    inner = certificate.count_saws

    def counted(g, v0, n, **kwargs):
        depths.append(n)
        return inner(g, v0, n, **kwargs)
    monkeypatch.setattr(certificate, "count_saws", counted)
    out = find_epsilon_m(q, build_cycle_family(q),
                         _bound(q.base, "1.61", 30), 30, workers=1)
    assert (out.r, out.s) == (4, 13)
    assert len(out.undirected) == 14
    assert depths[0] == 4 and max(depths) < 30 and len(depths) <= 4


# (graph, sublattice rows, --mu-exact value or None for bridges, budget,
# the most nodes all counts of the search may expand, or None)
GUARD_CASES = [
    ("zd:2", "2 0;0 2", None, 12, None),
    ("zd:2", "2 0;0 2", None, 13, 1_700_000),
    ("zd:2", "2 0;0 2", None, 16, None),
    ("square-octagon", "1 -1", "1.8", 18, 340_000),
]


@pytest.mark.parametrize("graph,rows,mu,budget,most", GUARD_CASES)
def test_agreement_search_costs_little_more_than_its_last_count(
        graph, rows, mu, budget, most, monkeypatch):
    # the counts before the last one add at most a quarter to its nodes
    q = _quotient(graph, rows)
    meter = _NodeMeter(monkeypatch)
    find_epsilon_m(q, build_cycle_family(q), _bound(q.base, mu, budget),
                   budget, workers=1)
    assert meter.nodes <= 1.25 * meter.last, (meter.nodes, meter.last)
    assert most is None or meter.nodes <= most, meter.nodes


def test_agreement_target_looks_ahead_to_the_deciding_depth():
    # zd:2 mod (2Z)^2 with bridge bounds has eps = 1/2 and no predicted
    # agreement within budget 13; after counts to 2, 4, 6, 8 and 10 the
    # cost cap allows a count to 12, but a count to 12 would leave one
    # more count to reach 13, so the search counts to 11 instead
    g = catalog("zd:2")
    us = list(count_saws(g, None, 10).counts)
    spent = 1 + sum(sum(count_saws(g, None, d).counts)
                    for d in (2, 4, 6, 8, 10))
    b = _bound(g, None, 13)
    assert certificate._agreement_target(us, b, Fraction(1, 2), 11, 13,
                                         spent) != 12


# ---------------------------------------------------------------------------
# One split per series source for a run
# ---------------------------------------------------------------------------

# (graph, split bound): the ladder and Z^2 counts reach their tail memos
SPLIT_GRAPHS = [("zd:2", 12), ("ladder", 14), ("square-octagon", 9),
                ("tree:4", 6)]
# (graph, sublattice rows or tree action, split bound)
SPLIT_QUOTIENTS = [("zd:3", "3 0 0;0 3 0;0 0 3", 7), ("zd:2", "1 1", 8),
                   ("tree-with-end(3)", "child-swap", 7)]


def _split_quotient(graph, rows):
    if rows == "child-swap":
        return build_quotient(catalog(graph), tree_action(rows))
    return _quotient(graph, rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_counts_through_a_shared_split_match_fresh_counts(workers,
                                                          forced_pool,
                                                          tables):
    # the deepest count first, so that the shallower ones read what it
    # left in the table, then every depth up to the bound
    fresh, shared = [], []
    for graph, bound in SPLIT_GRAPHS:
        g = catalog(graph)
        fresh.append([count_saws(g, None, n) for n in range(bound + 1)])
    for graph, rows, bound in SPLIT_QUOTIENTS:
        q = _split_quotient(graph, rows)
        fam = build_cycle_family(q)
        fresh.append([(count_directed_saws(q, n),
                       event_free_series(q, fam, fam.length, n))
                      for n in range(bound + 1)])
    fresh_tables = len(tables)
    for graph, bound in SPLIT_GRAPHS:
        g = catalog(graph)
        split = _series_split(g, None, bound)
        got = {n: count_saws(g, None, n, workers=workers, split=split)
               for n in [bound] + list(range(bound))}
        shared.append([got[n] for n in range(bound + 1)])
    for graph, rows, bound in SPLIT_QUOTIENTS:
        q = _split_quotient(graph, rows)
        fam = build_cycle_family(q)
        # as in find_epsilon_m: below full rank the directed series runs
        # on the free lattice and the event series on an orbit split
        split = _series_split(q, None, bound)
        esplit = split if q.free_lattice() is None else \
            _orbit_split(q, None, bound)
        got = {n: (count_directed_saws(q, n, workers=workers, split=split),
                   event_free_series(q, fam, fam.length, n,
                                     workers=workers, split=esplit))
               for n in [bound] + list(range(bound))}
        shared.append([got[n] for n in range(bound + 1)])
    assert shared == fresh
    # one table per split, none on the tree, whose counts are a formula;
    # zd:2 / (1 1) has two splits
    assert len(tables) - fresh_tables == \
        len(SPLIT_GRAPHS) - 1 + len(SPLIT_QUOTIENTS) + 1
    assert bool(forced_pool) == (workers == 2)


def test_a_split_refuses_a_depth_past_its_bound_and_other_sources():
    g = catalog("zd:2")
    split = _series_split(g, None, 6)
    assert count_saws(g, None, 6, split=split) == count_saws(g, None, 6)
    past = "past the split's bound 6"
    source = "serves another series source"
    for bad, match in (
            (lambda: count_saws(g, None, 7, split=split), past),
            (lambda: count_saws(g, None, 9, max_nodes=10 ** 6, split=split),
             past),
            # refused before a pass, however few depths fit the budget
            (lambda: count_saws(g, None, 9, max_nodes=10, split=split),
             past),
            (lambda: count_saws(g, (0, (1, 0)), 3, split=split),
             r"serves counts from \(0, \(0, 0\)\), not from "
             r"\(0, \(1, 0\)\)"),
            (lambda: count_saws(catalog("ladder"), None, 3, split=split),
             source)):
        with pytest.raises(ValueError, match=match):
            bad()
    q = _quotient("zd:3", "3 0 0;0 3 0;0 0 3")
    fam = build_cycle_family(q)
    qsplit = _series_split(q, None, 6)
    for bad, match in (
            (lambda: count_directed_saws(q, 7, split=qsplit), past),
            (lambda: event_free_series(q, fam, 3, 7, split=qsplit), past),
            (lambda: count_directed_saws(q, 3, start=(0, (1, 0, 0)),
                                         split=qsplit),
             r"serves counts from \(0, \(0, 0, 0\)\), not from "
             r"\(0, \(1, 0, 0\)\)"),
            (lambda: count_directed_saws(q, 3, split=split), source),
            (lambda: count_saws(g, None, 3, split=qsplit), source)):
        with pytest.raises(ValueError, match=match):
            bad()


def test_certify_makes_one_table_per_series_source(tables):
    # ladder/3 at mu 1.61 counts ef, ds and three undirected series
    q = _quotient("ladder", "3")
    g, family = q.base, build_cycle_family(q)
    b = _bound(g, "1.61", 30)
    cert = certify_ratio(g, q, family, b, 30, workers=1)
    assert cert.status == "certified"
    assert len(tables) == 2


# ---------------------------------------------------------------------------
# Cycle families built once per cell
# ---------------------------------------------------------------------------

FAMILY_QUOTIENTS = [("zd:2", "2 0;0 2"), ("zd:2", "3 0;0 1"),
                    ("zd:3", "3 0 0;0 3 0;0 0 3"), ("square-octagon", "1 -1"),
                    ("ladder", "3")]


def _reached(q, depth):
    """Every orbit a directed walk of at most ``depth`` steps from the
    origin orbit reaches."""
    seen = {q.origin_orbit()}
    frontier = set(seen)
    for _ in range(depth):
        frontier = {t for o in frontier for t, _m in q.drow(o)} - seen
        seen |= frontier
    return sorted(seen)


class _CountedBuilds(CycleFamily):
    def __init__(self, q, length):
        super().__init__(q, length)
        self.built = []

    def _build(self, orbit):
        self.built.append(orbit)
        return super()._build(orbit)


@pytest.mark.parametrize("graph,rows", FAMILY_QUOTIENTS)
def test_translated_families_match_per_orbit_builds(graph, rows):
    q = _quotient(graph, rows)
    fam = _CountedBuilds(q, build_cycle_family(q).length)
    fresh = CycleFamily(q, fam.length)
    orbits = _reached(q, 8)
    for o in orbits:
        assert fam.sets_at(o) == fresh._build(o), o
    cells = {c for c, _x in orbits}
    assert sorted(fam.built) == sorted(
        (c, (0,) * q.base.dimension) for c in cells)


def test_tree_families_build_every_orbit():
    q = build_quotient(catalog("tree-with-end(3)"), tree_action("child-swap"))
    fam = _CountedBuilds(q, build_cycle_family(q).length)
    orbits = [0, 1, -2, 3]
    for o in orbits:
        fam.sets_at(o)
    assert fam.built == orbits


# ---------------------------------------------------------------------------
# The stabiliser cache
# ---------------------------------------------------------------------------

def _fresh_stabiliser(lat, cell=0, fix_first=False):
    return _stabiliser.__wrapped__(lat.dimension, lat.cells, lat.edges,
                                   cell, fix_first)


@pytest.mark.parametrize("graph", ["zd:2", "zd:3", "square-octagon",
                                   "ladder"])
def test_cached_stabiliser_equals_a_fresh_one(graph):
    g = catalog(graph)
    for cell in range(g.cells):
        for fix_first in (False, True):
            got = lattice_stabiliser(g, cell, fix_first)
            assert got == _fresh_stabiliser(g, cell, fix_first)
            assert lattice_stabiliser(g, cell, fix_first) is got


def test_stabiliser_cache_is_keyed_on_edges_not_graph_id():
    square = PeriodicLattice(2, 1, [(0, 0, (1, 0), 1), (0, 0, (0, 1), 1)],
                             graph_id="same")
    jumps = PeriodicLattice(2, 1, [(0, 0, (1, 0), 1), (0, 0, (2, 0), 1)],
                            graph_id="same")
    a, b = lattice_stabiliser(square), lattice_stabiliser(jumps)
    assert a == _fresh_stabiliser(square) and len(a) == 8
    assert b == _fresh_stabiliser(jumps) and len(b) == 2


# ---------------------------------------------------------------------------
# The automatic lower bound on a lattice without Z^d
# ---------------------------------------------------------------------------

JUMPS = "kind lattice\ndimension 2\ncells 1\nedge 0 0 1 0 1\nedge 0 0 2 0 1\n"


def _min_root(counts):
    return min(Radical.nth_root(c, j) for j, c in enumerate(counts) if j)


def test_jump_lattice_gets_no_zd_bridges(tmp_path, capsys):
    # Z with jumps 1 and 2 has no Z^2 inside it; the Z^2 bridge table
    # made `saw ratio` certify it at budget 14 with b_14 above
    # sigma_18**(1/18), which is not a lower bound
    spec = tmp_path / "jumps.graph"
    spec.write_text(JUMPS)
    cert = tmp_path / "cert.json"
    code = run(["ratio", "--spec", str(spec), "--sublattice", "3 0;0 1",
                "--budget", "14", "--deterministic", "--out", str(cert)])
    capsys.readouterr()
    assert code == 3
    doc = certificate.RatioCertificate.from_json(cert.read_text()).payload
    assert doc["status"] != "certified"
    us = [int(c) for c in doc["counts"]["undirected"]]
    assert len(us) == 15
    for entry in doc["counts"]["lower_bound"]:
        assert entry["provenance"] != "bridge"
        assert Radical.from_json(entry["value"]) <= _min_root(us)
    g = load_spec_file(str(spec))
    _, b = lower_bounds(g, 18, workers=1)
    bound = _min_root(count_saws(g, None, 18).counts)
    assert all(b.value_at(n) <= bound for n in range(1, 19))


@pytest.mark.parametrize("edges,bridges", [
    ([(0, 0, (1, 0), 1), (0, 0, (2, 0), 1)], False),
    ([(0, 0, (1, 0), 1), (0, 0, (1, 1), 1)], True),
    ([(0, 0, (1, 0), 1), (0, 0, (0, 1), 1), (0, 0, (1, 1), 1)], True),
])
def test_zd_bridges_only_where_zd_embeds(edges, bridges):
    g = PeriodicLattice(2, 1, edges)
    _, b = lower_bounds(g, 6, workers=1)
    assert (b.provenance_at(6) == "bridge") == bridges


@pytest.mark.parametrize("graph,rows", [
    ("zd:1", "3"), ("zd:2", "2 0;0 2"), ("ladder", "2"),
    (JUMPS, "3 0;0 1"),
    ("kind lattice\ndimension 2\ncells 1\nedge 0 0 1 0 1\n"
     "edge 0 0 1 1 1\n", "2 0;0 2")],
    ids=["zd1", "zd2", "ladder", "jumps", "z2-inside"])
def test_bounds_prints_the_bound_ratio_uses(graph, rows, tmp_path, capsys):
    # `saw bounds` and `saw ratio` take their lower bound from one chooser
    if graph.startswith("kind"):
        spec = tmp_path / "g.graph"
        spec.write_text(graph)
        selector = ["--spec", str(spec)]
    else:
        selector = ["--graph", graph]
    cert = tmp_path / "cert.json"
    assert run(["ratio", *selector, "--sublattice", rows, "--budget", "6",
                "--deterministic", "--out", str(cert)]) in (0, 3)
    assert run(["bounds", *selector, "--n", "6", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    printed = [r["b"] for r in doc["rows"]] if "rows" in doc else [doc["b"]]
    stored = certificate.RatioCertificate.from_json(
        cert.read_text()).payload["counts"]["lower_bound"]
    assert printed == [float_repr(float(Radical.from_json(e["value"])))
                       for e in stored]
