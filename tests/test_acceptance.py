"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Heavy series are computed once (single worker) in
module fixtures; the determinism criterion recomputes them with eight
workers and demands bit-identical results.
"""

import json
import time
from fractions import Fraction

import pytest

from oracles import naive_saw_counts
from sawkit.balls import balls_isomorphic
from sawkit.bounds import bridge_counts
from sawkit.certificate import RatioCertificate, verify_certificate
from sawkit.cli import run
from sawkit.counting import (count_directed_saws, count_directed_walks,
                             count_saws, count_walks)
from sawkit.events import build_cycle_family, count_with_events, \
    event_free_series
from sawkit.graphs import augment, catalog
from sawkit.quotient import (build_quotient, check_representative_independence,
                             check_symmetry, classify_type, derive_undirected,
                             sublattice_action)

PHI = 1.6180339887


@pytest.fixture(scope="module")
def ladder24(ladder):
    t0 = time.perf_counter()
    wc = count_saws(ladder, n_max=24, workers=1)
    return wc, time.perf_counter() - t0


@pytest.fixture(scope="module")
def z2_12(z2):
    return count_saws(z2, n_max=12, workers=1)


@pytest.fixture(scope="module")
def aug_and_counts(z2):
    ga = augment(z2, (z2.origin(), (0, (1, 1))))
    return ga, count_saws(ga, n_max=12, workers=1)


@pytest.fixture(scope="module")
def sqoct10(sqoct):
    return count_saws(sqoct, n_max=10, workers=1)


@pytest.fixture(scope="module")
def cert_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("certs")
    return str(d / "cert.json"), str(d / "verify.txt")


def _fibs(n_max):
    f = [0, 1]
    while len(f) <= n_max + 1:
        f.append(f[-1] + f[-2])
    return f


def _at_least_phi_to_the(sigma_n: int, n: int, fib) -> bool:
    # sigma >= phi**n  <=>  2*sigma - 2*F(n-1) - F(n) >= F(n)*sqrt(5),
    # an integer-only test since phi**n = F(n)*phi + F(n-1)
    lhs = 2 * sigma_n - 2 * fib[n - 1] - fib[n]
    return lhs >= 0 and lhs * lhs >= 5 * fib[n] * fib[n]


def test_criterion_01_ladder_growth_vs_golden_ratio(ladder24):
    wc, elapsed = ladder24
    assert elapsed < 30.0
    fib = _fibs(24)
    for n in range(1, 25):
        assert _at_least_phi_to_the(wc.sigma(n), n, fib), n
    assert abs(wc.sigma(24) / wc.sigma(23) - PHI) < 0.02


def test_criterion_02_tree_closed_forms(q_tree_end):
    for deg in (3, 4):
        t = catalog(f"tree({deg})")
        wc = count_saws(t, n_max=20)
        assert list(wc.counts) == [1] + [deg * (deg - 1) ** (n - 1)
                                         for n in range(1, 21)]
        # the generic enumerator (no closed form) agrees at depth 12
        raw = count_saws(t, n_max=12, max_nodes=10 ** 9)
        assert not raw.truncated and raw.counts == wc.counts[:13]
    dw = count_directed_saws(q_tree_end, 20)
    assert list(dw.counts) == [1] + [2 ** n + 1 for n in range(1, 21)]
    assert abs(dw.a_float(20) - 2.0) < 0.05


def test_criterion_03_engine_matches_naive_oracle(z2, ladder, sqoct):
    t0 = time.perf_counter()
    for g in (z2, ladder, sqoct):
        assert list(count_saws(g, n_max=10).counts) == \
            naive_saw_counts(g, g.origin(), 10), g.graph_id
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_quotient_soundness(z1, z2, q_z2mod22, q_z2mod31,
                                         q_z1mod3, q_sqoct_ladder,
                                         q_tree_end):
    for q in (q_z2mod22, q_z2mod31):
        assert check_representative_independence(z2, q, radius=6)
    for q in (q_z1mod3, q_z2mod22, q_z2mod31, q_sqoct_ladder):
        assert check_symmetry(q, probe_radius=4), q.quotient_id
    assert not check_symmetry(q_tree_end, probe_radius=3)
    for k, want in ((1, 1), (2, 2), (3, 3), (4, 3), (7, 3)):
        q = build_quotient(z1, sublattice_action([[k]]))
        assert classify_type(q).type_ == want


def test_criterion_05_walk_count_bijection(q_z1mod3, q_z2mod22, q_z2mod31,
                                           q_sqoct_ladder, q_tree_end):
    for q in (q_z1mod3, q_z2mod22, q_z2mod31, q_sqoct_ladder, q_tree_end):
        base = count_walks(q.base, None, 8)
        assert count_directed_walks(q, 8) == base, q.quotient_id


def test_criterion_06_strict_inequalities_at_desk_scale(z2_12, q_z2mod22,
                                                        aug_and_counts):
    dw12 = count_directed_saws(q_z2mod22, 12)
    assert dw12.sigma(12) < z2_12.sigma(12)
    ga, aug12 = aug_and_counts
    assert aug12.sigma(1) == 6
    for n in range(1, 13):
        assert aug12.sigma(n) > z2_12.sigma(n), n


def test_criterion_07_quotient_isomorphic_to_ladder(q_sqoct_ladder, ladder,
                                                    sqoct10):
    h = derive_undirected(q_sqoct_ladder, keep_multiplicity=False)
    assert balls_isomorphic(h, h.origin(), ladder, ladder.origin(), 6)
    floor = Fraction(1804, 1000)
    for n in range(1, sqoct10.n_max + 1):
        assert sqoct10.a(n) >= floor, n        # exact radical comparison


def test_criterion_08_certificate_pipeline(cert_paths, capsys):
    cert_file, report_file = cert_paths
    code = run(["ratio", "--graph", "zd:1", "--sublattice", "3",
                "--mu-exact", "1", "--budget", "10", "--deterministic",
                "--out", cert_file])
    assert code == 0
    cert = RatioCertificate.load(cert_file)
    assert cert.status == "certified"
    assert cert.ratio_bound < 1.0
    assert float(cert.payload["parameters"]["ln_ratio_bound"]) < 0.0

    assert run(["verify", cert_file, "--out", report_file]) == 0
    assert open(report_file).read().startswith("verified: certified")
    rep = verify_certificate(cert)
    assert rep.ok and not any(l.startswith("FAIL") for l in rep.lines)

    # ground truth this certificate reflects: the directed quotient has
    # finitely many orbits (counts hit zero) while the line itself has
    # sigma_n = 2 for every n >= 1 (growth constant one)
    ds = [int(x) for x in cert.payload["counts"]["directed"]]
    assert all(c == 0 for c in ds[4:])
    z1 = catalog("zd(1)")
    assert list(count_saws(z1, n_max=20).counts) == [1] + [2] * 20
    capsys.readouterr()


def test_criterion_09_event_count_properties(q_z1mod3, q_z2mod22,
                                             q_sqoct_ladder):
    # threshold one dies instantly: the walk's own position triggers it
    for q in (q_z1mod3, q_z2mod22, q_sqoct_ladder):
        fam = build_cycle_family(q)
        series = event_free_series(q, fam, 1, 8)
        assert all(series[n] == 0 for n in range(1, 9)), q.quotient_id

    # submultiplicativity of the zero-occurrence series on a full grid
    fam4 = build_cycle_family(q_sqoct_ladder)
    for k in (1, 2, 3, 4):
        ef = event_free_series(q_sqoct_ladder, fam4, k, 16)
        for m in range(1, 9):
            for n in range(1, 9):
                assert ef[m + n] <= ef[m] * ef[n], (k, m, n)
    fam3 = build_cycle_family(q_z1mod3)
    ef = event_free_series(q_z1mod3, fam3, 3, 16)
    for m in range(1, 9):
        for n in range(1, 9):
            assert ef[m + n] <= ef[m] * ef[n], (m, n)

    # monotonicity over the same grid: relaxing r adds walks, widening
    # the window removes them (the unwindowed event is the widest)
    for n in range(1, 9):
        by_r = [count_with_events(q_sqoct_ladder, None, n, fam4, 3, None, r)
                for r in (0, 1, 2)]
        assert by_r == sorted(by_r), n
        by_m = [count_with_events(q_sqoct_ladder, None, n, fam4, 3, m, 0)
                for m in (0, 1, 2)]
        assert by_m == sorted(by_m, reverse=True), n
        assert count_with_events(
            q_sqoct_ladder, None, n, fam4, 3, None, 0) <= by_m[-1]


def test_criterion_10_worker_determinism(ladder, z2, sqoct, ladder24, z2_12,
                                         aug_and_counts, sqoct10, q_z1mod3,
                                         q_z2mod22, q_z2mod31, q_sqoct_ladder,
                                         q_tree_end, cert_paths):
    # every parallelizable computation behind criteria 1-9, redone with
    # eight workers, must reproduce the single-worker output bit for bit
    assert count_saws(ladder, n_max=24, workers=8).counts == \
        ladder24[0].counts
    assert count_saws(z2, n_max=12, workers=8).counts == z2_12.counts
    ga, aug12 = aug_and_counts
    assert count_saws(ga, n_max=12, workers=8).counts == aug12.counts
    assert count_saws(sqoct, n_max=10, workers=8).counts == sqoct10.counts
    for q in (q_z1mod3, q_z2mod22, q_z2mod31, q_sqoct_ladder, q_tree_end):
        assert count_directed_saws(q, 8, workers=8).counts == \
            count_directed_saws(q, 8, workers=1).counts
    assert bridge_counts(2, 10, workers=8) == bridge_counts(2, 10, workers=1)

    cert_file, _ = cert_paths
    stored = open(cert_file, "rb").read()
    again = str(cert_file) + ".w8"
    assert run(["ratio", "--graph", "zd:1", "--sublattice", "3",
                "--mu-exact", "1", "--budget", "10", "--deterministic",
                "--workers", "8", "--out", again]) == 0
    assert open(again, "rb").read() == stored
    # the walk/event dynamic programs take no worker knob; they are
    # single-pass and deterministic by construction
    payload = json.loads(stored)
    assert payload["status"] == "certified"
