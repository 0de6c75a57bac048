"""Cycle families and pattern-event counting against the frozen oracles."""

import pytest

from frozen_events import EVENTS_Z1MOD3
from oracles import naive_event_count, naive_family_sets
from sawkit.events import (EventParameterError, build_cycle_family,
                           build_event_profile, count_with_events,
                           event_free_series, event_series, lambda_upper)
from sawkit.exact import Radical

# [frozen]
EV22_0E2 = [1, 0, 0, 0, 0, 0, 0]
EVSQOCT_0E4_8 = [1, 3, 6, 10, 16, 23, 36, 55, 82]


def test_family_z1mod3(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    assert fam.length == 3
    whole = frozenset(q_z1mod3.orbits)
    for o in q_z1mod3.orbits:
        assert fam.sets_at(o) == (whole,)
        assert fam.sets_at(o) == tuple(sorted(
            naive_family_sets(q_z1mod3, 3, o), key=sorted))


def test_family_z2mod22(q_z2mod22):
    fam = build_cycle_family(q_z2mod22)
    assert fam.length == 2
    for o in q_z2mod22.orbits:
        assert frozenset(fam.sets_at(o)) == naive_family_sets(q_z2mod22, 2, o)
        # two 2-cycles through each orbit, both containing it
        assert len(fam.sets_at(o)) == 2
        assert all(o in s and len(s) == 2 for s in fam.sets_at(o))


def test_family_sqoct_ladder(q_sqoct_ladder):
    fam = build_cycle_family(q_sqoct_ladder)
    o0 = q_sqoct_ladder.origin_orbit()
    assert fam.length == 4
    assert frozenset(fam.sets_at(o0)) == naive_family_sets(
        q_sqoct_ladder, 4, o0)
    assert len(fam.sets_at(o0)) == 1


def test_event_grid_z1mod3(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    for (n, k, m, r), want in EVENTS_Z1MOD3.items():
        got = count_with_events(q_z1mod3, None, n, fam, k, m, r)
        assert got == want, (n, k, m, r)


def test_event_free_series_matches_frozen(q_z2mod22, q_sqoct_ladder):
    fam22 = build_cycle_family(q_z2mod22)
    assert event_free_series(q_z2mod22, fam22, 2, 6) == EV22_0E2
    fam4 = build_cycle_family(q_sqoct_ladder)
    assert event_free_series(q_sqoct_ladder, fam4, 4, 8) == EVSQOCT_0E4_8


def test_event_free_series_is_the_r0_column(q_sqoct_ladder):
    fam = build_cycle_family(q_sqoct_ladder)
    series = event_free_series(q_sqoct_ladder, fam, 3, 6)
    for n in range(7):
        assert series[n] == count_with_events(
            q_sqoct_ladder, None, n, fam, 3, None, 0)
        assert series[n] == naive_event_count(
            q_sqoct_ladder, fam.sets_at, n, 3, None, 0)


@pytest.mark.parametrize("name", ["q_z1mod3", "q_z2mod22", "q_sqoct_ladder",
                                  "q_tree_end"])
def test_event_series_matches_naive_oracle(name, request):
    q = request.getfixturevalue(name)
    fam = build_cycle_family(q)
    for k in range(1, fam.length + 1):
        for m in (None, 0, 1, 2, 3):
            for r in (0, 1, 2):
                want = [naive_event_count(q, fam.sets_at, n, k, m, r)
                        for n in range(8)]
                assert event_series(q, fam, k, 7, m, r) == want, (k, m, r)


def test_monotone_in_allowance_and_window(q_sqoct_ladder):
    fam = build_cycle_family(q_sqoct_ladder)
    n = 6
    for k in (2, 3, 4):
        by_r = [count_with_events(q_sqoct_ladder, None, n, fam, k, None, r)
                for r in range(4)]
        assert by_r == sorted(by_r)          # relaxing r can only add walks
        by_m = [count_with_events(q_sqoct_ladder, None, n, fam, k, m, 0)
                for m in (0, 1, 2, 4)]
        assert by_m == sorted(by_m, reverse=True)   # widening m removes walks
        unwindowed = count_with_events(q_sqoct_ladder, None, n, fam, k, None, 0)
        assert unwindowed <= by_m[-1]        # the unwindowed event is widest
    # threshold monotonicity: higher k is harder to trigger
    by_k = [count_with_events(q_sqoct_ladder, None, n, fam, k, None, 0)
            for k in (1, 2, 3, 4)]
    assert by_k == sorted(by_k)


def test_parameter_validation(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    with pytest.raises(EventParameterError):
        count_with_events(q_z1mod3, None, 2, fam, 0, None, 0)
    with pytest.raises(EventParameterError):
        count_with_events(q_z1mod3, None, 2, fam, 4, None, 0)   # k > length
    with pytest.raises(EventParameterError):
        count_with_events(q_z1mod3, None, 2, fam, 2, -1, 0)
    with pytest.raises(EventParameterError):
        count_with_events(q_z1mod3, None, 2, fam, 2, None, -1)
    with pytest.raises(ValueError):
        event_free_series(q_z1mod3, fam, 2, -1)
    with pytest.raises(EventParameterError):
        event_series(q_z1mod3, fam, 2, 3, m=-1, r=1)
    with pytest.raises(EventParameterError):
        event_series(q_z1mod3, fam, 2, 3, m=1, r=-1)
    with pytest.raises(ValueError):
        event_series(q_z1mod3, fam, 2, -1, m=1, r=1)
    with pytest.raises(ValueError):
        count_with_events(q_z1mod3, None, -1, fam, 2, 1, 1)
    with pytest.raises(EventParameterError):
        build_cycle_family(q_z1mod3, radius=2)      # cap below cycle length


def test_lambda_upper(q_sqoct_ladder):
    fam = build_cycle_family(q_sqoct_ladder)
    lam = lambda_upper(q_sqoct_ladder, fam, 4, 8)
    assert lam == Radical.nth_root(82, 8)
    assert 1.7 < float(lam) < 1.75
    with pytest.raises(ValueError):
        lambda_upper(q_sqoct_ladder, fam, 4, 0)


def test_event_profile(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    prof = build_event_profile(q_z1mod3, fam, n_max=4, ms=(None, 0, 1, 2, 3),
                               rs=(0, 1, 2))
    assert prof.cycle_length == 3 and prof.n_max == 4
    for (n, k, m, r), want in EVENTS_Z1MOD3.items():
        assert prof.count(n, k, m, r) == want
    # growth estimates cover every threshold and depth
    keys = {kn for kn, _ in prof.lambdas}
    assert keys == {(k, n) for k in (1, 2, 3) for n in range(1, 5)}
    with pytest.raises(KeyError):
        prof.count(5, 1, None, 0)


def test_event_profile_enumerates_once_per_k(q_sqoct_ladder, monkeypatch):
    import sawkit.events as events

    fam = build_cycle_family(q_sqoct_ladder)
    ks = range(1, fam.length + 1)
    free = {k: event_free_series(q_sqoct_ladder, fam, k, 8) for k in ks}
    grid = tuple(sorted(((n, k, -1, 0), free[k][n])
                        for k in ks for n in range(9)))
    lambdas = tuple(((k, n), Radical.nth_root(free[k][n], n))
                    for k in ks for n in range(1, 9))

    calls = []

    def counted(q, family, k, n_max, start=None, workers=None):
        calls.append(k)
        return event_free_series(q, family, k, n_max, start=start,
                                 workers=workers)

    monkeypatch.setattr(events, "event_free_series", counted)
    prof = build_event_profile(q_sqoct_ladder, fam, 8)
    assert calls == list(ks)
    assert prof.grid == grid and prof.lambdas == lambdas
    # without the unwindowed zero-occurrence column the roots still come
    # from one enumeration per threshold
    calls.clear()
    prof = build_event_profile(q_sqoct_ladder, fam, 4, ms=(1,))
    assert calls == list(ks)
    assert prof.lambdas == tuple(((k, n), Radical.nth_root(free[k][n], n))
                                 for k in ks for n in range(1, 5))
