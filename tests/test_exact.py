"""Exact algebraic numbers (Radical) and outward-rounded intervals.

The Radical comparisons must be exact for the search layer to be
trustworthy; the Interval operations must *contain* the true result for
the contraction layer to be sound.  Containment is checked against
rational arithmetic and against correctly-rounded double constants.
"""

import math
from fractions import Fraction

import pytest

from sawkit.exact import Interval, Radical, float_repr, log_of_count_root


# ---------------------------------------------------------------------------
# Radical
# ---------------------------------------------------------------------------

def test_radical_orders_basic_roots():
    r2 = Radical.nth_root(2, 2)
    r3 = Radical.nth_root(3, 3)
    assert r2 < r3                      # 2^3 = 8 < 9 = 3^2
    assert r3 > r2
    assert not r2 < r2
    assert r2 <= r2 and r2 >= r2


def test_radical_equality_across_representations():
    assert Radical.nth_root(8, 3) == Radical.from_fraction(2)
    assert Radical.nth_root(4, 2) == Radical.from_fraction(2)
    assert Radical.nth_root(2, 2).scaled(2) == Radical.nth_root(8, 2)
    # value-equality across representations is why Radical is unhashable
    with pytest.raises(TypeError):
        hash(Radical.nth_root(4, 2))


def test_radical_rational_comparisons():
    phi_low = Radical.from_fraction(Fraction(16180, 10001))
    assert Radical.nth_root(2, 2) < Radical.from_fraction(Fraction(3, 2))
    assert Radical.nth_root(5, 2) > Radical.from_fraction(2)
    assert phi_low < Radical.from_fraction(3)


def test_radical_scaled_is_exact():
    x = Radical.nth_root(2, 2).scaled(Fraction(3, 7))
    y = Radical.nth_root(2 * 3**2 * 7**0, 2)   # sqrt(18)/7
    assert x == Radical.nth_root(18, 2).scaled(Fraction(1, 7))
    assert float(x) == pytest.approx(3 / 7 * math.sqrt(2))
    assert y > x


def test_radical_zero():
    z = Radical.nth_root(0, 5)
    assert z.num == 0
    assert z < Radical.from_fraction(Fraction(1, 10**9))
    assert not z < z
    assert float(z) == 0.0
    assert z.log() == float("-inf")


def test_radical_log_and_float():
    r = Radical.nth_root(44100, 10)
    assert float(r) == pytest.approx(44100 ** 0.1)
    assert r.log() == pytest.approx(math.log(44100) / 10)


def test_radical_json_round_trip():
    for r in (Radical.from_fraction(Fraction(22, 7)), Radical.nth_root(123456789, 7),
              Radical.nth_root(2, 2).scaled(Fraction(5, 3)),
              Radical.nth_root(0, 3)):
        assert Radical.from_json(r.to_json()) == r


def test_radical_big_counts_compare_exactly():
    # 17-digit counts where float comparison would tie
    a = Radical.nth_root(10**17 + 1, 12)
    b = Radical.nth_root(10**17, 12)
    assert b < a
    assert not a < b


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

def _contains(iv: Interval, exact: Fraction) -> bool:
    return Fraction(iv.lo) <= exact <= Fraction(iv.hi)


def test_interval_from_fraction_contains():
    for q in (Fraction(1, 3), Fraction(22, 7), Fraction(-5, 9),
              Fraction(10**40, 3)):
        assert _contains(Interval.from_fraction(q), q)


def test_interval_field_ops_contain_rational_result():
    a, b = Fraction(1, 3), Fraction(-7, 11)
    ia, ib = Interval.from_fraction(a), Interval.from_fraction(b)
    assert _contains(ia + ib, a + b)
    assert _contains(ia - ib, a - b)
    assert _contains(ia * ib, a * b)
    c = Fraction(22, 7)
    assert _contains(Interval.from_fraction(c).recip(), 1 / c)
    assert _contains(ia.div_int(7), a / 7)
    assert _contains(ia.scale_int(-3), a * -3)
    assert _contains(ia.pow_int(5), a ** 5)
    assert _contains(-ia, -a)


def test_interval_log_exp_contain_true_value():
    ln2 = 0.6931471805599453          # correctly rounded double of ln 2
    iv = Interval.from_int(2).log()
    assert iv.lo <= ln2 <= iv.hi
    assert iv.hi - iv.lo < 1e-14
    e1 = Interval.point(1.0).exp()
    assert e1.lo <= math.e <= e1.hi
    l1p = Interval.point(1.0).log1p()
    assert l1p.lo <= ln2 <= l1p.hi


def test_interval_outward_never_inverts():
    iv = Interval.point(1e-300)
    for _ in range(50):
        iv = iv * Interval.point(1.0000001)
    assert iv.lo <= iv.hi
    assert iv.lo > 0


def test_log_of_count_root():
    iv = log_of_count_root(8, 3)
    assert iv.lo <= 0.6931471805599453 <= iv.hi
    # 120-digit count: must not overflow
    big = 10 ** 120
    iv2 = log_of_count_root(big, 10)
    assert iv2.lo <= 12 * math.log(10) <= iv2.hi


def test_float_repr_round_trips():
    for x in (0.1, 1.0, -2.5e-300, 3.141592653589793, 1e308, -0.0):
        assert float(float_repr(x)) == x
