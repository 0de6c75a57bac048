"""Exact arithmetic for growth-rate comparisons, plus outward-rounded floats.

Every growth estimate in this package is a number of the form

    (num/den) * rad**(1/idx)

with nonnegative integers num, den, rad, idx: n-th roots of exact walk
counts (num=den=1), rational constants (rad=1), square roots from degree
bounds, and products of these with rational margins.  Two such values can
be compared without floating point by raising both sides to the power
lcm(idx1, idx2) and comparing big integers; the :class:`Radical` class
packages exactly that.  All search-loop inequalities in the certificate
pipeline go through Radical comparisons, so they are exact.

Floating point enters only in the two contraction constants at the end of
the certificate computation.  Those are evaluated with :class:`Interval`,
a minimal outward-rounded interval type: every primitive pads its result
by one ulp per endpoint (two for transcendental functions, whose libm
error can exceed half an ulp), so a verdict "hi < 0" is conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# Radical: exact nonnegative numbers (num/den) * rad**(1/idx)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Radical:
    """Exact nonnegative value (num/den) * rad**(1/idx).

    Construct through the classmethods; they normalize so that
    ``den > 0``, ``gcd(num, den) == 1``, and degenerate radicals
    (rad in {0, 1} or idx == 1) are folded into the rational part.
    Equality and ordering are by value, via exact integer cross-powers.
    """

    num: int
    den: int
    rad: int
    idx: int

    # -- constructors -------------------------------------------------------

    @classmethod
    def make(cls, num: int, den: int, rad: int, idx: int) -> "Radical":
        if den == 0 or idx < 1:
            raise ValueError("Radical requires den != 0 and idx >= 1")
        if num < 0 or den < 0 or rad < 0:
            raise ValueError("Radical components must be nonnegative")
        if num == 0 or rad == 0:
            return cls(0, 1, 1, 1)
        if idx == 1 or rad == 1:
            num, rad = num * (rad if idx == 1 else 1), 1
            idx = 1
        g = math.gcd(num, den)
        return cls(num // g, den // g, rad, idx)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Radical":
        q = Fraction(q)
        return cls.make(q.numerator, q.denominator, 1, 1)

    @classmethod
    def nth_root(cls, x: int, n: int) -> "Radical":
        """The exact value x**(1/n) for an integer count x >= 0."""
        return cls.make(1, 1, x, n)

    # -- arithmetic ---------------------------------------------------------

    def scaled(self, q: Fraction | int) -> "Radical":
        """Exact product with a nonnegative rational."""
        if type(q) is not Fraction:  # re-wrapping was much of a replay
            q = Fraction(q)
        if q.numerator < 0:
            raise ValueError("Radical is nonnegative-only")
        return Radical.make(self.num * q.numerator, self.den * q.denominator,
                            self.rad, self.idx)

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other: "Radical") -> int:
        e = math.lcm(self.idx, other.idx)
        lhs = self.num ** e * self.rad ** (e // self.idx) * other.den ** e
        rhs = other.num ** e * other.rad ** (e // other.idx) * self.den ** e
        return (lhs > rhs) - (lhs < rhs)

    def _coerce(self, other) -> "Radical":
        if isinstance(other, Radical):
            return other
        if isinstance(other, (int, Fraction)):
            return Radical.from_fraction(other)
        return NotImplemented

    def __lt__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) < 0

    def __le__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) <= 0

    def __gt__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) > 0

    def __ge__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) >= 0

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self._cmp(other) == 0

    # Equality is by value (cross-power comparison), but a matching hash
    # would need the canonical radical form, and extracting it means
    # factoring arbitrarily large counts.  Unhashable keeps the hash/eq
    # contract honest; use sorted sequences instead of sets.
    __hash__ = None

    # -- conversions --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def log(self) -> float:
        """Natural log of the value as a float; -inf for zero."""
        if self.num == 0:
            return float("-inf")
        return (math.log(self.num) - math.log(self.den)
                + (math.log(self.rad) / self.idx if self.rad > 1 else 0.0))

    def __float__(self) -> float:
        if self.num == 0:
            return 0.0
        try:
            return self.num / self.den * self.rad ** (1.0 / self.idx)
        except OverflowError:
            return math.exp(self.log())

    def to_json(self) -> dict:
        return {"num": str(self.num), "den": str(self.den),
                "rad": str(self.rad), "idx": self.idx}

    @classmethod
    def from_json(cls, d: dict) -> "Radical":
        return cls.make(int(d["num"]), int(d["den"]), int(d["rad"]), int(d["idx"]))

    def __repr__(self):
        if self.idx == 1:
            return f"Radical({self.num}/{self.den})"
        return f"Radical({self.num}/{self.den}*{self.rad}^(1/{self.idx}))"


# ---------------------------------------------------------------------------
# Outward-rounded interval floats
# ---------------------------------------------------------------------------

_INF = float("inf")


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


@dataclass(frozen=True)
class Interval:
    """Closed float interval [lo, hi] with outward rounding on every op.

    Arithmetic pads each endpoint by one ulp (two after log/exp, whose
    libm implementations are not guaranteed correctly rounded), so the
    true real result is always contained.  Only the operations the
    certificate evaluation needs are provided.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Interval":
        q = Fraction(q)
        x = q.numerator / q.denominator
        return cls(_dn(x), _up(x))

    @classmethod
    def from_int(cls, n: int) -> "Interval":
        x = float(n)
        if int(x) == n:  # exactly representable
            return cls(x, x)
        return cls(_dn(x), _up(x))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo + other.lo), _up(self.hi + other.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(_dn(min(cands)), _up(max(cands)))

    def div_int(self, n: int) -> "Interval":
        if n <= 0:
            raise ValueError("div_int wants a positive integer")
        return Interval(_dn(self.lo / n), _up(self.hi / n))

    def recip(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("recip needs a strictly positive interval")
        return Interval(_dn(1.0 / self.hi), _up(1.0 / self.lo))

    def log(self) -> "Interval":
        if self.lo <= 0:
            raise ValueError("log needs a strictly positive interval")
        return Interval(_dn(_dn(math.log(self.lo))), _up(_up(math.log(self.hi))))

    def log1p(self) -> "Interval":
        if self.lo <= -1:
            raise ValueError("log1p needs lo > -1")
        return Interval(_dn(_dn(math.log1p(self.lo))), _up(_up(math.log1p(self.hi))))

    def exp(self) -> "Interval":
        return Interval(_dn(_dn(math.exp(self.lo))), _up(_up(math.exp(self.hi))))

    def pow_int(self, k: int) -> "Interval":
        """self**k for nonnegative self and k >= 1."""
        if k < 1:
            raise ValueError("pow_int wants k >= 1")
        if self.lo < 0:
            raise ValueError("pow_int needs a nonnegative interval")
        return Interval(_dn(self.lo ** k), _up(self.hi ** k))

    def scale_int(self, n: int) -> "Interval":
        """self * n for a nonnegative integer n (exactly representable or padded)."""
        return self * Interval.from_int(n)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"


def log_of_count_root(count: int, n: int) -> Interval:
    """Outward interval for ln(count**(1/n)) = ln(count)/n, count >= 1."""
    if count < 1 or n < 1:
        raise ValueError("log_of_count_root wants count >= 1, n >= 1")
    ln = Interval(_dn(_dn(math.log(count))), _up(_up(math.log(count))))
    return ln.div_int(n)


def float_repr(x: float) -> str:
    """17-significant-digit decimal string (round-trips any float)."""
    return format(x, ".17g")
