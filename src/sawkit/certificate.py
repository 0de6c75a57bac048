"""Finite-time ratio certificates: a machine-checkable witness that the
quotient's growth constant is strictly below the base graph's.

The pipeline has three stages.

1. *Search* (exact integer arithmetic): find the earliest decay index r
   where the zero-occurrence growth root drops below the lower bound
   shrunk by (1 - 1/r); set the margin to 1/r; find the earliest
   agreement index s >= r where the inflated lower bound overtakes the
   inflated upper estimate; find the earliest block length m whose
   zero-occurrence and directed roots fit under the margin-adjusted
   bound at s.  Every probe is recorded as a check with its exact
   verdict; exhausting the budget is an *inconclusive* value, not an
   error.

2. *Contraction constants* (outward-rounded interval floats): take the
   split fraction at the left end of its domain, where the block entropy
   factor is least (:func:`compute_R`), verify the factor below one with
   intervals, and derive the per-step ratio bound R.  Separately bound
   the rewiring ratio S through the occurrence density, the rewiring
   exponent kappa and the rewiring weight Z.  Both verdicts are taken in
   log space: S is routinely within a few ulps of 1, where only
   ln S < 0 is a trustworthy comparison.

3. *Certificate* (JSON): all parameters, all raw integer counts (as
   decimal strings), every check, and the final bound
   ratio_bound = max(R, S) < 1.  :func:`verify_certificate` replays the
   whole chain from the stored integers and interval arithmetic alone —
   no graph enumeration — and must reproduce every record and the
   claimed status.

Each inequality is written once, as an entry of the check table
``_CHECKS``: its method, the :class:`_Inputs` it reads, and its formula.
The producer and the verifier evaluate checks only through it, and each
search is one :class:`_Search` shared by the producer and the verifier's
earliest-index check.  Likewise each stored float parameter is an entry
of ``_FLOAT_PARAMETERS``, the chain value it repeats: the producer
writes the entries and the verifier replays them.  The search fills
one :class:`_Inputs` with the counts it reads (:func:`find_epsilon_m`);
:func:`certify_ratio` builds a second from the search outcome's counts
and runs the contraction stages and the certificate on it.  The split
fraction is a stored input, and the verifier replays any stored value in
(0, 1).

A display caveat: ``ratio_bound`` is exp(``ln_ratio_bound``) and can
round to exactly "1" when the margin under one is below float
resolution (S is often 1 - O(1e-15)).  The authoritative strict
inequality is always ``ln_ratio_bound < 0``; consumers comparing
``ratio_bound < 1`` must fall back to the log field.

The substituted upper bound for the base growth constant inside Z is the
exact root of the largest computed undirected count; enlarging that
constant only enlarges Z and weakens S, never invalidates it.  The
uniform worst-case rewiring exponent is applied for every classification
type; no sharper type-1 constant is attempted.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from functools import wraps
from typing import Callable, Optional

from .bounds import BoundError, LowerBoundSequence
from .counting import (_orbit_split, _series_split, count_directed_saws,
                       count_saws)
from .events import CycleFamily, event_free_series
from .exact import Interval, Radical, float_repr, log_of_count_root
from .graphs import GraphHandle
from .quotient import QuotientGraph

CERT_FORMAT = "saw-ratio-certificate"
CERT_VERSION = 1

_SLACK = Fraction(10 ** 9 + 1, 10 ** 9)       # multiplicative 1 + 1e-9
_LN_SLACK = Interval.from_fraction(_SLACK).log()
_NEG_INF = Interval(float("-inf"), float("-inf"))
_ZETA_LO = 1e-9
_REPLAY_RTOL = 1e-12
# a count's predicted nodes, at most, per node spent before it; no count
# goes deeper, so a count past the agreement index wastes at most this
# many times the nodes of the counts before it
_JUMP_COST = 16
# the stored parameters, in their order in the certificate
_PARAMETERS = ("decay_index", "margin", "agreement_index", "block_length",
               "split_fraction", "block_factor", "occurrence_density",
               "entropy_ratio", "ln_entropy_ratio", "rewiring_exponent",
               "rewiring_weight", "rewiring_fraction", "rewiring_ratio",
               "ln_rewiring_ratio", "mu_upper_index", "mu_upper",
               "ratio_bound", "ln_ratio_bound")


class CertificateError(Exception):
    """Certificate pipeline misuse (wrong graph pairing, bad arguments)."""


class NoContractionError(Exception):
    """The entropy factor does not drop below one at these parameters."""


# ---------------------------------------------------------------------------
# Check records
# ---------------------------------------------------------------------------

class _Plain:
    """Equality and repr over ``__slots__``: a plain base class for the
    result records, because each dataclass costs every import of this
    module about 0.7 ms."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and \
            other._values() == self._values()

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


class CheckRecord(_Plain):
    """One recorded inequality: what was compared, how, and the verdict.

    ``lhs``/``rhs`` are the two sides as the check's table entry formats
    them; ``method`` is "exact-root" or "interval-log"; ``aux`` holds an
    input stored on the record itself (the split fraction a factor check
    was evaluated at), as sorted (key, value-string) pairs.
    """

    __slots__ = ("name", "index", "lhs", "rhs", "holds", "method", "aux")

    def __init__(self, name: str, index: int, lhs: str, rhs: str,
                 holds: bool, method: str, aux: tuple = ()):
        self.name, self.index, self.lhs, self.rhs = name, index, lhs, rhs
        self.holds, self.method, self.aux = holds, method, aux

    def to_json(self) -> dict:
        d = {"name": self.name, "index": self.index, "lhs": self.lhs,
             "rhs": self.rhs, "holds": self.holds, "method": self.method}
        if self.aux:
            d["aux"] = dict(self.aux)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "CheckRecord":
        """The record of a JSON object; a TypeError unless ``index`` is an
        integer (not a boolean) and ``holds`` a boolean."""
        aux = d.get("aux")
        index, holds = d["index"], d["holds"]
        if type(index) is not int or type(holds) is not bool:
            raise TypeError("index must be an integer and holds a boolean")
        return cls(d["name"], index, d["lhs"], d["rhs"], holds, d["method"],
                   tuple(sorted(aux.items())) if aux else ())


def _fmt_radical(x: Radical) -> str:
    if x.idx == 1:
        return f"{x.num}/{x.den}" if x.den != 1 else str(x.num)
    head = "" if (x.num == 1 and x.den == 1) else f"({x.num}/{x.den})*"
    return f"{head}{x.rad}^(1/{x.idx})"


# ---------------------------------------------------------------------------
# The check table
# ---------------------------------------------------------------------------

def _density(zeta: float, m: int) -> Interval:
    """The occurrence density zeta / (2m), outward."""
    return Interval.point(zeta).div_int(2 * m)


def _upper_root(us, n0: int) -> Interval:
    """Outward interval for us[n0]**(1/n0), the upper estimate of the
    base growth constant inside the rewiring weight."""
    return log_of_count_root(us[n0], n0).exp()


def _step(fn: Callable) -> Callable:
    """An interval step, evaluated once per inputs and index: several
    checks and stored parameters read each step."""
    @wraps(fn)
    def once(self, n):
        if (fn, n) not in self.memo:
            self.memo[fn, n] = fn(self, n)
        return self.memo[fn, n]
    return once


class _Inputs:
    """What the checks read: the zero-occurrence, directed and undirected
    counts ``ef``, ``ds`` and ``us``, the lower-bound table ``bound``, the
    margin ``eps``, the agreement index ``s``, the split fraction
    ``zeta`` of the block the chain is evaluated at, its occurrence
    density ``a_iv``, the upper root ``mu_upper``, the ``degree`` and the
    cycle length ``ell``.  The producer fills it in as it goes and the
    verifier rebuilds it from a payload; a memoized step's inputs are set
    before it is read.  A plain class, because a dataclass costs every
    import of this module about 0.45 ms more."""

    ef = ds = us = ()
    bound = eps = s = zeta = a_iv = mu_upper = None
    degree = ell = 0

    def __init__(self, **inputs):
        self.__dict__.update(inputs)
        self.memo = {}

    @_step
    def lift(self, k: int) -> Fraction:
        """1 + k*eps/2: k = 2, 1 and -2 give the margin factors 1 + eps,
        1 + eps/2 and 1 - eps, made once as Fraction arithmetic is a
        large part of a replay."""
        return 1 + k * self.eps / 2

    @_step
    def ln_entropy(self, m: int) -> Interval:
        """ln g, the block entropy factor at the split fraction zeta: the
        binary entropy of zeta plus the margin-ratio and shrink terms."""
        zi = Interval.point(self.zeta)
        omz = Interval.point(1.0) - zi
        ent = (-(zi * zi.log())) + (-(omz * omz.log()))
        ratio = (1 + self.eps) / (1 - self.eps)
        margin_term = (zi * Interval.from_fraction(ratio).log()).scale_int(m)
        shrink_term = Interval.from_fraction(1 - self.eps).log().scale_int(m)
        return ent + margin_term + shrink_term

    @_step
    def ln_block(self, m: int) -> Interval:
        """ln t = ln g + ln(1 + 1e-9)."""
        return self.ln_entropy(m) + _LN_SLACK

    @_step
    def kappa(self, m: int) -> Interval:
        """The rewiring exponent a / ((2m+2) * degree**(2*ell+1))."""
        return self.a_iv.div_int((2 * m + 2)
                                 * self.degree ** (2 * self.ell + 1))

    @_step
    def rewiring(self, m: int) -> tuple:
        """(Z, ln f, ln S): Z = 2*ell * mu_upper**(2*ell) times the
        directed counts 1..2m, f = Z/(1+Z) and S = f**kappa.

        With no directed SAW up to 2m, Z is 0 and S exactly 0: ln f and
        ln S are -inf, without the interval arithmetic that would give
        inf - inf.
        """
        if len(self.ds) < 2 * m + 1:
            raise IndexError(f"directed counts up to {2 * m} required")
        ssum = sum(self.ds[1:2 * m + 1])
        if ssum == 0:
            return Interval.point(0.0), _NEG_INF, _NEG_INF
        Z = self.mu_upper.pow_int(2 * self.ell).scale_int(2 * self.ell) \
            * Interval.from_int(ssum)
        ln_f = -(Z.recip().log1p())
        return Z, ln_f, self.kappa(m) * ln_f

    @_step
    def ln_R(self, m: int) -> Interval:
        """ln R = ln t / m, the per-step entropy ratio."""
        return self.ln_block(m).div_int(m)

    def ln_final(self, m: int) -> float:
        """Upper endpoint of ln max(R, S)."""
        return max(self.ln_R(m).hi, self.rewiring(m)[2].hi)


_EXACT, _INTERVAL = "exact-root", "interval-log"
_FORMAT = {_EXACT: _fmt_radical, _INTERVAL: float_repr}
_SPLIT = "aux.split_fraction"     # read from, and stored on, the record


class _Check:
    """A table entry: the method, the :class:`_Inputs` fields it reads,
    the comparison, and the formula (inputs, index) -> (lhs, rhs).  Not
    a named tuple, whose class costs each import about 0.15 ms."""

    __slots__ = ("method", "reads", "holds", "sides")

    def __init__(self, method: str, reads: tuple, holds: Callable,
                 sides: Callable):
        self.method, self.reads, self.holds, self.sides = \
            method, reads, holds, sides


_CHECKS = {
    "event_decay": _Check(
        _EXACT, ("ef", "bound"), operator.lt,
        lambda x, n: (Radical.nth_root(x.ef[n], n),
                      x.bound.value_at(n).scaled(Fraction(n - 1, n)))),
    "bound_agreement": _Check(
        _EXACT, ("us", "bound", "eps"), operator.ge,
        lambda x, n: (x.bound.value_at(n).scaled(x.lift(2)),
                      Radical.nth_root(x.us[n], n).scaled(x.lift(1)))),
    "block_event_decay": _Check(
        _EXACT, ("ef", "bound", "s", "eps"), operator.lt,
        lambda x, n: (Radical.nth_root(x.ef[n], n),
                      x.bound.value_at(x.s).scaled(x.lift(-2)))),
    "block_growth": _Check(
        _EXACT, ("ds", "bound", "s", "eps"), operator.le,
        lambda x, n: (Radical.nth_root(x.ds[n], n),
                      x.bound.value_at(x.s).scaled(x.lift(2)))),
    "entropy_factor": _Check(_INTERVAL, ("eps", _SPLIT), operator.lt,
                             lambda x, n: (x.ln_entropy(n).hi, 0.0)),
    "block_factor": _Check(_INTERVAL, ("eps", _SPLIT), operator.lt,
                           lambda x, n: (x.ln_block(n).hi, 0.0)),
    "rewiring_exponent_positive": _Check(
        _INTERVAL, ("a_iv", "degree", "ell"), operator.gt,
        lambda x, n: (x.kappa(n).lo, 0.0)),
    "rewiring_factor": _Check(
        _INTERVAL, ("ds", "mu_upper", "ell"), operator.lt,
        lambda x, n: (x.rewiring(n)[1].hi, 0.0)),
    "rewiring_contraction": _Check(
        _INTERVAL, ("ds", "mu_upper", "a_iv", "degree", "ell"), operator.lt,
        lambda x, n: (x.rewiring(n)[2].hi, 0.0)),
    "final_ratio": _Check(
        _INTERVAL, ("eps", "zeta", "ds", "mu_upper", "a_iv", "degree", "ell"),
        operator.lt, lambda x, n: (x.ln_final(n), 0.0)),
}
_REWIRING = ("rewiring_exponent_positive", "rewiring_factor",
             "rewiring_contraction")
# the stored float parameters, each the chain value at the block length
# m that it repeats: certify writes them and verify replays them
_FLOAT_PARAMETERS = {
    "split_fraction": lambda x, m: x.zeta,
    "block_factor": lambda x, m: math.exp(x.ln_block(m).hi),
    "occurrence_density": lambda x, m: x.zeta / (2 * m),
    "entropy_ratio": lambda x, m: math.exp(x.ln_R(m).hi),
    "ln_entropy_ratio": lambda x, m: x.ln_R(m).hi,
    "rewiring_exponent": lambda x, m: x.kappa(m).lo,
    "rewiring_weight": lambda x, m: x.rewiring(m)[0].hi,
    # the minimizing rewiring fraction 1/(1+Z)
    "rewiring_fraction": lambda x, m: 1.0 / (1.0 + x.rewiring(m)[0].hi),
    "rewiring_ratio": lambda x, m: math.exp(x.rewiring(m)[2].hi),
    "ln_rewiring_ratio": lambda x, m: x.rewiring(m)[2].hi,
    "mu_upper": lambda x, m: x.mu_upper.hi,
    "ratio_bound": lambda x, m: math.exp(x.ln_final(m)),
    "ln_ratio_bound": _Inputs.ln_final,
}


def _record(name: str, x: _Inputs, n: int) -> CheckRecord:
    """The record of check ``name`` at index n, evaluated on x."""
    check = _CHECKS[name]
    lhs, rhs = check.sides(x, n)
    fmt = _FORMAT[check.method]
    aux = (("split_fraction", float_repr(x.zeta)),) \
        if _SPLIT in check.reads else ()
    return CheckRecord(name, n, fmt(lhs), fmt(rhs), check.holds(lhs, rhs),
                       check.method, aux)


class _Search:
    """An earliest-index search: what the index is called, the parameter
    that stores it, the parameter it starts at (None: 1), the checks
    probed at each candidate (a candidate holds when all of them do), and
    the checks a holding candidate must then pass too, else the search
    moves on.  A plain class for the reason :class:`_Check` is one."""

    __slots__ = ("what", "param", "start", "names", "then")

    def __init__(self, what: str, param: str, start: Optional[str],
                 names: tuple, then: tuple = ()):
        self.what, self.param, self.start, self.names, self.then = \
            what, param, start, names, then


_DECAY = _Search("decay index", "decay_index", None, ("event_decay",))
_AGREEMENT = _Search("agreement index", "agreement_index", "decay_index",
                     ("bound_agreement",))
_BLOCK = _Search("block length", "block_length", None,
                 ("block_event_decay", "block_growth"),
                 ("entropy_factor", "block_factor"))
# the records a certified status rests on, all at the block length
_CHAIN = _BLOCK.then + _REWIRING + ("final_ratio",)


def _first_hold(search: _Search, x: _Inputs, lo: int, hi: int, checks: list,
                prepare: Optional[Callable] = None) -> Optional[int]:
    """The first n in lo..hi at which every check of ``search`` holds on
    x, or None; each probe's records are appended to ``checks``, and
    ``prepare(n)`` runs before the probe at n."""
    for n in range(lo, hi + 1):
        if prepare is not None:
            prepare(n)
        recs = [_record(name, x, n) for name in search.names]
        checks.extend(recs)
        if all(rec.holds for rec in recs):
            return n
    return None


# ---------------------------------------------------------------------------
# Stage 1: exact searches
# ---------------------------------------------------------------------------

class SearchOutcome(_Plain):
    """Result of the three exact searches ("found" or "exhausted", and
    why) plus everything needed to replay them: the integer series
    actually consumed and the bound entries actually compared."""

    __slots__ = ("status", "reason", "r", "epsilon", "s", "m", "checks",
                 "event_free", "directed", "undirected")

    def __init__(self, status: str, reason: Optional[str], r: Optional[int],
                 epsilon: Optional[Fraction], s: Optional[int],
                 m: Optional[int], checks=(), event_free=(), directed=(),
                 undirected=()):
        self.status, self.reason, self.r, self.epsilon, self.s, self.m = \
            status, reason, r, epsilon, s, m
        self.checks, self.event_free, self.directed, self.undirected = \
            list(checks), list(event_free), list(directed), list(undirected)


def _agreement_target(us: list, b: LowerBoundSequence, eps: Fraction,
                      lo: int, hi: int, spent: int) -> int:
    """The depth in lo..hi that the agreement search counts to next,
    holding the undirected counts ``us`` and having expanded ``spent``
    nodes so far.

    sigma_n is extrapolated from the last count step by step.  The ratio
    of step n is mu * (1 + c/n), the form of sigma_n ~ A mu**n n**(g-1),
    with mu and c fitted to the parity-averaged ratios
    sqrt(sigma_k / sigma_{k-2}) and sqrt(sigma_{k-2} / sigma_{k-4}),
    taken as the ratios of steps k - 1/2 and k - 5/2.  The fit needs
    k >= 5, so that it never reads sigma_1 / sigma_0 = degree, which is
    no step of the trend: every later step has at most degree - 1
    choices.  Where it cannot be made, or the ratios do not fall as such
    a law allows, every step takes the last parity-averaged ratio, which
    overshoots where the ratios fall (on ladder/3 at mu 1.61 it put the
    agreement depth at 14, not 13).  A count to n is predicted to expand
    sigma_0 + ... + sigma_n nodes.

    The deciding depth is the first depth at which the extrapolated
    sigma_n meets the agreement inequality, or hi.  The greedy depth is
    the deciding depth, cut short where a count would expand more than
    _JUMP_COST times ``spent`` nodes; depth lo itself is always allowed.
    Where the greedy depth falls short of the deciding depth, a later
    count will go there unless agreement comes sooner, so the search
    looks ahead: it counts instead to the first depth in lo..greedy from
    which one more capped count reaches the deciding depth, rather than
    to a depth that count would pass by one or two.  No count is deeper
    than the greedy one, so the cap still bounds what a count past the
    agreement index wastes.  The choice affects only the cost of the
    search: every depth is still counted exactly, from the root.
    """
    k = len(us) - 1
    if k < 2 or not us[k - 2] or not us[k]:
        return lo
    rho = math.sqrt(us[k] / us[k - 2])
    mu, c = rho, 0.0
    if k >= 5:
        # rho = mu (1 + c/a) and the ratio two steps back = mu (1 + c/a2)
        a, a2 = k - 0.5, k - 2.5
        q = math.sqrt(us[k - 2] / us[k - 4]) / rho
        d = 1 / a2 - q / a
        if q > 1 and d > 0:
            c = (q - 1) / d
            mu = rho / (1 + c / a)
    sigma, total = float(us[k]), float(sum(us))
    lift = float(1 + eps) / float(1 + eps / 2)
    nodes = {}                       # the predicted cost of a count to n
    for n in range(k + 1, hi + 1):
        sigma *= mu * (1 + c / n) if c else rho
        total += sigma
        nodes[n] = total
        if n >= lo and float(b.value_at(n)) * lift >= sigma ** (1 / n):
            break
    deciding = n
    greedy = max([lo] + [t for t in nodes if nodes[t] <= _JUMP_COST * spent])
    if greedy < deciding:
        return next((t for t in range(lo, greedy) if nodes[deciding]
                     <= _JUMP_COST * (spent + nodes[t])), greedy)
    return greedy


def find_epsilon_m(q: QuotientGraph, family: CycleFamily,
                   b: LowerBoundSequence, n_budget: int = 10,
                   workers: Optional[int] = None,
                   g: Optional[GraphHandle] = None) -> SearchOutcome:
    """Run the three exact searches up to n_budget.

    The agreement search counts the base graph's undirected SAWs to the
    depth :func:`_agreement_target` picks, and again only if the
    agreement index is not found there: each count goes no deeper than
    the cost cap allows, and one that cannot reach the predicted
    agreement depth stops where the next capped count can.
    ``undirected`` then holds the counts to the agreement index (to the
    budget when none is found).  All comparisons are exact; the
    budget-exhausted outcomes carry the reason and the partial state.

    Each series source is split once for the search, for depths up to
    n_budget, and every count of the agreement search runs on one split
    of g, so each recount reuses its rows, tail memo and merged
    prefixes.  On a full-rank or tree quotient the zero-occurrence and
    directed series share one split of q from the origin's orbit.  Below
    full rank they take two: the directed series counts on q's free
    lattice, with its stabiliser and tail memo, and the zero-occurrence
    series on q's orbit keys, whose maps carry the cycle family onto
    itself (the free lattice's own maps need not).  All are freed when
    the search returns.  The counts are exact whatever a table holds;
    only their cost changes.
    """
    if n_budget < 1:
        return SearchOutcome("exhausted", "budget is zero", None, None,
                             None, None)
    g = q.base if g is None else g
    q_split = _series_split(q, None, n_budget)
    # below full rank the directed series runs on q's free lattice, and
    # the event series keeps an orbit table of its own
    e_split = q_split if q_split.table.source == q.drow else \
        _orbit_split(q, None, n_budget)
    x = _Inputs(
        ef=event_free_series(q, family, family.length, n_budget,
                             workers=workers, split=e_split),
        ds=list(count_directed_saws(q, n_budget, workers=workers,
                                    split=q_split).counts),
        us=[1], bound=b)
    checks: list = []

    def outcome(reason, r=None, s=None, m=None) -> SearchOutcome:
        return SearchOutcome("exhausted" if reason else "found", reason, r,
                             x.eps, s, m, checks, x.ef, x.ds, x.us)

    r = _first_hold(_DECAY, x, 1, n_budget, checks)
    if r is None:
        return outcome(f"no decay index r within budget {n_budget}")
    x.eps = Fraction(1, r)

    # each count runs from the root to a predicted depth, and the next
    # one starts only if s is not found by then
    spent = sum(x.us)
    g_split = _series_split(g, None, n_budget)

    def count_to(n: int) -> None:
        nonlocal spent
        if n >= len(x.us):
            depth = _agreement_target(x.us, b, x.eps, n, n_budget, spent)
            x.us = list(count_saws(g, None, depth, workers=workers,
                                   split=g_split).counts)
            spent += sum(x.us)

    s = _first_hold(_AGREEMENT, x, r, n_budget, checks, count_to)
    x.us = x.us[:(n_budget if s is None else s) + 1]
    if s is None:
        return outcome(f"no agreement index s within budget {n_budget}", r)
    x.s = s

    m = _first_hold(_BLOCK, x, 1, n_budget, checks)
    if m is None:
        return outcome(f"no block length m within budget {n_budget}", r, s)
    return outcome(None, r, s, m)


# ---------------------------------------------------------------------------
# Stage 2: contraction constants
# ---------------------------------------------------------------------------

def compute_R(x: _Inputs, m: int) -> tuple:
    """Set the split fraction ``x.zeta`` and the occurrence density
    ``x.a_iv`` = zeta/(2m) for block length m, and return the factor
    records.

    The split fraction is the left end ``_ZETA_LO`` of its domain
    [_ZETA_LO, 1 - _ZETA_LO], where the block entropy factor is least.
    Its log is ln g(zeta) = H(zeta) + zeta*c1 + c2, with H the binary
    entropy, c1 = m*ln((1+eps)/(1-eps)) > 0 and c2 = m*ln(1-eps).  H is
    strictly concave and the rest affine, so the least value lies at an
    end of the domain; H is symmetric, so the right end exceeds the left
    by c1*(1 - 2*_ZETA_LO) > 0.  At the left end the block factor
    ln t = ln g + ln(1 + 1e-9) is about 2.27e-8 + m*ln(1-eps), so entropy
    contraction fails only for margins below about 1/(4.4e7*m).

    Raises :class:`NoContractionError`, carrying the records, when the
    interval-verified factor fails to drop below one (the caller may
    retry with a larger block length).  Soundness rests on the interval
    evaluation alone, whatever the split fraction: the verifier replays
    the one a certificate stores.
    """
    if not (0 < x.eps < 1):
        raise CertificateError("margin must lie in (0, 1)")
    if m < 1:
        raise CertificateError("block length must be >= 1")
    x.zeta = _ZETA_LO
    x.a_iv = _density(x.zeta, m)
    checks = tuple(_record(name, x, m) for name in _BLOCK.then)
    if not all(c.holds for c in checks):
        raise NoContractionError(
            f"entropy factor not below one at m={m} "
            f"(ln upper endpoint {x.ln_block(m).hi!r})", checks)
    return checks


def compute_S(x: _Inputs, m: int) -> tuple:
    """Bound the rewiring contraction at block length m from x's
    occurrence density, directed counts, upper root, degree and cycle
    length, and return the rewiring records.

    kappa = a / ((2m+2) * degree**(2*ell+1)); Z = 2*ell * mu_upper**(2*ell)
    times the sum of the directed counts up to 2m.  The minimizing
    rewiring fraction has the closed form eta = 1/(1+Z) (stationarity of
    eta*ln Z + eta*ln eta + (1-eta)*ln(1-eta)), at which the factor is
    exactly Z/(1+Z) — strictly below one whenever Z is finite, but often
    within ulps of one, hence the log-space verdicts.  Raises
    :class:`NoContractionError`, carrying the records, when one fails.
    """
    if m < 1 or x.ell < 1 or x.degree < 2:
        raise CertificateError("need m >= 1, ell >= 1, degree >= 2")
    if len(x.ds) < 2 * m + 1:
        raise CertificateError(
            f"directed counts up to {2 * m} required, have {len(x.ds) - 1}")
    # with no directed SAW up to 2m there is no rewiring factor to record
    checks = tuple(_record(name, x, m) for name in _REWIRING
                   if x.rewiring(m)[0].hi or name != "rewiring_factor")
    if not all(c.holds for c in checks):
        raise NoContractionError("rewiring factor not below one", checks)
    return checks


# ---------------------------------------------------------------------------
# Stage 3: the certificate object
# ---------------------------------------------------------------------------

class RatioCertificate:
    """A self-contained, replayable witness; wraps the JSON payload."""

    def __init__(self, payload: dict):
        self.payload = payload

    @property
    def status(self) -> str:
        return self.payload["status"]

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RatioCertificate":
        """The certificate of JSON ``text``; a ValueError if ``text`` is
        not JSON or nests too deeply to decode."""
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply to decode") \
                from None
        return cls(payload)

    @classmethod
    def load(cls, path: str) -> "RatioCertificate":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _bound_entries_json(b: LowerBoundSequence, upto: int) -> list:
    out = []
    for n in range(1, min(upto, len(b)) + 1):
        out.append({"n": n, "value": b.value_at(n).to_json(),
                    "provenance": b.provenance_at(n)})
    return out


def certify_ratio(g: GraphHandle, q: QuotientGraph, family: CycleFamily,
                  b: LowerBoundSequence, budget: int,
                  workers: Optional[int] = None) -> RatioCertificate:
    """Compose search + contractions into a certificate.

    Returns a certificate with status ``certified`` (every verdict true
    and ratio_bound < 1) or ``inconclusive-budget`` (some search or
    contraction failed within the budget).  Never raises for an
    unproductive search; raising is reserved for misuse.

    The search splits each series source once (:func:`find_epsilon_m`);
    the rewiring stage's directed counts past the budget, where it needs
    them, run on a split of their own.
    """
    if q.base is not g and q.base.graph_id != g.graph_id:
        raise CertificateError("quotient was not built from this graph")
    if budget < 0:
        raise CertificateError("budget must be >= 0")

    outcome = find_epsilon_m(q, family, b, budget, workers=workers, g=g)
    checks = list(outcome.checks)
    x = _Inputs(ef=outcome.event_free, ds=outcome.directed,
                us=outcome.undirected, bound=b, eps=outcome.epsilon,
                s=outcome.s, degree=g.degree, ell=family.length)

    params = dict.fromkeys(_PARAMETERS)
    params.update(decay_index=outcome.r, agreement_index=outcome.s,
                  margin=None if x.eps is None else str(x.eps))

    def payload_with(status: str, reason: Optional[str]) -> dict:
        return {
            "format": CERT_FORMAT,
            "version": CERT_VERSION,
            "graph": g.graph_id,
            "quotient": q.quotient_id,
            "degree": g.degree,
            "cycle_length": family.length,
            "budget": budget,
            "status": status,
            "reason": reason,
            "parameters": params,
            "counts": {
                "event_free": [str(c) for c in x.ef],
                "directed": [str(c) for c in x.ds],
                "undirected": [str(c) for c in x.us],
                "lower_bound": _bound_entries_json(b, max(budget, 1)),
            },
            "checks": [c.to_json() for c in checks],
        }

    if outcome.status != "found":
        return RatioCertificate(
            payload_with("inconclusive-budget", outcome.reason))

    # entropy contraction, retrying at later valid block lengths
    m = outcome.m
    while m is not None:
        try:
            checks.extend(compute_R(x, m))
            break
        except NoContractionError as e:
            checks.extend(e.args[1])
            m = _first_hold(_BLOCK, x, m + 1, budget, checks)
    if m is None:
        return RatioCertificate(payload_with(
            "inconclusive-budget",
            f"no block length with entropy contraction within budget {budget}"))
    params["block_length"] = m

    # rewiring contraction; needs directed counts to 2m and the upper
    # root at the largest computed undirected index
    if len(x.ds) < 2 * m + 1:
        x.ds = list(count_directed_saws(q, 2 * m, workers=workers).counts)
    n0 = params["mu_upper_index"] = len(x.us) - 1
    x.mu_upper = _upper_root(x.us, n0)
    try:
        checks.extend(compute_S(x, m))
    except NoContractionError as e:
        checks.extend(e.args[1])
        return RatioCertificate(payload_with(
            "inconclusive-budget", "rewiring factor not below one"))

    checks.append(_record("final_ratio", x, m))
    ok_final = checks[-1].holds
    params.update((key, float_repr(value(x, m)))
                  for key, value in _FLOAT_PARAMETERS.items())
    # a recorded failed probe (an early decay candidate, say) does not
    # invalidate certification; only the selected chain must hold, and
    # ok_final is the conjunction of that chain's verdicts.
    status = "certified" if ok_final else "inconclusive-budget"
    return RatioCertificate(payload_with(
        status, None if ok_final else "final ratio not below one"))


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------

class VerifyReport(_Plain):
    """The verdict, the status the certificate claims, and the report
    lines."""

    __slots__ = ("ok", "status", "lines")

    def __init__(self, ok: bool, status: str, lines: list):
        self.ok, self.status, self.lines = ok, status, lines

    def summary(self) -> str:
        head = "verified" if self.ok else "CONTRADICTION"
        return f"{head}: {self.status}\n" + "\n".join(self.lines)


_INDEX_PARAMETERS = ("decay_index", "agreement_index", "block_length",
                     "mu_upper_index")
_SERIES = ("event_free", "directed", "undirected")
# the rewiring exponent divides by degree**(2*cycle_length + 1), which
# must stay inside the float range of the interval arithmetic
_MAX_DENOM_BITS = 1000
# what a formula raises when the stored inputs cannot feed it
_UNREPLAYABLE = (ArithmeticError, AttributeError, LookupError, TypeError,
                 ValueError)


def _is_int(v, least: int) -> bool:
    return type(v) is int and v >= least


def _float_of(v) -> Optional[float]:
    """A decimal string's float value, else None."""
    try:
        return float(v) if isinstance(v, str) else None
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    """Equal to relative 1e-12, and an infinity only to itself.  The
    stored logs are often near 1e-19, so an absolute floor would let
    them drift anywhere below it."""
    return a == b or (math.isfinite(a) and math.isfinite(b) and
                      abs(a - b) <= _REPLAY_RTOL * max(abs(a), abs(b)))


def _count_fault(values: list, degree: int) -> Optional[int]:
    """The first n whose count values[n] is not in [0, degree**n], else
    None: a walk has at most degree choices per step.  A count of at most
    n*floor(log2(degree)) bits passes on its length; only a longer one
    meets degree**n, which then has at most twice its bits."""
    k = degree.bit_length() - 1
    return next((n for n, v in enumerate(values)
                 if v < 0 or v.bit_length() > n * k and v > degree ** n),
                None)


class _Malformed(ValueError):
    """A certificate field that cannot be replayed; the message says
    which and why."""


def _parse_payload(payload) -> tuple:
    """(status, params, budget, inputs, split, checks) from a certificate
    payload, or :class:`_Malformed` for the first field that cannot be
    replayed.  ``inputs`` holds the counts, the bound table, the degree
    and the cycle length; ``split`` maps an index to the split fraction
    stored on the factor records there.

    The top level is an object of the certificate format whose
    ``version`` is the integer ``CERT_VERSION``, not a boolean; ``degree``
    >= 2, ``cycle_length`` >= 1 and ``budget`` >= 0 are integers, with
    degree**(2*cycle_length+1) inside the float range; every stored
    count c_n is an integer in [0, degree**n]; the lower-bound table is
    a non-decreasing list of exact roots labelled n = 1..k in order, the
    one labelled n a rational or the root of index at most max(n, 2) of
    an integer at most degree**n (a bridge entry is the n-th root of a
    bridge count or an earlier entry, the degree bound the square root of
    degree - 1, a constant rational), so that comparing two roots costs
    powers bounded by their labels; every check parses as a
    :class:`CheckRecord` with a string name and method and an index in
    1..max(budget, 1); an interval check carries a numeric lhs, and a
    factor check a split fraction in (0, 1).
    """
    if not isinstance(payload, dict):
        raise _Malformed("certificate is not a JSON object")
    if payload.get("format") != CERT_FORMAT:
        raise _Malformed(f"unknown format {payload.get('format')!r}")
    version = payload.get("version")
    if type(version) is not int or version != CERT_VERSION:
        raise _Malformed(f"unknown version {version!r}")
    degree, ell, budget, status = (payload.get(key) for key in
                                   ("degree", "cycle_length", "budget",
                                    "status"))
    if not _is_int(degree, 2):
        raise _Malformed(f"degree = {degree!r} is not an integer >= 2")
    if not _is_int(ell, 1):
        raise _Malformed(f"cycle_length = {ell!r} is not a positive integer")
    # capped, the product never overflows; past the cap it exceeds the
    # limit anyway, as log2(degree) >= 1
    if min(2 * ell + 1, _MAX_DENOM_BITS + 1) * math.log2(degree) \
            > _MAX_DENOM_BITS:
        if 3 * math.log2(degree) > _MAX_DENOM_BITS:
            raise _Malformed(f"degree = {degree} puts degree**3 beyond the "
                             "float range")
        raise _Malformed(f"cycle_length = {ell} puts "
                         "degree**(2*cycle_length+1) beyond the float range")
    if not _is_int(budget, 0):
        raise _Malformed(f"budget = {budget!r} is not a non-negative integer")
    if not isinstance(status, str):
        raise _Malformed(f"status = {status!r} is not a string")
    counts = payload.get("counts")
    if not isinstance(counts, dict):
        raise _Malformed("counts is not an object")
    series = []
    for key in _SERIES:
        raw, values = counts.get(key), None
        if isinstance(raw, list):
            try:
                values = [int(c) for c in raw]
            except (OverflowError, TypeError, ValueError):
                pass
        if values is None:
            raise _Malformed(f"counts.{key} is not a list of integers")
        series.append(values)
    for key, values in zip(_SERIES, series):
        n = _count_fault(values, degree)
        if n is not None:
            raise _Malformed(f"counts.{key}[{n}] = {counts[key][n]!r} is "
                             f"not an integer in [0, degree**{n}]")
    entries = counts.get("lower_bound")
    try:
        labels = [e["n"] for e in entries]
        values = tuple(Radical.from_json(e["value"]) for e in entries)
    except (KeyError, OverflowError, TypeError, ValueError):
        raise _Malformed("counts.lower_bound is not a list of exact roots") \
            from None
    if labels != list(range(1, len(labels) + 1)) or \
            not all(type(n) is int for n in labels):
        raise _Malformed("counts.lower_bound is not labelled n = 1..k "
                         "in order")
    # the radicand labelled n is at most degree**n, like a count c_n
    over = _count_fault([1] + [v.rad for v in values], degree)
    fault = next((n for n, v in zip(labels, values) if n == over or v.idx > 1
                  and (v.idx > max(n, 2) or (v.num, v.den) != (1, 1))), None)
    if fault is not None:
        raise _Malformed(f"counts.lower_bound[{fault - 1}] is neither a "
                         f"rational nor a root of index at most "
                         f"{max(fault, 2)} of an integer at most "
                         f"degree**{fault}")
    try:
        bound = LowerBoundSequence(
            str(payload.get("graph")), values,
            tuple(e.get("provenance") for e in entries))
    except BoundError:
        raise _Malformed("counts.lower_bound is empty or decreases") from None
    raw = payload.get("checks")
    if not isinstance(raw, list):
        raise _Malformed("checks is not a list")
    top = max(budget, 1)
    checks, split = [], {}
    for i, c in enumerate(raw):
        try:
            rec = CheckRecord.from_json(c)
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError):
            raise _Malformed(f"checks[{i}] is not a check record") from None
        if type(rec.name) is not str or type(rec.method) is not str:
            raise _Malformed(f"checks[{i}] lacks a string name or method")
        if not 1 <= rec.index <= top:
            raise _Malformed(f"checks[{i}].index = {rec.index} is not in "
                             f"1..{top}")
        check = _CHECKS.get(rec.name)
        if check is not None and _SPLIT in check.reads:
            zeta = _float_of(dict(rec.aux).get("split_fraction"))
            if zeta is None or not 0.0 < zeta < 1.0:
                raise _Malformed(f"checks[{i}].aux.split_fraction is not a "
                                 "number in (0, 1)")
            split[rec.index] = zeta
        if check is not None and check.method == _INTERVAL and \
                _float_of(rec.lhs) is None:
            raise _Malformed(f"checks[{i}].lhs = {rec.lhs!r} is not a number")
        checks.append(rec)
    inputs = _Inputs(ef=series[0], ds=series[1], us=series[2], bound=bound,
                     degree=degree, ell=ell)
    return status, payload.get("parameters"), budget, inputs, split, checks


def _parameter_fault(params, status, budget: int) -> Optional[str]:
    """Why the load-bearing parameters cannot be replayed, or None.

    Each index is null or an integer in 1..max(budget, 1), the margin
    null or a fraction in (0, 1), each stored float parameter null or a
    number; margin and decay index come together, an agreement index
    needs a decay index, and a certified status needs all five
    load-bearing parameters.
    """
    if not isinstance(params, dict):
        return "parameters is not an object"
    top = max(budget, 1)
    for key in _INDEX_PARAMETERS:
        v = params.get(key)
        if v is not None and (type(v) is not int or not 1 <= v <= top):
            return f"parameters.{key} = {v!r} is not an integer in 1..{top}"
    margin = params.get("margin")
    if margin is not None:
        try:
            f = Fraction(margin) if type(margin) in (str, int) else None
        except (ValueError, ZeroDivisionError):
            f = None
        # a Fraction's denominator is positive
        if f is None or not 0 < f.numerator < f.denominator:
            return (f"parameters.margin = {margin!r} is not a fraction "
                    "in (0, 1)")
    for key in _FLOAT_PARAMETERS:
        v = params.get(key)
        if v is not None and _float_of(v) is None:
            return f"parameters.{key} = {v!r} is not a number"
    if (margin is None) != (params.get("decay_index") is None):
        return "parameters.margin and parameters.decay_index come together"
    if (params.get("agreement_index") is not None
            and params.get("decay_index") is None):
        return "parameters.agreement_index needs parameters.decay_index"
    if status == "certified":
        for key in ("margin",) + _INDEX_PARAMETERS:
            if params.get(key) is None:
                return f"certified status needs parameters.{key}"
    return None


def _replay_fault(c: CheckRecord, x: _Inputs) -> Optional[str]:
    """Why the stored record c does not replay through its table entry
    on x, or None.  A factor check is evaluated at its own stored split
    fraction."""
    check = _CHECKS.get(c.name)
    if check is None:
        return "is not a known check"
    if c.method != check.method:
        return f"method {c.method!r} is not {check.method!r}"
    if _SPLIT in check.reads:
        zeta = float(dict(c.aux)["split_fraction"])
        if zeta != x.zeta:
            x = _Inputs(**{**vars(x), "zeta": zeta})
    try:
        lhs, rhs = check.sides(x, c.index)
    except _UNREPLAYABLE:
        return "not replayable from stored counts"
    holds = check.holds(lhs, rhs)
    if holds != c.holds:
        return f"verdict mismatch: stored {c.holds}, replayed {holds}"
    fmt = _FORMAT[check.method]
    if c.rhs != fmt(rhs) or (c.lhs != fmt(lhs) if check.method == _EXACT
                             else not _close(lhs, float(c.lhs))):
        return (f"value mismatch: stored {c.lhs} vs {c.rhs}, "
                f"replayed {fmt(lhs)} vs {fmt(rhs)}")
    return None


def _earliest_fault(search: _Search, checks: list, lo: int,
                    chosen: int) -> Optional[str]:
    """Why the records do not show ``chosen`` as the first index from lo
    at which ``search`` holds, or None: the search's records probe each
    candidate lo..chosen in turn, and no earlier candidate holds (or,
    where the search has follow-up checks, passes those too)."""
    k = len(search.names)
    probes = [c for c in checks if c.name in search.names]
    # the count first: lo..chosen may be far longer than the stored list
    if chosen < lo or len(probes) != (chosen - lo + 1) * k or \
            [(c.index, c.name) for c in probes] != \
            [(n, name) for n in range(lo, chosen + 1)
             for name in search.names]:
        return f"{search.what} search does not probe {lo}..{chosen} " \
               "contiguously"
    holds = [all(c.holds for c in probes[i:i + k])
             for i in range(0, len(probes), k)]
    for n, ok in zip(range(lo, chosen), holds):
        if ok:
            then = [c.holds for c in checks
                    if c.name in search.then and c.index == n]
            if len(then) != len(search.then) or all(then):
                return f"{search.what} {chosen} is not the earliest: " \
                       f"{n} holds"
    if not holds[-1]:
        return f"{search.what} {chosen} does not hold"
    return None


def verify_certificate(cert) -> VerifyReport:
    """Replay a certificate from its stored counts and interval
    arithmetic alone; no graph enumeration happens here.

    A malformed field or load-bearing parameter (see ``_parse_payload``
    and ``_parameter_fault``) is one FAIL line and an early return.
    Otherwise the report checks margin = 1/decay_index exactly, every
    record through its table entry (see ``_replay_fault``), the
    earliest-index discipline of each search (see ``_earliest_fault``),
    the stored float parameters against the chain values they repeat,
    and the status against the verdicts.
    """
    payload = cert.payload if isinstance(cert, RatioCertificate) else cert
    lines: list = []
    ok = True

    def fail(msg: str):
        nonlocal ok
        ok = False
        lines.append("FAIL " + msg)

    def note(msg: str):
        lines.append("ok   " + msg)

    try:
        status, params, budget, x, split, checks = _parse_payload(payload)
    except _Malformed as e:
        fail(str(e))
        claimed = payload.get("status") if isinstance(payload, dict) else None
        return VerifyReport(False, claimed if isinstance(claimed, str)
                            else "?", lines)
    fault = _parameter_fault(params, status, budget)
    if fault is not None:
        fail(fault)
        return VerifyReport(False, status, lines)
    note("lower-bound entries non-decreasing")

    r, m = params.get("decay_index"), params.get("block_length")
    x.eps = None if params.get("margin") is None else \
        Fraction(params["margin"])
    if r is not None:
        if x.eps != Fraction(1, r):
            fail(f"margin {x.eps} != 1/{r}")
        else:
            note(f"margin = 1/{r} exactly")

    # the chain at the block length reads the split fraction stored on
    # the factor records there
    x.s, x.zeta = params.get("agreement_index"), split.get(m)
    if x.zeta is not None:
        x.a_iv = _density(x.zeta, m)
    try:
        x.mu_upper = _upper_root(x.us, params.get("mu_upper_index"))
    except _UNREPLAYABLE:
        pass                          # the checks that read it fail below

    faults = [_replay_fault(c, x) for c in checks]
    exact = [(c, f) for c, f in zip(checks, faults) if c.method != _INTERVAL]
    for c, fault in exact:
        if fault is not None:
            fail(f"{c.name}[{c.index}] {fault}")
    note(f"{sum(f is None for _, f in exact)} exact search checks replayed")

    for search in (_DECAY, _AGREEMENT, _BLOCK):
        chosen = params.get(search.param)
        if chosen is None:
            continue
        lo = 1 if search.start is None else params[search.start]
        fault = _earliest_fault(search, checks, lo, chosen)
        if fault is not None:
            fail(fault)
        else:
            note(f"{search.what} {chosen} is the earliest"
                 + (" workable" if search.then else ""))

    for c, fault in zip(checks, faults):
        if c.method != _INTERVAL:
            continue
        if fault is not None:
            fail(f"{c.name}[{c.index}] {fault}")
        elif _SPLIT in _CHECKS[c.name].reads:
            note(f"{c.name}[{c.index}] replayed")

    for key, value in _FLOAT_PARAMETERS.items():
        stored = params.get(key)
        if stored is None:
            continue
        try:
            got = float(value(x, m))
        except _UNREPLAYABLE:
            fail(f"parameters.{key} not replayable from stored counts")
            continue
        if not _close(got, float(stored)):
            fail(f"parameters.{key} drift: stored {stored}, "
                 f"replayed {float_repr(got)}")

    # -- status consistency ---------------------------------------------------
    if status == "certified":
        chain = [(c, f) for c, f in zip(checks, faults)
                 if c.name in _CHAIN and c.index == m]
        if "final_ratio" not in (c.name for c, _ in chain) or \
                not all(c.holds for c, _ in chain):
            fail(f"certified status but the chain at block length {m} "
                 "does not hold")
        elif all(f is None for _, f in chain):
            note(f"final ratio bound replayed: "
                 f"ln = {float_repr(x.ln_final(m))} < 0")
    elif status != "inconclusive-budget":
        fail(f"unknown status {status!r}")

    return VerifyReport(ok, status, lines)
