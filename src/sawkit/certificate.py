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

2. *Contraction constants* (outward-rounded interval floats): minimize
   the block entropy factor over the split fraction by golden-section
   search, re-verify the minimum below one with intervals, and derive
   the per-step ratio bound R.  Separately bound the rewiring ratio S
   through the occurrence density, the rewiring exponent kappa and the
   rewiring weight Z.  Both verdicts are taken in log space: S is
   routinely within a few ulps of 1, where only ln S < 0 is a
   trustworthy comparison.

3. *Certificate* (JSON): all parameters, all raw integer counts (as
   decimal strings), every check, and the final bound
   ratio_bound = max(R, S) < 1.  :func:`verify_certificate` replays the
   whole chain from the stored integers and interval arithmetic alone —
   no graph enumeration — and must reproduce every verdict and the
   claimed status.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Callable, Optional

from .bounds import LowerBoundSequence
from .counting import WalkCounts, count_directed_saws, count_saws
from .events import CycleFamily, event_free_series
from .exact import Interval, Radical, float_repr, log_of_count_root
from .graphs import GraphHandle
from .quotient import QuotientGraph

CERT_FORMAT = "saw-ratio-certificate"
CERT_VERSION = 1

_SLACK = Fraction(10 ** 9 + 1, 10 ** 9)       # multiplicative 1 + 1e-9
_ZETA_LO = 1e-9
_ZETA_HI = 1.0 - 1e-9
_GSS_ITERS = 60                               # interval ~ 0.618**60 < 1e-12
_REPLAY_RTOL = 1e-12
_JUMP_COST = 16          # a count's nodes, at most, per node spent before it


class CertificateError(Exception):
    """Certificate pipeline misuse (wrong graph pairing, bad arguments)."""


class NoContractionError(Exception):
    """The entropy factor does not drop below one at these parameters."""


# ---------------------------------------------------------------------------
# Check records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One recorded inequality: what was compared, how, and the verdict.

    ``lhs``/``rhs`` are display strings; replay authority is always the
    raw integer counts plus ``aux`` (e.g. the split fraction an interval
    check was evaluated at).
    """

    name: str
    index: int
    lhs: str
    rhs: str
    holds: bool
    method: str                      # "exact-root" | "interval-log"
    aux: tuple = ()                  # sorted (key, value-string) pairs

    def to_json(self) -> dict:
        d = {"name": self.name, "index": self.index, "lhs": self.lhs,
             "rhs": self.rhs, "holds": self.holds, "method": self.method}
        if self.aux:
            d["aux"] = dict(self.aux)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "CheckRecord":
        aux = d.get("aux")
        return cls(d["name"], int(d["index"]), d["lhs"], d["rhs"],
                   bool(d["holds"]), d["method"],
                   tuple(sorted(aux.items())) if aux else ())


def _fmt_radical(x: Radical) -> str:
    if x.idx == 1:
        return f"{x.num}/{x.den}" if x.den != 1 else str(x.num)
    head = "" if (x.num == 1 and x.den == 1) else f"({x.num}/{x.den})*"
    return f"{head}{x.rad}^(1/{x.idx})"


# ---------------------------------------------------------------------------
# Stage 1: exact searches
# ---------------------------------------------------------------------------

@dataclass
class SearchOutcome:
    """Result of the three exact searches plus everything needed to
    replay them: the integer series actually consumed and the bound
    entries actually compared."""

    status: str                      # "found" | "exhausted"
    reason: Optional[str]
    r: Optional[int]
    epsilon: Optional[Fraction]
    s: Optional[int]
    m: Optional[int]
    checks: list = field(default_factory=list)
    event_free: list = field(default_factory=list)
    directed: list = field(default_factory=list)
    undirected: list = field(default_factory=list)


def _block_checks(ef: list, ds: list, b_s: Radical, eps: Fraction,
                  m: int) -> tuple:
    """The two exact block-length inequalities at m, as (ok, records)."""
    lhs1 = Radical.nth_root(ef[m], m)
    rhs1 = b_s.scaled(1 - eps)
    ok1 = lhs1 < rhs1
    lhs2 = Radical.nth_root(ds[m], m)
    rhs2 = b_s.scaled(1 + eps)
    ok2 = lhs2 <= rhs2
    recs = [
        CheckRecord("block_event_decay", m, _fmt_radical(lhs1),
                    _fmt_radical(rhs1), ok1, "exact-root"),
        CheckRecord("block_growth", m, _fmt_radical(lhs2),
                    _fmt_radical(rhs2), ok2, "exact-root"),
    ]
    return ok1 and ok2, recs


def _agreement_target(us: list, b: LowerBoundSequence, eps: Fraction,
                      lo: int, hi: int, spent: int) -> int:
    """The depth in lo..hi that the agreement search counts to next,
    holding the undirected counts ``us`` and having expanded ``spent``
    nodes so far.

    It is the first depth at which sigma_n, extrapolated from the last
    count by the parity-averaged ratio sqrt(sigma_k / sigma_{k-2}),
    meets the agreement inequality, cut short where a count to it would
    expand more than _JUMP_COST times ``spent`` nodes (a count to n
    expands sigma_0 + ... + sigma_n).  Depth lo itself is always
    allowed.  The choice affects only the cost of the search: every
    depth is still counted exactly, from the root.
    """
    k = len(us) - 1
    if k < 2 or not us[k - 2] or not us[k]:
        return lo
    rho = math.sqrt(us[k] / us[k - 2])
    sigma, nodes = float(us[k]), float(sum(us))
    lift = float(1 + eps) / float(1 + eps / 2)
    target = lo
    for n in range(k + 1, hi + 1):
        sigma *= rho
        nodes += sigma
        if n > lo and nodes > _JUMP_COST * spent:
            break
        target = n
        if n >= lo and float(b.value_at(n)) * lift >= sigma ** (1 / n):
            break
    return target


def find_epsilon_m(q: QuotientGraph, family: CycleFamily,
                   b: LowerBoundSequence, a_n: Optional[WalkCounts] = None,
                   n_budget: int = 10, workers: Optional[int] = None,
                   g: Optional[GraphHandle] = None) -> SearchOutcome:
    """Run the three exact searches up to n_budget.

    ``a_n`` optionally supplies precomputed undirected counts for the
    base graph; anything missing (including the zero-occurrence and
    directed series) is computed here.  The agreement search counts
    past the supplied depths only as far as :func:`_agreement_target`
    predicts it needs, and again only if the agreement index is not
    found there; ``undirected`` then holds the counts to the agreement
    index (to the budget when none is found), or the supplied counts
    when the search never went past them.  All comparisons are exact;
    the budget-exhausted outcomes carry the reason and the partial
    state.
    """
    if n_budget < 1:
        return SearchOutcome("exhausted", "budget is zero", None, None,
                             None, None)
    g = q.base if g is None else g
    ell = family.length

    ef = event_free_series(q, family, ell, n_budget)
    ds = list(count_directed_saws(q, n_budget, workers=workers).counts)
    us = list(a_n.counts) if a_n is not None else [1]
    supplied = len(us)

    checks: list = []

    # search 1: decay index r, margin 1/r
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

    # search 2: agreement index s >= r; each count runs from the root to
    # a predicted depth, and the next one starts only if s is not found
    s = None
    spent = sum(us)
    for cand in range(r, n_budget + 1):
        if cand >= len(us):
            n = _agreement_target(us, b, eps, cand, n_budget, spent)
            us = list(count_saws(g, None, n, workers=workers).counts)
            spent += sum(us)
        lhs = b.value_at(cand).scaled(1 + eps)
        rhs = Radical.nth_root(us[cand], cand).scaled(1 + eps / 2)
        ok = lhs >= rhs
        checks.append(CheckRecord("bound_agreement", cand, _fmt_radical(lhs),
                                  _fmt_radical(rhs), ok, "exact-root"))
        if ok:
            s = cand
            break
    if cand >= supplied:
        us = us[:cand + 1]
    if s is None:
        return SearchOutcome("exhausted",
                             f"no agreement index s within budget {n_budget}",
                             r, eps, None, None, checks, ef, ds, us)

    # search 3: earliest block length m
    b_s = b.value_at(s)
    m = None
    for cand in range(1, n_budget + 1):
        ok, recs = _block_checks(ef, ds, b_s, eps, cand)
        checks.extend(recs)
        if ok:
            m = cand
            break
    if m is None:
        return SearchOutcome("exhausted",
                             f"no block length m within budget {n_budget}",
                             r, eps, s, None, checks, ef, ds, us)
    return SearchOutcome("found", None, r, eps, s, m, checks, ef, ds, us)


# ---------------------------------------------------------------------------
# Stage 2: contraction constants
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn: Callable, lo: float, hi: float,
                iters: int = _GSS_ITERS) -> float:
    """Deterministic fixed-iteration golden-section minimizer; returns
    the best point among the converged pair and both domain endpoints."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    cands = [(fn(lo), lo), (fc, c), (fd, d), (fn(hi), hi)]
    return min(cands)[1]


def _ln_g_interval(eps: Fraction, m: int, zeta: float) -> Interval:
    """Outward interval for the log block entropy factor at a given split
    fraction: binary-entropy term plus the margin-ratio and shrink terms."""
    zi = Interval.point(zeta)
    omz = Interval.point(1.0) - zi
    ent = (-(zi * zi.log())) + (-(omz * omz.log()))
    ratio = (1 + eps) / (1 - eps)
    margin_term = (zi * Interval.from_fraction(ratio).log()).scale_int(m)
    shrink_term = Interval.from_fraction(1 - eps).log().scale_int(m)
    return ent + margin_term + shrink_term


@dataclass(frozen=True)
class ContractionR:
    """Entropy-side contraction: split fraction, block factor t, per-step
    ratio R = t**(1/m), and the occurrence density a = zeta/(2m)."""

    zeta: float
    ln_g: Interval
    ln_t: Interval
    ln_R: Interval
    t: float
    R: float
    a: float
    a_iv: Interval
    checks: tuple


def compute_R(epsilon: Fraction, m: int) -> ContractionR:
    """Minimize the block entropy factor and derive (zeta, t, a, R).

    Raises :class:`NoContractionError` when the interval-verified factor
    fails to drop below one (the caller may retry with a larger block
    length).  The minimizer runs in plain floats; soundness comes from
    the interval re-evaluation at the chosen point (any point with a
    verified factor below one is a valid witness).
    """
    if not (0 < epsilon < 1):
        raise CertificateError("margin must lie in (0, 1)")
    if m < 1:
        raise CertificateError("block length must be >= 1")
    c1 = m * math.log(float((1 + epsilon) / (1 - epsilon)))
    c2 = m * math.log(float(1 - epsilon))

    def ln_g(z: float) -> float:
        return -z * math.log(z) - (1.0 - z) * math.log1p(-z) + z * c1 + c2

    zeta = _golden_min(ln_g, _ZETA_LO, _ZETA_HI)
    g_iv = _ln_g_interval(epsilon, m, zeta)
    ok_g = g_iv.hi < 0.0
    ln_t = g_iv + Interval.from_fraction(_SLACK).log()
    ok_t = ln_t.hi < 0.0
    aux = (("split_fraction", float_repr(zeta)),)
    checks = (
        CheckRecord("entropy_factor", m, float_repr(g_iv.hi), "0", ok_g,
                    "interval-log", aux),
        CheckRecord("block_factor", m, float_repr(ln_t.hi), "0", ok_t,
                    "interval-log", aux),
    )
    if not (ok_g and ok_t):
        raise NoContractionError(
            f"entropy factor not below one at m={m} "
            f"(ln upper endpoint {max(g_iv.hi, ln_t.hi)!r})", checks)
    ln_R = ln_t.div_int(m)
    a_iv = Interval.point(zeta).div_int(2 * m)
    return ContractionR(zeta, g_iv, ln_t, ln_R,
                        t=math.exp(ln_t.hi), R=math.exp(ln_R.hi),
                        a=zeta / (2 * m), a_iv=a_iv, checks=checks)


@dataclass(frozen=True)
class ContractionS:
    """Rewiring-side contraction: exponent kappa, weight Z, optimal
    rewiring fraction eta = 1/(1+Z), and the ratio S = (Z/(1+Z))**kappa."""

    kappa: Interval
    Z: Interval
    eta: float
    ln_f: Interval
    ln_S: Interval
    S: float
    checks: tuple


def compute_S(epsilon: Fraction, m: int, degree: int, ell: int,
              a_iv: Interval, dcounts, mu_upper: Interval) -> ContractionS:
    """Derive the rewiring contraction from the occurrence density.

    kappa = a / ((2m+2) * degree**(2*ell+1)); Z = 2*ell * mu_upper**(2*ell)
    times the sum of the directed counts up to 2m.  The minimizing
    rewiring fraction has the closed form eta = 1/(1+Z) (stationarity of
    eta*ln Z + eta*ln eta + (1-eta)*ln(1-eta)), at which the factor is
    exactly Z/(1+Z) — strictly below one whenever Z is finite, but often
    within ulps of one, hence the log-space verdicts.  ``epsilon`` and
    ``m`` are the parameters the density was derived at; only ``m``
    enters the formulas again.
    """
    if m < 1 or ell < 1 or degree < 2:
        raise CertificateError("need m >= 1, ell >= 1, degree >= 2")
    counts = dcounts.counts if isinstance(dcounts, WalkCounts) else dcounts
    if len(counts) < 2 * m + 1:
        raise CertificateError(
            f"directed counts up to {2 * m} required, have {len(counts) - 1}")
    denom = (2 * m + 2) * degree ** (2 * ell + 1)
    kappa = a_iv.div_int(denom)
    ssum = sum(counts[1:2 * m + 1])

    if ssum == 0:
        # No directed SAWs at all: the rewiring weight vanishes and the
        # ratio is exactly zero.  Represent ln S as [-inf, -inf] and skip
        # interval arithmetic that would produce inf - inf.
        ninf = float("-inf")
        checks = (
            CheckRecord("rewiring_exponent_positive", m,
                        float_repr(kappa.lo), "0", kappa.lo > 0.0,
                        "interval-log"),
            CheckRecord("rewiring_contraction", m, "-inf", "0", True,
                        "interval-log"),
        )
        if kappa.lo <= 0.0:
            raise NoContractionError("rewiring exponent not positive", checks)
        return ContractionS(kappa, Interval.point(0.0), 1.0,
                            Interval(ninf, ninf), Interval(ninf, ninf),
                            S=0.0, checks=checks)

    Z = mu_upper.pow_int(2 * ell).scale_int(2 * ell) * Interval.from_int(ssum)
    ln_f = -(Z.recip().log1p())
    ok_f = ln_f.hi < 0.0
    ok_k = kappa.lo > 0.0
    ln_S = kappa * ln_f
    ok_S = ln_S.hi < 0.0
    eta = 1.0 / (1.0 + Z.hi)
    checks = (
        CheckRecord("rewiring_exponent_positive", m, float_repr(kappa.lo),
                    "0", ok_k, "interval-log"),
        CheckRecord("rewiring_factor", m, float_repr(ln_f.hi), "0", ok_f,
                    "interval-log"),
        CheckRecord("rewiring_contraction", m, float_repr(ln_S.hi), "0",
                    ok_S, "interval-log"),
    )
    if not (ok_f and ok_k and ok_S):
        raise NoContractionError("rewiring factor not below one", checks)
    return ContractionS(kappa, Z, eta, ln_f, ln_S,
                        S=math.exp(ln_S.hi), checks=checks)


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

    @property
    def ratio_bound(self) -> Optional[float]:
        v = self.payload["parameters"].get("ratio_bound")
        return None if v is None else float(v)

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RatioCertificate":
        return cls(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

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
    """
    if q.base is not g and q.base.graph_id != g.graph_id:
        raise CertificateError("quotient was not built from this graph")
    if budget < 0:
        raise CertificateError("budget must be >= 0")

    outcome = find_epsilon_m(q, family, b, None, budget, workers=workers, g=g)
    checks = list(outcome.checks)
    ef, ds, us = outcome.event_free, outcome.directed, outcome.undirected

    params: dict = {
        "decay_index": outcome.r,
        "margin": None if outcome.epsilon is None else str(outcome.epsilon),
        "agreement_index": outcome.s,
        "block_length": None,
        "split_fraction": None,
        "block_factor": None,
        "occurrence_density": None,
        "entropy_ratio": None,
        "ln_entropy_ratio": None,
        "rewiring_exponent": None,
        "rewiring_weight": None,
        "rewiring_fraction": None,
        "rewiring_ratio": None,
        "ln_rewiring_ratio": None,
        "mu_upper_index": None,
        "mu_upper": None,
        "ratio_bound": None,
        "ln_ratio_bound": None,
    }

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
                "event_free": [str(c) for c in ef],
                "directed": [str(c) for c in ds],
                "undirected": [str(c) for c in us],
                "lower_bound": _bound_entries_json(b, max(budget, 1)),
            },
            "checks": [c.to_json() for c in checks],
        }

    if outcome.status != "found":
        return RatioCertificate(
            payload_with("inconclusive-budget", outcome.reason))

    eps, s = outcome.epsilon, outcome.s
    b_s = b.value_at(s)

    # entropy contraction, retrying at later valid block lengths
    contraction = None
    m = outcome.m
    while m is not None and m <= budget:
        try:
            contraction = compute_R(eps, m)
            checks.extend(contraction.checks)
            break
        except NoContractionError as e:
            checks.extend(e.args[1])
            nxt = None
            for cand in range(m + 1, budget + 1):
                ok, recs = _block_checks(ef, ds, b_s, eps, cand)
                checks.extend(recs)
                if ok:
                    nxt = cand
                    break
            m = nxt
    if contraction is None:
        params["block_length"] = None
        return RatioCertificate(payload_with(
            "inconclusive-budget",
            f"no block length with entropy contraction within budget {budget}"))

    # rewiring contraction; needs directed counts to 2m and the upper
    # root at the largest computed undirected index
    if len(ds) < 2 * m + 1:
        ds = list(count_directed_saws(q, 2 * m, workers=workers).counts)
    n0 = len(us) - 1
    if n0 < 1:
        us = list(count_saws(g, None, 1, workers=workers).counts)
        n0 = 1
    mu_upper = log_of_count_root(us[n0], n0).exp()
    try:
        rewiring = compute_S(eps, m, g.degree, family.length,
                             contraction.a_iv, ds, mu_upper)
        checks.extend(rewiring.checks)
    except NoContractionError as e:
        checks.extend(e.args[1])
        params["block_length"] = m
        return RatioCertificate(payload_with(
            "inconclusive-budget", "rewiring factor not below one"))

    ln_final = max(contraction.ln_R.hi, rewiring.ln_S.hi)
    ok_final = ln_final < 0.0
    checks.append(CheckRecord("final_ratio", m, float_repr(ln_final), "0",
                              ok_final, "interval-log"))

    params.update({
        "block_length": m,
        "split_fraction": float_repr(contraction.zeta),
        "block_factor": float_repr(contraction.t),
        "occurrence_density": float_repr(contraction.a),
        "entropy_ratio": float_repr(contraction.R),
        "ln_entropy_ratio": float_repr(contraction.ln_R.hi),
        "rewiring_exponent": float_repr(rewiring.kappa.lo),
        "rewiring_weight": float_repr(rewiring.Z.hi),
        "rewiring_fraction": float_repr(rewiring.eta),
        "rewiring_ratio": float_repr(rewiring.S),
        "ln_rewiring_ratio": float_repr(rewiring.ln_S.hi),
        "mu_upper_index": n0,
        "mu_upper": float_repr(mu_upper.hi),
        "ratio_bound": float_repr(math.exp(ln_final)),
        "ln_ratio_bound": float_repr(ln_final),
    })
    # a recorded failed probe (an early decay candidate, say) does not
    # invalidate certification; only the selected chain must hold, and
    # ok_final is the conjunction of that chain's verdicts.
    status = "certified" if ok_final else "inconclusive-budget"
    return RatioCertificate(payload_with(
        status, None if ok_final else "final ratio not below one"))


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    status: str                      # status claimed by the certificate
    lines: list

    def summary(self) -> str:
        head = "verified" if self.ok else "CONTRADICTION"
        return f"{head}: {self.status}\n" + "\n".join(self.lines)


_INDEX_PARAMETERS = ("decay_index", "agreement_index", "block_length",
                     "mu_upper_index")
_LN_PARAMETERS = ("ln_entropy_ratio", "ln_rewiring_ratio", "ln_ratio_bound")
_SERIES = ("event_free", "directed", "undirected")
# the rewiring exponent divides by degree**(2*cycle_length + 1), which
# must stay inside the float range of the interval arithmetic
_MAX_DENOM_BITS = 1000


def _is_int(v, least: int) -> bool:
    return type(v) is int and v >= least


def _float_of(v) -> Optional[float]:
    """A decimal string's float value, else None."""
    try:
        return float(v) if isinstance(v, str) else None
    except ValueError:
        return None


@lru_cache(maxsize=8)
def _count_caps(degree: int, length: int) -> tuple:
    """degree**n for n < length: a walk has at most degree choices per
    step, so no stored count c_n exceeds degree**n."""
    return tuple(accumulate(repeat(degree, length - 1), operator.mul,
                            initial=1))


class _Malformed(ValueError):
    """A certificate field that cannot be replayed; the message says
    which and why."""


def _parse_payload(payload) -> tuple:
    """(status, params, budget, degree, ell, (ef, ds, us), bound, checks)
    from a certificate payload, or :class:`_Malformed` for the first
    field that cannot be replayed.

    The top level is an object of the certificate format; ``degree``
    >= 2, ``cycle_length`` >= 1 and ``budget`` >= 0 are integers, with
    degree**(2*cycle_length+1) inside the float range; every stored
    count c_n is an integer in [0, degree**n]; the lower-bound table is
    a non-empty list of exact roots of index at most max(budget, 2);
    every check parses as a :class:`CheckRecord` with a string name and
    method and an index in 1..max(budget, 1); the interval factor checks
    carry a numeric lhs and a split fraction in (0, 1).
    """
    if not isinstance(payload, dict):
        raise _Malformed("certificate is not a JSON object")
    if payload.get("format") != CERT_FORMAT:
        raise _Malformed(f"unknown format {payload.get('format')!r}")
    degree, ell, budget, status = (payload.get(key) for key in
                                   ("degree", "cycle_length", "budget",
                                    "status"))
    if not _is_int(degree, 2):
        raise _Malformed(f"degree = {degree!r} is not an integer >= 2")
    if not _is_int(ell, 1):
        raise _Malformed(f"cycle_length = {ell!r} is not a positive integer")
    if (2 * ell + 1) * math.log2(degree) > _MAX_DENOM_BITS:
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
    caps = _count_caps(degree, max(map(len, series)))
    for key, values in zip(_SERIES, series):
        if values and (min(values) < 0 or
                       not all(map(operator.le, values, caps))):
            n = next(n for n, (v, cap) in enumerate(zip(values, caps))
                     if not 0 <= v <= cap)
            raise _Malformed(f"counts.{key}[{n}] = {counts[key][n]!r} is "
                             f"not an integer in [0, degree**{n}]")
    try:
        bound = [(e["n"], Radical.from_json(e["value"]))
                 for e in counts.get("lower_bound")]
    except (KeyError, OverflowError, TypeError, ValueError):
        raise _Malformed("counts.lower_bound is not a list of exact roots") \
            from None
    top = max(budget, 2)
    if not bound or not all(_is_int(n, 1) and r.idx <= top
                            for n, r in bound):
        raise _Malformed("counts.lower_bound is not a non-empty list of "
                         f"indices n >= 1 and roots of index 1..{top}")
    raw = payload.get("checks")
    if not isinstance(raw, list):
        raise _Malformed("checks is not a list")
    top = max(budget, 1)
    checks = []
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
        if rec.method == "interval-log" and \
                rec.name in ("entropy_factor", "block_factor"):
            zeta = _float_of(dict(rec.aux).get("split_fraction"))
            if zeta is None or not 0.0 < zeta < 1.0:
                raise _Malformed(f"checks[{i}].aux.split_fraction is not a "
                                 "number in (0, 1)")
            if _float_of(rec.lhs) is None:
                raise _Malformed(
                    f"checks[{i}].lhs = {rec.lhs!r} is not a number")
        checks.append(rec)
    return (status, payload.get("parameters"), budget, degree, ell, series,
            bound, checks)


def _parameter_fault(params, status, budget: int) -> Optional[str]:
    """Why the load-bearing parameters cannot be replayed, or None.

    Each index is null or an integer in 1..max(budget, 1), the margin
    null or a fraction in (0, 1), each stored log bound null or a
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
    for key in _LN_PARAMETERS:
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


def verify_certificate(cert) -> VerifyReport:
    """Replay every stored inequality from the certificate's raw integer
    counts and interval arithmetic; no graph enumeration happens here.

    Checks performed: every field well-formed (see ``_parse_payload``) and
    the load-bearing parameters too (see ``_parameter_fault``), each
    fault reported as one FAIL line and an early return; margin =
    1/decay_index exactly; stored bound entries non-decreasing; every
    exact search check re-derived from the stored counts with matching
    verdict; earliest-index discipline for
    the decay, agreement and block searches; every interval check
    re-evaluated at its stored parameters with matching verdict and
    endpoint (to relative 1e-12); the final bound re-derived; the status
    consistent with the verdicts.
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
        status, params, budget, degree, ell, (ef, ds, us), bound, checks = \
            _parse_payload(payload)
    except _Malformed as e:
        fail(str(e))
        claimed = payload.get("status") if isinstance(payload, dict) else None
        return VerifyReport(False, claimed if isinstance(claimed, str)
                            else "?", lines)
    fault = _parameter_fault(params, status, budget)
    if fault is not None:
        fail(fault)
        return VerifyReport(False, status, lines)

    bound.sort()
    bvals = [v for _, v in bound]
    for earlier, later in zip(bvals, bvals[1:]):
        if not earlier <= later:
            fail("lower-bound entries decrease")
            break
    else:
        note("lower-bound entries non-decreasing")

    def b_at(n: int) -> Radical:
        if not bvals:
            raise ValueError("empty bound table")
        return bvals[min(n, len(bvals)) - 1]

    by_name: dict = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)

    r = params.get("decay_index")
    eps = None if params.get("margin") is None else Fraction(params["margin"])
    s = params.get("agreement_index")
    m = params.get("block_length")

    if r is not None:
        if eps != Fraction(1, r):
            fail(f"margin {eps} != 1/{r}")
        else:
            note(f"margin = 1/{r} exactly")

    # -- replay exact search checks ---------------------------------------
    # the margin factors, made once: Fraction arithmetic is a large part
    # of a replay (a null margin makes every scaling below a TypeError)
    up, half_up, down = (None, None, None) if eps is None else \
        (1 + eps, 1 + eps / 2, 1 - eps)

    def replay_exact(c: CheckRecord) -> Optional[bool]:
        n = c.index
        try:
            if c.name == "event_decay":
                return Radical.nth_root(ef[n], n) < b_at(n).scaled(
                    Fraction(n - 1, n))
            if c.name == "bound_agreement":
                return (b_at(n).scaled(up)
                        >= Radical.nth_root(us[n], n).scaled(half_up))
            if c.name == "block_event_decay":
                return Radical.nth_root(ef[n], n) < b_at(s).scaled(down)
            if c.name == "block_growth":
                return Radical.nth_root(ds[n], n) <= b_at(s).scaled(up)
        except (IndexError, TypeError):
            return None
        return None

    exact_names = ("event_decay", "bound_agreement", "block_event_decay",
                   "block_growth")
    n_exact = 0
    for c in checks:
        if c.name not in exact_names:
            continue
        got = replay_exact(c)
        if got is None:
            fail(f"{c.name}[{c.index}] not replayable from stored counts")
        elif got != c.holds:
            fail(f"{c.name}[{c.index}] verdict mismatch: "
                 f"stored {c.holds}, replayed {got}")
        else:
            n_exact += 1
    note(f"{n_exact} exact search checks replayed")

    # -- earliest-index discipline -----------------------------------------
    if r is not None:
        decays = sorted(by_name.get("event_decay", []), key=lambda c: c.index)
        if [c.index for c in decays] != list(range(1, r + 1)):
            fail("decay search does not probe 1..r contiguously")
        elif any(c.holds for c in decays[:-1]) or not decays[-1].holds:
            fail("decay index is not the earliest hold")
        else:
            note(f"decay index {r} is the earliest")
    if s is not None:
        agrees = sorted(by_name.get("bound_agreement", []),
                        key=lambda c: c.index)
        if [c.index for c in agrees] != list(range(r, s + 1)):
            fail("agreement search does not probe r..s contiguously")
        elif any(c.holds for c in agrees[:-1]) or not agrees[-1].holds:
            fail("agreement index is not the earliest hold")
        else:
            note(f"agreement index {s} is the earliest")
    if m is not None:
        pairs: dict = {}
        for c in checks:
            if c.name in ("block_event_decay", "block_growth"):
                pairs.setdefault(c.index, {})[c.name] = c.holds
        entropy = {c.index: c for c in by_name.get("block_factor", [])}
        bad = False
        for cand in range(1, m):
            p = pairs.get(cand)
            if p is None or len(p) < 2:
                fail(f"block candidate {cand} missing from the record")
                bad = True
            elif all(p.values()):
                e = entropy.get(cand)
                if e is None or e.holds:
                    fail(f"block candidate {cand} passed its exact checks "
                         "but shows no failed contraction")
                    bad = True
        p = pairs.get(m)
        if p is None or not all(p.values()):
            fail(f"chosen block length {m} lacks passing exact checks")
            bad = True
        if not bad:
            note(f"block length {m} is the earliest workable")

    # -- replay interval checks ---------------------------------------------
    def close(a: float, b: float) -> bool:
        if a == b:
            return True
        return abs(a - b) <= _REPLAY_RTOL * max(1.0, abs(a), abs(b))

    n0 = params.get("mu_upper_index")
    a_iv = kappa = Z = ln_f = ln_S = ln_R = None
    for c in checks:
        if c.method != "interval-log":
            continue
        aux = dict(c.aux)
        if c.name in ("entropy_factor", "block_factor"):
            if eps is None:
                fail(f"{c.name}[{c.index}] has no margin to replay at")
                continue
            zeta = float(aux["split_fraction"])
            g_iv = _ln_g_interval(eps, c.index, zeta)
            val = g_iv.hi if c.name == "entropy_factor" else \
                (g_iv + Interval.from_fraction(_SLACK).log()).hi
            got = val < 0.0
            if got != c.holds:
                fail(f"{c.name}[{c.index}] interval verdict mismatch")
            elif not close(val, float(c.lhs)):
                fail(f"{c.name}[{c.index}] endpoint drift: "
                     f"stored {c.lhs}, replayed {float_repr(val)}")
            else:
                note(f"{c.name}[{c.index}] replayed")
            if c.name == "block_factor" and c.holds and c.index == m:
                ln_R = (g_iv + Interval.from_fraction(_SLACK).log()) \
                    .div_int(m)
                a_iv = Interval.point(zeta).div_int(2 * m)

    if m is not None and ln_R is not None and a_iv is not None:
        denom = (2 * m + 2) * degree ** (2 * ell + 1)
        kappa = a_iv.div_int(denom)
        ssum = sum(ds[1:2 * m + 1]) if len(ds) >= 2 * m + 1 else None
        if ssum is None:
            fail("directed counts too short for the rewiring weight")
        elif n0 is None or n0 >= len(us) or us[n0] < 1:
            fail("invalid upper-root index")
        else:
            mu_upper = log_of_count_root(us[n0], n0).exp()
            if ssum == 0:
                ln_S = Interval(float("-inf"), float("-inf"))
            else:
                Z = mu_upper.pow_int(2 * ell).scale_int(2 * ell) \
                    * Interval.from_int(ssum)
                ln_f = -(Z.recip().log1p())
                ln_S = kappa * ln_f
            stored = params.get("ln_rewiring_ratio")
            if stored is not None and not close(ln_S.hi, float(stored)):
                fail(f"ln rewiring ratio drift: stored {stored}, "
                     f"replayed {float_repr(ln_S.hi)}")
            stored_R = params.get("ln_entropy_ratio")
            if stored_R is not None and not close(ln_R.hi, float(stored_R)):
                fail(f"ln entropy ratio drift: stored {stored_R}, "
                     f"replayed {float_repr(ln_R.hi)}")
            ln_final = max(ln_R.hi, ln_S.hi)
            stored_F = params.get("ln_ratio_bound")
            if stored_F is not None and not close(ln_final, float(stored_F)):
                fail("ln final bound drift")
            if status == "certified":
                if not ln_final < 0.0:
                    fail("claimed certified but replayed bound is not < 1")
                else:
                    note(f"final ratio bound replayed: "
                         f"ln = {float_repr(ln_final)} < 0")
    elif status == "certified":
        fail("claimed certified but contraction data incomplete")

    # -- status consistency ---------------------------------------------------
    if status == "certified":
        sel = [c for c in checks
               if c.name in ("entropy_factor", "block_factor") and
               c.index == m] + \
              [c for c in checks if c.name.startswith("rewiring")] + \
              [c for c in checks if c.name == "final_ratio"]
        if not all(c.holds for c in sel):
            fail("certified status but a selected-chain check is false")
    elif status != "inconclusive-budget":
        fail(f"unknown status {status!r}")

    return VerifyReport(ok, status, lines)
