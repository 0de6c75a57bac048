"""The ratio certificate pipeline: searches, contractions, replay."""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sawkit import certificate
from sawkit.bounds import LowerBoundSequence, bridge_bounds
from sawkit.certificate import (CertificateError, CheckRecord,
                                NoContractionError, RatioCertificate, _BLOCK,
                                _FLOAT_PARAMETERS, _Inputs, _count_fault,
                                _earliest_fault,
                                certify_ratio, compute_R, compute_S,
                                find_epsilon_m, verify_certificate)
from sawkit.cli import run
from sawkit.events import build_cycle_family
from sawkit.exact import Interval, float_repr
from sawkit.graphs import catalog
from sawkit.quotient import build_quotient, sublattice_action

UNIT_BOUND = LowerBoundSequence.from_constant(1, "zd(1)")
WEAK_BOUND = LowerBoundSequence.from_constant(Fraction(9, 10), "zd(1)")


@pytest.fixture(scope="module")
def golden(z1, q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    return certify_ratio(z1, q_z1mod3, fam, UNIT_BOUND, budget=10)


def test_search_golden_parameters(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    out = find_epsilon_m(q_z1mod3, fam, UNIT_BOUND, n_budget=10)
    assert out.status == "found"
    assert (out.r, out.epsilon, out.s, out.m) == (2, Fraction(1, 2), 4, 2)
    # the series the searches consumed: the unwindowed event fires as
    # soon as all three orbits are visited, so ef dies one step early
    assert out.event_free[:4] == [1, 2, 0, 0]
    assert out.directed[:4] == [1, 2, 2, 0]
    assert out.undirected[:5] == [1, 2, 2, 2, 2]


def test_search_weakened_bound(q_z1mod3):
    # a deliberately slack constant bound pushes the agreement index out
    fam = build_cycle_family(q_z1mod3)
    out = find_epsilon_m(q_z1mod3, fam, WEAK_BOUND, n_budget=12)
    assert out.status == "found"
    assert (out.r, out.s, out.m) == (2, 10, 3)


def test_search_budget_exhaustion(q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    out = find_epsilon_m(q_z1mod3, fam, WEAK_BOUND, n_budget=5)
    assert out.status == "exhausted"
    assert out.r == 2 and out.s is None
    assert "agreement" in out.reason


def test_golden_certificate(golden):
    assert golden.status == "certified"
    p = golden.payload["parameters"]
    assert p["decay_index"] == 2 and p["margin"] == "1/2"
    assert p["agreement_index"] == 4 and p["block_length"] == 2
    assert p["mu_upper_index"] == 4
    assert 0.49 < float(p["entropy_ratio"]) < 0.51
    assert 0.24 < float(p["block_factor"]) < 0.26
    assert 67.5 < float(p["rewiring_weight"]) < 68.5
    assert float(p["ln_ratio_bound"]) < 0.0
    assert float(p["ratio_bound"]) < 1.0
    # rewiring ratio within ulps of one: the ln field carries the verdict
    assert 0.999 < float(p["rewiring_ratio"]) <= 1.0
    assert float(p["ln_rewiring_ratio"]) < 0.0
    # mu_upper is the exact 4th root of sigma_4 = 2, rounded outward
    assert abs(float(p["mu_upper"]) - 2 ** 0.25) < 1e-12


def test_golden_certificate_replays(golden):
    rep = verify_certificate(golden)
    assert rep.ok and rep.status == "certified"
    assert rep.summary().startswith("verified: certified")
    assert not any(line.startswith("FAIL") for line in rep.lines)


def test_byte_determinism(z1, q_z1mod3, golden):
    fam = build_cycle_family(q_z1mod3)
    again = certify_ratio(z1, q_z1mod3, fam, UNIT_BOUND, budget=10)
    assert again.to_json() == golden.to_json()


def test_save_load_round_trip(golden, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(golden.to_json(), encoding="utf-8")
    loaded = RatioCertificate.load(str(path))
    assert loaded.payload == golden.payload
    assert verify_certificate(loaded).ok


def test_zero_directed_growth_gives_zero_rewiring_ratio(z1):
    q1 = build_quotient(z1, sublattice_action([[1]]))
    fam = build_cycle_family(q1)
    cert = certify_ratio(z1, q1, fam, UNIT_BOUND, budget=10)
    assert cert.status == "certified"
    p = cert.payload["parameters"]
    assert p["rewiring_ratio"] == "0"
    assert float(p["ln_rewiring_ratio"]) == float("-inf")
    assert 0.49 < float(p["ratio_bound"]) < 0.51     # entropy side dominates
    assert verify_certificate(cert).ok


def test_inconclusive_certificate(z1, q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    cert = certify_ratio(z1, q_z1mod3, fam, WEAK_BOUND, budget=5)
    assert cert.status == "inconclusive-budget"
    assert "agreement" in cert.payload["reason"]
    assert cert.payload["parameters"].get("ratio_bound") is None
    rep = verify_certificate(cert)       # consistent, just not a proof
    assert rep.ok and rep.status == "inconclusive-budget"

    empty = certify_ratio(z1, q_z1mod3, fam, UNIT_BOUND, budget=0)
    assert empty.status == "inconclusive-budget"
    assert "budget is zero" in empty.payload["reason"]


def _parameter(x, m, key):
    """The stored float parameter ``key`` of the chain x at block length m."""
    return _FLOAT_PARAMETERS[key](x, m)


def test_compute_R_golden_values():
    x = _Inputs(eps=Fraction(1, 2))
    records = compute_R(x, 2)
    assert x.ln_block(2).hi < 0 and x.ln_R(2).hi < 0
    assert 0.24 < _parameter(x, 2, "block_factor") < 0.26
    assert 0.49 < _parameter(x, 2, "entropy_ratio") < 0.51
    assert x.zeta == pytest.approx(1e-9)
    assert _parameter(x, 2, "occurrence_density") == pytest.approx(x.zeta / 4)
    assert all(rec.holds for rec in records)


def test_compute_R_no_contraction():
    # a margin so tiny that the m*ln(1-eps) shrink cannot beat the
    # binary-entropy term anywhere on the split-fraction domain
    with pytest.raises(NoContractionError) as ei:
        compute_R(_Inputs(eps=Fraction(1, 10 ** 10)), 1)
    records = ei.value.args[1]
    assert any(not rec.holds for rec in records)


def test_split_fraction_is_a_grid_minimum():
    # the chosen split fraction should be at least as good as a fine
    # float grid over the whole domain (the factor is endpoint-minimal):
    # ln_g is a float copy of the entropy factor, kept as the oracle
    grid = [10 ** -9 + i * (1 - 2e-9) / 4096 for i in range(4097)]
    for r in (2, 3, 13, 1000, 10 ** 6):
        for m in (1, 2, 7, 100):
            eps = Fraction(1, r)
            c1 = m * math.log(float((1 + eps) / (1 - eps)))
            c2 = m * math.log(float(1 - eps))

            def ln_g(z):
                return -z * math.log(z) - (1 - z) * math.log1p(-z) \
                    + z * c1 + c2

            x = _Inputs(eps=eps)
            compute_R(x, m)
            assert ln_g(x.zeta) <= min(ln_g(z) for z in grid) + 1e-12, \
                (r, m)


@pytest.mark.parametrize("zeta,budget,status,reason,failed_m", [
    # at 0.5 the entropy factor fails at m = 2, 3 and 4 and holds at
    # m = 5; at 5e-324 the occurrence density underflows, so the
    # rewiring exponent is not verified positive
    (0.5, 10, "certified", None, [2, 3, 4]),
    (0.5, 4, "inconclusive-budget",
     "no block length with entropy contraction within budget 4", [2, 3, 4]),
    (5e-324, 10, "inconclusive-budget", "rewiring factor not below one",
     []),
])
def test_contraction_failures_verify(z1, q_z1mod3, monkeypatch, zeta,
                                     budget, status, reason, failed_m):
    # a split fraction other than the endpoint minimum reaches the
    # branches of certify_ratio that follow a failed contraction, and
    # the verifier agrees with each certificate they give
    monkeypatch.setattr(certificate, "_ZETA_LO", zeta)
    cert = certify_ratio(z1, q_z1mod3, build_cycle_family(q_z1mod3),
                         UNIT_BOUND, budget=budget)
    assert (cert.status, cert.payload["reason"]) == (status, reason)
    assert sorted({c["index"] for c in cert.payload["checks"]
                   if c["name"] == "entropy_factor" and not c["holds"]}) \
        == failed_m
    rep = verify_certificate(cert)
    assert rep.ok and rep.status == status, rep.summary()


def _rewiring_inputs(ds):
    """Inputs at margin 1/2 for the rewiring side: degree 2, cycle
    length 3, directed counts ``ds`` and the upper root 2**(1/4)."""
    return _Inputs(eps=Fraction(1, 2), degree=2, ell=3, ds=ds,
                   mu_upper=Interval.point(2 ** 0.25))


def test_compute_S_golden_values():
    x = _rewiring_inputs([1, 2, 2, 0, 0])
    compute_R(x, 2)
    compute_S(x, 2)
    Z, _, ln_S = x.rewiring(2)
    # Z = 6 * mu^6 * (2+2+0+0) = 24 * 2^(3/2)
    assert Z.lo == pytest.approx(24 * 2 ** 1.5, rel=1e-12)
    assert _parameter(x, 2, "rewiring_fraction") == \
        pytest.approx(1 / (1 + 24 * 2 ** 1.5), rel=1e-9)
    assert ln_S.hi < 0 and 0 < _parameter(x, 2, "rewiring_ratio") <= 1.0
    assert x.kappa(2).lo > 0


def test_rewiring_fraction_matches_numeric_minimizer():
    # closed-form eta = 1/(1+Z) against scipy's bounded minimizer of the
    # convex objective eta*ln(Z) + eta*ln(eta) + (1-eta)*ln(1-eta)
    Z = 24 * 2 ** 1.5
    lnZ = math.log(Z)

    def objective(eta):
        return eta * lnZ + eta * math.log(eta) + (1 - eta) * math.log1p(-eta)

    res = scipy.optimize.minimize_scalar(objective, bounds=(1e-12, 1 - 1e-12),
                                         method="bounded",
                                         options={"xatol": 1e-10})
    assert res.x == pytest.approx(1 / (1 + Z), rel=1e-5)
    assert res.fun == pytest.approx(-math.log1p(1 / Z), abs=1e-12)


def test_compute_S_misuse():
    x = _rewiring_inputs([1, 2])
    compute_R(x, 2)
    with pytest.raises(CertificateError):
        compute_S(x, 2)                                       # too short
    x.ds = [1, 2, 2, 0, 0]
    with pytest.raises(CertificateError):
        compute_S(x, 0)


def test_certify_ratio_misuse(z2, q_z1mod3):
    fam = build_cycle_family(q_z1mod3)
    with pytest.raises(CertificateError):
        certify_ratio(z2, q_z1mod3, fam, UNIT_BOUND, budget=5)
    with pytest.raises(CertificateError):
        certify_ratio(catalog("zd(1)"), q_z1mod3, fam, UNIT_BOUND, budget=-1)


# -- tamper detection --------------------------------------------------------

def _tampered(golden, mutate):
    payload = json.loads(golden.to_json())
    mutate(payload)
    return RatioCertificate(payload)


def test_tampered_count_is_caught(golden):
    def flip(p):
        p["counts"]["event_free"][2] = str(int(p["counts"]["event_free"][2]) + 1)
    rep = verify_certificate(_tampered(golden, flip))
    assert not rep.ok
    assert any("verdict mismatch" in line for line in rep.lines)


def test_tampered_verdict_is_caught(golden):
    def flip(p):
        for c in p["checks"]:
            if c["name"] == "event_decay" and not c["holds"]:
                c["holds"] = True
                return
    rep = verify_certificate(_tampered(golden, flip))
    assert not rep.ok


def test_tampered_index_is_caught(golden):
    def forge(p):
        p["parameters"]["decay_index"] = 3
    rep = verify_certificate(_tampered(golden, forge))
    assert not rep.ok
    assert any("margin" in line for line in rep.lines if "FAIL" in line)


def test_dropped_probe_is_caught(golden):
    def drop(p):
        for i, c in enumerate(p["checks"]):
            if c["name"] == "event_decay":
                del p["checks"][i]
                return
    rep = verify_certificate(_tampered(golden, drop))
    assert not rep.ok
    assert any("contiguously" in line for line in rep.lines)


def test_forged_final_bound_is_caught(golden):
    def forge(p):
        p["parameters"]["ln_ratio_bound"] = "-1"
    rep = verify_certificate(_tampered(golden, forge))
    assert not rep.ok
    assert any("drift" in line for line in rep.lines)


def test_unknown_format_is_rejected(golden):
    def forge(p):
        p["format"] = "something-else"
    rep = verify_certificate(_tampered(golden, forge))
    assert not rep.ok


# anything but the integer version, a boolean or a missing field included
@pytest.mark.parametrize("version", [999, "1", [1], True, "missing"])
def test_unknown_version_is_rejected(golden, version):
    def forge(p):
        if version == "missing":
            del p["version"]
        else:
            p["version"] = version
    rep = verify_certificate(_tampered(golden, forge))
    assert not rep.ok and rep.status == "certified"
    shown = None if version == "missing" else version
    assert rep.lines == [f"FAIL unknown version {shown!r}"]


def test_check_record_round_trip():
    rec = CheckRecord("event_decay", 3, "0", "2/3", True, "exact-root",
                      (("split_fraction", "0.5"),))
    assert CheckRecord.from_json(rec.to_json()) == rec


# -- malformed load-bearing parameters ---------------------------------------

LOAD_BEARING = ("margin", "decay_index", "agreement_index", "block_length",
                "mu_upper_index")


@pytest.fixture(scope="module")
def ladder_cert(ladder):
    q = build_quotient(ladder, sublattice_action([[3]]))
    b = LowerBoundSequence.from_constant(Fraction("1.61"), ladder.graph_id,
                                         provenance="mu-exact")
    cert = certify_ratio(ladder, q, build_cycle_family(q), b, budget=30)
    assert cert.status == "certified"
    return cert


@pytest.mark.parametrize("field", LOAD_BEARING)
def test_nulled_parameter_is_a_contradiction(ladder_cert, field, tmp_path,
                                             capsys):
    def null(p):
        p["parameters"][field] = None
    bad = _tampered(ladder_cert, null)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert rep.summary().startswith("CONTRADICTION: certified")
    assert any(field in line for line in rep.lines if "FAIL" in line)
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json(), encoding="utf-8")
    assert run(["verify", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out.startswith("CONTRADICTION") and "Traceback" not in out.err


@pytest.mark.parametrize("field,value", [
    ("margin", 0.5), ("margin", "one half"), ("margin", [1, 2]),
    ("decay_index", "2"), ("decay_index", 0), ("agreement_index", 2.0),
    ("block_length", True), ("mu_upper_index", -1)])
def test_mistyped_parameter_is_a_contradiction(ladder_cert, field, value):
    def forge(p):
        p["parameters"][field] = value
    rep = verify_certificate(_tampered(ladder_cert, forge))
    assert not rep.ok
    assert any(f"parameters.{field}" in line for line in rep.lines)


def test_genuine_report_is_unchanged(ladder_cert, golden):
    # well-formed parameters add no report line
    for cert in (ladder_cert, golden):
        rep = verify_certificate(cert)
        assert rep.ok
        assert not any("parameters" in line for line in rep.lines)


# -- a total verifier: malformed fields are FAIL lines, never exceptions -----

def _fails_once(rep, text):
    fails = [line for line in rep.lines if line.startswith("FAIL")]
    assert not rep.ok and len(fails) == 1 and text in fails[0], rep.lines


def _interval_check(p):
    return next(c for c in p["checks"] if c["name"] == "entropy_factor")


@pytest.fixture(scope="module")
def zd1_bridges_cert(z1, q_z1mod3):
    _, b = bridge_bounds(1, 10, workers=1)
    return certify_ratio(z1, q_z1mod3, build_cycle_family(q_z1mod3), b,
                         budget=10, workers=1)


@pytest.fixture(scope="module")
def zd2_bridges_cert(z2, q_z2mod22):
    _, b = bridge_bounds(2, 12, workers=1)
    return certify_ratio(z2, q_z2mod22, build_cycle_family(q_z2mod22), b,
                         budget=12, workers=1)


def _on(cert, edit):
    """``edit`` applied to the certificate of fixture ``cert`` instead of
    the ladder's."""
    edit.cert = cert
    return edit


def _bound_table(edit):
    def mutate(p):
        p["counts"]["lower_bound"] = edit(p["counts"]["lower_bound"])
    return mutate


# the labels of a bridge table shifted by +5, and its n = 1 entry dropped
_LABELS_PLUS_5 = _bound_table(lambda t: [dict(e, n=e["n"] + 5) for e in t])
_FIRST_DROPPED = _bound_table(lambda t: t[1:])
_FIRST_DROPPED_RELABELLED = _bound_table(
    lambda t: [dict(e, n=e["n"] - 1) for e in t[1:]])


@pytest.mark.parametrize("mutate,text", [
    (lambda p: _interval_check(p).pop("aux"), "split_fraction"),
    (lambda p: _interval_check(p).update(aux=["split_fraction"]),
     "not a check record"),
    (lambda p: _interval_check(p)["aux"].update(split_fraction="half"),
     "split_fraction"),
    (lambda p: _interval_check(p)["aux"].update(split_fraction="0"),
     "split_fraction"),
    (lambda p: _interval_check(p).update(lhs="x"), ".lhs"),
    (lambda p: p["parameters"].update(ln_rewiring_ratio="x"),
     "ln_rewiring_ratio"),
    (lambda p: p["parameters"].update(margin="1"), "margin"),
    (lambda p: p["checks"][0].update(index=0), ".index"),
    (lambda p: p["checks"][0].update(name=None), "checks[0]"),
    (lambda p: p.update(degree=0), "degree"),
    (lambda p: p.update(cycle_length=10 ** 7), "cycle_length"),
    (lambda p: p.update(cycle_length=10 ** 400), "cycle_length = 1000"),
    (lambda p: p.update(degree=10 ** 400), "degree = 1000"),
    (lambda p: p["counts"]["directed"].__setitem__(1, "1" + "0" * 400),
     "counts.directed[1]"),
    (lambda p: p["parameters"].update(block_length=10 ** 7),
     "block_length"),
    pytest.param(lambda p: p["checks"][0].update(index=1.9),
                 "checks[0] is not a check record", id="index-float"),
    pytest.param(lambda p: p["checks"][0].update(index="1"),
                 "checks[0] is not a check record", id="index-string"),
    pytest.param(lambda p: p["checks"][0].update(index=True),
                 "checks[0] is not a check record", id="index-bool"),
    pytest.param(lambda p: p["checks"][0].update(holds=0),
                 "checks[0] is not a check record", id="holds-int"),
    pytest.param(lambda p: p["checks"][0].update(holds=[]),
                 "checks[0] is not a check record", id="holds-list"),
    pytest.param(lambda p: p["checks"][0].update(holds="false"),
                 "checks[0] is not a check record", id="holds-string"),
    pytest.param(lambda p: p["checks"].append(dict(p["checks"][0],
                                                   name="made_up")),
                 "made_up[1] is not a known check", id="unknown-name"),
    pytest.param(lambda p: _interval_check(p).update(method="exact-root"),
                 "entropy_factor[4] method 'exact-root' is not",
                 id="entropy-method-exact"),
    pytest.param(lambda p: _interval_check(p).update(method="interval"),
                 "entropy_factor[4] method 'interval' is not",
                 id="entropy-method-other"),
    pytest.param(_on("zd1_bridges_cert", _LABELS_PLUS_5),
                 "counts.lower_bound", id="zd1-bound-labels-plus-5"),
    pytest.param(_on("zd1_bridges_cert", _FIRST_DROPPED),
                 "counts.lower_bound", id="zd1-bound-first-dropped"),
    pytest.param(_on("zd2_bridges_cert", _LABELS_PLUS_5),
                 "counts.lower_bound", id="zd2-bound-labels-plus-5"),
    pytest.param(_on("zd2_bridges_cert", _FIRST_DROPPED),
                 "counts.lower_bound", id="zd2-bound-first-dropped"),
])
def test_malformed_field_is_one_fail_line(request, mutate, text, tmp_path,
                                          capsys):
    cert = request.getfixturevalue(getattr(mutate, "cert", "ladder_cert"))
    bad = _tampered(cert, mutate)
    _fails_once(verify_certificate(bad), text)
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json(), encoding="utf-8")
    assert run(["verify", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out.startswith("CONTRADICTION") and "Traceback" not in out.err


def test_relabelled_bound_table_is_read_by_its_labels(zd1_bridges_cert,
                                                      zd2_bridges_cert):
    # dropping n = 1 and relabelling the rest n - 1 gives a well-labelled
    # table.  On Z^2 the entry now labelled 2 is a cube root, above the
    # index its label allows; on Z the bridge roots are all 1, so every
    # value a check reads is unchanged and the certificate is the same
    # proof.
    rep = verify_certificate(_tampered(zd2_bridges_cert,
                                       _FIRST_DROPPED_RELABELLED))
    _fails_once(rep, "counts.lower_bound[1] is neither a rational nor a "
                "root of index at most 2")
    # each entry moved one label up stays within its label's index, and
    # every check that reads a moved value fails
    rep = verify_certificate(_tampered(zd2_bridges_cert, _bound_table(
        lambda t: [dict(e, n=n) for n, e in enumerate(t[:1] + t[:-1], 1)])))
    assert not rep.ok
    assert any("event_decay[2] value mismatch" in line for line in rep.lines)
    rep = verify_certificate(_tampered(zd1_bridges_cert,
                                       _FIRST_DROPPED_RELABELLED))
    assert rep.ok, rep.lines


# -- every record pinned: counts read, values, names, methods ----------------

def _read_counts(payload):
    """(series, n) for every count a stored check of the payload reads:
    undirected[r..s], event_free[1..max(r, m)] and directed[1..2m]."""
    p = payload["parameters"]
    r, s, m = p["decay_index"], p["agreement_index"], p["block_length"]
    return ([("undirected", n) for n in range(r, s + 1)]
            + [("event_free", n) for n in range(1, max(r, m) + 1)]
            + [("directed", n) for n in range(1, 2 * m + 1)])


def test_every_count_a_check_reads_is_pinned(ladder_cert):
    read = _read_counts(ladder_cert.payload)
    assert len(read) == 22
    missed = []
    for key, n in read:
        for delta in (1, -1):
            def edit(p):
                p["counts"][key][n] = str(int(p["counts"][key][n]) + delta)
            rep = verify_certificate(_tampered(ladder_cert, edit))
            if rep.ok or not rep.summary().startswith("CONTRADICTION"):
                missed.append((key, n, delta))
    assert missed == []


def _records(payload, names):
    return [i for i, c in enumerate(payload["checks"]) if c["name"] in names]


def _changed(record):
    """Other values for a record's lhs: half an interval endpoint or
    -inf, or an exact side written with one more factor."""
    if record["method"] == "interval-log":
        return [float_repr(float(record["lhs"]) / 2), "-inf"]
    return [record["lhs"] + "*1"]


REWIRING_AND_FINAL = ("rewiring_exponent_positive", "rewiring_factor",
                      "rewiring_contraction", "final_ratio")
EXACT = ("event_decay", "bound_agreement", "block_event_decay",
         "block_growth")


@pytest.mark.parametrize("names", [REWIRING_AND_FINAL, EXACT],
                         ids=["rewiring-and-final", "exact"])
def test_changed_lhs_is_caught(ladder_cert, names):
    # each edit keeps the verdict, so only the replayed value catches it
    indices = _records(ladder_cert.payload, names)
    assert len(indices) >= len(names)
    for i, lhs in ((i, lhs) for i in indices
                   for lhs in _changed(ladder_cert.payload["checks"][i])):
        def edit(p):
            p["checks"][i]["lhs"] = lhs
        rep = verify_certificate(_tampered(ladder_cert, edit))
        name = ladder_cert.payload["checks"][i]["name"]
        assert not rep.ok, (i, name, lhs)
        assert any(line.startswith(f"FAIL {name}[")
                   and "value mismatch" in line for line in rep.lines), \
            rep.lines


def test_later_decay_index_is_not_the_earliest(ladder_cert):
    # ladder/3 first holds at r = 4; a claimed r = 5 whose probes run to
    # 5 is not the earliest
    def later(p):
        assert p["checks"][3]["name"] == "event_decay"
        p["parameters"].update(decay_index=5, margin="1/5")
        p["checks"].insert(4, dict(p["checks"][3], index=5))
    rep = verify_certificate(_tampered(ladder_cert, later))
    assert not rep.ok
    assert "FAIL decay index 5 is not the earliest: 4 holds" in rep.lines


def _probe(name, n, holds):
    return CheckRecord(name, n, "", "", holds, "exact-root")


def test_block_search_moves_on_only_past_a_failed_contraction():
    passing = [_probe(name, n, True) for n in (1, 2) for name in _BLOCK.names]
    assert _earliest_fault(_BLOCK, passing, 1, 2) == \
        "block length 2 is not the earliest: 1 holds"
    failed = [_probe("entropy_factor", 1, True),
              _probe("block_factor", 1, False)]
    assert _earliest_fault(_BLOCK, passing + failed, 1, 2) is None
    assert _earliest_fault(_BLOCK, passing[:3], 1, 2) == \
        "block length search does not probe 1..2 contiguously"
    last_fails = passing[:3] + [_probe("block_growth", 2, False)]
    assert _earliest_fault(_BLOCK, failed + last_fails, 1, 2) == \
        "block length 2 does not hold"


@pytest.mark.parametrize("doc", ["null", "[1, 2]", "3", '"x"'])
def test_top_level_non_object_is_one_fail_line(doc, tmp_path, capsys):
    _fails_once(verify_certificate(json.loads(doc)), "not a JSON object")
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run(["verify", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out.startswith("CONTRADICTION: ?")
    assert "Traceback" not in out.err


def _peak_bytes(fn):
    """fn's result and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_HUGE = 2 ** 70


def _huge_index(key):
    def edit(p):
        p["budget"] = _HUGE
        if key == "root":
            p["counts"]["lower_bound"][0]["value"] = {
                "num": "1", "den": "1", "rad": "2", "idx": _HUGE}
        else:
            p["parameters"][key] = _HUGE
    return edit


@pytest.mark.parametrize("key,text", [
    ("decay_index", "decay index search does not probe 1.."),
    ("agreement_index", "agreement index search does not probe 2.."),
    ("block_length", "block length search does not probe 1.."),
    ("root", "counts.lower_bound[0] is neither a rational nor a root of "
             "index at most 2")])
def test_huge_index_is_a_fail_line(golden, key, text):
    # a budget of 2**70 lets an index that large through the range checks;
    # the verifier must not build lo..index or compare a 2**70-th root
    bad = _tampered(golden, _huge_index(key))
    rep, peak = _peak_bytes(lambda: verify_certificate(bad))
    assert not rep.ok and rep.status == "certified"
    assert any(line.startswith("FAIL " + text) for line in rep.lines), \
        rep.lines
    assert peak < 4 * 2 ** 20


def test_huge_degree_with_long_zero_series_is_a_verdict(golden):
    # degree**(2*1+1) is inside the float range, but degree**n for every
    # n up to 20 000 would take gigabytes
    def forge(p):
        p.update(degree=2 ** 300, cycle_length=1)
        p["counts"]["undirected"] = ["0"] * 20000
    bad = _tampered(golden, forge)
    assert len(bad.to_json()) > 100_000
    rep, peak = _peak_bytes(lambda: verify_certificate(bad))
    assert not rep.ok and any(line.startswith("FAIL") for line in rep.lines)
    assert peak < 4 * 2 ** 20


def test_count_fault_checks_each_count_against_its_power():
    # degree 2: counts far past any small power, exact at the boundary
    counts = [2 ** n for n in range(300)]
    assert _count_fault(counts, 2) is None
    assert _count_fault(counts[:10], 2) is None
    for n, bad in ((280, 2 ** 280 + 1), (299, -1), (3, 9), (0, 2)):
        assert _count_fault(counts[:n] + [bad] + counts[n + 1:], 2) == n
    assert _count_fault([1, 6, 30, 150, 726], 6) is None
    assert _count_fault([1, 6, 36, 217], 6) == 3
    assert _count_fault([1, 7], 6) == 1
    assert _count_fault([], 6) is None


def test_big_roots_at_large_labels_are_a_fail_line(golden):
    # two entries at labels 999 and 1000: a 1000-bit numerator would make
    # their comparison raise it to the power lcm(999, 1000), and a radicand
    # past degree**label does the same through the radicand
    def table(num, rad):
        def edit(p):
            t = p["counts"]["lower_bound"]
            top = dict(t[-1], value=dict(t[-1]["value"]))
            t[:] = t + [dict(top, n=n) for n in range(len(t) + 1, 1001)]
            for e in t[-2:]:
                e["value"] = {"num": str(num), "den": "1", "rad": str(rad),
                              "idx": e["n"]}
        return edit
    for num, rad in ((2 ** 1000 + 1, 3), (1, 2 ** 2500 + 1)):
        bad = _tampered(golden, table(num, rad))
        rep, peak = _peak_bytes(lambda: verify_certificate(bad))
        assert not rep.ok and rep.status == "certified"
        _fails_once(rep, "counts.lower_bound[998] is neither a rational nor "
                    "a root of index at most 999")
        assert peak < 4 * 2 ** 20


def _field_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _field_paths(value, path + (key,))


_DELETE = object()
_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(),
    st.integers(-10 ** 9, 10 ** 9),
    st.sampled_from([0, -1, 10 ** 7, 10 ** 400, "1" + "0" * 400, "1e400",
                     "nan", "-inf", "0", "-1", "10000000", "", "x"]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


def _mutated(payload, path, value):
    """The payload with the field at ``path`` set to ``value`` (deleted
    for _DELETE); the empty path is the whole document."""
    if not path:
        return None if value is _DELETE else value
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


def _assert_verdict(payload):
    """The verifier gives the payload a verdict, and the CLI the same
    verdict as an exit code, with no traceback."""
    rep = verify_certificate(payload)
    assert rep.ok in (True, False)
    text = json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "cert.json")
        with open(cert, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["verify", cert])
    assert code == (4 if not rep.ok else
                    0 if rep.status == "certified" else 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_single_field_mutations_never_raise(ladder_cert, data):
    payload = json.loads(ladder_cert.to_json())
    path = data.draw(st.sampled_from(list(_field_paths(payload))))
    _assert_verdict(_mutated(payload, path, data.draw(_VALUES)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_several_field_mutations_never_raise(ladder_cert, data):
    # each later path is drawn from the document the earlier edits left
    payload = json.loads(ladder_cert.to_json())
    for _ in range(data.draw(st.integers(2, 4))):
        path = data.draw(st.sampled_from(list(_field_paths(payload))))
        payload = _mutated(payload, path, data.draw(_VALUES))
    _assert_verdict(payload)


FLOAT_PARAMETERS = ("split_fraction", "block_factor", "occurrence_density",
                    "entropy_ratio", "ln_entropy_ratio", "rewiring_exponent",
                    "rewiring_weight", "rewiring_fraction", "rewiring_ratio",
                    "ln_rewiring_ratio", "mu_upper", "ratio_bound",
                    "ln_ratio_bound")


@pytest.mark.parametrize("field", FLOAT_PARAMETERS)
def test_changed_float_parameter_is_a_contradiction(ladder_cert, field):
    params = ladder_cert.payload["parameters"]
    assert set(params) == set(LOAD_BEARING + FLOAT_PARAMETERS)
    stored = float(params[field])

    def change(p):
        p["parameters"][field] = "0.5" if stored in (0.0, 1.0) else \
            float_repr(2 * stored)
    rep = verify_certificate(_tampered(ladder_cert, change))
    assert rep.summary().startswith("CONTRADICTION: certified")
    assert any(line.startswith(f"FAIL parameters.{field} drift")
               for line in rep.lines), rep.lines
