import hashlib

import pytest

from secpred import (
    PolicyParams,
    THEOREM_COSP_PARAMS as P,
    THEOREM_ROSP_PARAMS as Q,
    certify,
    certify_cell,
    report_to_json,
)
from secpred.analytic import prediction_floor
from secpred.certify import (
    CaseBound,
    entry_bound,
    iter_entries,
    iter_small_cells,
    small_cell_count,
)
from secpred.core import CaseProfile


def test_cell_000_only_case6():
    bounds = certify_cell("cosp", P, CaseProfile(0, 0, 0))
    assert [b.case_id for b in bounds] == ["C6"]
    assert bounds[0].value == pytest.approx(prediction_floor(P.theta), abs=1e-15)


def test_cell_100_case1_only():
    bounds = certify_cell("cosp", P, CaseProfile(1, 0, 0))
    assert [b.case_id for b in bounds] == ["C1"]
    assert bounds[0].value == pytest.approx(P.gamma, abs=1e-15)


def test_cell_211_four_bounds():
    bounds = certify_cell("cosp", P, CaseProfile(2, 1, 1))
    assert sorted(b.case_id for b in bounds) == ["C1", "C4", "C5", "C6"]
    assert all(b.value >= 0.262 for b in bounds)


def test_cell_count_closed_form():
    assert small_cell_count(20, 20) == sum(
        1 for _ in iter_small_cells(20, 20)
    )
    report = certify("cosp", P, 0.262, thresholds=(5, 5))
    assert report.cells_checked == small_cell_count(5, 5) + 7


def test_cosp_certification_passes():
    report = certify("cosp", P, 0.262)
    assert report.passed
    assert report.min_value - report.margin >= 0.262


def test_rosp_certification_passes():
    report = certify("rosp", Q, 0.221)
    assert report.passed


def test_gamma_zero_fails():
    params = PolicyParams(theta=0.58, tau=0.37, gamma=0.0, delta=0.46, beta=0.64)
    report = certify("cosp", params, 0.262)
    assert not report.passed
    assert report.argmin.case_id == "C1"
    assert report.argmin.m == 1


def test_tightness_failure_names_cell():
    report = certify("cosp", P, 0.29, thresholds=(8, 8))
    assert not report.passed
    a = report.argmin
    assert a.case_id in {"C0", "C1", "C4", "C5", "C6"}
    assert a.m is not None or a.regime != "exact"


def test_bounds_not_vacuously_loose():
    # raising B by 0.02 beyond each theorem constant must fail
    assert not certify("cosp", P, 0.262 + 0.02, thresholds=(8, 8)).passed
    assert not certify("rosp", Q, 0.221 + 0.02, thresholds=(8, 8)).passed


GAMMA_ZERO = PolicyParams(theta=0.58, tau=0.37, gamma=0.0, delta=0.46, beta=0.64)


@pytest.mark.parametrize(
    "model,params,target_b",
    [("cosp", P, 0.262), ("cosp", P, 0.29), ("cosp", GAMMA_ZERO, 0.262), ("rosp", Q, 0.221)],
)
def test_single_pass_matches_enumeration_minimum(model, params, target_b):
    # every entry evaluated on its own, with no shared point or running minimum
    thresholds = (6, 6)
    bounds = [CaseBound("C0", prediction_floor(params.theta), "analytic", None, None, None)]
    for entry in iter_entries(model, *thresholds):
        case_id, regime, m, k, m2 = entry
        value = entry_bound(model, entry, params, thresholds)
        bounds.append(CaseBound(f"C{case_id}", value, regime, m, k, m2))
    report = certify(model, params, target_b, thresholds=thresholds)
    assert report.argmin == min(bounds, key=CaseBound.sort_key)
    assert report.min_value == report.argmin.value
    feasible = [r for r in report.regimes if r["feasible"]]
    assert len(feasible) == 5
    for regime in feasible:
        best = min((b for b in bounds if b.regime == regime["label"]), key=CaseBound.sort_key)
        assert (regime["min_value"], regime["min_case"]) == (best.value, best.case_id)


@pytest.mark.parametrize(
    "model,params,target_b,digest",
    [
        ("cosp", P, 0.262, "827d3d3c59513de1043a4124baa3bb63ed0ead43c083d4d50ebfd152c2c8b1de"),
        ("rosp", Q, 0.221, "a960e7148502b31aac8622b088ac37623df57e47762d518b3c7a3954e86cc77f"),
    ],
)
def test_certificate_bytes_pinned(model, params, target_b, digest):
    text = report_to_json(certify(model, params, target_b, thresholds=(20, 20)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_json_stable():
    a = report_to_json(certify("cosp", P, 0.262, thresholds=(6, 6)))
    b = report_to_json(certify("cosp", P, 0.262, thresholds=(6, 6)))
    assert a == b
    import json

    obj = json.loads(a)
    assert list(obj) == [
        "model", "params", "B", "passed", "min_value", "argmin", "margin",
        "cells_checked", "thresholds", "case0_value", "regimes",
    ]
    assert obj["passed"] is True
    assert len(obj["regimes"]) == 7
    infeasible = [r for r in obj["regimes"] if not r["feasible"]]
    assert len(infeasible) == 2  # (m2 large, m small) patterns are empty


def test_precondition_errors():
    with pytest.raises(ValueError):
        certify("cosp", PolicyParams(theta=0.5, tau=0.5, gamma=0.3, delta=0.4, beta=0.4), 0.2)
    with pytest.raises(ValueError):
        certify("cosp", P, 1.5)
    with pytest.raises(ValueError):
        certify("cosp", P, 0.2, thresholds=(0, 5))
    with pytest.raises(ValueError, match="tau > 0"):
        certify("cosp", PolicyParams(theta=0.5, tau=0.0, gamma=0.3, delta=0.4, beta=0.4), 0.2)
    with pytest.raises(ValueError, match="tau > 0"):
        certify("rosp", PolicyParams(theta=0.5, tau=0.0, gamma=0.3, delta=0.4), 0.2)
