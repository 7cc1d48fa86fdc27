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
from secpred.certify import iter_small_cells, small_cell_count
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


def test_parallel_matches_serial():
    serial = certify("rosp", Q, 0.221, thresholds=(6, 6), threads=1)
    parallel = certify("rosp", Q, 0.221, thresholds=(6, 6), threads=3)
    assert serial.min_value == parallel.min_value
    assert serial.argmin == parallel.argmin


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
