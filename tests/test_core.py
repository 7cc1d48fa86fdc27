import json
import sys

import numpy as np
import pytest

from secpred import (
    CaseProfile,
    PolicyParams,
    Schedule,
    build_instance,
    case_profile,
    load_instance,
    mistake_set,
)
from secpred.core import dump_instance


def test_single_candidate_exact_prediction():
    inst = build_instance([10], [10])
    assert inst.epsilon == 0
    assert inst.top_predicted_index == inst.top_true_index == 0
    assert inst.top_true_value == 10


def test_identity_predictions():
    inst = build_instance([1, 2, 3], [1, 2, 3])
    assert inst.epsilon == 0
    assert inst.top_predicted_index == inst.top_true_index == 2


def test_epsilon_direct_evaluation():
    inst = build_instance([100, 50], [60, 55])
    assert inst.epsilon == pytest.approx(0.4, abs=1e-12)
    assert inst.deviations == pytest.approx((0.4, 0.1), abs=1e-12)
    assert max(inst.deviations) == inst.epsilon
    assert inst.top_predicted_index == 0
    assert inst.top_true_index == 0


def test_build_errors():
    with pytest.raises(ValueError):
        build_instance([], [])
    with pytest.raises(ValueError):
        build_instance([1, 2], [1])
    with pytest.raises(ValueError):
        build_instance([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        build_instance([1.0, -1.0], [1.0, 1.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            build_instance([1.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            build_instance([1.0, 1.0], [1.0, bad])
    # anything but a list of real numbers is refused: strings, null, nested
    # lists, booleans, non-list values
    for bad in (["0.5", 1.0], [None, 1.0], [[1.0], 1.0], [True, 1.0], "0.5,1.0", {"a": 1.0}, 1.0):
        with pytest.raises(ValueError, match="values must be a list of real numbers"):
            build_instance(bad, [1.0, 1.0])
        with pytest.raises(ValueError, match="predictions must be a list of real numbers"):
            build_instance([1.0, 1.0], bad)
    assert build_instance((1, np.float64(2.0)), [np.int64(1), 2.5]).n == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PolicyParams(theta=1.5, tau=0.3, gamma=0.3, delta=0.5), "theta=1.5 outside"),
        (lambda: PolicyParams(theta=0.5, tau=float("nan"), gamma=0.3, delta=0.5),
         "tau=nan outside"),
        (lambda: PolicyParams(theta=0.5, tau=0.3, gamma=0.3, delta=0.5, beta=1.0),
         "beta=1.0 outside"),
        (lambda: CaseProfile(1, -1, 0), "k must be >= 0, got -1"),
        (lambda: CaseProfile(3, 0, 0), "inadmissible profile"),
        (lambda: Schedule((0.5, 1.5)), "arrival times must lie in"),
        (lambda: mistake_set(build_instance([1.0], [1.0]), 1.5), "theta=1.5 outside"),
    ],
    ids=["theta 1.5", "tau nan", "beta 1", "k -1", "m2 too small", "time 1.5", "mistake theta"],
)
def test_bad_fields_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_oversized_instance_rejected(monkeypatch):
    from secpred import core

    monkeypatch.setattr(core, "BLOCK_ELEMENTS", 4)
    assert build_instance([1.0] * 4, [1.0] * 4).n == 4
    with pytest.raises(ValueError, match="5 values exceed the cap of 4 candidates"):
        build_instance([1.0] * 5, [1.0] * 5)
    with pytest.raises(ValueError, match="5 predictions exceed the cap of 4 candidates"):
        build_instance([1.0] * 4, [1.0] * 5)


def test_perturbation_breaks_ties_and_preserves_epsilon():
    inst = build_instance([5, 5, 5, 2], [5, 5, 5, 2])
    vals = inst.values
    assert len(set(vals)) == 4
    assert len(set(inst.predictions)) == 4
    # relative offsets stay tiny, so epsilon moves by at most ~10x the offset
    assert inst.epsilon <= 1e-11
    raw = build_instance([3, 7], [2, 9])
    bumped = build_instance([3, 7], [2, 9])
    assert bumped.epsilon == raw.epsilon
    # with duplicates: perturbed epsilon within 10 * eta (relative) of raw
    values, preds = [4.0, 4.0, 2.0, 2.0], [3.0, 5.0, 2.0, 2.5]
    raw_eps = max(abs(1 - p / v) for v, p in zip(values, preds))
    pert_eps = build_instance(values, preds).epsilon
    assert abs(pert_eps - raw_eps) <= 10 * 1e-12 * max(raw_eps, 1.0)


def test_argmax_invariant_under_scaling():
    vals = [3.0, 9.0, 4.5]
    preds = [2.0, 7.0, 8.0]
    a = build_instance(vals, preds)
    b = build_instance([17.0 * v for v in vals], [17.0 * p for p in preds])
    assert a.top_predicted_index == b.top_predicted_index
    assert a.top_true_index == b.top_true_index
    assert a.epsilon == pytest.approx(b.epsilon, rel=1e-12)


def test_mistake_set_examples():
    exact = build_instance([1, 2, 3], [1, 2, 3])
    assert mistake_set(exact, 0.2) == set()
    inst = build_instance([100, 50], [60, 55])
    assert mistake_set(inst, 0.3) == {0}
    assert mistake_set(inst, 0.4) == set()  # strictly greater than theta


def test_case_profile_examples():
    exact = build_instance([1, 2, 3], [1, 2, 3])
    assert case_profile(exact, 0.5) == CaseProfile(0, 0, 0)
    inst = build_instance([100, 50], [60, 55])
    assert case_profile(inst, 0.3) == CaseProfile(1, 0, 0)
    inst2 = build_instance([100, 80, 10], [90, 95, 3])
    assert inst2.top_predicted_index == 1
    assert mistake_set(inst2, 0.5) == {2}
    assert case_profile(inst2, 0.5) == CaseProfile(1, 1, 1)


def test_profile_invariant_fuzz():
    rng = np.random.default_rng(7)
    trials = 100_000
    n = 8
    values = rng.uniform(0.1, 10.0, size=(trials, n))
    factors = rng.uniform(0.0, 2.0, size=(trials, n))
    theta = rng.uniform(0.0, 1.0, size=trials)
    preds = values * factors
    dev = np.abs(1.0 - preds / values)
    mistakes = dev > theta[:, None]
    ihat = np.argmax(preds, axis=1)
    rows = np.arange(trials)
    v_hat = values[rows, ihat]
    m = mistakes.sum(axis=1)
    k = (values > v_hat[:, None]).sum(axis=1)
    m2 = (mistakes & (values < v_hat[:, None])).sum(axis=1)
    assert np.all(m2 <= m)
    assert np.all(m2 >= np.maximum(0, m - k - 1))
    # membership matches the definition candidate by candidate
    assert np.array_equal(mistakes, dev > theta[:, None])


def test_mistake_set_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 7)
        vals = rng.uniform(0.1, 5.0, n).tolist()
        preds = rng.uniform(0.0, 5.0, n).tolist()
        theta = float(rng.uniform(0, 1))
        inst = build_instance(vals, preds)
        got = mistake_set(inst, theta)
        want = {
            i
            for i in range(inst.n)
            if abs(1 - inst.predictions[i] / inst.values[i]) > theta
        }
        assert got == want


def test_instance_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    inst = build_instance([100, 50], [60, 55])
    dump_instance(inst, str(path))
    obj = json.loads(path.read_text())
    assert set(obj) == {"values", "predictions"}
    back = load_instance(str(path))
    assert back.values == inst.values
    assert back.predictions == inst.predictions
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        load_instance(str(bad))


# an integer beyond the float range, brackets nested past the parser's
# recursion limit, and a duplicate value at the float maximum, which its
# perturbation takes to inf: each is a ValueError, not an OverflowError, a
# RecursionError or a silent inf
UNREADABLE_FILES = {
    "overflow": ('{"values": [1' + "0" * 400 + ', 2], "predictions": [1, 2]}', "fit in a float"),
    "recursion": ('{"values": ' + "[" * 200_000 + "]" * 200_000 + ', "predictions": [1]}',
                  "nested too deeply to parse"),
    "perturbed-overflow": ('{"values": [%r, %r, 1.0], "predictions": [1, 2, 3]}'
                           % (sys.float_info.max, sys.float_info.max), "stay finite"),
}


@pytest.mark.parametrize("text,message", UNREADABLE_FILES.values(), ids=list(UNREADABLE_FILES))
def test_unreadable_instance_file_rejected(tmp_path, text, message):
    path = tmp_path / "inst.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_instance(str(path))
