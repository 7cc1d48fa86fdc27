import math

import pytest

from secpred import (
    THEOREM_COSP_PARAMS as P,
    THEOREM_ROSP_PARAMS as Q,
    build_instance,
    case_profile,
    estimate_ratio,
    gen_case_family,
    gen_overestimated_top,
    gen_underestimated_best,
    mistake_set,
)
import secpred.simulate as sim
from secpred.analytic import case_bound
from secpred.simulate import default_deviation, sim_csv_header, sim_csv_row


def test_exact_predictions_deterministic():
    inst = build_instance([3.0, 7.0, 1.0], [3.0, 7.0, 1.0])
    res = estimate_ratio(inst, "cosp", P, trials=500, seed=1)
    assert res.mean_ratio == 1.0
    assert res.std_error == 0.0
    assert res.hire_rate == 1.0
    assert res.mode_switch_rate == 0.0


def test_single_candidate_rosp():
    inst = build_instance([5.0], [5.0])
    res = estimate_ratio(inst, "rosp", Q, trials=200, seed=3)
    assert res.mean_ratio == 1.0


def test_seed_determinism():
    inst = gen_case_family(4, 2, 1, 1, 5, P.theta)
    a = estimate_ratio(inst, "cosp", P, trials=150_000, seed=11)
    b = estimate_ratio(inst, "cosp", P, trials=150_000, seed=11)
    assert a == b
    c = estimate_ratio(inst, "cosp", P, trials=150_000, seed=12)
    assert c.mean_ratio != a.mean_ratio


@pytest.mark.parametrize(
    "seed,message",
    [
        pytest.param(1.5, "seed must be an integer", id="seed 1.5"),
        pytest.param("2", "seed must be an integer", id="seed '2'"),
        pytest.param(-1, "seed must be >= 0, got -1", id="seed -1"),
        pytest.param(2**64, f"seed exceeds the cap of {2**64 - 1}", id="seed 2**64"),
    ],
)
def test_bad_seeds_rejected(monkeypatch, seed, message):
    monkeypatch.setattr(sim, "_chunk_sums", _no_chunks)
    inst = gen_case_family(4, 2, 1, 1, 5, Q.theta)
    with pytest.raises(ValueError, match=message):
        estimate_ratio(inst, "rosp", Q, trials=10, seed=seed)


def _no_chunks(*args):
    raise AssertionError("a chunk ran")


@pytest.mark.parametrize(
    "model,trials,message",
    [
        ("foo", 10, "unknown model 'foo'"),
        # these two ids name the rule their row breaks, trials in [1, MAX_TRIALS]
        pytest.param(
            "rosp", 10**9 + 1, "trials exceeds the cap of 1000000000",  # MAX_TRIALS + 1
            id="rosp-1000000001-trials must lie in",
        ),
        pytest.param("rosp", 0, "trials must be >= 1, got 0", id="rosp-0-trials must lie in"),
        ("rosp", 1000.0, "trials must be an integer"),
        ("rosp", "1000", "trials must be an integer"),
    ],
)
def test_bad_runs_rejected_before_any_chunk(monkeypatch, model, trials, message):
    monkeypatch.setattr(sim, "_chunk_sums", _no_chunks)
    inst = gen_case_family(4, 2, 1, 1, 5, Q.theta)
    with pytest.raises(ValueError, match=message):
        estimate_ratio(inst, model, Q, trials=trials, seed=2)


def test_max_trials_accepted(monkeypatch):
    # the cap itself runs, as its documented 15 259 chunks
    spans = []
    monkeypatch.setattr(
        sim,
        "_chunk_sums",
        lambda instance, model, params, seed, start, count: spans.append(count)
        or (0.0, 0.0, 0, 0),
    )
    inst = gen_case_family(4, 2, 1, 1, 5, Q.theta)
    assert estimate_ratio(inst, "rosp", Q, trials=10**9, seed=2).trials == sim.MAX_TRIALS
    assert len(spans) == 15_259 and sum(spans) == 10**9


def test_gen_underestimated_best():
    inst = gen_underestimated_best(5, 0.9, 0.58)
    assert inst.epsilon == pytest.approx(0.9, abs=1e-12)
    prof = case_profile(inst, 0.58)
    assert (prof.m, prof.k, prof.m2) == (1, 1, 0)
    mset = mistake_set(inst, 0.58)
    assert inst.top_true_index in mset
    assert inst.top_predicted_index not in mset
    with pytest.raises(ValueError):
        gen_underestimated_best(5, 0.5, 0.58)


def test_gen_overestimated_top():
    inst = gen_overestimated_top(4, 0.9, 0.58)
    prof = case_profile(inst, 0.58)
    assert (prof.m, prof.k, prof.m2) == (1, 1, 0)
    mset = mistake_set(inst, 0.58)
    assert inst.top_predicted_index in mset
    assert inst.top_true_index not in mset


@pytest.mark.parametrize(
    "cid,m,k,m2,n",
    [
        (1, 1, 0, 0, 3),
        (1, 3, 0, 2, 6),
        (2, 2, 0, 2, 5),
        (3, 2, 1, 0, 5),
        (3, 4, 2, 1, 9),
        (4, 1, 1, 0, 4),
        (4, 2, 1, 1, 5),
        (4, 3, 4, 1, 9),
        (5, 1, 1, 0, 4),
        (5, 2, 1, 1, 5),
        (5, 3, 3, 1, 8),
        (6, 1, 1, 1, 4),
        (6, 2, 3, 1, 7),
        (6, 3, 2, 2, 7),
    ],
)
def test_case_family_round_trip(cid, m, k, m2, n):
    inst = gen_case_family(cid, m, k, m2, n, 0.58)
    prof = case_profile(inst, 0.58)
    assert (prof.m, prof.k, prof.m2) == (m, k, m2)
    assert inst.top_true_value == pytest.approx(1.0, abs=1e-9)


def test_fillers_stay_positive_past_underflow():
    # the first 6000 fillers keep the geometric values simulation CSVs depend on
    assert sim._fillers(6000, 0.35) == [0.35 * 0.5 * 0.9**j for j in range(6000)]
    fillers = sim._fillers(7100, 0.35)  # 0.9**j alone underflows near j = 7050
    assert fillers[-1] > 0.0
    assert all(a > b for a, b in zip(fillers, fillers[1:]))
    n = 7100
    for inst, want in (
        (gen_case_family(4, 2, 1, 1, n, 0.63), (2, 1, 1)),
        (gen_underestimated_best(n, 0.9, 0.63), (1, 1, 0)),
        (gen_overestimated_top(n, 0.9, 0.63), (1, 1, 0)),
    ):
        prof = case_profile(inst, 0.63)
        assert inst.n == n
        assert (prof.m, prof.k, prof.m2) == want


def test_case_family_infeasible_requests():
    with pytest.raises(ValueError):
        gen_case_family(1, 1, 1, 0, 4, 0.58)  # case 1 needs k = 0
    with pytest.raises(ValueError):
        gen_case_family(6, 0, 0, 0, 3, 0.58)  # empty mistake set is case 0
    with pytest.raises(ValueError):
        gen_case_family(4, 3, 1, 0, 6, 0.58)  # too many mistakes above
    with pytest.raises(ValueError):
        gen_case_family(4, 2, 1, 1, 3, 0.58)  # n < m + k + 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_overestimated_top(4, 0.5, 0.58), "deviation 0.5 must exceed theta 0.58"),
        (lambda: gen_case_family(4, 2, 1, 1, 5, 0.58, deviation=0.58),
         "deviation 0.58 must exceed theta 0.58"),
        (lambda: gen_case_family(7, 2, 1, 1, 5, 0.58), "case_id exceeds the cap of 6"),
        # the inflated prediction 1.011 * 0.98 stays below the best's 1.0, so
        # the top prediction is the best and the family is not built
        (lambda: gen_overestimated_top(5, 0.011, 0.01), "construction mismatch"),
    ],
    ids=["overestimated top", "case family", "case 7", "top not overestimated"],
)
def test_bad_generator_arguments_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_one_sided_bounds_small_run():
    # quick version of the acceptance check: 1e5 trials, 3 sigma one-sided
    for model, params in (("cosp", P), ("rosp", Q)):
        for cid, prof in ((1, (1, 0, 0)), (4, (2, 1, 1)), (5, (2, 1, 1)), (6, (1, 1, 1))):
            inst = gen_case_family(cid, *prof, 5, params.theta)
            res = estimate_ratio(inst, model, params, trials=100_000, seed=5)
            bound = case_bound(model, cid, *prof, params)
            assert 0.0 <= res.mean_ratio <= 1.0
            assert res.mean_ratio >= bound - 3 * res.std_error, (model, cid)


def test_case1_two_mistake_family_matches_formula():
    # chosen order, both the top candidate and one lesser candidate deviate:
    # the case-1 value at m = 2 is 0.2674 at the published parameters
    bound = case_bound("cosp", 1, 2, 0, 1, P)
    assert bound == pytest.approx(0.2674, abs=1e-10)
    inst = gen_case_family(1, 2, 0, 1, 5, P.theta)
    res = estimate_ratio(inst, "cosp", P, trials=200_000, seed=17)
    assert res.mean_ratio >= bound - 3 * res.std_error


def test_switch_rate_matches_prediction_mode_mass():
    inst = gen_case_family(6, 2, 2, 1, 6, P.theta)
    trials = 200_000
    res = estimate_ratio(inst, "cosp", P, trials=trials, seed=9)
    want = 1.0 - (1.0 - P.beta) ** 2
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(res.mode_switch_rate - want) <= 3 * sigma


def test_consistency_sweep_zero_mistakes():
    # epsilon stepped below theta: prediction mode always hires the top
    # prediction, so the ratio is deterministic and meets (1-e)/(1+e)
    for eps in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
        floor = (1 - eps) / (1 + eps)
        if eps == 0.0:
            values, preds = [1.0, 0.995], [1.0, 0.995]
            expect = 1.0
        else:
            qv = min(1.0 - 1e-6, floor + 0.005)
            values = [1.0, qv]
            preds = [(1 - eps) * 1.0, (1 + eps) * qv]
            expect = qv
        inst = build_instance(values, preds)
        assert inst.epsilon == pytest.approx(eps, abs=1e-12)
        res = estimate_ratio(inst, "cosp", P, trials=20_000, seed=2)
        assert res.hire_rate == 1.0
        assert res.mode_switch_rate == 0.0
        assert res.std_error <= 1e-9
        assert res.mean_ratio == pytest.approx(expect, abs=1e-9)
        assert res.mean_ratio >= floor - 1e-12


def test_csv_row():
    inst = gen_case_family(4, 2, 1, 1, 5, P.theta)
    res = estimate_ratio(inst, "cosp", P, trials=1000, seed=0)
    header = sim_csv_header()
    row = sim_csv_row("cosp", inst, P.theta, res, 0)
    assert header.split(",") == [
        "model", "n", "m", "k", "m2", "trials", "seed",
        "mean_ratio", "std_error", "hire_rate", "switch_rate",
    ]
    parts = row.split(",")
    assert parts[0] == "cosp"
    assert parts[1:6] == ["5", "2", "1", "1", "1000"]


# CSV rows of the case-4 family at (m, k, m2) = (2, 1, 1): any change to the
# streams, the schedules or the engine moves their last digits
PINNED_ROWS = [
    "cosp,5,2,1,1,70000,1,0.413167142857,0.0017137847148,0.498757142857,1",
    "cosp,5,2,1,1,70000,3,0.412792142857,0.00171646878939,0.496414285714,1",
    "cosp,800,2,1,1,70000,1,0.413063571429,0.00171329953746,0.498757142857,1",
    "cosp,800,2,1,1,70000,3,0.412846428571,0.00171672277062,0.496414285714,1",
    "rosp,5,2,1,1,70000,1,0.504746428571,0.00178042774004,0.569285714286,1",
    "rosp,5,2,1,1,70000,3,0.50515,0.00177824493709,0.570957142857,1",
    "rosp,800,2,1,1,70000,1,0.504802857143,0.0017806406338,0.569285714286,1",
    "rosp,800,2,1,1,70000,3,0.505161428571,0.00177828807482,0.570957142857,1",
]


def test_csv_rows_pinned():
    rows = []
    for model, params in (("cosp", P), ("rosp", Q)):
        for n in (5, 800):
            inst = gen_case_family(4, 2, 1, 1, n, params.theta)
            for seed in (1, 3):
                res = estimate_ratio(inst, model, params, 70_000, seed)
                rows.append(sim_csv_row(model, inst, params.theta, res, seed))
    assert rows == PINNED_ROWS


def test_default_deviation():
    assert default_deviation(0.3) == 0.6
    assert default_deviation(0.58) == pytest.approx(0.99)
