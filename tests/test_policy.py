import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from secpred import (
    PolicyParams,
    THEOREM_COSP_PARAMS,
    THEOREM_ROSP_PARAMS,
    Schedule,
    build_instance,
    gen_case_family,
    make_cosp_schedule,
    make_rosp_schedule,
    run_trial,
)
from secpred import policy
from secpred.policy import run_trials_batch
from secpred.rng import TrialStream, trial_seed

P = THEOREM_COSP_PARAMS


def test_cosp_schedule_single_candidate():
    inst = build_instance([5.0], [5.0])
    sched = make_cosp_schedule(inst, 0.64, TrialStream(1))
    assert sched.arrival_times == (0.64,)


def test_cosp_schedule_statistics():
    inst = build_instance([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
    draws = []
    for s in range(50_000):
        sched = make_cosp_schedule(inst, 0.64, TrialStream(trial_seed(5, s)))
        assert sched.arrival_times[0] == 0.64
        draws.extend(sched.arrival_times[1:])
    draws = np.asarray(draws)
    assert abs(draws.mean() - 0.5) < 0.005
    assert abs(draws.var() - 1.0 / 12.0) < 0.002
    assert len(set(sched.arrival_times)) == 3


def test_rosp_schedule_statistics():
    inst = build_instance([2.0, 1.0], [2.0, 1.0])
    first = 0
    n = 100_000
    for s in range(n):
        sched = make_rosp_schedule(inst, TrialStream(trial_seed(9, s)))
        ts = sched.arrival_times
        assert all(0.0 <= t <= 1.0 for t in ts)
        first += ts[0] < ts[1]
    assert abs(first / n - 0.5) < 0.005


def test_no_mistakes_hires_top_prediction():
    inst = build_instance([4.0, 9.0, 1.0], [4.1, 8.8, 1.0])
    for s in range(50):
        stream = TrialStream(trial_seed(3, s))
        sched = make_cosp_schedule(inst, 0.64, stream)
        out = run_trial(inst, sched, P, stream)
        assert out.hired_index == inst.top_predicted_index
        assert out.switch_time is None
        assert out.mode_at_end == "prediction"
        assert out.ratio >= (1 - inst.epsilon) / (1 + inst.epsilon)


def test_gamma_gate_on_switch_triggering_top_prediction():
    # the top prediction is the only mistake; placed at beta, other candidate
    # early: it is best-so-far at the switch, so the gamma branch decides
    inst = build_instance([100.0, 1.0], [10.0, 1.0])
    assert inst.top_predicted_index == 0
    sched = Schedule((0.64, 0.2))
    hires = 0
    n = 100_000
    for s in range(n):
        out = run_trial(inst, sched, P, TrialStream(trial_seed(21, s)))
        hires += out.hired_index == 0
        assert out.switch_time == 0.64
    rate = hires / n
    sigma = (P.gamma * (1 - P.gamma) / n) ** 0.5
    assert abs(rate - P.gamma) <= 3 * sigma


def test_secretary_mode_never_hires_before_tau():
    # mistake arrives first; the top prediction lands before tau and must be
    # skipped even though it is best-so-far at its arrival
    inst = build_instance([1.0, 100.0, 150.0], [5.0, 100.0, 90.0])
    assert inst.top_predicted_index == 1
    sched = Schedule((0.05, 0.2, 0.9))
    out = run_trial(inst, sched, P, TrialStream(0))
    assert out.hired_index == 2
    assert out.switch_time == 0.05


def test_delta_gate_when_top_prediction_arrives_after_switch():
    inst = build_instance([100.0, 1.0, 90.0], [180.0, 5.0, 89.0])
    # candidate 1 is a mistake (pred 5 vs value 1), arrives first
    assert inst.top_predicted_index == 0
    sched = Schedule((0.64, 0.1, 0.95))
    hires0 = 0
    n = 60_000
    for s in range(n):
        out = run_trial(inst, sched, P, TrialStream(trial_seed(77, s)))
        assert out.switch_time == 0.1
        hires0 += out.hired_index == 0
    sigma = (P.delta * (1 - P.delta) / n) ** 0.5
    assert abs(hires0 / n - P.delta) <= 3 * sigma


def test_trial_determinism():
    inst = build_instance([100.0, 1.0, 90.0], [10.0, 5.0, 89.0])
    outs = []
    for _ in range(2):
        stream = TrialStream(trial_seed(123, 4))
        sched = make_cosp_schedule(inst, 0.64, stream)
        outs.append(run_trial(inst, sched, P, stream))
    assert outs[0] == outs[1]


def test_schedule_length_mismatch():
    inst = build_instance([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        run_trial(inst, Schedule((0.5,)), P, TrialStream(0))


def test_cosp_schedule_refuses_beta_outside_unit_interval():
    inst = build_instance([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="beta=1.0 outside"):
        make_cosp_schedule(inst, 1.0, TrialStream(0))


def test_policy_runs_with_early_beta():
    # analytic bounds require beta > tau, but the policy itself executes for
    # any pinned arrival; a mistaken top prediction at beta < tau is skipped
    inst = build_instance([100.0, 1.0], [10.0, 1.0])
    sched = Schedule((0.2, 0.9))  # top prediction (a mistake) before tau
    out = run_trial(inst, sched, P, TrialStream(0))
    assert out.switch_time == 0.2
    assert out.hired_index is None  # candidate 1 never beats the skipped best
    assert out.mode_at_end == "secretary"


def test_estimate_single_trial():
    from secpred import estimate_ratio

    inst = build_instance([2.0, 1.0], [2.0, 1.0])
    res = estimate_ratio(inst, "rosp", PolicyParams(theta=0.63, tau=0.33, gamma=0.34, delta=0.66), trials=1, seed=0)
    assert res.trials == 1
    assert res.std_error == 0.0


def _batch_setups():
    inst = build_instance(
        [0.95, 1.0, 0.5, 0.1, 0.05],
        [(1 + 0.99) * 0.95, 1.0, (1 - 0.99) * 0.5, 0.1, 0.05],
    )
    rosp = PolicyParams(theta=0.63, tau=0.33, gamma=0.34, delta=0.66)
    setups = [
        pytest.param("cosp", inst, THEOREM_COSP_PARAMS, id="cosp"),
        pytest.param("rosp", inst, rosp, id="rosp"),
    ]
    x = 0.8
    # values x, x, x(1 + 1e-12) perturb to x, x(1 + 1e-12), x(1 + 1e-12): the
    # top value is a tie, held by the top prediction and by a mistake, so a
    # tied arrival before the window must keep the other from being hired
    tie = build_instance([x, x, x * (1 + 1e-12), 0.5, 0.3], [0.1, 0.9, 0.7, 0.5, 0.05])
    assert tie.values[1] == tie.values[2] and tie.top_predicted_index == 1
    exact = build_instance([4.0, 9.0, 1.0, 2.0], [4.1, 8.8, 1.0, 2.0])
    # 150 low mistakes bring t_switch near 0, so with a small tau most rows
    # have their top-valued columns in the window and the prefix widens
    rng = np.random.default_rng(8)
    values = rng.uniform(0.5, 1.0, 200)
    values[50:] *= 0.1
    preds = values.copy()
    preds[50:] *= 3.0
    preds[3] = 1.5
    wide = build_instance(values.tolist(), preds.tolist())
    # the top prediction is the top value and the only mistake: a gated-out
    # hire has nobody above it to pass to
    top = build_instance([1.0, 0.5, 0.3], [1.9, 0.5, 0.3])
    base = PolicyParams(theta=0.5, tau=0.3, gamma=0.4, delta=0.6, beta=0.64)
    edges = [
        ("tie", tie, base),
        ("no-mistakes", exact, base),
        ("tau0", tie, replace(base, tau=0.0)),
        ("tau1", tie, replace(base, tau=1.0)),
        ("wide-tau0", wide, replace(base, tau=0.0)),
        ("wide-tau0.02", wide, replace(base, tau=0.02)),
        ("top-gated", top, base),
    ]
    for name, edge, params in edges:
        for model in ("cosp", "rosp"):
            setups.append(pytest.param(model, edge, params, id=f"{name}-{model}"))
    return setups


@pytest.mark.parametrize("model,inst,params", _batch_setups())
def test_batch_matches_scalar(model, inst, params):
    seed, n = 2024, 4000
    batch = run_trials_batch(inst, model, params, seed, 0, n)
    for i in range(0, n, 7):
        stream = TrialStream(trial_seed(seed, i))
        if model == "cosp":
            sched = make_cosp_schedule(inst, params.beta, stream)
        else:
            sched = make_rosp_schedule(inst, stream)
        out = run_trial(inst, sched, params, stream)
        want = out.hired_index if out.hired_index is not None else -1
        assert batch.hired[i] == want, i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def _gated_tie(seed=3):
    # beta is trial 0's first uniform, which candidate 0 draws as well, so
    # trial 0's schedule is (beta, beta).  The top prediction is the only
    # mistake, so the gamma gate decides trial 0 on draw 2, the one after
    # the times, and gamma lies between draws 2 and 3: the hire depends on
    # the gate reading draw 2, as it does when the tied round is kept
    stream = TrialStream(trial_seed(seed, 0))
    draws = [stream.uniform() for _ in range(3)]
    params = PolicyParams(
        theta=0.5, tau=0.33, gamma=(draws[1] + draws[2]) / 2, delta=0.5, beta=draws[0]
    )
    assert params.tau < draws[1] < params.gamma < draws[2] and params.tau < params.beta
    inst = build_instance([1.0, 100.0], [1.0, 190.0])
    assert inst.top_predicted_index == 1
    return inst, params


def test_batch_redraws_colliding_schedule_like_scalar():
    seed = 3
    inst, params = _gated_tie(seed)
    sched = make_cosp_schedule(inst, params.beta, TrialStream(trial_seed(seed, 0)))
    assert sched.arrival_times == (params.beta, params.beta)
    batch = run_trials_batch(inst, "cosp", params, seed, 0, 8)
    assert batch.hired[0] == 1
    for i in range(8):
        stream = TrialStream(trial_seed(seed, i))
        out = run_trial(inst, make_cosp_schedule(inst, params.beta, stream), params, stream)
        assert batch.hired[i] == (out.hired_index if out.hired_index is not None else -1), i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def test_batch_reads_redrawn_times():
    # trial 0's schedule is (beta, beta) as above.  The two arrive at one
    # time: the top prediction, candidate 1, is a mistake and switches the
    # mode before either is considered, and candidate 0, the greater value
    # and no top prediction, is then hired outright
    seed = 3
    beta = TrialStream(trial_seed(seed, 0)).uniform()
    params = PolicyParams(theta=0.5, tau=0.2, gamma=0.5, delta=0.5, beta=beta)
    assert params.tau < params.beta
    inst = build_instance([100.0, 1.0], [100.0, 190.0])
    assert inst.top_predicted_index == 1

    batch = run_trials_batch(inst, "cosp", params, seed, 0, 8)
    for i in range(8):
        stream = TrialStream(trial_seed(seed, i))
        sched = make_cosp_schedule(inst, params.beta, stream)
        out = run_trial(inst, sched, params, stream)
        if i == 0:
            assert sched.arrival_times == (beta, beta)
            assert out.hired_index == 0 and out.switch_time == beta
        assert batch.hired[i] == (out.hired_index if out.hired_index is not None else -1), i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def _tie_rule_setups(count=1500):
    # the pair of test_batch_reads_redrawn_times, then random instances of
    # distinct values with every time on a grid of 2^-3, so that most
    # schedules hold ties, ties with tau among them
    yield [100.0, 1.0], [100.0, 190.0], (0.5, 0.5), PolicyParams(0.5, 0.2, 0.5, 0.5)
    rng = np.random.default_rng(35)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        values = rng.uniform(0.5, 3.0, n)
        preds = values * rng.choice([1.0, 0.3, 1.6], n)
        times = tuple(rng.integers(0, 8, n) / 8)
        params = PolicyParams(0.5, int(rng.integers(0, 8)) / 8, rng.uniform(), rng.uniform())
        yield values.tolist(), preds.tolist(), times, params


def test_tie_rule_ignores_labels():
    # candidate j of the relabelled run is candidate perm[j] of the first;
    # both runs read the same gate stream
    rng = np.random.default_rng(53)
    tied = 0
    for s, (values, preds, times, params) in enumerate(_tie_rule_setups()):
        perm = rng.permutation(len(values)) if s else np.array([1, 0])
        inst = build_instance(values, preds)
        out = run_trial(inst, Schedule(times), params, TrialStream(s))
        relabelled = build_instance([values[i] for i in perm], [preds[i] for i in perm])
        moved = Schedule(tuple(times[i] for i in perm))
        got = run_trial(relabelled, moved, params, TrialStream(s))
        want = None if out.hired_index is None else int(np.flatnonzero(perm == out.hired_index)[0])
        assert got.hired_index == want, (s, values, preds, times, perm)
        assert got.switch_time == out.switch_time, s
        tied += len(set(times)) < len(times)
    assert tied > 0


def test_batch_memory_bounded():
    # 16 384 trials at n = 800: an engine holding (trials x n) arrays
    # needs several hundred megabytes here
    params = THEOREM_ROSP_PARAMS
    inst = gen_case_family(4, 2, 1, 1, 800, params.theta)
    tracemalloc.start()
    try:
        run_trials_batch(inst, "rosp", params, 1, 0, 16_384)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6, f"peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_batch_matches_scalar_over_partial_blocks(model):
    # a prime count above the block size at n = 50, ROW_ELEMENTS // 16 rows
    # of the 16-column prefix, which holds both mistakes and ihat, so the
    # last block is a partial one
    params = THEOREM_COSP_PARAMS if model == "cosp" else THEOREM_ROSP_PARAMS
    inst = gen_case_family(4, 2, 1, 1, 50, params.theta)
    seed, count = 31, 16411
    assert count > policy.ROW_ELEMENTS // 16
    batch = run_trials_batch(inst, model, params, seed, 0, count)
    for i in range(count):
        stream = TrialStream(trial_seed(seed, i))
        if model == "cosp":
            sched = make_cosp_schedule(inst, params.beta, stream)
        else:
            sched = make_rosp_schedule(inst, stream)
        out = run_trial(inst, sched, params, stream)
        assert batch.hired[i] == (out.hired_index if out.hired_index is not None else -1), i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def _tie_runs():
    seed = 3
    # trial 0 of test_batch_redraws_colliding_schedule_like_scalar and of
    # test_batch_reads_redrawn_times holds a tie: beta is its first uniform,
    # which candidate 0 draws as well.  Trial 700 holds one the same way with
    # its own beta; at ROW_ELEMENTS = 997 it lies in block 1
    stream = TrialStream(trial_seed(seed, 0))
    d = [stream.uniform() for _ in range(3)]
    gated = PolicyParams(theta=0.5, tau=0.33, gamma=(d[1] + d[2]) / 2, delta=0.5, beta=d[0])
    tied = PolicyParams(theta=0.5, tau=0.2, gamma=0.5, delta=0.5, beta=d[0])
    late = replace(tied, beta=TrialStream(trial_seed(seed, 700)).uniform())
    low = build_instance([1.0, 100.0], [1.0, 190.0])
    high = build_instance([100.0, 1.0], [100.0, 190.0])
    cosp = gen_case_family(4, 2, 1, 1, 50, P.theta)
    rosp = gen_case_family(4, 2, 1, 1, 50, THEOREM_ROSP_PARAMS.theta)
    # instance, model and parameters
    return [
        pytest.param(cosp, "cosp", P, id="cosp"),
        pytest.param(rosp, "rosp", THEOREM_ROSP_PARAMS, id="rosp"),
        pytest.param(low, "cosp", gated, id="redraws-trial0"),
        pytest.param(high, "cosp", tied, id="reads-redrawn-trial0"),
        pytest.param(high, "cosp", late, id="redraws-trial700"),
    ]


@pytest.mark.parametrize("row_elements", [997, policy.ROW_ELEMENTS], ids=["uneven", "default"])
@pytest.mark.parametrize("inst,model,params", _tie_runs())
def test_each_tie_replayed_once(monkeypatch, row_elements, inst, model, params):
    # at ROW_ELEMENTS = 997 the 3000 trials run in 7 (n = 2) or 51 (n = 50)
    # blocks, the last a partial one; at the default in one
    want = run_trials_batch(inst, model, params, 3, 0, 3000)
    monkeypatch.setattr(policy, "ROW_ELEMENTS", row_elements)
    got = run_trials_batch(inst, model, params, 3, 0, 3000)
    assert np.array_equal(got.hired, want.hired)
    assert np.array_equal(got.ratios, want.ratios)
    assert np.array_equal(got.switched, want.switched)


@pytest.mark.parametrize(
    "arg,value,match",
    [
        ("start", -3, "start must be >= 0"),
        ("start", 2.0, "start must be an integer"),
        # these three ids name the rule their row breaks, as the message
        # did before the bounds moved into check_integer
        pytest.param(
            "start", 2**64, "count exceeds the cap of 0",
            id="start-18446744073709551616-start \\+ count must be at most 2\\*\\*64",
        ),
        ("count", -5, "count must be >= 0"),
        ("count", 10.0, "count must be an integer"),
        ("base_seed", 1.5, "base_seed must be an integer"),
        pytest.param(
            "base_seed", -1, "base_seed must be >= 0, got -1",
            id="base_seed--1-base_seed must lie in \\[0, 2\\*\\*64\\)",
        ),
        pytest.param(
            "base_seed", 2**64, f"base_seed exceeds the cap of {2**64 - 1}",
            id="base_seed-18446744073709551616-base_seed must lie in \\[0, 2\\*\\*64\\)",
        ),
    ],
)
def test_batch_refuses_bad_integers(arg, value, match):
    inst = gen_case_family(4, 2, 1, 1, 5, P.theta)
    args = {"base_seed": 1, "start": 0, "count": 10, arg: value}
    with pytest.raises(ValueError, match=match):
        run_trials_batch(inst, "cosp", P, **args)


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_batch_matches_scalar_at_top_seed(model):
    # the greatest seed a stream holds, which numpy's uint64 arithmetic and
    # the scalar stream's masked ints must both take as it is
    params = P if model == "cosp" else THEOREM_ROSP_PARAMS
    inst = gen_case_family(4, 2, 1, 1, 50, params.theta)
    seed, count = 2**64 - 1, 2000
    batch = run_trials_batch(inst, model, params, seed, 0, count)
    for i in range(count):
        stream = TrialStream(trial_seed(seed, i))
        if model == "cosp":
            sched = make_cosp_schedule(inst, params.beta, stream)
        else:
            sched = make_rosp_schedule(inst, stream)
        out = run_trial(inst, sched, params, stream)
        assert batch.hired[i] == (out.hired_index if out.hired_index is not None else -1), i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def test_batch_takes_numpy_integers_and_no_trials():
    inst = gen_case_family(4, 2, 1, 1, 5, P.theta)
    want = run_trials_batch(inst, "cosp", P, 1, 4, 10)
    got = run_trials_batch(inst, "cosp", P, np.uint64(1), np.int32(4), np.int64(10))
    assert np.array_equal(got.hired, want.hired)
    assert len(run_trials_batch(inst, "cosp", P, 1, 0, 0).hired) == 0


def _stage_families():
    # the stage widths a family's rows pass through, narrowest first
    setups = []
    for model, params in (("cosp", P), ("rosp", THEOREM_ROSP_PARAMS)):
        # the mistakes and ihat rank among the top four values, so at tau
        # 0.02 each of the 4-column, 16-column and whole-row stages settles
        # some of the rows
        inst = gen_case_family(4, 2, 1, 1, 50, params.theta)
        setups.append(
            pytest.param(inst, model, replace(params, tau=0.02), (4, 16, 50), id=f"{model}-tau0.02")
        )
    # 41 of 81 columns are mistakes or ihat: every row is read whole
    inst = gen_case_family(4, 40, 40, 0, 81, THEOREM_ROSP_PARAMS.theta)
    setups.append(pytest.param(inst, "rosp", THEOREM_ROSP_PARAMS, (81,), id="whole-row"))
    return setups


@pytest.mark.parametrize("inst,model,params,widths", _stage_families())
def test_every_stage_matches_scalar(monkeypatch, inst, model, params, widths):
    scan = policy._scan
    entered = {}

    def counted(pre, *args):
        entered[len(pre)] = entered.get(len(pre), 0) + pre.shape[1]
        return scan(pre, *args)

    monkeypatch.setattr(policy, "_scan", counted)
    seed, count = 11, 3000
    batch = run_trials_batch(inst, model, params, seed, 0, count)
    # the rows a stage settles are those it takes and the next does not
    assert tuple(entered) == widths and entered[widths[0]] == count
    settled = [entered[w] - entered.get(nxt, 0) for w, nxt in zip(widths, widths[1:] + (None,))]
    assert all(s > 0 for s in settled), settled
    for i in range(count):
        stream = TrialStream(trial_seed(seed, i))
        if model == "cosp":
            sched = make_cosp_schedule(inst, params.beta, stream)
        else:
            sched = make_rosp_schedule(inst, stream)
        out = run_trial(inst, sched, params, stream)
        assert batch.hired[i] == (out.hired_index if out.hired_index is not None else -1), i
        assert batch.ratios[i] == out.ratio, i
        assert batch.switched[i] == (out.switch_time is not None), i


def test_batch_memory_is_its_buffers():
    # the engine holds two buffers of max(ROW_ELEMENTS, n) uint64 draws
    # (2 MiB each) and one block's temporaries at a time
    params = THEOREM_ROSP_PARAMS
    inst = gen_case_family(4, 2, 1, 1, 800, params.theta)
    count = 20_000
    tracemalloc.start()
    try:
        run_trials_batch(inst, "rosp", params, 1, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = 2 * max(policy.ROW_ELEMENTS, inst.n) * 8
    # what the peak holds besides hired and switched is the buffers, and
    # block temporaries of less than half as much
    engine = peak - count * 9
    assert buffers <= engine <= 1.5 * buffers, engine
