"""Randomized cross-checks of the trial engine.

The vectorized batch engine must reproduce the scalar replay bit for bit on
arbitrary instances, and every outcome must satisfy the structural
invariants of the policy (ratio in [0, 1], hires only after tau once in
secretary mode, switch time equals the first mistake arrival seen in
prediction mode).  Ties between arrival times, which a 53-bit float makes
too rare to meet, are made common by flooring every uniform to a coarse
grid.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from secpred import (
    THEOREM_COSP_PARAMS,
    THEOREM_ROSP_PARAMS,
    PolicyParams,
    build_instance,
    gen_case_family,
    make_cosp_schedule,
    make_rosp_schedule,
    run_trial,
)
from secpred import policy
from secpred.core import mistake_set
from secpred.policy import run_trials_batch
from secpred.rng import TrialStream, trial_seed


def random_setup(rng):
    n = int(rng.integers(1, 8))
    values = rng.uniform(0.05, 3.0, n).tolist()
    preds = (np.asarray(values) * rng.uniform(0.0, 2.2, n)).tolist()
    inst = build_instance(values, preds)
    params = PolicyParams(
        theta=float(rng.uniform(0.05, 0.95)),
        tau=float(rng.uniform(0.05, 0.8)),
        gamma=float(rng.uniform(0.0, 1.0)),
        delta=float(rng.uniform(0.0, 1.0)),
        beta=float(rng.uniform(0.05, 0.95)),
    )
    return inst, params


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_batch_matches_scalar_fuzz(model, trials_per_setup=64, setups=40):
    rng = np.random.default_rng(20_26 if model == "cosp" else 62_02)
    for s in range(setups):
        inst, params = random_setup(rng)
        seed = int(rng.integers(0, 2**62))
        batch = run_trials_batch(inst, model, params, seed, 0, trials_per_setup)
        for i in range(trials_per_setup):
            stream = TrialStream(trial_seed(seed, i))
            if model == "cosp":
                sched = make_cosp_schedule(inst, params.beta, stream)
            else:
                sched = make_rosp_schedule(inst, stream)
            out = run_trial(inst, sched, params, stream)
            want = out.hired_index if out.hired_index is not None else -1
            assert batch.hired[i] == want, (s, i, inst, params)
            assert batch.ratios[i] == out.ratio
            assert batch.switched[i] == (out.switch_time is not None)


def wide_setup(rng):
    """20 to 300 candidates.  The top prediction goes to one of the four
    best values and up to three others are understated, so that
    prediction-mode hires, gated top predictions and their fallbacks all
    occur."""
    n = int(rng.integers(20, 301))
    values = rng.uniform(0.05, 3.0, n)
    preds = values.copy()
    top = np.argsort(values)[-1 - int(rng.integers(0, 4))]
    preds[top] = values.max() * rng.uniform(1.0, 1.6)
    wrong = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
    preds[wrong] *= rng.uniform(0.05, 0.5, size=wrong.size)
    inst = build_instance(values.tolist(), preds.tolist())
    params = PolicyParams(
        theta=float(rng.uniform(0.1, 0.9)),
        tau=float(rng.uniform(0.05, 0.8)),
        gamma=float(rng.uniform(0.0, 1.0)),
        delta=float(rng.uniform(0.0, 1.0)),
        beta=float(rng.uniform(0.05, 0.95)),
    )
    return inst, params


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_batch_matches_scalar_across_blocks_fuzz(
    model, monkeypatch, trials_per_setup=40, setups=8
):
    # a block of a few rows, so that every batch spans several blocks
    monkeypatch.setattr(policy, "ROW_ELEMENTS", 997)
    rng = np.random.default_rng(3_03 if model == "cosp" else 30_3)
    for s in range(setups):
        inst, params = wide_setup(rng)
        seed = int(rng.integers(0, 2**62))
        start = int(rng.integers(1, 2**20))
        batch = run_trials_batch(inst, model, params, seed, start, trials_per_setup)
        for i in range(trials_per_setup):
            stream = TrialStream(trial_seed(seed, start + i))
            if model == "cosp":
                sched = make_cosp_schedule(inst, params.beta, stream)
            else:
                sched = make_rosp_schedule(inst, stream)
            out = run_trial(inst, sched, params, stream)
            want = out.hired_index if out.hired_index is not None else -1
            assert batch.hired[i] == want, (s, i, inst.n, params)
            assert batch.ratios[i] == out.ratio
            assert batch.switched[i] == (out.switch_time is not None)


# Every uniform floored to a multiple of 2^-12: among 50 candidates about a
# quarter of the rows then hold two equal arrival times.
_GRID = 2.0**12


def _on_grid(x):
    return math.floor(x * _GRID) / _GRID


def _many_mistakes(mistakes):
    # the 200-candidate instance of test_policy._batch_setups has 150 low
    # mistakes, so every row is read whole.  With 20 a row reads its prefix,
    # and one whose window opens so early that the prefix does not hold
    # the best arrival before it is read whole; its values are in no
    # particular order, so a tie it holds beyond the prefix can decide the
    # hire
    rng = np.random.default_rng(8)
    values = rng.uniform(0.5, 1.0, 200)
    values[200 - mistakes:] *= 0.1
    preds = values.copy()
    preds[200 - mistakes:] *= 3.0
    preds[3] = 1.5
    return build_instance(values.tolist(), preds.tolist())


def test_batch_matches_scalar_on_ties(monkeypatch, trials_per_setup=600):
    uniform = TrialStream.uniform
    monkeypatch.setattr(TrialStream, "uniform", lambda self: _on_grid(uniform(self)))
    draw = policy.uniforms_at

    def floored(*args):
        u = draw(*args)
        u *= _GRID
        np.floor(u, out=u)
        u /= _GRID
        return u

    monkeypatch.setattr(policy, "uniforms_at", floored)

    setups = []
    for model, params in (("cosp", THEOREM_COSP_PARAMS), ("rosp", THEOREM_ROSP_PARAMS)):
        beta = None if params.beta is None else _on_grid(params.beta)
        for case in (4, 5):
            inst = gen_case_family(case, 2, 1, 1, 50, params.theta)
            for tau in (0.37, 0.01):
                setups.append((model, inst, replace(params, tau=_on_grid(tau), beta=beta)))
        wide = PolicyParams(theta=0.5, tau=_on_grid(0.02), gamma=0.4, delta=0.6, beta=_on_grid(0.64))
        for mistakes in (150, 20):
            setups.append((model, _many_mistakes(mistakes), wide))

    tied = 0
    for s, (model, inst, params) in enumerate(setups):
        seed = 7 + s
        batch = run_trials_batch(inst, model, params, seed, 0, trials_per_setup)
        for i in range(trials_per_setup):
            stream = TrialStream(trial_seed(seed, i))
            if model == "cosp":
                sched = make_cosp_schedule(inst, params.beta, stream)
            else:
                sched = make_rosp_schedule(inst, stream)
            tied += len(set(sched.arrival_times)) < inst.n
            out = run_trial(inst, sched, params, stream)
            want = out.hired_index if out.hired_index is not None else -1
            assert batch.hired[i] == want, (s, i)
            assert batch.ratios[i] == out.ratio, (s, i)
            assert batch.switched[i] == (out.switch_time is not None), (s, i)
    assert tied > 0


def test_outcome_invariants_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(300):
        inst, params = random_setup(rng)
        stream = TrialStream(int(rng.integers(0, 2**62)))
        sched = make_rosp_schedule(inst, stream)
        out = run_trial(inst, sched, params, stream)
        assert 0.0 <= out.ratio <= 1.0
        mset = mistake_set(inst, params.theta)
        times = sched.arrival_times
        if out.switch_time is not None:
            # the switch is the earliest mistake not preceded by a
            # prediction-mode hire of the top prediction
            first_mistake = min(times[i] for i in mset)
            assert out.switch_time == first_mistake
            assert out.mode_at_end == "secretary"
            if out.hired_index is not None:
                assert times[out.hired_index] > params.tau
                assert times[out.hired_index] >= out.switch_time
        else:
            assert out.mode_at_end == "prediction"
            if mset:
                # every mistake arrived after the prediction-mode hire
                assert out.hired_index == inst.top_predicted_index
                assert times[out.hired_index] < min(times[i] for i in mset)
        if out.hired_index is None:
            assert out.hired_value == 0.0 and out.ratio == 0.0