import math

import numpy as np
import pytest

from secpred import (
    THEOREM_ROSP_PARAMS as Q,
    bits_from_uniform,
    build_instance,
    derandomized_trial,
    gen_case_family,
    gen_overestimated_top,
    gen_underestimated_best,
    make_rosp_schedule,
    run_trial,
    uniform_from_first_arrival,
)
from secpred.core import Schedule
from secpred.derand import _OneDraw
from secpred.rng import TrialStream, trial_seed


def test_uniform_transform_examples():
    assert uniform_from_first_arrival(0.0, 4) == 0.0
    assert uniform_from_first_arrival(1.0, 4) == 1.0
    assert uniform_from_first_arrival(0.2, 3) == pytest.approx(0.488, abs=1e-12)
    assert uniform_from_first_arrival(1e-18, 5) == pytest.approx(5e-18, rel=1e-12)
    with pytest.raises(ValueError):
        uniform_from_first_arrival(-0.1, 3)
    with pytest.raises(ValueError):
        uniform_from_first_arrival(0.5, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: bits_from_uniform(1.0, 3), "u=1.0 outside"),
        (lambda: bits_from_uniform(0.5, 0), "count must be >= 1"),
        (lambda: derandomized_trial(build_instance([1.0], [1.0]), Schedule(()), Q),
         "at least one arrival"),
    ],
    ids=["u 1", "count 0", "empty schedule"],
)
def test_bad_calls_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_second_uniform_is_refused():
    # run_trial draws at most once, so a second draw is a bug, not a refill
    draw = _OneDraw(0.5)
    draw.uniform()
    with pytest.raises(RuntimeError, match="second uniform"):
        draw.uniform()


def test_uniform_transform_float_matches_array():
    # a float is taken as a 0-d array, so it runs the array's numpy calls and
    # gives the same bits, returned as a float
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 1.0, 1e-18, 0.5, 1 - 2**-53], rng.random(20_000)])
    for n in (1, 7, 800):
        want = uniform_from_first_arrival(t, n)
        got = np.array([uniform_from_first_arrival(float(x), n) for x in t])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_uniform_transform_monotone():
    for n in (1, 5, 50):
        # strictly increasing where doubles can still resolve the increments
        xs = np.linspace(0, 0.4, 41)
        us = [uniform_from_first_arrival(float(x), n) for x in xs]
        assert all(a < b for a, b in zip(us, us[1:]))
        full = [uniform_from_first_arrival(float(x), n) for x in np.linspace(0, 1, 101)]
        assert all(a <= b for a, b in zip(full, full[1:]))


def test_bits_examples():
    assert bits_from_uniform(0.5, 3) == [1, 0, 0]
    assert bits_from_uniform(0.0, 5) == [0] * 5
    assert bits_from_uniform(0.488, 4) == [0, 1, 1, 1]  # 0.488 in [0.4375, 0.5)


def test_bits_round_trip():
    for u in (0.123456, 0.875, 1 / 3, 0.0001):
        bits = bits_from_uniform(u, 52)
        back = math.fsum(b * 2.0 ** -(j + 1) for j, b in enumerate(bits))
        assert abs(back - u) <= 2.0**-52


def test_no_randomness_matches_run_trial():
    inst = build_instance([2.0, 5.0, 1.0], [2.0, 5.0, 1.0])
    for s in range(30):
        stream = TrialStream(trial_seed(8, s))
        sched = make_rosp_schedule(inst, stream)
        assert derandomized_trial(inst, sched, Q) == run_trial(inst, sched, Q, stream)


class _CountingStream:
    def __init__(self, stream):
        self.stream = stream
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.stream.uniform()


def test_run_trial_draws_at_most_one_uniform():
    # the derandomized trial supplies exactly one uniform per trial
    gated = 0
    for inst in (
        gen_underestimated_best(4, 0.9, Q.theta),
        gen_overestimated_top(5, 0.9, Q.theta),
        gen_case_family(4, 2, 1, 1, n=6, theta=Q.theta),
    ):
        for s in range(3000):
            stream = TrialStream(trial_seed(12, s))
            sched = make_rosp_schedule(inst, stream)
            counting = _CountingStream(stream)
            run_trial(inst, sched, Q, counting)
            assert counting.draws <= 1, s
            gated += counting.draws
            derandomized_trial(inst, sched, Q)  # a second draw would raise
    assert gated > 0


def test_derandomized_trial_deterministic():
    inst = gen_underestimated_best(4, 0.9, Q.theta)
    stream = TrialStream(5)
    sched = make_rosp_schedule(inst, stream)
    a = derandomized_trial(inst, sched, Q)
    b = derandomized_trial(inst, sched, Q)
    assert a == b


def test_hire_distribution_matches_randomized():
    # same instance, same schedules: the derandomized run draws its coin from
    # the first arrival, the randomized run from an external stream; hire
    # frequencies must agree within Monte Carlo error
    inst = gen_underestimated_best(4, 0.9, Q.theta)
    n_sched = 20_000
    counts_d = np.zeros(inst.n + 1)
    counts_r = np.zeros(inst.n + 1)
    for s in range(n_sched):
        stream = TrialStream(trial_seed(31, s))
        sched = make_rosp_schedule(inst, stream)
        out_d = derandomized_trial(inst, sched, Q)
        out_r = run_trial(inst, sched, Q, stream)
        counts_d[out_d.hired_index if out_d.hired_index is not None else -1] += 1
        counts_r[out_r.hired_index if out_r.hired_index is not None else -1] += 1
    for idx in range(inst.n + 1):
        p = counts_r[idx] / n_sched
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_sched)
        assert abs(counts_d[idx] / n_sched - p) <= 4 * sigma + 2 / n_sched, idx
