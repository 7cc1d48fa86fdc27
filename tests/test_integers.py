"""One table over every integer argument the package checks.

Each row names an argument, a call that passes a value for it alone, and
its bounds [lo, hi] (hi None where it has none).  ``core.check_integer``
refuses a bool and a float, whole or not, as not an integer, a value
below lo with "must be >= lo" and one above hi with "exceeds the cap of
hi"; lo itself is accepted.  The calls at hi + 1 are refused before any
work, so no row runs a large trial count, sample count or instance.
"""

import re
from argparse import Namespace
from functools import partial

import pytest

from secpred import (
    THEOREM_COSP_PARAMS as P,
    THEOREM_ROSP_PARAMS as Q,
    CaseProfile,
    bits_from_uniform,
    certify,
    estimate_ratio,
    gen_case_family,
    gen_overestimated_top,
    gen_underestimated_best,
    uniform_from_first_arrival,
)
from secpred.analytic import MAX_PROFILE, MAX_THRESHOLD, case6_coef, case_bound, pow_over_x_integral
from secpred.certificate import entry_groups
from secpred.cli import MAX_DEMO_SAMPLES, _cmd_derand_demo
from secpred.core import BLOCK_ELEMENTS
from secpred.policy import run_trials_batch
from secpred.rng import TrialStream, trial_seed, trial_seeds_vector
from secpred.simulate import MAX_TRIALS

INST = gen_case_family(4, 2, 1, 1, 5, P.theta)


def _batch(start=0, count=1, base_seed=1):
    return run_trials_batch(INST, "cosp", P, base_seed, start, count)


def _demo(n=1, samples=1, seed=0):
    return _cmd_derand_demo(Namespace(n=n, samples=samples, seed=seed))


# id: (name in the message, call of the value, lo, hi)
ROWS = {
    "check_seed": ("seed", TrialStream, 0, 2**64 - 1),
    "CaseProfile m": ("m", lambda x: CaseProfile(x, 0, 0), 0, None),
    "CaseProfile k": ("k", lambda x: CaseProfile(1, x, 0), 0, None),
    "CaseProfile m2": ("m2", lambda x: CaseProfile(1, 1, x), 0, None),
    "thresholds tm": ("tm", lambda x: certify("cosp", P, 0.2, thresholds=(x, 1)), 1, MAX_THRESHOLD),
    "thresholds tk": ("tk", lambda x: certify("rosp", Q, 0.2, thresholds=(1, x)), 1, MAX_THRESHOLD),
    "case_bound case_id": ("case_id", lambda x: case_bound("cosp", x, 1, 1, 0, P), 0, 6),
    "case_bound m": ("m", lambda x: case_bound("rosp", 4, x, 1, 0, Q), 1, MAX_PROFILE),
    "case_bound k": ("k", lambda x: case_bound("cosp", 6, 1, x, 0, P), 0, MAX_PROFILE),
    "case_bound m2": ("m2", lambda x: case_bound("rosp", 6, 1, 1, x, Q), 0, MAX_PROFILE),
    "case6_coef m": ("m", partial(case6_coef, "cosp", params=P), 0, MAX_PROFILE),
    "pow_over_x_integral m": ("m", partial(pow_over_x_integral, 0.2, 0.5), 0, MAX_PROFILE),
    "entry_groups size": ("size", lambda x: next(entry_groups("cosp", 1, 1, size=x)), 1, None),
    "run_trials_batch start": ("start", lambda x: _batch(start=x), 0, 2**64),
    "run_trials_batch count": ("count", lambda x: _batch(count=x), 0, 2**64),
    "trial_seed index": ("index", partial(trial_seed, 1), 0, 2**64 - 1),
    "trial_seeds_vector start": ("start", lambda x: trial_seeds_vector(1, x, 1), 0, 2**64),
    "trial_seeds_vector count": ("count", lambda x: trial_seeds_vector(1, 0, x), 0, 2**64),
    "estimate_ratio trials": ("trials", partial(estimate_ratio, INST, "cosp", P, seed=1), 1,
                              MAX_TRIALS),
    "underestimated best n": ("n", partial(gen_underestimated_best, deviation=0.9, theta=0.58), 2,
                              BLOCK_ELEMENTS),
    "overestimated top n": ("n", partial(gen_overestimated_top, deviation=0.9, theta=0.58), 2,
                            BLOCK_ELEMENTS),
    "gen_case_family case_id": ("case_id", lambda x: gen_case_family(x, 1, 0, 0, 2, 0.58), 1, 6),
    "gen_case_family m": ("m", lambda x: gen_case_family(1, x, 0, 0, 3, 0.58), 1, None),
    "gen_case_family k": ("k", lambda x: gen_case_family(1, 1, x, 0, 3, 0.58), 0, None),
    "gen_case_family m2": ("m2", lambda x: gen_case_family(1, 1, 0, x, 3, 0.58), 0, None),
    "gen_case_family n": ("n", lambda x: gen_case_family(1, 1, 0, 0, x, 0.58), 2, BLOCK_ELEMENTS),
    "uniform_from_first_arrival n": ("n", partial(uniform_from_first_arrival, 0.3), 1, None),
    "bits_from_uniform count": ("count", partial(bits_from_uniform, 0.5), 1, None),
    "derand-demo --n": ("--n", lambda x: _demo(n=x), 1, BLOCK_ELEMENTS),
    "derand-demo --samples": ("--samples", lambda x: _demo(samples=x), 1, MAX_DEMO_SAMPLES),
    "derand-demo --seed": ("--seed", lambda x: _demo(seed=x), 0, None),
}


def _refusals():
    for row, (name, call, lo, hi) in ROWS.items():
        for x in (True, 2.0, 2.5):
            yield pytest.param(call, x, f"{name} must be an integer, got {x!r}", id=f"{row}={x!r}")
        yield pytest.param(call, lo - 1, f"{name} must be >= {lo}, got {lo - 1}", id=f"{row}=lo-1")
        if hi is not None:
            yield pytest.param(call, hi + 1, f"{name} exceeds the cap of {hi}", id=f"{row}=hi+1")


@pytest.mark.parametrize("call,x,message", _refusals())
def test_integer_argument_refused(call, x, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x)


@pytest.mark.parametrize("call,lo", [row[1:3] for row in ROWS.values()], ids=list(ROWS))
def test_integer_argument_accepted_at_lo(call, lo):
    call(lo)
