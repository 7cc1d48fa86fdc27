from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from secpred import THEOREM_COSP_PARAMS as P, THEOREM_ROSP_PARAMS as Q
from secpred import PolicyParams
from secpred.analytic import case6_coef, case_bound, pow_over_x_integral, prediction_floor
from oracles import COSP_ORACLES, ROSP_ORACLES


def admissible_m2(case_id, m, k):
    if case_id in (4, 5):
        return range(max(0, m - k), m) if k >= 1 and m >= 1 else range(0)
    if case_id == 6:
        return range(max(0, m - k + 1), m + 1) if k >= 1 else range(0)
    return range(0, 1)


def test_case0_examples():
    assert prediction_floor(0.0) == 1.0
    assert prediction_floor(1.0) == 0.0
    assert prediction_floor(0.58) == pytest.approx(0.42 / 1.58, abs=1e-15)
    assert prediction_floor(0.58) > 0.262
    # case 0 is answered before a point is built: no beta and tau = 0 are fine
    no_beta = PolicyParams(theta=0.58, tau=0.37, gamma=0.27, delta=0.46)
    tau_zero = replace(P, tau=0.0)
    for params in (no_beta, tau_zero):
        assert case_bound("cosp", 0, 0, 0, 0, params) == prediction_floor(0.58)
        with pytest.raises(ValueError):
            case_bound("cosp", 6, 0, 0, 0, params)


BAD_CALLS = {
    "unknown model": (partial(case_bound, "bogus", 1, 1, 0, 0, P), "unknown model 'bogus'"),
    "case 7": (partial(case_bound, "cosp", 7, 1, 1, 0, P), "case_id exceeds the cap of 6"),
    "case 0, m=-5": (partial(case_bound, "cosp", 0, -5, 3, 9, P), "m must be >= 0, got -5"),
    "case 0, m2>m": (partial(case_bound, "rosp", 0, 0, 0, 2, Q), "m2=2 outside"),
    "case 1, m=0": (partial(case_bound, "cosp", 1, 0, 0, 0, P), "m must be >= 1, got 0"),
    "case 3, m=1": (partial(case_bound, "rosp", 3, 1, 1, 0, Q), "m must be >= 2, got 1"),
    "case 4, m=0": (partial(case_bound, "cosp", 4, 0, 1, 0, P), "m must be >= 1, got 0"),
    "k=-1": (partial(case_bound, "rosp", 5, 2, -1, 0, Q), "k must be >= 0, got -1"),
    "m2>m": (partial(case_bound, "cosp", 4, 2, 1, 3, P), "m2=3 outside"),
    "case 6, m=-1": (partial(case_bound, "rosp", 6, -1, 1, 0, Q), "m must be >= 0, got -1"),
    "regime thresholds": (
        partial(case_bound, "cosp", 1, None, 0, 0, P, thresholds=(0, 20)),
        "tm must be >= 1, got 0",
    ),
    "thresholds nan": (
        partial(case_bound, "rosp", 4, 1, None, None, Q, thresholds=(float("nan"), 20)),
        "tm must be an integer, got nan",
    ),
    "thresholds 20.5": (
        partial(case_bound, "rosp", 4, 1, None, None, Q, thresholds=(20.5, 20)),
        "tm must be an integer, got 20.5",
    ),
    "thresholds above cap": (
        partial(case_bound, "cosp", 1, 2, 0, 0, P, thresholds=(10**6, 20)),
        "tm exceeds the cap of 200",
    ),
    "m above cap": (partial(case_bound, "cosp", 1, 10**400, 0, 0, P), "m exceeds the cap"),
    "k above cap": (partial(case_bound, "cosp", 4, 5, 10**6, 1, P), "k exceeds the cap"),
    "regime model": (partial(case_bound, "bogus", 1, None, 0, 0, P), "unknown model 'bogus'"),
    "regime case 0": (
        partial(case_bound, "rosp", 0, None, 0, 0, Q), "case 0 has no large-regime form"
    ),
    "regime case 2": (
        partial(case_bound, "cosp", 2, None, 0, 0, P), "case 2 has no large-regime form"
    ),
    "regime case 3": (
        partial(case_bound, "cosp", 3, 4, None, 0, P), "case 3 has no large-regime form"
    ),
    "regime case 1, m=0": (
        partial(case_bound, "rosp", 1, 0, None, None, Q), "m must be >= 1, got 0"
    ),
    "large m, m2=-4": (partial(case_bound, "cosp", 5, None, 1, -4, P), "m2 must be >= 0, got -4"),
    "large m, m2=-3": (partial(case_bound, "rosp", 4, None, 2, -3, Q), "m2 must be >= 0, got -3"),
    "large m, k=-1": (partial(case_bound, "cosp", 4, None, -1, 0, P), "k must be >= 0, got -1"),
    "large m2, small m": (
        partial(case_bound, "cosp", 4, 3, 1, None, P), "m2 cannot be large while m=3"
    ),
    "case 3, m2>m": (partial(case_bound, "cosp", 3, 4, 1, 99, P), "m2=99 outside"),
    "case 3, m2=-3": (partial(case_bound, "cosp", 3, 4, 1, -3, P), "m2 must be >= 0, got -3"),
    "case 1, k=-7": (partial(case_bound, "cosp", 1, 2, -7, 99, P), "k must be >= 0, got -7"),
    "case 1, m2>m": (partial(case_bound, "rosp", 1, 2, 0, 99, Q), "m2=99 outside"),
    "case 2, m2>m": (partial(case_bound, "cosp", 2, 1, 0, 5, P), "m2=5 outside"),
    "m=2.5": (partial(case_bound, "cosp", 1, 2.5, 0, 0, P), "m must be an integer, got 2.5"),
    "m=True": (partial(case_bound, "cosp", 1, True, 0, 0, P), "m must be an integer, got True"),
    "k=1.0": (partial(case_bound, "rosp", 4, 2, 1.0, 0, Q), "k must be an integer, got 1.0"),
    "m2=False": (partial(case_bound, "cosp", 4, 2, 1, False, P), "m2 must be an integer"),
    "regime, k=0.5": (partial(case_bound, "cosp", 5, None, 0.5, None, P), "k must be an integer"),
    "case6_coef, m=-1": (partial(case6_coef, "rosp", -1, Q), "m must be >= 0, got -1"),
    "case6_coef, m=2.5": (partial(case6_coef, "cosp", 2.5, P), "m must be an integer, got 2.5"),
    "case6_coef, m=True": (partial(case6_coef, "rosp", True, Q), "m must be an integer, got True"),
    "case6_coef, m above cap": (partial(case6_coef, "cosp", 10**6, P), "m exceeds the cap"),
    "case6_coef, m array with -1": (
        partial(case6_coef, "cosp", np.array([2, -1]), P),
        "exponent must be a nonnegative integer, got -1",
    ),
    # 1 / tau overflows, so ln(b / tau) is inf and the forms would give NaN
    "rosp tau 1e-310": (
        partial(case_bound, "rosp", 4, 2, 1, 1, PolicyParams(0.5, 1e-310, 0.5, 0.5)),
        "analytic bounds need 1 / tau finite, got tau=1e-310",
    ),
    "cosp tau 2**-1024": (
        partial(case_bound, "cosp", 5, 2, 1, 1, PolicyParams(0.5, 2.0**-1024, 0.5, 0.5, 0.5)),
        "analytic bounds need 1 / tau finite",
    ),
    "case6_coef, tau 1e-310": (
        partial(case6_coef, "rosp", 2, PolicyParams(0.5, 1e-310, 0.5, 0.5)), "1 / tau finite"
    ),
    "pow_over_x_integral, m=-1": (
        partial(pow_over_x_integral, 0.2, 0.5, -1), "m must be >= 0, got -1"
    ),
}


@pytest.mark.parametrize("call,message", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_calls_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_case6_coef_takes_ints_and_int_arrays():
    # a numpy int passes the checks; an int array (certify's and tune's
    # groups) is unchecked and gives each entry the bits of its int
    for model, params in (("cosp", P), ("rosp", Q)):
        ms = np.arange(0, 12)
        want = [case6_coef(model, m, params) for m in ms.tolist()]
        assert [case6_coef(model, m, params) for m in ms] == want
        assert case6_coef(model, ms, params).tolist() == want
        assert case6_coef(model, None, params) == 0.0


def test_large_k_ignores_m2():
    for model, params in (("cosp", P), ("rosp", Q)):
        for cid in (4, 5, 6):
            got = {case_bound(model, cid, 3, None, m2, params) for m2 in (None, 0, 2)}
            assert len(got) == 1, (model, cid, got)


def test_cosp_case1_examples():
    assert case_bound("cosp", 1, 1, 0, 0, P) == pytest.approx(P.gamma, abs=1e-15)
    assert case_bound("cosp", 1, 2, 0, 0, P) == pytest.approx(0.2674, abs=1e-10)
    limit = (P.tau / P.beta) * P.delta
    assert limit == pytest.approx(0.265938, abs=1e-6)
    assert abs(case_bound("cosp", 1, 10_000, 0, 0, P) - limit) < 1e-6


def test_cosp_reduction_identities():
    assert case_bound("cosp", 2, 0, 0, 0, P) == case_bound("cosp", 1, 1, 0, 0, P)
    assert case_bound("cosp", 2, 1, 0, 0, P) == case_bound("cosp", 1, 2, 0, 0, P)
    assert case_bound("cosp", 2, 5, 0, 0, P) == case_bound("cosp", 1, 6, 0, 0, P)
    assert case_bound("cosp", 3, 2, 1, 0, P) == case_bound("cosp", 4, 1, 1, 0, P)
    assert case_bound("cosp", 3, 6, 3, 2, P) == case_bound("cosp", 4, 5, 3, 2, P)
    # m2 clamps into the reduced profile's window
    assert case_bound("cosp", 3, 4, 1, 3, P) == case_bound("cosp", 4, 3, 1, 2, P)


def test_cosp_case4_examples():
    beta, gamma = P.beta, P.gamma
    assert case_bound("cosp", 4, 1, 0, 0, P) == pytest.approx((1 - beta) * (1 - gamma), abs=1e-14)
    # third-term prefactor decreases in k
    pref = [(1 - beta) ** (k + 1) / (k + 1) for k in range(6)]
    assert all(a > b for a, b in zip(pref, pref[1:]))


def test_cosp_case5_collapses():
    assert case_bound("cosp", 5, 1, 2, 0, P) == pytest.approx(P.beta - P.tau, abs=1e-12)
    # m2 = 0 kills the third summand: value has no delta dependence
    tweaked = PolicyParams(theta=P.theta, tau=P.tau, gamma=P.gamma, delta=0.9, beta=P.beta)
    assert case_bound("cosp", 5, 3, 2, 0, tweaked) == pytest.approx(
        case_bound("cosp", 5, 3, 2, 0, P), abs=1e-14
    )


def test_cosp_case6_examples():
    floor = prediction_floor(P.theta)
    assert case_bound("cosp", 6, 0, 0, 0, P) == pytest.approx(floor, abs=1e-15)
    assert (1 - P.beta) * floor == pytest.approx(0.09570, abs=5e-6)


def test_beta_below_tau_rejected():
    bad = PolicyParams(theta=0.58, tau=0.37, gamma=0.27, delta=0.46, beta=0.2)
    for fn in (
        lambda: case_bound("cosp", 1, 1, 0, 0, bad),
        lambda: case_bound("cosp", 4, 2, 1, 1, bad),
    ):
        with pytest.raises(ValueError):
            fn()


def test_cosp_case_oracle_equivalence():
    # quick sweep; the acceptance gate runs the full spec scope (m, k <= 6)
    for m in range(1, 5):
        for k in range(0, 5):
            assert abs(case_bound("cosp", 1, m, 0, 0, P) - COSP_ORACLES[1](m, P)) < 1e-8
            for cid in (4, 5, 6):
                for m2 in admissible_m2(cid, m, k):
                    got = case_bound("cosp", cid, m, k, m2, P)
                    want = COSP_ORACLES[cid](m, k, m2, P)
                    assert abs(got - want) < 1e-8, (cid, m, k, m2)


def test_rosp_case1_examples():
    assert case_bound("rosp", 1, 1, 0, 0, Q) == pytest.approx(Q.gamma * (1 - Q.tau), abs=1e-14)
    assert case_bound("rosp", 1, 1, 0, 0, Q) == pytest.approx(0.2278, abs=1e-12)
    assert abs(case_bound("rosp", 1, 2, 0, 0, Q) - ROSP_ORACLES[1](2, Q)) < 1e-10


def test_rosp_reduction_identities():
    assert case_bound("rosp", 2, 0, 0, 0, Q) == case_bound("rosp", 1, 1, 0, 0, Q)
    assert case_bound("rosp", 2, 3, 0, 0, Q) == case_bound("rosp", 1, 4, 0, 0, Q)
    assert case_bound("rosp", 3, 2, 1, 0, Q) == case_bound("rosp", 4, 1, 1, 0, Q)
    assert case_bound("rosp", 3, 5, 2, 2, Q) == case_bound("rosp", 4, 4, 2, 2, Q)


def test_rosp_case4_collapse_and_beta_identity():
    # k = 0, m = 1, m2 = 0: only the early block and the gamma tail survive
    got = case_bound("rosp", 4, 1, 0, 0, Q)
    tau, gamma = Q.tau, Q.gamma
    want = tau * (1 - tau) + (1 - gamma) * (1 - tau) ** 2 / 2
    assert got == pytest.approx(want, abs=1e-14)
    # Beta-function identity used by the closed form
    import math

    i, m = 1, 1
    assert math.factorial(i) * math.factorial(m - 1) / math.factorial(i + m) == 0.5


def test_rosp_case6_m0():
    assert case_bound("rosp", 6, 0, 0, 0, Q) == pytest.approx(
        prediction_floor(Q.theta), abs=1e-15
    )
    # inner integral of the early term at m = 1 is tau^2/2
    tau = Q.tau
    from secpred.analytic import Point, _one_minus_pow

    assert _one_minus_pow(Point.of("rosp", Q), 1, 20) == pytest.approx(tau**2 / 2, abs=1e-15)


def test_rosp_case6_large_m_matches_oracle():
    # T=40 cells; the closed form keeps case 6 at float accuracy for large m
    q = replace(Q, tau=0.37)
    for m, k, m2 in ((38, 1, 37), (39, 3, 36)):
        got = case_bound("rosp", 6, m, k, m2, q)
        assert abs(got - ROSP_ORACLES[6](m, k, m2, q)) < 1e-11, (m, k, m2)


def test_rosp_case_oracle_equivalence():
    # quick sweep; the acceptance gate runs the full spec scope (m, k <= 4)
    for m in range(1, 4):
        for k in range(0, 4):
            assert abs(case_bound("rosp", 1, m, 0, 0, Q) - ROSP_ORACLES[1](m, Q)) < 1e-7
            for cid in (4, 5, 6):
                for m2 in admissible_m2(cid, m, k):
                    got = case_bound("rosp", cid, m, k, m2, Q)
                    want = ROSP_ORACLES[cid](m, k, m2, Q)
                    assert abs(got - want) < 1e-7, (cid, m, k, m2)


def test_case_values_in_unit_range():
    # every enumerated profile within the full thresholds stays in [0, 1]
    from secpred.certificate import iter_entries

    for model, params in (("cosp", P), ("rosp", Q)):
        for entry in iter_entries(model, 20, 20):
            case_id, regime, m, k, m2 = entry
            if regime == "exact":
                value = case_bound(model, case_id, m, k, m2, params)
                assert 0.0 <= value <= 1.0, (model, entry, value)


def _random_params(model, count, seed):
    # count seeded parameter sets, the first two at the floor of tune's tau
    # grid and, for cosp, two with beta a hair below 1
    rng = np.random.default_rng(seed)
    for i in range(count):
        theta, gamma, delta = rng.random(3).tolist()
        tau = 0.001 if i < 2 else 0.001 + 0.9 * float(rng.random())
        beta = None
        if model == "cosp":
            beta = tau + (1 - tau) * float(rng.random())
            beta = max((0.0011, 1 - 1e-9, 1 - 1e-6)[i] if i < 3 else beta, tau + 1e-4)
        yield PolicyParams(theta=theta, tau=tau, gamma=gamma, delta=delta, beta=beta)


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_scalar_point_equals_one_cell_mesh(model):
    # a scalar point runs the numpy calls of a mesh, so each case bound equals
    # the one at the one-cell mesh with the same fields, bit for bit
    from secpred.analytic import Point
    from secpred.certificate import iter_entries

    entries = list(iter_entries(model, 10, 10))
    for params in [P if model == "cosp" else Q, *_random_params(model, 24, 26)]:
        scalar = Point.of(model, params)
        fields = (scalar.tau, scalar.gamma, scalar.delta, scalar.beta)
        cell = Point(*(None if x is None else np.array([x]) for x in fields), r=scalar.r)
        for case_id, _, m, k, m2 in entries:
            got = case_bound(model, case_id, m, k, m2, scalar, (10, 10))
            want = case_bound(model, case_id, m, k, m2, cell, (10, 10))
            assert np.array_equal(np.reshape(got, -1), want), (params, case_id, m, k, m2)
