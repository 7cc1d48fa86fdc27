"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
import zlib

import numpy as np
from scipy.stats import kstest

from secpred import (
    THEOREM_COSP_PARAMS as P,
    THEOREM_ROSP_PARAMS as Q,
    build_instance,
    certify,
    estimate_ratio,
    gen_case_family,
    gen_underestimated_best,
    make_rosp_schedule,
    run_trial,
    derandomized_trial,
)
from secpred.analytic import case_bound, pow_over_x_integral
from secpred.rng import TrialStream, trial_seed
from oracles import (
    COSP_ORACLES,
    ROSP_ORACLES,
    log_ratio,
    min_density_first_moment,
    min_density_mass,
)
from scipy.integrate import quad

from test_large_regimes import PATTERNS, sample_profiles


def _report(num, desc, extra=""):
    print(f"criterion {num}: PASS — {desc}{extra}")


def test_criterion_1_cosp_certification():
    t0 = time.time()
    report = certify("cosp", P, target_b=0.262, thresholds=(20, 20))
    dt = time.time() - t0
    assert report.passed, report
    assert report.min_value - 1e-6 >= 0.262
    assert dt < 60.0
    _report(1, "cosp certification at B=0.262 (theta,tau,beta,gamma,delta)="
               "(0.58,0.37,0.64,0.27,0.46)",
            f"; min={report.min_value:.9f} in {dt:.2f}s")


def test_criterion_2_rosp_certification():
    t0 = time.time()
    report = certify("rosp", Q, target_b=0.221, thresholds=(20, 20))
    dt = time.time() - t0
    assert report.passed, report
    assert dt < 300.0
    _report(2, "rosp certification at B=0.221 (theta,tau,gamma,delta)="
               "(0.63,0.33,0.34,0.66)",
            f"; min={report.min_value:.9f} in {dt:.2f}s")


def test_criterion_3_tightness():
    rep_c = certify("cosp", P, target_b=0.29)
    assert not rep_c.passed
    a = rep_c.argmin
    assert a.case_id and (a.m is not None or a.regime != "exact")
    rep_r = certify("rosp", Q, target_b=0.25)
    assert not rep_r.passed
    b = rep_r.argmin
    _report(3, "raised targets fail and name concrete cells",
            f"; cosp {a.case_id}@({a.m},{a.k},{a.m2}) rosp {b.case_id}@({b.m},{b.k},{b.m2})")


def _admissible_m2(cid, m, k):
    if cid in (4, 5):
        return range(max(0, m - k), m) if k >= 1 else range(0)
    return range(max(0, m - k + 1), m + 1) if k >= 1 else range(0)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a, b = sorted(rng.uniform(0.01, 1.0, 2))
        m = int(rng.integers(0, 21))
        px, _ = quad(lambda x: (1 - x) ** m / x, a, b, epsabs=1e-11, limit=200)
        assert abs(pow_over_x_integral(a, b, m) - px) < 1e-8
        mass, _ = quad(lambda x: (m + 1) * (1 - x) ** m, a, b, epsabs=1e-11)
        assert abs(min_density_mass(a, b, m + 1) - mass) < 1e-8
        mom, _ = quad(lambda x: x * (m + 1) * (1 - x) ** m, a, b, epsabs=1e-11)
        assert abs(min_density_first_moment(a, b, m + 1) - mom) < 1e-8
        assert abs(log_ratio(a, b) - math.log(b / a)) < 1e-12
    checked = 0
    for m in range(1, 7):
        for k in range(0, 7):
            assert abs(case_bound("cosp", 1, m, 0, 0, P) - COSP_ORACLES[1](m, P)) < 1e-8
            for cid in (4, 5, 6):
                for m2 in _admissible_m2(cid, m, k):
                    got = case_bound("cosp", cid, m, k, m2, P)
                    assert abs(got - COSP_ORACLES[cid](m, k, m2, P)) < 1e-8, (cid, m, k, m2)
                    checked += 1
    for m in range(1, 5):
        for k in range(0, 5):
            assert abs(case_bound("rosp", 1, m, 0, 0, Q) - ROSP_ORACLES[1](m, Q)) < 1e-7
            for cid in (4, 5, 6):
                for m2 in _admissible_m2(cid, m, k):
                    got = case_bound("rosp", cid, m, k, m2, Q)
                    assert abs(got - ROSP_ORACLES[cid](m, k, m2, Q)) < 1e-7, (cid, m, k, m2)
                    checked += 1
    dt = time.time() - t0
    assert dt < 120.0
    _report(4, "lemma and case bounds match independent quadrature",
            f"; {checked} case cells in {dt:.1f}s")


def test_criterion_5_large_regime_soundness():
    t0 = time.time()
    checked = 0
    for model, params in (("cosp", P), ("rosp", Q)):
        for regime, pattern in PATTERNS.items():
            cases = (1, 4, 5, 6) if regime != "large_m2" else (4, 5, 6)
            for cid in cases:
                if cid == 1 and regime == "large_k":
                    continue
                rng = np.random.default_rng(zlib.crc32(f"{model}:{regime}:{cid}".encode()))
                for m, k, m2, small in sample_profiles(rng, cid, pattern, count=50):
                    symbolic = case_bound(model, cid, *small, params, thresholds=(20, 20))
                    exact = case_bound(model, cid, m, k, m2, params)
                    assert exact >= symbolic - 1e-9, (model, regime, cid, m, k, m2)
                    checked += 1
    dt = time.time() - t0
    _report(5, "exact formulas dominate symbolic large-regime bounds",
            f"; {checked} samples (50/regime/case) in {dt:.1f}s")


def test_criterion_6_simulation_vs_analysis():
    t0 = time.time()
    trials = 1_000_000
    lines = []
    for model, params in (("cosp", P), ("rosp", Q)):
        for cid, prof in ((1, (1, 0, 0)), (4, (2, 1, 1)), (5, (2, 1, 1)), (6, (1, 1, 1))):
            inst = gen_case_family(cid, *prof, 5, params.theta)
            res = estimate_ratio(inst, model, params, trials=trials, seed=2026)
            bound = case_bound(model, cid, *prof, params)
            assert res.mean_ratio >= bound - 3 * res.std_error, (model, cid, res, bound)
            lines.append(f"{model} C{cid}{prof}: emp={res.mean_ratio:.5f} >= {bound:.5f}-3se")
    dt = time.time() - t0
    _report(6, "empirical ratios dominate analytic case bounds at 1e6 trials",
            f" in {dt:.1f}s\n    " + "\n    ".join(lines))


def test_criterion_7_consistency_sweep():
    for eps in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
        floor = (1 - eps) / (1 + eps)
        if eps == 0.0:
            inst = build_instance([1.0, 0.995], [1.0, 0.995])
            expect = 1.0
        else:
            qv = min(1.0 - 1e-6, floor + 0.005)
            inst = build_instance([1.0, qv], [(1 - eps), (1 + eps) * qv])
            expect = qv
        res = estimate_ratio(inst, "cosp", P, trials=50_000, seed=7)
        assert res.hire_rate == 1.0 and res.mode_switch_rate == 0.0
        assert res.std_error <= 1e-9  # deterministic hire of the top prediction
        assert res.mean_ratio >= floor - 1e-12
        assert abs(res.mean_ratio - expect) < 1e-9
    _report(7, "zero-mistake sweep eps in {0,...,0.5}: deterministic hire meets "
               "(1-eps)/(1+eps)")


def test_criterion_8_derandomization():
    samples = 100_000
    stats = []
    for n in (1, 5, 50):
        rng = np.random.default_rng(800 + n)
        t1 = rng.random((samples, n)).min(axis=1)
        u = 1.0 - (1.0 - t1) ** n
        stat, pvalue = kstest(u, "uniform")
        assert pvalue > 0.01, (n, stat, pvalue)
        stats.append(f"n={n}: KS={stat:.5f} p={pvalue:.3f}")

    inst = gen_underestimated_best(4, 0.9, Q.theta)
    n_sched = 100_000
    counts_d = np.zeros(inst.n + 1)
    counts_r = np.zeros(inst.n + 1)
    for s in range(n_sched):
        stream = TrialStream(trial_seed(88, s))
        sched = make_rosp_schedule(inst, stream)
        out_d = derandomized_trial(inst, sched, Q)
        out_r = run_trial(inst, sched, Q, stream)
        counts_d[out_d.hired_index if out_d.hired_index is not None else -1] += 1
        counts_r[out_r.hired_index if out_r.hired_index is not None else -1] += 1
    for idx in range(inst.n + 1):
        p = counts_r[idx] / n_sched
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_sched)
        assert abs(counts_d[idx] / n_sched - p) <= 3 * sigma + 2 / n_sched, idx
    _report(8, "U = 1-(1-t1)^n passes KS at alpha=0.01 and derandomized hires "
               "match the randomized distribution", "; " + " ".join(stats))
