"""Soundness of the symbolic large-parameter bounds: the exact case formulas
must dominate them on sampled profiles with parameters in (20, 200]."""

import zlib

import numpy as np
import pytest

from secpred import THEOREM_COSP_PARAMS as P, THEOREM_ROSP_PARAMS as Q
from secpred.analytic import case_bound

TM, TK = 20, 20
SLACK = -1e-9


def test_published_constant_examples():
    import math

    got = case_bound("cosp", 1, None, None, None, P)
    assert got == pytest.approx(0.9999 * (0.37 / 0.64) * 0.46, abs=1e-15)
    assert got == pytest.approx(0.265911, abs=1e-6)
    # large-k case 4 at small m: exact pre-switch sum + 0.9999 tau ln(1/beta),
    # the dropped third term contributes zero
    got = case_bound("cosp", 4, 2, None, 0, P)
    pre = 0.37 * (0.64 - 0.37)  # sum collapses to tau*(beta - tau) at m = 2
    want = pre + 0.9999 * 0.37 * math.log(1 / 0.64)
    assert got == pytest.approx(want, abs=1e-12)


def test_exact_case1_dominates_large_m_bound():
    bound = case_bound("cosp", 1, None, None, None, P)
    for m in range(21, 201):
        assert case_bound("cosp", 1, m, 0, 0, P) >= bound + SLACK
    boundr = case_bound("rosp", 1, None, None, None, Q)
    for m in range(21, 201):
        assert case_bound("rosp", 1, m, 0, 0, Q) >= boundr + SLACK


def sample_profiles(rng, case_id, pattern, count=50):
    """(m, k, m2, small) samples consistent with the case's structure; small is
    the profile as the regime sees it, with None for each large parameter."""
    out = []
    lm, lk, lm2 = pattern
    min_m = {1: 1, 4: 2, 5: 1, 6: 0}[case_id]
    while len(out) < count:
        if case_id == 1:
            m = int(rng.integers(21, 201)) if lm else int(rng.integers(1, TM + 1))
            out.append((m, 0, 0, (None if lm else m, None, None)))
            continue
        if lm and lk:
            m = int(rng.integers(21, 201))
            k = int(rng.integers(21, 201))
            lo = max(0, m - k)
            hi = m - 1 if case_id in (4, 5) else m
            if lo > hi:
                continue
            m2 = int(rng.integers(lo, hi + 1))
            out.append((m, k, m2, (None, None, None)))
        elif lm and lm2:
            k = int(rng.integers(1, TK + 1))
            m2 = int(rng.integers(21, 201))
            if case_id in (4, 5):
                lo, hi = max(21, m2 + 1), m2 + k
            else:
                lo, hi = max(21, m2), m2 + k
            if lo > hi:
                continue
            m = int(rng.integers(lo, hi + 1))
            out.append((m, k, m2, (None, k, None)))
        elif lm:
            k = int(rng.integers(1, TK + 1))
            need = TM + 1
            if need - k > TM:
                continue
            m2 = int(rng.integers(max(0, need - k), TM + 1))
            hi = k + m2
            if hi < 21:
                continue
            m = int(rng.integers(21, min(200, hi) + 1))
            out.append((m, k, m2, (None, k, m2)))
        else:  # large k only
            k = int(rng.integers(21, 201))
            m = int(rng.integers(max(1, min_m), TM + 1)) if case_id != 6 else int(
                rng.integers(0, TM + 1)
            )
            hi = m - 1 if case_id in (4, 5) else m
            if hi < 0:
                continue
            m2 = int(rng.integers(0, hi + 1))
            out.append((m, k, m2, (m, None, 0)))
    return out


PATTERNS = {
    "large_m": (True, False, False),
    "large_k": (False, True, False),
    "large_m2": (True, False, True),
    "large_mk": (True, True, True),
}


@pytest.mark.parametrize("model,params", [("cosp", P), ("rosp", Q)])
@pytest.mark.parametrize("regime", list(PATTERNS))
def test_symbolic_bounds_are_sound(model, params, regime):
    # quick sweep; the acceptance gate samples 50 profiles per regime and case
    rng = np.random.default_rng(zlib.crc32(f"{model}:{regime}".encode()))
    pattern = PATTERNS[regime]
    cases = (1, 4, 5, 6) if regime != "large_m2" else (4, 5, 6)
    for cid in cases:
        if cid == 1 and regime == "large_k":
            continue  # case 1 has no k dependence; nothing symbolic to check
        for m, k, m2, small in sample_profiles(rng, cid, pattern, count=8):
            symbolic = case_bound(model, cid, *small, params, thresholds=(TM, TK))
            exact = case_bound(model, cid, m, k, m2, params)
            assert exact >= symbolic + SLACK, (model, regime, cid, m, k, m2)
