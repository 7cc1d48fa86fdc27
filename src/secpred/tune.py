"""Grid search over policy parameters maximizing the certified bound.

The search space is (tau, beta, gamma, delta) for chosen order and
(tau, gamma, delta) for random order; theta never needs to be searched.
The only places theta enters the certified minimum are the no-mistake
entries, through r = (1-theta)/(1+theta), and r only helps.  So for each
grid cell we solve the scalar fixpoint B = f(B), where f substitutes r := B
into the enumeration and takes the minimum over all other entries; theta is
then set to (1-B)/(1+B), the largest threshold whose no-mistake floor still
meets B.

All cell values are evaluated vectorized across the whole grid via shared
tables of the pow-over-x integrals (computed by their positive tail series,
which is cancellation-free); the reported winner is re-certified with the
exact enumeration at full thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    _rosp_c6_floor_weight,
    _rosp_c6_k_part,
    _rosp_c6_log_part,
    _rosp_c6_pre_part,
    _rosp_c6_tail_part,
)
from .certify import certify
from .core import COSP, PolicyParams

__all__ = ["GridSpec", "grid_search", "SEARCH_THRESHOLDS"]

SEARCH_THRESHOLDS = (10, 10)


@dataclass(frozen=True)
class GridSpec:
    tau: tuple[float, ...]
    gamma: tuple[float, ...]
    delta: tuple[float, ...]
    beta: tuple[float, ...] | None = None  # chosen order only

    @classmethod
    def coarse(cls, model: str, step: float = 0.05, lo: float = 0.05, hi: float = 0.95):
        if step < 1e-3:
            raise ValueError("grid step must be >= 1e-3")
        pts = tuple(round(lo + i * step, 10) for i in range(int((hi - lo) / step + 1.5)))
        pts = tuple(p for p in pts if lo - 1e-12 <= p <= hi + 1e-12)
        beta = pts if model == COSP else None
        return cls(tau=pts, gamma=pts, delta=pts, beta=beta)

    @classmethod
    def single(cls, params: PolicyParams):
        beta = (params.beta,) if params.beta is not None else None
        return cls(tau=(params.tau,), gamma=(params.gamma,), delta=(params.delta,), beta=beta)


def _pow_tables(a: np.ndarray, b: np.ndarray, nmax: int) -> np.ndarray:
    """table[n] = Integral_a^b (1-x)^n / x dx for n = 0..nmax, elementwise.

    Positive tail series sum_{j>n} ((1-a)^j - (1-b)^j)/j, accumulated once
    forward; prefix snapshots give every n simultaneously.
    """
    ua, ub = 1.0 - a, 1.0 - b
    amin = float(np.min(a))
    J = min(6000, max(nmax + 2, int(math.log(1e-19) / math.log(1.0 - amin)) + nmax + 2))
    prefix = np.zeros((nmax + 1,) + a.shape)
    running = np.zeros_like(ua)
    pa, pb = ua.copy(), ub.copy()
    for j in range(1, J + 1):
        running += (pa - pb) / j
        if j <= nmax:
            prefix[j] = running
        pa *= ua
        pb *= ub
        if j > nmax and float(np.max(pa)) < 1e-19 * j * amin:
            break
    return running[None, ...] - prefix


def _shrink(base: np.ndarray, exponent: int) -> np.ndarray:
    return np.minimum(0.9999, 1.0 - base**exponent)


def _fixpoint(static_min, b_bases, b_coefs):
    b = np.zeros_like(static_min)
    for _ in range(200):
        nxt = static_min.copy()
        if b_bases is not None:
            np.minimum(nxt, np.min(b_bases + b_coefs * b[None, :], axis=0), out=nxt)
        if float(np.max(np.abs(nxt - b))) < 1e-13:
            b = nxt
            break
        b = nxt
    return b


# ---------------------------------------------------------------------------
# chosen order
# ---------------------------------------------------------------------------

def _cosp_components(tau, beta, gam, dlt, tm, tk):
    ub, ut = 1.0 - beta, 1.0 - tau
    lnbt, lnib = np.log(beta / tau), np.log(1.0 / beta)
    p_tb = _pow_tables(tau, beta, tm + 1)
    p_b1 = _pow_tables(beta, np.ones_like(beta), tk + 1)

    summ = [None] + [tau * (lnbt - p_tb[m - 1]) for m in range(1, tm + 1)]
    sumk = [tau * (lnib - p_b1[k]) for k in range(0, tk + 1)]
    powb = [ub**n for n in range(0, 2 * tm + 3)]
    powt = [ut**n for n in range(0, tm + 2)]
    tailw = [powb[k + 1] / (k + 1) for k in range(0, tk + 1)]
    br_mixed = (1.0 - dlt) * tau / beta
    bracket4 = [(1.0 - powb[n]) * br_mixed + powb[n] * (1.0 - gam) for n in range(0, tm + 1)]
    bracket56 = [(1.0 - powb[n]) * br_mixed for n in range(0, tm + 1)]

    INF = np.full_like(tau, np.inf)
    static = INF.copy()

    # case 1 (exact and large-m)
    for m in range(1, tm + 1):
        np.minimum(static, (tau / beta) * dlt * (1.0 - powb[m - 1]) + gam * powb[m - 1], out=static)
    c1_large = _shrink(ub, tm) * (tau / beta) * dlt
    np.minimum(static, c1_large, out=static)

    # cases 4 and 5, exact cells (m2 folded to its binding endpoint)
    for m in range(1, tm + 1):
        for k in range(1, tk + 1):
            lo, hi = max(0, m - k), m - 1
            if lo > hi:
                continue
            b56 = bracket56[lo]  # increasing in m2
            if m >= 2:
                b4 = np.minimum(bracket4[lo], bracket4[hi])
                np.minimum(static, summ[m] + sumk[k] + tailw[k] * b4, out=static)
            c5 = (
                summ[m]
                + (powt[m] - powb[m]) / m
                + sumk[k] * (1.0 - powb[m - 1])
                + tailw[k] * b56
            )
            np.minimum(static, c5, out=static)

    # large regimes, cases 4 and 5
    cm_t, cm_t1 = _shrink(ut, tm), _shrink(ut, tm + 1)
    cm_b, cm_b1 = _shrink(ub, tm), _shrink(ub, tm + 1)
    ck_b = _shrink(ub, tk + 1)
    pre4_l, pre6_l = cm_t * tau * lnbt, cm_t1 * tau * lnbt
    post_l = ck_b * tau * lnib

    for k in range(1, tk + 1):  # large m, small k and m2
        for m2 in range(max(0, tm + 1 - k), tm + 1):
            np.minimum(static, pre4_l + sumk[k] + tailw[k] * bracket4[m2], out=static)
            np.minimum(static, pre4_l + sumk[k] * cm_b + tailw[k] * bracket56[m2], out=static)
    for m in range(2, tm + 1):  # large k
        np.minimum(static, summ[m] + post_l, out=static)
    for m in range(1, tm + 1):
        np.minimum(
            static,
            summ[m] + (powt[m] - powb[m]) / m + post_l * (1.0 - powb[m - 1]),
            out=static,
        )
    np.minimum(static, pre4_l + post_l, out=static)  # large m and k, case 4
    np.minimum(static, pre4_l + post_l * cm_b, out=static)  # case 5
    np.minimum(static, pre6_l + post_l * cm_b1, out=static)  # case 6
    tail_m2 = cm_b1 * br_mixed
    for k in range(1, tk + 1):  # large m2 (m large, k small)
        np.minimum(static, pre4_l + sumk[k] + tailw[k] * tail_m2, out=static)
        np.minimum(static, pre4_l + sumk[k] * cm_b + tailw[k] * tail_m2, out=static)
        np.minimum(static, pre6_l + sumk[k] * cm_b1 + tailw[k] * tail_m2, out=static)
    for k in range(1, tk + 1):  # case 6, large m: needs k + m2 >= tm + 1
        for m2 in range(max(0, tm + 1 - k), tm + 1):
            np.minimum(
                static, pre6_l + sumk[k] * cm_b1 + tailw[k] * bracket56[m2], out=static
            )

    # case 6 entries carrying the no-mistake factor r := B (m >= 1; the m = 0
    # cell equals the analytic case-0 entry satisfied by construction)
    bases, coefs = [], []
    for m in range(1, tm + 1):
        head_coef = powb[m]
        pre = tau * (lnbt - p_tb[m])
        for k in range(1, tk + 1):
            lo = max(0, m - k)
            base = pre + sumk[k] * (1.0 - powb[m]) + tailw[k] * bracket56[lo]
            bases.append(base)
            coefs.append(head_coef)
    for m in range(1, tm + 1):  # large-k regime keeps its exact head
        base = tau * (lnbt - p_tb[m]) + post_l * (1.0 - powb[m])
        bases.append(base)
        coefs.append(powb[m])
    return static, np.stack(bases), np.stack(coefs)


# ---------------------------------------------------------------------------
# random order
# ---------------------------------------------------------------------------

def _rosp_components(tau, gam, dlt, tm, tk):
    ut = 1.0 - tau
    lnit = np.log(1.0 / tau)
    l_pre = lnit - 1.0 + tau          # integral of ln(t/tau)
    l_post = 1.0 - tau + tau * np.log(tau)  # integral of ln(1/t)
    nmax = 2 * tm + tk + 3  # tail terms reach index k+1+m+m2
    pt1 = _pow_tables(tau, np.ones_like(tau), nmax)

    s1 = [lnit - pt1[n] for n in range(0, nmax + 1)]
    pw = [ut**n for n in range(0, 2 * tm + tk + 4)]
    ompint = [tau - (1.0 - pw[n + 1]) / (n + 1) for n in range(0, tm + 2)]
    preblock = [None] + [tau * (l_pre - pt1[m]) for m in range(1, tm + 1)]
    postblock = [
        tau * (l_post - pw[k + 1] / (k + 1) + tau * pt1[k]) for k in range(0, tk + 1)
    ]
    earlyx = [tau * (tau * s1[k] + pw[k + 1] / (k + 1)) for k in range(0, tk + 1)]

    def deltablock(k, m2):
        return (1.0 - dlt) * tau / (k + 1) * (pt1[k + 1] - pt1[k + 1 + m2])

    def gammatail(k, m2):
        return (1.0 - gam) / (k + 1) * pw[k + 2 + m2] / (k + 2 + m2)

    INF = np.full_like(tau, np.inf)
    static = INF.copy()

    c1 = [None] + [dlt * tau * s1[m - 1] + gam * pw[m] / m for m in range(1, tm + 1)]
    for m in range(1, tm + 1):
        np.minimum(static, c1[m], out=static)
    cm, cm1 = _shrink(ut, tm), _shrink(ut, tm + 1)
    ck = _shrink(ut, tk + 1)
    np.minimum(static, cm * dlt * tau * lnit, out=static)  # case 1, large m

    def c4_exact(m, k, m2):
        return earlyx[k] + preblock[m] + postblock[k] + deltablock(k, m2) + gammatail(k, m2)

    def c5_exact(m, k, m2):
        a = tau * s1[k] * ompint[m]
        b = pw[k + 1] / (k + 1) * ompint[m2]
        c = preblock[m] + pw[m + 1] / (m + 1)
        cover = (1.0 - tau) - pw[k + 1] / (k + 1)
        d = tau * (cover - tau * s1[k] - pw[m] * s1[k] / m + (pt1[m] - pt1[m + k]) / m)
        return a + b + c + d + deltablock(k, m2)

    for m in range(1, tm + 1):
        for k in range(1, tk + 1):
            for m2 in range(max(0, m - k), m):
                np.minimum(static, c4_exact(m, k, m2), out=static)
                np.minimum(static, c5_exact(m, k, m2), out=static)

    # large regimes, cases 4 and 5
    win_l = np.maximum(0.0, tau - 1.0 / (tm + 2))
    for k in range(1, tk + 1):  # large m
        for m2 in range(max(0, tm + 1 - k), tm + 1):
            np.minimum(
                static,
                earlyx[k] + cm * tau * l_pre + postblock[k] + deltablock(k, m2)
                + gammatail(k, m2),
                out=static,
            )
            c5l = (
                tau * s1[k] * win_l
                + pw[k + 1] / (k + 1) * ompint[m2]
                + cm * tau * l_pre
                + cm * postblock[k]
                + deltablock(k, m2)
            )
            np.minimum(static, c5l, out=static)
    for m in range(1, tm + 1):  # large k, case 4
        np.minimum(
            static, ck * tau * tau * lnit + preblock[m] + ck * tau * l_post, out=static
        )
    for m in range(1, tm + 1):  # large k, case 5
        c5l = (
            tau * ck * lnit * ompint[m]
            + preblock[m]
            + pw[m + 1] / (m + 1)
            + ck * (1.0 - pw[m - 1]) * tau * l_post
        )
        np.minimum(static, c5l, out=static)
    np.minimum(static, ck * tau * tau * lnit + cm * tau * l_pre + ck * tau * l_post, out=static)
    c5ll = tau * ck * lnit * win_l + cm * tau * l_pre + cm * ck * tau * l_post
    np.minimum(static, c5ll, out=static)
    tail_m2 = cm1 * (1.0 - dlt) * tau
    for k in range(1, tk + 1):  # large m2 (m large, k small)
        np.minimum(
            static,
            earlyx[k] + cm * tau * l_pre + postblock[k] + tail_m2 / (k + 1) * pt1[k + 1],
            out=static,
        )
        c5l = (
            tau * s1[k] * win_l
            + pw[k + 1] / (k + 1) * win_l
            + cm * tau * l_pre
            + cm * postblock[k]
            + tail_m2 / (k + 1) * pt1[k + 1]
        )
        np.minimum(static, c5l, out=static)

    # case 6, large m (no B dependence)
    early_l = tau * lnit * win_l
    for k in range(1, tk + 1):
        for m2 in range(max(0, tm + 1 - k), tm + 1):
            v6 = early_l + cm1 * (cm1 * tau * l_pre + cm1 * postblock[k] + deltablock(k, m2))
            np.minimum(static, v6, out=static)
    for k in range(1, tk + 1):  # case 6, large m and m2
        v6 = early_l + cm1 * (
            cm1 * tau * l_pre + cm1 * postblock[k]
            + cm1 * (1.0 - dlt) * tau / (k + 1) * pt1[k + 1]
        )
        np.minimum(static, v6, out=static)
    v6 = early_l + cm1 * (cm1 * tau * l_pre + cm1 * ck * tau * l_post)  # large m and k
    np.minimum(static, v6, out=static)

    # exact case 6: the closed-form pieces shared with the scalar bound, over
    # pt1; the (1-th)/(1+th) weight becomes the fixpoint coefficient of r := B
    pt = pt1.__getitem__
    bases, coefs = [], []
    for m in range(1, tm + 1):
        head_coef = 1.0 / (m + 1) + _rosp_c6_floor_weight(m, tau)
        base_m = tau * lnit * ompint[m] + _rosp_c6_pre_part(m, tau, pt)
        for k in range(1, tk + 1):
            lo = max(0, m - k)
            tmin = _rosp_c6_tail_part(m, k, lo, tau, dlt, pt)
            for m2 in range(lo + 1, m + 1):
                np.minimum(tmin, _rosp_c6_tail_part(m, k, m2, tau, dlt, pt), out=tmin)
            bases.append(base_m + _rosp_c6_k_part(m, k, tau, lnit, pt) + tmin)
            coefs.append(head_coef)
        # large-k regime for this small m
        bases.append(base_m + ck * _rosp_c6_log_part(m, tau, lnit, pt))
        coefs.append(head_coef)
    return static, np.stack(bases), np.stack(coefs)


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------

def _mesh(model: str, grid: GridSpec):
    if model == COSP:
        if grid.beta is None:
            raise ValueError("chosen-order search needs beta values")
        combos = [
            (t, b, g, d)
            for t in grid.tau
            for b in grid.beta
            if b > t
            for g in grid.gamma
            for d in grid.delta
        ]
        if not combos:
            raise ValueError("empty grid (no cells with beta > tau)")
        arr = np.array(combos)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    combos = [(t, g, d) for t in grid.tau for g in grid.gamma for d in grid.delta]
    if not combos:
        raise ValueError("empty grid")
    arr = np.array(combos)
    return arr[:, 0], None, arr[:, 1], arr[:, 2]


def _search_once(model, grid, thresholds):
    tm, tk = thresholds
    tau, beta, gam, dlt = _mesh(model, grid)
    if model == COSP:
        static, bases, coefs = _cosp_components(tau, beta, gam, dlt, tm, tk)
    else:
        static, bases, coefs = _rosp_components(tau, gam, dlt, tm, tk)
    b = _fixpoint(static, bases, coefs)
    order = [tau, beta, gam, dlt] if beta is not None else [tau, gam, dlt]
    best = float(np.max(b))
    tie = np.nonzero(b == best)[0]
    pick = min(tie, key=lambda i: tuple(col[i] for col in order))
    params = PolicyParams(
        theta=(1.0 - best) / (1.0 + best),
        tau=float(tau[pick]),
        gamma=float(gam[pick]),
        delta=float(dlt[pick]),
        beta=float(beta[pick]) if beta is not None else None,
    )
    return params, best, (b, tau, beta, gam, dlt)


def _refined_grid(model: str, params: PolicyParams, step: float, lo=0.001, hi=0.999):
    def around(x):
        fine = step / 10.0
        pts = [round(x + i * fine, 12) for i in range(-9, 10)]
        return tuple(p for p in pts if lo <= p <= hi)

    return GridSpec(
        tau=around(params.tau),
        gamma=around(params.gamma),
        delta=around(params.delta),
        beta=around(params.beta) if model == COSP and params.beta is not None else None,
    )


def grid_search(
    model: str,
    grid: GridSpec,
    thresholds: tuple[int, int] = (20, 20),
    refine: bool = False,
    search_thresholds: tuple[int, int] = SEARCH_THRESHOLDS,
    emit_all: bool = False,
):
    """Maximize the certified worst-case bound over the grid.

    Returns ``(params, certified_bound)`` where the bound is recomputed by
    the exact certification at full ``thresholds`` for the winner (and so is
    never a stale search-time value).  With ``emit_all`` a third element
    lists ``(params, search_bound)`` for every evaluated cell.
    """
    params, search_b, cells = _search_once(model, grid, search_thresholds)
    if refine:
        steps = [
            abs(v[i + 1] - v[i])
            for v in (grid.tau, grid.gamma, grid.delta)
            if v is not None and len(v) > 1
            for i in [0]
        ]
        step = min(steps) if steps else 0.05
        params, search_b, cells = _search_once(
            model, _refined_grid(model, params, step), search_thresholds
        )

    report = certify(model, params, target_b=max(search_b - 0.05, 1e-6), thresholds=thresholds)
    certified = report.min_value
    if emit_all:
        b, tau, beta, gam, dlt = cells
        rows = []
        for i in range(len(b)):
            rows.append(
                (
                    PolicyParams(
                        theta=(1.0 - float(b[i])) / (1.0 + float(b[i])),
                        tau=float(tau[i]),
                        gamma=float(gam[i]),
                        delta=float(dlt[i]),
                        beta=float(beta[i]) if beta is not None else None,
                    ),
                    float(b[i]),
                )
            )
        return params, certified, rows
    return params, certified
