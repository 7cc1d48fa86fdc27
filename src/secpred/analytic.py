"""Closed-form case bounds for the prediction-aware secretary policy.

Evaluates the per-case competitive-ratio lower bounds for chosen-order
(cosp) and random-order (rosp) arrivals, the pow-over-x integral they are
built from, and the symbolic floors used when a structure parameter (m, k,
or m2) is large.

Conventions used throughout:

* ``m``  - number of mistakes (predictions deviating by more than theta),
* ``k``  - number of candidates whose true value exceeds the top-predicted
  candidate's value,
* ``m2`` - number of mistakes with true value below the top-predicted
  candidate's value.

Every alternating binomial sum in the case formulas is an instance of
``pow_over_x_integral`` (the integral of (1-x)^n / x), which is ln(b/a)
minus a finite sum of nonnegative terms for every exponent, so accuracy is
controlled in exactly one place and no evaluation can fail to converge.  Each
of cases 1, 4, 5 and 6 is one form of ``(point, m, k, m2, tm, tk)`` in
``CASE_FORMS``: ``None`` marks a parameter above its threshold, and with
every parameter small the form is the exact bound.  The point's fields are
floats for one policy or arrays for a search mesh, and both take the same
numpy calls, so a scalar point gives the bits of the one-cell mesh with its
fields.  m, k and m2 are ints, or int arrays over a group of entries: the
entry axis leads, and the array has one more axis than the point's fields,
each of length 1 (``(E,)`` at a scalar point, ``(E, 1, 1, 1)`` on tune's
mesh).  Every power and integral, at an int or an int array, is gathered
from a column of the values at each exponent, so a group's values equal the
per-entry values bit for bit, and each ln(b/a) is its integral's value at
n = 0.  ``case_bound`` is the one checked front end over ``CASE_FORMS``,
for exact profiles and large regimes alike: ``None`` means large and m2 is
ignored under a large k.  Case 0 is the floor, cases 2 and 3 reduce to
cases 1 and 4, and these three are exact only.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import COSP, ROSP, PolicyParams, check_integer, check_model

__all__ = [
    "pow_over_x_integral",
    "prediction_floor",
    "Point",
    "case6_coef",
    "case_bound",
    "check_thresholds",
    "CASE_FORMS",
    "DEFAULT_THRESHOLDS",
    "MAX_PROFILE",
    "MAX_THRESHOLD",
]


# ---------------------------------------------------------------------------
# the pow-over-x integral
# ---------------------------------------------------------------------------

def pow_over_x_integral(a: float, b: float, m: int) -> float:
    """Integral of (1-x)^m / x over [a, b], for 0 < a <= b <= 1 and m in
    [0, ``MAX_PROFILE``]: entry m of ``_pox_row``'s row for the limits, the
    values every case form, and so certify and tune, reads.

    Since (1-x)^m / x = (1-x)^(m-1) / x - (1-x)^(m-1), the integral obeys
    I_m = I_(m-1) - ((1-a)^m - (1-b)^m) / m with I_0 = ln(b/a), so

        I_m = ln(b/a) - sum_{j=1}^{m} ((1-a)^j - (1-b)^j) / j,

    a finite sum of nonnegative terms, rounded correctly.  The error is
    absolute, not relative: against 40-digit mpmath it is at most 1.7e-15
    for a >= 0.001 and m <= 400.  Where I_m is far below ln(b/a) the result
    can sit a few ulps below zero.  The row holds m + 1 floats, hence the cap.
    """
    m = check_integer("m", m, 0, MAX_PROFILE)
    return float(_pox_row({}, a, b, m + 1)[m])


# ---------------------------------------------------------------------------
# parameter points and their columns
# ---------------------------------------------------------------------------

def prediction_floor(theta: float) -> float:
    """(1 - theta) / (1 + theta): value ratio when hiring a candidate whose
    own and the best candidate's deviations are both within theta."""
    return (1.0 - theta) / (1.0 + theta)


class Point:
    """The policy parameters a case bound is evaluated at.

    The fields are floats for one policy (certify, evaluate) or arrays that
    broadcast against each other for a search mesh (tune); every bound below
    is written once over a point, in numpy calls, and serves both, so a
    scalar point gives the bits of the one-cell mesh with its fields.  A term
    takes the shape of the fields it reads, so on tune's mesh, with tau and
    beta along one axis and gamma and delta along two others, a block of
    (tau, beta) alone holds one value per (tau, beta) pair.  ``r`` is the
    no-mistake floor (1-theta)/(1+theta), the only way theta enters (case 0
    and the case-6 head).

    ``columns`` is the point's one cache: every power and pow-over-x
    integral a form reads, at an int or an int array, is gathered from a
    column that holds each exponent's value, so a point shared by a whole
    enumeration takes each of them once.  A power's column is numpy's array
    power of the base, a 0-d array at a scalar point.  An integral's column
    comes from one row per (lower, upper) limit pair, which ``_pox_row``
    fills in one pass, once per (tau, beta) pair on tune's mesh; the row's
    n = 0 entry, ln(b/a), is the interval's log wherever a form reads it.
    ``rows``, a dict of those rows, may be shared by points over the same
    (tau, beta) values.  Nothing on a point depends on the thresholds.
    """

    def __init__(self, tau, gamma, delta, beta=None, r=0.0, rows=None):
        self.tau, self.gamma, self.delta, self.beta, self.r = tau, gamma, delta, beta, r
        self.columns: dict = {}
        self.rows = {} if rows is None else rows

    @classmethod
    def of(cls, model: str, params) -> Point:
        """``params`` as a point: a Point is returned as it is, a PolicyParams
        gives its scalar point (beta kept for chosen order only)."""
        if isinstance(params, Point):
            return params
        if params.tau <= 0.0:
            raise ValueError(f"analytic bounds need tau > 0, got tau={params.tau}")
        beta = None
        if model == COSP:
            beta = params.require_beta()
            if beta <= params.tau:
                raise ValueError(
                    f"chosen-order bounds need beta > tau, got beta={beta} tau={params.tau}"
                )
        return cls(params.tau, params.gamma, params.delta, beta, prediction_floor(params.theta))


def _column(p, key, size, build):
    # build(size), the values at 0, ..., size - 1 along a new leading axis,
    # kept in the point's columns under key; rebuilt at least twice as long
    # (and never shorter than 16) when shorter than size
    values = p.columns.get(key)
    if values is None or len(values) < size:
        size = max(size, 16, 0 if values is None else 2 * len(values))
        values = p.columns[key] = np.asarray(build(size))
    return values


def _gather(p, key, n, build):
    # the values at the exponents n, an int or an int array with the entry
    # axis leading; the one place where the two differ
    if isinstance(n, np.ndarray):
        least, most, n = n.min(), int(n.max()), n.reshape(-1)
    else:
        least = most = n
    if least < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {least}")
    return _column(p, key, most + 1, build)[n]


def _powers(base, size):
    # base ** e for e = 0, ..., size - 1; a 0-d array takes numpy's array
    # power, as a mesh does, where a float base would take Python's
    base = np.asarray(base)
    return [base**e for e in range(size)]


def _ut(p, n):
    return _gather(p, "ut", n, partial(_powers, 1.0 - p.tau))


def _ub(p, n):
    return _gather(p, "ub", n, partial(_powers, 1.0 - p.beta))


def _limits(p, interval):
    if interval == "tb":
        return p.tau, p.beta
    return (p.beta if interval == "b1" else p.tau), 1.0


def _pox_row(rows, a, b, size):
    # pow_over_x_integral(a, b, n) for n = 0, ..., size - 1 in one pass, kept
    # in rows: ln(b/a) minus the sum of the terms ((1-a)^j - (1-b)^j) / j for
    # j <= n.  partials holds their running sum exactly (Shewchuk's
    # nonoverlapping partials), and math.fsum rounds an exact sum correctly,
    # so each value is the correctly rounded sum taken from the log, in time
    # linear in size
    row = rows.get((a, b))
    if row is None or len(row) < size:
        if not 0.0 < a <= b <= 1.0:
            raise ValueError(f"invalid interval [{a}, {b}]")
        ua, ub = 1.0 - a, 1.0 - b
        head = math.log(b / a)
        partials, values = [], [head]
        for j in range(1, size):
            x, i = (ua**j - ub**j) / j, 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
            values.append(head - math.fsum(partials))
        row = rows[a, b] = np.array(values)
    return row[:size]


def _pox_column(p, lo, hi, size):
    # the integral at exponents 0, ..., size - 1 along a new leading axis, one
    # row per element of the broadcast limits
    lo, hi = np.broadcast_arrays(lo, hi)
    pairs = zip(lo.ravel().tolist(), hi.ravel().tolist())
    rows = np.array([_pox_row(p.rows, a, b, size) for a, b in pairs])
    return rows.T.reshape((size,) + lo.shape)


def _pox(p, interval, n):
    # Integral of (1-x)^n / x over [tau, beta] ("tb"), [beta, 1] ("b1") or
    # [tau, 1] ("t1"), read from the point's column of every exponent up to
    # n, at each element of the broadcast limits
    lo, hi = _limits(p, interval)
    return _gather(p, ("pox", interval), n, partial(_pox_column, p, lo, hi))


# Every case form below takes (point, m, k, m2, tm, tk), with None marking a
# parameter above its threshold (tm bounds m and m2, tk bounds k).  With every
# parameter small it is the exact bound and ignores the thresholds; a large
# parameter swaps each term it enters for that term's floor over all values
# above the threshold.
#
# The original enumeration replaces every vanishing exponential by zero and
# every 1-(vanishing) factor by 0.9999, which is valid whenever the dropped
# term is below 1e-4.  That holds at the published parameters but not for
# arbitrary ones, so the factor is the sound min(0.9999, 1 - base^T).

def _shrink_t(p, n):
    return np.minimum(0.9999, 1.0 - _ut(p, n))


def _shrink_b(p, n):
    return np.minimum(0.9999, 1.0 - _ub(p, n))


def _sum_pre(p, m, tm):
    # tau * sum_{i=1}^{m-1} C(m-1,i)(-1)^{i+1}(beta^i - tau^i)/i
    #   = tau * Integral_tau^beta (1 - (1-t)^{m-1}) / t dt
    if m is None:
        return _shrink_t(p, tm) * p.tau * _pox(p, "tb", 0)
    return p.tau * (_pox(p, "tb", 0) - _pox(p, "tb", m - 1))


def _sum_post(p, k, tk):
    # tau * sum_{i=1}^{k} C(k,i)(-1)^{i+1}(1 - beta^i)/i
    #   = tau * Integral_beta^1 (1 - (1-t)^k) / t dt
    if k is None:
        return _shrink_b(p, tk + 1) * p.tau * _pox(p, "b1", 0)
    return p.tau * (_pox(p, "b1", 0) - _pox(p, "b1", k))


def case6_coef(model: str, m: int | None, params):
    """Weight of the no-mistake floor r = (1-theta)/(1+theta) in case 6.

    Every case-6 bound, exact or large-regime, is ``base + coef * r`` with
    ``base`` free of theta.  coef < 1 for m >= 1; at m = 0 it is 1 and the
    bound is r itself; a large m (``None``) drops the head, so coef = 0.
    Any other m must be an integer in [0, ``MAX_PROFILE``]; an int array,
    as certify and tune pass, is taken unchecked.
    """
    if m is None:
        return 0.0
    if not isinstance(m, np.ndarray):
        m = check_integer("m", m, 0, MAX_PROFILE)
    p = Point.of(model, params)
    if model == COSP:
        return _ub(p, m)
    return 1.0 / (m + 1) + _rosp_c6_floor_weight(p, m)


def _c6_head(model: str, p: Point, m: int | None):
    return case6_coef(model, m, p) * p.r


# ---------------------------------------------------------------------------
# chosen-order case bounds
# ---------------------------------------------------------------------------

def _cosp1(p, m, k, m2, tm, tk):
    # top prediction is the true best and is itself a mistake
    if m is None:
        return _shrink_b(p, tm) * (p.tau / p.beta) * p.delta
    skip = _ub(p, m - 1)
    return (p.tau / p.beta) * p.delta * (1.0 - skip) + p.gamma * skip


def _cosp_bracket4(p, m2):
    # case 4's late-window weight, by the m2 mistakes below the top prediction
    return (1.0 - _ub(p, m2)) * (1.0 - p.delta) * p.tau / p.beta + _ub(p, m2) * (1.0 - p.gamma)


def _cosp_tail(p, k, m2, tm):
    # the late-window term of cases 5 and 6, and of case 4 at a large m2
    if k is None:
        return 0.0
    hit = _shrink_b(p, tm + 1) if m2 is None else 1.0 - _ub(p, m2)
    return _ub(p, k + 1) / (k + 1) * hit * (1.0 - p.delta) * p.tau / p.beta


def _cosp4(p, m, k, m2, tm, tk):
    # top prediction is a mistake, the true best is not
    pre = _sum_pre(p, m, tm)
    if k is None or m2 is None:
        tail = _cosp_tail(p, k, m2, tm)
    else:
        tail = _ub(p, k + 1) / (k + 1) * _cosp_bracket4(p, m2)
    return pre + _sum_post(p, k, tk) + tail


def _cosp5(p, m, k, m2, tm, tk):
    # true best is a mistake, the top prediction is not
    if m is None:
        early, cover = _sum_pre(p, None, tm), _shrink_b(p, tm)
    else:
        early = _sum_pre(p, m, tm) + (_ut(p, m) - _ub(p, m)) / m
        cover = 1.0 - _ub(p, m - 1)
    return early + _sum_post(p, k, tk) * cover + _cosp_tail(p, k, m2, tm)


def _cosp6(p, m, k, m2, tm, tk):
    # neither the top prediction nor the true best is a mistake.  The
    # prediction-mode factor uses the pessimistic (1-theta)/(1+theta); both
    # relevant deviations are at most theta in this case.
    if m is None:
        pre, cover = _sum_pre(p, None, tm + 1), _shrink_b(p, tm + 1)
    else:
        # tau * Integral_tau^beta (1 - (1-t)^m) / t dt is the pre-switch sum at m+1
        pre, cover = _sum_pre(p, m + 1, tm + 1), 1.0 - _ub(p, m)
    late = _sum_post(p, k, tk) * cover
    return _c6_head(COSP, p, m) + pre + late + _cosp_tail(p, k, m2, tm)


# ---------------------------------------------------------------------------
# random-order case bounds
# ---------------------------------------------------------------------------

def _s1(p, n):
    # sum_{i=1}^{n} C(n,i)(-1)^{i+1}(1 - tau^i)/i
    #   = Integral_tau^1 (1 - (1-t)^n) / t dt
    return _pox(p, "t1", 0) - _pox(p, "t1", n)


def _rosp1(p, m, k, m2, tm, tk):
    # top prediction is the true best and is itself a mistake
    if m is None:
        return _shrink_t(p, tm) * p.delta * p.tau * _pox(p, "t1", 0)
    return p.delta * p.tau * _s1(p, m - 1) + p.gamma * _ut(p, m) / m


def _rosp_l_pre(p):
    # Integral_tau^1 ln(t/tau) dt, the pre-switch block's large-m limit over tau
    return _pox(p, "t1", 0) - 1.0 + p.tau


def _rosp_l_post(p):
    # Integral_tau^1 ln(1/t) dt, the post-switch block's large-k limit over
    # tau.  ln tau is the one log not read from a row: -ln(1/tau), the t1
    # row's head negated, rounds otherwise at 9 of the 19 step-0.05 taus,
    # and so would move the bits of large-k rosp bounds
    return 1.0 - p.tau + p.tau * np.log(p.tau)


def _rosp_pre_block(p, m, tm):
    # Integral over beta in [tau,1] of the case-4 pre-switch sum; collapses to
    # a single pow_over_x term after swapping the integration order.
    if m is None:
        return _shrink_t(p, tm) * p.tau * _rosp_l_pre(p)
    return p.tau * (_rosp_l_pre(p) - _pox(p, "t1", m))


def _rosp_post_block(p, k, tk):
    # Integral over beta in [tau,1] of the case-4 post-switch sum.
    if k is None:
        return _shrink_t(p, tk + 1) * p.tau * _rosp_l_post(p)
    return p.tau * (_rosp_l_post(p) - _ut(p, k + 1) / (k + 1) + p.tau * _pox(p, "t1", k))


def _rosp_delta_block(p, k, m2, tm):
    # ((1-delta) tau/(k+1)) Integral_tau^1 (1-b)^{k+1}(1-(1-b)^{m2})/b db
    if k is None:
        return 0.0
    if m2 is None:
        return _shrink_t(p, tm + 1) * (1.0 - p.delta) * p.tau / (k + 1) * _pox(p, "t1", k + 1)
    return (
        (1.0 - p.delta)
        * p.tau
        / (k + 1)
        * (_pox(p, "t1", k + 1) - _pox(p, "t1", k + 1 + m2))
    )


def _rosp4(p, m, k, m2, tm, tk):
    # top prediction is a mistake, the true best is not
    if k is None:
        # tau * tau: a float's tau**2 is Python's pow, which rounds otherwise
        # than numpy's square on a mesh
        early, gamma_tail = _shrink_t(p, tk + 1) * (p.tau * p.tau) * _pox(p, "t1", 0), 0.0
    else:
        early = p.tau * (p.tau * _s1(p, k) + _ut(p, k + 1) / (k + 1))
        gamma_tail = (
            0.0 if m2 is None else (1.0 - p.gamma) / (k + 1) * _ut(p, k + 2 + m2) / (k + 2 + m2)
        )
    return (
        early
        + _rosp_pre_block(p, m, tm)
        + _rosp_post_block(p, k, tk)
        + _rosp_delta_block(p, k, m2, tm)
        + gamma_tail
    )


def _one_minus_pow(p, n, tm):
    # Integral_0^tau (1 - (1-b)^n) db
    if n is None:
        # its floor over every n > tm
        return np.maximum(0.0, p.tau - 1.0 / (tm + 2))
    return p.tau - (1.0 - _ut(p, n + 1)) / (n + 1)


def _rosp_c5_post(p, m, k, tm, tk):
    # Integral over beta of (post-switch sum) * (1 - (1-beta)^{m-1}); the
    # swapped order leaves only pow_over_x terms.
    if m is None and k is None:
        return _shrink_t(p, tm) * _shrink_t(p, tk + 1) * p.tau * _rosp_l_post(p)
    if m is None:
        return _shrink_t(p, tm) * _rosp_post_block(p, k, tk)
    if k is None:
        return _shrink_t(p, tk + 1) * (1.0 - _ut(p, m - 1)) * p.tau * _rosp_l_post(p)
    s1k = _s1(p, k)
    cover = (1.0 - p.tau) - _ut(p, k + 1) / (k + 1)
    return p.tau * (
        cover
        - p.tau * s1k
        - _ut(p, m) * s1k / m
        + (_pox(p, "t1", m) - _pox(p, "t1", m + k)) / m
    )


def _rosp5(p, m, k, m2, tm, tk):
    # true best is a mistake, the top prediction is not
    s1k = _shrink_t(p, tk + 1) * _pox(p, "t1", 0) if k is None else _s1(p, k)
    a = p.tau * s1k * _one_minus_pow(p, m, tm)
    b = 0.0 if k is None else _ut(p, k + 1) / (k + 1) * _one_minus_pow(p, m2, tm)
    c = _rosp_pre_block(p, m, tm)
    if m is not None:
        c = c + _ut(p, m + 1) / (m + 1)
    return a + b + c + _rosp_c5_post(p, m, k, tm, tk) + _rosp_delta_block(p, k, m2, tm)


# The case-6 pieces below integrate the chosen-order case-6 terms against
# (1-(1-t)^m) over the top prediction's arrival t in [tau, 1].  Swapping the
# integration order leaves finite sums of pt(n) = Integral_tau^1 (1-x)^n/x dx.

def _rosp_c6_floor_weight(p, m):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^m dt, the weight of (1-th)/(1+th)
    return _ut(p, m + 1) / (m + 1) - _ut(p, 2 * m + 1) / (2 * m + 1)


def _rosp_c6_pre_part(p, m):
    # Integral_tau^1 (1-(1-t)^m) * pre-switch-sum(m, t) dt
    pt = partial(_pox, p, "t1")
    return p.tau * (pt(1) - (1.0 + 1.0 / (m + 1)) * pt(m + 1) + pt(2 * m + 1) / (m + 1))


def _rosp_c6_k_part(p, m, k):
    # Integral_tau^1 (1-(1-t)^m)^2 * post-switch-sum(k, t) dt
    pt = partial(_pox, p, "t1")
    weight = 2.0 * _ut(p, m + 1) / (m + 1) - _ut(p, 2 * m + 1) / (2 * m + 1)
    return p.tau * (
        (1.0 - p.tau)
        - _ut(p, k + 1) / (k + 1)
        - (p.tau + weight) * _s1(p, k)
        + 2.0 * (pt(m + 1) - pt(m + 1 + k)) / (m + 1)
        - (pt(2 * m + 1) - pt(2 * m + 1 + k)) / (2 * m + 1)
    )


def _rosp_c6_log_part(p, m):
    # tau * Integral_tau^1 (1-(1-t)^m)^2 ln(1/t) dt, from
    # Integral_tau^1 (1-t)^n ln(1/t) dt = ((1-tau)^{n+1} ln(1/tau) - pt(n+1)) / (n+1)
    def j(n):
        return (_ut(p, n + 1) * _pox(p, "t1", 0) - _pox(p, "t1", n + 1)) / (n + 1)

    return p.tau * (j(0) - 2.0 * j(m) + j(2 * m))


def _rosp_c6_tail_part(p, m, k, m2):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^{k+1}/(k+1) (1-(1-t)^{m2}) (1-delta) tau/t dt
    # expands into four pow_over_x integrals.
    pt = partial(_pox, p, "t1")
    combo = pt(k + 1) - pt(k + 1 + m) - pt(k + 1 + m2) + pt(k + 1 + m + m2)
    return (1.0 - p.delta) * p.tau / (k + 1) * combo


def _rosp6(p, m, k, m2, tm, tk):
    # neither special candidate is a mistake, arrival of the top prediction
    # averaged over [0,1].  The third contribution integrates the chosen-order
    # case-6 expression over the top prediction's arrival time.  With the
    # integration order swapped it is a closed form in
    # pow_over_x_integral(tau, 1, n) terms: the no-mistake head, an m-only
    # part, an (m,k) part, and an (m,k,m2) tail.  No quadrature is involved.
    head = _c6_head(ROSP, p, m)
    early = p.tau * _pox(p, "t1", 0) * _one_minus_pow(p, m, tm)
    if m is None:
        # the post-switch term is case 5's at a large m, one threshold higher
        c_in = _shrink_t(p, tm + 1)
        pre_int = _rosp_pre_block(p, None, tm + 1)
        k_int = _rosp_c5_post(p, None, k, tm + 1, tk)
        return head + early + c_in * (pre_int + k_int + _rosp_delta_block(p, k, m2, tm))
    if np.ndim(m) == 0 and m == 0:
        return head + early
    body = head + early + _rosp_c6_pre_part(p, m)
    if k is None:
        # the large k replaces the post-switch sum by c_k tau ln(1/t)
        return body + _shrink_t(p, tk + 1) * _rosp_c6_log_part(p, m)
    return body + _rosp_c6_k_part(p, m, k) + _rosp_c6_tail_part(p, m, k, m2)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# (model, case) -> form(point, m, k, m2, tm, tk) for the cases the
# enumeration evaluates; cases 2 and 3 reduce to cases 1 and 4
CASE_FORMS = {
    (COSP, 1): _cosp1, (COSP, 4): _cosp4, (COSP, 5): _cosp5, (COSP, 6): _cosp6,
    (ROSP, 1): _rosp1, (ROSP, 4): _rosp4, (ROSP, 5): _rosp5, (ROSP, 6): _rosp6,
}

# the least m each case admits
_CASE_M_MIN = {0: 0, 1: 1, 2: 0, 3: 2, 4: 1, 5: 1, 6: 0}

DEFAULT_THRESHOLDS = (20, 20)  # (tm, tk): m, m2 above tm or k above tk are large
# Entries grow about as T^2.9 (9.8k at T = 20, 538k at T = 80, 1.79M at
# T = 120), so larger thresholds are refused before any work.
MAX_THRESHOLD = 200
# A given m, k or m2 above this is refused before any form runs: the forms'
# pow-over-x sums take time linear in the exponents, which reach 2m + k + m2
# + 1 (rosp case 6), and a huge value would hang or overflow a float power.
MAX_PROFILE = 100_000


def check_thresholds(thresholds) -> tuple[int, int]:
    """``thresholds`` as (tm, tk), each checked by ``check_integer`` in
    [1, MAX_THRESHOLD] under its name; a non-pair is not "two integers"."""
    try:
        tm, tk = thresholds
    except (TypeError, ValueError):
        raise ValueError(f"thresholds must be two integers, got {thresholds!r}") from None
    return check_integer("tm", tm, 1, MAX_THRESHOLD), check_integer("tk", tk, 1, MAX_THRESHOLD)


def case_bound(
    model: str,
    case_id: int,
    m: int | None,
    k: int | None,
    m2: int | None,
    params,
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS,
) -> float:
    """Evaluate one case bound at ``params`` (PolicyParams or a Point).

    ``None`` for m, k or m2 marks a parameter above its threshold (tm of
    ``thresholds`` bounds m and m2, tk bounds k), and the bound is then the
    case's floor over every such value.  A large m2 needs a large m, since
    m2 <= m; under a large k, m2 is ignored.  Every case, case 0 included,
    checks with ``core.check_integer`` case_id in [0, 6], the thresholds and
    each of m, k and m2 given in [lo, ``MAX_PROFILE``] (lo is the case's
    least m for m, 0 for k and m2), then m2 <= m, before cases 1 and 2 drop
    k and m2 and case 3 clamps m2.

    Case 0 (no mistakes) is the floor (1-theta)/(1+theta), theta being the
    worst admissible error.  Case 2 (the top prediction is the true best, not
    a mistake) is case 1 at m+1; cases 1 and 2 ignore k and m2.  Case 3 (both
    the top prediction and the true best are mistakes) is case 4 with the
    true best removed from the mistake set: m-1, with m2 clamped into the
    reduced profile's window.  Cases 0, 2 and 3 are exact only.
    """
    check_model(model)
    case_id = check_integer("case_id", case_id, 0, 6)
    if None in (m, k, m2) and (model, case_id) not in CASE_FORMS:
        raise ValueError(f"case {case_id} has no large-regime form")
    tm, tk = check_thresholds(thresholds)
    m = None if m is None else check_integer("m", m, _CASE_M_MIN[case_id], MAX_PROFILE)
    k = None if k is None else check_integer("k", k, 0, MAX_PROFILE)
    m2 = None if m2 is None else check_integer("m2", m2, 0, MAX_PROFILE)
    if m2 is None and m is not None and k is not None:
        raise ValueError(f"m2 cannot be large while m={m} and k={k} are small")
    if m2 is not None and m is not None and m2 > m:
        raise ValueError(f"m2={m2} outside [0, m={m}]")
    if case_id == 0:
        return params.r if isinstance(params, Point) else prediction_floor(params.theta)
    if case_id in (1, 2):
        k = m2 = 0
    if case_id == 2:
        case_id, m = 1, m + 1
    elif case_id == 3:
        m2 = min(max(m2, max(0, (m - 1) - k)), max(0, m - 2))
        case_id, m = 4, m - 1
    return CASE_FORMS[model, case_id](Point.of(model, params), m, k, m2, tm, tk)
