"""Closed-form case bounds for the prediction-aware secretary policy.

Evaluates the per-case competitive-ratio lower bounds for chosen-order
(cosp) and random-order (rosp) arrivals, the appendix integral lemmas they
are built from, and the symbolic substitutes used when a structure
parameter (m, k, or m2) is large.

Conventions used throughout:

* ``m``  - number of mistakes (predictions deviating by more than theta),
* ``k``  - number of candidates whose true value exceeds the top-predicted
  candidate's value,
* ``m2`` - number of mistakes with true value below the top-predicted
  candidate's value.

Every alternating binomial sum in the case formulas is an instance of
``pow_over_x_integral`` (the integral of (1-x)^n / x), so accuracy is
controlled in exactly one place.
"""

from __future__ import annotations

import math
from functools import partial

from .core import COSP, ROSP, PolicyParams

__all__ = [
    "min_density_mass",
    "min_density_first_moment",
    "log_ratio",
    "pow_over_x_integral",
    "prediction_floor",
    "cosp_case0",
    "cosp_case1",
    "cosp_case2",
    "cosp_case3",
    "cosp_case4",
    "cosp_case5",
    "cosp_case6",
    "rosp_case0",
    "rosp_case1",
    "rosp_case2",
    "rosp_case3",
    "rosp_case4",
    "rosp_case5",
    "rosp_case6",
    "case_bound",
    "large_regime_bound",
    "LARGE_REGIMES",
]

# Exponent above which the alternating closed form of pow_over_x_integral
# loses precision in doubles; switch to the equivalent positive tail series.
_CLOSED_FORM_MAX = 20


# ---------------------------------------------------------------------------
# appendix lemmas
# ---------------------------------------------------------------------------

def min_density_mass(a: float, b: float, m: int) -> float:
    """Mass of the min-of-m-uniforms density m(1-x)^(m-1) on [a, b]."""
    _check_interval(a, b, m, positive_a=False)
    return (1.0 - a) ** m - (1.0 - b) ** m


def min_density_first_moment(a: float, b: float, m: int) -> float:
    """Integral of x * m(1-x)^(m-1) over [a, b]."""
    _check_interval(a, b, m, positive_a=False)
    f = m / (m + 1.0)
    return (
        (1.0 - a) ** m
        - (1.0 - b) ** m
        - f * (1.0 - a) ** (m + 1)
        + f * (1.0 - b) ** (m + 1)
    )


def log_ratio(a: float, b: float) -> float:
    """Integral of 1/x over [a, b], i.e. ln(b/a)."""
    if a <= 0:
        raise ValueError(f"log_ratio requires a > 0, got a={a}")
    if b < a:
        raise ValueError(f"log_ratio requires a <= b, got {a} > {b}")
    return math.log(b / a)


def pow_over_x_integral(a: float, b: float, m: int) -> float:
    """Integral of (1-x)^m / x over [a, b].

    Uses the binomial closed form
    ``sum_i C(m,i)(-1)^i (b^i - a^i)/i + ln(b/a)`` for small m.  For m above
    ~20 the alternating sum cancels catastrophically in doubles, so the
    algebraically identical positive series
    ``sum_{j>m} ((1-a)^j - (1-b)^j)/j`` is used instead.
    """
    _check_interval(a, b, m, positive_a=True)
    if m <= _CLOSED_FORM_MAX:
        acc = math.fsum(
            math.comb(m, i) * (-1) ** i * (b**i - a**i) / i for i in range(1, m + 1)
        )
        return acc + math.log(b / a)
    return _pow_over_x_series(a, b, m)


def _pow_over_x_series(a: float, b: float, m: int) -> float:
    ua, ub = 1.0 - a, 1.0 - b
    pa, pb = ua ** (m + 1), ub ** (m + 1)
    j = m + 1
    total = 0.0
    cap = j + 4_000_000
    while pa > 0.0:
        total += (pa - pb) / j
        j += 1
        pa *= ua
        pb *= ub
        # remaining tail is at most pa / (j * a)
        if pa <= j * a * 1e-18 * max(abs(total), 1e-300):
            break
        if j > cap:
            raise ValueError(
                f"pow_over_x_integral: series for a={a} (exponent {m}) converges "
                f"too slowly; tail bound {pa / (j * a):.3e} after {cap} terms"
            )
    return total


def _check_interval(a: float, b: float, m: int, positive_a: bool) -> None:
    if m < 0 or m != int(m):
        raise ValueError(f"exponent must be a nonnegative integer, got {m}")
    lo_ok = a > 0 if positive_a else a >= 0
    if not (lo_ok and a <= b <= 1.0):
        raise ValueError(f"invalid interval [{a}, {b}]")


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------

def prediction_floor(theta: float) -> float:
    """(1 - theta) / (1 + theta): value ratio when hiring a candidate whose
    own and the best candidate's deviations are both within theta."""
    return (1.0 - theta) / (1.0 + theta)


def _sum_pre(m: int, tau: float, beta: float) -> float:
    # tau * sum_{i=1}^{m-1} C(m-1,i)(-1)^{i+1}(beta^i - tau^i)/i
    #   = tau * Integral_tau^beta (1 - (1-t)^{m-1}) / t dt
    return tau * (math.log(beta / tau) - pow_over_x_integral(tau, beta, m - 1))


def _sum_post(k: int, tau: float, beta: float) -> float:
    # tau * sum_{i=1}^{k} C(k,i)(-1)^{i+1}(1 - beta^i)/i
    #   = tau * Integral_beta^1 (1 - (1-t)^k) / t dt
    return tau * (math.log(1.0 / beta) - pow_over_x_integral(beta, 1.0, k))


def _pow1m(x: float, n: int) -> float:
    return (1.0 - x) ** n


def _check_profile_args(m: int, k: int, m2: int, m_min: int = 1) -> None:
    if m < m_min:
        raise ValueError(f"case requires m >= {m_min}, got m={m}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not 0 <= m2 <= m:
        raise ValueError(f"m2={m2} outside [0, m={m}]")


def _cosp_params(params: PolicyParams) -> tuple[float, float, float, float, float]:
    beta = params.require_beta()
    if beta <= params.tau:
        raise ValueError(
            f"chosen-order bounds need beta > tau, got beta={beta} tau={params.tau}"
        )
    return params.theta, params.tau, beta, params.gamma, params.delta


# ---------------------------------------------------------------------------
# chosen-order case bounds
# ---------------------------------------------------------------------------

def cosp_case0(epsilon: float) -> float:
    """No mistakes: the hired top prediction is (1-eps)/(1+eps) of optimal."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1]")
    return prediction_floor(epsilon)


def cosp_case1(m: int, params: PolicyParams) -> float:
    """Top prediction is the true best and is itself a mistake."""
    _, tau, beta, gamma, delta = _cosp_params(params)
    if m < 1:
        raise ValueError(f"case 1 requires m >= 1, got {m}")
    skip = _pow1m(beta, m - 1)
    return (tau / beta) * delta * (1.0 - skip) + gamma * skip


def cosp_case2(m: int, params: PolicyParams) -> float:
    """Top prediction is the true best, not a mistake: reduces to case 1."""
    return cosp_case1(m + 1, params)


def cosp_case3(m: int, k: int, m2: int, params: PolicyParams) -> float:
    """Both the top prediction and the true best are mistakes: reduces to
    case 4 with the true best removed from the mistake set."""
    if m < 2:
        raise ValueError(f"case 3 requires m >= 2, got {m}")
    m2_clamped = min(max(m2, max(0, (m - 1) - k)), max(0, m - 2))
    return cosp_case4(m - 1, k, m2_clamped, params)


def cosp_case4(m: int, k: int, m2: int, params: PolicyParams) -> float:
    """Top prediction is a mistake, the true best is not."""
    _, tau, beta, gamma, delta = _cosp_params(params)
    _check_profile_args(m, k, m2)
    bracket = (1.0 - _pow1m(beta, m2)) * (1.0 - delta) * tau / beta + _pow1m(
        beta, m2
    ) * (1.0 - gamma)
    tail = _pow1m(beta, k + 1) / (k + 1)
    return _sum_pre(m, tau, beta) + _sum_post(k, tau, beta) + tail * bracket


def cosp_case5(m: int, k: int, m2: int, params: PolicyParams) -> float:
    """True best is a mistake, the top prediction is not."""
    _, tau, beta, _, delta = _cosp_params(params)
    _check_profile_args(m, k, m2)
    early = _sum_pre(m, tau, beta) + ((1.0 - tau) ** m - _pow1m(beta, m)) / m
    late = _sum_post(k, tau, beta) * (1.0 - _pow1m(beta, m - 1))
    tail = (
        _pow1m(beta, k + 1)
        / (k + 1)
        * (1.0 - _pow1m(beta, m2))
        * (1.0 - delta)
        * tau
        / beta
    )
    return early + late + tail


def cosp_case6(m: int, k: int, m2: int, params: PolicyParams) -> float:
    """Neither the top prediction nor the true best is a mistake.

    The prediction-mode factor uses the pessimistic (1-theta)/(1+theta);
    both relevant deviations are at most theta in this case.
    """
    theta, tau, beta, _, delta = _cosp_params(params)
    _check_profile_args(m, k, m2, m_min=0)
    return _cosp_case6_at(m, k, m2, beta, theta, tau, delta)


def _cosp_case6_at(
    m: int, k: int, m2: int, beta: float, theta: float, tau: float, delta: float
) -> float:
    # beta may equal tau here (the rosp integrand touches the lower limit)
    pred = _pow1m(beta, m) * prediction_floor(theta)
    early = tau * (math.log(beta / tau) - pow_over_x_integral(tau, beta, m))
    late = _sum_post(k, tau, beta) * (1.0 - _pow1m(beta, m))
    tail = (
        _pow1m(beta, k + 1)
        / (k + 1)
        * (1.0 - _pow1m(beta, m2))
        * (1.0 - delta)
        * tau
        / beta
    )
    return pred + early + late + tail


# ---------------------------------------------------------------------------
# random-order case bounds
# ---------------------------------------------------------------------------

def _s1(n: int, tau: float) -> float:
    # sum_{i=1}^{n} C(n,i)(-1)^{i+1}(1 - tau^i)/i
    #   = Integral_tau^1 (1 - (1-t)^n) / t dt
    return math.log(1.0 / tau) - pow_over_x_integral(tau, 1.0, n)


def rosp_case0(epsilon: float) -> float:
    return cosp_case0(epsilon)


def rosp_case1(m: int, params: PolicyParams) -> float:
    tau, gamma, delta = params.tau, params.gamma, params.delta
    if m < 1:
        raise ValueError(f"case 1 requires m >= 1, got {m}")
    return delta * tau * _s1(m - 1, tau) + gamma * (1.0 - tau) ** m / m


def rosp_case2(m: int, params: PolicyParams) -> float:
    return rosp_case1(m + 1, params)


def rosp_case3(m: int, k: int, m2: int, params: PolicyParams) -> float:
    if m < 2:
        raise ValueError(f"case 3 requires m >= 2, got {m}")
    m2_clamped = min(max(m2, max(0, (m - 1) - k)), max(0, m - 2))
    return rosp_case4(m - 1, k, m2_clamped, params)


def _rosp_pre_block(m: int, tau: float) -> float:
    # Integral over beta in [tau,1] of the case-4 pre-switch sum; collapses to
    # a single pow_over_x term after swapping the integration order.
    return tau * (math.log(1.0 / tau) - 1.0 + tau - pow_over_x_integral(tau, 1.0, m))


def _rosp_post_block(k: int, tau: float) -> float:
    # Integral over beta in [tau,1] of the case-4 post-switch sum.
    return tau * (
        1.0
        - tau
        + tau * math.log(tau)
        - (1.0 - tau) ** (k + 1) / (k + 1)
        + tau * pow_over_x_integral(tau, 1.0, k)
    )


def _rosp_delta_block(k: int, m2: int, tau: float, delta: float) -> float:
    # ((1-delta) tau/(k+1)) Integral_tau^1 (1-b)^{k+1}(1-(1-b)^{m2})/b db
    return (
        (1.0 - delta)
        * tau
        / (k + 1)
        * (pow_over_x_integral(tau, 1.0, k + 1) - pow_over_x_integral(tau, 1.0, k + 1 + m2))
    )


def rosp_case4(m: int, k: int, m2: int, params: PolicyParams) -> float:
    tau, gamma, delta = params.tau, params.gamma, params.delta
    _check_profile_args(m, k, m2)
    early = tau * (tau * _s1(k, tau) + (1.0 - tau) ** (k + 1) / (k + 1))
    gamma_tail = (1.0 - gamma) / (k + 1) * (1.0 - tau) ** (k + 2 + m2) / (k + 2 + m2)
    return (
        early
        + _rosp_pre_block(m, tau)
        + _rosp_post_block(k, tau)
        + _rosp_delta_block(k, m2, tau, delta)
        + gamma_tail
    )


def _one_minus_pow_int(n: int, tau: float) -> float:
    # Integral_0^tau (1 - (1-b)^n) db
    return tau - (1.0 - (1.0 - tau) ** (n + 1)) / (n + 1)


def rosp_case5(m: int, k: int, m2: int, params: PolicyParams) -> float:
    tau, _, delta = params.tau, params.gamma, params.delta
    _check_profile_args(m, k, m2)
    s1k = _s1(k, tau)
    a = tau * s1k * _one_minus_pow_int(m, tau)
    b = (1.0 - tau) ** (k + 1) / (k + 1) * _one_minus_pow_int(m2, tau)
    c = _rosp_pre_block(m, tau) + (1.0 - tau) ** (m + 1) / (m + 1)
    # Integral over beta of (post-switch sum) * (1 - (1-beta)^{m-1}); the
    # swapped order leaves only pow_over_x terms.
    cover = (1.0 - tau) - (1.0 - tau) ** (k + 1) / (k + 1)
    d = tau * (
        cover
        - tau * s1k
        - (1.0 - tau) ** m * s1k / m
        + (pow_over_x_integral(tau, 1.0, m) - pow_over_x_integral(tau, 1.0, m + k)) / m
    )
    e = _rosp_delta_block(k, m2, tau, delta)
    return a + b + c + d + e


# The case-6 pieces below integrate the chosen-order case-6 terms against
# (1-(1-t)^m) over the top prediction's arrival t in [tau, 1].  Swapping the
# integration order leaves finite sums of pt(n) = Integral_tau^1 (1-x)^n/x dx,
# so they serve scalars (pt = pow_over_x_integral) and tune's arrays alike.

def _rosp_c6_floor_weight(m: int, tau):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^m dt, the weight of (1-th)/(1+th)
    u = 1.0 - tau
    return u ** (m + 1) / (m + 1) - u ** (2 * m + 1) / (2 * m + 1)


def _rosp_c6_pre_part(m: int, tau, pt):
    # Integral_tau^1 (1-(1-t)^m) * pre-switch-sum(m, t) dt
    return tau * (pt(1) - (1.0 + 1.0 / (m + 1)) * pt(m + 1) + pt(2 * m + 1) / (m + 1))


def _rosp_c6_m_part(m: int, theta: float, tau: float, pt) -> float:
    # Integral_tau^1 (1-(1-t)^m) [ (1-t)^m (1-th)/(1+th) + pre-switch sum(t) ] dt
    return prediction_floor(theta) * _rosp_c6_floor_weight(m, tau) + _rosp_c6_pre_part(m, tau, pt)


def _rosp_c6_k_part(m: int, k: int, tau, lnit, pt):
    # Integral_tau^1 (1-(1-t)^m)^2 * post-switch-sum(k, t) dt; lnit = ln(1/tau)
    u = 1.0 - tau
    s_k = lnit - pt(k)
    weight = 2.0 * u ** (m + 1) / (m + 1) - u ** (2 * m + 1) / (2 * m + 1)
    return tau * (
        u
        - u ** (k + 1) / (k + 1)
        - (tau + weight) * s_k
        + 2.0 * (pt(m + 1) - pt(m + 1 + k)) / (m + 1)
        - (pt(2 * m + 1) - pt(2 * m + 1 + k)) / (2 * m + 1)
    )


def _rosp_c6_log_part(m: int, tau, lnit, pt):
    # tau * Integral_tau^1 (1-(1-t)^m)^2 ln(1/t) dt, from
    # Integral_tau^1 (1-t)^n ln(1/t) dt = ((1-tau)^{n+1} ln(1/tau) - pt(n+1)) / (n+1)
    u = 1.0 - tau

    def j(n):
        return (u ** (n + 1) * lnit - pt(n + 1)) / (n + 1)

    return tau * (j(0) - 2.0 * j(m) + j(2 * m))


def _rosp_c6_tail_part(m: int, k: int, m2: int, tau, delta, pt):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^{k+1}/(k+1) (1-(1-t)^{m2}) (1-delta) tau/t dt
    # expands into four pow_over_x integrals.
    combo = pt(k + 1) - pt(k + 1 + m) - pt(k + 1 + m2) + pt(k + 1 + m + m2)
    return (1.0 - delta) * tau / (k + 1) * combo


def rosp_case6(m: int, k: int, m2: int, params: PolicyParams) -> float:
    """Neither special candidate is a mistake, arrival of the top prediction
    averaged over [0,1].

    The third contribution integrates the chosen-order case-6 expression over
    the top prediction's arrival time.  With the integration order swapped it
    is a closed form in pow_over_x_integral(tau, 1, n) terms: an m-only part,
    an (m,k) part, and an (m,k,m2) tail.  No quadrature is involved.
    """
    theta, tau, delta = params.theta, params.tau, params.delta
    _check_profile_args(m, k, m2, m_min=0)
    head = prediction_floor(theta) / (m + 1)
    lnit = math.log(1.0 / tau)
    early = tau * lnit * _one_minus_pow_int(m, tau)
    if m == 0:
        return head + early
    pt = partial(pow_over_x_integral, tau, 1.0)
    return (
        head
        + early
        + _rosp_c6_m_part(m, theta, tau, pt)
        + _rosp_c6_k_part(m, k, tau, lnit, pt)
        + _rosp_c6_tail_part(m, k, m2, tau, delta, pt)
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COSP_CASES = {1: cosp_case1, 4: cosp_case4, 5: cosp_case5, 6: cosp_case6}
_ROSP_CASES = {1: rosp_case1, 4: rosp_case4, 5: rosp_case5, 6: rosp_case6}


def case_bound(model: str, case_id: int, m: int, k: int, m2: int, params: PolicyParams) -> float:
    """Evaluate one case bound; case 0 uses theta as the worst admissible
    error, cases 2 and 3 reduce to their neighbors."""
    if model not in (COSP, ROSP):
        raise ValueError(f"unknown model {model!r}")
    table = {
        COSP: {0: None, 2: cosp_case2, 3: cosp_case3, **_COSP_CASES},
        ROSP: {0: None, 2: rosp_case2, 3: rosp_case3, **_ROSP_CASES},
    }[model]
    if case_id not in table:
        raise ValueError(f"unknown case {case_id}")
    if case_id == 0:
        return prediction_floor(params.theta)
    fn = table[case_id]
    if case_id in (1, 2):
        return fn(m, params)
    return fn(m, k, m2, params)


# ---------------------------------------------------------------------------
# symbolic bounds for large parameters
# ---------------------------------------------------------------------------

LARGE_REGIMES = ("large_m", "large_k", "large_m2", "large_mk")

# The original enumeration replaces every vanishing exponential by zero and
# every 1-(vanishing) factor by 0.9999, which is valid whenever the dropped
# term is below 1e-4.  That holds at the published parameters but not for
# arbitrary ones, so the factor is the sound min(0.9999, 1 - base^T).


def _shrink(base: float, exponent: int) -> float:
    return min(0.9999, 1.0 - base**exponent)


def _cosp_regime_value(
    case_id: int,
    params: PolicyParams,
    tm: int,
    tk: int,
    m: int | None,
    k: int | None,
    m2: int | None,
) -> float:
    theta, tau, beta, gamma, delta = _cosp_params(params)
    lm, lk, lm2 = m is None, k is None, m2 is None
    ub, ut = 1.0 - beta, 1.0 - tau

    if case_id == 1:
        if lm:
            return _shrink(ub, tm) * (tau / beta) * delta
        return cosp_case1(m, params)

    def tail_term(exp_m2_thresh: int) -> float:
        if lk:
            return 0.0
        base = ub ** (k + 1) / (k + 1)
        if lm2:
            return base * _shrink(ub, exp_m2_thresh) * (1.0 - delta) * tau / beta
        if case_id == 4:
            bracket = (1.0 - ub**m2) * (1.0 - delta) * tau / beta + ub**m2 * (1.0 - gamma)
            return base * bracket
        return base * (1.0 - ub**m2) * (1.0 - delta) * tau / beta

    post = (
        _shrink(ub, tk + 1) * tau * math.log(1.0 / beta) if lk else _sum_post(k, tau, beta)
    )

    if case_id == 4:
        pre = _shrink(ut, tm) * tau * math.log(beta / tau) if lm else _sum_pre(m, tau, beta)
        return pre + post + tail_term(tm + 1)

    if case_id == 5:
        if lm:
            pre = _shrink(ut, tm) * tau * math.log(beta / tau)
            cover = _shrink(ub, tm)
        else:
            pre = _sum_pre(m, tau, beta) + (ut**m - ub**m) / m
            cover = 1.0 - ub ** (m - 1)
        return pre + post * cover + tail_term(tm + 1)

    if case_id == 6:
        if lm:
            head = 0.0
            pre = _shrink(ut, tm + 1) * tau * math.log(beta / tau)
            cover = _shrink(ub, tm + 1)
        else:
            head = ub**m * prediction_floor(theta)
            pre = tau * (math.log(beta / tau) - pow_over_x_integral(tau, beta, m))
            cover = 1.0 - ub**m
        return head + pre + post * cover + tail_term(tm + 1)

    raise ValueError(f"case {case_id} has no large-regime form")


def _rosp_regime_value(
    case_id: int,
    params: PolicyParams,
    tm: int,
    tk: int,
    m: int | None,
    k: int | None,
    m2: int | None,
) -> float:
    theta, tau, gamma, delta = params.theta, params.tau, params.gamma, params.delta
    lm, lk, lm2 = m is None, k is None, m2 is None
    ut = 1.0 - tau

    if case_id == 1:
        if lm:
            return _shrink(ut, tm) * delta * tau * math.log(1.0 / tau)
        return rosp_case1(m, params)

    def delta_block() -> float:
        if lk:
            return 0.0
        if lm2:
            return (
                _shrink(ut, tm + 1)
                * (1.0 - delta)
                * tau
                / (k + 1)
                * pow_over_x_integral(tau, 1.0, k + 1)
            )
        return _rosp_delta_block(k, m2, tau, delta)

    if case_id == 4:
        early = (
            _shrink(ut, tk + 1) * tau**2 * math.log(1.0 / tau)
            if lk
            else tau * (tau * _s1(k, tau) + ut ** (k + 1) / (k + 1))
        )
        pre = (
            _shrink(ut, tm) * tau * (math.log(1.0 / tau) - 1.0 + tau)
            if lm
            else _rosp_pre_block(m, tau)
        )
        post = (
            _shrink(ut, tk + 1) * tau * (1.0 - tau + tau * math.log(tau))
            if lk
            else _rosp_post_block(k, tau)
        )
        gamma_tail = (
            0.0
            if (lk or lm2)
            else (1.0 - gamma) / (k + 1) * ut ** (k + 2 + m2) / (k + 2 + m2)
        )
        return early + pre + post + delta_block() + gamma_tail

    if case_id == 5:
        s1k_low = _shrink(ut, tk + 1) * math.log(1.0 / tau) if lk else _s1(k, tau)
        win_m = max(0.0, tau - 1.0 / (tm + 2)) if lm else _one_minus_pow_int(m, tau)
        a = tau * s1k_low * win_m
        if lk:
            b = 0.0
        else:
            win_m2 = max(0.0, tau - 1.0 / (tm + 2)) if lm2 else _one_minus_pow_int(m2, tau)
            b = ut ** (k + 1) / (k + 1) * win_m2
        c = (
            _shrink(ut, tm) * tau * (math.log(1.0 / tau) - 1.0 + tau)
            if lm
            else _rosp_pre_block(m, tau) + ut ** (m + 1) / (m + 1)
        )
        if lm and lk:
            d = _shrink(ut, tm) * _shrink(ut, tk + 1) * tau * (1.0 - tau + tau * math.log(tau))
        elif lm:
            d = _shrink(ut, tm) * _rosp_post_block(k, tau)
        elif lk:
            d = (
                _shrink(ut, tk + 1)
                * (1.0 - ut ** (m - 1))
                * tau
                * (1.0 - tau + tau * math.log(tau))
            )
        else:
            s1k = _s1(k, tau)
            cover = (1.0 - tau) - ut ** (k + 1) / (k + 1)
            d = tau * (
                cover
                - tau * s1k
                - ut**m * s1k / m
                + (pow_over_x_integral(tau, 1.0, m) - pow_over_x_integral(tau, 1.0, m + k)) / m
            )
        return a + b + c + d + delta_block()

    if case_id == 6:
        head = 0.0 if lm else prediction_floor(theta) / (m + 1)
        win_m = max(0.0, tau - 1.0 / (tm + 2)) if lm else _one_minus_pow_int(m, tau)
        early = tau * math.log(1.0 / tau) * win_m
        if lm:
            c_in = _shrink(ut, tm + 1)
            pre_int = c_in * tau * (math.log(1.0 / tau) - 1.0 + tau)
            if lk:
                k_int = c_in * _shrink(ut, tk + 1) * tau * (1.0 - tau + tau * math.log(tau))
                tail_int = 0.0
            else:
                k_int = c_in * _rosp_post_block(k, tau)
                if lm2:
                    tail_int = (
                        _shrink(ut, tm + 1)
                        * (1.0 - delta)
                        * tau
                        / (k + 1)
                        * pow_over_x_integral(tau, 1.0, k + 1)
                    )
                else:
                    tail_int = _rosp_delta_block(k, m2, tau, delta)
            return head + early + c_in * (pre_int + k_int + tail_int)
        # m small: only k may be large here (m2 <= m is small too)
        if not lk:
            raise ValueError("rosp case-6 regime with all parameters small is exact")
        # the large k replaces the post-switch sum by c_k tau ln(1/t)
        pt = partial(pow_over_x_integral, tau, 1.0)
        c_k = _shrink(ut, tk + 1)
        return (
            head
            + early
            + _rosp_c6_m_part(m, theta, tau, pt)
            + c_k * _rosp_c6_log_part(m, tau, math.log(1.0 / tau), pt)
        )

    raise ValueError(f"case {case_id} has no large-regime form")


def large_regime_bound(
    model: str,
    case_id: int,
    regime: str,
    params: PolicyParams,
    m: int | None = None,
    k: int | None = None,
    m2: int | None = None,
    thresholds: tuple[int, int] = (20, 20),
) -> float:
    """Symbolic lower bound for a case when the regime's parameters are large.

    ``regime`` names which structure parameters exceed their thresholds:
    ``large_m``, ``large_k``, ``large_m2`` (which forces m large as well), or
    ``large_mk`` (m and k large; the m2-dependent terms vanish).  Small
    parameters are passed explicitly; large ones must be omitted.
    """
    tm, tk = thresholds
    if tm < 1 or tk < 1:
        raise ValueError("thresholds must be >= 1")
    large = {
        "large_m": {"m"},
        "large_k": {"k"},
        "large_m2": {"m", "m2"},
        "large_mk": {"m", "k", "m2"},
    }
    if regime not in large:
        raise ValueError(f"unknown regime {regime!r}")
    needs = {1: {"m"}, 4: {"m", "k", "m2"}, 5: {"m", "k", "m2"}, 6: {"m", "k", "m2"}}
    if case_id not in needs:
        raise ValueError(f"case {case_id} has no large-regime form")
    given = {"m": m, "k": k, "m2": m2}
    for name in large[regime]:
        if given[name] is not None:
            raise ValueError(f"regime {regime} treats {name} as large; omit it")
    for name in needs[case_id] - large[regime]:
        if given[name] is None:
            raise ValueError(f"regime {regime} needs a small value for {name}")
    if "m2" in large[regime]:
        m2 = None
    fn = _cosp_regime_value if model == COSP else _rosp_regime_value
    return fn(case_id, params, tm, tk, m, k, m2)
