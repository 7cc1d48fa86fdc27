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
controlled in exactly one place.  Each bound is written once over a
``Point``, whose fields are floats for one policy or arrays for a search
mesh.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import COSP, ROSP, PolicyParams

__all__ = [
    "min_density_mass",
    "min_density_first_moment",
    "log_ratio",
    "pow_over_x_integral",
    "prediction_floor",
    "Point",
    "case6_coef",
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
# parameter points and shared building blocks
# ---------------------------------------------------------------------------

def prediction_floor(theta: float) -> float:
    """(1 - theta) / (1 + theta): value ratio when hiring a candidate whose
    own and the best candidate's deviations are both within theta."""
    return (1.0 - theta) / (1.0 + theta)


class Point:
    """The policy parameters a case bound is evaluated at.

    The fields are floats for one policy (certify, evaluate) or equal-shape
    arrays for a search mesh (tune); every bound below is written once over a
    point and serves both.  ``r`` is the no-mistake floor (1-theta)/(1+theta),
    the only way theta enters (case 0 and the case-6 head).

    Building blocks are memoized on the point per integer argument, so a
    point shared by a whole enumeration takes each power and each pow-over-x
    integral once.  On a mesh the integrals come from ``pow_over_x_integral``
    once per distinct (lower, upper) pair and are gathered, so a mesh entry
    and the scalar point with the same fields see the same values.
    """

    def __init__(self, tau, gamma, delta, beta=None, r=0.0):
        self.tau, self.gamma, self.delta, self.beta, self.r = tau, gamma, delta, beta, r
        self.mesh = isinstance(tau, np.ndarray)
        self.log = np.log if self.mesh else math.log
        self.min = np.minimum if self.mesh else min
        self.max = np.maximum if self.mesh else max
        self.memo: dict = {}

    @classmethod
    def of(cls, model: str, params: PolicyParams) -> Point:
        """The scalar point of ``params``; beta is kept for chosen order only."""
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


def _as_point(model: str, params) -> Point:
    return params if isinstance(params, Point) else Point.of(model, params)


def _memo(fn):
    # a building block depends only on the point and its integer arguments
    name = fn.__name__

    def cached(p, *args):
        key = (name, args)
        if key not in p.memo:
            p.memo[key] = fn(p, *args)
        return p.memo[key]

    return cached


@_memo
def _ut(p, n):
    return (1.0 - p.tau) ** n


@_memo
def _ub(p, n):
    return (1.0 - p.beta) ** n


@_memo
def _ln_bt(p):
    return p.log(p.beta / p.tau)


@_memo
def _ln_ib(p):
    return p.log(1.0 / p.beta)


@_memo
def _ln_it(p):
    return p.log(1.0 / p.tau)


@_memo
def _ln_t(p):
    return p.log(p.tau)


def _limits(p, interval):
    if interval == "tb":
        return p.tau, p.beta
    return (p.beta if interval == "b1" else p.tau), 1.0


@_memo
def _pairs(p, interval):
    # a mesh's distinct (lower, upper) pairs on one interval, and the gather index
    lo, hi = np.broadcast_arrays(*_limits(p, interval))
    pairs, inverse = np.unique(np.stack([lo, hi]), axis=1, return_inverse=True)
    return pairs.T.tolist(), inverse.reshape(lo.shape)


@_memo
def _pox(p, interval, n):
    # Integral of (1-x)^n / x over [tau, beta] ("tb"), [beta, 1] ("b1") or [tau, 1] ("t1")
    if not p.mesh:
        return pow_over_x_integral(*_limits(p, interval), n)
    pairs, inverse = _pairs(p, interval)
    return np.array([pow_over_x_integral(a, b, n) for a, b in pairs])[inverse]


# The original enumeration replaces every vanishing exponential by zero and
# every 1-(vanishing) factor by 0.9999, which is valid whenever the dropped
# term is below 1e-4.  That holds at the published parameters but not for
# arbitrary ones, so the factor is the sound min(0.9999, 1 - base^T).

def _shrink_t(p, n):
    return p.min(0.9999, 1.0 - _ut(p, n))


def _shrink_b(p, n):
    return p.min(0.9999, 1.0 - _ub(p, n))


@_memo
def _sum_pre(p, m):
    # tau * sum_{i=1}^{m-1} C(m-1,i)(-1)^{i+1}(beta^i - tau^i)/i
    #   = tau * Integral_tau^beta (1 - (1-t)^{m-1}) / t dt
    return p.tau * (_ln_bt(p) - _pox(p, "tb", m - 1))


@_memo
def _sum_post(p, k):
    # tau * sum_{i=1}^{k} C(k,i)(-1)^{i+1}(1 - beta^i)/i
    #   = tau * Integral_beta^1 (1 - (1-t)^k) / t dt
    return p.tau * (_ln_ib(p) - _pox(p, "b1", k))


def _check_profile_args(m: int, k: int, m2: int, m_min: int = 1) -> None:
    if m < m_min:
        raise ValueError(f"case requires m >= {m_min}, got m={m}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not 0 <= m2 <= m:
        raise ValueError(f"m2={m2} outside [0, m={m}]")


def case6_coef(model: str, m: int | None, params):
    """Weight of the no-mistake floor r = (1-theta)/(1+theta) in case 6.

    Every case-6 bound, exact or large-regime, is ``base + coef * r`` with
    ``base`` free of theta.  coef < 1 for m >= 1; at m = 0 it is 1 and the
    bound is r itself; a large m (``None``) drops the head, so coef = 0.
    """
    if m is None:
        return 0.0
    p = _as_point(model, params)
    if model == COSP:
        return _ub(p, m)
    return 1.0 / (m + 1) + _rosp_c6_floor_weight(p, m)


def _c6_head(model: str, p: Point, m: int | None):
    return case6_coef(model, m, p) * p.r


# ---------------------------------------------------------------------------
# chosen-order case bounds
# ---------------------------------------------------------------------------

def cosp_case0(epsilon: float) -> float:
    """No mistakes: the hired top prediction is (1-eps)/(1+eps) of optimal."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1]")
    return prediction_floor(epsilon)


def cosp_case1(m: int, params) -> float:
    """Top prediction is the true best and is itself a mistake."""
    p = _as_point(COSP, params)
    if m < 1:
        raise ValueError(f"case 1 requires m >= 1, got {m}")
    return _cosp_c1(p, m)


@_memo
def _cosp_c1(p, m):
    # memoized: every enumeration cell with m >= 1 asks for it
    skip = _ub(p, m - 1)
    return (p.tau / p.beta) * p.delta * (1.0 - skip) + p.gamma * skip


def cosp_case2(m: int, params) -> float:
    """Top prediction is the true best, not a mistake: reduces to case 1."""
    return cosp_case1(m + 1, params)


def cosp_case3(m: int, k: int, m2: int, params) -> float:
    """Both the top prediction and the true best are mistakes: reduces to
    case 4 with the true best removed from the mistake set."""
    if m < 2:
        raise ValueError(f"case 3 requires m >= 2, got {m}")
    m2_clamped = min(max(m2, max(0, (m - 1) - k)), max(0, m - 2))
    return cosp_case4(m - 1, k, m2_clamped, params)


@_memo
def _cosp_bracket4(p, m2):
    # case 4's late-window weight, by the m2 mistakes below the top prediction
    return (1.0 - _ub(p, m2)) * (1.0 - p.delta) * p.tau / p.beta + _ub(p, m2) * (1.0 - p.gamma)


@_memo
def _cosp_tail(p, k, m2):
    # the late-window term of cases 5 and 6
    return _ub(p, k + 1) / (k + 1) * (1.0 - _ub(p, m2)) * (1.0 - p.delta) * p.tau / p.beta


def cosp_case4(m: int, k: int, m2: int, params) -> float:
    """Top prediction is a mistake, the true best is not."""
    p = _as_point(COSP, params)
    _check_profile_args(m, k, m2)
    tail = _ub(p, k + 1) / (k + 1)
    return _sum_pre(p, m) + _sum_post(p, k) + tail * _cosp_bracket4(p, m2)


def cosp_case5(m: int, k: int, m2: int, params) -> float:
    """True best is a mistake, the top prediction is not."""
    p = _as_point(COSP, params)
    _check_profile_args(m, k, m2)
    early = _sum_pre(p, m) + (_ut(p, m) - _ub(p, m)) / m
    late = _sum_post(p, k) * (1.0 - _ub(p, m - 1))
    return early + late + _cosp_tail(p, k, m2)


def cosp_case6(m: int, k: int, m2: int, params) -> float:
    """Neither the top prediction nor the true best is a mistake.

    The prediction-mode factor uses the pessimistic (1-theta)/(1+theta);
    both relevant deviations are at most theta in this case.
    """
    p = _as_point(COSP, params)
    _check_profile_args(m, k, m2, m_min=0)
    late = _sum_post(p, k) * (1.0 - _ub(p, m))
    # tau * Integral_tau^beta (1 - (1-t)^m) / t dt is the pre-switch sum at m+1
    return _c6_head(COSP, p, m) + _sum_pre(p, m + 1) + late + _cosp_tail(p, k, m2)


# ---------------------------------------------------------------------------
# random-order case bounds
# ---------------------------------------------------------------------------

@_memo
def _s1(p, n):
    # sum_{i=1}^{n} C(n,i)(-1)^{i+1}(1 - tau^i)/i
    #   = Integral_tau^1 (1 - (1-t)^n) / t dt
    return _ln_it(p) - _pox(p, "t1", n)


def rosp_case0(epsilon: float) -> float:
    return cosp_case0(epsilon)


def rosp_case1(m: int, params) -> float:
    p = _as_point(ROSP, params)
    if m < 1:
        raise ValueError(f"case 1 requires m >= 1, got {m}")
    return _rosp_c1(p, m)


@_memo
def _rosp_c1(p, m):
    # memoized: every enumeration cell with m >= 1 asks for it
    return p.delta * p.tau * _s1(p, m - 1) + p.gamma * _ut(p, m) / m


def rosp_case2(m: int, params) -> float:
    return rosp_case1(m + 1, params)


def rosp_case3(m: int, k: int, m2: int, params) -> float:
    if m < 2:
        raise ValueError(f"case 3 requires m >= 2, got {m}")
    m2_clamped = min(max(m2, max(0, (m - 1) - k)), max(0, m - 2))
    return rosp_case4(m - 1, k, m2_clamped, params)


def _rosp_l_pre(p):
    # Integral_tau^1 ln(t/tau) dt, the pre-switch block's large-m limit over tau
    return _ln_it(p) - 1.0 + p.tau


def _rosp_l_post(p):
    # Integral_tau^1 ln(1/t) dt, the post-switch block's large-k limit over tau
    return 1.0 - p.tau + p.tau * _ln_t(p)


@_memo
def _rosp_pre_block(p, m):
    # Integral over beta in [tau,1] of the case-4 pre-switch sum; collapses to
    # a single pow_over_x term after swapping the integration order.
    return p.tau * (_rosp_l_pre(p) - _pox(p, "t1", m))


@_memo
def _rosp_post_block(p, k):
    # Integral over beta in [tau,1] of the case-4 post-switch sum.
    return p.tau * (_rosp_l_post(p) - _ut(p, k + 1) / (k + 1) + p.tau * _pox(p, "t1", k))


@_memo
def _rosp_delta_block(p, k, m2):
    # ((1-delta) tau/(k+1)) Integral_tau^1 (1-b)^{k+1}(1-(1-b)^{m2})/b db
    return (
        (1.0 - p.delta)
        * p.tau
        / (k + 1)
        * (_pox(p, "t1", k + 1) - _pox(p, "t1", k + 1 + m2))
    )


def rosp_case4(m: int, k: int, m2: int, params) -> float:
    p = _as_point(ROSP, params)
    _check_profile_args(m, k, m2)
    early = p.tau * (p.tau * _s1(p, k) + _ut(p, k + 1) / (k + 1))
    gamma_tail = (1.0 - p.gamma) / (k + 1) * _ut(p, k + 2 + m2) / (k + 2 + m2)
    return (
        early
        + _rosp_pre_block(p, m)
        + _rosp_post_block(p, k)
        + _rosp_delta_block(p, k, m2)
        + gamma_tail
    )


def _one_minus_pow_int(n: int, tau):
    # Integral_0^tau (1 - (1-b)^n) db
    return tau - (1.0 - (1.0 - tau) ** (n + 1)) / (n + 1)


@_memo
def _one_minus_pow(p, n):
    return _one_minus_pow_int(n, p.tau)


def _rosp_window(p, tm):
    # _one_minus_pow_int's floor over every n > tm
    return p.max(0.0, p.tau - 1.0 / (tm + 2))


@_memo
def _rosp_c5_post(p, m, k):
    # Integral over beta of (post-switch sum) * (1 - (1-beta)^{m-1}); the
    # swapped order leaves only pow_over_x terms.
    s1k = _s1(p, k)
    cover = (1.0 - p.tau) - _ut(p, k + 1) / (k + 1)
    return p.tau * (
        cover
        - p.tau * s1k
        - _ut(p, m) * s1k / m
        + (_pox(p, "t1", m) - _pox(p, "t1", m + k)) / m
    )


def rosp_case5(m: int, k: int, m2: int, params) -> float:
    p = _as_point(ROSP, params)
    _check_profile_args(m, k, m2)
    a = p.tau * _s1(p, k) * _one_minus_pow(p, m)
    b = _ut(p, k + 1) / (k + 1) * _one_minus_pow(p, m2)
    c = _rosp_pre_block(p, m) + _ut(p, m + 1) / (m + 1)
    return a + b + c + _rosp_c5_post(p, m, k) + _rosp_delta_block(p, k, m2)


# The case-6 pieces below integrate the chosen-order case-6 terms against
# (1-(1-t)^m) over the top prediction's arrival t in [tau, 1].  Swapping the
# integration order leaves finite sums of pt(n) = Integral_tau^1 (1-x)^n/x dx.

@_memo
def _rosp_c6_floor_weight(p, m):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^m dt, the weight of (1-th)/(1+th)
    return _ut(p, m + 1) / (m + 1) - _ut(p, 2 * m + 1) / (2 * m + 1)


@_memo
def _rosp_c6_pre_part(p, m):
    # Integral_tau^1 (1-(1-t)^m) * pre-switch-sum(m, t) dt
    pt = partial(_pox, p, "t1")
    return p.tau * (pt(1) - (1.0 + 1.0 / (m + 1)) * pt(m + 1) + pt(2 * m + 1) / (m + 1))


@_memo
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
        return (_ut(p, n + 1) * _ln_it(p) - _pox(p, "t1", n + 1)) / (n + 1)

    return p.tau * (j(0) - 2.0 * j(m) + j(2 * m))


def _rosp_c6_tail_part(p, m, k, m2):
    # Integral_tau^1 (1-(1-t)^m) (1-t)^{k+1}/(k+1) (1-(1-t)^{m2}) (1-delta) tau/t dt
    # expands into four pow_over_x integrals.
    pt = partial(_pox, p, "t1")
    combo = pt(k + 1) - pt(k + 1 + m) - pt(k + 1 + m2) + pt(k + 1 + m + m2)
    return (1.0 - p.delta) * p.tau / (k + 1) * combo


def rosp_case6(m: int, k: int, m2: int, params) -> float:
    """Neither special candidate is a mistake, arrival of the top prediction
    averaged over [0,1].

    The third contribution integrates the chosen-order case-6 expression over
    the top prediction's arrival time.  With the integration order swapped it
    is a closed form in pow_over_x_integral(tau, 1, n) terms: the no-mistake
    head, an m-only part, an (m,k) part, and an (m,k,m2) tail.  No
    quadrature is involved.
    """
    p = _as_point(ROSP, params)
    _check_profile_args(m, k, m2, m_min=0)
    head = _c6_head(ROSP, p, m)
    early = p.tau * _ln_it(p) * _one_minus_pow(p, m)
    if m == 0:
        return head + early
    return (
        head
        + early
        + _rosp_c6_pre_part(p, m)
        + _rosp_c6_k_part(p, m, k)
        + _rosp_c6_tail_part(p, m, k, m2)
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_CASES = {
    COSP: {0: None, 1: cosp_case1, 2: cosp_case2, 3: cosp_case3, 4: cosp_case4,
           5: cosp_case5, 6: cosp_case6},
    ROSP: {0: None, 1: rosp_case1, 2: rosp_case2, 3: rosp_case3, 4: rosp_case4,
           5: rosp_case5, 6: rosp_case6},
}


def case_bound(model: str, case_id: int, m: int, k: int, m2: int, params) -> float:
    """Evaluate one case bound at ``params`` (PolicyParams or a Point); case 0
    uses theta as the worst admissible error, cases 2 and 3 reduce to their
    neighbors."""
    table = _CASES.get(model)
    if table is None:
        raise ValueError(f"unknown model {model!r}")
    if case_id not in table:
        raise ValueError(f"unknown case {case_id}")
    if case_id == 0:
        return params.r if isinstance(params, Point) else prediction_floor(params.theta)
    fn = table[case_id]
    if case_id in (1, 2):
        return fn(m, params)
    return fn(m, k, m2, params)


# ---------------------------------------------------------------------------
# symbolic bounds for large parameters
# ---------------------------------------------------------------------------

LARGE_REGIMES = ("large_m", "large_k", "large_m2", "large_mk")


def _cosp_regime_value(case_id, p, tm, tk, m, k, m2):
    lm, lk, lm2 = m is None, k is None, m2 is None

    if case_id == 1:
        if lm:
            return _shrink_b(p, tm) * (p.tau / p.beta) * p.delta
        return cosp_case1(m, p)

    def tail_term():
        if lk:
            return 0.0
        if lm2:
            return (
                _ub(p, k + 1) / (k + 1) * _shrink_b(p, tm + 1) * (1.0 - p.delta) * p.tau / p.beta
            )
        if case_id == 4:
            return _ub(p, k + 1) / (k + 1) * _cosp_bracket4(p, m2)
        return _cosp_tail(p, k, m2)

    post = _shrink_b(p, tk + 1) * p.tau * _ln_ib(p) if lk else _sum_post(p, k)

    if case_id == 4:
        pre = _shrink_t(p, tm) * p.tau * _ln_bt(p) if lm else _sum_pre(p, m)
        return pre + post + tail_term()

    if case_id == 5:
        if lm:
            pre = _shrink_t(p, tm) * p.tau * _ln_bt(p)
            cover = _shrink_b(p, tm)
        else:
            pre = _sum_pre(p, m) + (_ut(p, m) - _ub(p, m)) / m
            cover = 1.0 - _ub(p, m - 1)
        return pre + post * cover + tail_term()

    if case_id == 6:
        if lm:
            pre = _shrink_t(p, tm + 1) * p.tau * _ln_bt(p)
            cover = _shrink_b(p, tm + 1)
        else:
            pre = _sum_pre(p, m + 1)
            cover = 1.0 - _ub(p, m)
        return _c6_head(COSP, p, m) + pre + post * cover + tail_term()

    raise ValueError(f"case {case_id} has no large-regime form")


def _rosp_regime_value(case_id, p, tm, tk, m, k, m2):
    lm, lk, lm2 = m is None, k is None, m2 is None
    tau = p.tau

    if case_id == 1:
        if lm:
            return _shrink_t(p, tm) * p.delta * tau * _ln_it(p)
        return rosp_case1(m, p)

    def delta_block():
        if lk:
            return 0.0
        if lm2:
            return (
                _shrink_t(p, tm + 1)
                * (1.0 - p.delta)
                * tau
                / (k + 1)
                * _pox(p, "t1", k + 1)
            )
        return _rosp_delta_block(p, k, m2)

    if case_id == 4:
        early = (
            _shrink_t(p, tk + 1) * tau**2 * _ln_it(p)
            if lk
            else tau * (tau * _s1(p, k) + _ut(p, k + 1) / (k + 1))
        )
        pre = _shrink_t(p, tm) * tau * _rosp_l_pre(p) if lm else _rosp_pre_block(p, m)
        post = _shrink_t(p, tk + 1) * tau * _rosp_l_post(p) if lk else _rosp_post_block(p, k)
        gamma_tail = (
            0.0
            if (lk or lm2)
            else (1.0 - p.gamma) / (k + 1) * _ut(p, k + 2 + m2) / (k + 2 + m2)
        )
        return early + pre + post + delta_block() + gamma_tail

    if case_id == 5:
        s1k_low = _shrink_t(p, tk + 1) * _ln_it(p) if lk else _s1(p, k)
        win_m = _rosp_window(p, tm) if lm else _one_minus_pow(p, m)
        a = tau * s1k_low * win_m
        if lk:
            b = 0.0
        else:
            win_m2 = _rosp_window(p, tm) if lm2 else _one_minus_pow(p, m2)
            b = _ut(p, k + 1) / (k + 1) * win_m2
        c = (
            _shrink_t(p, tm) * tau * _rosp_l_pre(p)
            if lm
            else _rosp_pre_block(p, m) + _ut(p, m + 1) / (m + 1)
        )
        if lm and lk:
            d = _shrink_t(p, tm) * _shrink_t(p, tk + 1) * tau * _rosp_l_post(p)
        elif lm:
            d = _shrink_t(p, tm) * _rosp_post_block(p, k)
        elif lk:
            d = _shrink_t(p, tk + 1) * (1.0 - _ut(p, m - 1)) * tau * _rosp_l_post(p)
        else:
            d = _rosp_c5_post(p, m, k)
        return a + b + c + d + delta_block()

    if case_id == 6:
        head = _c6_head(ROSP, p, m)
        win_m = _rosp_window(p, tm) if lm else _one_minus_pow(p, m)
        early = tau * _ln_it(p) * win_m
        if lm:
            c_in = _shrink_t(p, tm + 1)
            pre_int = c_in * tau * _rosp_l_pre(p)
            if lk:
                k_int = c_in * _shrink_t(p, tk + 1) * tau * _rosp_l_post(p)
            else:
                k_int = c_in * _rosp_post_block(p, k)
            return head + early + c_in * (pre_int + k_int + delta_block())
        # m small: only k may be large here (m2 <= m is small too)
        if not lk:
            raise ValueError("rosp case-6 regime with all parameters small is exact")
        # the large k replaces the post-switch sum by c_k tau ln(1/t)
        return (
            head
            + early
            + _rosp_c6_pre_part(p, m)
            + _shrink_t(p, tk + 1) * _rosp_c6_log_part(p, m)
        )

    raise ValueError(f"case {case_id} has no large-regime form")


def large_regime_bound(
    model: str,
    case_id: int,
    regime: str,
    params,
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
    ``params`` is a PolicyParams or a Point.
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
    return fn(case_id, _as_point(model, params), tm, tk, m, k, m2)
