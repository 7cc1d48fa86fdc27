"""Independent oracles for the analytic case bounds.

The case oracles evaluate the defining sub-case integrals with scipy's
QUADPACK, never reusing the package's closed forms, so formula bugs and
oracle bugs stay uncorrelated.  The appendix lemmas at the end are closed
forms kept here as specs: ``pow_over_x_fsum`` is the sum that the
package's pow-over-x rows must match bit for bit, and the three others
have no caller in the package and are checked against quadrature.
"""

import math

from scipy.integrate import quad

from secpred.core import check_integer

EPS = 1e-12


def q(f, a, b):
    val, _ = quad(f, a, b, epsabs=EPS, epsrel=1e-11, limit=300)
    return val


def cosp_case1_oracle(m, p):
    t, b, g, d = p.tau, p.beta, p.gamma, p.delta
    skip = (1 - b) ** (m - 1)
    return (t / b) * d * (1 - skip) + g * skip


def cosp_case4_oracle(m, k, m2, p):
    t, b, g, d = p.tau, p.beta, p.gamma, p.delta
    pre = q(lambda x: (1 - (1 - x) ** (m - 1)) * t / x, t, b)
    post = q(lambda x: (1 - (1 - x) ** k) * t / x, b, 1.0)
    bracket = (1 - (1 - b) ** m2) * (1 - d) * t / b + (1 - b) ** m2 * (1 - g)
    tail = q(lambda x: (1 - x) ** k, b, 1.0) * bracket
    return pre + post + tail


def cosp_case5_oracle(m, k, m2, p):
    t, b, d = p.tau, p.beta, p.delta
    pre = q(lambda x: (1 - (1 - x) ** (m - 1)) * t / x + (1 - x) ** (m - 1), t, b)
    post = q(lambda x: (1 - (1 - x) ** k) * t / x, b, 1.0) * (1 - (1 - b) ** (m - 1))
    tail = q(lambda x: (1 - x) ** k, b, 1.0) * (1 - (1 - b) ** m2) * (1 - d) * t / b
    return pre + post + tail


def cosp_case6_oracle(m, k, m2, p, beta=None):
    t, d, th = p.tau, p.delta, p.theta
    b = p.beta if beta is None else beta
    head = (1 - b) ** m * (1 - th) / (1 + th)
    pre = q(lambda x: (1 - (1 - x) ** m) * t / x, t, b) if b > t else 0.0
    post = q(lambda x: (1 - (1 - x) ** k) * t / x, b, 1.0) * (1 - (1 - b) ** m)
    tail = q(lambda x: (1 - x) ** k, b, 1.0) * (1 - (1 - b) ** m2) * (1 - d) * t / b
    return head + pre + post + tail


def rosp_case1_oracle(m, p):
    t, g, d = p.tau, p.gamma, p.delta
    return d * t * q(lambda x: (1 - (1 - x) ** (m - 1)) / x, t, 1.0) + g * q(
        lambda x: (1 - x) ** (m - 1), t, 1.0
    )


def rosp_case4_oracle(m, k, m2, p):
    t = p.tau
    first = t * q(lambda x: (t / x) * (1 - (1 - x) ** k) + (1 - x) ** k, t, 1.0)
    rest = q(lambda b: cosp_case4_oracle(m, k, m2, _with_beta(p, b)), t, 1.0)
    return first + rest


def rosp_case5_oracle(m, k, m2, p):
    t = p.tau
    inner_a = q(lambda x: (t / x) * (1 - (1 - x) ** k), t, 1.0)
    outer_a = q(lambda b: 1 - (1 - b) ** m, 0.0, t)
    inner_b = q(lambda x: (1 - x) ** k, t, 1.0)
    outer_b = q(lambda b: 1 - (1 - b) ** m2, 0.0, t)
    rest = q(lambda b: cosp_case5_oracle(m, k, m2, _with_beta(p, b)), t, 1.0)
    return inner_a * outer_a + inner_b * outer_b + rest


def rosp_case6_oracle(m, k, m2, p):
    t, th = p.tau, p.theta
    head = (1 - th) / (1 + th) / (m + 1)
    early = t * math.log(1 / t) * q(lambda b: 1 - (1 - b) ** m, 0.0, t)
    rest = q(
        lambda b: (1 - (1 - b) ** m) * cosp_case6_oracle(m, k, m2, p, beta=b), t, 1.0
    )
    return head + early + rest


def _with_beta(p, b):
    from secpred import PolicyParams

    return PolicyParams(theta=p.theta, tau=p.tau, gamma=p.gamma, delta=p.delta, beta=b)


COSP_ORACLES = {1: cosp_case1_oracle, 4: cosp_case4_oracle, 5: cosp_case5_oracle, 6: cosp_case6_oracle}
ROSP_ORACLES = {1: rosp_case1_oracle, 4: rosp_case4_oracle, 5: rosp_case5_oracle, 6: rosp_case6_oracle}


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


def pow_over_x_fsum(a: float, b: float, m: int) -> float:
    """Integral of (1-x)^m / x over [a, b], for 0 < a <= b <= 1:
    ln(b/a) - sum_{j=1}^{m} ((1-a)^j - (1-b)^j) / j, the sum taken with
    ``math.fsum`` over a generator."""
    _check_interval(a, b, m, positive_a=True)
    ua, ub = 1.0 - a, 1.0 - b
    return math.log(b / a) - math.fsum((ua**j - ub**j) / j for j in range(1, m + 1))


def _check_interval(a: float, b: float, m: int, positive_a: bool) -> None:
    check_integer("m", m, 0)
    lo_ok = a > 0 if positive_a else a >= 0
    if not (lo_ok and a <= b <= 1.0):
        raise ValueError(f"invalid interval [{a}, {b}]")
