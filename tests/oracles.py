"""Independent quadrature oracles for the analytic case bounds.

Everything here evaluates the defining sub-case integrals with scipy's
QUADPACK, never reusing the package's closed forms, so formula bugs and
oracle bugs stay uncorrelated.
"""

import math

from scipy.integrate import quad

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
