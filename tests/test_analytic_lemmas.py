import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import log_ratio, min_density_first_moment, min_density_mass, pow_over_x_fsum
from secpred.analytic import pow_over_x_integral


def test_mass_examples():
    assert min_density_mass(0.0, 1.0, 5) == pytest.approx(1.0, abs=1e-15)
    assert min_density_mass(0.3, 0.3, 4) == 0.0
    assert min_density_mass(0.37, 1.0, 3) == pytest.approx(0.63**3, abs=1e-15)
    assert 0.63**3 == pytest.approx(0.250047, abs=1e-6)


def test_first_moment_examples():
    assert min_density_first_moment(0.0, 1.0, 1) == pytest.approx(0.5, abs=1e-15)
    assert min_density_first_moment(0.7, 0.7, 3) == 0.0
    want, _ = quad(lambda x: x * 4 * (1 - x) ** 3, 0.2, 0.9, epsabs=1e-12)
    assert min_density_first_moment(0.2, 0.9, 4) == pytest.approx(want, abs=1e-8)


def test_log_ratio_examples():
    assert log_ratio(0.42, 0.42) == 0.0
    assert log_ratio(0.37, 1.0) == pytest.approx(0.994252, abs=1e-6)
    assert log_ratio(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(ValueError):
        log_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        log_ratio(0.9, 0.5)


def test_pow_over_x_examples():
    assert pow_over_x_integral(0.2, 0.8, 0) == pytest.approx(math.log(4), abs=1e-14)
    assert pow_over_x_integral(0.37, 1.0, 3) == pytest.approx(0.0825, abs=5e-5)
    assert pow_over_x_integral(0.6, 0.6, 7) == 0.0
    with pytest.raises(ValueError):
        pow_over_x_integral(0.0, 0.5, 2)
    with pytest.raises(ValueError):
        pow_over_x_integral(0.6, 0.4, 2)


def test_lemma_oracle_equivalence():
    # 1000 random intervals, exponents 0..20, absolute tolerance 1e-8
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = sorted(rng.uniform(0.01, 1.0, 2))
        m = int(rng.integers(0, 21))
        mass, _ = quad(lambda x: (m + 1) * (1 - x) ** m, a, b, epsabs=1e-11)
        assert abs(min_density_mass(a, b, m + 1) - mass) < 1e-8
        mom, _ = quad(lambda x: x * (m + 1) * (1 - x) ** m, a, b, epsabs=1e-11)
        assert abs(min_density_first_moment(a, b, m + 1) - mom) < 1e-8
        lr, _ = quad(lambda x: 1.0 / x, a, b, epsabs=1e-11)
        assert abs(log_ratio(a, b) - lr) < 1e-8
        px, _ = quad(lambda x: (1 - x) ** m / x, a, b, epsabs=1e-11)
        assert abs(pow_over_x_integral(a, b, m) - px) < 1e-8


def test_pow_over_x_matches_mpmath():
    # absolute error against 40-digit quadrature, across exponents small and
    # large and down to a = 0.001, where (1-a)^m decays slowly
    mp = pytest.importorskip("mpmath")
    grid = [
        (a, b, n)
        for a in (0.001, 0.01, 0.2, 0.33, 0.5, 0.9)
        for b in (a + 0.3 * (1 - a), 1.0)
        for n in (0, 5, 14, 20, 21, 40, 160)
    ]
    # the exponent the docstring's error statement reaches, at the two lower
    # limits where (1-a)^n decays slowest
    grid += [(a, b, 400) for a in (0.001, 0.01) for b in (a + 0.3 * (1 - a), 1.0)]
    grid += [(0.37, 0.64, 25), (0.2, 0.9, 120), (0.33, 0.33, 30)]
    with mp.workdps(40):
        for a, b, n in grid:
            exact = mp.quad(lambda x: (1 - x) ** n / x, [a, b])
            err = abs(pow_over_x_integral(a, b, n) - float(exact))
            assert err < 1e-14, (a, b, n, err)


def test_pow_over_x_rows_match_the_lemma():
    # a row holds every exponent's integral from one pass; each value must be
    # the bits of the fsum spec, from the smallest lower limit a refine grid
    # reaches up to exponents of 400
    from secpred.analytic import _pox_row

    rng = np.random.default_rng(11)
    limits = [(0.001, 1.0), (0.001, 0.0011), (0.37, 0.64), (0.64, 1.0), (0.9, 0.95)]
    limits += [tuple(sorted(rng.uniform(1e-4, 1.0, 2))) for _ in range(20)]
    for a, b in limits:
        row = _pox_row({}, a, b, 401)
        assert row.tolist() == [pow_over_x_fsum(a, b, n) for n in range(401)], (a, b)
        for n in (0, 1, 20, 400):
            assert pow_over_x_integral(a, b, n) == row[n], (a, b, n)
    rows = {}
    _pox_row(rows, 0.3, 1.0, 5)
    assert _pox_row(rows, 0.3, 1.0, 40).tolist() == [pow_over_x_fsum(0.3, 1.0, n)
                                                     for n in range(40)]
    with pytest.raises(ValueError):
        _pox_row({}, 0.0, 1.0, 3)


@pytest.mark.parametrize("kind", ["scalar", "mesh"])
def test_interval_logs_make_identities_exact(kind):
    # each ln(b/a) is its pow-over-x row's n = 0 entry, so the blocks that
    # subtract the integral at n = 0 from the interval's log are exactly 0
    # (one log taken with np.log and the row's with math.log disagreed at
    # about 0.3 % of the draws)
    from secpred.analytic import Point, _pox, _s1, _sum_post, _sum_pre

    rng = np.random.default_rng(27)
    tau = rng.uniform(0.001, 0.9, 20_000)
    beta = rng.uniform(tau, 1.0)
    if kind == "mesh":
        points = [(Point(tau, 0.5, 0.5, beta), tau, beta)]
    else:
        points = [(Point(t, 0.5, 0.5, b), t, b) for t, b in zip(tau.tolist(), beta.tolist())]
    for p, t, b in points:
        for value in (_s1(p, 0), _sum_pre(p, 1, 10), _sum_post(p, 0, 10)):
            assert np.all(value == 0.0)
        for interval, lo, hi in (("tb", t, b), ("b1", b, 1.0), ("t1", t, 1.0)):
            logs = np.vectorize(log_ratio)(lo, hi)
            assert np.array_equal(_pox(p, interval, 0), logs), interval
