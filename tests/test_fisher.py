import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import scale_series_partial, scale_series_tail_bound
from specvol import fisher

# partial sum to j = 1e6 at lam = 1, frozen from the brute-force oracle
PARTIAL_AT_1 = 0.00927423661641044


def test_series_partial_anchor():
    got = scale_series_partial(1.0, 10**6)
    assert got == pytest.approx(PARTIAL_AT_1, rel=1e-12)
    assert got == pytest.approx(0.00927, abs=5e-6)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, np.pi, 10.0, 100.0])
def test_series_closed_vs_partial(lam):
    closed = fisher.scale_series_closed(lam)
    partial = scale_series_partial(lam, 10**6)
    assert abs(closed - partial) / partial < 1e-8


def test_series_small_lambda():
    assert fisher.scale_series_closed(1e-3) < 1e-6
    # leading order lam^3 * zeta(4)/pi^4 = lam^3/90
    assert fisher.scale_series_closed(1e-3) == pytest.approx(1e-9 / 90.0, rel=1e-4)
    with pytest.raises(ValueError):
        fisher.scale_series_closed(0.0)


def test_series_branches_agree_in_overlap():
    for lam in [0.45, 0.5, 0.55, 0.8]:
        series = fisher._series_small(lam)
        d = -np.expm1(-2.0 * lam)
        q = np.exp(-2.0 * lam)
        closed = (1.0 + 4.0 * lam * q - q * q) / (4.0 * d * d) - 1.0 / (2.0 * lam)
        assert series == pytest.approx(closed, rel=1e-12)


def test_tail_bound_is_a_bound():
    # sum the tail itself: the difference of two partial sums of about 1e-3
    # cannot resolve a tail of about 1e-19
    j = np.arange(10**5 + 1, 10**6 + 1, dtype=np.float64)
    for lam in [0.5, 2.0, 20.0]:
        tail = math.fsum(lam**3 / (lam**2 + np.pi**2 * j**2) ** 2)
        assert tail < scale_series_tail_bound(lam, 10**5)


@pytest.mark.parametrize("theta", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("h0", [1.0, 10.0, 100.0])
def test_information_closed_vs_partial_and_identity(theta, h0):
    closed = fisher.block_information(theta, h0)
    partial = fisher.block_information_partial(theta, h0, 10**6)
    assert abs(closed - partial) / partial < 1e-8
    lam = np.sqrt(theta) * h0
    via_series = (h0**4 / 2.0) * lam**-3 * fisher.scale_series_closed(lam)
    assert abs(closed - via_series) / closed < 1e-12


def test_information_asymptote():
    # I(theta)/h0 -> 1/(8 theta^{3/2}); first-order gap is exactly
    # 2/(8 lam) = 1.25e-3 at theta=1, h0=200, so test just above that level
    assert abs(fisher.block_information(1.0, 200.0) / 200.0 - 0.125) < 1.5e-3
    assert abs(fisher.block_information(1.0, 300.0) / 300.0 - 0.125) < 1e-3
    assert abs(fisher.block_information(1.0, 2000.0) / 2000.0 - 0.125) < 1.3e-4


def test_information_monotone_in_h0():
    vals = [fisher.block_information(1.0, h0) for h0 in (2.0, 7.0, 30.0)]
    assert vals[0] < vals[1] < vals[2]


def test_single_frequency_constants():
    imax = fisher.single_frequency_information(1.0, np.sqrt(3) * np.pi)
    assert imax == pytest.approx(3**1.5 / (32 * np.pi), abs=1e-15)
    assert imax == pytest.approx(0.0517, abs=1e-4)


def test_single_frequency_numeric_argmax():
    res = minimize_scalar(
        lambda h0: -fisher.single_frequency_information(1.0, h0),
        bracket=(0.1, 5.0, 50.0), method="golden", options={"xtol": 1e-10},
    )
    assert res.x == pytest.approx(np.sqrt(3) * np.pi, abs=1e-6)
    assert -res.fun == pytest.approx(3**1.5 / (32 * np.pi), abs=1e-6)


def test_relative_efficiency():
    imax = fisher.single_frequency_information(1.0, np.sqrt(3) * np.pi)
    eff = np.sqrt(imax / fisher.efficiency_bound(1.0))
    assert eff == pytest.approx(0.643, abs=1e-3)


def test_first_frequency_term_relation():
    # single-frequency value equals the j=1 information term per unit h0
    for sigma0, h0 in [(1.0, 7.3), (0.7, 2.0), (2.0, 40.0)]:
        theta = sigma0**2
        j1_term = 0.5 / (theta + np.pi**2 / h0**2) ** 2
        assert fisher.single_frequency_information(sigma0, h0) == pytest.approx(
            j1_term / h0, rel=1e-12
        )


def test_efficiency_bound_values():
    assert fisher.efficiency_bound(1.0) == 0.125
    assert fisher.efficiency_bound(2.0) == pytest.approx(1 / 64, abs=1e-18)


def test_riemann_limit_of_information_sum():
    # h0^{-1}-spaced Riemann sum approaches int_0^inf dx / (2 (pi^2 x^2 + s^2)^2)
    h0 = 1e4
    val = fisher.block_information_partial(1.0, h0, 10**6) / h0
    assert abs(val - 0.125) < 1e-4


def test_query_validation():
    with pytest.raises(ValueError):
        fisher.block_information(-1.0, 1.0)
    with pytest.raises(ValueError):
        fisher.block_information(1.0, 0.0)
    with pytest.raises(ValueError):
        fisher.block_information_partial(-1.0, 1.0)
    with pytest.raises(ValueError):
        fisher.block_information_partial(1.0, 0.0)
    with pytest.raises(ValueError):
        fisher.single_frequency_information(0.0, 1.0)
