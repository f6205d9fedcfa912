import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specvol import estimators as est
from specvol import volmodel as vm
from specvol.simulate import (
    BlockGrid,
    ConfigurationError,
    ObservationSet,
    draw_exact_coefficients,
    simulate_observations,
)
from specvol.spectral import block_coefficients

SINUSOID_P3 = 1.0474613806590203  # frozen 1e7-point Riemann value of int sigma^3


def oracle_spot(grid, values):
    return est.SpotCurve(
        grid_points=np.arange(grid.K) * grid.h,
        estimates=np.asarray(values, dtype=float),
        bandwidth=grid.h,
        clip_floor=1e-4,
    )


# ---------------------------------------------------------------- spot curve

def test_spot_oracle_unbiased():
    # oracle coefficients at h = eps: proxy mean over grid and replications ~ sigma^2
    # (clipping disabled: the unbiasedness claim is about the raw window averages)
    eps = 1.0 / 64
    grid = BlockGrid(K=64, J=1, eps=eps)
    reps, t_grid = 500, np.linspace(0.0, 1.0, 17)
    means = np.empty(reps)
    for r in range(reps):
        coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=(3 << 32) ^ r)
        curve = est.spot_estimate(coeffs, n=4096, delta=64 / np.sqrt(4096) * eps * 64,
                                  b=0.5, t_grid=t_grid, clip_floor=-np.inf)
        means[r] = curve.estimates.mean()
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(means.mean() - 1.0) < 3 * se


def test_spot_discrete_unbiased():
    # discrete coefficients: exact normalizers keep the proxies centered
    n, delta = 2**14, 0.1
    eps = delta / np.sqrt(n)
    grid = BlockGrid(K=round(1 / eps), J=1, eps=eps)
    reps = 200
    means = np.empty(reps)
    for r in range(reps):
        obs = simulate_observations(vm.Constant(1.0), n, delta, seed=(41 << 32) ^ r)
        curve = est.spot_estimate(block_coefficients(obs, grid), n, delta, 0.3,
                                  np.linspace(0, 1, 9), clip_floor=-np.inf)
        means[r] = curve.estimates.mean()
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(means.mean() - 1.0) < 3 * se


def test_spot_validation():
    eps = 0.125
    grid = BlockGrid(K=8, J=1, eps=eps)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=0)
    with pytest.raises(ValueError, match="delta"):
        est.spot_estimate(coeffs, 64, 0.0, 0.25, [0.5])
    with pytest.raises(ValueError, match="bandwidth"):
        est.spot_estimate(coeffs, 64, 1.0, 0.05, [0.5])
    with pytest.raises(est.EmptyWindowError, match="t=9.0"):
        est.spot_estimate(coeffs, 64, 1.0, 0.2, [9.0])


def loop_spot_means(proxies, h, b, t_grid):
    """The per-t window loop that spot_estimate replaced, written out."""
    K = proxies.size
    prefix = np.concatenate([[0.0], np.cumsum(proxies)])
    est_ = np.empty(len(t_grid))
    for idx, t in enumerate(t_grid):
        k_lo = max(0, int(np.ceil((t - b) / h - 1e-12)))
        k_hi = min(K - 1, int(np.floor((t + b) / h + 1e-12)))
        if k_hi < k_lo:
            raise est.EmptyWindowError(f"no blocks within distance {b} of t={t}")
        est_[idx] = (prefix[k_hi + 1] - prefix[k_lo]) / (k_hi - k_lo + 1)
    return est_


@pytest.mark.parametrize("K", [4, 7, 20, 64, 257, 640, 2560])
def test_spot_windows_match_loop(K):
    eps = 0.01
    grid = BlockGrid(K=K, J=1, eps=eps)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=K)
    proxies = est.block_proxies(coeffs, 4 * K, 1.0)
    h = grid.h
    t_grids = [np.linspace(0.0, 1.0, 257), np.arange(K) * h, np.array([0.0, 0.5 * h, 1.0 - 1e-13, 1.0, 0.37])]
    for b in (h, 1.5 * h, 3 * h, max(h, 0.2), 0.5):
        for t_grid in t_grids:
            curve = est.spot_estimate(coeffs, 4 * K, 1.0, b, t_grid, clip_floor=1e-4)
            want = np.maximum(loop_spot_means(proxies, h, b, t_grid), 1e-4)
            assert np.array_equal(curve.estimates, want)


def test_spot_empty_window_names_first_empty_t():
    grid = BlockGrid(K=8, J=1, eps=0.125)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, 0.125, seed=0)
    with pytest.raises(est.EmptyWindowError, match=r"t=1.5$"):
        est.spot_estimate(coeffs, 64, 1.0, 0.2, [0.5, 1.5, 2.5, -1.0])
    with pytest.raises(est.EmptyWindowError, match=r"t=nan$"):
        est.spot_estimate(coeffs, 64, 1.0, 0.2, [0.5, np.nan])


def test_spot_clipping():
    grid = BlockGrid(K=4, J=1, eps=0.5)
    coeffs = draw_exact_coefficients(vm.Constant(1e-4), grid, 0.5, seed=2)
    # eps large relative to signal: raw proxies go negative, clipping applies
    curve = est.spot_estimate(coeffs, 64, 4.0, 0.3, np.linspace(0, 1, 5), clip_floor=5e-3)
    assert np.all(curve.estimates >= 5e-3)


# ------------------------------------------------------------------- weights

def test_weight_single_frequency():
    assert est.frequency_weight_matrix(np.array([2.0]), 5.0, 1)[0, 0] == 1.0


def test_weight_two_frequency_second_path():
    # direct transcription, independent of the library implementation
    u1, u2 = 1.0 + np.pi**2, 1.0 + 4 * np.pi**2
    expect = u1**-2 / (u1**-2 + u2**-2)
    assert est.frequency_weight_matrix(np.array([1.0]), 1.0, 2)[0, 0] == pytest.approx(expect, rel=1e-14)


def test_weights_decreasing_in_j():
    w = est.frequency_weight_matrix(np.array([1.5]), 8.0, 12)[:, 0]
    assert all(a > b for a, b in zip(w, w[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e-3, 10.0, allow_nan=False),
    st.floats(0.5, 150.0, allow_nan=False),
    st.integers(1, 48),
)
def test_weight_normalization(sigma2, h0, J):
    w = est.frequency_weight_matrix(np.array([sigma2]), h0, J)
    assert abs(w.sum() - 1.0) < 1e-12


def test_weights_require_positive_variance():
    with pytest.raises(ValueError):
        est.frequency_weight_matrix(np.array([0.0]), 5.0, 3)
    with pytest.raises(ValueError):
        est.frequency_weight_matrix(np.array([1.0, -0.3]), 5.0, 3)


def test_weights_lipschitz_property():
    # |w(x) - w(y)| <= C w(x) |x - y| over [0.5, 4]; measured C ~ 2.8
    h0, J = 5.0, 10
    xs = np.linspace(0.5, 4.0, 29)
    for x in xs:
        wx = est.frequency_weight_matrix(np.array([x]), h0, J)[:, 0]
        for y in (0.5, 1.3, 2.9, 4.0):
            wy = est.frequency_weight_matrix(np.array([y]), h0, J)[:, 0]
            assert np.all(np.abs(wx - wy) <= 4.0 * wx * abs(x - y) + 1e-15)


# ------------------------------------------------------- integrated-vol core

def test_iv_oracle_unbiased():
    eps = 0.01
    grid = BlockGrid(K=16, J=64, eps=eps)
    spot = oracle_spot(grid, np.ones(16))
    reps = 2000
    vals = np.empty(reps)
    for r in range(reps):
        coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=(7 << 32) ^ r)
        vals[r] = est.integrated_volatility_estimate(
            coeffs, spot, grid, delta=eps * 4, n=16, true_spec=vm.Constant(1.0),
            noise_convention="eps2",
        ).value
    # delta, n chosen so delta^2/n = eps^2 keeps the subtraction consistent
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_per_block_variance_formula():
    # Var(sum_j w_j c_j (y^2 - eps^2)) = 2 / sum_j u_j^{-2} at the true level
    eps, K, J = 0.01, 4, 50
    grid = BlockGrid(K=K, J=J, eps=eps)
    h0 = grid.h0
    u = 1.0 + np.pi**2 * np.arange(1, J + 1) ** 2 / h0**2
    target = 2.0 / np.sum(u**-2.0)
    w = est.frequency_weight_matrix(np.ones(1), h0, J)[:, 0]
    cj = (np.pi**2 / grid.h**2) * np.arange(1, J + 1) ** 2
    reps = 10**4
    tk = np.empty(reps)
    for r in range(reps):
        coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=(13 << 32) ^ r)
        tk[r] = np.sum(w * cj * (coeffs.y[:, 0] ** 2 - eps**2))
    assert tk.var(ddof=1) == pytest.approx(target, rel=0.05)


def test_truncation_scaling_exponent():
    # E|IV_J - IV_2J|^2 drops like J^{-3}; regression slope near -3
    eps, h0_target = 0.01, 8.0
    K = round(1 / (h0_target * eps))
    Js = [8, 16, 32, 64]
    reps = 2000
    second = []
    for J in Js:
        grid = BlockGrid(K=K, J=2 * J, eps=eps)
        h, h0 = grid.h, grid.h0
        cj = (np.pi**2 / h**2) * np.arange(1, 2 * J + 1) ** 2
        w_lo = est.frequency_weight_matrix(np.ones(K), h0, J)
        w_hi = est.frequency_weight_matrix(np.ones(K), h0, 2 * J)
        diffs = np.empty(reps)
        for r in range(reps):
            co = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=(17 << 32) ^ (r * 7 + J))
            y2 = co.y**2 - eps**2
            lo = h * np.einsum("jk,j,jk->", w_lo, cj[:J], y2[:J])
            hi = h * np.einsum("jk,j,jk->", w_hi, cj, y2)
            diffs[r] = lo - hi
        second.append(np.mean(diffs**2))
    slope = np.polyfit(np.log(Js), np.log(second), 1)[0]
    assert -3.5 < slope < -2.4


def test_iv_grid_mismatch():
    eps = 0.05
    grid = BlockGrid(K=8, J=4, eps=eps)
    other = BlockGrid(K=4, J=4, eps=eps)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=1)
    spot = oracle_spot(other, np.ones(4))
    with pytest.raises(ConfigurationError):
        est.integrated_volatility_estimate(coeffs, spot, other, 0.1, 256)
    with pytest.raises(ConfigurationError):
        est.integrated_volatility_estimate(coeffs, spot, grid, 0.1, 256)


def test_iv_noise_convention_switch():
    eps = 0.05
    grid = BlockGrid(K=4, J=8, eps=eps)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=5)
    spot = oracle_spot(grid, np.ones(4))
    n, delta = 400, 1.0
    a = est.integrated_volatility_estimate(coeffs, spot, grid, delta, n, noise_convention="eps2")
    b = est.integrated_volatility_estimate(coeffs, spot, grid, delta, n)
    assert a.value == b.value
    # the delta/n variant is gone: it is 1/delta times the noise level delta^2/n
    for convention in ("literal", "bogus"):
        with pytest.raises(ValueError, match="unknown noise convention"):
            est.integrated_volatility_estimate(coeffs, spot, grid, delta, n, noise_convention=convention)


def test_plugin_stability():
    # uniform spot perturbation (1+u) moves the estimate by O(u)
    eps = 0.01
    grid = BlockGrid(K=12, J=64, eps=eps)
    coeffs = draw_exact_coefficients(vm.Constant(1.0), grid, eps, seed=9)
    base = est.integrated_volatility_estimate(
        coeffs, oracle_spot(grid, np.ones(12)), grid, 0.04, 16).value
    for u in (-0.1, -0.05, 0.05, 0.1):
        moved = est.integrated_volatility_estimate(
            coeffs, oracle_spot(grid, np.ones(12) * (1 + u)), grid, 0.04, 16).value
        assert abs(moved - base) <= 0.5 * abs(u) * max(1.0, abs(base))


# ------------------------------------------------------------------ baseline

def test_realized_volatility_no_noise():
    reps, n, c = 1000, 256, 1.7
    vals = np.empty(reps)
    for r in range(reps):
        obs = simulate_observations(vm.Constant(c), n, 0.0, seed=(19 << 32) ^ r)
        vals[r] = est.realized_volatility(obs)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - c) < 3 * se


def test_realized_volatility_noise_bias():
    reps, n, delta = 1000, 512, 0.2
    spec = vm.Sinusoid(1, 0.4, 1, 0.5)
    iv = vm.true_integrated_volatility(spec)
    expect = iv + 2 * n * delta**2 - delta**2
    vals = np.empty(reps)
    for r in range(reps):
        obs = simulate_observations(spec, n, delta, seed=(23 << 32) ^ r)
        vals[r] = est.realized_volatility(obs)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - expect) < 3 * se


def test_realized_volatility_deterministic():
    obs = simulate_observations(vm.Constant(1.0), 128, 0.1, seed=3)
    assert est.realized_volatility(obs) == est.realized_volatility(obs)
    with pytest.raises(ValueError):
        est.realized_volatility(ObservationSet(n=1, delta=0.0, values=np.ones(1), seed=0))


# -------------------------------------------------------- asymptotic variance

def test_asymptotic_variance_values():
    assert est.asymptotic_variance(vm.Constant(1.0), 0.1) == pytest.approx(0.8, abs=1e-15)
    assert est.asymptotic_variance(vm.PiecewiseConstant((1.0, 4.0)), 1.0) == pytest.approx(36.0, abs=1e-12)
    got = est.asymptotic_variance(vm.Sinusoid(1, 0.5, 1, 0), 0.1)
    assert got == pytest.approx(0.8 * SINUSOID_P3, abs=1e-9)


def test_asymptotic_variance_of_spot_curve():
    grid = BlockGrid(K=2, J=1, eps=0.1)
    curve = oracle_spot(grid, [1.0, 4.0])
    assert est.asymptotic_variance(curve, 1.0) == pytest.approx(36.0, abs=1e-12)
    with pytest.raises(TypeError):
        est.asymptotic_variance(3.0, 1.0)


def test_efficiency_dominance_jensen():
    spec = vm.PiecewiseConstant((1.0, 4.0))
    quarticity = vm.integrated_power(spec, 4)
    cubed = vm.integrated_power(spec, 3)
    assert quarticity > cubed ** (4 / 3)
