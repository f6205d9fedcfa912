"""Correctness checks of the benchmark, written without specvol.

Every check takes plain numbers or arrays and returns a list of problems,
empty when the check passes, so that the self-test can feed it corrupted
outputs.  Each reference is an independent computation (closed forms written
here, a direct per-cell sum, a log-determinant) or a property the method must
have (the CLT law of the IV estimator, unbiasedness, the Hellinger upper
bound, the decay rate).  None compares against stored output.

Statistical checks use Z = 5 standard errors, so a correct program fails one
of them with probability below about 1e-6 per check; a check of many means
raises the threshold so that the whole check keeps that level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import stats
from scipy.integrate import quad

Z = 5.0
CHI2_LEVEL = 1e-6          # two-sided false-alarm level of the variance interval
COEFF_RTOL = 1e-9
SLOPE_BIAS = 0.03          # finite-n allowance of the IV rate slope around -1/4
DECAY_SLOPE_MAX = -1.7


# ---------------------------------------------------------------- closed forms

def sinusoid_a(base, amplitude, cycles, phase, t):
    """a(t) = int_0^t sigma^2 for sigma^2 = base + amplitude sin(2 pi cycles t + phase)."""
    w = 2.0 * math.pi * cycles
    t = np.asarray(t, dtype=np.float64)
    return base * t - amplitude * (np.cos(w * t + phase) - math.cos(phase)) / w


def sinusoid_a_reflected(base, amplitude, cycles, phase, t):
    """a on [0, 2] with the reflection a(1 + s) = a(1 - s)."""
    t = np.asarray(t, dtype=np.float64)
    return sinusoid_a(base, amplitude, cycles, phase, np.where(t > 1.0, 2.0 - t, t))


def sinusoid_A(base, amplitude, cycles, phase, t):
    """A(t) = int_0^t a on [0, 2], using A(1 + s) = 2 A(1) - A(1 - s)."""
    w = 2.0 * math.pi * cycles

    def unit(x):
        return (base * x * x / 2.0
                - amplitude * (np.sin(w * x + phase) - math.sin(phase)) / w ** 2
                + amplitude * math.cos(phase) * x / w)

    t = np.asarray(t, dtype=np.float64)
    return np.where(t <= 1.0, unit(np.minimum(t, 1.0)), 2.0 * unit(1.0) - unit(2.0 - np.maximum(t, 1.0)))


def coupling_covariances(base, amplitude, cycles, phase, n, delta):
    """The raw and midpoint-averaged record covariances of the sinusoid."""
    k = np.arange(1, n + 1)
    raw = sinusoid_a(base, amplitude, cycles, phase, k / n)
    lo, hi = (2 * k - 1) / (2 * n), (2 * k + 1) / (2 * n)
    mid = n * (sinusoid_A(base, amplitude, cycles, phase, hi) - sinusoid_A(base, amplitude, cycles, phase, lo))
    m = np.minimum.outer(np.arange(n), np.arange(n))
    noise = delta ** 2 * np.eye(n)
    return raw[m] + noise, mid[m] + noise


@lru_cache(maxsize=4)
def pieces(n, K):
    """Cell, block and block-relative ends u of the pieces of [0, 1] cut at cell and block edges.

    The pieces run left to right, so those of one block are consecutive, and a
    cell has at most one piece in a block.
    """
    edges = np.unique(np.concatenate([np.arange(n + 1) / n, np.arange(K + 1) / K]))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    cell = np.minimum((mid * n).astype(np.int64), n - 1)
    block = np.minimum((mid * K).astype(np.int64), K - 1)
    return cell, block, lo * K - block, hi * K - block


def piece_weights(n, K, j):
    """The weight of the increment Y_i - Y_{i-1} (Y_0 = 0) in y[j-1, k], per piece.

    It is -n times the exact integral of the block antiderivative
    sqrt(2h)/(pi j) sin(j pi (t - kh)/h) over the piece.
    """
    _, _, u_lo, u_hi = pieces(n, K)
    h = 1.0 / K
    return n * math.sqrt(2.0 * h) * h / (math.pi ** 2 * j ** 2) * (
        np.cos(j * math.pi * u_hi) - np.cos(j * math.pi * u_lo))


def direct_coefficients(values, K, J):
    """Block coefficients y[j-1, k] of a record by a direct per-cell sum."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    cell, block, _, _ = pieces(n, K)
    d = np.diff(values, prepend=0.0)[cell]
    y = np.empty((J, K))
    for j in range(1, J + 1):
        y[j - 1] = np.bincount(block, weights=piece_weights(n, K, j) * d, minlength=K)
    return y


@lru_cache(maxsize=4)
def first_frequency(n, K, delta):
    """The piece weights w of y_1, and (s, nu) with E[y_1k^2] = s_k sigma^2 + nu_k
    when sigma^2 is constant near block k.

    s_k sums the squared weights times the cell variance 1/n.  The noise term
    comes from summation by parts: y_k = sum_i c_i (eps_i - eps_{i-1}) with
    eps_0 = 0, so eps_i weighs c_i - c_{i+1}, and the cell before the block's
    first one weighs -c_first.
    """
    cell, block, _, _ = pieces(n, K)
    w = piece_weights(n, K, 1)
    same = block[1:] == block[:-1]
    following = np.append(np.where(same, w[1:], 0.0), 0.0)
    first = np.insert(~same, 0, True)
    lead = np.where(first & (cell > 0), w, 0.0)
    s = np.bincount(block, weights=w * w, minlength=K) / n
    nu = delta ** 2 * np.bincount(block, weights=(w - following) ** 2 + lead ** 2, minlength=K)
    return w, s, nu


def window_blocks(t_grid, b, K):
    """First and last block k with |k/K - t| <= b, per t."""
    h = 1.0 / K
    t_grid = np.asarray(t_grid, dtype=np.float64)
    k_lo = np.maximum(0, np.ceil((t_grid - b) / h - 1e-12)).astype(np.int64)
    k_hi = np.minimum(K - 1, np.floor((t_grid + b) / h + 1e-12)).astype(np.int64)
    return k_lo, k_hi


def spot_windows(values, K, delta, b, t_grid):
    """The unclipped spot curve: window means of the unbiased first-frequency block proxies."""
    values = np.asarray(values, dtype=np.float64)
    cell, block, _, _ = pieces(values.size, K)
    w, s, nu = first_frequency(values.size, K, float(delta))
    y1 = np.bincount(block, weights=w * np.diff(values, prepend=0.0)[cell], minlength=K)
    prefix = np.concatenate([[0.0], np.cumsum((y1 * y1 - nu) / s)])
    k_lo, k_hi = window_blocks(t_grid, b, K)
    return (prefix[k_hi + 1] - prefix[k_lo]) / (k_hi - k_lo + 1)


def window_average(a, t_grid, b, K):
    """Mean of sigma^2 over the blocks k with |k/K - t| <= b, from a(t)."""
    h = 1.0 / K
    k_lo, k_hi = window_blocks(t_grid, b, K)
    return (a((k_hi + 1) * h) - a(k_lo * h)) / ((k_hi - k_lo + 1) * h)


def hellinger2_logdet(cov_p, cov_q):
    """H^2 = 2 (1 - BC) with log BC from three Cholesky log-determinants."""
    def logdet(c):
        return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(c)))))

    ld_p, ld_q, ld_avg = logdet(cov_p), logdet(cov_q), logdet(0.5 * (cov_p + cov_q))
    log_bc = 0.25 * ld_p + 0.25 * ld_q - 0.5 * ld_avg
    # log BC is a difference of log-determinants, each rounded to a few ulps of |ld|
    err = 4.0 * np.finfo(float).eps * (abs(ld_p) + abs(ld_q) + 2.0 * abs(ld_avg))
    return -2.0 * math.expm1(log_bc), 2.0 * err


def loglog_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------- checks

def relative_error(reference, program):
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(reference - program)) / np.max(np.abs(reference)))


def coefficients(direct, program, what):
    rel = relative_error(direct, program)
    if not rel <= COEFF_RTOL:
        return [f"{what}: block_coefficients differs from the direct sum by {rel:.2e} relative"]
    return []


def rebuilt_curve(rel, what):
    if not rel <= COEFF_RTOL:
        return [f"{what}: spot_estimate differs from the curve rebuilt from the direct sum by {rel:.2e} relative"]
    return []


def rebuilt_iv(reference, program, what):
    rel = abs(reference - program) / abs(reference)
    if not rel <= COEFF_RTOL:
        return [f"{what}: IV value differs from the one rebuilt from the direct sum by {rel:.2e} relative"]
    return []


def clt(iv_values, n, target_iv, target_avar):
    """n^{1/4}(IV - int sigma^2) must have mean 0 and variance 8 delta int sigma^3."""
    scaled = n ** 0.25 * (np.asarray(iv_values, dtype=np.float64) - target_iv)
    m = scaled.size
    problems = []
    if m < 2:
        return [f"clt: need at least two replications, got {m}"]
    lo, hi = stats.chi2.ppf([CHI2_LEVEL / 2, 1 - CHI2_LEVEL / 2], m - 1) / (m - 1) * target_avar
    var = float(np.var(scaled, ddof=1))
    if not lo <= var <= hi:
        problems.append(f"clt: variance {var:.4f} outside [{lo:.4f}, {hi:.4f}] at {m} replications")
    se = math.sqrt(target_avar / m)
    mean = float(np.mean(scaled))
    if not abs(mean) <= Z * se:
        problems.append(f"clt: mean {mean:.4f} beyond {Z:g} standard errors ({se:.4f})")
    return problems


def rate_slope(n_values, rmse, replications):
    """log RMSE against log n has slope -1/4, within a band sized for the replications.

    With Gaussian errors log RMSE has standard deviation about 1/sqrt(2m).
    """
    x = np.log(np.asarray(n_values, dtype=np.float64))
    sd = 1.0 / math.sqrt(2.0 * replications) / math.sqrt(float(np.sum((x - x.mean()) ** 2)))
    slope = loglog_slope(n_values, rmse)
    half = SLOPE_BIAS + Z * sd
    if not abs(slope + 0.25) <= half:
        return [f"rate: IV slope {slope:.4f} outside -0.25 +- {half:.4f} at {replications} replications"]
    return []


def spot_falls(n_values, sup_errors):
    slope = loglog_slope(n_values, sup_errors)
    if not (slope < 0 and sup_errors[-1] < sup_errors[0]):
        return [f"rate: spot sup-error does not fall with n: {list(np.round(sup_errors, 4))}"]
    return []


def identical(pool, serial, what):
    if pool != serial:
        return [f"{what}: serial recomputation differs from the pool: {pool} vs {serial}"]
    return []


def mean_matches(samples, expected, what):
    """Each sample mean lies within z standard errors (from the sample) of its expectation.

    z is Z for one mean.  For several it is the Bonferroni threshold that keeps
    the false-alarm level of the whole check at that of one Z test.
    """
    samples = np.asarray(samples, dtype=np.float64)
    m = samples.shape[0]
    se = np.std(samples, axis=0, ddof=1) / math.sqrt(m)
    dev = np.abs(np.mean(samples, axis=0) - expected)
    z = float(stats.norm.isf(stats.norm.sf(Z) / dev.size))
    bad = ~(dev <= z * se)
    if np.any(bad):
        worst = int(np.argmax(dev / se))
        return [f"{what}: {int(bad.sum())} of {bad.size} means beyond {z:.2f} standard errors "
                f"(worst {float(dev.flat[worst] / se.flat[worst]):.1f})"]
    return []


def hellinger(h2, reference, tol, n):
    if not abs(h2 - reference) <= tol:
        return [f"decay n={n}: H^2 {h2:.6e} differs from the log-determinant {reference:.6e} by more than {tol:.1e}"]
    return []


def below_bound(h2, bound, n):
    if not h2 <= bound:
        return [f"decay n={n}: H^2 {h2:.6e} above its upper bound {bound:.6e}"]
    return []


def decay_slope(n_values, h2_values, program_slope):
    slope = loglog_slope(n_values, h2_values)
    problems = []
    if not slope <= DECAY_SLOPE_MAX:
        problems.append(f"decay: log H^2 slope {slope:.3f} above {DECAY_SLOPE_MAX}")
    if not abs(program_slope - slope) <= 1e-9:
        problems.append(f"decay: reported slope {program_slope:.6f} differs from the fitted {slope:.6f}")
    return problems


def entries(program, reference, what):
    rel = relative_error(reference, np.asarray(program))
    if not rel <= 1e-12:
        return [f"{what}: covariance entries differ from the closed form by {rel:.2e} relative"]
    return []


def midpoint_entry(base, amplitude, cycles, phase, n, m):
    """n * int_{(2m-1)/2n}^{(2m+1)/2n} a(t) dt by adaptive quadrature (no delta^2 term)."""
    val, _ = quad(lambda t: float(sinusoid_a_reflected(base, amplitude, cycles, phase, t)),
                  (2 * m - 1) / (2 * n), (2 * m + 1) / (2 * n), epsabs=1e-15, epsrel=1e-14)
    return n * val
