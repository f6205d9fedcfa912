"""Spot curve estimation and the weighted integrated-volatility estimator.

The spot estimator averages per-block unbiased variance proxies over a
window.  For oracle coefficients the proxy is the familiar
(pi^2 y^2 - pi^2 eps^2) / h^2; for discrete coefficients the proxy divides
out the block's exact signal factor and subtracts its exact noise level
(block_normalizers), so the per-block expectation is sigma^2(kh) without a
discretization bias.  Both reduce to the same display when h = eps and the
cell count per block grows.

The integrated-volatility estimator combines all frequencies per block with
the inverse-square-variance weights

    w_j(s2) = (s2 + pi^2 j^2 / h0^2)^{-2} / sum_l (s2 + pi^2 l^2 / h0^2)^{-2}

evaluated at a clipped plug-in spot curve, subtracting the noise level
eps^2 = delta^2/n from each squared coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, volmodel
from .simulate import BlockGrid, ConfigurationError, SpectralCoefficients
from .volmodel import VolatilitySpec


class EmptyWindowError(ValueError):
    pass


@dataclass(frozen=True)
class SpotCurve:
    grid_points: np.ndarray
    estimates: np.ndarray     # clipped at clip_floor
    bandwidth: float
    clip_floor: float

    def __post_init__(self):
        gp = np.asarray(self.grid_points, dtype=np.float64)
        est = np.asarray(self.estimates, dtype=np.float64)
        if gp.shape != est.shape or gp.ndim != 1:
            raise ValueError("grid_points and estimates must be 1-d arrays of equal length")
        if np.any(est < self.clip_floor):
            raise ValueError("estimates must be clipped at clip_floor")
        gp.setflags(write=False)
        est.setflags(write=False)
        object.__setattr__(self, "grid_points", gp)
        object.__setattr__(self, "estimates", est)


@dataclass(frozen=True)
class IVEstimate:
    value: float
    target: Optional[float]
    avar_hat: float

    def __post_init__(self):
        if not self.avar_hat > 0:
            raise ValueError(f"avar_hat must be positive, got {self.avar_hat}")


def block_proxies(coeffs: SpectralCoefficients, n: int, delta: float) -> np.ndarray:
    """Per-block unbiased variance proxies from the first-frequency row."""
    y1 = coeffs.y[0]
    K = coeffs.grid.K
    if coeffs.source == "from-observations":
        s, nu = _kernels.block_normalizers(n, K, float(delta), 1)
        return (y1 ** 2 - nu) / s
    eps2 = coeffs.eps ** 2
    h = coeffs.grid.h
    return np.pi ** 2 * (y1 ** 2 - eps2) / h ** 2


def spot_estimate(
    coeffs: SpectralCoefficients,
    n: int,
    delta: float,
    b: float,
    t_grid,
    clip_floor: float = 1e-4,
) -> SpotCurve:
    """Windowed spot variance curve from first-frequency coefficients.

    At each t the proxies of blocks with |kh - t| <= b are averaged with the
    actual block count (windows truncate at the boundary), then clipped below
    at clip_floor.

    The clip biases the curve upward where sigma^2 is low and the windows
    are noisy.  With the design of configs/spot.json (1 + 0.5 sin 2 pi t,
    n = 2^16, spot grid h/eps = 1, b = 0.2) about 7% of the window means near
    t = 0.73 fall below 0, and clipping them raises the mean curve there by
    5.8% of sigma^2; the unclipped window means are unbiased.
    """
    if not delta > 0:
        raise ValueError("delta must be positive (the grid degenerates at delta = 0)")
    h = coeffs.grid.h
    if b < h:
        raise ValueError(f"bandwidth b={b} must be at least the block width h={h}")
    K = coeffs.grid.K
    proxies = block_proxies(coeffs, n, delta)
    prefix = np.concatenate([[0.0], np.cumsum(proxies)])
    t_grid = np.asarray(t_grid, dtype=np.float64)
    k_lo = np.maximum(np.ceil((t_grid - b) / h - 1e-12), 0)
    k_hi = np.minimum(np.floor((t_grid + b) / h + 1e-12), K - 1)
    empty = ~(k_hi >= k_lo)
    if np.any(empty):
        t = t_grid[np.argmax(empty)]
        raise EmptyWindowError(f"no blocks within distance {b} of t={t}")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    est = (prefix[k_hi + 1] - prefix[k_lo]) / (k_hi - k_lo + 1)
    return SpotCurve(
        grid_points=t_grid,
        estimates=np.maximum(est, clip_floor),
        bandwidth=float(b),
        clip_floor=float(clip_floor),
    )


def frequency_weight_matrix(sigma2_blocks: np.ndarray, h0: float, J: int) -> np.ndarray:
    """(J, K) weight matrix over frequencies for each block's variance level."""
    sigma2_blocks = np.asarray(sigma2_blocks, dtype=np.float64)
    if np.any(sigma2_blocks <= 0):
        raise ValueError("all block variance levels must be positive; clip the spot curve first")
    js = np.arange(1, J + 1, dtype=np.float64)
    inv = (sigma2_blocks[None, :] + (np.pi ** 2 * js ** 2 / h0 ** 2)[:, None]) ** -2.0
    return inv / inv.sum(axis=0, keepdims=True)


def integrated_volatility_estimate(
    coeffs: SpectralCoefficients,
    spot: SpotCurve,
    grid: BlockGrid,
    delta: float,
    n: int,
    true_spec: Optional[VolatilitySpec] = None,
    noise_convention: str = "eps2",
) -> IVEstimate:
    """Weighted multi-frequency estimator of int_0^1 sigma^2.

    value = sum_k h sum_j w_j(spot_k) * pi^2 j^2 / h^2 * (y_jk^2 - delta^2/n).
    noise_convention must be "eps2", the noise level delta^2/n.  avar_hat is
    8 delta int sigma_hat^3 evaluated on the clipped spot curve.
    """
    if coeffs.grid != grid:
        raise ConfigurationError("coefficients were computed on a different grid")
    if spot.grid_points.size != grid.K or not np.allclose(
        spot.grid_points, np.arange(grid.K) * grid.h, atol=1e-9
    ):
        raise ConfigurationError("spot curve must be evaluated at the grid block positions")
    if noise_convention != "eps2":
        raise ValueError(f"unknown noise convention {noise_convention!r}")
    h, J = grid.h, grid.J
    W = frequency_weight_matrix(spot.estimates, grid.h0, J)
    cj = (np.pi ** 2 / h ** 2) * np.arange(1, J + 1, dtype=np.float64) ** 2
    per_block = np.einsum("jk,j,jk->k", W, cj, coeffs.y ** 2 - delta ** 2 / n)
    value = h * float(np.sum(per_block))
    # the spot estimates at the K block positions, one equal-width block each
    avar = asymptotic_variance(volmodel.PiecewiseConstant(tuple(spot.estimates)), delta)
    target = volmodel.integrated_power(true_spec, 2) if true_spec is not None else None
    return IVEstimate(value=value, target=target, avar_hat=avar)


def asymptotic_variance(spec: VolatilitySpec, delta: float) -> float:
    """8 delta int_0^1 sigma^3(t) dt, the efficient asymptotic variance."""
    return 8.0 * delta * volmodel.integrated_power(spec, 3)
