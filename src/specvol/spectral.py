"""Block trigonometric system and discrete spectral coefficients.

The analysis system on block k of width h is the L2-normalized cosine

    basis_cos(j,k,h,t) = sqrt(2/h) * cos(j*pi*(t-kh)/h)   on [kh, (k+1)h]

whose antiderivative vanishing at the block edges is

    basis_antiderivative(j,k,h,t) = sqrt(2h)/(pi*j) * sin(j*pi*(t-kh)/h).

The discrete coefficient of an observation record is the antiderivative
integrated exactly against the slope of the linearly interpolated data
(Y_0 := 0): per observation cell this weights the increment Y_i - Y_{i-1}
by -n * int_cell basis_antiderivative.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .simulate import BlockGrid, ConfigurationError, ObservationSet, SpectralCoefficients


def _in_block(k: int, h: float, t):
    return (t >= k * h) & (t <= (k + 1) * h)


def basis_cos(j: int, k: int, h: float, t):
    """Localized cosine, zero outside [kh, (k+1)h]."""
    if j < 1:
        raise ValueError("frequency j must be >= 1")
    if not (0 <= k < round(1.0 / h)):
        raise ValueError(f"block index k={k} outside the grid")
    ts = np.asarray(t, dtype=float)
    out = np.where(
        _in_block(k, h, ts),
        np.sqrt(2.0 / h) * np.cos(j * np.pi * (ts - k * h) / h),
        0.0,
    )
    return out if out.ndim else float(out)


def basis_antiderivative(j: int, k: int, h: float, t):
    """Antiderivative of basis_cos, vanishing at both block endpoints."""
    if j < 1:
        raise ValueError("frequency j must be >= 1")
    if not (0 <= k < round(1.0 / h)):
        raise ValueError(f"block index k={k} outside the grid")
    ts = np.asarray(t, dtype=float)
    out = np.where(
        _in_block(k, h, ts),
        np.sqrt(2.0 * h) / (np.pi * j) * np.sin(j * np.pi * (ts - k * h) / h),
        0.0,
    )
    return out if out.ndim else float(out)


def antiderivative_integral(j: int, k: int, h: float, a: float, b: float) -> float:
    """Exact integral of basis_antiderivative over [a,b] (support-clipped).

    Closed form: -sqrt(2h) h / (pi^2 j^2) * [cos(j pi (t-kh)/h)]_a^b on the
    intersection with the block.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    lo = max(a, k * h)
    hi = min(b, (k + 1) * h)
    if hi <= lo:
        return 0.0
    u_lo = (lo - k * h) / h
    u_hi = (hi - k * h) / h
    c = np.sqrt(2.0 * h) * h / (np.pi ** 2 * j ** 2)
    return float(-c * (np.cos(j * np.pi * u_hi) - np.cos(j * np.pi * u_lo)))


def block_coefficients(obs: ObservationSet, grid: BlockGrid) -> SpectralCoefficients:
    """Discrete coefficients y[j,k] of an observation record on a grid.

    y[j,k] = sum_i ( -n * int_{(i-1)/n}^{i/n} basis_antiderivative ) (Y_i - Y_{i-1})
    with exact cell integrals and Y_0 = 0.  Requires at least two observation
    cells per block.
    """
    n = obs.n
    if n * grid.h < 2:
        raise ConfigurationError(
            f"need >= 2 observations per block: n*h = {n * grid.h:.3f} with n={n}, K={grid.K}"
        )
    y = _kernels.block_sums(obs.increments(), grid.K, grid.J)
    return SpectralCoefficients(grid=grid, y=y, source="from-observations", eps=obs.eps())
