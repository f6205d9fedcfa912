"""Block trigonometric system and discrete spectral coefficients.

The analysis system on block k of width h is the L2-normalized cosine

    basis_cos(j,k,h,t) = sqrt(2/h) * cos(j*pi*(t-kh)/h)   on [kh, (k+1)h]

whose antiderivative vanishing at the block edges is

    basis_antiderivative(j,k,h,t) = sqrt(2h)/(pi*j) * sin(j*pi*(t-kh)/h).

The discrete coefficient of an observation record is the antiderivative
integrated exactly against the slope of the linearly interpolated data
(Y_0 := 0): per observation cell this weights the increment Y_i - Y_{i-1}
by -n * int_cell basis_antiderivative.  The pointwise basis and
antiderivative, and the exact cell integral, live in tests/oracles.py as the
reference implementations the transform is checked against.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .simulate import BlockGrid, ConfigurationError, ObservationSet, SpectralCoefficients


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
