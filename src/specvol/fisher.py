"""Fisher information of the block Gaussian scale family, in closed form.

One block carries independent centered Gaussians with variances
theta + pi^2 j^2 / h0^2 over frequencies j >= 1.  The information for theta
sums squared inverse variances; the sum collapses to an explicit expression
through the identity

    sum_{j>=1} lam^3 / (lam^2 + pi^2 j^2)^2
        = (1 + 4 lam e^{-2 lam} - e^{-4 lam}) / (4 (1 - e^{-2 lam})^2) - 1/(2 lam)

with lam = sqrt(theta) * h0.  block_information_partial sums the information
series directly; the brute-force partial sum of the identity and its tail
bound, which check scale_series_closed, live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

# Below this the closed form loses ~6 digits to cancellation (the numerator is
# O(lam^6) assembled from O(lam^2) pieces); the alternating zeta series
# converges geometrically at rate (lam/pi)^2 and takes over.
_SERIES_CUTOFF = 0.5


def _series_small(lam: float) -> float:
    from scipy.special import zeta  # deferred: importing scipy costs most of a CLI start
    total = 0.0
    m = 0
    while True:
        term = (m + 1) * (-1) ** m * zeta(2 * m + 4) * lam ** (2 * m + 3) / np.pi ** (2 * m + 4)
        total += term
        if abs(term) <= 1e-17 * abs(total) or m > 80:
            return total
        m += 1


def scale_series_closed(lam: float) -> float:
    """sum_{j>=1} lam^3/(lam^2 + pi^2 j^2)^2, numerically stable for all lam > 0."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam < _SERIES_CUTOFF:
        return float(_series_small(lam))
    d = -np.expm1(-2.0 * lam)  # 1 - e^{-2 lam}
    q = np.exp(-2.0 * lam)
    return float((1.0 + 4.0 * lam * q - q * q) / (4.0 * d * d) - 1.0 / (2.0 * lam))


def block_information(theta: float, h0: float) -> float:
    """I(theta) = sum_j 1 / (2 (theta + pi^2 j^2 / h0^2)^2), closed form.

    Grows like h0 / (8 theta^{3/2}) as h0 -> infinity.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not h0 > 0:
        raise ValueError(f"h0 must be positive, got {h0}")
    lam = np.sqrt(theta) * h0
    # theta + pi^2 j^2 / h0^2 = (lam^2 + pi^2 j^2) / h0^2
    return float(h0 ** 4 / (2.0 * lam ** 3) * scale_series_closed(lam))


def block_information_partial(theta: float, h0: float, jmax: int = 10 ** 6) -> float:
    """Brute-force sum of the information series to jmax."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not h0 > 0:
        raise ValueError(f"h0 must be positive, got {h0}")
    j = np.arange(1, jmax + 1, dtype=np.float64)
    return float(np.sum(0.5 / (theta + np.pi ** 2 * j ** 2 / h0 ** 2) ** 2))


def single_frequency_information(sigma0: float, h0: float) -> float:
    """Information carried by the first frequency alone per unit noise budget:
    (2 h0)^{-1} h0^4 / (pi^2 + h0^2 sigma0^2)^2."""
    if not (sigma0 > 0 and h0 > 0):
        raise ValueError("sigma0 and h0 must be positive")
    return float(h0 ** 4 / (2.0 * h0 * (np.pi ** 2 + h0 ** 2 * sigma0 ** 2) ** 2))


def optimal_single_frequency_ratio(sigma0: float) -> float:
    """argmax over h0 of single_frequency_information: sqrt(3) pi / sigma0."""
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    return float(np.sqrt(3.0) * np.pi / sigma0)


def efficiency_bound(sigma0: float) -> float:
    """The parametric information bound sigma0^{-3} / 8."""
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    return 0.125 / sigma0 ** 3
