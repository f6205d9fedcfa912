"""Fisher information of the block Gaussian scale family, in closed form.

One block carries independent centered Gaussians with variances
theta + pi^2 j^2 / h0^2 over frequencies j >= 1.  The information for theta
sums squared inverse variances; the sum collapses to an explicit expression
through the identity

    sum_{j>=1} lam^3 / (lam^2 + pi^2 j^2)^2
        = (1 + 4 lam e^{-2 lam} - e^{-4 lam}) / (4 (1 - e^{-2 lam})^2) - 1/(2 lam)

with lam = sqrt(theta) * h0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

# Below this the closed form loses ~6 digits to cancellation (the numerator is
# O(lam^6) assembled from O(lam^2) pieces); the alternating zeta series
# converges geometrically at rate (lam/pi)^2 and takes over.
_SERIES_CUTOFF = 0.5


@dataclass(frozen=True)
class FisherQuery:
    theta: float
    h0: float
    jmax: int = 10 ** 6

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.h0 > 0:
            raise ValueError(f"h0 must be positive, got {self.h0}")


def _series_small(lam: float) -> float:
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


def scale_series_partial(lam: float, jmax: int = 10 ** 6) -> float:
    """Brute-force partial sum to jmax; independent check of the closed form."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    j = np.arange(1, jmax + 1, dtype=np.float64)
    return float(np.sum(lam ** 3 / (lam ** 2 + np.pi ** 2 * j ** 2) ** 2))


def scale_series_tail_bound(lam: float, jmax: int) -> float:
    """Upper bound on the dropped tail of the partial sum: lam^3/(3 pi^4 jmax^3)."""
    return lam ** 3 / (3.0 * np.pi ** 4 * jmax ** 3)


def block_information(theta: float, h0: float) -> float:
    """I(theta) = sum_j 1 / (2 (theta + pi^2 j^2 / h0^2)^2), closed form.

    Grows like h0 * / (8 theta^{3/2}) as h0 -> infinity.
    """
    q = FisherQuery(theta=theta, h0=h0)
    lam = np.sqrt(q.theta) * q.h0
    # theta + pi^2 j^2 / h0^2 = (lam^2 + pi^2 j^2) / h0^2
    return float(q.h0 ** 4 / (2.0 * lam ** 3) * scale_series_closed(lam))


def block_information_partial(theta: float, h0: float, jmax: int = 10 ** 6) -> float:
    """Brute-force sum of the information series to jmax."""
    q = FisherQuery(theta=theta, h0=h0, jmax=jmax)
    j = np.arange(1, q.jmax + 1, dtype=np.float64)
    return float(np.sum(0.5 / (q.theta + np.pi ** 2 * j ** 2 / q.h0 ** 2) ** 2))


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
