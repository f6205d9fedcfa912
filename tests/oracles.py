"""Reference implementations that check the closed forms of specvol.

The localized basis of the block transform and its antiderivative, evaluated
pointwise, the exact cell integral and the coefficients built from it, and
the brute-force partial sum of the Fisher series identity with a bound on its
dropped tail.  No command or estimator calls these; the tests
compare specvol.spectral and specvol.fisher against them.
"""

import numpy as np


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


def cell_oracle(dY, K, J):
    """Coefficients y[j-1, k] of the increments dY, frequencies 1..J on K blocks:
    the per-cell weights -n * antiderivative_integral, vectorised over (j, k, i)."""
    n = dY.size
    h = 1.0 / K
    j = np.arange(1, J + 1, dtype=np.float64)[:, None, None]
    k = np.arange(K)[None, :, None]
    edges = np.arange(n + 1) / n
    lo = np.clip(edges[:-1], k * h, (k + 1) * h)
    hi = np.clip(edges[1:], k * h, (k + 1) * h)
    c = np.sqrt(2.0 * h) * h / (np.pi ** 2 * j ** 2)
    w = n * c * (np.cos(j * np.pi * (hi - k * h) / h) - np.cos(j * np.pi * (lo - k * h) / h))
    return w @ dY


def scale_series_partial(lam: float, jmax: int = 10 ** 6) -> float:
    """Brute-force partial sum to jmax; independent check of the closed form."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    j = np.arange(1, jmax + 1, dtype=np.float64)
    return float(np.sum(lam ** 3 / (lam ** 2 + np.pi ** 2 * j ** 2) ** 2))


def scale_series_tail_bound(lam: float, jmax: int) -> float:
    """Upper bound on the dropped tail of the partial sum: lam^3/(3 pi^4 jmax^3)."""
    return lam ** 3 / (3.0 * np.pi ** 4 * jmax ** 3)
