"""Reference implementations that check the closed forms of specvol.

The localized basis of the block transform and its antiderivative, evaluated
pointwise, the exact cell integral and the coefficients built from it, and
the brute-force partial sum of the Fisher series identity with a bound on its
dropped tail, and the scalar pivot loops of the O(n) Hellinger pair.  No
command or estimator calls these; the tests compare specvol.spectral,
specvol.fisher and specvol.equivalence against them.
"""

import math

import numpy as np

from specvol.equivalence import NotPositiveDefiniteError


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


def min_form_recursion(dc1, dc2, delta: float) -> tuple:
    """(H^2, 2 ||E||_HS^2) of equivalence.hellinger_min_form, one scalar step per
    pivot: a forward pass for the pivots p, the shifts s(1), s(1/2) and their
    second difference u, and a backward pass for the pivots q and the bound."""
    dc1 = np.asarray(dc1, dtype=np.float64)
    dc2 = np.asarray(dc2, dtype=np.float64)
    if dc1.ndim != 1 or dc1.shape != dc2.shape or dc1.size < 1:
        raise ValueError(f"incompatible increments: shapes {dc1.shape} and {dc2.shape}")
    n = dc1.size
    d2 = delta ** 2
    d4 = d2 * d2
    diag = dc1 + np.where(np.arange(n) == 0, d2, 2.0 * d2)
    a, d = diag.tolist(), (dc2 - dc1).tolist()

    # forward pass: pivots p of A_0, shifts s(1), s(1/2) and u = s(1) - 2 s(1/2)
    pivots, terms = [0.0] * n, [0.0] * n
    for k in range(n):
        if k == 0:
            p, s1, sh, u = a[0], d[0], 0.5 * d[0], 0.0
        else:
            c = d4 / p
            f1, fh = p + s1, p + sh
            # one tuple assignment: the right side reads step k - 1 throughout
            p, s1, sh, u = (a[k] - c, d[k] + c * s1 / f1, 0.5 * d[k] + c * sh / fh,
                            c * (p * u - s1 * sh) / (f1 * fh))
        if not (p > 0.0 and p + s1 > 0.0 and p + sh > 0.0):
            raise NotPositiveDefiniteError(
                f"covariance is not positive definite: pivot {k + 1} of {n} is {p:.3e} "
                f"(first), {p + s1:.3e} (second), {p + sh:.3e} (average)"
            )
        r = sh / p
        pivots[k] = p
        terms[k] = (u / p - r * r) / ((1.0 + r) * (1.0 + r))
    h2 = -2.0 * math.expm1(0.25 * float(np.sum(np.log1p(terms))))

    # backward pass: pivots q, g_j^2 and tail = sum_{i>j} d_i g_i^2 prod_{k=j}^{i-1} delta^4/p_k^2
    frob = q = tail = 0.0
    for j in range(n - 1, -1, -1):
        q = a[j] if j == n - 1 else a[j] - d4 / q
        g2 = 1.0 / (pivots[j] + q - a[j]) ** 2
        frob += d[j] * (d[j] * g2 + 2.0 * tail)
        if j > 0:
            tail = d4 / pivots[j - 1] ** 2 * (d[j] * g2 + tail)
    return max(h2, 0.0), 2.0 * frob
