"""Finite-dimensional Gaussian distances and the coupling covariances.

Both distances between N(mu1, Sigma1) and N(mu2, Sigma2) read one whitening:
the lower Cholesky factor L of Sigma1 and E = L^{-1} (Sigma2 - Sigma1) L^{-T}.
Every root R of Sigma1 = R R^T is L U with U orthogonal, so R^{-1} (Sigma2 -
Sigma1) R^{-T} = U^T E U: the symmetric root Sigma1^{1/2} gives the same
eigenvalues and the same Hilbert-Schmidt norm as L.  hellinger_exact assembles
the distance from the eigenvalues 1 + mu of the whitened second covariance in
log1p/expm1 pieces, so that distances as small as 1e-12 survive in double
precision.  hellinger_upper_bound gives the explicit mean/covariance bound

    H^2 <= 1/4 ||L^{-1} (mu1-mu2)||^2 + 2 ||E||_HS^2

which dominates the exact value in the pure-mean and pure-covariance cases.

The covariance builders reproduce the two Gaussian vectors whose closeness
drives the regression-to-white-noise reduction: the raw observation
covariance a(min(k,l)/n) + delta^2 1(k=l) and its midpoint-averaged twin.

hellinger_decay never builds them.  Both have the form c(min(k,l)) +
delta^2 1(k=l), and the difference map P, (Px)_k = x_k - x_{k-1}, carries such
a matrix to the tridiagonal diag(dc) + delta^2 P P^T, with dc the increments of
c.  Both distances are invariant under that congruence, and the two images
differ only by diag(d), d = dc2 - dc1, so hellinger_min_form works in O(n)
and loops in LAPACK, not in Python.  Four dpttrf calls give the only
nonlinear recursions: the LDL^T pivots of A_t = A_0 + t diag(d) at t = 0, 1/2,
1, and the backward pivots of A_0.  Given the pivots, the shifts of the A_t
pivots, their second difference and the decay of A_0^{-1} obey linear
first-order recursions, four unit lower-bidiagonal solves (dgtsv).  Their
coefficients need the pivots only to relative accuracy and no shift is formed
as a difference of pivots, so no term cancels.  They give H^2 and 2 ||E||_HS^2 =
2 sum_ij d_i d_j (A_0^{-1})_ij^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import volmodel
from .volmodel import ConfigError, VolatilitySpec


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    pass


@dataclass(frozen=True)
class GaussianLaw:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"incompatible shapes: mean {mean.shape}, cov {cov.shape}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise ValueError("covariance must be symmetric within 1e-12")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _whiten(p: GaussianLaw, q: GaussianLaw):
    """L, the lower Cholesky factor of Sigma1, and the whitened difference
    E = L^{-1} (Sigma2 - Sigma1) L^{-T}."""
    from scipy.linalg import cholesky, solve_triangular  # deferred here and below: it costs 0.3 s
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    try:
        L = cholesky(p.cov, lower=True)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(p.cov)
        raise NotPositiveDefiniteError(
            "first covariance is not positive definite: eigenvalue range "
            f"[{eigs.min():.3e}, {eigs.max():.3e}], condition {eigs.max() / max(eigs.min(), 1e-300):.3e}"
        ) from None
    half = solve_triangular(L, q.cov - p.cov, lower=True)
    E = solve_triangular(L, half.T, lower=True)
    return L, 0.5 * (E + E.T)


def hellinger_exact(p: GaussianLaw, q: GaussianLaw) -> float:
    """Hellinger distance H(p, q) in [0, sqrt(2)] between Gaussian laws."""
    _, E = _whiten(p, q)
    mu = np.linalg.eigvalsh(E)   # the whitened second covariance has eigenvalues 1 + mu
    if 1.0 + mu.min() <= 0:
        raise NotPositiveDefiniteError(
            f"second covariance is not positive definite after whitening: "
            f"smallest eigenvalue {1.0 + mu.min():.3e}"
        )
    # log Bhattacharyya coefficient, each eigenvalue term computed cancellation-free:
    # log((1+lam)/(2 sqrt(lam))) = log1p((sqrt(lam)-1)^2 / (2 sqrt(lam))) with lam = 1 + mu,
    # and sqrt(lam) - 1 = mu / (sqrt(lam) + 1) needs no subtraction
    r = np.sqrt(1.0 + mu)
    log_bc = -0.5 * np.sum(np.log1p((mu / (r + 1.0)) ** 2 / (2.0 * r)))
    dmu = q.mean - p.mean
    if np.any(dmu != 0.0):
        from scipy.linalg import cho_factor, cho_solve
        avg = 0.5 * (p.cov + q.cov)
        c, low = cho_factor(avg, lower=True)
        log_bc -= 0.125 * float(dmu @ cho_solve((c, low), dmu))
    h2 = -2.0 * np.expm1(log_bc)
    return float(np.sqrt(max(h2, 0.0)))


def hellinger_upper_bound(p: GaussianLaw, q: GaussianLaw) -> float:
    """Explicit upper bound on H^2; exact-dominating for pure mean or pure
    covariance perturbations."""
    from scipy.linalg import solve_triangular
    L, E = _whiten(p, q)
    z = solve_triangular(L, q.mean - p.mean, lower=True)
    return float(0.25 * (z @ z) + 2.0 * np.sum(E ** 2))


def _observation_levels(spec: VolatilitySpec, n: int) -> np.ndarray:
    """The levels c(m) = a(m/n), m = 1..n, of observation_covariance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return volmodel.cumulative_variance(spec, np.arange(1, n + 1) / n)


def _midpoint_levels(spec: VolatilitySpec, n: int) -> np.ndarray:
    """The levels c(m), m = 1..n, of symmetrized_covariance."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ks = np.arange(1, n + 1)
    lo = (2 * ks - 1) / (2 * n)
    hi = (2 * ks + 1) / (2 * n)
    return n * (
        volmodel.cumulative_variance_antiderivative(spec, hi)
        - volmodel.cumulative_variance_antiderivative(spec, lo)
    )


def _min_form_law(levels: np.ndarray, delta: float) -> GaussianLaw:
    """N(0, c(min(k,l)) + delta^2 1(k=l)) from the levels c."""
    idx = np.arange(levels.size)
    cov = levels[np.minimum.outer(idx, idx)] + delta ** 2 * np.eye(levels.size)
    return GaussianLaw(mean=np.zeros(levels.size), cov=cov)


def observation_covariance(spec: VolatilitySpec, n: int, delta: float) -> GaussianLaw:
    """Covariance of the raw record: a(min(k,l)/n) + delta^2 1(k=l)."""
    return _min_form_law(_observation_levels(spec, n), delta)


def symmetrized_covariance(spec: VolatilitySpec, n: int, delta: float) -> GaussianLaw:
    """Covariance of the midpoint-averaged record.

    Entry (k,l) is n * int over [(2m-1)/2n, (2m+1)/2n] of a(t) dt with
    m = min(k,l), plus delta^2 on the diagonal; the m = n window reaches past
    t = 1 and uses the reflection a(1+s) = a(1-s).
    """
    return _min_form_law(_midpoint_levels(spec, n), delta)


def _pivots(lapack, diag, off, name: str) -> np.ndarray:
    """The LDL^T pivots of the tridiagonal matrix with diagonal diag and constant
    off-diagonal off, from one dpttrf call; NotPositiveDefiniteError naming the
    matrix at the first pivot that is not positive."""
    # the f2py wrapper rejects an empty off-diagonal, so n = 1 passes one unused entry
    pivots, _, info = lapack.dpttrf(diag, np.full(max(diag.size - 1, 1), off))
    if info == 0 and not np.all(pivots > 0.0):   # a NaN passes dpttrf's sign test
        info = int(np.argmin(pivots > 0.0)) + 1
    if info:
        raise NotPositiveDefiniteError(
            f"{name} covariance is not positive definite: pivot {info} of {diag.size} "
            f"is {pivots[info - 1]:.3e}"
        )
    return pivots


def _recursion(lapack, coef, rhs) -> np.ndarray:
    """x with x_0 = rhs_0 and x_k = rhs_k + coef_{k-1} x_{k-1}: one dgtsv call
    on the unit lower-bidiagonal matrix with subdiagonal -coef."""
    sub = -coef if coef.size else np.zeros(1)
    # a unit triangular matrix is never singular, so info is always 0
    return lapack.dgtsv(sub, np.ones(rhs.size), np.zeros(sub.size), rhs)[3]


def hellinger_min_form(dc1, dc2, delta: float) -> tuple:
    """(H^2, 2 ||E||_HS^2) between N(0, c1(min(k,l)) + delta^2 1(k=l)) and the
    same law with c2, from the increments dc = c(m) - c(m-1), c(0) = 0.

    The difference map turns the covariances into A_0 = diag(dc1) + delta^2 P P^T
    and A_1 = A_0 + diag(d), d = dc2 - dc1: diagonal a_k, off-diagonal -delta^2.
    Four LAPACK dpttrf calls give the pivots p of A_0, P1 of A_1 and Ph of
    A_{1/2} = A_0 + diag(d)/2, and the backward pivots q of A_0 (dpttrf on the
    reversed diagonal).  Only these recursions are nonlinear.  The shifts
    s1 = P1 - p and sh = Ph - p and the second difference u = s1 - 2 sh obey
    linear first-order recursions whose coefficients read the pivots at k - 1,

        s1_k = d_k + delta^4 s1_{k-1} / (p P1)
        sh_k = d_k / 2 + delta^4 sh_{k-1} / (p Ph)
        u_k = delta^4 u_{k-1} / (P1 Ph) - delta^4 s1_{k-1} sh_{k-1} / (p P1 Ph),

    so each is one unit lower-bidiagonal solve (dgtsv).  The coefficients need
    the pivots only to relative accuracy, and no shift is formed as a
    difference of pivots, so no term cancels at first order.

    log BC = sum_k 1/4 log P1 + 1/4 log p - 1/2 log Ph is carried as
    1/4 log1p((u/p - r^2) / (1 + r)^2), r = sh/p.  The bound reads A_0^{-1}
    from the backward pivots: (A_0^{-1})_jj = g_j = 1/(p_j + q_j - a_j) and,
    for i < j, (A_0^{-1})_ij^2 = g_j^2 prod_{k=i}^{j-1} delta^4/p_k^2, so
    2 ||E||_HS^2 = 2 sum_j d_j (d_j g_j^2 + 2 tail_j) with the fourth solve,
    on reversed arrays, tail_j = delta^4/p_j^2 (d_{j+1} g_{j+1}^2 + tail_{j+1}).

    The relative error grows with cond(A_0), about 4 delta^2 n at unit level: for
    Constant(1) against Sinusoid(1, 0.2, 2, 0.3) at delta = 1 it was 5.6e-13,
    1.2e-12 and 5.1e-12 in H^2 (40-digit reference) at n = 2^13, 2^14 and 2^16,
    so a tolerance below 1e-12 relative past n = 2^13 must scale with delta^2 n.
    """
    from scipy.linalg import lapack

    dc1 = np.asarray(dc1, dtype=np.float64)
    dc2 = np.asarray(dc2, dtype=np.float64)
    if dc1.ndim != 1 or dc1.shape != dc2.shape or dc1.size < 1:
        raise ValueError(f"incompatible increments: shapes {dc1.shape} and {dc2.shape}")
    n = dc1.size
    d2 = delta ** 2
    d4 = d2 * d2
    a = dc1 + np.where(np.arange(n) == 0, d2, 2.0 * d2)
    d = dc2 - dc1
    p = _pivots(lapack, a, -d2, "first")
    p1 = _pivots(lapack, a + d, -d2, "second")
    ph = _pivots(lapack, a + 0.5 * d, -d2, "average")
    q = _pivots(lapack, a[::-1], -d2, "first")[::-1]

    s1 = _recursion(lapack, d4 / (p[:-1] * p1[:-1]), d)
    sh = _recursion(lapack, d4 / (p[:-1] * ph[:-1]), 0.5 * d)
    cross = np.concatenate(([0.0], -d4 * s1[:-1] * sh[:-1] / (p[:-1] * p1[:-1] * ph[:-1])))
    u = _recursion(lapack, d4 / (p1[:-1] * ph[:-1]), cross)
    r = sh / p
    h2 = -2.0 * math.expm1(0.25 * float(np.sum(np.log1p((u / p - r * r) / ((1.0 + r) * (1.0 + r))))))

    dg2 = d / (p + q - a) ** 2
    c = d4 / p[:-1] ** 2
    tail = _recursion(lapack, c[::-1], np.concatenate(([0.0], (c * dg2[1:])[::-1])))[::-1]
    # max(0.0, -0.0) keeps its first argument, so identical laws give +0.0
    return max(0.0, h2), 2.0 * float(np.sum(d * (dg2 + 2.0 * tail)))


@dataclass(frozen=True)
class DecayResult:
    n_values: tuple
    h2_values: tuple
    bound_values: tuple
    slope: float


def decay_curve(spec: VolatilitySpec, path: str = "spec") -> VolatilitySpec:
    """spec if it is a Constant or a Sinusoid, else ConfigError naming path.kind."""
    if not isinstance(spec, (volmodel.Constant, volmodel.Sinusoid)):
        kind = volmodel.spec_to_json(spec)["kind"]
        raise ConfigError(f"{path}.kind", f"must be 'constant' or 'sinusoid' for a decay sweep, got {kind!r}")
    return spec


def decay_sizes(n_list, path: str = "n_list") -> list:
    """n_list as ints if they strictly increase, else ConfigError naming path."""
    ns = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(path, f"must be strictly increasing, got {ns}")
    return ns


def hellinger_decay(spec: VolatilitySpec, delta: float, n_list) -> DecayResult:
    """H^2 between the two coupling covariances along increasing n, with the
    fitted log-log slope and the Hilbert-Schmidt upper bound per n.

    Each n costs O(n) time and memory: the difference map reduces both
    covariances to tridiagonal matrices that differ by a diagonal, and
    hellinger_min_form reads H^2 and the bound from their LAPACK pivots and
    four bidiagonal solves.  No covariance matrix is built.
    """
    decay_curve(spec)
    ns = decay_sizes(n_list)
    h2s, bounds = [], []
    for n in ns:
        raw = volmodel.cell_variances(spec, n)
        mid = np.diff(_midpoint_levels(spec, n), prepend=0.0)
        h2, bound = hellinger_min_form(raw, mid, delta)
        h2s.append(h2)
        bounds.append(bound)
    slope = float(np.polyfit(np.log(ns), np.log(h2s), 1)[0])
    return DecayResult(
        n_values=tuple(ns), h2_values=tuple(h2s), bound_values=tuple(bounds), slope=slope
    )


def oscillating_gap(n: int) -> float:
    """Squared drift gap of the oscillating curve in the square-root scale:
    int_0^1 (sqrt(2 sigma_n(t)) - sqrt(2))^2 dt, of order n^{-1/2}.

    Folded onto one half period: (2/pi) * int_0^pi ((1 + n^{-1/4} cos v)^{1/4} - 1)^2 dv.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    from scipy.integrate import quad  # deferred: importing it costs a third of a second

    u = n ** (-0.25)
    val, _ = quad(lambda v: ((1.0 + u * np.cos(v)) ** 0.25 - 1.0) ** 2, 0.0, np.pi,
                  epsabs=1e-14, epsrel=1e-13)
    return float(2.0 / np.pi * val)
