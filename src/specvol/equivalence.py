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
differ only by diag(d), d = dc2 - dc1, so hellinger_min_form works in O(n):
one forward LDL^T pivot pass gives H^2 from the pivots of A_t = A_0 + t
diag(d) at t = 0, 1/2, 1, and one backward pivot pass gives the diagonal and
the decay of A_0^{-1}, hence 2 ||E||_HS^2 = 2 sum_ij d_i d_j (A_0^{-1})_ij^2.
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


def hellinger_min_form(dc1, dc2, delta: float) -> tuple:
    """(H^2, 2 ||E||_HS^2) between N(0, c1(min(k,l)) + delta^2 1(k=l)) and the
    same law with c2, from the increments dc = c(m) - c(m-1), c(0) = 0.

    The difference map turns the covariances into A_0 = diag(dc1) + delta^2 P P^T
    and A_1 = A_0 + diag(d), d = dc2 - dc1: diagonal a_k, off-diagonal -delta^2.
    The pivots of A_t are p_k + s_k(t), with p the pivots of A_0 and

        s_k(t) = t d_k + delta^4 s_{k-1}(t) / (p_{k-1} (p_{k-1} + s_{k-1}(t))).

    log BC = sum_k 1/4 log(p + s(1)) + 1/4 log p - 1/2 log(p + s(1/2)) is carried
    as 1/4 log1p((u/p - r^2) / (1 + r)^2), r = s(1/2)/p, where the second
    difference u = s(1) - 2 s(1/2) has its own recursion, so that no term
    cancels at first order.  The bound reads A_0^{-1} from the backward pivots
    q: (A_0^{-1})_jj = g_j = 1/(p_j + q_j - a_j) and, for i < j,
    (A_0^{-1})_ij^2 = g_j^2 prod_{k=i}^{j-1} delta^4/p_k^2.
    """
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
    hellinger_min_form runs one forward pivot pass for H^2 and one backward
    pivot pass for the bound.  No covariance matrix is built.
    """
    decay_curve(spec)
    ns = decay_sizes(n_list)
    h2s, bounds = [], []
    for n in ns:
        raw = np.diff(_observation_levels(spec, n), prepend=0.0)
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
