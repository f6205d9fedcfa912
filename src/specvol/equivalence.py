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
"""

from __future__ import annotations

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


def observation_covariance(spec: VolatilitySpec, n: int, delta: float) -> GaussianLaw:
    """Covariance of the raw record: a(min(k,l)/n) + delta^2 1(k=l)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = volmodel.cumulative_variance(spec, np.arange(1, n + 1) / n)
    idx = np.arange(n)
    cov = a[np.minimum.outer(idx, idx)] + delta ** 2 * np.eye(n)
    return GaussianLaw(mean=np.zeros(n), cov=cov)


def symmetrized_covariance(spec: VolatilitySpec, n: int, delta: float) -> GaussianLaw:
    """Covariance of the midpoint-averaged record.

    Entry (k,l) is n * int over [(2m-1)/2n, (2m+1)/2n] of a(t) dt with
    m = min(k,l), plus delta^2 on the diagonal; the m = n window reaches past
    t = 1 and uses the reflection a(1+s) = a(1-s).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    ks = np.arange(1, n + 1)
    lo = (2 * ks - 1) / (2 * n)
    hi = (2 * ks + 1) / (2 * n)
    m = n * (
        volmodel.cumulative_variance_antiderivative(spec, hi)
        - volmodel.cumulative_variance_antiderivative(spec, lo)
    )
    idx = np.arange(n)
    cov = m[np.minimum.outer(idx, idx)] + delta ** 2 * np.eye(n)
    return GaussianLaw(mean=np.zeros(n), cov=cov)


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
    fitted log-log slope and the Hilbert-Schmidt upper bound per n."""
    decay_curve(spec)
    ns = decay_sizes(n_list)
    h2s, bounds = [], []
    for n in ns:
        p = observation_covariance(spec, n, delta)
        q = symmetrized_covariance(spec, n, delta)
        h2s.append(hellinger_exact(p, q) ** 2)
        bounds.append(hellinger_upper_bound(p, q))
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
