"""Exact simulation of the noisy regression experiment and its spectral oracle.

Paths are generated from the exact Gaussian law of the latent integral
process: increments are independent centered normals with variances taken
from differences of the closed-form cumulative variance, never from an Euler
scheme.  Reproducibility uses the counter-based Philox generator keyed by the
seed alone; replication streams are the seeds of harness.replication_seed,
so they are independent and order-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import volmodel
from .volmodel import VolatilitySpec


class ConfigurationError(ValueError):
    """Inconsistent grid / spec combination."""


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based generator for a seed in [0, 2^64).  The 128-bit Philox
    key holds the seed in its high 64 bits, so distinct seeds never share a
    stream."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed << 64))


@dataclass(frozen=True)
class BlockGrid:
    """Block/frequency layout: K blocks of width h = 1/K, frequencies 1..J.

    eps is the effective white-noise level the grid is tuned against;
    h0 = h / eps is the dimensionless block-width-to-noise ratio.
    """

    K: int
    J: int
    eps: float

    def __post_init__(self):
        if self.K < 1 or int(self.K) != self.K:
            raise ValueError(f"K must be a positive integer, got {self.K}")
        if self.J < 1 or int(self.J) != self.J:
            raise ValueError(f"J must be a positive integer, got {self.J}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def h(self) -> float:
        return 1.0 / self.K

    @property
    def h0(self) -> float:
        return 1.0 / (self.K * self.eps)

    @staticmethod
    def from_h0(n: int, delta: float, h0_target: float, J: int) -> "BlockGrid":
        """Nearest grid with 1/h integer to h = h0_target * eps, eps = delta/sqrt(n)."""
        if not delta > 0:
            raise ValueError("delta must be positive to size a block grid")
        eps = delta / np.sqrt(n)
        K = max(2, round(1.0 / (h0_target * eps)))
        K = min(K, n // 2)
        return BlockGrid(K=K, J=J, eps=eps)


@dataclass(frozen=True)
class ObservationSet:
    """One simulated record: Y_i = X_{i/n} + noise_i, i = 1..n."""

    delta: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    @property
    def n(self) -> int:
        return self.values.size

    def eps(self) -> float:
        return self.delta / np.sqrt(self.n)

    def increments(self) -> np.ndarray:
        """Y_i - Y_{i-1} with the Y_0 = 0 convention, computed once per record
        and read-only: both grids of a replication read the same array."""
        return self._increments

    @cached_property
    def _increments(self) -> np.ndarray:
        # The values of np.diff(values, prepend=0.0) without its concatenated
        # copy.  With that extra n-array the allocator returned heap pages
        # that the next replication faulted in again: about 300 minor faults
        # per replication at n = 2^16 in 9 of 10 processes, against none.
        v = self.values
        inc = np.empty_like(v)
        inc[:1] = v[:1]
        np.subtract(v[1:], v[:-1], out=inc[1:])
        inc.setflags(write=False)
        return inc


@dataclass(frozen=True)
class SpectralCoefficients:
    """Block/frequency coefficient array y[j-1, k] on a BlockGrid."""

    grid: BlockGrid
    y: np.ndarray
    source: str          # "exact-oracle" | "from-observations"
    eps: float

    def __post_init__(self):
        arr = np.asarray(self.y, dtype=np.float64)
        if arr.shape != (self.grid.J, self.grid.K):
            raise ValueError(
                f"coefficient array must be (J={self.grid.J}, K={self.grid.K}), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)
        if self.source not in ("exact-oracle", "from-observations"):
            raise ValueError(f"unknown source tag {self.source!r}")


@lru_cache(maxsize=8)
def _increment_sd(spec: VolatilitySpec, n: int) -> np.ndarray:
    """Standard deviations sqrt(a(i/n) - a((i-1)/n)) of the n latent increments."""
    sd = np.sqrt(volmodel.cell_variances(spec, n))
    sd.setflags(write=False)
    return sd


def simulate_observations(spec: VolatilitySpec, n: int, delta: float, seed: int) -> ObservationSet:
    """Draw Y_1..Y_n from the exact law of the experiment.

    The latent path at the grid points is a cumulative sum of independent
    N(0, a(i/n) - a((i-1)/n)) increments; independent N(0, delta^2) noise is
    added on top.  Byte-identical output for identical arguments.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_for(seed)
    x = np.cumsum(rng.standard_normal(n) * _increment_sd(spec, n))
    y = x + delta * rng.standard_normal(n) if delta > 0 else x
    return ObservationSet(delta=float(delta), values=y)


def sigma2_on_blocks(spec: VolatilitySpec, K: int) -> np.ndarray:
    """sigma^2 at block positions k/K when constant on each block, else error."""
    if isinstance(spec, volmodel.Constant):
        return np.full(K, spec.level)
    if isinstance(spec, volmodel.PiecewiseConstant):
        m = len(spec.values)
        if K % m != 0:
            raise ConfigurationError(
                f"piecewise spec with {m} blocks does not align with a {K}-block grid"
            )
        return np.repeat(np.asarray(spec.values), K // m)
    raise ConfigurationError(
        f"{type(spec).__name__} is not piecewise constant on the grid blocks"
    )


def draw_exact_coefficients(spec: VolatilitySpec, grid: BlockGrid, eps: float, seed: int) -> SpectralCoefficients:
    """Distributionally exact oracle: independent centered Gaussians with
    variance h^2 pi^-2 j^-2 sigma^2(kh) + eps^2 per (j, k)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    var = oracle_variance(spec, grid, eps)
    rng = rng_for(seed)
    y = np.sqrt(var) * rng.standard_normal((grid.J, grid.K))
    return SpectralCoefficients(grid=grid, y=y, source="exact-oracle", eps=float(eps))


def oracle_variance(spec: VolatilitySpec, grid: BlockGrid, eps: float) -> np.ndarray:
    """The (J, K) variance targets h^2 pi^-2 j^-2 sigma^2(kh) + eps^2."""
    s2 = sigma2_on_blocks(spec, grid.K)
    j = np.arange(1, grid.J + 1, dtype=np.float64)
    return (grid.h ** 2 / np.pi ** 2) * np.outer(j ** -2, s2) + eps ** 2
