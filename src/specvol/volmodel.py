"""Deterministic volatility curves sigma^2(t) on [0,1] and their functionals.

Every curve exposes exact (or 1e-12 quadrature) evaluation of the power
integrals int_a^b sigma^p(t) dt that the estimators and the distance
experiments consume.  The cumulative variance a(t) = int_0^t sigma^2 has a
closed form for every variant, including the reflected extension
a(1+s) = a(1-s) needed by the symmetrized covariance construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Union, get_type_hints

import numpy as np

QUAD_TOL = 1e-13


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


class ConfigError(ValueError):
    """A bad config field; field is its name or JSON path."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"config field {field}: {problem}")
        self.field, self.problem = field, problem


@dataclass(frozen=True)
class Constant:
    level: float

    def __post_init__(self):
        if not self.level > 0:
            raise ValueError(f"variance level must be positive, got {self.level}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Equal-width blocks of constant variance, left to right on [0,1]."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("need at least one block")
        if any(v <= 0 for v in vals):
            raise ValueError("all variance levels must be positive")


@dataclass(frozen=True)
class Sinusoid:
    """sigma^2(t) = base + amplitude * sin(2*pi*cycles*t + phase)."""

    base: float
    amplitude: float
    cycles: int
    phase: float = 0.0

    def __post_init__(self):
        if int(self.cycles) != self.cycles or self.cycles < 1:
            raise ValueError(f"cycles must be a positive integer, got {self.cycles}")
        object.__setattr__(self, "cycles", int(self.cycles))
        if not self.base - abs(self.amplitude) > 0:
            raise ValueError("minimum variance base - |amplitude| must be positive")


@dataclass(frozen=True)
class Oscillating:
    """sigma^2(t) = 1 + n^(-1/4) * cos(pi*n*t), the fast-oscillation curve.

    Its increments over the cells [i/n, (i+1)/n] integrate to exactly 1/n,
    so sampled at rate n it is indistinguishable from the flat unit curve.
    """

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


VolatilitySpec = Union[Constant, PiecewiseConstant, Sinusoid, Oscillating]

# spec JSON "kind" -> curve; the other JSON fields of a curve are its dataclass fields
_KINDS = {"constant": Constant, "piecewise_constant": PiecewiseConstant,
          "sinusoid": Sinusoid, "oscillating": Oscillating}
_SPEC_TYPES = tuple(_KINDS.values())


def sigma_squared(spec: VolatilitySpec, t):
    """Evaluate sigma^2(t) for t in [0,1]; accepts scalars or arrays."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0) or np.any(ts > 1):
        raise DomainError(f"t must lie in [0,1], got {t}")
    if isinstance(spec, Constant):
        out = np.full_like(ts, spec.level)
    elif isinstance(spec, PiecewiseConstant):
        m = len(spec.values)
        idx = np.minimum((ts * m).astype(int), m - 1)
        out = np.asarray(spec.values)[idx]
    elif isinstance(spec, Sinusoid):
        out = spec.base + spec.amplitude * np.sin(2 * np.pi * spec.cycles * ts + spec.phase)
    elif isinstance(spec, Oscillating):
        out = 1.0 + spec.n ** (-0.25) * np.cos(np.pi * spec.n * ts)
    else:
        raise TypeError(f"not a VolatilitySpec: {spec!r}")
    return out if out.ndim else float(out)


def _pc_block_overlaps(spec: PiecewiseConstant, a: float, b: float):
    m = len(spec.values)
    for i, v in enumerate(spec.values):
        lo = max(a, i / m)
        hi = min(b, (i + 1) / m)
        if hi > lo:
            yield v, hi - lo


def integrated_power(spec: VolatilitySpec, p: float, a: float = 0.0, b: float = 1.0) -> float:
    """int_a^b sigma^p(t) dt with 0 <= a <= b <= 1.

    Closed form for Constant and PiecewiseConstant (any p) and for p = 2
    everywhere; adaptive quadrature at absolute tolerance 1e-12 otherwise.
    """
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    if a < 0 or b > 1:
        raise DomainError(f"[a,b] must lie inside [0,1], got [{a},{b}]")
    if a == b:
        return 0.0
    if isinstance(spec, Constant):
        return (b - a) * spec.level ** (p / 2)
    if isinstance(spec, PiecewiseConstant):
        return sum(v ** (p / 2) * w for v, w in _pc_block_overlaps(spec, a, b))
    if p == 2:
        return float(cumulative_variance(spec, b) - cumulative_variance(spec, a))
    from scipy.integrate import quad  # deferred: importing it costs a third of a second

    if isinstance(spec, Sinusoid):
        f = lambda t: (spec.base + spec.amplitude * np.sin(2 * np.pi * spec.cycles * t + spec.phase)) ** (p / 2)
        val, _ = quad(f, a, b, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200 + 50 * spec.cycles)
        return float(val)
    # Oscillating: fold full cells onto one half-period, quadrature the edges.
    n = spec.n
    u = n ** (-0.25)
    g = lambda c: (1.0 + u * c) ** (p / 2)
    i_lo = math.ceil(a * n - 1e-12)
    i_hi = math.floor(b * n + 1e-12)
    if i_hi <= i_lo:  # no full cell inside [a,b]
        val, _ = quad(lambda t: g(np.cos(np.pi * n * t)), a, b, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
        return float(val)
    # one cell's worth: cos(pi*n*t) sweeps a half period on each cell and the
    # value of the folded integral is the same for even and odd cells
    cell, _ = quad(lambda v: g(np.cos(v)), 0.0, np.pi, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
    total = (i_hi - i_lo) * cell / (np.pi * n)
    if a < i_lo / n:
        edge, _ = quad(lambda t: g(np.cos(np.pi * n * t)), a, i_lo / n, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
        total += edge
    if b > i_hi / n:
        edge, _ = quad(lambda t: g(np.cos(np.pi * n * t)), i_hi / n, b, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
        total += edge
    return float(total)


def _cumvar_unit(spec: VolatilitySpec, ts: np.ndarray) -> np.ndarray:
    """a(t) for t in [0,1], vectorized, closed form for every variant."""
    if isinstance(spec, Constant):
        return spec.level * ts
    if isinstance(spec, PiecewiseConstant):
        vals = np.asarray(spec.values)
        m = len(vals)
        prefix = np.concatenate([[0.0], np.cumsum(vals) / m])
        idx = np.minimum((ts * m).astype(int), m - 1)
        return prefix[idx] + vals[idx] * (ts - idx / m)
    if isinstance(spec, Sinusoid):
        w = 2 * np.pi * spec.cycles
        return spec.base * ts - spec.amplitude * (np.cos(w * ts + spec.phase) - np.cos(spec.phase)) / w
    n = spec.n
    return ts + n ** (-0.25) * np.sin(np.pi * n * ts) / (np.pi * n)


def cumulative_variance(spec: VolatilitySpec, t):
    """a(t) = int_0^t sigma^2(s) ds, extended by reflection a(1+s) = a(1-s).

    Valid for t in [0,2]; the reflected branch feeds the last diagonal cell
    of the symmetrized covariance construction.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0) or np.any(ts > 2):
        raise DomainError(f"t must lie in [0,2], got {t}")
    folded = np.where(ts > 1.0, 2.0 - ts, ts)
    out = _cumvar_unit(spec, folded)
    return out if out.ndim else float(out)


def cumulative_variance_antiderivative(spec: VolatilitySpec, t):
    """A(t) = int_0^t a(s) ds for t in [0,2], with the reflected branch of a."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0) or np.any(ts > 2):
        raise DomainError(f"t must lie in [0,2], got {t}")

    def unit(x):
        if isinstance(spec, Constant):
            return spec.level * x * x / 2
        if isinstance(spec, PiecewiseConstant):
            vals = np.asarray(spec.values)
            m = len(vals)
            prefix_a = np.concatenate([[0.0], np.cumsum(vals) / m])
            # A at block edges
            edge_A = np.concatenate(
                [[0.0], np.cumsum(prefix_a[:-1] / m + vals / (2 * m * m))]
            )
            idx = np.minimum((x * m).astype(int), m - 1)
            r = x - idx / m
            return edge_A[idx] + prefix_a[idx] * r + vals[idx] * r * r / 2
        if isinstance(spec, Sinusoid):
            w = 2 * np.pi * spec.cycles
            return (
                spec.base * x * x / 2
                - spec.amplitude * (np.sin(w * x + spec.phase) - np.sin(spec.phase)) / w ** 2
                + spec.amplitude * np.cos(spec.phase) * x / w
            )
        n = spec.n
        return x * x / 2 - n ** (-0.25) * (np.cos(np.pi * n * x) - 1.0) / (np.pi * n) ** 2

    A1 = unit(np.asarray(1.0))
    over = np.clip(ts - 1.0, 0.0, 1.0)
    # int_1^{1+s} a = A(1) - A(1-s) by the reflection, so A(1+s) = 2A(1) - A(1-s)
    out = np.where(
        ts <= 1.0,
        unit(np.clip(ts, 0.0, 1.0)),
        2.0 * A1 - unit(1.0 - over),
    )
    return out if out.ndim else float(out)


def true_integrated_volatility(spec: VolatilitySpec) -> float:
    return integrated_power(spec, 2, 0.0, 1.0)


def spec_to_json(spec: VolatilitySpec) -> dict:
    for kind, cls in _KINDS.items():
        if type(spec) is cls:
            plain = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(spec).items()}
            return {"kind": kind, **plain}
    raise TypeError(f"not a VolatilitySpec: {spec!r}")


def _typed(value, name, kind):
    """value as kind: float, int, or a tuple of floats.  A bool, a string or
    (for an int) a float raises ConfigError naming the field name."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(name, f"must be a list of numbers, got {value!r}")
        return tuple(_typed(v, f"{name}[{i}]", float) for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise ConfigError(name, f"must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def spec_from_json(data) -> VolatilitySpec:
    """The curve of a spec_to_json mapping.  A missing, unknown or mistyped
    field raises ConfigError with the field's name; a value outside the
    curve's range raises ValueError."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError("kind", f"must be one of {', '.join(map(repr, _KINDS))}, got {kind!r}")
    cls = _KINDS[kind]
    types = get_type_hints(cls)
    unknown = sorted(data.keys() - types.keys() - {"kind"})
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    args = {}
    for field in fields(cls):
        if field.name in data:
            args[field.name] = _typed(data[field.name], field.name, types[field.name])
        elif field.default is MISSING:
            raise ConfigError(field.name, "required field missing")
    return cls(**args)
