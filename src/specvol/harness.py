"""Monte Carlo orchestration: replication control, CLT verification for the
integrated-volatility estimator, and rate regressions.

Each replication owns an independent counter-based RNG stream keyed by
(master_seed, replication index), so results are bit-identical for any
worker-pool size; aggregation always walks replications in index order.

With parallelism > 1 a call opens one process pool, for every n of a rate
regression.  Before the pool forks, the parent builds each n's state (the
increment standard deviations, the transform weights and cell windows of both
grids, the spot grid's block normalizers) in the caches the layers read, and
the workers inherit it instead of building it on their first replication.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from contextlib import contextmanager, suppress
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from . import _kernels, volmodel
from .estimators import asymptotic_variance, integrated_volatility_estimate, spot_estimate
from .simulate import BlockGrid, ObservationSet, _increment_sd, simulate_observations
from .spectral import block_coefficients
from .volmodel import ConfigError, VolatilitySpec, _is_integer, _is_real

KS_CRITICAL_COEF = 1.63  # level-0.01 coefficient: reject when KS > 1.63/sqrt(M)


MIN_N = 16  # the least number of observations a config may ask for


@dataclass(frozen=True)
class ExperimentConfig:
    spec: VolatilitySpec
    n: int
    delta: float
    replications: int
    h0_rule: Union[float, str] = "log"        # fixed value or "log" for h0 = log n
    J_rule: Union[int, str] = "loglog"        # fixed value or "loglog" for ceil(log n * log log n)
    bandwidth_rule: Union[float, str] = "rate"  # fixed value or "rate" for (eps log(1/eps))^{1/3}
    bandwidth_scale: float = 1.0
    master_seed: int = 0
    parallelism: int = 1
    clip_floor: float = 1e-4
    noise_convention: str = "eps2"
    spot_eval_points: int = 257

    def __post_init__(self):
        checks = (
            ("n", _is_integer(self.n, MIN_N), f"an integer >= {MIN_N}"),
            ("delta", _is_real(self.delta, 0), "a positive number"),
            ("replications", _is_integer(self.replications, 1), "an integer >= 1"),
            ("h0_rule", self.h0_rule == "log" or _is_real(self.h0_rule, 0), 'a positive number or "log"'),
            ("J_rule", self.J_rule == "loglog" or _is_integer(self.J_rule, 1), 'an integer >= 1 or "loglog"'),
            ("bandwidth_rule", self.bandwidth_rule == "rate" or _is_real(self.bandwidth_rule, 0),
             'a positive number or "rate"'),
            ("bandwidth_scale", _is_real(self.bandwidth_scale, 0), "a positive number"),
            # replication_seed shifts it left by 32 bits into rng_for's 64-bit seed
            ("master_seed", _is_integer(self.master_seed, 0, 2 ** 32), "an integer in [0, 2^32)"),
            ("parallelism", _is_integer(self.parallelism, 1), "an integer >= 1"),
            ("clip_floor", _is_real(self.clip_floor, 0), "a positive number"),
            ("noise_convention", self.noise_convention == "eps2", '"eps2"'),
        )
        for name, ok, want in checks:
            if not ok:
                raise ConfigError(name, f"must be {want}, got {getattr(self, name)!r}")

    @classmethod
    def from_mapping(cls, data, path: str = "$") -> "ExperimentConfig":
        """The config of a mapping of field names to values, such as a JSON
        config with its spec parsed; absent fields take the defaults above.
        A bad field raises ConfigError with its path under path."""
        try:
            return cls(**data)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc.field}", exc.problem) from None


@dataclass(frozen=True)
class ResolvedDesign:
    main_grid: BlockGrid
    spot_grid: BlockGrid
    bandwidth: float
    block_positions: np.ndarray
    eval_positions: np.ndarray


def resolve_design(cfg: ExperimentConfig) -> ResolvedDesign:
    n = cfg.n
    h0_target = float(np.log(n)) if cfg.h0_rule == "log" else float(cfg.h0_rule)
    J = int(np.ceil(np.log(n) * np.log(np.log(n)))) if cfg.J_rule == "loglog" else int(cfg.J_rule)
    main = BlockGrid.from_h0(n, cfg.delta, h0_target, J)
    # resolution cap: stay below the cell count per block
    main = replace(main, J=max(1, min(J, (n // main.K) // 2)))
    spot = BlockGrid.from_h0(n, cfg.delta, 1.0, 1)  # h = eps
    if cfg.bandwidth_rule == "rate":
        b = cfg.bandwidth_scale * float((spot.eps * np.log(1.0 / spot.eps)) ** (1.0 / 3.0))
    else:
        b = float(cfg.bandwidth_rule)
    b = max(b, spot.h)
    return ResolvedDesign(
        main_grid=main,
        spot_grid=spot,
        bandwidth=b,
        block_positions=np.arange(main.K) * main.h,
        eval_positions=np.linspace(0.0, 1.0, cfg.spot_eval_points),
    )


@dataclass(frozen=True)
class ReplicationResult:
    index: int
    iv_value: float = np.nan
    avar_hat: float = np.nan
    spot_sup_error: float = np.nan
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not np.isfinite(self.iv_value)


def replication_seed(master_seed: int, index: int) -> int:
    return (int(master_seed) << 32) ^ int(index)


def estimate_iv(cfg: ExperimentConfig, design: ResolvedDesign, obs: ObservationSet):
    """The IV estimate of one record, and the record's spot-grid coefficients."""
    spot_coeffs = block_coefficients(obs, design.spot_grid)
    spot_at_blocks = spot_estimate(
        spot_coeffs, cfg.n, cfg.delta, design.bandwidth,
        design.block_positions, cfg.clip_floor,
    )
    main_coeffs = block_coefficients(obs, design.main_grid)
    est = integrated_volatility_estimate(
        main_coeffs, spot_at_blocks, design.main_grid, cfg.delta, cfg.n,
        true_spec=cfg.spec, noise_convention=cfg.noise_convention,
    )
    return est, spot_coeffs


# a valid config may fail with a ValueError (a bad design, an empty window, avar_hat <= 0) or overflow
_NUMERIC_FAILURES = (ValueError, ArithmeticError)


def _run_replication(cfg: ExperimentConfig, index: int) -> ReplicationResult:
    design = resolve_design(cfg)
    try:
        obs = simulate_observations(cfg.spec, cfg.n, cfg.delta, replication_seed(cfg.master_seed, index))
        est, spot_coeffs = estimate_iv(cfg, design, obs)
        spot_eval = spot_estimate(
            spot_coeffs, cfg.n, cfg.delta, design.bandwidth,
            design.eval_positions, cfg.clip_floor,
        )
        sup_err = float(np.max(np.abs(
            spot_eval.estimates - volmodel.sigma_squared(cfg.spec, design.eval_positions)
        )))
        return ReplicationResult(
            index=index, iv_value=est.value, avar_hat=est.avar_hat, spot_sup_error=sup_err,
        )
    except _NUMERIC_FAILURES as exc:   # recorded; a programming error raises
        return ReplicationResult(index=index, error=f"{type(exc).__name__}: {exc}")


def _replicate(cfg: ExperimentConfig, index: int) -> ReplicationResult:
    # A pool pickles this function by name and the worker looks up
    # _run_replication when it calls it, so a wrapper of _run_replication
    # installed before the fork (a tracer, a test) runs in the workers too.
    return _run_replication(cfg, index)


def _prepare(cfgs) -> None:
    """Build the cached state the replications of cfgs read, with the arguments
    the layers pass, so that workers forked afterwards inherit it.  The largest
    n goes first: its temporaries then sit on the least state built so far,
    which keeps the peak memory of the parent down."""
    for cfg in sorted(cfgs, key=lambda c: c.n, reverse=True):
        design = resolve_design(cfg)
        _increment_sd(cfg.spec, cfg.n)
        for grid in (design.spot_grid, design.main_grid):
            _kernels.layout(cfg.n, grid.K, grid.J)
        _kernels.block_normalizers(cfg.n, design.spot_grid.K, float(cfg.delta), 1)


@contextmanager
def _pool(cfgs):
    """None for a serial run; else one fork pool for every config, opened after
    _prepare has built their state and shut down when the block ends."""
    workers = cfgs[0].parallelism
    if workers == 1:
        yield None
        return
    # a task the pool cannot pickle hangs its shutdown, so fail before the fork
    pickle.dumps(cfgs)
    # state that fails to build fails every replication, which records it
    with suppress(*_NUMERIC_FAILURES):
        _prepare(cfgs)
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


class TooManyFailuresError(RuntimeError):
    pass


@dataclass(frozen=True)
class MCReport:
    config: ExperimentConfig
    iv_values: tuple
    avar_hats: tuple
    spot_sup_errors: tuple
    failures: tuple
    summary: dict


def summarize(cfg: ExperimentConfig, iv_values, spot_sup_errors, n_failed, wall_time) -> dict:
    from scipy import stats  # deferred: importing it costs 0.2 s

    values = np.asarray(iv_values, dtype=np.float64)
    target_iv = volmodel.true_integrated_volatility(cfg.spec)
    target_avar = asymptotic_variance(cfg.spec, cfg.delta)
    scaled = cfg.n ** 0.25 * (values - target_iv)
    studentized = scaled / np.sqrt(target_avar)
    m = values.size
    return {
        "replications": m,
        "failed": int(n_failed),
        "target_iv": target_iv,
        "target_avar": target_avar,
        "bias_scaled": float(np.mean(scaled)),
        "variance_scaled": float(np.var(scaled, ddof=1)) if m > 1 else float("nan"),
        "variance_ratio": float(np.var(scaled, ddof=1) / target_avar) if m > 1 else float("nan"),
        "skewness": float(stats.skew(studentized)) if m > 2 else float("nan"),
        "kurtosis": float(stats.kurtosis(studentized)) if m > 3 else float("nan"),
        "ks_statistic": float(stats.kstest(studentized, "norm").statistic) if m > 1 else float("nan"),
        "rmse_iv": float(np.sqrt(np.mean((values - target_iv) ** 2))),
        "mean_spot_sup_error": float(np.mean(spot_sup_errors)) if len(spot_sup_errors) else float("nan"),
        "wall_time": wall_time,
    }


def run_iv_mc(cfg: ExperimentConfig) -> MCReport:
    """Full pipeline per replication, deterministic merge by replication index.

    Raises TooManyFailuresError when more than 1% of replications fail.
    """
    with _pool([cfg]) as pool:
        return _iv_mc(cfg, pool)


def _iv_mc(cfg: ExperimentConfig, pool: Optional[ProcessPoolExecutor]) -> MCReport:
    start = time.perf_counter()
    run = partial(_replicate, cfg)
    indices = range(cfg.replications)
    if pool is None:
        results = list(map(run, indices))
    else:   # map returns the results in index order
        chunk = max(1, cfg.replications // (4 * cfg.parallelism))
        results = list(pool.map(run, indices, chunksize=chunk))
    failures = tuple((r.index, r.error) for r in results if r.failed)
    if len(failures) > 0.01 * cfg.replications:
        raise TooManyFailuresError(
            f"{len(failures)} of {cfg.replications} replications failed; first: {failures[0]}"
        )
    good = [r for r in results if not r.failed]
    wall = time.perf_counter() - start
    iv_values = tuple(r.iv_value for r in good)
    sups = tuple(r.spot_sup_error for r in good)
    return MCReport(
        config=cfg,
        iv_values=iv_values,
        avar_hats=tuple(r.avar_hat for r in good),
        spot_sup_errors=sups,
        failures=failures,
        summary=summarize(cfg, iv_values, sups, len(failures), wall),
    )


def normality_check(report: MCReport):
    """KS test of the studentized estimates against the standard normal.

    Passes when the KS statistic is below the level-0.01 critical value
    1.63/sqrt(M); requires at least 200 replications.
    """
    m = len(report.iv_values)
    if m < 200:
        raise ValueError(f"need at least 200 replications for the normality check, got {m}")
    ks = report.summary["ks_statistic"]
    critical = KS_CRITICAL_COEF / np.sqrt(m)
    return ks < critical, {"ks_statistic": ks, "critical": critical, "replications": m}


@dataclass(frozen=True)
class RateReport:
    n_values: tuple
    iv_rmse: tuple
    spot_sup: tuple
    iv_slope: float
    spot_slope: float
    summaries: tuple


def run_rate_regression(cfg: ExperimentConfig, n_list) -> RateReport:
    """log RMSE vs log n regression for the IV estimator and the spot curve."""
    ns = sorted(set(int(n) for n in n_list))
    if len(ns) < 4:
        raise ValueError("need at least 4 distinct n values")
    cfgs = [replace(cfg, n=n) for n in ns]
    with _pool(cfgs) as pool:
        summaries = [_iv_mc(c, pool).summary for c in cfgs]
    rmses = [s["rmse_iv"] for s in summaries]
    sups = [s["mean_spot_sup_error"] for s in summaries]
    ln = np.log(ns)
    iv_slope = float(np.polyfit(ln, np.log(rmses), 1)[0])
    spot_slope = float(np.polyfit(ln, np.log(sups), 1)[0])
    return RateReport(
        n_values=tuple(ns), iv_rmse=tuple(rmses), spot_sup=tuple(sups),
        iv_slope=iv_slope, spot_slope=spot_slope, summaries=tuple(summaries),
    )
