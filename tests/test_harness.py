import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import specvol
from specvol import _kernels, harness, simulate
from specvol import volmodel as vm
from specvol.harness import (
    ExperimentConfig,
    MCReport,
    TooManyFailuresError,
    normality_check,
    resolve_design,
    run_iv_mc,
    run_rate_regression,
    summarize,
)


def small_cfg(**kw):
    base = dict(
        spec=vm.Constant(1.0), n=1024, delta=0.3, replications=8,
        h0_rule=8.0, J_rule=16, bandwidth_rule=0.3, master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(replications=0)
    with pytest.raises(ValueError):
        small_cfg(n=8)
    with pytest.raises(ValueError):
        small_cfg(delta=0.0)
    with pytest.raises(ValueError):
        small_cfg(parallelism=0)


def test_master_seed_range():
    # master seeds m and m + 2^32 would draw identical replication streams
    small_cfg(master_seed=0)
    small_cfg(master_seed=2**32 - 1)
    for bad in (-1, 2**32, 5 + 2**32):
        with pytest.raises(ValueError, match="master_seed"):
            small_cfg(master_seed=bad)


@pytest.mark.parametrize("field,value", [
    ("h0_rule", [3]), ("h0_rule", "linear"), ("h0_rule", -1.0),
    ("J_rule", "bogus"), ("J_rule", 0), ("J_rule", 2.5),
    ("bandwidth_rule", "wide"), ("bandwidth_rule", 0.0),
    ("n", 16.0), ("replications", True), ("clip_floor", 0.0), ("noise_convention", "eps"),
])
def test_config_checks_name_field(field, value):
    with pytest.raises(harness.ConfigError, match=f"config field {field}: must be"):
        small_cfg(**{field: value})


def test_from_mapping_defaults_and_paths():
    cfg = ExperimentConfig.from_mapping({"spec": vm.Constant(1.0), "n": 1024, "delta": 0.3,
                                         "replications": 2})
    assert cfg == ExperimentConfig(spec=vm.Constant(1.0), n=1024, delta=0.3, replications=2)
    with pytest.raises(harness.ConfigError, match=r"config field \$\.base\.J_rule: "):
        ExperimentConfig.from_mapping({"spec": vm.Constant(1.0), "n": 1024, "delta": 0.3,
                                       "replications": 2, "J_rule": "bogus"}, "$.base")


def test_resolve_design_rules():
    cfg = small_cfg(h0_rule="log", J_rule="loglog")
    design = resolve_design(cfg)
    eps = cfg.delta / np.sqrt(cfg.n)
    assert design.main_grid.K == round(1.0 / (np.log(cfg.n) * eps))
    assert design.main_grid.K * design.main_grid.h == 1.0
    assert design.spot_grid.K == round(1.0 / eps)
    # fixed rules resolve literally (subject to the resolution cap)
    design2 = resolve_design(small_cfg(h0_rule=8.0, J_rule=16))
    assert design2.main_grid.J == 16
    assert 1.0 / design2.main_grid.h0 == pytest.approx(design2.main_grid.K * eps)


def test_resolution_cap_on_J():
    cfg = small_cfg(n=1024, J_rule=10**6)
    design = resolve_design(cfg)
    cells = cfg.n / design.main_grid.K
    assert design.main_grid.J <= cells / 2


def test_rate_bandwidth_rule():
    cfg = small_cfg(bandwidth_rule="rate", bandwidth_scale=2.0)
    eps = cfg.delta / np.sqrt(cfg.n)
    expect = 2.0 * (eps * np.log(1 / eps)) ** (1 / 3)
    assert resolve_design(cfg).bandwidth == pytest.approx(expect, rel=1e-12)


def test_determinism_across_parallelism():
    cfg1 = small_cfg(parallelism=1)
    cfg2 = small_cfg(parallelism=2)
    r1 = run_iv_mc(cfg1)
    r2 = run_iv_mc(cfg2)
    assert r1.iv_values == r2.iv_values
    assert r1.spot_sup_errors == r2.spot_sup_errors
    s1 = {k: v for k, v in r1.summary.items() if k != "wall_time"}
    s2 = {k: v for k, v in r2.summary.items() if k != "wall_time"}
    assert s1 == s2


def test_summary_recomputable_bit_exact():
    report = run_iv_mc(small_cfg(replications=6))
    recomputed = summarize(report.config, report.iv_values, report.spot_sup_errors,
                           len(report.failures), report.summary["wall_time"])
    assert recomputed == report.summary


def test_replication_independence():
    report = run_iv_mc(small_cfg(replications=200, n=256, delta=0.5))
    vals = np.asarray(report.iv_values)
    m = len(vals)
    centered = vals - vals.mean()
    lag1 = np.sum(centered[1:] * centered[:-1]) / np.sum(centered**2)
    assert abs(lag1) < 3.0 / np.sqrt(m)


def test_normality_check_contract():
    report = run_iv_mc(small_cfg(replications=8))
    with pytest.raises(ValueError):
        normality_check(report)


def test_normality_check_rejects_wrong_scale():
    cfg = small_cfg(replications=400)
    rng = np.random.default_rng(3)
    target_iv = 1.0
    avar = 8 * cfg.delta  # Constant(1)
    scale = cfg.n ** -0.25
    # correct law passes
    good_vals = tuple(target_iv + scale * np.sqrt(avar) * z for z in rng.standard_normal(400))
    good = MCReport(
        config=cfg, iv_values=good_vals, avar_hats=(), spot_sup_errors=(),
        failures=(), summary=summarize(cfg, good_vals, (), 0, 0.0),
    )
    ok, diag = normality_check(good)
    assert ok and diag["critical"] == pytest.approx(1.63 / 20.0)
    # variance off by 4x fails
    bad_vals = tuple(target_iv + scale * np.sqrt(avar / 4) * z for z in rng.standard_normal(400))
    bad = MCReport(
        config=cfg, iv_values=bad_vals, avar_hats=(), spot_sup_errors=(),
        failures=(), summary=summarize(cfg, bad_vals, (), 0, 0.0),
    )
    ok2, _ = normality_check(bad)
    assert not ok2


def test_failures_are_fatal_beyond_one_percent(monkeypatch):
    real = harness.simulate_observations

    def flaky(spec, n, delta, seed):
        if seed % 4 == 1:
            raise ValueError("injected failure")
        return real(spec, n, delta, seed)

    monkeypatch.setattr(harness, "simulate_observations", flaky)
    with pytest.raises(TooManyFailuresError):
        run_iv_mc(small_cfg(replications=8))


@pytest.mark.parametrize("parallelism", [1, 2])
def test_programming_errors_raise(monkeypatch, parallelism):
    # only numeric failures count against the 1% budget; a TypeError is a bug
    real = harness.simulate_observations

    def broken(spec, n, delta, seed):
        if seed % 4 == 1:
            raise TypeError("injected bug")
        return real(spec, n, delta, seed)

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(harness, "simulate_observations", broken)
    with pytest.raises(TypeError, match="injected bug"):
        run_iv_mc(small_cfg(replications=8, parallelism=parallelism))
    assert multiprocessing.active_children() == []


def test_two_cells_per_block_design_runs():
    # from_h0 clamps K to n // 2, and 196 * (1/98) rounds below 2
    cfg = small_cfg(n=196, delta=0.01, h0_rule=8.0, J_rule=4, replications=2)
    assert resolve_design(cfg).main_grid.K == 98
    assert run_iv_mc(cfg).summary["failed"] == 0


def test_rate_regression_runs():
    cfg = small_cfg(replications=24, delta=0.5)
    with pytest.raises(ValueError):
        run_rate_regression(cfg, [256, 512, 1024])
    report = run_rate_regression(cfg, [256, 512, 1024, 2048])
    assert len(report.n_values) == 4
    assert report.iv_slope < 0  # decaying RMSE even at toy scale
    assert np.all(np.isfinite(report.iv_rmse))


def test_mc_error_scaling_with_replications():
    # the slope estimator's MC spread shrinks like 1/sqrt(M)
    slopes = {24: [], 48: []}
    for m, bucket in slopes.items():
        for trial in range(12):
            cfg = small_cfg(replications=m, delta=0.5, master_seed=1000 + trial)
            bucket.append(run_rate_regression(cfg, [256, 512, 1024, 2048]).iv_slope)
    sd_small = np.std(slopes[24], ddof=1)
    sd_big = np.std(slopes[48], ddof=1)
    ratio = sd_small / sd_big
    assert np.sqrt(2) * 0.7 <= ratio <= np.sqrt(2) * 1.3


def rate_cfg(**kw):
    # the layouts of configs/rate.json: strided class views at 2^16 and 2^18,
    # batched windows at 2^12 and 2^14, eight cached weight arrays
    return small_cfg(n=2**12, delta=0.1, h0_rule=32.0, J_rule=64, clip_floor=0.5, **kw)


RATE_NS = [2**12, 2**14, 2**16, 2**18]


def without_wall(summaries):
    return [{k: v for k, v in s.items() if k != "wall_time"} for s in summaries]


def test_rate_regression_pool_matches_serial():
    serial = run_rate_regression(rate_cfg(replications=6), RATE_NS)
    pooled = run_rate_regression(rate_cfg(replications=6, parallelism=2), RATE_NS)
    assert without_wall(pooled.summaries) == without_wall(serial.summaries)
    assert (pooled.iv_rmse, pooled.spot_sup) == (serial.iv_rmse, serial.spot_sup)
    assert (pooled.iv_slope, pooled.spot_slope) == (serial.iv_slope, serial.spot_slope)


def test_pool_tasks_name_the_replication(monkeypatch):
    # A tracer replaces _run_replication with a local function, which cannot
    # be pickled: a pool task must name a module function that looks it up.
    real = harness._run_replication

    def marked(cfg, index):
        return replace(real(cfg, index), spot_sup_error=-1.0)

    class PicklingPool:  # sends each task through pickle, as a process pool does
        def map(self, fn, items, chunksize):
            return map(pickle.loads(pickle.dumps(fn)), items)

    monkeypatch.setattr(harness, "_run_replication", marked)
    report = harness._iv_mc(small_cfg(replications=4, parallelism=2), PicklingPool())
    assert report.spot_sup_errors == (-1.0,) * 4


def counting_pools(monkeypatch):
    """Pools constructed and shut down through harness.ProcessPoolExecutor."""
    log = {"opened": 0, "shut": 0}

    class Counting(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["opened"] += 1
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            log["shut"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Counting)
    return log


def test_rate_regression_opens_one_pool(monkeypatch):
    log = counting_pools(monkeypatch)
    run_rate_regression(small_cfg(replications=4, delta=0.5), [256, 512, 1024, 2048])
    assert log == {"opened": 0, "shut": 0}
    run_rate_regression(small_cfg(replications=4, delta=0.5, parallelism=2), [256, 512, 1024, 2048])
    assert log == {"opened": 1, "shut": 1}
    run_iv_mc(small_cfg(replications=4, parallelism=2))
    assert log == {"opened": 2, "shut": 2}


def test_prepare_builds_what_a_replication_reads():
    caches = [_kernels.layout, _kernels.block_normalizers, simulate._increment_sd]
    for cache in caches:
        cache.cache_clear()
    cfgs = [replace(rate_cfg(), n=n) for n in RATE_NS]
    harness._prepare(cfgs)
    assert _kernels.layout.cache_info().currsize == 8
    layouts = [_kernels.layout(cfg.n, grid.K, grid.J) for cfg in cfgs
               for grid in (resolve_design(cfg).spot_grid, resolve_design(cfg).main_grid)]
    assert all(lay.weights is not None for lay in layouts)
    assert any(lay.cells is not None for lay in layouts)
    misses = [cache.cache_info().misses for cache in caches]
    for cfg in cfgs:
        assert not harness._run_replication(cfg, 0).failed
    assert [cache.cache_info().misses for cache in caches] == misses


def test_failure_mid_regression_shuts_the_pool(monkeypatch):
    real = harness.simulate_observations

    def fails_at_1024(spec, n, delta, seed):
        if n == 1024:
            raise ValueError("injected failure")
        return real(spec, n, delta, seed)

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(harness, "simulate_observations", fails_at_1024)
    log = counting_pools(monkeypatch)
    with pytest.raises(TooManyFailuresError, match="injected failure"):
        run_rate_regression(small_cfg(replications=4, delta=0.5, parallelism=2), [256, 512, 1024, 2048])
    assert log == {"opened": 1, "shut": 1}
    assert multiprocessing.active_children() == []


UNPICKLABLE_POOL_RUN = """
from specvol import volmodel as vm
from specvol.harness import ExperimentConfig, run_iv_mc

def main():
    class Local(vm.Constant):  # a class defined in a function cannot be pickled
        pass

    run_iv_mc(ExperimentConfig(spec=Local(1.0), n=1024, delta=0.3, replications=4,
                               h0_rule=8.0, J_rule=16, master_seed=7, parallelism=2))

main()
"""


def test_unpicklable_config_fails_before_the_fork():
    # A pool whose tasks cannot be pickled hangs in its shutdown, so the run
    # goes in a session of its own, whose process group a timeout kills with
    # the workers it forked.
    src = str(Path(specvol.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", UNPICKLABLE_POOL_RUN], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a pooled run of an unpicklable config hung for 30 s")
    assert proc.returncode != 0
    assert "pickle" in err
