import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import pool_threads
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
    ("spot_eval_points", 0),
    ("bandwidth_rule", "rate"),    # at delta > sqrt(n) below
])
def test_config_checks_name_field(field, value):
    # "rate" takes (eps log(1/eps))^{1/3}, nan past eps = delta / sqrt(n) = 1
    past_eps_1 = {"delta": 32.5} if value == "rate" else {}
    with pytest.raises(harness.ConfigError, match=f"config field {field}: must be"):
        small_cfg(**past_eps_1, **{field: value})


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
    # delta = sqrt(n): eps = 1, so (eps log(1/eps))^{1/3} = 0 and b is the spot block width
    design = resolve_design(small_cfg(n=4096, delta=64.0, bandwidth_rule="rate"))
    assert design.bandwidth == design.spot_grid.h


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


@pytest.mark.parametrize("m", [3, 4, 8, 200, 5000])
def test_summary_statistics_match_scipy(m):
    from scipy import stats   # the oracle; the harness no longer imports it

    cfg = small_cfg()
    values = 1.0 + 0.2 * np.random.default_rng(m).standard_normal(m)
    summary = summarize(cfg, tuple(values), (), 0, 0.0)
    studentized = cfg.n ** 0.25 * (values - 1.0) / np.sqrt(8 * cfg.delta)   # Constant(1)
    expect = {
        "skewness": stats.skew(studentized),
        "kurtosis": stats.kurtosis(studentized) if m > 3 else np.nan,
        "ks_statistic": stats.kstest(studentized, "norm").statistic,
    }
    for key, value in expect.items():
        assert summary[key] == pytest.approx(value, rel=1e-12, abs=0, nan_ok=True), key


@pytest.mark.parametrize("m,nan_keys", [
    (1, {"skewness", "kurtosis", "ks_statistic"}),
    (2, {"skewness", "kurtosis"}),
    (3, {"kurtosis"}),
    (4, set()),
])
def test_summary_statistics_nan_below_their_sample_sizes(m, nan_keys):
    summary = summarize(small_cfg(), (0.9, 1.3, 0.8, 1.1)[:m], (), 0, 0.0)
    assert {k for k in ("skewness", "kurtosis", "ks_statistic") if np.isnan(summary[k])} == nan_keys


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

    # patched before the run, so the pool threads call it
    monkeypatch.setattr(harness, "simulate_observations", broken)
    with pytest.raises(TypeError, match="injected bug"):
        run_iv_mc(small_cfg(replications=8, parallelism=parallelism))
    assert pool_threads() == []


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


def assert_rate_pool_matches_serial(cfg, ns):
    serial = run_rate_regression(cfg, ns)
    pooled = run_rate_regression(replace(cfg, parallelism=2), ns)
    assert without_wall(pooled.summaries) == without_wall(serial.summaries)
    assert (pooled.iv_rmse, pooled.spot_sup) == (serial.iv_rmse, serial.spot_sup)
    assert (pooled.iv_slope, pooled.spot_slope) == (serial.iv_slope, serial.spot_slope)


def test_rate_regression_pool_matches_serial():
    assert_rate_pool_matches_serial(rate_cfg(replications=6), RATE_NS)


def test_six_n_rate_regression_pool_matches_serial():
    # 12 layouts, more than _kernels.layout keeps: the pool threads rebuild evicted ones
    assert_rate_pool_matches_serial(rate_cfg(replications=4), [2**k for k in range(8, 14)])


# Frozen results of 4 replications, master seed 7: the mc-iv-clt design (a DST
# main grid, a strided-views spot grid) and a sinusoid at 2^12 (both grids batched)
FROZEN = [
    (dict(n=2**16, h0_rule=80.0, J_rule=192),
     [1.0225736480347036, 1.0308463438776583, 1.0221294656479407, 0.9813026552959895],
     [0.5, 0.4245915828509881, 0.6974366050879539, 0.5]),
    (dict(spec=vm.Sinusoid(1, 0.5, 1, 0), n=2**12, h0_rule=32.0, J_rule=64),
     [1.0830028542538994, 0.8150447557356856, 0.807660961318438, 1.045883974976191],
     [2.6142339615392736, 1.1017018599747224, 1.0, 0.9993977281025863]),
]


@pytest.mark.parametrize("design,iv_values,spot_sup_errors", FROZEN, ids=["mc-iv-clt", "sinusoid"])
def test_frozen_replication_values(design, iv_values, spot_sup_errors):
    report = run_iv_mc(small_cfg(delta=0.1, clip_floor=0.5, replications=4, **design))
    assert np.allclose(report.iv_values, iv_values, rtol=1e-12, atol=0)
    assert np.allclose(report.spot_sup_errors, spot_sup_errors, rtol=1e-12, atol=0)


def test_pool_tasks_name_the_replication(monkeypatch):
    # A tracer replaces _run_replication before a run: the pool threads must call the replacement.
    real = harness._run_replication
    callers = set()

    def marked(cfg, index):
        callers.add(threading.current_thread().name)
        return replace(real(cfg, index), spot_sup_error=-1.0)

    monkeypatch.setattr(harness, "_run_replication", marked)
    report = run_iv_mc(small_cfg(replications=4, parallelism=2))
    assert report.spot_sup_errors == (-1.0,) * 4
    assert callers and all(name.startswith("ThreadPoolExecutor-") for name in callers)


def counting_pools(monkeypatch):
    """Pools constructed and shut down through harness.ThreadPoolExecutor."""
    log = {"opened": 0, "shut": 0}

    class Counting(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["opened"] += 1
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            log["shut"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Counting)
    return log


def test_rate_regression_opens_one_pool(monkeypatch):
    log = counting_pools(monkeypatch)
    run_rate_regression(small_cfg(replications=4, delta=0.5), [256, 512, 1024, 2048])
    assert log == {"opened": 0, "shut": 0}
    run_rate_regression(small_cfg(replications=4, delta=0.5, parallelism=2), [256, 512, 1024, 2048])
    assert log == {"opened": 1, "shut": 1}
    run_iv_mc(small_cfg(replications=4, parallelism=2))
    assert log == {"opened": 2, "shut": 2}


def test_failure_mid_regression_shuts_the_pool(monkeypatch):
    real = harness.simulate_observations

    def fails_at_two_n(spec, n, delta, seed):
        if n in (512, 2048):
            raise ValueError(f"injected failure at {n}")
        return real(spec, n, delta, seed)

    # patched before the run, so the pool threads call it
    monkeypatch.setattr(harness, "simulate_observations", fails_at_two_n)
    log = counting_pools(monkeypatch)
    cfg = small_cfg(replications=4, delta=0.5)
    messages = []
    for parallelism in (1, 2):
        # the smaller failing n raises, although the pool ran the larger one first
        with pytest.raises(TooManyFailuresError, match="^n = 512: 4 of 4 .*injected failure at 512") as exc:
            run_rate_regression(replace(cfg, parallelism=parallelism), [256, 512, 1024, 2048])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert log == {"opened": 1, "shut": 1}
    assert pool_threads() == []


def test_pooled_regression_queues_the_largest_n_first(monkeypatch):
    log = counting_pools(monkeypatch)
    submitted = []

    class Recording(harness.ThreadPoolExecutor):   # subclasses counting_pools' class, so it counts too
        def submit(self, fn, cfg, index):
            submitted.append((cfg.n, index))
            return super().submit(fn, cfg, index)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    ns = [256, 512, 1024, 2048]
    run_rate_regression(small_cfg(replications=3, delta=0.5, parallelism=2), ns)
    assert submitted == [(n, i) for n in reversed(ns) for i in range(3)]
    assert log == {"opened": 1, "shut": 1}


def test_threads_racing_on_cold_caches_match_serial():
    # more threads than cores, switching often, on empty caches: the threads
    # build the same layouts, normalizers and increment SDs at once
    cfg = small_cfg(replications=16)
    serial = run_iv_mc(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cache in (_kernels.layout, _kernels.block_normalizers, simulate._increment_sd):
            cache.cache_clear()
        pooled = run_iv_mc(replace(cfg, parallelism=8))
    finally:
        sys.setswitchinterval(interval)
    assert (pooled.iv_values, pooled.spot_sup_errors) == (serial.iv_values, serial.spot_sup_errors)


def test_pool_runs_a_curve_class_defined_in_a_function():
    # such a class cannot be pickled, and the pool threads need not pickle it
    class Local(vm.Constant):
        pass

    cfg = small_cfg(spec=Local(1.0), replications=4)
    serial = run_iv_mc(cfg)
    pooled = run_iv_mc(replace(cfg, parallelism=2))
    assert pooled.iv_values == serial.iv_values
    assert without_wall([pooled.summary]) == without_wall([serial.summary])
