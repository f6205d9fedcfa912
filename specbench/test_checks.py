"""Self-test of the benchmark's correctness checks: each workload's check
passes on a small run of real specvol output and fails once that output is
corrupted on purpose.

    python3 -m pytest specbench/test_checks.py -q      (about ten seconds)
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import checks
from workloads import EquivalenceDecay, McIvClt, Meter, SpotCurve
from specvol import _kernels, equivalence, estimators, harness, spectral

N_SMALL = 4096
# Statistical corruptions shift a mean by this many of its standard errors:
# enough to fail reliably against the checks' threshold of checks.Z = 5.
SHIFT = 8.0


def _small_run(cls, seed, **attrs):
    work = type(f"Small{cls.__name__}", (cls,), attrs)(seed, 1)
    assert work.run_pass(Meter()) == 0
    assert work.check() == []
    return work


def _fails(work, text):
    problems = work.check()
    assert any(text in p for p in problems), problems


def _scaled(fn, field, factor):
    """`fn` with the array `field` of its result multiplied by `factor`."""
    def corrupted(*args):
        out = fn(*args)
        return replace(out, **{field: getattr(out, field) * factor})
    return corrupted


def test_mc_iv_clt_corruptions_fail(monkeypatch):
    work = _small_run(McIvClt, 5, base=replace(McIvClt.base, n=N_SMALL, replications=48))
    reports = work.reports
    m = sum(len(r.iv_values) for r in reports)
    se = math.sqrt(McIvClt.target_avar / m) / N_SMALL ** 0.25     # of the mean IV value
    work.reports = [replace(r, iv_values=tuple(v + SHIFT * se for v in r.iv_values)) for r in reports]
    _fails(work, "clt: mean")
    work.reports = [replace(r, iv_values=tuple(1 + 2 * (v - 1) for v in r.iv_values)) for r in reports]
    _fails(work, "clt: variance")

    # the transform, compared with the direct sum on its own
    work.reports = reports
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "block_coefficients", _scaled(spectral.block_coefficients, "y", 1 + 1e-6))
        _fails(work, "differs from the direct sum")
    # the same fault inside the timed pass, seen through the IV value it produced
    work.reports = []
    with monkeypatch.context() as mp:
        mp.setattr(harness, "block_coefficients", _scaled(harness.block_coefficients, "y", 1 + 1e-6))
        assert work.run_pass(Meter()) == 0
    _fails(work, "rebuilt from the direct sum")


def test_spot_curve_corruptions_fail(monkeypatch):
    work = _small_run(SpotCurve, 9, n=N_SMALL, cfg=replace(SpotCurve.cfg, n=N_SMALL))
    windows, rv = np.array(work.windows), np.array(work.rv)
    root_m = math.sqrt(len(rv))
    work.windows = list(windows + SHIFT * windows.std(axis=0, ddof=1) / root_m)
    _fails(work, "pointwise mean")
    work.windows = list(windows)
    work.rv = list(rv + SHIFT * rv.std(ddof=1) / root_m)
    _fails(work, "realized volatility")
    # a curve of the timed pass, against its rebuild from the direct sum
    work.rv = list(rv)
    with monkeypatch.context() as mp:
        mp.setattr(estimators, "spot_estimate", _scaled(estimators.spot_estimate, "estimates", 1 + 1e-6))
        assert work.run_pass(Meter()) == 0
    _fails(work, "rebuilt from the direct sum")


def test_moments_match_the_program_normalizers():
    # two derivations of the same exact moments; n/K = 25.6 cuts cells at block edges
    _, s, nu = checks.first_frequency(2 ** 16, 2560, 0.1)
    s_p, nu_p = _kernels.block_normalizers(2 ** 16, 2560, 0.1, 1)
    assert checks.relative_error(s_p, s) < 1e-12 and checks.relative_error(nu_p, nu) < 1e-12


def test_equivalence_decay_corruptions_fail(monkeypatch):
    work = _small_run(EquivalenceDecay, 3, n_list=(256, 512, 1024))
    result, = work.results
    h2, bound = np.array(result.h2_values), np.array(result.bound_values)
    for corrupted, text in [
        (replace(result, h2_values=tuple(2 * h2)), "differs from the log-determinant"),
        (replace(result, bound_values=tuple(0.01 * bound)), "above its upper bound"),
        (replace(result, h2_values=tuple(h2 * np.array(work.n_list))), "log H^2 slope"),
        (replace(result, slope=result.slope + 1e-6), "reported slope"),
    ]:
        work.results = [corrupted]
        _fails(work, text)
    work.results = [result]
    for fn, text in (("observation_covariance", "raw"), ("symmetrized_covariance", "midpoint")):
        with monkeypatch.context() as mp:
            mp.setattr(equivalence, fn, _scaled(getattr(equivalence, fn), "cov", 1 + 1e-9))
            _fails(work, f"n=512 {text}")


def test_rate_checks_fail_on_broken_rates():
    ns = np.array([2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18])
    rmse = 0.95 * ns ** -0.25
    m = 36                                    # replications per n in six passes of six
    assert checks.rate_slope(ns, rmse, m) == []
    assert checks.rate_slope(ns, rmse * ns ** 0.25, m)
    sup = 4.0 * ns ** -0.17
    assert checks.spot_falls(ns, sup) == []
    assert checks.spot_falls(ns, sup[::-1])
    summary = [{"rmse_iv": 0.1, "mean_spot_sup_error": 0.5}]
    assert checks.identical(summary, [dict(summary[0])], "rate") == []
    assert checks.identical(summary, [{"rmse_iv": np.nextafter(0.1, 1.0), "mean_spot_sup_error": 0.5}], "rate")


def test_seeds_outside_32_bits_are_rejected():
    import run

    assert run.parse_args(["--workload", "spot-curve", "--seed", str(2 ** 32 - 1)]).seed == 2 ** 32 - 1
    for bad in (-1, 2 ** 32, 5 + 2 ** 32):
        with pytest.raises(SystemExit):
            run.parse_args(["--workload", "spot-curve", "--seed", str(bad)])
