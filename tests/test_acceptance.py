"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Monte Carlo configurations are frozen (seeds included) so results are
reproducible bit-for-bit per backend.
"""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize_scalar

from oracles import scale_series_partial
from specvol import equivalence as eq
from specvol import fisher, harness
from specvol import volmodel as vm
from specvol.simulate import BlockGrid, draw_exact_coefficients, oracle_variance, simulate_observations
from specvol.spectral import block_coefficients


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_series_identity():
    t0 = time.perf_counter()
    lams = [0.1, 0.5, 1.0, np.pi, 10.0, 100.0]
    worst = 0.0
    for lam in lams:
        closed = fisher.scale_series_closed(lam)
        partial = scale_series_partial(lam, 10**6)
        worst = max(worst, abs(closed - partial) / abs(partial))
    elapsed = time.perf_counter() - t0
    report(1, "series identity closed vs partial sum",
           worst < 1e-8 and elapsed < 5.0,
           f"worst rel err {worst:.2e} over lambda={lams}, {elapsed:.2f}s")


def test_criterion_02_fisher_information():
    t0 = time.perf_counter()
    worst_sum, worst_id = 0.0, 0.0
    for theta in (0.25, 1.0, 4.0):
        for h0 in (1.0, 10.0, 100.0):
            closed = fisher.block_information(theta, h0)
            partial = fisher.block_information_partial(theta, h0, 10**6)
            worst_sum = max(worst_sum, abs(closed - partial) / abs(partial))
            lam = np.sqrt(theta) * h0
            via = (h0**4 / 2.0) * lam**-3 * fisher.scale_series_closed(lam)
            worst_id = max(worst_id, abs(closed - via) / abs(closed))
    elapsed = time.perf_counter() - t0
    report(2, "Fisher information closed form",
           worst_sum < 1e-8 and worst_id < 1e-12 and elapsed < 5.0,
           f"brute-force rel {worst_sum:.2e}, identity rel {worst_id:.2e}, {elapsed:.2f}s")


def test_criterion_03_single_frequency_constants():
    t0 = time.perf_counter()
    res = minimize_scalar(
        lambda h0: -fisher.single_frequency_information(1.0, h0),
        bracket=(0.1, 5.0, 50.0), method="golden", options={"xtol": 1e-10},
    )
    argmax_ok = abs(res.x - np.sqrt(3) * np.pi) < 1e-6
    max_ok = abs(-res.fun - 3**1.5 / (32 * np.pi)) < 1e-6
    eff = np.sqrt(-res.fun / fisher.efficiency_bound(1.0))
    eff_ok = abs(eff - 0.643) < 1e-3 and round(eff, 2) == 0.64
    elapsed = time.perf_counter() - t0
    report(3, "optimal single-frequency tuning",
           argmax_ok and max_ok and eff_ok and elapsed < 1.0,
           f"argmax {res.x:.8f} (sqrt(3)pi={np.sqrt(3)*np.pi:.8f}), "
           f"max {-res.fun:.6f}, efficiency {eff:.4f}, {elapsed:.2f}s")


def test_criterion_04_spectral_law():
    t0 = time.perf_counter()
    spec = vm.PiecewiseConstant((1.0, 4.0))
    # exact-oracle draws
    grid = BlockGrid(K=8, J=3, eps=0.05)
    target = oracle_variance(spec, grid, grid.eps)
    draws = 10**5
    acc = np.zeros((3, 8))
    for r in range(draws):
        acc += draw_exact_coefficients(spec, grid, grid.eps, seed=(101 << 32) ^ r).y ** 2
    emp = acc / draws
    oracle_ok = True
    worst_z = 0.0
    for j in (1, 2, 3):
        for k in (0, 1):
            se = np.sqrt(2.0 / draws) * target[j - 1, k]
            z = abs(emp[j - 1, k] - target[j - 1, k]) / se
            worst_z = max(worst_z, z)
            oracle_ok = oracle_ok and z < 3.0
    # discrete coefficients from the full record at n = 2^16
    n, delta = 2**16, 0.1
    eps = delta / np.sqrt(n)
    dgrid = BlockGrid(K=64, J=3, eps=eps)
    dtarget = oracle_variance(spec, dgrid, eps)
    reps = 2000
    dacc = np.zeros((3, 64))
    for r in range(reps):
        obs = simulate_observations(spec, n, delta, seed=(103 << 32) ^ r)
        dacc += block_coefficients(obs, dgrid).y ** 2
    demp = dacc / reps
    discrete_ok = True
    worst_exc = 0.0
    for j in (1, 2, 3):
        for k in (0, 1):
            tol = 3 * np.sqrt(2.0 / reps) * dtarget[j - 1, k] + 0.02 * dtarget[j - 1, k]
            exc = abs(demp[j - 1, k] - dtarget[j - 1, k]) / tol
            worst_exc = max(worst_exc, exc)
            discrete_ok = discrete_ok and exc < 1.0
    elapsed = time.perf_counter() - t0
    report(4, "spectral coefficient law",
           oracle_ok and discrete_ok and elapsed < 120.0,
           f"oracle worst z {worst_z:.2f} (<3), discrete worst {worst_exc:.2f} of budget, {elapsed:.1f}s")


CLT_CASES = [
    ("Constant(1)", vm.Constant(1.0), 0.8, 222, True),
    ("PiecewiseConstant(1,4)", vm.PiecewiseConstant((1.0, 4.0)), 3.6, 20240812, False),
]


@pytest.mark.parametrize("name,spec,target,seed,check_ks", CLT_CASES, ids=[c[0] for c in CLT_CASES])
def test_criterion_05_clt_variance(name, spec, target, seed, check_ks):
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        spec=spec, n=2**16, delta=0.1, replications=1000,
        h0_rule=80.0, J_rule=192, bandwidth_rule=0.3, clip_floor=0.5,
        master_seed=seed,
    )
    rep = harness.run_iv_mc(cfg)
    var = rep.summary["variance_scaled"]
    var_ok = abs(var - target) <= 0.15 * target
    detail = f"variance {var:.4f} vs {target} (|dev| {abs(var/target-1)*100:.1f}% of target)"
    ks_ok = True
    if check_ks:
        ks_ok, diag = harness.normality_check(rep)
        detail += f", KS {diag['ks_statistic']:.4f} < {diag['critical']:.4f}"
    elapsed = time.perf_counter() - t0
    report(5, f"efficient CLT [{name}]", var_ok and ks_ok and elapsed < 600.0,
           detail + f", {elapsed:.0f}s")


def test_criterion_06_rate_checks():
    t0 = time.perf_counter()
    ns = [2**12, 2**14, 2**16, 2**18]
    iv_cfg = harness.ExperimentConfig(
        spec=vm.Constant(1.0), n=ns[0], delta=0.1, replications=400,
        h0_rule=32.0, J_rule=64, bandwidth_rule=0.3, clip_floor=0.5, master_seed=777,
    )
    iv_rep = harness.run_rate_regression(iv_cfg, ns)
    iv_ok = -0.32 <= iv_rep.iv_slope <= -0.18
    spot_cfg = harness.ExperimentConfig(
        spec=vm.Sinusoid(1.0, 0.5, 1, 0.0), n=ns[0], delta=0.1, replications=400,
        h0_rule=32.0, J_rule=64, bandwidth_rule="rate", bandwidth_scale=2.0,
        clip_floor=0.5, master_seed=778,
    )
    spot_rep = harness.run_rate_regression(spot_cfg, ns)
    spot_ok = -0.30 <= spot_rep.spot_slope <= -0.10
    elapsed = time.perf_counter() - t0
    report(6, "convergence-rate regressions",
           iv_ok and spot_ok and elapsed < 1800.0,
           f"IV slope {iv_rep.iv_slope:.3f} in [-0.32,-0.18], "
           f"spot slope {spot_rep.spot_slope:.3f} in [-0.30,-0.10], {elapsed:.0f}s")


def test_criterion_07_equivalence_decay():
    t0 = time.perf_counter()
    spec = vm.Sinusoid(1.0, 0.5, 3, 0.7)
    delta = 0.3
    result = eq.hellinger_decay(spec, delta, [2**k for k in range(6, 12)])
    slope_ok = result.slope <= -1.7
    n_fix = 256
    h2_base = eq.hellinger_exact(
        eq.observation_covariance(spec, n_fix, delta),
        eq.symmetrized_covariance(spec, n_fix, delta)) ** 2
    h2_double = eq.hellinger_exact(
        eq.observation_covariance(spec, n_fix, 2 * delta),
        eq.symmetrized_covariance(spec, n_fix, 2 * delta)) ** 2
    ratio = h2_base / h2_double
    ratio_ok = 10.0 <= ratio <= 22.0
    elapsed = time.perf_counter() - t0
    report(7, "coupling distance decay",
           slope_ok and ratio_ok and elapsed < 300.0,
           f"slope {result.slope:.3f} <= -1.7, delta-doubling ratio {ratio:.1f} in [10,22], {elapsed:.0f}s")


def test_criterion_08_counterexample():
    t0 = time.perf_counter()
    n_path = 2**17
    osc = simulate_observations(vm.Oscillating(n_path), n_path, 0.0, seed=424242)
    flat = simulate_observations(vm.Constant(1.0), n_path, 0.0, seed=424243)
    ks = stats.ks_2samp(osc.increments()[:10**5], flat.increments()[:10**5])
    ks_ok = ks.pvalue > 0.01
    scaled = {n: eq.oscillating_gap(n) * np.sqrt(n) for n in (2**8, 2**10, 2**12)}
    spread = max(scaled.values()) / min(scaled.values())
    gap_ok = spread < 1.10
    elapsed = time.perf_counter() - t0
    report(8, "non-equivalence counterexample",
           ks_ok and gap_ok and elapsed < 120.0,
           f"two-sample KS p={ks.pvalue:.3f} (>0.01), gap*sqrt(n) spread {spread:.3f} (<1.10), {elapsed:.0f}s")


def test_criterion_09_hellinger_anchors():
    t0 = time.perf_counter()
    worst = 0.0
    for s2 in (0.5, 2.0, 5.0):
        p = eq.GaussianLaw(np.zeros(1), np.eye(1))
        q = eq.GaussianLaw(np.zeros(1), s2 * np.eye(1))
        h2 = eq.hellinger_exact(p, q) ** 2
        worst = max(worst, abs(h2 - (2 - np.sqrt(8 * np.sqrt(s2) / (s2 + 1)))))
    for m in (0.5, 1.0, 3.0):
        p = eq.GaussianLaw(np.zeros(1), np.eye(1))
        q = eq.GaussianLaw(np.array([m]), np.eye(1))
        h2 = eq.hellinger_exact(p, q) ** 2
        worst = max(worst, abs(h2 - 2 * (1 - np.exp(-(m**2) / 8))))
    rng = np.random.default_rng(20240813)
    dominated = True
    for trial in range(100):
        m = rng.standard_normal((5, 5))
        cov = m @ m.T + 5 * np.eye(5)
        if trial % 2 == 0:
            sym = rng.standard_normal((5, 5))
            p = eq.GaussianLaw(np.zeros(5), cov)
            q = eq.GaussianLaw(np.zeros(5), cov + 0.05 * (sym + sym.T))
        else:
            p = eq.GaussianLaw(np.zeros(5), cov)
            q = eq.GaussianLaw(0.1 * rng.standard_normal(5), cov)
        dominated = dominated and (
            eq.hellinger_upper_bound(p, q) >= eq.hellinger_exact(p, q) ** 2)
    elapsed = time.perf_counter() - t0
    report(9, "scalar Hellinger anchors and bounds",
           worst < 1e-12 and dominated and elapsed < 5.0,
           f"anchor error {worst:.2e} (<1e-12), bound dominated on 100 cases, {elapsed:.2f}s")


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    def run(par):
        cfg = harness.ExperimentConfig(
            spec=vm.Constant(1.0), n=2**12, delta=0.1, replications=16,
            h0_rule=16.0, J_rule=32, bandwidth_rule=0.3, clip_floor=0.5,
            master_seed=99, parallelism=par,
        )
        return harness.run_iv_mc(cfg)
    reports = [run(par) for par in (1, 2, 4)]
    same_values = all(r.iv_values == reports[0].iv_values for r in reports)
    strip = lambda s: {k: v for k, v in s.items() if k != "wall_time"}
    same_summary = all(strip(r.summary) == strip(reports[0].summary) for r in reports)
    elapsed = time.perf_counter() - t0
    report(10, "bit-identical summaries across thread counts",
           same_values and same_summary,
           f"parallelism 1/2/4 identical, {elapsed:.0f}s")
