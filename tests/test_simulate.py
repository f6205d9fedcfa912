import csv
import json

import numpy as np
import pytest
from scipy import stats

from specvol import simulate
from specvol import volmodel as vm
from specvol.cli import dispatch
from specvol.simulate import (
    BlockGrid,
    ConfigurationError,
    ObservationSet,
    draw_exact_coefficients,
    oracle_variance,
    rng_for,
    simulate_observations,
    sigma2_on_blocks,
)
from specvol.spectral import block_coefficients


def test_determinism_byte_identical():
    a = simulate_observations(vm.Sinusoid(1, 0.3, 1, 0.2), 512, 0.2, seed=42)
    b = simulate_observations(vm.Sinusoid(1, 0.3, 1, 0.2), 512, 0.2, seed=42)
    assert np.array_equal(a.values, b.values)
    c = simulate_observations(vm.Sinusoid(1, 0.3, 1, 0.2), 512, 0.2, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_increment_sd_cache_keeps_records_identical():
    spec = vm.Sinusoid(1.0, 0.5, 1, 0.0)
    first = simulate_observations(spec, 1024, 0.1, seed=7)
    again = simulate_observations(vm.Sinusoid(1.0, 0.5, 1, 0.0), 1024, 0.1, seed=7)
    assert first.values.tobytes() == again.values.tobytes()
    sd = simulate._increment_sd(spec, 1024)
    assert not sd.flags.writeable
    simulate._increment_sd.cache_clear()
    fresh = simulate_observations(spec, 1024, 0.1, seed=7)
    assert fresh.values.tobytes() == first.values.tobytes()
    # the cached deviations are those of the closed-form cumulative variance
    want = np.sqrt(np.diff(vm.cumulative_variance(spec, np.arange(1025) / 1024)))
    assert np.array_equal(simulate._increment_sd(spec, 1024), want)


def test_eps_accessor():
    obs = simulate_observations(vm.Constant(1.0), 400, 0.5, seed=1)
    assert obs.eps() == pytest.approx(0.5 / 20.0, abs=1e-16)


def test_grid_invariants():
    g = BlockGrid(K=8, J=3, eps=0.05)
    assert g.K * g.h == 1.0
    assert g.h0 == pytest.approx(g.h / 0.05)
    with pytest.raises(ValueError):
        BlockGrid(K=0, J=1, eps=0.1)
    with pytest.raises(ValueError):
        BlockGrid(K=4, J=0, eps=0.1)


def test_from_h0_rounding():
    g = BlockGrid.from_h0(n=2**16, delta=0.1, h0_target=80.0, J=4)
    assert g.K == 32
    assert 1.0 / g.h == g.K


def test_increment_and_covariance_moments():
    # shared sample: 10^5 replications of a 3-point record
    n, delta, c = 3, 0.3, 1.5
    spec = vm.Constant(c)
    reps = 10**5
    ys = np.empty((reps, n))
    for r in range(reps):
        ys[r] = simulate_observations(spec, n, delta, seed=(5 << 32) ^ r).values
    # Var(Y_i - Y_{i-1}) = c/n + 2 delta^2 (i >= 2)
    inc = np.diff(ys, axis=1)
    var_target = c / n + 2 * delta**2
    se = np.sqrt(2.0 / reps) * var_target
    for i in range(inc.shape[1]):
        assert abs(inc[:, i].var(ddof=1) - var_target) < 3 * se
    # Cov(Y_k, Y_l) = a(min/n) + delta^2 1(k=l)
    emp = np.cov(ys.T)
    for k in range(n):
        for l in range(n):
            target = c * min(k + 1, l + 1) / n + (delta**2 if k == l else 0.0)
            tol = 3 * np.sqrt((emp[k, k] * emp[l, l] + emp[k, l] ** 2) / reps)
            assert abs(emp[k, l] - target) < tol


def test_path_increments_standard_normal_ks():
    n = 10**5
    obs = simulate_observations(vm.Constant(2.0), n, 0.0, seed=901)
    z = obs.increments() / np.sqrt(2.0 / n)
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_oscillating_indistinguishable_from_flat():
    # both increment laws are exactly N(0, 1/n): two-sample KS must not reject
    n = 2**17
    osc = simulate_observations(vm.Oscillating(n), n, 0.0, seed=11)
    flat = simulate_observations(vm.Constant(1.0), n, 0.0, seed=12)
    res = stats.ks_2samp(osc.increments()[:10**5], flat.increments()[:10**5])
    assert res.pvalue > 0.01
    # increment variances are exactly 1/n by the closed-form cumulative variance
    ts = np.arange(n + 1) / n
    iv = np.diff(vm.cumulative_variance(vm.Oscillating(n), ts))
    assert np.allclose(iv, 1.0 / n, rtol=1e-12)


def test_observation_set_validation():
    obs = ObservationSet(delta=0.1, values=np.zeros(3))
    assert obs.n == 3 and not obs.values.flags.writeable
    with pytest.raises(ValueError):
        ObservationSet(delta=-0.1, values=np.zeros(3))


def test_sigma2_on_blocks_alignment():
    assert np.allclose(sigma2_on_blocks(vm.PiecewiseConstant((1.0, 4.0)), 8),
                       [1, 1, 1, 1, 4, 4, 4, 4])
    with pytest.raises(ConfigurationError):
        sigma2_on_blocks(vm.PiecewiseConstant((1.0, 4.0)), 5)
    with pytest.raises(ConfigurationError):
        sigma2_on_blocks(vm.Sinusoid(1, 0.2, 1, 0), 8)


def test_oracle_coefficient_law():
    grid = BlockGrid(K=2, J=2, eps=0.4)
    spec = vm.PiecewiseConstant((1.0, 4.0))
    reps = 10**5
    ys = np.empty((reps, 2, 2))
    for r in range(reps):
        ys[r] = draw_exact_coefficients(spec, grid, grid.eps, seed=(9 << 32) ^ r).y
    target = oracle_variance(spec, grid, grid.eps)
    emp = ys.var(axis=0, ddof=1)
    se = np.sqrt(2.0 / reps) * target
    assert np.all(np.abs(emp - target) < 3 * se)
    # frequency ratio j=1 vs j=2 on block 0
    h = grid.h
    expect_ratio = (h**2 / np.pi**2 * 1.0 + grid.eps**2) / (h**2 / np.pi**2 / 4 * 1.0 + grid.eps**2)
    got_ratio = emp[0, 0] / emp[1, 0]
    assert got_ratio == pytest.approx(expect_ratio, rel=0.05)


def test_oracle_determinism():
    grid = BlockGrid(K=4, J=3, eps=0.1)
    a = draw_exact_coefficients(vm.Constant(1.0), grid, 0.1, seed=5)
    b = draw_exact_coefficients(vm.Constant(1.0), grid, 0.1, seed=5)
    assert np.array_equal(a.y, b.y)


def test_rng_streams_differ():
    x = rng_for(1).standard_normal(4)
    y = rng_for(2).standard_normal(4)
    assert not np.allclose(x, y)


def test_rng_key_layout():
    # in-range seeds keep the streams they always had: the seed in the high
    # 64 bits of the Philox key
    for seed in (0, 5, (5 << 32) ^ 3, 2**64 - 1):
        expect = np.random.Generator(np.random.Philox(key=seed << 64)).standard_normal(4)
        assert np.array_equal(rng_for(seed).standard_normal(4), expect)


@pytest.mark.parametrize("seed", [-5, 2**64, 5 + 2**64])
def test_rng_rejects_out_of_range(seed):
    with pytest.raises(ValueError, match="2\\^64"):
        rng_for(seed)


def test_record_seeds_do_not_alias():
    # 5 + 2^64 and -5 once replayed the streams of 5 and 2^64 - 5
    for seed in (5 + 2**64, -5):
        with pytest.raises(ValueError):
            simulate_observations(vm.Constant(1.0), 64, 0.1, seed)


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **payload}))
    return str(path)


def test_observation_csv_roundtrip(tmp_path):
    spec = vm.PiecewiseConstant((1.0, 2.0))
    cfg = write_config(tmp_path, {"spec": vm.spec_to_json(spec), "n": 64, "delta": 0.05, "seed": 77})
    path = tmp_path / "obs.csv"
    assert dispatch(["simulate", "--config", cfg, "--out", str(path)]) == 0
    obs = simulate_observations(spec, 64, 0.05, seed=77)
    meta = json.loads(path.with_suffix(".csv.json").read_text())
    assert meta == {"n": 64, "delta": 0.05, "seed": 77, "spec": vm.spec_to_json(spec)}
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["i"]) for row in rows] == list(range(1, 65))
    assert np.array_equal([float(row["Y"]) for row in rows], obs.values)


def test_coefficients_csv(tmp_path):
    cfg = write_config(tmp_path, {"spec": vm.spec_to_json(vm.Constant(1.0)), "n": 1024, "delta": 0.2,
                                  "seed": 3, "h0": 8.0, "J": 2})
    path = tmp_path / "coeffs.csv"
    assert dispatch(["spectral", "--config", cfg, "--out", str(path)]) == 0
    grid = BlockGrid.from_h0(1024, 0.2, 8.0, 2)
    coeffs = block_coefficients(simulate_observations(vm.Constant(1.0), 1024, 0.2, seed=3), grid)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "j,k,y"
    assert len(rows) == 1 + 2 * grid.K
    y = np.zeros((grid.J, grid.K))
    for row in rows[1:]:
        j, k, value = row.split(",")
        y[int(j) - 1, int(k)] = float(value)
    assert np.array_equal(y, coeffs.y)
