import numpy as np
import pytest
from scipy.integrate import quad

from oracles import antiderivative_integral, basis_antiderivative, basis_cos
from specvol import _kernels
from specvol import volmodel as vm
from specvol.simulate import (
    BlockGrid,
    ConfigurationError,
    ObservationSet,
    oracle_variance,
    simulate_observations,
)
from specvol.spectral import block_coefficients


def test_basis_cos_examples():
    assert basis_cos(1, 0, 0.5, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert basis_cos(1, 0, 0.5, 0.25) == pytest.approx(0.0, abs=1e-12)
    assert basis_cos(1, 0, 0.5, 0.75) == 0.0  # outside the block
    assert basis_cos(2, 1, 0.25, 0.9) == 0.0


def test_antiderivative_examples():
    assert basis_antiderivative(1, 0, 0.5, 0.25) == pytest.approx(1 / np.pi, abs=1e-15)
    assert basis_antiderivative(1, 0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert basis_antiderivative(3, 1, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_antiderivative_is_derivative_of_nothing_but_cos():
    # central finite difference of the antiderivative recovers the cosine
    dt = 1e-6
    for j, k, h in [(1, 0, 0.5), (2, 1, 0.25), (5, 2, 0.125)]:
        for frac in [0.2, 0.41, 0.77]:
            t = (k + frac) * h
            fd = (basis_antiderivative(j, k, h, t + dt) - basis_antiderivative(j, k, h, t - dt)) / (2 * dt)
            assert fd == pytest.approx(basis_cos(j, k, h, t), abs=1e-6)


def test_cell_integral_examples():
    h = 0.25
    assert antiderivative_integral(1, 0, h, 0.5, 0.75) == 0.0  # disjoint
    full = antiderivative_integral(1, 1, h, h, 2 * h)
    assert full == pytest.approx(2 * np.sqrt(2 * h) * h / np.pi**2, abs=1e-15)
    # Riemann oracle, 1e6 points
    ts = h + (np.arange(10**6) + 0.5) / 10**6 * h
    oracle = np.mean(basis_antiderivative(1, 1, h, ts)) * h
    assert full == pytest.approx(oracle, abs=1e-10)
    assert antiderivative_integral(2, 1, h, h, 2 * h) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        antiderivative_integral(1, 0, h, 0.5, 0.2)


def test_orthonormality_gram_matrix():
    K, J = 3, 3
    h = 1.0 / K
    funcs = [(j, k) for j in range(1, J + 1) for k in range(K)]
    gram = np.empty((len(funcs), len(funcs)))
    for a, (j1, k1) in enumerate(funcs):
        for b, (j2, k2) in enumerate(funcs):
            if k1 != k2:
                gram[a, b] = 0.0  # disjoint supports
                continue
            lo, hi = k1 * h, (k1 + 1) * h
            val, _ = quad(
                lambda t: basis_cos(j1, k1, h, t) * basis_cos(j2, k2, h, t),
                lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200,
            )
            gram[a, b] = val
    assert np.max(np.abs(gram - np.eye(len(funcs)))) < 1e-10


def test_zero_mean():
    for j, k, h in [(1, 0, 0.5), (2, 1, 0.25), (4, 3, 0.25)]:
        val, _ = quad(lambda t: basis_cos(j, k, h, t), k * h, (k + 1) * h,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(val) < 1e-12


def test_constant_record_gives_zero_away_from_origin():
    n, K = 64, 4
    obs = ObservationSet(n=n, delta=0.0, values=np.full(n, 3.7), seed=0)
    grid = BlockGrid(K=K, J=3, eps=0.1)
    coeffs = block_coefficients(obs, grid)
    assert np.all(coeffs.y[:, 1:] == 0.0)  # blocks disjoint from the first cell


def test_linearity(rng):
    n, K, J = 200, 5, 4
    grid = BlockGrid(K=K, J=J, eps=0.1)
    for _ in range(5):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        mk = lambda vals: ObservationSet(n=n, delta=0.0, values=vals, seed=0)
        lhs = block_coefficients(mk(a * u + b * v), grid).y
        rhs = a * block_coefficients(mk(u), grid).y + b * block_coefficients(mk(v), grid).y
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_too_few_cells_per_block():
    obs = ObservationSet(n=8, delta=0.0, values=np.zeros(8), seed=0)
    with pytest.raises(ConfigurationError):
        block_coefficients(obs, BlockGrid(K=8, J=1, eps=0.1))


def test_grids_share_read_only_increments(monkeypatch):
    obs = simulate_observations(vm.Sinusoid(1.0, 0.5, 1, 0.0), 4096, 0.1, 17)
    grids = [BlockGrid(K=640, J=1, eps=obs.eps()), BlockGrid(K=20, J=64, eps=obs.eps())]
    seen, real = [], _kernels.block_sums

    def recording(dY, K, J):
        seen.append(dY)
        return real(dY, K, J)

    monkeypatch.setattr(_kernels, "block_sums", recording)
    got = [block_coefficients(obs, grid).y for grid in grids]
    assert seen[0] is seen[1] and not seen[0].flags.writeable
    with pytest.raises(ValueError):
        seen[0][0] = 0.0
    # the same bytes as the transform of a fresh diff of the record
    fresh = np.diff(obs.values, prepend=0.0)
    assert seen[0].tobytes() == fresh.tobytes()
    for grid, y in zip(grids, got):
        assert y.tobytes() == real(fresh, grid.K, grid.J).tobytes()


def test_discrete_variance_matches_oracle_law():
    # piecewise-constant curve aligned to the grid, moderate n
    n, delta = 2**14, 0.1
    eps = delta / np.sqrt(n)
    grid = BlockGrid(K=32, J=2, eps=eps)
    spec = vm.PiecewiseConstant((1.0, 4.0))
    target = oracle_variance(spec, grid, eps)
    reps = 2000
    acc = np.zeros((2, grid.K))
    for r in range(reps):
        obs = simulate_observations(spec, n, delta, seed=(21 << 32) ^ r)
        acc += block_coefficients(obs, grid).y ** 2
    emp = acc / reps
    for j in (1, 2):
        for k in (0, 1):
            tol = 3 * np.sqrt(2.0 / reps) * target[j - 1, k] + 0.02 * target[j - 1, k]
            assert abs(emp[j - 1, k] - target[j - 1, k]) < tol


def test_partial_integration_variance_identity():
    # Var(int basis_cos dY) = int basis_antiderivative^2 sigma^2 + eps^2:
    # the quadrature of the squared antiderivative equals the oracle variance
    grid = BlockGrid(K=4, J=3, eps=0.07)
    spec = vm.PiecewiseConstant((1.0, 2.0, 0.5, 3.0))
    h = grid.h
    for j in range(1, 4):
        for k in range(4):
            s2 = spec.values[k]
            val, _ = quad(
                lambda t: basis_antiderivative(j, k, h, t) ** 2 * s2,
                k * h, (k + 1) * h, epsabs=1e-13, epsrel=1e-12,
            )
            target = oracle_variance(spec, grid, grid.eps)[j - 1, k]
            assert val + grid.eps**2 == pytest.approx(target, rel=1e-10)
