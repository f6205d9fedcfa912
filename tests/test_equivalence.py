import math

import numpy as np
import pytest
from oracles import min_form_recursion
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.stats import ortho_group

from specvol import volmodel as vm
from specvol.equivalence import (
    GaussianLaw,
    NotPositiveDefiniteError,
    _midpoint_levels,
    _observation_levels,
    _whiten,
    hellinger_decay,
    hellinger_exact,
    hellinger_min_form,
    hellinger_upper_bound,
    observation_covariance,
    oscillating_gap,
    symmetrized_covariance,
)
from specvol.simulate import simulate_observations


def random_spd(rng, dim, ridge=None):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + (ridge if ridge is not None else dim) * np.eye(dim)


def test_identical_laws():
    law = GaussianLaw(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert hellinger_exact(law, law) == pytest.approx(0.0, abs=1e-12)


def test_scalar_variance_anchor():
    # N(0,1) vs N(0, s2): H^2 = 2 - sqrt(8 s / (s^2 + 1))
    for s2 in [0.5, 2.0, 3.7]:
        p = GaussianLaw(np.zeros(1), np.eye(1))
        q = GaussianLaw(np.zeros(1), s2 * np.eye(1))
        h2 = hellinger_exact(p, q) ** 2
        s = np.sqrt(s2)
        assert h2 == pytest.approx(2 - np.sqrt(8 * s / (s2 + 1)), abs=1e-12)


def test_scalar_mean_anchor():
    # N(0,1) vs N(m,1): H^2 = 2 (1 - exp(-m^2/8))
    for m in [0.3, 1.0, 2.5]:
        p = GaussianLaw(np.zeros(1), np.eye(1))
        q = GaussianLaw(np.array([m]), np.eye(1))
        h2 = hellinger_exact(p, q) ** 2
        assert h2 == pytest.approx(2 * (1 - np.exp(-(m**2) / 8)), abs=1e-12)


def test_symmetry(rng):
    for _ in range(10):
        p = GaussianLaw(rng.standard_normal(4), random_spd(rng, 4))
        q = GaussianLaw(rng.standard_normal(4), random_spd(rng, 4))
        assert hellinger_exact(p, q) == pytest.approx(hellinger_exact(q, p), abs=1e-12)


def test_range():
    p = GaussianLaw(np.zeros(2), np.eye(2))
    q = GaussianLaw(np.full(2, 50.0), 1e-3 * np.eye(2))
    h = hellinger_exact(p, q)
    assert 0.0 <= h <= np.sqrt(2)


def test_product_bound(rng):
    # block-diagonal laws: H^2(joint) <= sum of per-block H^2
    for _ in range(10):
        c1a, c1b = random_spd(rng, 2), random_spd(rng, 3)
        c2a, c2b = random_spd(rng, 2), random_spd(rng, 3)
        pa, qa = GaussianLaw(np.zeros(2), c1a), GaussianLaw(np.zeros(2), c2a)
        pb, qb = GaussianLaw(np.zeros(3), c1b), GaussianLaw(np.zeros(3), c2b)
        joint_p = GaussianLaw(np.zeros(5), np.block([
            [c1a, np.zeros((2, 3))], [np.zeros((3, 2)), c1b]]))
        joint_q = GaussianLaw(np.zeros(5), np.block([
            [c2a, np.zeros((2, 3))], [np.zeros((3, 2)), c2b]]))
        lhs = hellinger_exact(joint_p, joint_q) ** 2
        rhs = hellinger_exact(pa, qa) ** 2 + hellinger_exact(pb, qb) ** 2
        assert lhs <= rhs + 1e-12


def test_orthogonal_conjugation_invariance(rng):
    for _ in range(5):
        c1, c2 = random_spd(rng, 5), random_spd(rng, 5)
        u = ortho_group.rvs(5, random_state=rng)
        p1 = GaussianLaw(np.zeros(5), c1)
        q1 = GaussianLaw(np.zeros(5), c2)
        p2 = GaussianLaw(np.zeros(5), u @ c1 @ u.T)
        q2 = GaussianLaw(np.zeros(5), u @ c2 @ u.T)
        assert hellinger_exact(p1, q1) == pytest.approx(hellinger_exact(p2, q2), abs=1e-10)


def test_bound_zero_for_equal():
    law = GaussianLaw(np.zeros(3), np.eye(3))
    assert hellinger_upper_bound(law, law) == 0.0


def test_bound_scalar_form():
    # N(0,1) vs N(0,s2): bound is 2 (s2-1)^2 and dominates the exact square
    for s2 in [0.8, 1.25, 2.0]:
        p = GaussianLaw(np.zeros(1), np.eye(1))
        q = GaussianLaw(np.zeros(1), s2 * np.eye(1))
        bound = hellinger_upper_bound(p, q)
        assert bound == pytest.approx(2 * (s2 - 1) ** 2, abs=1e-12)
        assert bound >= hellinger_exact(p, q) ** 2


def test_bound_dominates_randomized(rng):
    # 100 randomized 5x5 cases, pure covariance and pure mean perturbations
    for trial in range(100):
        cov = random_spd(rng, 5)
        if trial % 2 == 0:
            sym = rng.standard_normal((5, 5))
            q = GaussianLaw(np.zeros(5), cov + 0.05 * (sym + sym.T))
            p = GaussianLaw(np.zeros(5), cov)
        else:
            p = GaussianLaw(np.zeros(5), cov)
            q = GaussianLaw(0.1 * rng.standard_normal(5), cov)
        assert hellinger_upper_bound(p, q) >= hellinger_exact(p, q) ** 2


def symmetric_root_bound(p, q):
    """The bound through the symmetric root:
    1/4 ||S^{-1/2} dmu||^2 + 2 ||S^{-1/2} (Sigma2 - Sigma1) S^{-1/2}||_HS^2, S = Sigma1."""
    w, v = eigh(p.cov)
    inv_root = (v / np.sqrt(w)) @ v.T
    z = inv_root @ (q.mean - p.mean)
    return 0.25 * z @ z + 2.0 * np.sum((inv_root @ (q.cov - p.cov) @ inv_root) ** 2)


def decay_pair(n):
    spec = vm.Sinusoid(1.0, 0.5, 3, 0.7)
    return observation_covariance(spec, n, 0.3), symmetrized_covariance(spec, n, 0.3)


def logdet_h2(p, q):
    """Zero-mean H^2 from three Cholesky log-determinants, with its rounding allowance."""
    def logdet(c):
        return 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(c))))

    ld_p, ld_q, ld_avg = logdet(p.cov), logdet(q.cov), logdet(0.5 * (p.cov + q.cov))
    allowance = 8.0 * np.finfo(float).eps * (abs(ld_p) + abs(ld_q) + 2.0 * abs(ld_avg))
    return -2.0 * np.expm1(0.25 * ld_p + 0.25 * ld_q - 0.5 * ld_avg), allowance


def test_whiten_is_a_cholesky_congruence(rng):
    for p, q in [decay_pair(64)] + [
        (GaussianLaw(np.zeros(6), random_spd(rng, 6)), GaussianLaw(np.zeros(6), random_spd(rng, 6)))
        for _ in range(5)
    ]:
        L, E = _whiten(p, q)
        assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0)
        assert np.allclose(L @ L.T, p.cov, rtol=0, atol=1e-12 * np.abs(p.cov).max())
        assert np.array_equal(E, E.T)
        diff = q.cov - p.cov
        assert np.allclose(L @ E @ L.T, diff, rtol=0, atol=1e-10 * np.abs(diff).max())


def test_bound_matches_symmetric_root(rng):
    for trial in range(20):
        p = GaussianLaw(np.zeros(5), random_spd(rng, 5, ridge=0.5))
        mean = rng.standard_normal(5) if trial % 2 else np.zeros(5)
        q = GaussianLaw(mean, random_spd(rng, 5, ridge=0.5))
        assert hellinger_upper_bound(p, q) == pytest.approx(symmetric_root_bound(p, q), rel=1e-10)
    p, q = decay_pair(256)
    assert hellinger_upper_bound(p, q) == pytest.approx(symmetric_root_bound(p, q), rel=1e-10)


def test_exact_matches_logdet_on_decay_pair():
    for n in (64, 256):
        p, q = decay_pair(n)
        reference, allowance = logdet_h2(p, q)
        assert abs(hellinger_exact(p, q) ** 2 - reference) <= allowance


def test_non_pd_reports_condition():
    p = GaussianLaw(np.zeros(2), np.eye(2))
    bad = GaussianLaw.__new__(GaussianLaw)
    object.__setattr__(bad, "mean", np.zeros(2))
    object.__setattr__(bad, "cov", np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        hellinger_exact(bad, p)


def test_observation_covariance_example():
    law = observation_covariance(vm.Constant(1.0), 2, 0.1)
    assert np.allclose(law.cov, [[0.51, 0.5], [0.5, 1.01]], atol=1e-15)
    assert np.all(law.mean == 0.0)


def test_observation_covariance_pd_floor():
    law = observation_covariance(vm.Sinusoid(1, 0.4, 2, 0.1), 64, 0.2)
    assert np.linalg.eigvalsh(law.cov).min() >= 0.04 - 1e-12


def test_observation_covariance_matches_simulation():
    spec, n, delta = vm.PiecewiseConstant((1.0, 3.0)), 4, 0.25
    law = observation_covariance(spec, n, delta)
    reps = 4 * 10**4
    ys = np.empty((reps, n))
    for r in range(reps):
        ys[r] = simulate_observations(spec, n, delta, seed=(31 << 32) ^ r).values
    emp = np.cov(ys.T)
    for k in range(n):
        for l in range(n):
            se = np.sqrt((emp[k, k] * emp[l, l] + emp[k, l] ** 2) / reps)
            assert abs(emp[k, l] - law.cov[k, l]) < 4 * se


def test_symmetrized_constant_entries():
    n, delta = 8, 0.1
    law = symmetrized_covariance(vm.Constant(1.0), n, delta)
    for k in range(n):
        for l in range(n):
            m = min(k, l) + 1
            if m < n:
                expect = m / n + (delta**2 if k == l else 0.0)
            else:
                expect = 1.0 - 1.0 / (4 * n) + delta**2  # reflected corner
            assert law.cov[k, l] == pytest.approx(expect, abs=1e-14)


def test_symmetrized_vs_quadrature_oracle():
    spec, n, delta = vm.Sinusoid(1, 0.5, 2, 0.3), 16, 0.1
    law = symmetrized_covariance(spec, n, delta)
    a = lambda t: vm.cumulative_variance(spec, min(t, 2.0 - t))   # reflected past t = 1
    for k in [1, 7, 15, 16]:
        lo, hi = (2 * k - 1) / (2 * n), (2 * k + 1) / (2 * n)
        oracle, _ = quad(a, lo, hi, epsabs=1e-13, epsrel=1e-13)
        expect = n * oracle + delta**2
        assert law.cov[k - 1, k - 1] == pytest.approx(expect, abs=1e-10)


def test_decay_constant_slope():
    # linear a: only the reflected corner differs; ridge-dominated regime
    result = hellinger_decay(vm.Constant(1.0), 0.5, [2**k for k in range(6, 12)])
    assert result.slope <= -1.8
    assert all(b >= h for b, h in zip(result.bound_values, result.h2_values))


def test_decay_validation():
    with pytest.raises(ValueError, match="config field spec.kind: must be 'constant' or 'sinusoid'"):
        hellinger_decay(vm.Oscillating(8), 0.1, [64, 128])
    with pytest.raises(ValueError, match=r"config field n_list: must be strictly increasing, got \[128, 64\]"):
        hellinger_decay(vm.Constant(1.0), 0.1, [128, 64])
    with pytest.raises(ValueError, match="n must be >= 2"):
        hellinger_decay(vm.Constant(1.0), 0.1, [1, 64])
    with pytest.raises(ValueError, match="n must be >= 1"):
        hellinger_decay(vm.Constant(1.0), 0.1, [0, 64])


SWEEP = [2**k for k in range(6, 12)]
SINE = vm.Sinusoid(1.0, 0.5, 3, 0.7)


def assert_matches_dense(c1, c2, p, q, delta):
    """The O(n) pair on the levels c1, c2 against the dense pair on their laws p, q."""
    h2, bound = hellinger_min_form(np.diff(c1, prepend=0.0), np.diff(c2, prepend=0.0), delta)
    assert h2 == pytest.approx(hellinger_exact(p, q) ** 2, rel=1e-12, abs=0)
    assert bound == pytest.approx(hellinger_upper_bound(p, q), rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", [vm.Constant(1.0), SINE], ids=["constant", "sinusoid"])
@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_min_form_matches_dense_on_decay_pairs(spec, delta):
    # the Constant pair differs only in the reflected corner entry (n, n)
    for n in SWEEP:
        assert_matches_dense(_observation_levels(spec, n), _midpoint_levels(spec, n),
                             observation_covariance(spec, n, delta),
                             symmetrized_covariance(spec, n, delta), delta)


def test_min_form_matches_dense_on_two_curves():
    other = vm.Sinusoid(1.0, 0.2, 2, 0.3)
    for n in SWEEP:
        assert_matches_dense(_observation_levels(vm.Constant(1.0), n), _observation_levels(other, n),
                             observation_covariance(vm.Constant(1.0), n, 0.3),
                             observation_covariance(other, n, 0.3), 0.3)


def test_decay_uses_the_min_form_of_the_coupling_pair():
    n_list = [2, 3, 64]
    result = hellinger_decay(SINE, 0.3, n_list)
    for n, h2, bound in zip(n_list, result.h2_values, result.bound_values):
        p, q = observation_covariance(SINE, n, 0.3), symmetrized_covariance(SINE, n, 0.3)
        assert h2 == pytest.approx(hellinger_exact(p, q) ** 2, rel=1e-12, abs=0)
        assert bound == pytest.approx(hellinger_upper_bound(p, q), rel=1e-12, abs=0)


PARITY_SIZES = [2, 3] + [2**k for k in range(6, 17)]


def assert_matches_recursion(dc1, dc2, delta, rel):
    h2, bound = hellinger_min_form(dc1, dc2, delta)
    ref_h2, ref_bound = min_form_recursion(dc1, dc2, delta)
    assert h2 == pytest.approx(ref_h2, rel=rel, abs=0)
    assert bound == pytest.approx(ref_bound, rel=rel, abs=0)


@pytest.mark.parametrize("spec", [vm.Constant(1.0), SINE], ids=["constant", "sinusoid"])
@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_min_form_matches_recursion_on_decay_pairs(spec, delta):
    for n in PARITY_SIZES:
        assert_matches_recursion(np.diff(_observation_levels(spec, n), prepend=0.0),
                                 np.diff(_midpoint_levels(spec, n), prepend=0.0), delta, 1e-12)


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_min_form_matches_recursion_on_two_curves(delta):
    other = vm.Sinusoid(1.0, 0.2, 2, 0.3)
    for n in [1] + PARITY_SIZES:
        # Both paths are backward stable, so they may differ by the unit roundoff times
        # the condition number of A_0, about 4 delta^2 n here (its smallest eigenvalue
        # is near dc1 = 1/n).  This pair comes within a factor 6 of it: 1.0e-11 at
        # delta = 1, n = 2^16, where the bound is 5.8e-11.
        rel = max(1e-12, 4.0 * delta**2 * n * np.finfo(float).eps)
        assert_matches_recursion(np.diff(_observation_levels(vm.Constant(1.0), n), prepend=0.0),
                                 np.diff(_observation_levels(other, n), prepend=0.0), delta, rel)


def test_min_form_identical_increments():
    dc = np.diff(vm.cumulative_variance(SINE, np.arange(1, 101) / 100), prepend=0.0)
    h2, bound = hellinger_min_form(dc, dc, 0.3)
    assert (h2, bound) == (0.0, 0.0)
    assert math.copysign(1.0, h2) == 1.0    # +0.0, not -2 expm1(0.0) = -0.0


def test_min_form_scalar_anchor():
    # n = 1: N(0, 1 + delta^2) vs N(0, s2 + delta^2), the scalar closed forms
    delta, s2 = 0.5, 2.0
    v1, v2 = 1.0 + delta**2, s2 + delta**2
    h2, bound = hellinger_min_form([1.0], [s2], delta)
    assert h2 == pytest.approx(2 - 2 * np.sqrt(2 * np.sqrt(v1 * v2) / (v1 + v2)), rel=1e-14)
    assert bound == pytest.approx(2 * (v2 / v1 - 1) ** 2, rel=1e-14)


@pytest.mark.parametrize("dc1, dc2, delta, name", [
    ([1.0, -5.0, 1.0], [1.0, 1.0, 1.0], 0.1, "first"),     # first covariance indefinite
    ([1.0, 1.0, 1.0], [1.0, 1.0, -5.0], 0.1, "second"),    # second covariance indefinite
    ([1.0, 0.0], [1.0, 1.0], 0.0, "first"),                # first covariance singular: a zero pivot
    ([1.0, np.nan], [1.0, 1.0], 0.1, "first"),             # a NaN pivot passes dpttrf's own test
], ids=["first", "second", "zero-pivot", "nan"])
def test_min_form_non_pd_raises(dc1, dc2, delta, name):
    # a LinAlgError, which the benchmark counts as a failed operation
    with pytest.raises(np.linalg.LinAlgError, match=f"{name} covariance is not positive definite: pivot") as err:
        hellinger_min_form(dc1, dc2, delta)
    assert err.type is NotPositiveDefiniteError


def test_min_form_rejects_mismatched_increments():
    with pytest.raises(ValueError, match="incompatible increments"):
        hellinger_min_form([1.0, 1.0], [1.0], 0.1)
    with pytest.raises(ValueError, match="incompatible increments"):
        hellinger_min_form([], [], 0.1)


def test_decay_reaches_2_16():
    # a dense 2^16 pair needs 32 GiB, so this sweep also guards the O(n) path
    result = hellinger_decay(SINE, 0.3, [2**k for k in range(6, 17)])
    assert result.slope <= -1.7
    assert all(b >= h > 0 for b, h in zip(result.bound_values, result.h2_values))


def test_oscillating_gap_stabilizes():
    vals = {n: oscillating_gap(n) * np.sqrt(n) for n in (2**8, 2**10, 2**12)}
    lo, hi = min(vals.values()), max(vals.values())
    assert hi / lo < 1.10
    # leading constant is 1/16
    assert vals[2**12] == pytest.approx(1 / 16, rel=0.02)


def test_oscillating_gap_monotone():
    gaps = [oscillating_gap(n) for n in (2**6, 2**8, 2**10, 2**12, 2**14)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        oscillating_gap(1)
