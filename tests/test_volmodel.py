import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import any_specs, piecewise_specs, sinusoid_specs
from specvol import volmodel as vm
from specvol.volmodel import Constant, DomainError, Oscillating, PiecewiseConstant, Sinusoid

# frozen from the 1e7-point midpoint Riemann oracle below
SINUSOID_P3 = 1.0474613806590203


def riemann_power(spec, p, points=10**7):
    ts = (np.arange(points) + 0.5) / points
    return float(np.mean(vm.sigma_squared(spec, ts) ** (p / 2)))


def test_eval_examples():
    assert vm.sigma_squared(Constant(1.0), 0.37) == 1.0
    assert vm.sigma_squared(Oscillating(16), 0.0) == 1.5  # 16^(-1/4) = 1/2 exactly
    assert vm.sigma_squared(Sinusoid(1, 0.5, 1, 0), 0.25) == pytest.approx(1.5, abs=1e-15)
    assert vm.sigma_squared(PiecewiseConstant((1.0, 4.0)), 0.75) == 4.0


def test_eval_domain_error():
    with pytest.raises(DomainError):
        vm.sigma_squared(Constant(1.0), 1.5)
    with pytest.raises(DomainError):
        vm.sigma_squared(Constant(1.0), -0.1)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        PiecewiseConstant(())
    with pytest.raises(ValueError):
        PiecewiseConstant((1.0, -2.0))
    with pytest.raises(ValueError):
        Sinusoid(1.0, 1.0, 1, 0.0)  # min sigma^2 would hit zero
    with pytest.raises(ValueError):
        Oscillating(1)


def test_integrated_power_closed_forms():
    assert vm.integrated_power(Constant(1.0), 3) == 1.0
    assert vm.integrated_power(PiecewiseConstant((1.0, 4.0)), 2) == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(DomainError):
        vm.integrated_power(Constant(1.0), 2, 0.5, 0.2)


def test_integrated_power_sinusoid_vs_riemann_oracle():
    spec = Sinusoid(1, 0.5, 1, 0)
    got = vm.integrated_power(spec, 3)
    assert got == pytest.approx(SINUSOID_P3, abs=1e-12)
    assert got == pytest.approx(riemann_power(spec, 3), abs=1e-9)


def test_integrated_power_oscillating_vs_riemann_oracle():
    spec = Oscillating(64)
    got = vm.integrated_power(spec, 3)
    assert got == pytest.approx(riemann_power(spec, 3), abs=1e-9)
    # partial range crossing cell edges
    got2 = vm.integrated_power(spec, 3, 0.013, 0.77)
    f = lambda t: vm.sigma_squared(spec, t) ** 1.5
    ts = 0.013 + (np.arange(10**7) + 0.5) / 10**7 * (0.77 - 0.013)
    assert got2 == pytest.approx((0.77 - 0.013) * np.mean(f(ts)), abs=1e-9)


def test_cumulative_variance_examples():
    assert vm.cumulative_variance(Constant(2.0), 0.5) == 1.0
    assert vm.cumulative_variance(Sinusoid(1, 0.5, 2, 0.3), 0.0) == 0.0
    assert vm.cumulative_variance(Constant(2.0), 1.2) == pytest.approx(1.6, abs=1e-15)
    with pytest.raises(DomainError):
        vm.cumulative_variance(Constant(1.0), 2.5)
    with pytest.raises(DomainError):
        vm.cumulative_variance(Constant(1.0), -0.01)


@settings(max_examples=60, deadline=None)
@given(any_specs(), st.floats(0.0, 1.0, allow_nan=False))
def test_cumvar_matches_power2(spec, t):
    assert vm.integrated_power(spec, 2, 0.0, t) == pytest.approx(
        vm.cumulative_variance(spec, t), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(
    any_specs(),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([2.0, 3.0, 4.0]),
)
def test_additivity(spec, x, y, z, p):
    a, b, c = sorted((x, y, z))
    whole = vm.integrated_power(spec, p, a, c)
    split = vm.integrated_power(spec, p, a, b) + vm.integrated_power(spec, p, b, c)
    assert whole == pytest.approx(split, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.one_of(piecewise_specs(), sinusoid_specs()))
def test_jensen_gap(spec):
    p4 = vm.integrated_power(spec, 4)
    p3 = vm.integrated_power(spec, 3)
    if isinstance(spec, PiecewiseConstant) and len(set(spec.values)) == 1:
        assert p4 == pytest.approx(p3 ** (4 / 3), abs=1e-12)
    elif isinstance(spec, Sinusoid) and spec.amplitude == 0.0:
        assert p4 == pytest.approx(p3 ** (4 / 3), abs=1e-12)
    else:
        assert p4 > p3 ** (4 / 3) - 1e-12


def test_jensen_equality_for_constant():
    p4 = vm.integrated_power(Constant(2.7), 4)
    p3 = vm.integrated_power(Constant(2.7), 3)
    assert p4 == pytest.approx(p3 ** (4 / 3), abs=1e-12)


@pytest.mark.parametrize("n", [2, 16, 333, 4096])
def test_oscillating_cell_integrals_exact(n):
    spec = Oscillating(n)
    cells = range(1, n + 1) if n <= 16 else [1, 2, n // 3, n // 2, n - 1, n]
    for i in cells:
        val = vm.integrated_power(spec, 2, (i - 1) / n, i / n)
        assert val == pytest.approx(1.0 / n, abs=1e-14)


def test_cumvar_antiderivative_vs_quadrature():
    for spec in [Constant(1.7), PiecewiseConstant((0.5, 2.0, 1.0)), Sinusoid(1, 0.4, 2, 0.7), Oscillating(8)]:
        a_fn = lambda t: vm.cumulative_variance(spec, t)
        for t in [0.3, 0.9, 1.0, 1.4, 2.0]:
            oracle, _ = quad(a_fn, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=800)
            assert vm.cumulative_variance_antiderivative(spec, t) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(any_specs())
def test_json_roundtrip(spec):
    again = vm.spec_from_json(vm.spec_to_json(spec))
    assert again == spec


def test_json_errors():
    with pytest.raises(ValueError):
        vm.spec_from_json({"no": "kind"})
    with pytest.raises(ValueError):
        vm.spec_from_json({"kind": "mystery"})
    for data, field in [
        ({"kind": "sinusoid", "base": 1.0, "amplitude": 0.5, "cycles": 2.7}, "$.cycles"),
        ({"kind": "oscillating", "n": 64.0}, "$.n"),
        ({"kind": "constant", "level": True}, "$.level"),
        ({"kind": "constant"}, "$.level"),
        ({"kind": "piecewise_constant", "values": [1.0, None]}, "$.values[1]"),
        ({"kind": "constant", "level": 1.0, "lvl": 2.0}, "$.lvl"),
        ({"no": "kind"}, "$.kind"),
        ([1.0], "$"),
        ({"kind": "constant", "level": -1.0}, "$"),
    ]:
        with pytest.raises(vm.ConfigError) as info:
            vm.spec_from_json(data)
        assert info.value.field == field
    with pytest.raises(vm.ConfigError, match=r"config field \$\.base\.spec\.level: "):
        vm.spec_from_json({"kind": "constant"}, "$.base.spec")
