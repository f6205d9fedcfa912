from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import antiderivative_integral, cell_oracle
from specvol import _kernels as kk


def brute_force_coefficients(dY, n, K, J):
    """Naive per-cell evaluation of the exact-integral weights."""
    h = 1.0 / K
    out = np.zeros((J, K))
    for j in range(1, J + 1):
        for k in range(K):
            total = 0.0
            for i in range(1, n + 1):
                w = -n * antiderivative_integral(j, k, h, (i - 1) / n, i / n)
                total += w * dY[i - 1]
            out[j - 1, k] = total
    return out


@contextmanager
def patched(**values):
    """Set module constants of _kernels for the length of the block."""
    saved = {name: getattr(kk, name) for name in values}
    for name, value in values.items():
        setattr(kk, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(kk, name, value)


def run_evaluators(dY, K, J):
    """Every evaluator that applies to the layout, named.

    The class products run one class at a time on strided views ("views") and
    batched over gathered windows ("batched"), each with the layout's weights
    in one piece and built a few whole classes at a time ("-chunked"); the
    sine transform runs on aligned layouts with J <= bw.
    """
    n = dY.size
    plan = kk.class_plan(n, K)
    dst = plan.cw == 1 and J <= plan.bw
    # The products never run a DST layout (1 < J <= bw): there they run
    # frequencies 1..bw + 1 and keep the first J.  The DST runs J = 1 as the
    # first frequency of J = 2 (bw >= 2).
    Jp = plan.bw + 1 if dst and J > 1 else J

    def products(name, **constants):
        with patched(**constants):
            lay = kk.layout.__wrapped__(n, K, Jp)    # uncached: built under the patched constants
        assert lay.evaluator == name.removesuffix("-chunked")
        assert (lay.weights is None) == name.endswith("-chunked")
        return kk._class_products(lay, dY)[:J]

    out = {}
    for name, view_cells in (("views", 0), ("batched", n + 1)):
        out[name] = products(name, _VIEW_CELLS=view_cells)
        # two classes per chunk
        with patched(_CHUNK_BYTES=2 * 8 * plan.cmax * (Jp + plan.g)):
            out[name + "-chunked"] = products(name + "-chunked", _VIEW_CELLS=view_cells, _PLAN_BYTES=0)
    if dst:
        out["dst"] = kk._dst_sums(kk.layout(n, K, max(J, 2)), dY)[:J]
    return out


def chosen_evaluator(n, K, J):
    lay = kk.layout(n, K, J)
    return lay.evaluator if lay.weights is not None else lay.evaluator + "-chunked"


@pytest.mark.parametrize("n,K,J", [(64, 4, 3), (50, 7, 4), (33, 5, 2)])
def test_numpy_kernel_matches_brute_force(rng, n, K, J):
    dY = rng.standard_normal(n)
    want = brute_force_coefficients(dY, n, K, J)
    got = run_evaluators(dY, K, J)
    assert ("dst" in got) == (n % K == 0)
    for y in got.values():
        assert np.allclose(y, want, rtol=1e-12, atol=1e-14)
    assert np.array_equal(kk.block_sums(dY, K, J), got[chosen_evaluator(n, K, J)])


@st.composite
def layouts(draw):
    kind = draw(st.sampled_from(["aligned", "any", "many classes"]))
    n = draw(st.integers(2 if kind != "many classes" else 40, 240))
    if kind == "aligned":  # block edges fall on cell edges
        K = draw(st.sampled_from([K for K in range(1, n // 2 + 1) if n % K == 0]))
    elif kind == "any":
        K = draw(st.integers(1, n // 2))
    else:  # many classes of few blocks each
        K = draw(st.sampled_from([K for K in range(1, n // 2 + 1) if K // gcd(n, K) > 12]))
    bw = n // gcd(n, K)
    J = draw(st.integers(1, min(bw + 3, 40)))
    return n, K, J


@settings(max_examples=80, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1))
@example((96, 48, 2), 1)   # n*h = 2 exactly
@example((90, 36, 7), 2)   # J > bw = 5
@example((64, 32, 3), 3)   # aligned, J > bw = 2: class products
@example((239, 100, 3), 4) # 100 classes of one block each
@example((109, 1, 1), 219978)  # want = -1.3e-5 cancels from increments of total size 83
def test_strategies_agree_with_cell_oracle(layout, seed):
    n, K, J = layout
    dY = np.random.default_rng(seed).standard_normal(n)
    want = cell_oracle(dY, K, J)
    got = run_evaluators(dY, K, J)
    # the rounding error of a sum scales with its terms, not its result, and
    # every weight is at most twice the first frequency's scale
    tol = 1e-11 * 2 * kk.coefficient_scales(n, K, 1)[0] * np.sum(np.abs(dY))
    for y in got.values():
        assert np.max(np.abs(y - want)) <= tol
    # the public entry point returns the chosen evaluator's output unchanged
    assert np.array_equal(kk.block_sums(dY, K, J), got[chosen_evaluator(n, K, J)])


@pytest.mark.parametrize("n,K,J", [(4096, 40, 16), (1000, 7, 13), (250, 40, 3)])
def test_dense_chunks_match_one_chunk(rng, n, K, J):
    """Weights built one whole class at a time give the products of the cached
    weights bit for bit."""
    dY = rng.standard_normal(n)
    whole = kk.block_sums(dY, K, J)
    assert kk.layout(n, K, J).evaluator != "dst" and kk.layout(n, K, J).weights is not None
    with patched(_PLAN_BYTES=0):
        lay = kk.layout.__wrapped__(n, K, J)
    calls, weights = [], kk._weights

    def counted(plan, scale, r0=0, r1=None):
        calls.append((r0, r1))
        return weights(plan, scale, r0, r1)

    with patched(_CHUNK_BYTES=1, _weights=counted):  # one class per chunk
        chunked = kk._class_products(lay, dY)
    assert calls == [(r, r + 1) for r in range(lay.plan.cw)]
    assert np.array_equal(chunked, whole)


def test_weights_above_bound_are_not_cached(rng):
    assert kk.layout(2**18, 160, 64).weights is not None              # 4.2 MB of weights
    assert kk.layout(2**18, 260, 64).weights is None                  # 34 MB
    assert kk._PLAN_BYTES * kk._CACHED_LAYOUTS == 64 * 2**20          # the whole cache
    n, K, J = 1000, 7, 13
    plan = kk.class_plan(n, K)
    with patched(_PLAN_BYTES=8 * plan.cw * plan.cmax * J - 1):
        assert kk.layout.__wrapped__(n, K, J).weights is None
    assert kk.layout.__wrapped__(n, K, J).weights.nbytes == 8 * plan.cw * plan.cmax * J
    # eight layouts are kept, so the weights cached take at most 8 * _PLAN_BYTES
    kk.layout.cache_clear()
    layouts = [(1000, 7, 13), (250, 40, 3), (4096, 40, 16)] + [(7 * m + 1, 7, 2) for m in range(40, 49)]
    for n, K, J in layouts:
        kk.block_sums(rng.standard_normal(n), K, J)
    assert kk.layout.cache_info().currsize == 8


def test_nonfinite_increment_stays_in_its_blocks():
    for n, K, J in [(239, 100, 2), (239, 100, 1), (80, 7, 3), (64, 4, 3)]:
        for cell in (0, n // 2, n - 1):
            dY = np.ones(n)
            dY[cell] = np.nan
            touched = np.array([cell in direct_edges(n, K, k)[0] for k in range(K)])
            for name, y in run_evaluators(dY, K, J).items():
                assert np.all(np.isnan(y[:, touched])), name
                assert np.all(np.isfinite(y[:, ~touched])), name


def test_strategy_rule():
    def evaluator(n, K, J):
        return kk.layout(n, K, J).evaluator

    assert evaluator(2**16, 32, 192) == "dst"          # aligned main grid: every frequency at once
    assert evaluator(2**18, 160, 64) != "dst"          # five offset classes: class products
    assert evaluator(2**16, 2560, 1) != "dst"          # spot grid: one reduction per class
    assert evaluator(64, 4, 1) != "dst"                # aligned, but J = 1
    assert evaluator(64, 32, 3) != "dst"               # aligned, but J > bw = 2
    assert evaluator(10**5, 3162, 15) != "dst"         # 1581 classes of two blocks


def test_view_rule():
    # classes of at least 4096 cells run on strided views, smaller ones are batched
    def evaluator(n, K):
        return kk.layout(n, K, 1).evaluator

    assert evaluator(2**16, 2560) == "views"           # 5 classes of 13107 cells
    assert evaluator(2**18, 160) == "views"            # 5 classes of 52429 cells
    assert evaluator(4096, 4096) == "views"            # one class of 4096 cells
    assert evaluator(4096, 20) == "batched"            # 5 classes of 819 cells
    assert evaluator(2**16, 2**15 + 1) == "batched"    # 32769 classes of 2 cells
    assert evaluator(100003, 3162) == "batched"        # 3162 classes of 32 cells


def direct_edges(n, K, k):
    """Cells and piece edges of block k, from exact rational arithmetic."""
    lo, hi = Fraction(k, K), Fraction(k + 1, K)
    bw = n // gcd(n, K)
    cells = [i for i in range(n) if Fraction(i, n) < hi and Fraction(i + 1, n) > lo]
    cuts = [lo] + [Fraction(i, n) for i in cells[1:]] + [hi]
    return cells, [int((u - lo) * K * bw) for u in cuts]


def test_geometry_structure():
    for n, K in [(80, 7), (60, 8), (97, 40), (64, 4)]:
        check_class_plan(n, K)


def check_class_plan(n, K):
    plan = kk.class_plan(n, K)
    assert plan.g * plan.cw == K and plan.g * plan.bw == n
    for r in range(plan.cw):
        c = plan.count[r]
        e = plan.edges[r]
        # the class's pieces tile [0, bw]; padding pieces are empty at bw
        assert e[0] == 0 and e[c] == plan.bw
        assert np.all(np.diff(e[:c + 1]) > 0)
        assert np.all(e[c:] == plan.bw)
        assert plan.first[r] == r * plan.bw // plan.cw
    for k in range(K):
        r, i = k % plan.cw, k // plan.cw
        cells, edges = direct_edges(n, K, k)
        # every block of a class has the class's edges, at its own cells
        assert cells == list(range(plan.first[r] + i * plan.bw, plan.first[r] + i * plan.bw + plan.count[r]))
        assert edges == list(plan.edges[r, :plan.count[r] + 1])
        if k + plan.cw < K:
            # block k + cw starts bw cells after block k
            assert direct_edges(n, K, k + plan.cw)[0][0] == cells[0] + plan.bw


def test_geometry_aligned_case():
    plan = kk.class_plan(64, 4)
    assert (plan.g, plan.cw, plan.bw) == (4, 1, 16)
    assert list(plan.first) == [0] and list(plan.count) == [16]
    assert np.array_equal(plan.edges[0], np.arange(17))


def full_covariance_moments(n, K, delta, j):
    """(s_k, nu_k) from per-cell weights and the exact increment covariance."""
    h = 1.0 / K
    noise = delta**2 * (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    noise[0, 0] -= delta**2  # the increments have no epsilon_0 term
    out = []
    for k in range(K):
        w = np.array([-n * antiderivative_integral(j, k, h, (i - 1) / n, i / n) for i in range(1, n + 1)])
        out.append((w @ w / n, w @ noise @ w))
    return np.array(out).T


def test_block_normalizers_match_full_covariance():
    n, K, delta, sigma2 = 80, 7, 0.1, 1.3
    s, nu = kk.block_normalizers(n, K, delta, 1)
    s_want, nu_want = full_covariance_moments(n, K, delta, 1)
    for k in range(K):
        exact = s_want[k] * sigma2 + nu_want[k]
        assert s[k] * sigma2 + nu[k] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n,K,j", [(97, 40, 1), (60, 8, 2), (64, 4, 3)])
def test_block_normalizers_per_class(n, K, j):
    # many classes, several classes and blocks per class, one aligned class
    s, nu = kk.block_normalizers(n, K, 0.1, j)
    s_want, nu_want = full_covariance_moments(n, K, 0.1, j)
    assert np.allclose(s, s_want, rtol=1e-12, atol=0)
    assert np.allclose(nu, nu_want, rtol=1e-12, atol=0)


def test_normalizers_approach_oracle_levels():
    # many cells per block: s -> h^2/pi^2, nu -> delta^2/n
    n, K, delta = 2**16, 16, 0.1
    s, nu = kk.block_normalizers(n, K, delta, 1)
    h = 1.0 / K
    assert np.allclose(s, h**2 / np.pi**2, rtol=1e-5)
    assert np.allclose(nu, delta**2 / n, rtol=1e-3)


def test_active_backend_reports():
    assert kk.active_backend() == "numpy"
