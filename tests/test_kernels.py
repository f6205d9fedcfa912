from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specvol import _kernels as kk
from specvol.spectral import antiderivative_integral


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


def cell_oracle(dY, K, J):
    """The per-cell weights of brute_force_coefficients, vectorised over (j, k, i)."""
    n = dY.size
    h = 1.0 / K
    j = np.arange(1, J + 1, dtype=np.float64)[:, None, None]
    k = np.arange(K)[None, :, None]
    edges = np.arange(n + 1) / n
    lo = np.clip(edges[:-1], k * h, (k + 1) * h)
    hi = np.clip(edges[1:], k * h, (k + 1) * h)
    c = np.sqrt(2.0 * h) * h / (np.pi ** 2 * j ** 2)
    w = n * c * (np.cos(j * np.pi * (hi - k * h) / h) - np.cos(j * np.pi * (lo - k * h) / h))
    return w @ dY


def run_strategies(dY, K, J):
    n = dY.size
    table = kk.piece_table(n, K)
    scale = kk.coefficient_scales(n, K, J)
    out = {"pass": kk._pass_sums(table, dY, J, scale)}
    if J <= table.bw:
        out["dct"] = kk._dct_sums(table, dY, J, scale)
    return out


@pytest.mark.parametrize("n,K,J", [(64, 4, 3), (50, 7, 4), (33, 5, 2)])
def test_numpy_kernel_matches_brute_force(rng, n, K, J):
    dY = rng.standard_normal(n)
    want = brute_force_coefficients(dY, n, K, J)
    got = run_strategies(dY, K, J)
    assert set(got) == {"pass", "dct"}
    for y in got.values():
        assert np.allclose(y, want, rtol=1e-12, atol=1e-14)


@st.composite
def layouts(draw):
    n = draw(st.integers(2, 240))
    if draw(st.booleans()):  # aligned: block edges fall on cell edges
        K = draw(st.sampled_from([K for K in range(1, n // 2 + 1) if n % K == 0]))
    else:
        K = draw(st.integers(1, n // 2))
    bw = n // gcd(n, K)
    J = draw(st.integers(1, min(bw + 3, 40)))
    return n, K, J


@settings(max_examples=80, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1))
@example((96, 48, 2), 1)   # n*h = 2 exactly
@example((90, 36, 7), 2)   # J > bw = 5
def test_strategies_agree_with_cell_oracle(layout, seed):
    n, K, J = layout
    dY = np.random.default_rng(seed).standard_normal(n)
    want = cell_oracle(dY, K, J)
    got = run_strategies(dY, K, J)
    tol = 1e-11 * np.max(np.abs(want))
    for y in got.values():
        assert np.max(np.abs(y - want)) <= tol
    if "dct" in got:
        assert np.max(np.abs(got["dct"] - got["pass"])) <= tol
    else:
        assert not kk.use_dct(n, K, J)
    # the public entry point returns the chosen strategy's output unchanged
    chosen = "dct" if kk.use_dct(n, K, J) else "pass"
    assert np.array_equal(kk.block_sums(dY, K, J), got[chosen])


@pytest.mark.parametrize("n,K,J", [(4096, 40, 16), (1000, 7, 13), (250, 40, 3)])
def test_dense_chunks_match_one_chunk(rng, monkeypatch, n, K, J):
    dY = rng.standard_normal(n)
    table = kk.piece_table(n, K)
    scale = kk.coefficient_scales(n, K, J)
    whole = kk._dct_sums(table, dY, J, scale)
    monkeypatch.setattr(kk, "_DENSE_CHUNK", 3 * (table.bw + 1) - 1)  # two blocks per chunk
    chunked = kk._dct_sums(table, dY, J, scale)
    assert np.allclose(chunked, whole, rtol=1e-12, atol=1e-14 * np.max(np.abs(whole)))


def test_strategy_rule():
    assert kk.use_dct(2**16, 32, 192)          # main grid: every frequency at once
    assert kk.use_dct(2**18, 160, 64)
    assert not kk.use_dct(2**16, 2560, 1)      # spot grid: one pass
    assert not kk.use_dct(10**5, 3162, 15)     # L/n = 1581: the dense grid would be huge
    assert not kk.use_dct(90, 36, 7)           # J > bw = 5


def test_geometry_structure():
    n, K = 80, 7
    t = kk.piece_table(n, K)
    assert t.starts[0] == 0 and t.starts[-1] == t.cell.size
    for k in range(K):
        sl = slice(t.starts[k], t.starts[k + 1])
        assert np.all(t.block[sl] == k)
        assert np.all(np.diff(t.cell[sl]) == 1)  # contiguous cells per block
        assert t.m_lo[sl][0] == 0 and t.m_hi[sl][-1] == t.bw
        assert np.all(t.m_lo[sl][1:] == t.m_hi[sl][:-1])  # pieces tile the block
        assert np.all(t.m_hi[sl] > t.m_lo[sl])
        # pieces cover each block: piece widths sum to bw grid units
        assert np.sum(t.m_hi[sl] - t.m_lo[sl]) == t.bw


def test_geometry_aligned_case():
    t = kk.piece_table(64, 4)
    assert t.bw == 16
    assert np.all(np.diff(t.starts) == 16)
    assert np.all(t.m_hi - t.m_lo == 1)
    assert np.array_equal(t.cell, np.arange(64))


def test_block_normalizers_match_full_covariance():
    n, K, delta, sigma2 = 80, 7, 0.1, 1.3
    h = 1.0 / K
    # exact covariance of the increment vector (noise has no epsilon_0 term)
    cov = np.diag(np.full(n, sigma2 / n)) + delta**2 * (
        2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    )
    cov[0, 0] -= delta**2
    s, nu = kk.block_normalizers(n, K, delta, 1)
    for k in range(K):
        w = np.array([-n * antiderivative_integral(1, k, h, (i - 1) / n, i / n) for i in range(1, n + 1)])
        exact = w @ cov @ w
        assert s[k] * sigma2 + nu[k] == pytest.approx(exact, rel=1e-12)


def test_normalizers_approach_oracle_levels():
    # many cells per block: s -> h^2/pi^2, nu -> delta^2/n
    n, K, delta = 2**16, 16, 0.1
    s, nu = kk.block_normalizers(n, K, delta, 1)
    h = 1.0 / K
    assert np.allclose(s, h**2 / np.pi**2, rtol=1e-5)
    assert np.allclose(nu, delta**2 / n, rtol=1e-3)


def test_active_backend_reports():
    assert kk.active_backend() == "numpy"
