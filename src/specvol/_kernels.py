"""The block-coefficient transform: one exact sum on a common integer grid.

Observations live on cells [(i-1)/n, i/n]; block k covers [k/K, (k+1)/K].
Each block is cut into pieces by the cell edges.  With bw = n / gcd(n, K),
every piece edge inside a block is an integer m on the grid u = m / bw,
0 <= m <= bw.  For a piece [m_lo, m_hi] of block k cut from cell i, the
frequency-j coefficient picks up

    scale_j * (cos(j*pi*m_hi/bw) - cos(j*pi*m_lo/bw)) * dY[i]

with scale_j = n * sqrt(2h) * h / (pi^2 j^2): the exact integral of the sine
antiderivative over the piece, times n, applied to the increment.  Summation
by parts turns the block sum into one cosine sum on the grid,

    y[j,k] = scale_j * sum_{m=0..bw} cos(j*pi*m/bw) * g[k,m],

where g[k] holds +dY[i] at each piece's upper edge and -dY[i] at its lower
edge.  The piece table of an (n, K) layout is built once by integer
arithmetic and cached.  Two strategies evaluate the sum:

- dense: a DCT-I over rows of g, which yields every frequency j <= bw at
  once, sum = (X_j + g[k,0] + (-1)^j g[k,bw]) / 2.  g is built a chunk of
  blocks at a time, so memory stays flat however large L = K * bw is;
- pass: one sweep over the pieces per frequency with a cosine table of only
  bw + 1 values.

`use_dct` picks one from (n, K, J) alone, so the result does not depend on
anything but the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
from scipy import fft

# A dense grid entry (zero-fill, scatter, DCT butterfly, read-out) costs about
# as much as two piece terms of the per-frequency pass.
_DENSE_COST = 2.0
# Dense grid entries per DCT call: bounds the transient memory of one call.
_DENSE_CHUNK = 1 << 17


def active_backend() -> str:
    # The benchmark records this string with every run.
    return "numpy"


@dataclass(frozen=True)
class PieceTable:
    """Pieces of one (n, K) layout, in block order, cells ascending per block."""

    K: int
    bw: int               # block width in grid units: edges are m = 0..bw
    cell: np.ndarray      # (P,) 0-based cell index into the increment vector
    block: np.ndarray     # (P,) block index
    m_lo: np.ndarray      # (P,) lower edge on the block's grid
    m_hi: np.ndarray      # (P,) upper edge on the block's grid
    starts: np.ndarray    # (K+1,) piece offsets per block


@lru_cache(maxsize=16)
def piece_table(n: int, K: int) -> PieceTable:
    """Exact piece decomposition in integer arithmetic, without a Python loop."""
    if K < 1 or n < 1:
        raise ValueError("n and K must be positive")
    g = gcd(n, K)
    cw, bw = K // g, n // g          # cell and block widths in units of 1/lcm(n, K)
    lo = np.arange(K, dtype=np.int64) * bw
    first = lo // cw                 # first cell meeting (lo, lo + bw)
    count = (lo + bw - 1) // cw - first + 1
    starts = np.concatenate([[0], np.cumsum(count)])
    block = np.repeat(np.arange(K, dtype=np.int64), count)
    cell = np.arange(starts[-1], dtype=np.int64) - starts[block] + first[block]
    base = lo[block]
    m_lo = np.maximum(cell * cw, base) - base
    m_hi = np.minimum((cell + 1) * cw, base + bw) - base
    arrays = [a.astype(np.int32) for a in (cell, block, m_lo, m_hi, starts)]
    for a in arrays:
        a.setflags(write=False)
    return PieceTable(K, bw, *arrays)


def coefficient_scales(n: int, K: int, J: int) -> np.ndarray:
    h = 1.0 / K
    j = np.arange(1, J + 1, dtype=np.float64)
    return n * np.sqrt(2.0 * h) * h / (np.pi ** 2 * j ** 2)


def use_dct(n: int, K: int, J: int) -> bool:
    """True when the dense DCT is cheaper than J passes over the pieces.

    A pass touches about n + K pieces and a cosine table of bw + 1 values;
    the dense grid has K * (bw + 1) entries.  The DCT returns frequencies up
    to bw only, so larger J takes the pass.
    """
    bw = n // gcd(n, K)
    return J <= bw and J * (n + K + bw + 1) > _DENSE_COST * K * (bw + 1)


def _cosines(table: PieceTable, j: int) -> np.ndarray:
    return np.cos((j * np.pi) * (np.arange(table.bw + 1) / table.bw))


def _pass_sums(table: PieceTable, dY: np.ndarray, J: int, scale: np.ndarray) -> np.ndarray:
    out = np.empty((J, table.K), dtype=np.float64)
    d = dY[table.cell]
    for j in range(1, J + 1):
        c = _cosines(table, j)
        out[j - 1] = scale[j - 1] * np.add.reduceat((c[table.m_hi] - c[table.m_lo]) * d, table.starts[:-1])
    return out


def _dct_sums(table: PieceTable, dY: np.ndarray, J: int, scale: np.ndarray) -> np.ndarray:
    K, bw = table.K, table.bw
    out = np.empty((J, K), dtype=np.float64)
    half_scale = 0.5 * scale[:, None]
    sign = np.where(np.arange(1, J + 1) % 2 == 0, 1.0, -1.0)[:, None]
    rows = max(1, _DENSE_CHUNK // (bw + 1))
    for k0 in range(0, K, rows):
        k1 = min(K, k0 + rows)
        p = slice(table.starts[k0], table.starts[k1])
        blk = table.block[p] - k0
        d = dY[table.cell[p]]
        g = np.zeros((k1 - k0, bw + 1))
        g[blk, table.m_hi[p]] = d      # edges are distinct within a block,
        g[blk, table.m_lo[p]] -= d     # so neither scatter collides
        edges = g[:, 0] + sign * g[:, bw]
        X = fft.dct(g, type=1, axis=1, overwrite_x=True)[:, 1:J + 1].T
        out[:, k0:k1] = half_scale * (X + edges)
    return out


def block_sums(dY: np.ndarray, K: int, J: int) -> np.ndarray:
    """Coefficients y[j-1,k] of the increments dY on K blocks, frequencies 1..J."""
    dY = np.asarray(dY, dtype=np.float64)
    n = dY.size
    table = piece_table(n, K)
    scale = coefficient_scales(n, K, J)
    if use_dct(n, K, J):
        return _dct_sums(table, dY, J, scale)
    return _pass_sums(table, dY, J, scale)


@lru_cache(maxsize=16)
def block_normalizers(n: int, K: int, delta: float, j: int = 1):
    """Exact per-block second-moment decomposition of the discrete statistic.

    For the frequency-j coefficient on the (n, K) layout with noise level
    delta, returns (s, nu) with E[y_jk^2] = s_k * sigma^2(k/K) + nu_k exactly
    when sigma^2 is constant on block k: s_k sums the squared piece weights
    over full cells, nu_k is the variance of the summation-by-parts noise
    coefficients.  These converge to (h^2/(pi^2 j^2), delta^2/n) as the cell
    count per block grows.
    """
    table = piece_table(n, K)
    c = _cosines(table, j)
    w = coefficient_scales(n, K, j)[j - 1] * (c[table.m_hi] - c[table.m_lo])
    s = np.add.reduceat(w * w, table.starts[:-1]) / n
    # Noise weights: block k has one more edge than pieces, so piece p's
    # edges sit at p + k and p + k + 1.  eps_i enters with the weight of its
    # cell minus that of the next cell; eps_0 = 0 drops the lower edge of
    # cell 0 in every block that it starts.
    lower = np.arange(w.size) + table.block
    A = np.zeros(w.size + K)
    A[lower + 1] = w
    A[lower] -= w
    A[lower[table.cell == 0]] = 0.0
    nu = delta ** 2 * np.add.reduceat(A * A, table.starts[:-1] + np.arange(K))
    s.setflags(write=False)
    nu.setflags(write=False)
    return s, nu
