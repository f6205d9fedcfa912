"""The block-coefficient transform: products over offset classes of blocks.

Observations live on cells [(i-1)/n, i/n]; block k covers [k/K, (k+1)/K].
Each block is cut into pieces by the cell edges.  With g = gcd(n, K),
cw = K/g and bw = n/g, every piece edge inside a block is an integer m on
the grid u = m / bw, 0 <= m <= bw.  For a piece [m_lo, m_hi] of block k cut
from cell i, the frequency-j coefficient picks up

    scale_j * (cos(j*pi*m_hi/bw) - cos(j*pi*m_lo/bw)) * dY[i]

with scale_j = n * sqrt(2h) * h / (pi^2 j^2): the exact integral of the sine
antiderivative over the piece, times n, applied to the increment.

The K blocks fall into cw offset classes of g blocks each.  Block
k = r + i*cw starts at cell first_r + i*bw with first_r = floor(r*bw/cw) and
spans count_r cells, and every block of class r has the same piece edges.
So the increments of a class are one strided (g, count_r) view of dY, and its
coefficients are that view times one weight matrix

    D_r[p, j] = scale_j * (cos(j*pi*m_hi[p]/bw) - cos(j*pi*m_lo[p]/bw)).

One cached builder, `layout(n, K, J)`, picks the evaluator and builds the
state it reads, so the result depends on (n, K, J) alone and is the same for
any worker count, and a process can build that state before it forks
workers.  The evaluators:

- dst: on aligned grids (cw = 1, every block holds bw whole cells) and
  1 < J <= bw, piece p of a block is cell p, and

      cos(j*pi*(p+1)/bw) - cos(j*pi*p/bw)
          = -2 sin(j*pi/(2bw)) * sin(j*pi*(2p+1)/(2bw)),

  so y[j,k] = -scale_j * sin(j*pi/(2bw)) * DST-II(dY.reshape(K, bw)[k])[j-1]:
  one sine transform of the increment rows, a reshape with no copy, yields
  every frequency at once.  This keeps the main IV grid off BLAS: a threaded
  BLAS product there spins its idle thread between calls and costs more CPU
  time than it saves;
- products: everywhere else.  J = 1 is one matrix-vector reduction per class
  (einsum, no BLAS); J > 1 is a matrix product per class.  Classes of at
  least _VIEW_CELLS cells run one by one on strided views ("views"); smaller
  ones are batched through one gather of the cells of every block, cmax per
  block ("batched").  A layout keeps its weights when they fit in
  _PLAN_BYTES (8 MiB); larger weights are built a chunk at a time.

The last eight layouts are kept (the main and spot grids of the four n of a
rate regression), so the cached weights take at most 64 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Cells per class (n / cw) from which classes run one at a time on strided
# views; smaller classes are batched (the gather copies dY, each view costs a
# Python call).  Timed per call on 2 vCPUs for n = 2^12 .. 2^18, J = 1 and 64,
# 1 to 129 classes: the two paths cross between 4000 and 8000 cells per class
# for n >= 2^14, and above that the batched path is up to 14 times slower
# (2 to 6.5 times in three runs on the 13107-cell spot classes of
# 2^16/2560/1).  At 4096 the rule lost at most 13% to the faster path.
_VIEW_CELLS = 4096
# Largest weight array (cw, cmax, J) a layout keeps cached.  _CACHED_LAYOUTS
# layouts are kept, so the weight cache holds at most 8 * 8 MiB = 64 MiB; the
# largest layout of configs/rate.json (2^18/160/64) takes 4.0 MiB, and its
# eight layouts 7.9 MB in all.
_PLAN_BYTES = 1 << 23
_CACHED_LAYOUTS = 8
# Weight and window bytes built at once when the weights are not cached.
_CHUNK_BYTES = 1 << 20


def active_backend() -> str:
    # The benchmark records this string with every run.
    return "numpy"


@dataclass(frozen=True)
class ClassPlan:
    """Offset classes of one (n, K) layout: block k = r + i*cw is block i of class r."""

    g: int                # blocks per class
    cw: int               # classes
    bw: int               # block width in grid units: edges are m = 0..bw
    first: np.ndarray     # (cw,) first cell of the class's block 0
    count: np.ndarray     # (cw,) cells per block of the class
    edges: np.ndarray     # (cw, cmax + 1) piece p spans [edges[r, p], edges[r, p + 1]];
                          # pieces past count[r] are padding, [bw, bw]

    @property
    def cmax(self) -> int:
        return self.edges.shape[1] - 1


def class_plan(n: int, K: int) -> ClassPlan:
    """Exact piece edges per offset class, in integer arithmetic."""
    if K < 1 or n < 1:
        raise ValueError("n and K must be positive")
    g = gcd(n, K)
    cw, bw = K // g, n // g          # cell and block widths in units of 1/lcm(n, K)
    lo = np.arange(cw, dtype=np.int64) * bw
    first = lo // cw                 # first cell meeting (lo, lo + bw)
    count = (lo + bw - 1) // cw - first + 1
    # cell edges first_r .. first_r + cmax, clipped to the block
    cell_edge = first[:, None] + np.arange(count.max() + 1)
    edges = np.clip(cell_edge * cw - lo[:, None], 0, bw)
    for a in (first, count, edges):
        a.setflags(write=False)
    return ClassPlan(g, cw, bw, first, count, edges)


def coefficient_scales(n: int, K: int, J: int) -> np.ndarray:
    h = 1.0 / K
    j = np.arange(1, J + 1, dtype=np.float64)
    return n * np.sqrt(2.0 * h) * h / (np.pi ** 2 * j ** 2)


def _weights(plan: ClassPlan, scale: np.ndarray, j0: int, j1: int, r0: int, r1: int) -> np.ndarray:
    """(r1 - r0, cmax, j1 - j0) weights D_r[p, j] of classes r0..r1-1, frequencies j0+1..j1."""
    u = (np.pi / plan.bw) * np.arange(j0 + 1, j1 + 1, dtype=np.float64)
    c = plan.edges[r0:r1, :, None] * u
    np.cos(c, out=c)                                # one cosine per edge, shared by two pieces
    D = c[:, 1:] - c[:, :-1]
    D *= scale[j0:j1]                               # in place: the weights are the largest build
    return D


@dataclass(frozen=True)
class Layout:
    """The evaluator block_sums runs on one (n, K, J) layout, and what it reads."""

    plan: ClassPlan
    scale: np.ndarray                 # (J,) scale_j
    evaluator: str                    # "dst", "views" or "batched"
    weights: np.ndarray | None        # dst: (J,) row factor -scale_j sin(j*pi/(2bw));
                                      # else (cw, cmax, J) weights, None when built per chunk
    cells: np.ndarray | None          # batched: (g, cw, cmax) cell of piece p of block i
                                      # of class r; padding pieces read cell n, a zero


@lru_cache(maxsize=_CACHED_LAYOUTS)
def layout(n: int, K: int, J: int) -> Layout:
    """Pick the evaluator of the layout (n, K, J) and build its state."""
    plan = class_plan(n, K)
    scale = coefficient_scales(n, K, J)
    cells = None
    if plan.cw == 1 and 1 < J <= plan.bw:    # the DST returns frequencies up to bw only
        evaluator = "dst"
        weights = -scale * np.sin(np.arange(1, J + 1, dtype=np.float64) * (np.pi / (2 * plan.bw)))
    else:
        evaluator = "batched" if plan.g * plan.bw < _VIEW_CELLS * plan.cw else "views"
        fits = 8 * plan.cw * plan.cmax * J <= _PLAN_BYTES
        weights = _weights(plan, scale, 0, J, 0, plan.cw) if fits else None
        if evaluator == "batched":
            p = np.arange(plan.cmax)
            cells = plan.first[:, None] + plan.bw * np.arange(plan.g)[:, None, None] + p
            cells = np.where(p < plan.count[:, None], cells, n)
    for a in (scale, weights, cells):
        if a is not None:
            a.setflags(write=False)
    return Layout(plan, scale, evaluator, weights, cells)


def _chunks(plan: ClassPlan, J: int):
    """(r0, r1, j0, j1) chunks of classes and frequencies whose weights and
    windows stay within _CHUNK_BYTES."""
    jc = min(J, max(1, _CHUNK_BYTES // (8 * plan.cmax)))
    rc = max(1, _CHUNK_BYTES // (8 * plan.cmax * (jc + plan.g)))
    return [(r0, min(plan.cw, r0 + rc), j0, min(J, j0 + jc))
            for r0 in range(0, plan.cw, rc) for j0 in range(0, J, jc)]


def _class_products(lay: Layout, dY: np.ndarray) -> np.ndarray:
    plan, J = lay.plan, lay.scale.size
    g, cw, bw = plan.g, plan.cw, plan.bw
    step = dY.strides[0]
    out = np.empty((J, g, cw))       # out[j, i, r] is y[j, r + i*cw]
    if lay.cells is not None:
        padded = np.append(dY, 0.0)
    for r0, r1, j0, j1 in [(0, cw, 0, J)] if lay.weights is not None else _chunks(plan, J):
        D = lay.weights if lay.weights is not None else _weights(plan, lay.scale, j0, j1, r0, r1)
        if lay.cells is not None:
            X = padded[lay.cells[:, r0:r1]]                       # (g, r1 - r0, cmax)
            if j1 - j0 == 1:
                out[j0, :, r0:r1] = np.einsum("kcp,cp->kc", X, D[:, :, 0])
            else:
                out[j0:j1, :, r0:r1] = np.matmul(X.transpose(1, 0, 2), D).transpose(2, 1, 0)
        else:
            for r in range(r0, r1):
                c = int(plan.count[r])
                # block i of the class: cells first_r + i*bw .. first_r + i*bw + c - 1
                view = as_strided(dY[plan.first[r]:], shape=(g, c), strides=(bw * step, step))
                w = D[r - r0, :c]
                if j1 - j0 == 1:
                    out[j0, :, r] = np.einsum("kp,p->k", view, w[:, 0])
                else:
                    out[j0:j1, :, r] = (view @ w).T
    return out.reshape(J, g * cw)


def _dst_sums(lay: Layout, dY: np.ndarray) -> np.ndarray:
    from scipy import fft  # deferred: importing scipy costs most of a CLI start
    S = fft.dst(dY.reshape(lay.plan.g, lay.plan.bw), type=2, axis=1)[:, :lay.weights.size].T
    return lay.weights[:, None] * S


def block_sums(dY: np.ndarray, K: int, J: int) -> np.ndarray:
    """Coefficients y[j-1,k] of the increments dY on K blocks, frequencies 1..J."""
    dY = np.ascontiguousarray(dY, dtype=np.float64)
    lay = layout(dY.size, K, J)
    return _dst_sums(lay, dY) if lay.evaluator == "dst" else _class_products(lay, dY)


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
    plan = class_plan(n, K)
    w = _weights(plan, coefficient_scales(n, K, j), j - 1, j, 0, plan.cw)[:, :, 0]
    s = np.tile(np.sum(w * w, axis=1) / n, plan.g)
    # Noise weights: eps_i enters with the weight of its cell minus that of
    # the next cell, so a block's count cells give count + 1 noise weights
    # (padding pieces weigh 0).  eps_0 = 0 drops the lower edge of cell 0,
    # which only block 0 starts.
    A = np.zeros((plan.cw, plan.cmax + 1))
    A[:, 1:] = w
    A[:, :-1] -= w
    nu = np.tile(delta ** 2 * np.sum(A * A, axis=1), plan.g)
    nu[0] = delta ** 2 * np.sum(A[0, 1:] ** 2)
    s.setflags(write=False)
    nu.setflags(write=False)
    return s, nu
