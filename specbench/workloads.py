"""The four benchmark workloads.

Each workload draws its inputs from the command-line seed and hands specvol
only the configs it generated.  A pass is a whole round of operations; the
runner repeats passes until the run's time is spent.  `warm_up` is the set-up
that a fresh interpreter pays before its first warm operation: it resolves the
design and makes the cold first call per geometry.  `check` compares what the
passes produced with independent computations in `checks`.

The parameters mirror the repository's configs, scaled down to one run:
configs/mc_iv_constant.json, configs/rate.json, configs/spot.json and
configs/decay.json.  They are written out here so that an edit to those files
does not silently change the benchmark.
"""

from __future__ import annotations

import math
import random
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "specvol" / "__init__.py").is_file():
    raise SystemExit(f"specbench: the specvol sources are missing ({SRC / 'specvol'})")
sys.path.insert(0, str(SRC))

from specvol import active_backend, equivalence, estimators, harness, simulate, spectral, volmodel  # noqa: E402,F401
from specvol.simulate import SpectralCoefficients  # noqa: E402

import checks  # noqa: E402


def cpu_seconds() -> float:
    """User and system CPU of this process and of its children that have been waited for."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Meter:
    """Wall and CPU seconds spent inside its `with` blocks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._wall
        self.cpu += cpu_seconds() - self._cpu


class Workload:
    name = ""
    ops_per_pass = 1
    workers = 1

    def __init__(self, seed: int, nproc: int):
        self.rng = random.Random(seed)
        self.tracer = None

    def master_seed(self) -> int:
        # below 2^32: harness.replication_seed shifts it left by 32 bits and
        # simulate.rng_for keeps 64, so larger master seeds alias smaller ones
        return self.rng.getrandbits(32)

    def op_span(self, op):
        return self.tracer.span("bench.op", op=op) if self.tracer and self.tracer.active else nullcontext()


class McIvClt(Workload):
    """Replications of the IV Monte Carlo at n = 2^16 in one process."""

    name = "mc-iv-clt"
    ops_per_pass = 8
    base = harness.ExperimentConfig(
        spec=volmodel.Constant(1.0), n=2 ** 16, delta=0.1, replications=ops_per_pass,
        h0_rule=80.0, J_rule=192, bandwidth_rule=0.3, clip_floor=0.5,
    )
    # int sigma^2 and 8 delta int sigma^3 of the unit constant curve
    target_iv, target_avar = 1.0, 8.0 * 0.1

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        self.reports = []

    def warm_up(self):
        harness.run_iv_mc(replace(self.base, replications=1, master_seed=self.master_seed()))

    def run_pass(self, meter):
        cfg = replace(self.base, master_seed=self.master_seed())
        try:
            with meter:
                report = harness.run_iv_mc(cfg)
        except harness.TooManyFailuresError:
            return self.ops_per_pass
        self.reports.append(report)
        return len(report.failures)

    def check(self):
        # The first pass's first good replication is rebuilt from coefficients
        # summed directly per cell (one record: the direct sum costs twice the
        # transform).  The transform must match them on both grids, and the IV
        # value built from them must match the one the timed pass produced.
        report = self.reports[0]
        cfg = report.config
        index = min(set(range(cfg.replications)) - {i for i, _ in report.failures})
        obs = simulate.simulate_observations(
            cfg.spec, cfg.n, cfg.delta, harness.replication_seed(cfg.master_seed, index))
        design = harness.resolve_design(cfg)
        problems, direct = [], {}
        for label, grid in (("main grid", design.main_grid), ("spot grid", design.spot_grid)):
            y = checks.direct_coefficients(obs.values, grid.K, grid.J)
            problems += checks.coefficients(y, spectral.block_coefficients(obs, grid).y, f"mc-iv-clt {label}")
            direct[label] = SpectralCoefficients(grid=grid, y=y, source="from-observations", eps=obs.eps())
        spot = estimators.spot_estimate(direct["spot grid"], cfg.n, cfg.delta, design.bandwidth,
                                        design.block_positions, cfg.clip_floor)
        iv = estimators.integrated_volatility_estimate(
            direct["main grid"], spot, design.main_grid, cfg.delta, cfg.n,
            true_spec=cfg.spec, noise_convention=cfg.noise_convention).value
        problems += checks.rebuilt_iv(iv, report.iv_values[0], f"mc-iv-clt replication {index}")
        ivs = [v for r in self.reports for v in r.iv_values]
        return problems + checks.clt(ivs, self.base.n, self.target_iv, self.target_avar)


class RateSweep(Workload):
    """The rate regression over four n, one process pool per n."""

    name = "rate-sweep"
    n_list = (2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18)
    replications = 6
    ops_per_pass = replications * len(n_list)    # an operation is one replication at one n

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        self.workers = nproc
        self.base = harness.ExperimentConfig(
            spec=volmodel.Constant(1.0), n=self.n_list[0], delta=0.1, replications=self.replications,
            h0_rule=32.0, J_rule=64, bandwidth_rule=0.3, clip_floor=0.5, parallelism=nproc,
        )
        self.reports = []

    def warm_up(self):
        harness.run_rate_regression(replace(self.base, replications=1, master_seed=self.master_seed()),
                                    self.n_list)

    def run_pass(self, meter):
        cfg = replace(self.base, master_seed=self.master_seed())
        try:
            with meter:
                report = harness.run_rate_regression(cfg, self.n_list)
        except harness.TooManyFailuresError:
            return self.ops_per_pass
        self.reports.append((cfg, report))
        return sum(s["failed"] for s in report.summaries)

    def check(self):
        # run after every timed pass: the serial run fills this process's
        # geometry caches, which later pool workers would inherit by fork
        cfg, first = self.reports[0]
        serial = harness.run_rate_regression(replace(cfg, parallelism=1), self.n_list)
        problems = checks.identical(
            [_without_wall(s) for s in first.summaries], [_without_wall(s) for s in serial.summaries],
            "rate-sweep")
        counts = np.array([[s["replications"] for s in r.summaries] for _, r in self.reports])
        sq = np.array([np.square(r.iv_rmse) for _, r in self.reports])
        sup = np.array([r.spot_sup for _, r in self.reports])
        m = counts.sum(axis=0)
        rmse = np.sqrt((sq * counts).sum(axis=0) / m)
        problems += checks.rate_slope(self.n_list, rmse, int(m.min()))
        return problems + checks.spot_falls(self.n_list, (sup * counts).sum(axis=0) / m)


def _without_wall(summary):
    return {k: v for k, v in summary.items() if k != "wall_time"}


class SpotCurve(Workload):
    """Simulate, transform on the spot grid and evaluate the spot curve, per record."""

    name = "spot-curve"
    ops_per_pass = 64
    spec = (1.0, 0.5, 1, 0.0)      # sinusoid base, amplitude, cycles, phase
    n, delta, bandwidth, clip_floor = 2 ** 16, 0.1, 0.2, 1e-4
    cfg = harness.ExperimentConfig(
        spec=volmodel.Sinusoid(*spec), n=n, delta=delta, replications=1, clip_floor=clip_floor,
        spot_eval_points=257,
    )

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        self.rv = []
        self.windows = []           # the rebuilt unclipped curves at the interior points
        self.mismatch = []          # relative error of each timed curve against its rebuild
        self.passes = 0
        self.K = harness.resolve_design(self.cfg).spot_grid.K
        self.t = np.linspace(0.0, 1.0, self.cfg.spot_eval_points)
        self.interior = (self.t >= self.bandwidth) & (self.t <= 1.0 - self.bandwidth)

    def _op(self, master, i):
        design = harness.resolve_design(self.cfg)
        obs = simulate.simulate_observations(
            self.cfg.spec, self.n, self.delta, harness.replication_seed(master, i))
        coeffs = spectral.block_coefficients(obs, design.spot_grid)
        return obs, estimators.spot_estimate(
            coeffs, self.n, self.delta, self.bandwidth, design.eval_positions, self.clip_floor)

    def warm_up(self):
        self._op(self.master_seed(), 0)

    def run_pass(self, meter):
        master = self.master_seed()
        failed = 0
        for i in range(self.ops_per_pass):
            try:
                with self.op_span(f"p{self.passes}/{i}"), meter:
                    obs, curve = self._op(master, i)
            except ValueError:
                failed += 1
                continue
            # Every curve is rebuilt from the direct per-cell sum, outside the
            # meter.  The clip is not undone in a mean: it raises the mean
            # where the window's proxies are noisy, so the law is checked on
            # the unclipped rebuild, and the timed curve must equal its clip.
            windows = checks.spot_windows(obs.values, self.K, self.delta, self.bandwidth, self.t)
            self.mismatch.append(checks.relative_error(np.maximum(windows, self.clip_floor), curve.estimates))
            self.windows.append(windows[self.interior])
            d = np.diff(obs.values, prepend=0.0)
            self.rv.append(float(np.sum(d * d)))
        self.passes += 1
        return failed

    def check(self):
        a = lambda t: checks.sinusoid_a(*self.spec, t)  # noqa: E731
        problems = checks.rebuilt_curve(float(np.max(self.mismatch)), "spot-curve")
        # E[sum (Y_i - Y_{i-1})^2] with Y_0 = 0: the first increment carries one noise term
        problems += checks.mean_matches(self.rv, a(1.0) + (2 * self.n - 1) * self.delta ** 2,
                                        "spot-curve realized volatility")
        expected = checks.window_average(a, self.t[self.interior], self.bandwidth, self.K)
        return problems + checks.mean_matches(np.array(self.windows), expected, "spot-curve pointwise mean")


class EquivalenceDecay(Workload):
    """One sweep of the Hellinger decay between the two coupling covariances."""

    name = "equivalence-decay"
    n_list = (64, 128, 256, 512, 1024, 2048)
    base, amplitude, cycles, delta = 1.0, 0.5, 3, 0.3
    samples = 8           # covariance entries compared with the closed form, per n

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        self.phase = self.rng.uniform(0.0, 2.0 * math.pi)
        self.spec = volmodel.Sinusoid(self.base, self.amplitude, self.cycles, self.phase)
        self.results = []

    def _decay(self, n_list, meter, op):
        with self.op_span(op), meter:
            return equivalence.hellinger_decay(self.spec, self.delta, n_list)

    def warm_up(self):
        self._decay(self.n_list[:2], Meter(), "warm-up")

    def run_pass(self, meter):
        try:
            self.results.append(self._decay(self.n_list, meter, f"p{len(self.results)}"))
        except np.linalg.LinAlgError:
            return 1
        return 0

    def check(self):
        shape = (self.base, self.amplitude, self.cycles, self.phase)
        problems = []
        for i, n in enumerate(self.n_list):
            cov_p, cov_q = checks.coupling_covariances(*shape, n, self.delta)
            reference, tol = checks.hellinger2_logdet(cov_p, cov_q)
            for r in self.results:
                problems += checks.hellinger(r.h2_values[i], reference, tol, n)
                problems += checks.below_bound(r.h2_values[i], r.bound_values[i], n)
            # a sample of the covariances the sweep builds, outside the timed passes
            k, l = np.array([self.rng.randrange(n) for _ in range(2 * self.samples)]).reshape(2, -1)
            raw = equivalence.observation_covariance(self.spec, n, self.delta).cov[k, l]
            mid = equivalence.symmetrized_covariance(self.spec, n, self.delta).cov[k, l]
            m = np.minimum(k, l) + 1
            noise = self.delta ** 2 * (k == l)
            problems += checks.entries(raw, checks.sinusoid_a(*shape, m / n) + noise, f"decay n={n} raw")
            quad = [checks.midpoint_entry(*shape, n, int(mm)) for mm in m]
            problems += checks.entries(mid, np.array(quad) + noise, f"decay n={n} midpoint")
        for r in self.results:
            problems += checks.decay_slope(self.n_list, r.h2_values, r.slope)
        return problems


WORKLOADS = {w.name: w for w in (McIvClt, RateSweep, SpotCurve, EquivalenceDecay)}
