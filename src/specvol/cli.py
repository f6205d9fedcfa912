"""Command-line entry point: JSON configs in, CSV/JSON results out.

Each command reads its config against a table of the fields it accepts.  A
malformed file, a missing or unknown field, or a value of the wrong type or
range ends the run before any work, with a message that names the field's
JSON path.  The spot, iv, mc-iv and rate tables take their
harness.ExperimentConfig fields from the dataclass, which checks them and
supplies their defaults; volmodel.spec_from_json reads every curve.

Exit codes: 0 success, 1 config or validation error (the message names the
offending field or parse location) or a file that cannot be read or written
(the message names the path), 2 acceptance-threshold failure, 3 more than 1%
of the Monte Carlo replications failed (the message gives the first failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import equivalence, estimators, fisher, harness, simulate, spectral, volmodel
from .volmodel import ConfigError, _is_integer, _is_real

SCHEMA_VERSION = 1


# A field check takes a JSON value and its path.  It returns the value the
# command reads, or raises ConfigError naming the path.

def _check(ok, want):
    def check(value, path):
        if not ok(value):
            raise ConfigError(path, f"must be {want}, got {value!r}")
        return value
    return check


def _integer(least, below=np.inf, want=None):
    return _check(lambda v: _is_integer(v, least, below), want or f"an integer >= {least}")


_COUNT = _integer(1)
_POSITIVE = _check(lambda v: _is_real(v, 0), "a positive number")
_SEED = _integer(0, 2 ** 64, "an integer in [0, 2^64)")     # the seeds simulate.rng_for takes
_VERSION = (_check(lambda v: v == SCHEMA_VERSION and _is_integer(v), str(SCHEMA_VERSION)), True)


def _list(item, least, most=None):
    want = f"a list of {least} items" if most == least else f"a list of at least {least} items"

    def check(value, path):
        if not isinstance(value, list) or not least <= len(value) <= (most or len(value)):
            raise ConfigError(path, f"must be {want}, got {value!r}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _then(check, after):
    """The check that runs check, then after on the value check returns."""
    return lambda value, path: after(check(value, path), path)


def _object(table):
    """Check a JSON object against a table of field name -> (check, required).
    A check of None passes the value on: ExperimentConfig checks it."""
    def check(value, path):
        if not isinstance(value, dict):
            raise ConfigError(path, f"must be an object, got {value!r}")
        for key in value:
            if key not in table:
                raise ConfigError(f"{path}.{key}", "unknown field")
        out = {}
        for key, (field_check, required) in table.items():
            if key in value:
                out[key] = value[key] if field_check is None else field_check(value[key], f"{path}.{key}")
            elif required:
                raise ConfigError(f"{path}.{key}", "required field missing")
        return out
    return check


_COMMANDS = {}   # command name -> (config reader, run(data, out, threads) -> exit code)


def _command(name, **table):
    """Register the decorated function as command name.  Its config holds
    schema_version and the fields of table: field name -> (check, required)."""
    def register(run):
        _COMMANDS[name] = (_object({"schema_version": _VERSION, **table}), run)
        return run
    return register


def _experiment_fields(*left_out, require=()):
    """The table of the ExperimentConfig fields a config may set, less left_out.
    A field is required if it has no default or is in require.  The worker
    count comes from --threads, and the spot curve's points from grid_points."""
    return {f.name: (volmodel.spec_from_json if f.name == "spec" else None,
                     f.default is MISSING or f.name in require)
            for f in fields(harness.ExperimentConfig)
            if f.name not in ("parallelism", "spot_eval_points", *left_out)}


_ONE_RECORD = {**_experiment_fields("replications", "master_seed"), "seed": (_SEED, True)}
_SLOPE_RANGE = (_list(_check(_is_real, "a number"), 2, 2), False)


def _load_config(path: str, command: str, seed=None) -> dict:
    """The checked fields of a config file.  seed, when given, replaces the
    config's seed (the master seed of mc-iv and rate) before the check; the
    configs of fisher and decay have no seed, so these two refuse one."""
    if seed is not None and command in ("fisher", "decay"):
        raise ValueError(f"--seed given, but a {command} config has no seed")
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if seed is not None and isinstance(data, dict):
        target = data.get("base") if command == "rate" else data
        if isinstance(target, dict):
            target["master_seed" if command in ("mc-iv", "rate") else "seed"] = seed
    return _COMMANDS[command][0](data, "$")


def _experiment(data, path="$", **given) -> harness.ExperimentConfig:
    """The ExperimentConfig of the config fields in data plus the given ones."""
    mapping = {key: data[key] for key in data.keys() & _experiment_fields().keys()}
    return harness.ExperimentConfig.from_mapping({**mapping, **given}, path)


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, default=float) + "\n")


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _verdict(payload, acceptance, checks) -> int:
    """Exit code 2 when an acceptance check fails.  The checks go into
    payload when the config has an acceptance block."""
    if acceptance:
        payload["acceptance"] = checks
    return 0 if all(checks.values()) else 2


@_command("simulate", spec=(volmodel.spec_from_json, True), n=(_COUNT, True),
          delta=(_check(lambda v: _is_real(v) and v >= 0, "a number >= 0"), True),
          seed=(_SEED, True))
def _cmd_simulate(data, out, threads) -> int:
    obs = simulate.simulate_observations(data["spec"], data["n"], data["delta"], data["seed"])
    simulate.save_observations(obs, out)
    print(f"simulate: wrote {data['n']} observations to {out} (delta={data['delta']}, seed={data['seed']})")
    return 0


@_command("spectral", spec=(volmodel.spec_from_json, True), n=(_COUNT, True), delta=(_POSITIVE, True),
          seed=(_SEED, True), h0=(_POSITIVE, True), J=(_COUNT, True))
def _cmd_spectral(data, out, threads) -> int:
    obs = simulate.simulate_observations(data["spec"], data["n"], data["delta"], data["seed"])
    grid = simulate.BlockGrid.from_h0(data["n"], data["delta"], data["h0"], data["J"])
    coeffs = spectral.block_coefficients(obs, grid)
    simulate.save_coefficients(coeffs, out)
    print(f"spectral: wrote {grid.J}x{grid.K} coefficients to {out} (h0={grid.h0:.3f})")
    return 0


def _one_record(data):
    """Config, design and record of a spot or iv config.  Its seed keys the
    record's stream directly, so it is not the config's master seed."""
    cfg = _experiment(data, replications=1)
    obs = simulate.simulate_observations(cfg.spec, cfg.n, cfg.delta, data["seed"])
    return cfg, harness.resolve_design(cfg), obs


@_command("spot", **_ONE_RECORD, grid_points=(_COUNT, False))
def _cmd_spot(data, out, threads) -> int:
    cfg, design, obs = _one_record(data)
    coeffs = spectral.block_coefficients(obs, design.spot_grid)
    t_grid = np.linspace(0.0, 1.0, data.get("grid_points", cfg.spot_eval_points))
    curve = estimators.spot_estimate(coeffs, cfg.n, cfg.delta, design.bandwidth, t_grid, cfg.clip_floor)
    _write_json(out, {
        "t": curve.grid_points.tolist(),
        "estimate": curve.estimates.tolist(),
        "bandwidth": curve.bandwidth,
        "clip_floor": curve.clip_floor,
        "n": cfg.n, "delta": cfg.delta, "seed": data["seed"],
    })
    print(f"spot: wrote {t_grid.size}-point curve to {out} (bandwidth={curve.bandwidth:.4f})")
    return 0


@_command("iv", **_ONE_RECORD)
def _cmd_iv(data, out, threads) -> int:
    cfg, design, obs = _one_record(data)
    est, _ = harness.estimate_iv(cfg, design, obs)
    _write_json(out, {
        "value": est.value, "avar_hat": est.avar_hat, "target": est.target,
        "n": cfg.n, "delta": cfg.delta, "h0": design.main_grid.h0,
        "J": est.J_used, "seed": data["seed"],
    })
    print(f"iv: estimate {est.value:.6f} (target {est.target:.6f}) written to {out}")
    return 0


@_command("mc-iv", **_experiment_fields(require=("master_seed",)),
          per_replication_csv=(_check(lambda v: isinstance(v, str), "a string"), False),
          acceptance=(_object({
              "variance_rtol": (_POSITIVE, False),
              "check_ks": (_check(lambda v: isinstance(v, bool), "true or false"), False),
          }), False))
def _cmd_mc_iv(data, out, threads) -> int:
    cfg = _experiment(data, parallelism=threads)
    report = harness.run_iv_mc(cfg)
    config = dict(asdict(cfg), spec=volmodel.spec_to_json(cfg.spec))
    payload = {"config": config, "summary": report.summary, "failures": list(report.failures)}
    acceptance = data.get("acceptance", {})
    checks = {}
    if "variance_rtol" in acceptance:
        checks["variance"] = bool(abs(report.summary["variance_ratio"] - 1.0) <= acceptance["variance_rtol"])
    if acceptance.get("check_ks"):
        checks["ks"] = bool(harness.normality_check(report)[0])
    rc = _verdict(payload, acceptance, checks)
    _write_json(out, payload)
    if data.get("per_replication_csv"):
        rows = zip(range(len(report.iv_values)), report.iv_values, report.avar_hats, report.spot_sup_errors)
        _write_csv(data["per_replication_csv"], ["index", "iv_value", "avar_hat", "spot_sup_error"], rows)
    summary = report.summary
    print(f"mc-iv: M={summary['replications']} variance_ratio={summary['variance_ratio']:.4f} "
          f"ks={summary['ks_statistic']:.4f} -> {out}")
    return rc


@_command("rate", base=(_object(_experiment_fields("n", require=("master_seed",))), True),
          n_list=(_list(_integer(harness.MIN_N), 4), True),
          acceptance=(_object({"iv_slope_range": _SLOPE_RANGE, "spot_slope_range": _SLOPE_RANGE}),
                      False))
def _cmd_rate(data, out, threads) -> int:
    cfg = _experiment(data["base"], "$.base", n=data["n_list"][0], parallelism=threads)
    report = harness.run_rate_regression(cfg, data["n_list"])
    payload = {key: value for key, value in asdict(report).items() if key != "summaries"}
    acceptance = data.get("acceptance", {})
    checks = {}
    for slope in ("iv_slope", "spot_slope"):
        if f"{slope}_range" in acceptance:
            lo, hi = acceptance[f"{slope}_range"]
            checks[slope] = bool(lo <= payload[slope] <= hi)
    rc = _verdict(payload, acceptance, checks)
    _write_json(out, payload)
    print(f"rate: iv_slope={report.iv_slope:.4f} spot_slope={report.spot_slope:.4f} -> {out}")
    return rc


@_command("fisher", thetas=(_list(_POSITIVE, 1), True), h0s=(_list(_POSITIVE, 1), True),
          jmax=(_COUNT, False))
def _cmd_fisher(data, out, threads) -> int:
    jmax = data.get("jmax", 10 ** 6)
    rows = []
    worst = 0.0
    for theta in data["thetas"]:
        for h0 in data["h0s"]:
            closed = fisher.block_information(theta, h0)
            partial = fisher.block_information_partial(theta, h0, jmax)
            rel = abs(closed - partial) / abs(partial)
            worst = max(worst, rel)
            rows.append((theta, h0, repr(float(closed)), repr(float(partial)), f"{rel:.3e}"))
    _write_csv(out, ["theta", "h0", "I_closed", "I_sum", "rel_err"], rows)
    print(f"fisher: {len(rows)} rows, worst rel_err {worst:.3e} -> {out}")
    return 0


@_command("hellinger", dim=(_COUNT, True), trials=(_COUNT, True), seed=(_SEED, True),
          perturbation=(_POSITIVE, False))
def _cmd_hellinger(data, out, threads) -> int:
    dim = data["dim"]
    trials = data["trials"]
    size = data.get("perturbation", 0.05)
    rng = simulate.rng_for(data["seed"])
    rows = []
    for trial in range(trials):
        base = rng.standard_normal((dim, dim))
        cov1 = base @ base.T + dim * np.eye(dim)
        sym = rng.standard_normal((dim, dim))
        bump = size * (sym + sym.T)
        pure_cov = trial % 2 == 0
        p = equivalence.GaussianLaw(np.zeros(dim), cov1)
        if pure_cov:
            q = equivalence.GaussianLaw(np.zeros(dim), cov1 + bump)
        else:
            q = equivalence.GaussianLaw(size * rng.standard_normal(dim), cov1)
        h2 = equivalence.hellinger_exact(p, q) ** 2
        bound = equivalence.hellinger_upper_bound(p, q)
        rows.append((trial, "cov" if pure_cov else "mean", repr(float(h2)), repr(float(bound)), bound >= h2))
    all_ok = all(row[-1] for row in rows)
    _write_csv(out, ["trial", "kind", "h2_exact", "bound", "dominated"], rows)
    print(f"hellinger: {trials} trials, domination {'holds' if all_ok else 'VIOLATED'} -> {out}")
    return 0 if all_ok else 2


@_command("decay", spec=(_then(volmodel.spec_from_json, equivalence.decay_curve), True),
          delta=(_POSITIVE, True), n_list=(_then(_list(_integer(2), 2), equivalence.decay_sizes), True))
def _cmd_decay(data, out, threads) -> int:
    result = equivalence.hellinger_decay(data["spec"], data["delta"], data["n_list"])
    rows = []
    for i, (n, h2, bound) in enumerate(
        zip(result.n_values, result.h2_values, result.bound_values)
    ):
        slope_so_far = float("nan") if i == 0 else float(np.polyfit(
            np.log(result.n_values[: i + 1]), np.log(result.h2_values[: i + 1]), 1)[0])
        rows.append((n, repr(float(h2)), repr(float(bound)), slope_so_far))
    _write_csv(out, ["n", "H2", "bound", "slope_so_far"], rows)
    print(f"decay: slope {result.slope:.3f} over n={list(result.n_values)} -> {out}")
    return 0


# the flat path is drawn with seed + 1, which must stay a seed too
@_command("counterexample", n_list=(_list(_integer(2), 1), True), ks_samples=(_COUNT, True),
          seed=(_integer(0, 2 ** 64 - 1, "an integer in [0, 2^64 - 1)"), True))
def _cmd_counterexample(data, out, threads) -> int:
    gaps = {n: equivalence.oscillating_gap(n) for n in data["n_list"]}
    m = data["ks_samples"]
    n_path = max(max(data["n_list"]), m)
    obs_osc = simulate.simulate_observations(volmodel.Oscillating(n_path), n_path, 0.0, data["seed"])
    obs_flat = simulate.simulate_observations(volmodel.Constant(1.0), n_path, 0.0, data["seed"] + 1)
    from scipy.stats import ks_2samp

    ks = ks_2samp(obs_osc.increments()[:m], obs_flat.increments()[:m])
    payload = {
        "gaps": {str(n): g for n, g in gaps.items()},
        "gap_times_sqrt_n": {str(n): g * np.sqrt(n) for n, g in gaps.items()},
        "ks_statistic": ks.statistic,
        "ks_pvalue": ks.pvalue,
        "ks_samples": m,
    }
    _write_json(out, payload)
    print(f"counterexample: ks p-value {ks.pvalue:.3f}, gap*sqrt(n) ~ "
          f"{np.mean(list(payload['gap_times_sqrt_n'].values())):.4f} -> {out}")
    return 0


def _threads(given) -> int:
    """The worker count: --threads, else SPECVOL_THREADS, else 1."""
    name, value = "--threads", given
    if value is None:
        name, value = "SPECVOL_THREADS", os.environ.get("SPECVOL_THREADS", "1")
    if not str(value).strip().isdecimal() or int(value) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, the code of an acceptance failure; usage errors are bad input
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def dispatch(argv) -> int:
    parser = _Parser(
        prog="specvol",
        description="Spectral volatility estimation experiments driven by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", default=None,
                       help="worker processes (fallback: SPECVOL_THREADS)")
    args = parser.parse_args(argv)
    try:
        threads = _threads(args.threads)
        data = _load_config(args.config, args.command, args.seed)
        return _COMMANDS[args.command][1](data, args.out, threads)
    except harness.TooManyFailuresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:   # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
