"""Command-line entry point: JSON configs in, CSV/JSON results out.

Exit codes: 0 success, 1 config or validation error (the message names the
offending field or parse location), 2 acceptance-threshold failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import jsonschema

from . import equivalence, estimators, fisher, harness, simulate, spectral, volmodel

SCHEMA_VERSION = 1

_SPEC_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["constant", "piecewise_constant", "sinusoid", "oscillating"]}},
}

_POSINT = {"type": "integer", "minimum": 1}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}

# design rules: a fixed value or the name of the rule (see harness.resolve_design)
_RULES = {
    "h0_rule": {"oneOf": [_POSNUM, {"const": "log"}]},
    "J_rule": {"oneOf": [_POSINT, {"const": "loglog"}]},
    "bandwidth_rule": {"oneOf": [{"type": "number"}, {"const": "rate"}]},
}

_SCHEMAS = {
    "simulate": {
        "type": "object",
        "required": ["schema_version", "spec", "n", "delta", "seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "n": _POSINT,
            "delta": {"type": "number", "minimum": 0},
            "seed": {"type": "integer"},
        },
    },
    "spectral": {
        "type": "object",
        "required": ["schema_version", "spec", "n", "delta", "seed", "h0", "J"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "n": _POSINT,
            "delta": _POSNUM,
            "seed": {"type": "integer"},
            "h0": _POSNUM,
            "J": _POSINT,
        },
    },
    "spot": {
        "type": "object",
        "required": ["schema_version", "spec", "n", "delta", "seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "n": _POSINT,
            "delta": _POSNUM,
            "seed": {"type": "integer"},
            "bandwidth": _POSNUM,
            "grid_points": _POSINT,
            "clip_floor": _POSNUM,
            **_RULES,
        },
    },
    "iv": {
        "type": "object",
        "required": ["schema_version", "spec", "n", "delta", "seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "n": _POSINT,
            "delta": _POSNUM,
            "seed": {"type": "integer"},
            **_RULES,
            "noise_convention": {"enum": ["eps2", "literal"]},
        },
    },
    "mc-iv": {
        "type": "object",
        "required": ["schema_version", "spec", "n", "delta", "replications", "master_seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "n": _POSINT,
            "delta": _POSNUM,
            "replications": _POSINT,
            "master_seed": {"type": "integer"},
            **_RULES,
            "bandwidth_scale": _POSNUM,
            "parallelism": _POSINT,
            "clip_floor": _POSNUM,
            "noise_convention": {"enum": ["eps2", "literal"]},
            "per_replication_csv": {"type": "string"},
            "acceptance": {
                "type": "object",
                "properties": {
                    "variance_rtol": _POSNUM,
                    "check_ks": {"type": "boolean"},
                },
            },
        },
    },
    "rate": {
        "type": "object",
        "required": ["schema_version", "base", "n_list"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "base": {
                "type": "object",
                "required": ["spec", "delta", "replications", "master_seed"],
                "properties": {
                    "spec": _SPEC_SCHEMA,
                    "delta": _POSNUM,
                    "replications": _POSINT,
                    "master_seed": {"type": "integer"},
                    **_RULES,
                },
            },
            "n_list": {"type": "array", "items": _POSINT, "minItems": 4},
            "acceptance": {
                "type": "object",
                "properties": {
                    "iv_slope_range": {"type": "array", "items": {"type": "number"}},
                    "spot_slope_range": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
    },
    "fisher": {
        "type": "object",
        "required": ["schema_version", "thetas", "h0s"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "thetas": {"type": "array", "items": _POSNUM, "minItems": 1},
            "h0s": {"type": "array", "items": _POSNUM, "minItems": 1},
            "jmax": _POSINT,
        },
    },
    "hellinger": {
        "type": "object",
        "required": ["schema_version", "dim", "trials", "seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "dim": _POSINT,
            "trials": _POSINT,
            "seed": {"type": "integer"},
            "perturbation": _POSNUM,
        },
    },
    "decay": {
        "type": "object",
        "required": ["schema_version", "spec", "delta", "n_list"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "spec": _SPEC_SCHEMA,
            "delta": _POSNUM,
            "n_list": {"type": "array", "items": _POSINT, "minItems": 2},
        },
    },
    "counterexample": {
        "type": "object",
        "required": ["schema_version", "n_list", "ks_samples", "seed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
            "ks_samples": _POSINT,
            "seed": {"type": "integer"},
        },
    },
}


class ConfigError(Exception):
    pass


def _load_config(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    validator = jsonschema.Draft202012Validator(_SCHEMAS[command])
    errors = sorted(validator.iter_errors(data), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise ConfigError(f"config field {err.json_path}: {err.message}")
    try:
        if "spec" in data:
            data["spec"] = volmodel.spec_from_json(data["spec"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"config field $.spec: {exc}") from None
    return data


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, default=float) + "\n")


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _experiment_config(data: dict, threads: int, seed_override) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        spec=data["spec"],
        n=data["n"],
        delta=data["delta"],
        replications=data["replications"],
        h0_rule=data.get("h0_rule", "log"),
        J_rule=data.get("J_rule", "loglog"),
        bandwidth_rule=data.get("bandwidth_rule", "rate"),
        bandwidth_scale=data.get("bandwidth_scale", 1.0),
        master_seed=seed_override if seed_override is not None else data["master_seed"],
        parallelism=threads,
        clip_floor=data.get("clip_floor", 1e-4),
        noise_convention=data.get("noise_convention", "eps2"),
    )


def _cmd_simulate(data, out, seed, threads) -> int:
    if seed is not None:
        data["seed"] = seed
    obs = simulate.simulate_observations(data["spec"], data["n"], data["delta"], data["seed"])
    simulate.save_observations(obs, out)
    print(f"simulate: wrote {data['n']} observations to {out} (delta={data['delta']}, seed={data['seed']})")
    return 0


def _single_run(data, seed):
    if seed is not None:
        data["seed"] = seed
    cfg = harness.ExperimentConfig(
        spec=data["spec"], n=data["n"], delta=data["delta"], replications=1,
        h0_rule=data.get("h0_rule", "log"), J_rule=data.get("J_rule", "loglog"),
        bandwidth_rule=data.get("bandwidth_rule", "rate"),
        bandwidth_scale=data.get("bandwidth_scale", 1.0),
        master_seed=data["seed"],
        clip_floor=data.get("clip_floor", 1e-4),
        noise_convention=data.get("noise_convention", "eps2"),
    )
    return cfg, harness.resolve_design(cfg)


def _cmd_spectral(data, out, seed, threads) -> int:
    if seed is not None:
        data["seed"] = seed
    obs = simulate.simulate_observations(data["spec"], data["n"], data["delta"], data["seed"])
    grid = simulate.BlockGrid.from_h0(data["n"], data["delta"], data["h0"], data["J"])
    coeffs = spectral.block_coefficients(obs, grid)
    simulate.save_coefficients(coeffs, out)
    print(f"spectral: wrote {grid.J}x{grid.K} coefficients to {out} (h0={grid.h0:.3f})")
    return 0


def _cmd_spot(data, out, seed, threads) -> int:
    cfg, design = _single_run(data, seed)
    obs = simulate.simulate_observations(cfg.spec, cfg.n, cfg.delta, cfg.master_seed)
    coeffs = spectral.block_coefficients(obs, design.spot_grid)
    b = data.get("bandwidth", design.bandwidth)
    t_grid = np.linspace(0.0, 1.0, data.get("grid_points", 257))
    curve = estimators.spot_estimate(coeffs, cfg.n, cfg.delta, b, t_grid, cfg.clip_floor)
    _write_json(out, {
        "t": curve.grid_points.tolist(),
        "estimate": curve.estimates.tolist(),
        "bandwidth": curve.bandwidth,
        "clip_floor": curve.clip_floor,
        "n": cfg.n, "delta": cfg.delta, "seed": cfg.master_seed,
    })
    print(f"spot: wrote {t_grid.size}-point curve to {out} (bandwidth={b:.4f})")
    return 0


def _cmd_iv(data, out, seed, threads) -> int:
    cfg, design = _single_run(data, seed)
    obs = simulate.simulate_observations(cfg.spec, cfg.n, cfg.delta, cfg.master_seed)
    spot_coeffs = spectral.block_coefficients(obs, design.spot_grid)
    spot = estimators.spot_estimate(
        spot_coeffs, cfg.n, cfg.delta, design.bandwidth, design.block_positions, cfg.clip_floor
    )
    main = spectral.block_coefficients(obs, design.main_grid)
    est = estimators.integrated_volatility_estimate(
        main, spot, design.main_grid, cfg.delta, cfg.n,
        true_spec=cfg.spec, noise_convention=cfg.noise_convention,
    )
    _write_json(out, {
        "value": est.value, "avar_hat": est.avar_hat, "target": est.target,
        "n": cfg.n, "delta": cfg.delta, "h0": design.main_grid.h0,
        "J": est.J_used, "seed": cfg.master_seed,
    })
    print(f"iv: estimate {est.value:.6f} (target {est.target:.6f}) written to {out}")
    return 0


def _report_payload(report: harness.MCReport) -> dict:
    cfg = report.config
    payload = asdict(cfg)
    payload["spec"] = volmodel.spec_to_json(cfg.spec)
    return {"config": payload, "summary": report.summary, "failures": list(report.failures)}


def _cmd_mc_iv(data, out, seed, threads) -> int:
    cfg = _experiment_config(data, threads, seed)
    report = harness.run_iv_mc(cfg)
    payload = _report_payload(report)
    rc = 0
    acceptance = data.get("acceptance")
    if acceptance:
        checks = {}
        rtol = acceptance.get("variance_rtol")
        if rtol is not None:
            ratio = report.summary["variance_ratio"]
            checks["variance"] = bool(abs(ratio - 1.0) <= rtol)
        if acceptance.get("check_ks"):
            ok, diag = harness.normality_check(report)
            checks["ks"] = bool(ok)
        payload["acceptance"] = checks
        if not all(checks.values()):
            rc = 2
    _write_json(out, payload)
    if data.get("per_replication_csv"):
        _write_csv(
            data["per_replication_csv"], ["index", "iv_value", "avar_hat", "spot_sup_error"],
            [(i, v, a, s) for i, (v, a, s) in enumerate(
                zip(report.iv_values, report.avar_hats, report.spot_sup_errors))],
        )
    print(
        f"mc-iv: M={report.summary['replications']} variance_ratio="
        f"{report.summary['variance_ratio']:.4f} ks={report.summary['ks_statistic']:.4f} -> {out}"
    )
    return rc


def _cmd_rate(data, out, seed, threads) -> int:
    base = dict(data["base"])
    base["spec"] = volmodel.spec_from_json(base["spec"])
    base.setdefault("n", int(data["n_list"][0]))
    cfg = _experiment_config(base, threads, seed)
    report = harness.run_rate_regression(cfg, data["n_list"])
    payload = {
        "n_values": list(report.n_values),
        "iv_rmse": list(report.iv_rmse),
        "spot_sup": list(report.spot_sup),
        "iv_slope": report.iv_slope,
        "spot_slope": report.spot_slope,
    }
    rc = 0
    acceptance = data.get("acceptance")
    if acceptance:
        checks = {}
        if "iv_slope_range" in acceptance:
            lo, hi = acceptance["iv_slope_range"]
            checks["iv_slope"] = bool(lo <= report.iv_slope <= hi)
        if "spot_slope_range" in acceptance:
            lo, hi = acceptance["spot_slope_range"]
            checks["spot_slope"] = bool(lo <= report.spot_slope <= hi)
        payload["acceptance"] = checks
        if not all(checks.values()):
            rc = 2
    _write_json(out, payload)
    print(f"rate: iv_slope={report.iv_slope:.4f} spot_slope={report.spot_slope:.4f} -> {out}")
    return rc


def _cmd_fisher(data, out, seed, threads) -> int:
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


def _cmd_hellinger(data, out, seed, threads) -> int:
    dim = data["dim"]
    trials = data["trials"]
    size = data.get("perturbation", 0.05)
    rng = simulate.rng_for(seed if seed is not None else data["seed"])
    rows = []
    all_ok = True
    for trial in range(trials):
        base = rng.standard_normal((dim, dim))
        cov1 = base @ base.T + dim * np.eye(dim)
        sym = rng.standard_normal((dim, dim))
        bump = size * (sym + sym.T)
        pure_cov = trial % 2 == 0
        if pure_cov:
            p = equivalence.GaussianLaw(np.zeros(dim), cov1)
            q = equivalence.GaussianLaw(np.zeros(dim), cov1 + bump)
        else:
            mu = size * rng.standard_normal(dim)
            p = equivalence.GaussianLaw(np.zeros(dim), cov1)
            q = equivalence.GaussianLaw(mu, cov1)
        h2 = equivalence.hellinger_exact(p, q) ** 2
        bound = equivalence.hellinger_upper_bound(p, q)
        ok = bound >= h2
        all_ok = all_ok and ok
        rows.append((trial, "cov" if pure_cov else "mean", repr(float(h2)), repr(float(bound)), ok))
    _write_csv(out, ["trial", "kind", "h2_exact", "bound", "dominated"], rows)
    print(f"hellinger: {trials} trials, domination {'holds' if all_ok else 'VIOLATED'} -> {out}")
    return 0 if all_ok else 2


def _cmd_decay(data, out, seed, threads) -> int:
    result = equivalence.hellinger_decay(data["spec"], data["delta"], data["n_list"])
    rows = []
    for i, (n, h2, bound) in enumerate(
        zip(result.n_values, result.h2_values, result.bound_values)
    ):
        if i >= 1:
            slope_so_far = float(np.polyfit(
                np.log(result.n_values[: i + 1]), np.log(result.h2_values[: i + 1]), 1
            )[0])
        else:
            slope_so_far = float("nan")
        rows.append((n, repr(float(h2)), repr(float(bound)), slope_so_far))
    _write_csv(out, ["n", "H2", "bound", "slope_so_far"], rows)
    print(f"decay: slope {result.slope:.3f} over n={list(result.n_values)} -> {out}")
    return 0


def _cmd_counterexample(data, out, seed, threads) -> int:
    gaps = {n: equivalence.oscillating_gap(n) for n in data["n_list"]}
    m = data["ks_samples"]
    use_seed = seed if seed is not None else data["seed"]
    n_osc = max(data["n_list"])
    n_path = max(n_osc, m)
    obs_osc = simulate.simulate_observations(volmodel.Oscillating(n_path), n_path, 0.0, use_seed)
    obs_flat = simulate.simulate_observations(volmodel.Constant(1.0), n_path, 0.0, use_seed + 1)
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


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectral": _cmd_spectral,
    "spot": _cmd_spot,
    "iv": _cmd_iv,
    "mc-iv": _cmd_mc_iv,
    "rate": _cmd_rate,
    "fisher": _cmd_fisher,
    "hellinger": _cmd_hellinger,
    "decay": _cmd_decay,
    "counterexample": _cmd_counterexample,
}


def dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="specvol",
        description="Spectral volatility estimation experiments driven by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (fallback: SPECVOL_THREADS)")
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("SPECVOL_THREADS", "1"))
    try:
        data = _load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](data, args.out, args.seed, threads)
    except (ValueError, simulate.ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
