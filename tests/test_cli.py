import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specvol
from specvol import cli, harness
from specvol import volmodel as vm
from specvol.cli import dispatch
from specvol.volmodel import ConfigError

CONST = {"kind": "constant", "level": 1.0}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return dispatch([str(a) for a in args])


def test_simulate_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {
        "schema_version": 1, "spec": CONST, "n": 64, "delta": 0.1, "seed": 5})
    out = tmp_path / "obs.csv"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert out.exists() and out.with_suffix(".csv.json").exists()
    assert "simulate:" in capsys.readouterr().out


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,,}')
    assert run(["simulate", "--config", bad, "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_schema_violation_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {
        "schema_version": 1, "spec": CONST, "n": -3, "delta": 0.1, "seed": 5})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "$.n" in capsys.readouterr().err


def test_bad_spec_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", {
        "schema_version": 1, "spec": {"kind": "mystery"}, "n": 4, "delta": 0.1, "seed": 5})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 1
    assert "spec" in capsys.readouterr().err


def test_spectral_and_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, "sp.json", {
        "schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.2,
        "seed": 5, "h0": 8.0, "J": 3})
    out1, out2, out3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(["spectral", "--config", cfg, "--out", out1]) == 0
    assert run(["spectral", "--config", cfg, "--out", out2]) == 0
    assert run(["spectral", "--config", cfg, "--out", out3, "--seed", "6"]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text() != out3.read_text()


def test_spot_and_iv(tmp_path):
    common = {"schema_version": 1, "spec": CONST, "n": 2048, "delta": 0.2,
              "seed": 3, "h0_rule": 8.0, "J_rule": 8}
    spot_cfg = write_cfg(tmp_path, "spot.json", {**common, "spot_eval_points": 33})
    out = tmp_path / "spot.json.out"
    assert run(["spot", "--config", spot_cfg, "--out", out]) == 0
    curve = json.loads(out.read_text())
    assert len(curve["t"]) == 33 and len(curve["estimate"]) == 33

    iv_cfg = write_cfg(tmp_path, "iv.json", common)
    out2 = tmp_path / "iv.json.out"
    assert run(["iv", "--config", iv_cfg, "--out", out2]) == 0
    record = json.loads(out2.read_text())
    assert {"value", "avar_hat", "n", "delta", "h0", "J", "seed"} <= set(record)


def test_mc_iv_acceptance_gate(tmp_path, capsys):
    base = {
        "schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.3,
        "replications": 16, "master_seed": 4, "h0_rule": 8.0, "J_rule": 16,
        "bandwidth_rule": 0.3,
        "per_replication_csv": str(tmp_path / "reps.csv"),
    }
    ok_cfg = write_cfg(tmp_path, "ok.json", base)
    out = tmp_path / "mc.json"
    assert run(["mc-iv", "--config", ok_cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["replications"] == 16
    assert (tmp_path / "reps.csv").exists()
    # unreachable variance tolerance flips the exit code to 2
    strict = dict(base, acceptance={"variance_rtol": 1e-9})
    bad_cfg = write_cfg(tmp_path, "strict.json", strict)
    assert run(["mc-iv", "--config", bad_cfg, "--out", tmp_path / "mc2.json"]) == 2


def run_cli(args):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(Path(specvol.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "specvol.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_mc_iv_seed_out_of_range(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json", {
        "schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.3,
        "replications": 4, "master_seed": 4, "h0_rule": 8.0, "J_rule": 16})
    proc = run_cli(["mc-iv", "--config", cfg, "--out", tmp_path / "mc.json.out", "--seed", 2**32])
    assert proc.returncode == 1
    assert "master_seed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,payload", [
    ("fisher", {"schema_version": 1, "thetas": [1.0], "h0s": [2.0]}),
    ("decay", {"schema_version": 1, "spec": CONST, "delta": 0.5, "n_list": [64, 128]}),
])
def test_seed_rejected_without_config_seed(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    proc = run_cli([command, "--config", cfg, "--out", tmp_path / "out", "--seed", 5])
    assert proc.returncode == 1
    assert f"error: --seed given, but a {command} config has no seed" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags,name", [
    ("mc-iv", ["--threads", "0"], "--threads"),
    ("fisher", ["--threads", "-2"], "--threads"),
])
def test_bad_worker_count_names_its_source(tmp_path, command, flags, name):
    payload = (MC_BASE if command == "mc-iv"
               else {"schema_version": 1, "thetas": [1.0], "h0s": [2.0]})
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    proc = run_cli([command, "--config", cfg, "--out", tmp_path / "out", *flags])
    assert proc.returncode == 1
    assert f"error: {name} must be an integer >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("fisher", ["--threads", "abc"], "error: --threads must be an integer >= 1, got 'abc'"),
    ("fisher", ["--seed", "abc"], "error: argument --seed: invalid int value: 'abc'"),
    ("bogus", [], "error: argument command: invalid choice: 'bogus'"),
])
def test_usage_errors_exit_1(tmp_path, command, flags, message):
    # argparse alone would exit 2, the code of an acceptance failure
    cfg = write_cfg(tmp_path, "cfg.json", {"schema_version": 1, "thetas": [1.0], "h0s": [2.0]})
    proc = run_cli([command, "--config", cfg, "--out", tmp_path / "out", *flags])
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("h0_rule", [3]), ("J_rule", "bogus")])
def test_rate_bad_rule_names_field(tmp_path, field, value):
    cfg = write_cfg(tmp_path, "rate.json", {
        "schema_version": 1,
        "base": {"spec": CONST, "delta": 0.5, "replications": 4, "master_seed": 2, field: value},
        "n_list": [256, 512, 1024, 2048],
    })
    proc = run_cli(["rate", "--config", cfg, "--out", tmp_path / "rate.json.out"])
    assert proc.returncode == 1
    assert f"$.base.{field}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_spot_bad_rule_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "spot.json", {
        "schema_version": 1, "spec": CONST, "n": 2048, "delta": 0.2, "seed": 3, "h0_rule": [3]})
    assert run(["spot", "--config", cfg, "--out", tmp_path / "spot.json.out"]) == 1
    assert "$.h0_rule" in capsys.readouterr().err


def test_rate_command(tmp_path):
    cfg = write_cfg(tmp_path, "rate.json", {
        "schema_version": 1,
        "base": {"spec": CONST, "delta": 0.5, "replications": 12, "master_seed": 2,
                 "h0_rule": 8.0, "J_rule": 8, "bandwidth_rule": 0.3},
        "n_list": [256, 512, 1024, 2048],
    })
    out = tmp_path / "rate.json.out"
    assert run(["rate", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["iv_rmse"]) == 4


def test_fisher_command(tmp_path):
    cfg = write_cfg(tmp_path, "fisher.json", {
        "schema_version": 1, "thetas": [1.0], "h0s": [5.0], "jmax": 10**5})
    out = tmp_path / "fisher.csv"
    assert run(["fisher", "--config", cfg, "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "theta,h0,I_closed,I_sum,rel_err"
    rel = float(rows[1].split(",")[-1])
    assert rel < 1e-8


def test_hellinger_command(tmp_path):
    cfg = write_cfg(tmp_path, "hell.json", {
        "schema_version": 1, "dim": 5, "trials": 10, "seed": 3})
    out = tmp_path / "hell.csv"
    assert run(["hellinger", "--config", cfg, "--out", out]) == 0
    assert len(out.read_text().strip().splitlines()) == 11


def test_decay_command(tmp_path):
    cfg = write_cfg(tmp_path, "decay.json", {
        "schema_version": 1, "spec": CONST, "delta": 0.5, "n_list": [64, 128, 256]})
    out = tmp_path / "decay.csv"
    assert run(["decay", "--config", cfg, "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,H2,bound,slope_so_far"
    assert len(rows) == 4


def test_counterexample_command(tmp_path):
    cfg = write_cfg(tmp_path, "ce.json", {
        "schema_version": 1, "n_list": [256, 1024], "ks_samples": 2000, "seed": 1})
    out = tmp_path / "ce.json.out"
    assert run(["counterexample", "--config", cfg, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["ks_pvalue"] > 0.0
    assert set(payload["gaps"]) == {"256", "1024"}


def test_threads_give_equal_summaries(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json", {
        "schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.3,
        "replications": 6, "master_seed": 4, "h0_rule": 8.0, "J_rule": 8,
        "bandwidth_rule": 0.3})
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run(["mc-iv", "--config", cfg, "--out", out1, "--threads", "2"]) == 0
    assert run(["mc-iv", "--config", cfg, "--out", out2, "--threads", "1"]) == 0
    p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert p1["config"]["parallelism"] == 2
    assert p2["config"]["parallelism"] == 1
    s1 = {k: v for k, v in p1["summary"].items() if k != "wall_time"}
    s2 = {k: v for k, v in p2["summary"].items() if k != "wall_time"}
    assert s1 == s2


CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.mark.parametrize("command", ["simulate", "spectral", "spot", "iv", "fisher", "hellinger",
                                     "decay", "counterexample"])
def test_fast_shipped_configs_run(tmp_path, command):
    # mc-iv and rate run 1000 and 400 replications; the acceptance suite covers those
    assert run([command, "--config", CONFIGS / f"{command}.json", "--out", tmp_path / "out"]) == 0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    command = "mc-iv" if path.stem.startswith("mc_iv") else path.stem
    data = cli._load_config(str(path), command)
    if command in ("spot", "iv", "mc-iv"):
        cli._experiment(data, replications=1)
    elif command == "rate":
        cli._experiment(data["base"], "$.base", n=data["n_list"][0])


def test_experiment_defaults_and_paths():
    cfg = cli._experiment({"spec": vm.Constant(1.0), "n": 1024, "delta": 0.3}, replications=2)
    assert cfg == harness.ExperimentConfig(spec=vm.Constant(1.0), n=1024, delta=0.3, replications=2)
    with pytest.raises(ConfigError, match=r"config field \$\.base\.J_rule: "):
        cli._experiment({"spec": vm.Constant(1.0), "n": 1024, "delta": 0.3, "J_rule": "bogus"}, "$.base",
                        replications=2)


SINE = {"kind": "sinusoid", "base": 1.0, "amplitude": 0.5, "cycles": 3, "phase": 0.7}
MC_BASE = {"schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.3,
           "replications": 4, "master_seed": 4, "h0_rule": 8.0, "J_rule": 16}
DECAY_BASE = {"schema_version": 1, "spec": CONST, "delta": 0.5, "n_list": [64, 128]}
RATE_BASE = {"schema_version": 1, "n_list": [256, 512, 1024, 2048],
             "base": {"spec": CONST, "delta": 0.5, "replications": 4, "master_seed": 2}}


@pytest.mark.parametrize("command,payload,field", [
    ("rate", dict(RATE_BASE, base=dict(RATE_BASE["base"], spec={"kind": "constant"})),
     "$.base.spec.level"),
    ("rate", dict(RATE_BASE, acceptance={"iv_slope_range": [1]}), "$.acceptance.iv_slope_range"),
    ("rate", dict(RATE_BASE, n_list=[8, 256, 512, 1024]), "$.n_list[0]"),
    ("mc-iv", dict(MC_BASE, n=8), "$.n"),
    ("mc-iv", dict(MC_BASE, clip_flor=0.5), "$.clip_flor"),
    ("mc-iv", dict(MC_BASE, parallelism=2), "$.parallelism"),
    ("mc-iv", dict(MC_BASE, spec=dict(CONST, lvl=2.0)), "$.spec.lvl"),
    ("mc-iv", dict(MC_BASE, acceptance={"check_ks": "yes"}), "$.acceptance.check_ks"),
    ("spot", {"schema_version": 1, "spec": CONST, "n": 2048, "delta": 0.2}, "$.seed"),
    ("mc-iv", dict(MC_BASE, spec=dict(SINE, cycles=2.7)), "$.spec.cycles"),
    ("mc-iv", dict(MC_BASE, spec=dict(SINE, cycles=3.0)), "$.spec.cycles"),
    ("simulate", {"schema_version": 1, "spec": {"kind": "oscillating", "n": 64.5}, "n": 64,
                  "delta": 0.0, "seed": 1}, "$.spec.n"),
    ("mc-iv", dict(MC_BASE, spec=dict(CONST, level=True)), "$.spec.level"),
    ("mc-iv", dict(MC_BASE, spec=dict(CONST, level="1.0")), "$.spec.level"),
    ("mc-iv", dict(MC_BASE, spec=dict(SINE, phase=None)), "$.spec.phase"),
    ("rate", dict(RATE_BASE, base=dict(RATE_BASE["base"], spec=dict(SINE, amplitude=False))),
     "$.base.spec.amplitude"),
    ("mc-iv", dict(MC_BASE, spec={"kind": "piecewise_constant", "values": [1.0, "4"]}),
     "$.spec.values[1]"),
    ("mc-iv", dict(MC_BASE, spec={"kind": "piecewise_constant", "values": 1.0}), "$.spec.values"),
    ("mc-iv", dict(MC_BASE, spec={"kind": "flat"}), "$.spec.kind"),
    ("decay", dict(DECAY_BASE, n_list=[128, 64]), "$.n_list"),
    ("decay", dict(DECAY_BASE, n_list=[1, 64]), "$.n_list[0]"),
    ("decay", dict(DECAY_BASE, spec={"kind": "piecewise_constant", "values": [1.0, 4.0]}),
     "$.spec.kind"),
    ("simulate", {"schema_version": 1, "spec": dict(SINE, phase=float("nan")), "n": 64,
                  "delta": 0.1, "seed": 1}, "$.spec.phase"),
    ("mc-iv", dict(MC_BASE, bandwidth_rule=float("inf")), "$.bandwidth_rule"),
    ("mc-iv", dict(MC_BASE, replications=16, acceptance={"check_ks": True}), "$.acceptance.check_ks"),
    ("spot", {"schema_version": 1, "spec": CONST, "n": 2048, "delta": 0.2, "seed": 3,
              "spot_eval_points": 0}, "$.spot_eval_points"),
    ("rate", dict(RATE_BASE, n_list=[1024, 1024, 2048, 4096]), "$.n_list"),
    ("spectral", {"schema_version": 1, "spec": CONST, "n": 1, "delta": 0.1, "seed": 1, "h0": 8.0, "J": 3},
     "$.n"),
    # the "rate" bandwidth (eps log(1/eps))^{1/3} needs eps = delta / sqrt(n) <= 1
    ("iv", {"schema_version": 1, "spec": CONST, "n": 4096, "delta": 1e6, "seed": 3}, "$.bandwidth_rule"),
    ("spot", {"schema_version": 1, "spec": CONST, "n": 4096, "delta": 64.1, "seed": 3}, "$.bandwidth_rule"),
    ("mc-iv", dict(MC_BASE, n=4096, delta=100.0, bandwidth_rule="rate"), "$.bandwidth_rule"),
    # checked at the smallest n, 256, where eps = 17 / 16
    ("rate", dict(RATE_BASE, n_list=[2048, 256, 512, 1024], base=dict(RATE_BASE["base"], delta=17.0)),
     "$.base.bandwidth_rule"),
], ids=["rate-missing-level", "slope-range-length", "rate-small-n", "mc-iv-small-n",
        "unknown-field", "parallelism-field", "unknown-spec-field", "acceptance-type",
        "missing-field", "fractional-cycles", "float-cycles", "fractional-oscillating-n",
        "bool-level", "string-level", "null-phase", "bool-amplitude", "string-block-value",
        "values-not-list", "unknown-kind", "decay-decreasing-n", "decay-small-n",
        "decay-piecewise", "nan-phase", "infinite-bandwidth", "ks-too-few-replications",
        "no-spot-points", "rate-repeated-n", "spectral-one-observation", "iv-rate-bandwidth-nan",
        "spot-rate-bandwidth-nan", "mc-iv-rate-bandwidth-nan", "rate-rate-bandwidth-nan"])
def test_bad_config_names_path(tmp_path, command, payload, field):
    cfg = write_cfg(tmp_path, "bad.json", payload)
    proc = run_cli([command, "--config", cfg, "--out", tmp_path / "out.json"])
    assert proc.returncode == 1
    assert f"config field {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command,payload,seed,field", [
    ("simulate", {"schema_version": 1, "spec": CONST, "n": 64, "delta": 0.1, "seed": -5}, None,
     "$.seed"),
    ("simulate", {"schema_version": 1, "spec": CONST, "n": 64, "delta": 0.1, "seed": 5}, 2**64,
     "$.seed"),
    ("spectral", {"schema_version": 1, "spec": CONST, "n": 1024, "delta": 0.2, "seed": 5,
                  "h0": 8.0, "J": 3}, -1, "$.seed"),
    ("hellinger", {"schema_version": 1, "dim": 3, "trials": 2, "seed": 5 + 2**64}, None, "$.seed"),
    ("counterexample", {"schema_version": 1, "n_list": [256], "ks_samples": 100, "seed": 1},
     2**64 - 1, "$.seed"),
])
def test_seed_out_of_range(tmp_path, command, payload, seed, field):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    args = [command, "--config", cfg, "--out", tmp_path / "out"]
    proc = run_cli(args + (["--seed", seed] if seed is not None else []))
    assert proc.returncode == 1
    assert f"config field {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_largest_seeds_run(tmp_path):
    sim = write_cfg(tmp_path, "sim.json", {
        "schema_version": 1, "spec": CONST, "n": 64, "delta": 0.1, "seed": 2**64 - 1})
    assert run(["simulate", "--config", sim, "--out", tmp_path / "obs.csv"]) == 0
    ce = write_cfg(tmp_path, "ce.json", {
        "schema_version": 1, "n_list": [256], "ks_samples": 100, "seed": 2**64 - 2})
    assert run(["counterexample", "--config", ce, "--out", tmp_path / "ce.json.out"]) == 0


def test_too_many_failures_exit_3(tmp_path):
    # a clip floor of 1e300 zeroes every frequency weight, so every estimate is nan
    cfg = write_cfg(tmp_path, "mc.json", dict(MC_BASE, clip_floor=1e300))
    proc = run_cli(["mc-iv", "--config", cfg, "--out", tmp_path / "mc.json.out"])
    assert proc.returncode == 3
    assert "4 of 4 replications failed; first: (0," in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("target", ["out", "per_replication_csv"])
def test_unwritable_output_exit_1(tmp_path, target):
    missing = tmp_path / "no-such-dir" / "file"
    reps = missing if target == "per_replication_csv" else tmp_path / "reps.csv"
    out = missing if target == "out" else tmp_path / "mc.json.out"
    cfg = write_cfg(tmp_path, "mc.json", dict(MC_BASE, per_replication_csv=str(reps)))
    proc = run_cli(["mc-iv", "--config", cfg, "--out", out])
    assert proc.returncode == 1
    assert str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_package_import_loads_no_scipy():
    # scipy, scipy.linalg's LAPACK wrappers included, loads on the first call that needs it
    src = str(Path(specvol.__file__).parents[1])
    code = "import sys, specvol; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mc_run_loads_no_scipy_stats():
    # summarize computes its statistics in numpy; only `counterexample` imports scipy.stats
    src = str(Path(specvol.__file__).parents[1])
    code = ("import sys; from specvol import harness, volmodel; "
            "harness.run_iv_mc(harness.ExperimentConfig(spec=volmodel.Constant(1.0), n=1024, delta=0.3, "
            "replications=4, h0_rule=8.0, J_rule=16, bandwidth_rule=0.3, parallelism=2)); "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_jsonschema():
    # and the scipy modules, which a command imports when it first calls into them
    src = str(Path(specvol.__file__).parents[1])
    heavy = ["jsonschema", *(f"scipy.{m}" for m in ("linalg", "fft", "special", "stats", "integrate"))]
    code = f"import sys, specvol.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
