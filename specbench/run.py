"""Run one specvol benchmark workload and print its metrics.

    python3 specbench/run.py --workload mc-iv-clt --seed 7 --seconds 15 --trace 0

Run it from the repository root; it imports specvol from ./src.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  The line before it describes the run
(revision, CPU count, BLAS threads, library versions, per-pass figures).  A
copy of both, and with `--trace 1` the spans, is written under .specbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".specbench-out"
WORKLOADS = ("mc-iv-clt", "rate-sweep", "spot-curve", "equivalence-decay")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
UNITS = {"setup_s": "s", "ops_per_s": "op/s", "cpu_s_per_op": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one specvol benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="workload seed in [0, 2^32)")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        # the harness keeps 32 bits of a master seed: m and m + 2^32 draw the same streams
        parser.error(f"--seed must lie in [0, 2^32), got {args.seed}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: str, seed: int) -> list:
    """Fresh interpreter to first warm operation, timed by probe.py, several times."""
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"specbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # worker processes times BLAS threads stays within nproc
    blas_threads = 1 if args.workload == "rate-sweep" else nproc
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)

    import numpy
    import scipy

    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = workloads.WORKLOADS[args.workload](args.seed, nproc)
    tracer = None
    if args.trace:
        import spans

        span_dir = OUT / f"{stem}-{os.getpid()}"
        span_dir.mkdir()
        tracer = spans.Tracer(span_dir)
        work.tracer = tracer
        tracer.pass_label = "warm-up"
        tracer.install()        # the warm-up makes the cold first calls
    try:
        work.warm_up()
    finally:
        if tracer:
            tracer.uninstall()

    passes = []
    spent = 0.0
    while spent < args.seconds or (tracer and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        label = f"p{len(passes)}"
        meter = workloads.Meter()
        if traced:
            tracer.pass_label = label
            tracer.install()
        try:
            with tracer.span("bench.pass") if traced else nullcontext():
                failed = work.run_pass(meter)
        finally:
            if tracer:
                tracer.uninstall()
        passes.append({"label": label, "traced": traced, "wall_s": meter.wall, "cpu_s": meter.cpu,
                       "ops": work.ops_per_pass, "failed": failed})
        spent += meter.wall
    own, children = (resource.getrusage(who).ru_maxrss for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    # peak of the process plus each concurrent worker at the largest child peak (KiB)
    peak_rss_mib = (own + work.workers * children) / 1024.0

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # the checks speak of the operations that did not fail
    problems = work.check() if failed < attempted else ["no operation completed, nothing checked"]

    def rate(group):
        return statistics.median(p["ops"] / p["wall_s"] for p in group)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "revision": git_revision(), "nproc": nproc, "workers": work.workers,
        "blas_threads": blas_threads, "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "backend": workloads.active_backend(),
        "ops_per_pass": work.ops_per_pass, "attempted": attempted, "failed": failed,
        "passes": passes, "problems": problems,
    }
    if tracer:
        timed = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        span_list = tracer.collect(OUT / f"{stem}.spans.jsonl")
        span_dir.rmdir()
        layer, by_name = spans.layer_metrics(span_list, {p["label"] for p in timed},
                                             sum(p["ops"] for p in timed))
        layer["trace.overhead_pct"] = 100.0 * (rate(untraced) / rate(timed) - 1.0)
        metrics = {k: {"value": v, "unit": spans.UNITS.get(k, "ms/op")} for k, v in layer.items()}
        info["span_ms_per_op"] = 1e3 * sum(t for n, t in by_name.items() if not n.startswith("bench.")) / sum(
            p["ops"] for p in timed)
        info["untraced_ms_per_op"] = 1e3 / rate(untraced)
        info["span_self_ms_by_name"] = {n: 1e3 * t for n, t in sorted(by_name.items())}
    else:
        setups = setup_seconds(args.workload, args.seed)
        info["setup_runs_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": rate(passes),
            "cpu_s_per_op": sum(p["cpu_s"] for p in passes) / attempted,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for problem in problems:
        print(f"specbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"specbench": {k: v for k, v in info.items() if k != "passes"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
