"""Benchmark of the three routes to the torus partition functions.

    python3 bench/run.py --workload oracle|transfer|series --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each sample is one cold pass of the
workload in a fresh interpreter (bench/worker.py), so every lru_cache starts
empty, as it does in each CLI call.  Samples run one after another until
--seconds have passed (at least MIN_SAMPLES of each kind).  With --trace 0
every sample is untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced samples alternate and the per-layer metrics
are reported.  Each metric is the median over its samples.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it, starting with '#', give
each metric with its unit, median, quartiles and sample count, the recorded
environment and any failed check.  The full record of a run is written to
.bench_build/results/, the spans of traced samples to .bench_build/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(BENCH))

from tracer import COUNTS, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
DEADLINE_S = 150.0  # no new sample starts after this; a run ends within 180 s
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# reported with the metrics, not gated: raw seconds drift with the machine's speed
SHOWN = {"wall_s": "s", "cpu_s": "s"}
# the traced run adds metrics that compare with its untraced passes
PER_LAYER = dict(UNITS, **{"process.cpu_s": "s", "trace.overhead_s": "s",
                           "trace.overhead_frac": "ratio"})


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORUSLOOP_WORKERS", None)  # the census runs its default single worker
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(cmd: list, timeout: float) -> str:
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in {timeout:.0f} s")
    if out.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    return out.stdout


def collect(args) -> dict:
    """Run samples until --seconds have passed; return them by kind."""
    start = time.monotonic()
    # an untimed import first, which also fills the bytecode cache
    first_import = ("import json, numpy, torusloop.acceptance as a;"
                    "print(json.dumps({'numpy': numpy.__version__, 'torusloop': a.__file__}))")
    env = json.loads(run_child([sys.executable, "-c", first_import], DEADLINE_S))
    if not Path(env["torusloop"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"torusloop imported from {env['torusloop']}, not from this checkout")
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    samples: dict = {kind: [] for kind in kinds}
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and all(len(s) >= MIN_SAMPLES for s in samples.values()):
            break
        if elapsed >= DEADLINE_S:
            raise BenchError(f"only {sum(map(len, samples.values()))} samples in {elapsed:.0f} s")
        kind = kinds[i % len(kinds)]
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed)]
        if kind == "traced":
            run_id = f"{args.workload}-seed{args.seed}-{i}"
            cmd += ["--trace", "--run-id", run_id,
                    "--spans", str(spans_dir / f"{run_id}.json")]
        samples[kind].append(json.loads(run_child(cmd, DEADLINE_S + 20 - elapsed)))
        i += 1
    env.update({"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "blas_threads": BLAS_THREADS, "git_sha": git_sha(), "seed": args.seed,
                "workload": args.workload, "trace": int(args.trace)})
    return {"env": env, "samples": samples}


def summary(values: list) -> tuple:
    """Median, first and third quartile of the samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(args, run: dict) -> dict:
    """Print every metric with unit, median, quartiles and sample count."""
    untraced = run["samples"]["untraced"]
    traced = run["samples"].get("traced", [])
    everything = untraced + traced
    attempted = sum(s["attempted"] for s in everything)
    failures = [f for s in everything for f in s["failures"]]
    problems = []
    columns: dict = {}
    if args.trace:
        units, shown = PER_LAYER, {}
        for name in UNITS:
            columns[name] = [s["layers"][name] for s in traced]
        columns["process.cpu_s"] = [s["cpu_s"] for s in untraced]
        for name, unit in (("overhead_s", "wall_s"), ("overhead_frac", "wall_ref")):
            base = statistics.median(s[unit] for s in untraced)
            extra = statistics.median(s[unit] for s in traced) - base
            columns[f"trace.{name}"] = [extra if unit == "wall_s" else extra / base]
        problems = [f"count {name} differs between passes: {columns[name]}"
                    for name in COUNTS if len(set(columns[name])) > 1]
        missing = sorted({m for s in traced for m in s["missing"]})
        if missing:
            print(f"# missing (their metrics read 0): {', '.join(missing)}")
    else:
        units, shown = END_TO_END, SHOWN
        for name in list(units) + list(shown):
            columns[name] = [s[name] for s in untraced]
    columns["fail_frac"] = [len(s["failures"]) / s["attempted"] for s in everything]
    metrics = {}
    for name, unit in dict(units, **shown, fail_frac="ratio").items():
        med, q1, q3 = summary(columns[name])
        if name in units:
            metrics[name] = {"value": med, "unit": unit}
        print(f"# {name:30s} {unit:6s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n={len(columns[name])}")
    print(f"# checks: {attempted} attempted, {len(failures)} failed")
    print("# env " + json.dumps(run["env"], sort_keys=True))
    for problem in failures + problems:
        print("# FAIL " + problem.replace("\n", "\n#   "))
    return {"correct": not (failures or problems), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torusloop" / "__init__.py").is_file():
        print(f"bench: no torusloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = collect(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = report(args, run)
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(run, result=result), default=str, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
