"""The repository benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Runs the workload in a fresh child interpreter (``workload.py``), one child
at a time, and prints every end-to-end metric named in ``BENCHMARK.json``
with its unit and sample count.  With ``--trace 1`` it runs the workload
twice, untraced and then with the layer tracer, and prints the per-layer
metrics instead, plus the tracing overhead.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout holds no ``src/lieschouten``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, WORK_DIR, child_env, package_present
import tracer

SETUP_REPEATS = 9
# Every child is killed once the run as a whole has taken this long.
RUN_LIMIT_S = 170.0
# Set-up runs under the speed probe too; the child prints its speed factor.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {BENCH_DIR!r})
from speed import SpeedProbe
with SpeedProbe() as probe:
    start = time.perf_counter()
    import lieschouten
    lieschouten.load_catalog()
    end = time.perf_counter()
print(probe.speed_factor(start, end))
"""


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with {proc.returncode}")
    return out.decode("utf-8")


def setup_seconds(deadline: float) -> list[float]:
    """Fresh interpreter to `import lieschouten` plus `load_catalog()` done,
    in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        factor = float(run_child([sys.executable, "-c", SETUP_CODE], deadline))
        times.append((time.perf_counter() - start) * factor)
    return times


def run_workload(args, traced: bool, deadline: float) -> dict:
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
    ]
    out = run_child(argv, deadline)
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        revision = proc.stdout.strip() or revision
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="lieschouten benchmark")
    parser.add_argument("--workload", choices=("verify", "custom", "queries"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not package_present():
        print("no src/lieschouten in this checkout; nothing to measure", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args.seed)
    print("env " + json.dumps(env))

    plain = run_workload(args, False, deadline)
    problems = list(plain["problems"])
    samples = {}
    if args.trace:
        traced = run_workload(args, True, deadline)
        if traced["output_digest"] != plain["output_digest"]:
            problems.append("traced run produced different output from the untraced run")
        problems += traced["problems"]
        # The tracer's clock reads raw seconds; put them on the reference
        # scale of the traced child as a whole.
        factor = traced["ref_wall_s"] / traced["wall_s"]
        summary = {k: v * factor if k.endswith("_s") else v for k, v in traced["trace"].items()}
        values = tracer.per_layer_metrics(summary)
        values["trace.ref_wall_s"] = traced["ref_wall_s"]
        values["trace.untraced_ref_wall_s"] = plain["ref_wall_s"]
        values["trace.overhead_s"] = traced["ref_wall_s"] - plain["ref_wall_s"]
        listed = spec["per_layer"]
    else:
        setup = setup_seconds(deadline)
        ops_ms = [t * 1000.0 for t in plain["ops"]]
        values = {
            "ref_wall_s": plain["ref_wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": plain["peak_rss_mb"],
            "ref_op_p50_ms": percentile(ops_ms, 50),
            "ref_op_p90_ms": percentile(ops_ms, 90),
        }
        samples = {"setup_s": len(setup), "ref_op_p50_ms": len(ops_ms), "ref_op_p90_ms": len(ops_ms)}
        listed = spec["end_to_end"]

    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:42} {values[m['name']]:>14.6g} {m['unit']:6} n={samples.get(m['name'], 1)}")
    attempted, failed = plain["attempted"], plain["failed"]
    print(f"{'wall_s (raw, no bound)':42} {plain['wall_s']:>14.6g} {'s':6} n=1")
    print(f"{'fail_ratio':42} {failed / attempted:>14.6g} {'':6} ({failed}/{attempted} ops)")
    for p in problems:
        print("problem: " + p)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(WORK_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "problems": problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
