"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # all checks, about two minutes
    python3 perfbench/selftest.py oracle     # only the named checks

Each check raises AssertionError on failure; the script exits 1 if any did.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK_DIR, child_env, load_reference, package_present


def _run(argv: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
        timeout=300, check=False,
    )


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_smoke() -> None:
    """A short run of every workload prints every named metric, correct."""
    spec = _benchmark_spec()
    for workload in ("custom", "queries", "verify"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run([os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stdout[-2000:])
            names = [m["name"] for m in spec[key]]
            assert list(result["metrics"]) == names, (workload, trace)
            for name in names:
                assert any(line.split()[0] == name for line in proc.stdout.splitlines()), name
            print(f"smoke {workload} trace={trace}: ok")


def check_oracle() -> None:
    """The custom oracle accepts a real algebra and rejects perturbed ones."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workload

    oracle = workload.CustomOracle()
    for item in workload.custom_inputs(seed=5, count=8):
        fam, systems, _, jacobi = workload.custom_op(item["text"])
        assert oracle.problems(item, fam, systems, jacobi) == [], item["branch"]
        bumped = list(systems[1].residuals)
        bumped[4] = bumped[4] + 1
        perturbed = [systems[0], dataclasses.replace(systems[1], residuals=tuple(bumped)), systems[2]]
        assert oracle.problems(item, fam, perturbed, jacobi), item["branch"]
        broken_jacobi = (jacobi[0] + fam.table.var("alpha"),) + tuple(jacobi[1:])
        assert oracle.problems(item, fam, systems, broken_jacobi), item["branch"]
    print("oracle: ok")


def check_counts_repeat() -> None:
    """Two traced runs of the same seed give exactly the same counts."""
    for name in ("custom", "queries"):
        summaries = []
        for _ in range(2):
            proc = _run([os.path.join(BENCH_DIR, "workload.py"), "--workload", name,
                         "--seed", "3", "--seconds", "1", "--trace", "1"])
            assert proc.returncode == 0, proc.stderr[-2000:]
            trace = json.loads(proc.stdout.strip().splitlines()[-1])["trace"]
            summaries.append({k: v for k, v in trace.items() if not k.endswith("_s")})
        assert summaries[0] == summaries[1], name
        print(f"counts repeat {name}: ok")


def check_query_plan() -> None:
    """The query stream is a function of the seed, with an equal share per type."""
    import workload

    pool = load_reference()["queries"]
    plan = workload.query_plan(11, 105, pool)
    assert plan == workload.query_plan(11, 105, pool)
    assert plan != workload.query_plan(12, 105, pool)
    for qtype in workload.QUERY_TYPES:
        assert sum(1 for p in plan if p["type"] == qtype) == 21, qtype
    assert sum(1 for p in plan if p["args"][:3] == ["verify", "--only", "4.8.1"]) == 1
    print("query plan: ok")


def check_bare_checkout() -> None:
    """Without the package the benchmark exits non-zero and prints no result."""
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: ok")


CHECKS = {
    "oracle": check_oracle,
    "plan": check_query_plan,
    "bare": check_bare_checkout,
    "counts": check_counts_repeat,
    "smoke": check_smoke,
}


def main() -> int:
    if not package_present():
        print("no src/lieschouten in this checkout", file=sys.stderr)
        return 2
    failed = 0
    for name in sys.argv[1:] or list(CHECKS):
        try:
            CHECKS[name]()
        except AssertionError as err:
            failed += 1
            print(f"{name}: FAILED {err!r}"[:3000])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
