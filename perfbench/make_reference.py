"""Regenerate ``reference.json``: the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

It records the digest and counts of ``verify --seed 0 --format machine``
and the pool of one-shot CLI calls the ``queries`` workload draws from,
each with its exit code, the digest of its machine output and its cost in
reference seconds (median of three runs), by which the workload stratifies.
Run it only when a change is meant to alter program output, and say so with
the change.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction

from common import BRANCHES, KINDS, REFERENCE_PATH, SRC, digest, family_args, package_present
from workload import run_query

POOL_SEED = 2210
LAMBDA0_CHOICES = ("0", "1/4", "1/2", "1", "2", "-1", "1/3", "-1/2", "3/4", "-2")


def case_labels() -> list[str]:
    sys.path.insert(0, SRC)
    from lieschouten import load_catalog

    return [case.label for case in load_catalog().cases]


def query_pool() -> list[dict]:
    """Every CLI call the queries workload may make, in a fixed order."""
    rng = random.Random(POOL_SEED)
    pool = []
    for command in ("ricci", "scalar", "system"):
        for fid, eta in BRANCHES:
            for kind in KINDS:
                args = [command] + family_args(fid, eta) + ["--kind", kind, "--format", "machine"]
                pool.append({"type": command, "args": args})
    for fid, eta in BRANCHES:
        for kind in KINDS:
            for _ in range(2):
                grid = sorted(rng.sample(LAMBDA0_CHOICES, 3), key=Fraction)
                args = ["scan"] + family_args(fid, eta) + [
                    "--kind", kind, "--count", "20", "--seed", str(rng.randrange(10000)),
                    "--lambda0=" + ",".join(grid), "--format", "machine",
                ]
                pool.append({"type": "scan", "args": args})
    for label in case_labels():
        args = ["verify", "--only", label, "--seed", str(rng.randrange(10000)), "--format", "machine"]
        pool.append({"type": "verify", "args": args})
    return pool


def main() -> int:
    if not package_present():
        print("src/lieschouten not found; run from the repository root", file=sys.stderr)
        return 2
    code, out, _, _ = run_query(["verify", "--seed", "0", "--format", "machine"])
    counts = dict(kv.split("=") for kv in out.strip().splitlines()[-1].split("\t")[1:])
    verify = {
        "seed": 0,
        "exit": code,
        "counts": {k: int(v) for k, v in counts.items()},
        "sha256": digest(out),
    }
    pool = query_pool()
    for entry in pool:
        runs = [run_query(entry["args"]) for _ in range(3)]
        if len({(code, out) for code, out, _, _ in runs}) != 1:
            print(f"nondeterministic output: {entry['args']}", file=sys.stderr)
            return 1
        entry["seconds"] = round(statistics.median(r[2] for r in runs), 4)
        entry["exit"] = runs[0][0]
        entry["sha256"] = digest(runs[0][1])
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"verify": verify, "queries": pool}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
