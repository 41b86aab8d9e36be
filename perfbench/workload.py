"""One workload in one fresh interpreter; prints a JSON result as its last line.

    python3 perfbench/workload.py --workload custom --seed 3 --seconds 15 --trace 0

``run.py`` starts this as a child, once untraced and, for a traced run, once
more with ``--trace 1``.  Inputs are generated from the seed before any
timing starts and before the tracer is installed, and the correctness
checks run after the timed region, in the untraced child only.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

from common import BENCH_DIR, BRANCHES, KINDS, ROOT, WORK_DIR, child_env, digest, load_reference
from speed import SpeedProbe

# Work per run scales with --seconds, so that at the seed commit a run of
# `custom` or `queries` measures about 0.8 x --seconds reference seconds.
# `verify` is one full-scale run whatever --seconds says.
# The package is imported inside the functions that use it, after the
# tracer (if any) has rebound its functions.
CUSTOM_PER_SECOND = 16
QUERIES_PER_SECOND = 7
QUERY_TYPES = ("ricci", "scalar", "system", "scan", "verify")

PARAMETERS = ("alpha", "beta", "gamma", "delta")
COEFFICIENTS = tuple(Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3))
# Shape of an affine form: which two variables it uses, and whether it has a
# constant term.  The shape sets the size of the polynomials downstream.
SHAPES = tuple((pair, const) for pair in itertools.combinations(PARAMETERS, 2) for const in (0, 1))
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# -- custom: generated metric Lie algebras --------------------------------------


def affine_form(rng: random.Random, shape, rename: dict) -> str:
    pair, const = shape
    parts = [f"{rng.choice(COEFFICIENTS)}*{rename[n]}" for n in pair]
    if const:
        parts.append(str(rng.choice(COEFFICIENTS)))
    return " + ".join(parts)


def custom_inputs(seed: int, count: int) -> list[dict]:
    """`count` algebras: each branch of g1..g7 in turn, every parameter
    replaced by a random affine form, written as a custom-algebra text.

    The shapes follow one fixed design, dealt per (branch, parameter) from
    shuffled decks of all shapes.  The seed draws the coefficients and
    renames alpha..delta, which leaves the polynomial sizes unchanged, so
    every seed gives a run of the same cost profile.
    """
    from lieschouten import build_family

    design = random.Random(0)
    rng = random.Random(seed)
    decks: dict = {}

    def deal(key):
        if not decks.get(key):
            decks[key] = design.sample(SHAPES, len(SHAPES))
        return decks[key].pop()

    out = []
    for k in range(count):
        fid, eta = BRANCHES[k % len(BRANCHES)]
        base = build_family(fid, eta=eta)
        rename = dict(zip(PARAMETERS, rng.sample(PARAMETERS, len(PARAMETERS))))
        forms = {p: affine_form(rng, deal((fid, eta, p)), rename) for p in base.parameters}

        def text_of(q) -> str:
            return _IDENT.sub(lambda m: f"({forms[m.group()]})", str(q))

        lines = []
        for key, (i, j) in (("12", (0, 1)), ("13", (0, 2)), ("23", (1, 2))):
            lines.append(
                f"bracket.{key} = " + ", ".join(text_of(q) for q in base.structure.c[i][j])
            )
        if base.equality_constraints:
            lines.append("constraints = " + "; ".join(map(text_of, base.equality_constraints)))
        if base.nonvanishing:
            lines.append("nonvanishing = " + "; ".join(map(text_of, base.nonvanishing)))
        out.append({"branch": (fid, eta), "forms": forms, "text": "\n".join(lines) + "\n"})
    return out


def custom_op(text: str):
    """The timed unit: parse, build the three systems, serialize, Jacobi."""
    from lieschouten import custom_family, jacobi_residuals, serialize_system, soliton_system

    fam = custom_family(text)
    systems = [soliton_system(fam, kind) for kind in KINDS]
    texts = [serialize_system(system) for system in systems]
    jacobi = jacobi_residuals(fam)
    return fam, systems, texts, jacobi


def substitute_forms(q, forms: dict):
    """q with each parameter replaced by its form, all at once."""
    table = q.table
    powers = {}

    def power(name, e):
        if (name, e) not in powers:
            powers[name, e] = (forms[name] if name in forms else table.var(name)) ** e
        return powers[name, e]

    out = table.zero
    for mono, coeff in q.terms.items():
        term = table.const(coeff)
        for name, e in zip(table.names, mono):
            if e:
                term = term * power(name, e)
        out = out + term
    return out


class CustomOracle:
    """Exact checks of one generated algebra against its base family."""

    def __init__(self):
        self._base = {}

    def base(self, branch):
        from lieschouten import build_family, soliton_system

        if branch not in self._base:
            fam = build_family(branch[0], eta=branch[1])
            self._base[branch] = (fam, [soliton_system(fam, kind) for kind in KINDS])
        return self._base[branch]

    def problems(self, item: dict, fam, systems, jacobi) -> list[str]:
        from lieschouten import parse_polynomial

        base_fam, base_systems = self.base(tuple(item["branch"]))
        forms = {p: parse_polynomial(t) for p, t in item["forms"].items()}
        out = []
        for kind, base_sys, sys_ in zip(KINDS, base_systems, systems):
            for k, (b, r) in enumerate(zip(base_sys.residuals, sys_.residuals)):
                if substitute_forms(b, forms) != r:
                    out.append(f"{kind} residual {k} differs from the substituted base residual")
        expected = [substitute_forms(q, forms) for q in base_fam.equality_constraints]
        if list(fam.equality_constraints) != expected:
            out.append("constraints differ from the substituted base constraints")
        for k, q in enumerate(jacobi):
            if not q.reduce_by_relations(fam.equality_constraints).is_zero:
                out.append(f"Jacobi residual e{k + 1} is not zero modulo the constraints")
        return out


def run_custom(seed: int, seconds: int, traced: bool) -> dict:
    items = custom_inputs(seed, max(len(BRANCHES), CUSTOM_PER_SECOND * seconds))
    tracer = _install_tracer() if traced else None
    intervals, results = [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            results.append(custom_op(item["text"]))
            intervals.append((t0, time.perf_counter()))
        end = time.perf_counter()
    ops = [probe.reference_seconds(a, b) for a, b in intervals]
    walls = (end - start, probe.reference_seconds(start, end))
    outputs = "".join("".join(texts) + "".join(f"{q}\n" for q in jac) for _, _, texts, jac in results)
    problems, failed = [], 0
    if not traced:  # the traced child is checked against the untraced one's output
        oracle = CustomOracle()
        for k, (item, (fam, systems, _, jac)) in enumerate(zip(items, results)):
            found = oracle.problems(item, fam, systems, jac)
            failed += bool(found)
            problems += [f"algebra {k}: {p}" for p in found]
    return _result(ops, walls, len(items), failed, problems, digest(outputs), tracer)


# -- verify: the full catalog replay ------------------------------------------


def run_verify(seed: int, seconds: int, traced: bool) -> dict:
    from lieschouten import cli

    tracer = _install_tracer() if traced else None
    buf = io.StringIO()
    with SpeedProbe() as probe, redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(["verify", "--seed", str(seed), "--format", "machine"])
        end = time.perf_counter()
    walls = (end - start, probe.reference_seconds(start, end))
    out = buf.getvalue()
    records = [line.split("\t") for line in out.splitlines() if line.startswith("RESULT\t")]
    failed = sum(1 for r in records if r[3] == "fail")
    problems = [f"{r[1]} {r[2]}: {r[5]}" for r in records if r[3] == "fail"]
    if code != 0:
        problems.append(f"verify exited with {code}")
    if seed == 0:
        ref = load_reference()["verify"]
        summary = out.strip().splitlines()[-1] if out.strip() else ""
        want = "SUMMARY\t" + "\t".join(f"{k}={v}" for k, v in ref["counts"].items())
        if summary != want:
            problems.append(f"seed 0 summary {summary!r}, expected {want!r}")
        if digest(out) != ref["sha256"]:
            problems.append("seed 0 RESULT stream differs from the committed digest")
    return _result([walls[1]], walls, max(1, len(records)), failed, problems, digest(out), tracer)


# -- queries: one-shot CLI calls ------------------------------------------------


def query_plan(seed: int, count: int, pool: list[dict]) -> list[dict]:
    """`count` calls, an equal share of each type, in a seeded order.

    Within a type, a call dearer than twice the type's median reference
    cost is in every run (`verify --only` of the no-solutions case, which
    scans 1000 points).  The rest of the type's pool is sorted by cost and
    cut into as many strata as calls remain; one call is drawn from each
    stratum, so every run carries the same mix of cheap and dear calls.
    """
    rng = random.Random(seed)
    per_type = max(1, count // len(QUERY_TYPES))
    plan = []
    for qtype in QUERY_TYPES:
        specs = sorted((e for e in pool if e["type"] == qtype), key=lambda e: e["seconds"])
        limit = 2 * specs[len(specs) // 2]["seconds"]
        dear = [e for e in specs if e["seconds"] > limit][:per_type]
        plan += dear
        rest = specs[: len(specs) - len(dear)]
        n = min(per_type - len(dear), len(rest))
        for k in range(n):
            plan.append(rng.choice(rest[k * len(rest) // n : (k + 1) * len(rest) // n]))
    rng.shuffle(plan)
    return plan


def run_query(args: list[str], traced: bool = False) -> tuple[int, str, float, dict]:
    """One fresh CLI process: (exit code, stdout, reference seconds, report).

    The child's probe starts after interpreter start-up; its speed factor
    stands for the whole call.  A call that crashes writes no report and
    counts at raw speed; its exit code marks it failed.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    report_path = os.path.join(WORK_DIR, f"query-{os.getpid()}.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), report_path]
    argv += (["--trace"] if traced else []) + list(args)
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, timeout=120, check=False,
    )
    elapsed = time.perf_counter() - start
    report = {"speed_factor": 1.0, "summary": {}, "spans": []}  # the call crashed
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report.update(json.load(fh))
        os.remove(report_path)
    report["wall_s"] = elapsed
    return proc.returncode, proc.stdout.decode("utf-8"), elapsed * report["speed_factor"], report


def run_queries(seed: int, seconds: int, traced: bool) -> dict:
    plan = query_plan(seed, QUERIES_PER_SECOND * seconds, load_reference()["queries"])
    ops, problems, failed = [], [], 0
    raw_wall = 0.0
    total, spans = {}, []
    for k, spec in enumerate(plan):
        code, out, ref_seconds, report = run_query(spec["args"], traced)
        if code != spec["exit"] or digest(out) != spec["sha256"]:
            failed += 1
            problems.append(
                f"call {k} ({' '.join(spec['args'])}): exit {code}, "
                "output differs from the reference"
            )
        raw_wall += report["wall_s"]
        ops.append(ref_seconds)
        if traced:
            for key, value in report["summary"].items():
                total[key] = total.get(key, 0) + value
            spans.append({"call": spec["args"], "spans": report["spans"]})
    result = _result(ops, (raw_wall, sum(ops)), len(plan), failed, problems, "")
    if traced:
        result["trace"], result["spans"] = total, spans
    return result


# -- shared -------------------------------------------------------------------


def _install_tracer():
    import tracer

    return tracer.install()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _result(ops, walls, attempted, failed, problems, output_digest, tracer=None) -> dict:
    """`ops` are reference-speed seconds; `walls` is (raw, reference-speed)."""
    return {
        "ops": ops,
        "wall_s": walls[0],
        "ref_wall_s": walls[1],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "output_digest": output_digest,
        "peak_rss_mb": _peak_rss_mb(),
        "trace": None if tracer is None else tracer.summary(),
        "spans": None if tracer is None else tracer.spans,
    }


WORKLOADS = {"verify": run_verify, "custom": run_custom, "queries": run_queries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    if spans is not None:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
