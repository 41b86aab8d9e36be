"""Layer tracing from outside the program.

``install`` wraps the public functions of each ``lieschouten`` module
(``poly``, ``algebras``, ``geometry``, ``soliton``, ``catalog``, ``cli``)
in the current interpreter.  Every wrapped call counts and times itself;
its self time is its duration minus the time of wrapped calls beneath it.
The coarse calls (everything outside ``poly``) also keep one span each,
with its parent span, in memory.  The hot ``poly`` operations run hundreds
of thousands of times, so they are only counted and timed in aggregate.

Only the benchmark imports this module; the program never sees it.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

MODULES = ("poly", "algebras", "geometry", "soliton", "catalog", "cli")

# (metric prefix, owner, attribute): owner is a module name or "Polynomial".
# Several attributes may share one prefix; their calls add up.
HOT = (
    ("poly.evaluate", "Polynomial", "evaluate"),
    ("poly.mul", "Polynomial", "__mul__"),
    ("poly.mul", "Polynomial", "__rmul__"),
    ("poly.add", "Polynomial", "__add__"),
    ("poly.add", "Polynomial", "__radd__"),
    ("poly.add", "Polynomial", "__sub__"),
    ("poly.add", "Polynomial", "__rsub__"),
    ("poly.add", "Polynomial", "__neg__"),
    ("poly.substitute", "Polynomial", "substitute"),
    ("poly.reduce", "Polynomial", "reduce_by_relation"),
    ("poly.reduce", "Polynomial", "reduce_by_relations"),
    ("poly.reduce", "Polynomial", "reduce_square"),
    ("poly.parse", "poly", "parse_polynomial"),
)
COARSE = (
    ("algebras.build_family", "algebras", "build_family"),
    ("algebras.custom_family", "algebras", "custom_family"),
    ("algebras.sample_parameters", "algebras", "sample_parameters"),
    ("algebras.jacobi_residuals", "algebras", "jacobi_residuals"),
    ("geometry.ricci_pipeline", "geometry", "ricci_pipeline"),
    ("geometry.connection", "geometry", "connection"),
    ("geometry.curvature", "geometry", "curvature"),
    ("soliton.soliton_system", "soliton", "soliton_system"),
    ("soliton.serialize_system", "soliton", "serialize_system"),
    ("soliton.scan", "soliton", "scan"),
    ("soliton.case_matches_point", "soliton", "case_matches_point"),
    ("soliton.verify_case", "soliton", "verify_case"),
    ("soliton.negative_control", "soliton", "negative_control"),
    ("soliton.solve_for_c", "soliton", "solve_for_c"),
    ("catalog.load_catalog", "catalog", "load_catalog"),
    ("catalog.verify_all", "catalog", "verify_all"),
    ("cli.main", "cli", "main"),
)
LADDER = ("exact", "reduced", "sampled", "failed", "scan-empty")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _branch_key(args, kwargs):
    fam = _arg(args, kwargs, 0, "fam")
    return (fam.family_id, fam.eta, _arg(args, kwargs, 1, "kind"), fam.structure)


class Tracer:
    """Counters, self times and coarse spans for one interpreter."""

    def __init__(self):
        self.stats = {}  # prefix -> [calls, self seconds]
        self.extra = defaultdict(int)
        self.distinct = defaultdict(set)
        self.spans = []  # (span id, parent span id, prefix, start, end)
        self._frames = [[0.0]]  # child-time accumulator per open call
        self._open_spans = [0]
        self._span_ids = itertools.count(1)

    def wrap(self, prefix, fn, coarse):
        stats = self.stats.setdefault(prefix, [0, 0.0])
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        span_ids = self._span_ids
        after = self._after(prefix)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if coarse:
                span_id = next(span_ids)
                parent = open_spans[-1]
                open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if coarse:
                    open_spans.pop()
                    spans.append((span_id, parent, prefix, start, start + elapsed))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after(self, prefix):
        extra, distinct = self.extra, self.distinct
        if prefix == "poly.mul":
            def after(args, kwargs, result):
                extra["poly.mul.terms_out"] += len(getattr(result, "terms", ()))
        elif prefix == "algebras.sample_parameters":
            def after(args, kwargs, result):
                extra["algebras.sample_parameters.points"] += len(result)
        elif prefix == "geometry.ricci_pipeline":
            def after(args, kwargs, result):
                distinct[prefix].add(_branch_key(args, kwargs))
        elif prefix == "soliton.soliton_system":
            def after(args, kwargs, result):
                distinct[prefix].add(_branch_key(args, kwargs))
                extra["soliton.soliton_system.residual_terms"] += sum(
                    len(r.terms) for r in result.residuals
                )
        elif prefix == "soliton.scan":
            def after(args, kwargs, result):
                extra["soliton.scan.entries"] += len(result.entries)
                extra["soliton.scan.solvable"] += len(result.solvable)
        elif prefix == "soliton.verify_case":
            def after(args, kwargs, result):
                extra[f"soliton.ladder.{result.method}"] += 1
        else:
            after = None
        return after

    def summary(self) -> dict:
        """Plain counts and seconds, summable across interpreters."""
        out = {}
        for prefix, (calls, self_s) in self.stats.items():
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
        out.update(self.extra)
        for prefix, keys in self.distinct.items():
            out[f"{prefix}.distinct"] = len(keys)
        return out


def install() -> Tracer:
    """Wrap the package's public functions in this interpreter."""
    import importlib

    modules = {name: importlib.import_module(f"lieschouten.{name}") for name in MODULES}
    package = importlib.import_module("lieschouten")
    bindings = list(modules.values()) + [package]
    polynomial = modules["poly"].Polynomial
    tracer = Tracer()
    for group, coarse in ((HOT, False), (COARSE, True)):
        for prefix, owner, attr in group:
            if owner == "Polynomial":
                setattr(polynomial, attr, tracer.wrap(prefix, getattr(polynomial, attr), coarse))
                continue
            original = getattr(modules[owner], attr)
            traced = tracer.wrap(prefix, original, coarse)
            # `from .x import f` copies the binding, so rebind it everywhere.
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
    return tracer


def per_layer_metrics(summary: dict) -> dict:
    """Every per-layer metric, derived from summed tracer summaries."""
    out = {}
    for prefix, _, _ in HOT + COARSE:
        out[f"{prefix}.calls"] = summary.get(f"{prefix}.calls", 0)
        out[f"{prefix}.self_s"] = summary.get(f"{prefix}.self_s", 0.0)
    for key in (
        "poly.mul.terms_out",
        "algebras.sample_parameters.points",
        "geometry.ricci_pipeline.distinct",
        "soliton.soliton_system.distinct",
        "soliton.soliton_system.residual_terms",
        "soliton.scan.entries",
        "soliton.scan.solvable",
    ):
        out[key] = summary.get(key, 0)
    for method in LADDER:
        out[f"soliton.ladder.{method}"] = summary.get(f"soliton.ladder.{method}", 0)
    calls = out["geometry.ricci_pipeline.calls"]
    out["geometry.ricci_pipeline.useful_ratio"] = (
        out["geometry.ricci_pipeline.distinct"] / calls if calls else 0.0
    )
    entries = out["soliton.scan.entries"]
    out["soliton.scan.solvable_ratio"] = out["soliton.scan.solvable"] / entries if entries else 0.0
    for module in MODULES:
        out[f"layer.{module}.self_s"] = sum(
            v for k, v in out.items() if k.startswith(module + ".") and k.endswith(".self_s")
        )
    return out
