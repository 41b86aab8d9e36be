"""Command-line front end.

Subcommands:

    families   list the built-in algebra families and their side conditions
    ricci      print the (symmetrized) Ricci operator and scalar curvature
    scalar     print just the scalar curvature
    system     emit the nine soliton derivation residuals
    jacobi     report Jacobi residuals, symbolically and on sampled points
    verify     replay the whole catalog; exit 1 on any non-suspect failure
    scan       sample parameter space and solve for c everywhere

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data or
parse error.  With ``--format machine`` every command emits stable
tab-separated records (byte-identical for identical invocations).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebras import (
    FAMILY_IDS,
    SamplingError,
    build_family,
    family_branches,
    jacobi_residuals,
    load_family,
    sample_parameters,
)
from .geometry import KIND_ALIASES, LEVI_CIVITA, ricci_pipeline
from .poly import ParseError, PolynomialError

# `soliton` and `catalog` are imported by the commands that run them, so a
# one-shot `ricci`, `scalar`, `jacobi` or `families` call never loads them.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _resolve_family(args) -> object:
    spec = args.family
    eta = getattr(args, "eta", None)
    if spec is None:
        raise UsageError("--family is required")
    if spec.startswith("custom:"):
        if eta is not None:
            raise UsageError("--eta applies only to g4")
        try:
            return load_family(spec)
        except FileNotFoundError as err:
            raise DataError(f"cannot read custom algebra: {err}") from err
        except (ParseError, PolynomialError, ValueError) as err:
            raise DataError(f"invalid custom algebra file: {err}") from err
    if spec not in FAMILY_IDS:
        raise UsageError(f"unknown family {spec!r} (g1..g7 or custom:<path>)")
    if spec == "g4" and eta is None:
        raise UsageError("g4 requires --eta 1 or --eta -1")
    if spec != "g4" and eta is not None:
        raise UsageError("--eta applies only to g4")
    return build_family(spec, eta=eta)


def _print_matrix(entries, indent="  "):
    cells = [[str(q) for q in row] for row in entries]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print(indent + "  ".join(c.rjust(width) for c in row))


def cmd_families(args) -> int:
    if args.format == "machine":
        for fid in FAMILY_IDS:
            for fam in family_branches(fid):
                pairs = []
                for label, (i, j) in (("12", (0, 1)), ("13", (0, 2)), ("23", (1, 2))):
                    vec = ",".join(str(q) for q in fam.structure.bracket_basis(i, j))
                    pairs.append(f"bracket.{label}={vec}")
                cons = ";".join(str(q) for q in fam.equality_constraints)
                nonv = ";".join(str(q) for q in fam.nonvanishing)
                fields = [f"family\t{fam.describe()}"] + pairs
                fields.append(f"constraints={cons}")
                fields.append(f"nonvanishing={nonv}")
                print("\t".join(fields))
        return EXIT_OK
    for fid in FAMILY_IDS:
        fam = family_branches(fid)[0]
        print(fid + (" (eta = +1 or -1)" if fid == "g4" else ""))
        for label, (i, j) in (("[e1,e2]", (0, 1)), ("[e1,e3]", (0, 2)), ("[e2,e3]", (1, 2))):
            vec = fam.structure.bracket_basis(i, j)
            terms = [
                f"({q})*e{k+1}" for k, q in enumerate(vec) if not q.is_zero
            ]
            print(f"  {label} = {' + '.join(terms) if terms else '0'}")
        if fam.equality_constraints:
            print("  constraints: " + ", ".join(f"{q} = 0" for q in fam.equality_constraints))
        if fam.nonvanishing:
            print("  nonvanishing: " + ", ".join(f"{q} != 0" for q in fam.nonvanishing))
    return EXIT_OK


def cmd_ricci(args) -> int:
    fam = _resolve_family(args)
    kind = KIND_ALIASES[args.kind]
    _, op, s = ricci_pipeline(fam, kind)
    if args.format == "machine":
        print(f"family\t{fam.describe()}")
        print(f"kind\t{args.kind}")
        for i, row in enumerate(op.entries, start=1):
            print(f"op\t{i}\t" + "\t".join(str(q) for q in row))
        print(f"scalar\t{s}")
        return EXIT_OK
    sym = "" if kind == LEVI_CIVITA else " (symmetrized)"
    print(f"Ricci operator{sym} of {fam.describe()} under {args.kind}:")
    _print_matrix(op.entries)
    print(f"scalar curvature: {s}")
    return EXIT_OK


def cmd_scalar(args) -> int:
    fam = _resolve_family(args)
    _, _, s = ricci_pipeline(fam, KIND_ALIASES[args.kind])
    if args.format == "machine":
        print(f"scalar\t{fam.describe()}\t{args.kind}\t{s}")
    else:
        print(f"scalar curvature of {fam.describe()} under {args.kind}: {s}")
    return EXIT_OK


def cmd_system(args) -> int:
    from .soliton import serialize_system, soliton_system

    fam = _resolve_family(args)
    system = soliton_system(fam, KIND_ALIASES[args.kind])
    if args.format == "machine":
        sys.stdout.write(serialize_system(system))
        return EXIT_OK
    print(f"derivation residuals for {fam.describe()} under {args.kind}:")
    for label, r in zip(system.residual_labels(), system.residuals):
        print(f"  {label}: {r} = 0")
    for q in system.constraints:
        print(f"  constraint: {q} = 0")
    for q in system.nonvanishing:
        print(f"  nonvanishing: {q} != 0")
    return EXIT_OK


def cmd_jacobi(args) -> int:
    fam = _resolve_family(args)
    residuals = jacobi_residuals(fam)
    identically_zero = all(q.is_zero for q in residuals)
    worst = 0.0
    if not identically_zero:
        for values in sample_parameters(fam, seed=args.seed, count=args.count):
            for q in residuals:
                worst = max(worst, abs(float(q.evaluate(values))))
    if args.format == "machine":
        for k, q in enumerate(residuals, start=1):
            print(f"jacobi\te{k}\t{q}")
        print(f"identically_zero\t{'yes' if identically_zero else 'no'}")
        if not identically_zero:
            print(f"sampled_max\t{worst:.3e}\tcount\t{args.count}\tseed\t{args.seed}")
        return EXIT_OK
    print(f"Jacobi residuals of {fam.describe()}:")
    for k, q in enumerate(residuals, start=1):
        print(f"  e{k}: {q}")
    if identically_zero:
        print("identically zero: the table is a Lie algebra for all parameters")
    else:
        print(f"nonzero symbolically; max |residual| over {args.count} constrained samples: {worst:.3e}")
    return EXIT_OK


def _parse_lambda0_grid(text):
    from .soliton import DEFAULT_LAMBDA0_GRID

    if not text:
        return DEFAULT_LAMBDA0_GRID
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as err:
            raise UsageError(f"bad lambda0 value {part!r}") from err
    return tuple(out)


def cmd_scan(args) -> int:
    from .soliton import scan

    fam = _resolve_family(args)
    grid = _parse_lambda0_grid(args.lambda0)
    report = scan(fam, KIND_ALIASES[args.kind], seed=args.seed, count=args.count, lambda0_grid=grid)
    solvable = report.solvable
    if args.format == "machine":
        print(f"scan\t{fam.describe()}\t{args.kind}\tseed={args.seed}\tcount={args.count}")
        for idx, values, lam, sol in report.entries:
            point = ",".join(f"{n}={values[n]}" for n in sorted(values))
            c_text = "-" if sol.value is None else str(sol.value)
            print(f"point\t{idx}\t{point}\tlambda0={lam}\t{sol.status}\tc={c_text}")
        print(f"summary\tsolvable={len(solvable)}\ttotal={report.size}")
        return EXIT_OK
    print(
        f"scan of {fam.describe()} under {args.kind}: "
        f"{len(solvable)} solvable of {report.size} (points x lambda0 grid)"
    )
    for _, values, lam, sol in solvable[:10]:
        point = ", ".join(f"{n}={values[n]}" for n in sorted(values)) or "(no parameters)"
        c_text = "any" if sol.status == "any" else str(sol.value)
        print(f"  {point}; lambda0={lam} -> c = {c_text}")
    if len(solvable) > 10:
        print(f"  ... {len(solvable) - 10} more")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .catalog import CatalogError, load_catalog, verify_all

    try:
        catalog = load_catalog()
    except CatalogError as err:
        print(f"catalog error: {err}", file=sys.stderr)
        return EXIT_DATA
    summary = verify_all(seed=args.seed, scan_count=args.count, only=args.only, catalog=catalog)
    counts = summary.counts()
    if args.format == "machine":
        for r in summary.records:
            print(f"RESULT\t{r.section}\t{r.label}\t{r.status}\t{r.method}\t{r.detail}")
        print("SUMMARY\t" + "\t".join(f"{k}={counts[k]}" for k in ("pass", "warn", "skip", "fail")))
    else:
        mark = {"pass": "PASS", "fail": "FAIL", "warn": "WARN", "skip": "skip"}
        for r in summary.records:
            print(f"[{mark[r.status]}] {r.section:10} {r.label:12} {r.detail}")
        print(
            f"{counts['pass']} passed, {counts['warn']} suspect warnings, "
            f"{counts['skip']} skipped, {counts['fail']} failed (seed {args.seed})"
        )
    if args.only is not None and not summary.records:
        print(f"no catalogued checks match {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if summary.ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieschouten",
        description="Exact Schouten-soliton toolkit for 3D Lorentzian Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, kind=True):
        if family:
            p.add_argument("--family", help="g1..g7 or custom:<path>")
            p.add_argument("--eta", type=int, choices=(1, -1), help="branch for g4")
        if kind:
            p.add_argument("--kind", choices=tuple(KIND_ALIASES), default="lc")
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("families", help="list the built-in families")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("ricci", help="Ricci operator and scalar curvature")
    common(p)
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("scalar", help="scalar curvature only")
    common(p)
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("system", help="soliton derivation residuals")
    common(p)
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("jacobi", help="Jacobi identity residuals")
    common(p, kind=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("scan", help="sample parameters and solve for c")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--lambda0", help="comma-separated rational lambda0 grid")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="replay the catalogued verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=500, help="scan points per family/kind")
    p.add_argument("--only", help="restrict to one label/family/section")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        print("count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, SamplingError) as err:  # a custom family the sampler cannot meet
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
