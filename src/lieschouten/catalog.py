"""Catalogued reference data and the one-shot verification driver.

The catalog data file (data/catalog.txt) holds, as parseable expression
strings, every reference Ricci operator matrix, every scalar curvature,
and every classification case for the seven families under the three
connections.  Storing them as data keeps transcriptions diffable and makes
the catalog itself the test oracle.

`verify_all` replays the whole battery: structural identities, matrix and
scalar fidelity, case verification with negative controls, the
no-solutions scan, per-case witness evidence, and completeness scans that
look for solvable points outside the catalogued classification.
"""

from __future__ import annotations

import importlib.resources
import itertools
import os
import re
import threading
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .algebras import FAMILY_IDS, LieAlgebraFamily, family_branches, instantiate_eta
from .geometry import (
    CANONICAL,
    CONNECTION_KINDS,
    KIND_ALIASES,
    KOBAYASHI_NOMIZU,
    LEVI_CIVITA,
    connection,
    curvature,
    metric_compatibility_residual,
    nabla_j,
    ricci_pipeline,
    torsion,
)
from .poly import DEFAULT_TABLE, ParseError, Polynomial, PolynomialError, VariableTable, exact_sqrt, parse_polynomial
from .soliton import (
    DEFAULT_LAMBDA0_GRID,
    TheoremCase,
    Value,
    case_matches_point,
    negative_control,
    resolve_witness,
    scan,
    scan_membership,
    solve_for_c,
    soliton_system,
    verify_case,
)

MATRIX_LABELS = (
    "3.9", "3.12", "3.18", "3.23", "3.27", "3.31", "3.36",
    "4.16", "4.19", "4.21", "4.27", "4.31", "4.35", "4.39",
    "4.44", "4.45", "4.48", "4.51", "4.54", "4.58", "4.62", "4.69",
)


class CatalogError(Exception):
    """A fixture failed to parse; the message names the offending label."""


class MatrixFixture(NamedTuple):
    label: str
    family_id: str
    kind: str
    entries: tuple[tuple[Polynomial, ...], ...]


class ScalarFixture(NamedTuple):
    label: str
    family_id: str
    kind: str
    expr: Polynomial
    suspect: bool = False
    variant: Optional[Polynomial] = None
    note: str = ""


class Catalog(NamedTuple):
    matrices: tuple[MatrixFixture, ...]
    scalars: tuple[ScalarFixture, ...]
    cases: tuple[TheoremCase, ...]

    def matrix(self, label: str) -> MatrixFixture:
        for m in self.matrices:
            if m.label == label:
                return m
        raise KeyError(label)

    def case(self, label: str) -> TheoremCase:
        for c in self.cases:
            if c.label == label:
                return c
        raise KeyError(label)


# -- data file parsing ---------------------------------------------------------

_SECTION_RE = re.compile(r"^\[(matrix|scalar|case)\s+([^\]]+)\]$")
_SQRT_RE = re.compile(r"^sqrt\((.*)\)$")
_AUX_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


def _read_sections(text: str) -> list[tuple[str, str, dict[str, str], int]]:
    sections = []
    current: Optional[tuple[str, str, dict[str, str], int]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = (m.group(1), m.group(2).strip(), {}, lineno)
            sections.append(current)
            continue
        if current is None:
            raise CatalogError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise CatalogError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        current[2][key.strip()] = value.strip()
    return sections


def _entries(text: str, what: str, label: str) -> Iterator[tuple[str, str]]:
    """(name, expression text) of each `name := expr` entry of a ';' list.
    A generator: an entry's error is raised when the caller reaches it, so
    the caller's own errors and these keep list order."""
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":=" not in part:
            raise CatalogError(f"[{label}] {what} {part!r} lacks ':='")
        name, expr = part.split(":=", 1)
        yield name.strip(), expr


def _expression(
    text: str, defs: dict[str, Polynomial], aux_table: VariableTable, label: str
) -> Polynomial:
    """`text` over DEFAULT_TABLE; only a section with `defs` parses it over
    the aux table, substitutes the definitions and projects back."""
    try:
        if not defs:
            return parse_polynomial(text)
        q = parse_polynomial(text, aux_table)
        for name, rhs in defs.items():
            q = q.substitute(name, rhs)
        return q.project_to(DEFAULT_TABLE)
    except (ParseError, PolynomialError) as err:
        raise CatalogError(f"[{label}] cannot parse {text!r}: {err}") from err


def _parse_assignments(text: str, defs, aux_table, label: str) -> tuple[tuple[str, Polynomial], ...]:
    entries = _entries(text, "assignment", label)
    return tuple((name, _expression(expr, defs, aux_table, label)) for name, expr in entries)


def _parse_reductions(text: str, defs, aux_table, label: str):
    out = []
    for lhs, rhs in _entries(text, "reduction", label):
        if not lhs.endswith("^2"):
            raise CatalogError(f"[{label}] reduction lhs {lhs!r} must be var^2")
        out.append((lhs[:-2].strip(), _expression(rhs, defs, aux_table, label)))
    return tuple(out)


def _parse_witness(text: str, label: str) -> tuple[tuple[str, object], ...]:
    """name = value entries: a rational, sqrt(rational) for an irrational
    locus (a Surd), or an expression, which may use eta."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CatalogError(f"[{label}] witness entry {part!r} lacks '='")
        name, value = part.split("=", 1)
        name, value = name.strip(), value.strip()
        match = _SQRT_RE.match(value)
        if match:
            try:
                root = exact_sqrt(Fraction(match.group(1)))
            except (ValueError, ZeroDivisionError):
                root = None
            if root is None:
                raise CatalogError(f"[{label}] witness {value!r} is not the square root of a rational >= 0")
            out.append((name, root))
            continue
        try:
            out.append((name, Fraction(value)))
            continue
        except ValueError:
            pass
        out.append((name, parse_polynomial(value, DEFAULT_TABLE)))
    return tuple(out)


def _catalog_text() -> str:
    return (
        importlib.resources.files("lieschouten")
        .joinpath("data/catalog.txt")
        .read_text(encoding="utf-8")
    )


def load_catalog(text: Optional[str] = None) -> Catalog:
    """Parse the catalog; raises CatalogError naming any failing label."""
    if text is None:
        text = _catalog_text()
    aux_table = DEFAULT_TABLE.extended(_AUX_NAMES)
    matrices: list[MatrixFixture] = []
    scalars: list[ScalarFixture] = []
    cases: list[TheoremCase] = []
    for stype, label, kv, _ in _read_sections(text):
        family_id = kv.get("family", "")
        kind = KIND_ALIASES.get(kv.get("kind", ""), kv.get("kind", ""))
        entries = _entries(kv.get("defs", ""), "defs entry", label)
        defs = {name: parse_polynomial(expr, aux_table) for name, expr in entries}
        if stype == "matrix":
            rows = []
            for key in ("row1", "row2", "row3"):
                if key not in kv:
                    raise CatalogError(f"[matrix {label}] missing {key}")
                parts = kv[key].split(",")
                if len(parts) != 3:
                    raise CatalogError(f"[matrix {label}] {key} needs 3 entries")
                rows.append(tuple(_expression(t, defs, aux_table, f"matrix {label}") for t in parts))
            matrices.append(MatrixFixture(label, family_id, kind, tuple(rows)))
        elif stype == "scalar":
            if "expr" not in kv:
                raise CatalogError(f"[scalar {label}] missing expr")
            scalars.append(
                ScalarFixture(
                    label,
                    family_id,
                    kind,
                    _expression(kv["expr"], defs, aux_table, f"scalar {label}"),
                    suspect=kv.get("suspect", "no") == "yes",
                    variant=(
                        _expression(kv["variant_expr"], defs, aux_table, f"scalar {label}")
                        if "variant_expr" in kv
                        else None
                    ),
                    note=kv.get("note", ""),
                )
            )
        else:  # case
            clabel = f"case {label}"
            c_text = kv.get("c", "").strip()
            if kv.get("empty", "no") == "yes":
                c_expr = None
            elif not c_text:
                raise CatalogError(f"[{clabel}] missing c")
            else:
                c_expr = None if c_text == "free" else _expression(c_text, defs, aux_table, clabel)
            variant_c = kv.get("variant_c")
            cases.append(
                TheoremCase(
                    label=label,
                    family_id=family_id,
                    kind=kind,
                    substitutions=_parse_assignments(kv.get("subs", ""), defs, aux_table, clabel),
                    c_expr=c_expr,
                    reductions=_parse_reductions(kv.get("reduce", ""), defs, aux_table, clabel),
                    nonzero=tuple(
                        _expression(t, defs, aux_table, clabel)
                        for t in kv.get("nonzero", "").split(";")
                        if t.strip()
                    ),
                    sample_subs=_parse_assignments(kv.get("sample", ""), defs, aux_table, clabel),
                    witness=_parse_witness(kv.get("witness", ""), clabel),
                    suspect=kv.get("suspect", "no") == "yes",
                    empty=kv.get("empty", "no") == "yes",
                    variant_substitutions=(
                        _parse_assignments(kv["variant_subs"], defs, aux_table, clabel)
                        if "variant_subs" in kv
                        else None
                    ),
                    variant_c=(
                        _expression(variant_c, defs, aux_table, clabel) if variant_c else None
                    ),
                    variant_reductions=(
                        _parse_reductions(kv["variant_reduce"], defs, aux_table, clabel)
                        if "variant_reduce" in kv
                        else None
                    ),
                    note=kv.get("note", ""),
                )
            )
    return Catalog(tuple(matrices), tuple(scalars), tuple(cases))


# -- verification driver --------------------------------------------------------


class VerifyRecord(NamedTuple):
    section: str  # structural | matrix | scalar | case | control | witness | scan
    label: str
    status: str  # pass | fail | warn | skip
    method: str
    detail: str
    selectors: tuple[str, ...]


class VerifySummary(NamedTuple):
    records: tuple[VerifyRecord, ...]
    seed: int

    @property
    def failed(self) -> tuple[VerifyRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    @property
    def warned(self) -> tuple[VerifyRecord, ...]:
        return tuple(r for r in self.records if r.status == "warn")

    @property
    def ok(self) -> bool:
        return not self.failed

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "warn": 0, "skip": 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out


def _kind_tag(kind: str) -> str:
    return {LEVI_CIVITA: "lc", CANONICAL: "can", KOBAYASHI_NOMIZU: "kn"}[kind]


def _theorem_prefix(label: str) -> str:
    return label.rsplit(".", 1)[0] if label.count(".") >= 2 else label


def _matches_only(selectors: Sequence[str], only: Optional[str]) -> bool:
    return only is None or only in selectors


def _compare_mod_constraints(
    computed: Polynomial, expected: Polynomial, fam: LieAlgebraFamily
) -> tuple[bool, bool]:
    """(equal, used_constraints): exact equality, possibly modulo constraints."""
    diff = computed - expected
    if diff.is_zero:
        return True, False
    if fam.equality_constraints:
        reduced = diff.reduce_by_relations(fam.equality_constraints)
        if reduced.is_zero:
            return True, True
    return False, False


def _vanishes(planes) -> bool:
    """Every entry of a stack of 3x3 polynomial matrices is zero."""
    return all(q.is_zero for plane in planes for row in plane for q in row)


def _structural_records(table: VariableTable, only: Optional[str]) -> list[VerifyRecord]:
    records = []
    for fid in FAMILY_IDS:
        for fam in family_branches(fid, table):
            selectors = (fam.describe(), fid, "structural")
            if not _matches_only(selectors, only):
                continue
            lc, can, kn = (connection(fam, kind) for kind in CONNECTION_KINDS)
            checks = (
                ("lc torsion", torsion(lc, fam)),
                ("lc metric residual", metric_compatibility_residual(lc, fam)),
                ("canonical metric residual", metric_compatibility_residual(can, fam)),
                ("canonical nabla-J", [m.entries for m in nabla_j(can, fam)]),
                ("kn nabla-J", [m.entries for m in nabla_j(kn, fam)]),
            )
            problems = [name for name, planes in checks if not _vanishes(planes)]
            for kind, conn in zip(CONNECTION_KINDS, (lc, can, kn)):
                r = curvature(conn, fam).r
                if not all(
                    (r[i][j][k][l] + r[j][i][k][l]).is_zero
                    for i, j, k, l in itertools.product(range(3), repeat=4)
                ):
                    problems.append(f"{_kind_tag(kind)} curvature antisymmetry")
            # the pipeline keeps the Levi-Civita Ricci form unsymmetrized
            if not ricci_pipeline(fam, LEVI_CIVITA)[0].is_symmetric:
                problems.append("lc ricci symmetry")
            records.append(
                VerifyRecord(
                    section="structural",
                    label=fam.describe(),
                    status="fail" if problems else "pass",
                    method="identity",
                    detail="; ".join(problems) if problems else "all identities hold",
                    selectors=selectors,
                )
            )
    return records


def _matrix_records(catalog: Catalog, table: VariableTable, only: Optional[str]) -> list[VerifyRecord]:
    records = []
    for fixture in catalog.matrices:
        tag = f"{fixture.family_id}-{_kind_tag(fixture.kind)}"
        selectors = (fixture.label, fixture.family_id, tag, "matrix")
        if not _matches_only(selectors, only):
            continue
        status = "pass"
        used_constraints = False
        details = []
        for fam in family_branches(fixture.family_id, table):
            _, op, _ = ricci_pipeline(fam, fixture.kind)
            for i in range(3):
                for j in range(3):
                    expected = instantiate_eta(fixture.entries[i][j], fam.eta, table)
                    equal, used = _compare_mod_constraints(op.entries[i][j], expected, fam)
                    used_constraints = used_constraints or used
                    if not equal:
                        status = "fail"
                        details.append(
                            f"{fam.describe()} entry ({i+1},{j+1}): computed {op.entries[i][j]}, expected {expected}"
                        )
        method = "exact-mod-constraints" if used_constraints else "exact"
        records.append(
            VerifyRecord(
                section="matrix",
                label=fixture.label,
                status=status,
                method=method,
                detail="; ".join(details) if details else f"operator matches ({tag})",
                selectors=selectors,
            )
        )
    # the two stored forms of the g4 Kobayashi-Nomizu matrix must agree
    pair_selectors = ("4.44", "4.45", "4.44=4.45", "g4", "g4-kn", "matrix")
    if not _matches_only(pair_selectors, only):
        return records
    try:
        m_def = catalog.matrix("4.44")
        m_flat = catalog.matrix("4.45")
    except KeyError:
        return records
    same = all(
        m_def.entries[i][j] == m_flat.entries[i][j] for i in range(3) for j in range(3)
    )
    records.append(
        VerifyRecord(
            section="matrix",
            label="4.44=4.45",
            status="pass" if same else "fail",
            method="exact",
            detail="auxiliary-symbol form expands to the flat form"
            if same
            else "forms disagree after expanding the auxiliaries",
            selectors=pair_selectors,
        )
    )
    return records


def _scalar_records(catalog: Catalog, table: VariableTable, only: Optional[str]) -> list[VerifyRecord]:
    records = []
    for fixture in catalog.scalars:
        selectors = (fixture.label, fixture.family_id, "scalar")
        if not _matches_only(selectors, only):
            continue
        stated_ok = True
        variant_ok = fixture.variant is not None
        details = []
        for fam in family_branches(fixture.family_id, table):
            _, _, s = ricci_pipeline(fam, fixture.kind)
            expected = instantiate_eta(fixture.expr, fam.eta, table)
            equal, _ = _compare_mod_constraints(s, expected, fam)
            if not equal:
                stated_ok = False
                details.append(f"{fam.describe()}: computed {s}, stated {expected}")
            if fixture.variant is not None:
                v_expected = instantiate_eta(fixture.variant, fam.eta, table)
                v_equal, _ = _compare_mod_constraints(s, v_expected, fam)
                variant_ok = variant_ok and v_equal
        if stated_ok:
            status = "pass"
            detail = "scalar curvature matches"
        elif fixture.suspect and variant_ok:
            status = "warn"
            detail = "; ".join(details) + "; variant matches"
            if fixture.note:
                detail += f" [{fixture.note}]"
        else:
            status = "fail"
            detail = "; ".join(details)
        records.append(
            VerifyRecord(
                section="scalar",
                label=fixture.label,
                status=status,
                method="exact",
                detail=detail,
                selectors=selectors,
            )
        )
    return records


def _format_point(values: dict[str, Value]) -> str:
    return ", ".join(f"{name}={values[name]}" for name in sorted(values))


def _case_records(
    catalog: Catalog,
    table: VariableTable,
    seed: int,
    sample_count: int,
    only: Optional[str],
) -> list[VerifyRecord]:
    records = []
    for case in catalog.cases:
        tag = f"{case.family_id}-{_kind_tag(case.kind)}"
        selectors = (case.label, _theorem_prefix(case.label), case.family_id, tag, "case")
        if not _matches_only(selectors, only):
            continue
        report = verify_case(case, table=table, seed=seed, sample_count=sample_count)
        if case.empty:
            records.append(
                VerifyRecord(
                    section="case",
                    label=case.label,
                    status="pass" if report.ok else "fail",
                    method=report.method,
                    detail=report.detail,
                    selectors=selectors,
                )
            )
            continue
        detail = f"stated: {report.method}"
        if report.method == "unsampled":
            detail += f"; {report.detail}"
        if report.variant_method is not None:
            detail += f"; variant: {report.variant_method}"
        if report.counterexample:
            detail += f"; counterexample {_format_point(report.counterexample)}"
        if case.note:
            detail += f" [{case.note}]"
        if case.suspect:
            status = "warn" if report.ok else "fail"
        else:
            status = "pass" if report.ok and report.method in ("exact", "reduced") else "fail"
        records.append(
            VerifyRecord(
                section="case",
                label=case.label,
                status=status,
                method=report.method,
                detail=detail,
                selectors=selectors,
            )
        )
    return records


def _control_records(catalog: Catalog, table: VariableTable, only: Optional[str]) -> list[VerifyRecord]:
    records = []
    for case in catalog.cases:
        tag = f"{case.family_id}-{_kind_tag(case.kind)}"
        selectors = (case.label, _theorem_prefix(case.label), case.family_id, tag, "control")
        if not _matches_only(selectors, only):
            continue
        report = negative_control(case, table=table)
        status = "skip" if report.method == "skipped" else ("pass" if report.ok else "fail")
        records.append(
            VerifyRecord(
                section="control",
                label=case.label,
                status=status,
                method=report.method,
                detail=report.detail,
                selectors=selectors,
            )
        )
    return records


def _witness_records(catalog: Catalog, table: VariableTable, only: Optional[str]) -> list[VerifyRecord]:
    """Each stated case must be witnessed by a solvable point in its locus."""
    records = []
    lam = Fraction(1, 2)
    for case in catalog.cases:
        if case.empty:
            continue
        tag = f"{case.family_id}-{_kind_tag(case.kind)}"
        selectors = (case.label, _theorem_prefix(case.label), case.family_id, tag, "witness")
        if not _matches_only(selectors, only):
            continue
        problems = []
        for fam in family_branches(case.family_id, table):
            system = soliton_system(fam, case.kind)
            witness = resolve_witness(case, fam.eta, table)
            sol = solve_for_c(system, witness, lam)
            if sol.status == "none":
                problems.append(f"{fam.describe()}: witness not solvable")
                continue
            if not case_matches_point(case, fam.eta, witness, lam, sol, table):
                problems.append(f"{fam.describe()}: witness solves but falls outside the case")
        records.append(
            VerifyRecord(
                section="witness",
                label=case.label,
                status="fail" if problems else "pass",
                method="solve",
                detail="; ".join(problems) if problems else "witness solvable inside the case locus",
                selectors=selectors,
            )
        )
    return records


def _scan_families(only: Optional[str]) -> list[str]:
    """The families with at least one scan record that `only` selects."""
    return [
        fid
        for fid in FAMILY_IDS
        if any(_matches_only((f"{fid}-{_kind_tag(kind)}", fid, "scan"), only) for kind in CONNECTION_KINDS)
    ]


def _family_scan_records(
    catalog: Catalog,
    table: VariableTable,
    fid: str,
    seed: int,
    scan_count: int,
    lambda0_grid,
    only: Optional[str],
) -> list[VerifyRecord]:
    """The scan records of one family.  A family is the unit of work: its
    three kinds share one `_branch_sample` draw."""
    records = []
    for kind in CONNECTION_KINDS:
        tag = f"{fid}-{_kind_tag(kind)}"
        if not _matches_only((tag, fid, "scan"), only):
            continue
        cases = [c for c in catalog.cases if c.family_id == fid and c.kind == kind]
        solvable_total = 0
        entry_total = 0
        unmatched = []
        for fam in family_branches(fid, table):
            report = scan(fam, kind, seed=seed, count=scan_count, lambda0_grid=lambda0_grid)
            entry_total += report.size
            verdicts = scan_membership(report, cases, table)
            solvable_total += len(verdicts)
            if not all(verdicts):
                outside = (cell for cell, inside in zip(report.cells(), verdicts) if not inside)
                for _, pt, lam, sol in itertools.islice(outside, 3 - len(unmatched)):
                    unmatched.append(f"{fam.describe()} {_format_point(pt.values)}, lambda0={lam}, c={sol.value}")
        has_nonempty_case = any(not c.empty for c in cases)
        if unmatched:
            status = "fail"
            detail = (
                f"{solvable_total}/{entry_total} solvable; outside classification: "
                + " | ".join(unmatched)
            )
        elif not has_nonempty_case and solvable_total > 0:
            status = "fail"
            detail = f"{solvable_total}/{entry_total} solvable but classification claims none"
        else:
            status = "pass"
            detail = f"{solvable_total}/{entry_total} solvable, all inside the classification"
        records.append(
            VerifyRecord(
                section="scan",
                label=tag,
                status=status,
                method="scan",
                detail=detail,
                selectors=(tag, fid, "scan"),
            )
        )
    return records


# -- the scan worker -------------------------------------------------------------


def _work(queue: int, scan_family, families: Sequence[str]) -> dict[int, object]:
    """{index: records} for each family index taken from the shared queue
    until it is empty; the first exception is kept as that family's outcome
    and ends the work.  A one-byte read from a pipe is atomic, so each index
    reaches exactly one process."""
    outcomes: dict[int, object] = {}
    while byte := os.read(queue, 1):
        index = byte[0]
        try:
            outcomes[index] = scan_family(families[index])
        except Exception as exc:
            outcomes[index] = exc
            break
    return outcomes


def _may_fork(families: Sequence[str]) -> bool:
    """A second process pays only for at least two families, on at least two
    CPUs, and forking is safe only while this process runs one thread."""
    if len(families) < 2 or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and threading.active_count() == 1


class _ScanWorker:
    """One forked process that scans families from a queue it shares with
    the parent, and reports {index: records} through a pipe when the queue
    is empty.  Start it with `start`; the parent calls `finish` once its
    other sections are done and `close` in every case."""

    def __init__(self, pid: int, queue: int, report: int, families: Sequence[str], scan_family):
        self.pid: Optional[int] = pid
        self._queue: Optional[int] = queue
        self._report: Optional[int] = report
        self._families = families
        self._scan_family = scan_family

    @classmethod
    def start(cls, families: Sequence[str], scan_family) -> Optional["_ScanWorker"]:
        """The worker, or None when the fork fails (the run stays serial)."""
        import pickle

        queue, queue_end = os.pipe()
        os.write(queue_end, bytes(range(len(families))))
        os.close(queue_end)
        report, report_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (queue, report, report_end):
                os.close(fd)
            return None
        if pid == 0:
            # The worker never returns into the caller: whatever happens, it
            # leaves by os._exit, so no buffer or handler of the parent's runs.
            try:
                os.close(report)
                try:
                    blob = pickle.dumps(_work(queue, scan_family, families))
                except Exception:
                    blob = b""  # the parent scans this worker's families itself
                with os.fdopen(report_end, "wb") as out:
                    out.write(blob)
            finally:
                os._exit(0)
        os.close(report_end)
        return cls(pid, queue, report, families, scan_family)

    def finish(self) -> dict[int, object]:
        """Drain the queue here, then merge the worker's report; a family
        that neither process reports is left out, for the caller to scan."""
        import pickle

        outcomes = _work(self._queue, self._scan_family, self._families)
        with os.fdopen(self._report, "rb") as report:
            self._report = None
            blob = report.read()
        os.waitpid(self.pid, 0)
        self.pid = None
        try:
            reported = pickle.loads(blob) if blob else {}
        except Exception:
            reported = {}  # e.g. an exception type that does not unpickle
        return {**reported, **outcomes}

    def close(self) -> None:
        """Kill and reap a worker that `finish` did not reap; close the pipes."""
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for fd in (self._queue, self._report):
            if fd is not None:
                os.close(fd)
        self._queue = self._report = None


def verify_all(
    seed: int = 0,
    scan_count: int = 500,
    sample_count: int = 120,
    only: Optional[str] = None,
    table: VariableTable = DEFAULT_TABLE,
    lambda0_grid=DEFAULT_LAMBDA0_GRID,
    catalog: Optional[Catalog] = None,
) -> VerifySummary:
    """Run every catalogued check; deterministic for a fixed seed.

    `only` restricts to records whose selector set contains it exactly: a
    case label ("3.3.7"), a theorem prefix ("3.3"), a matrix label ("3.9"),
    a family ("g5"), a family-kind tag ("g5-can"), or a section name.

    When the scan section selects at least two families, one forked worker
    scans families from a queue shared with this process while this
    process runs the other sections; `_may_fork` lists when the run stays
    serial.  The records are the same either way, in the same order.
    """
    if catalog is None:
        catalog = load_catalog()
    families = _scan_families(only)

    def scan_family(fid: str) -> list[VerifyRecord]:
        return _family_scan_records(catalog, table, fid, seed, scan_count, lambda0_grid, only)

    worker = _ScanWorker.start(families, scan_family) if _may_fork(families) else None
    try:
        records: list[VerifyRecord] = []
        records.extend(_structural_records(table, only))
        records.extend(_matrix_records(catalog, table, only))
        records.extend(_scalar_records(catalog, table, only))
        records.extend(_case_records(catalog, table, seed, sample_count, only))
        records.extend(_control_records(catalog, table, only))
        records.extend(_witness_records(catalog, table, only))
        outcomes = worker.finish() if worker is not None else {}
    finally:
        if worker is not None:
            worker.close()
    # listed family order, whichever process scanned a family: the first
    # failure in that order is raised, as a serial run raises it
    for index, fid in enumerate(families):
        outcome = outcomes[index] if index in outcomes else scan_family(fid)
        if isinstance(outcome, BaseException):
            raise outcome
        records.extend(outcome)
    return VerifySummary(records=tuple(records), seed=seed)
