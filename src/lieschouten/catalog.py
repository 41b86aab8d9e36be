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

import contextlib
import functools
import importlib.resources
import itertools
import os
import re
import threading
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .algebras import FAMILY_IDS, LieAlgebraFamily, Value, family_branches, instantiate_eta
from .geometry import (
    CANONICAL,
    CONNECTION_KINDS,
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
    TheoremCase,
    case_matches_point,
    negative_control,
    scan,
    scan_membership,
    solve_for_c,
    soliton_system,
    verify_case,
    witness_point,
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
    text: str, defs: dict[str, Polynomial], aux_table: VariableTable, label: str, memo: dict[str, Polynomial]
) -> Polynomial:
    """`text` over DEFAULT_TABLE; only a section with `defs` parses it over
    the aux table, substitutes the definitions and projects back.  A text
    without defs is parsed once per `memo`, which keeps only successes."""
    try:
        if not defs:
            if text not in memo:
                memo[text] = parse_polynomial(text)
            return memo[text]
        q = parse_polynomial(text, aux_table)
        for name, rhs in defs.items():
            q = q.substitute(name, rhs)
        return q.project_to(DEFAULT_TABLE)
    except (ParseError, PolynomialError) as err:
        raise CatalogError(f"[{label}] cannot parse {text!r}: {err}") from err


def _parse_assignments(text: str, defs, aux_table, label: str, memo) -> tuple[tuple[str, Polynomial], ...]:
    entries = _entries(text, "assignment", label)
    return tuple((name, _expression(expr, defs, aux_table, label, memo)) for name, expr in entries)


def _parse_reductions(text: str, defs, aux_table, label: str, memo):
    out = []
    for lhs, rhs in _entries(text, "reduction", label):
        if not lhs.endswith("^2"):
            raise CatalogError(f"[{label}] reduction lhs {lhs!r} must be var^2")
        out.append((lhs[:-2].strip(), _expression(rhs, defs, aux_table, label, memo)))
    return tuple(out)


def _parse_witness(text: str, label: str, family_id: str) -> tuple[tuple[str, object], ...]:
    """name = value entries: a rational, sqrt(rational) for an irrational
    locus (a Surd), or a constant expression, which may use eta on g4."""
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
        try:
            q = parse_polynomial(value)
        except ParseError as err:
            raise CatalogError(f"[{label}] cannot parse {value!r}: {err}") from err
        unknown = q.variables() - ({"eta"} if family_id == "g4" else set())
        if unknown:
            raise CatalogError(
                f"[{label}] witness {name} = {value} is not constant: it reads {', '.join(sorted(unknown))}"
            )
        out.append((name, q))
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
    memo: dict[str, Polynomial] = {}  # defs-free expression text -> its parse
    matrices: list[MatrixFixture] = []
    scalars: list[ScalarFixture] = []
    cases: list[TheoremCase] = []
    for stype, label, kv, _ in _read_sections(text):
        family_id = kv.get("family", "")
        kind = kv.get("kind", "")
        entries = _entries(kv.get("defs", ""), "defs entry", label)
        defs = {name: parse_polynomial(expr, aux_table) for name, expr in entries}
        where = f"{stype} {label}"

        def parsed(key: str, parse=_expression, default: Optional[str] = None):
            """kv[key] (else `default`) parsed with the section's defs; None if both are missing."""
            text = kv.get(key, default)
            return None if text is None else parse(text, defs, aux_table, where, memo)

        if stype == "matrix":
            rows = []
            for key in ("row1", "row2", "row3"):
                if key not in kv:
                    raise CatalogError(f"[{where}] missing {key}")
                parts = kv[key].split(",")
                if len(parts) != 3:
                    raise CatalogError(f"[{where}] {key} needs 3 entries")
                rows.append(tuple(_expression(t, defs, aux_table, where, memo) for t in parts))
            matrices.append(MatrixFixture(label, family_id, kind, tuple(rows)))
        elif stype == "scalar":
            if "expr" not in kv:
                raise CatalogError(f"[{where}] missing expr")
            expr, variant, suspect = parsed("expr"), parsed("variant_expr"), kv.get("suspect") == "yes"
            scalars.append(ScalarFixture(label, family_id, kind, expr, suspect, variant, kv.get("note", "")))
        else:  # case
            c_text = kv.get("c", "").strip()
            if kv.get("empty", "no") == "yes":
                c_expr = None
            elif not c_text:
                raise CatalogError(f"[{where}] missing c")
            else:
                c_expr = None if c_text == "free" else _expression(c_text, defs, aux_table, where, memo)
            cases.append(
                TheoremCase(
                    label=label,
                    family_id=family_id,
                    kind=kind,
                    substitutions=parsed("subs", _parse_assignments, ""),
                    c_expr=c_expr,
                    reductions=parsed("reduce", _parse_reductions, ""),
                    nonzero=tuple(
                        _expression(t, defs, aux_table, where, memo)
                        for t in kv.get("nonzero", "").split(";") if t.strip()
                    ),
                    sample_subs=parsed("sample", _parse_assignments, ""),
                    witness=_parse_witness(kv.get("witness", ""), where, family_id),
                    suspect=kv.get("suspect", "no") == "yes",
                    empty=kv.get("empty", "no") == "yes",
                    variant_substitutions=parsed("variant_subs", _parse_assignments),
                    variant_c=parsed("variant_c") if kv.get("variant_c") else None,
                    variant_reductions=parsed("variant_reduce", _parse_reductions),
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


def _family_tag(fid: str, kind: str) -> str:
    """The family-kind tag, "g5-can"."""
    return f"{fid}-{_kind_tag(kind)}"


def _format_point(values: dict[str, Value]) -> str:
    return ", ".join(f"{name}={values[name]}" for name in sorted(values))


def _case_selectors(case: TheoremCase, section: str) -> tuple[str, ...]:
    """(label, theorem prefix, family, family-kind tag, section) of a case."""
    prefix = case.label.rsplit(".", 1)[0] if case.label.count(".") >= 2 else case.label
    return (case.label, prefix, case.family_id, _family_tag(case.family_id, case.kind), section)


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


def _structural_check(fam: LieAlgebraFamily) -> tuple[str, str, str]:
    lc, can, kn = (connection(fam, kind) for kind in CONNECTION_KINDS)
    checks = (
        ("lc torsion", torsion(lc, fam)),
        ("lc metric residual", metric_compatibility_residual(lc)),
        ("canonical metric residual", metric_compatibility_residual(can)),
        ("canonical nabla-J", [m.entries for m in nabla_j(can)]),
        ("kn nabla-J", [m.entries for m in nabla_j(kn)]),
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
    return ("fail", "identity", "; ".join(problems)) if problems else ("pass", "identity", "all identities hold")


def _matrix_check(fixture: MatrixFixture) -> tuple[str, str, str]:
    status = "pass"
    used_constraints = False
    details = []
    for fam in family_branches(fixture.family_id):
        _, op, _ = ricci_pipeline(fam, fixture.kind)
        for i in range(3):
            for j in range(3):
                expected = instantiate_eta(fixture.entries[i][j], fam.eta)
                equal, used = _compare_mod_constraints(op.entries[i][j], expected, fam)
                used_constraints = used_constraints or used
                if not equal:
                    status = "fail"
                    details.append(
                        f"{fam.describe()} entry ({i+1},{j+1}): computed {op.entries[i][j]}, expected {expected}"
                    )
    method = "exact-mod-constraints" if used_constraints else "exact"
    tag = _family_tag(fixture.family_id, fixture.kind)
    return status, method, "; ".join(details) if details else f"operator matches ({tag})"


def _matrix_pair_check(catalog: Catalog) -> tuple[str, str, str]:
    """The two stored forms of the g4 Kobayashi-Nomizu matrix must agree."""
    if catalog.matrix("4.44").entries == catalog.matrix("4.45").entries:
        return "pass", "exact", "auxiliary-symbol form expands to the flat form"
    return "fail", "exact", "forms disagree after expanding the auxiliaries"


def _scalar_check(fixture: ScalarFixture) -> tuple[str, str, str]:
    stated_ok = True
    variant_ok = fixture.variant is not None
    details = []
    for fam in family_branches(fixture.family_id):
        _, _, s = ricci_pipeline(fam, fixture.kind)
        expected = instantiate_eta(fixture.expr, fam.eta)
        equal, _ = _compare_mod_constraints(s, expected, fam)
        if not equal:
            stated_ok = False
            details.append(f"{fam.describe()}: computed {s}, stated {expected}")
        if fixture.variant is not None:
            v_expected = instantiate_eta(fixture.variant, fam.eta)
            v_equal, _ = _compare_mod_constraints(s, v_expected, fam)
            variant_ok = variant_ok and v_equal
    if stated_ok:
        return "pass", "exact", "scalar curvature matches"
    if fixture.suspect and variant_ok:
        detail = "; ".join(details) + "; variant matches"
        return "warn", "exact", detail + (f" [{fixture.note}]" if fixture.note else "")
    return "fail", "exact", "; ".join(details)


def _case_check(case: TheoremCase, seed: int) -> tuple[str, str, str]:
    report = verify_case(case, seed=seed)
    if case.empty:
        return ("pass" if report.ok else "fail"), report.method, report.detail
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
    return status, report.method, detail


def _control_check(case: TheoremCase) -> tuple[str, str, str]:
    report = negative_control(case)
    status = "skip" if report.method == "skipped" else ("pass" if report.ok else "fail")
    return status, report.method, report.detail


def _witness_check(case: TheoremCase) -> tuple[str, str, str]:
    """The case's witness must be solvable and lie in its locus."""
    lam = Fraction(1, 2)
    problems = []
    for fam in family_branches(case.family_id):
        system = soliton_system(fam, case.kind)
        witness = witness_point(case, fam.eta)
        sol = solve_for_c(system, witness, lam)
        if sol.status == "none":
            problems.append(f"{fam.describe()}: witness not solvable")
            continue
        if not case_matches_point(case, fam.eta, witness, lam, sol):
            problems.append(f"{fam.describe()}: witness solves but falls outside the case")
    if problems:
        return "fail", "solve", "; ".join(problems)
    return "pass", "solve", "witness solvable inside the case locus"


def _scan_check(catalog: Catalog, fid: str, kind: str, seed: int, scan_count: int) -> tuple[str, str, str]:
    """Every solvable cell of the (family, kind) scans must lie in a case."""
    cases = [c for c in catalog.cases if c.family_id == fid and c.kind == kind]
    solvable_total = 0
    entry_total = 0
    unmatched = []
    for fam in family_branches(fid):
        report = scan(fam, kind, seed=seed, count=scan_count)
        entry_total += report.size
        verdicts = scan_membership(report, cases)
        solvable_total += len(verdicts)
        if not all(verdicts):
            outside = (cell for cell, inside in zip(report.cells(), verdicts) if not inside)
            for _, values, lam, sol in itertools.islice(outside, 3 - len(unmatched)):
                unmatched.append(f"{fam.describe()} {_format_point(values)}, lambda0={lam}, c={sol.value}")
    if unmatched:
        outside = " | ".join(unmatched)
        return "fail", "scan", f"{solvable_total}/{entry_total} solvable; outside classification: {outside}"
    if solvable_total and not any(not c.empty for c in cases):
        return "fail", "scan", f"{solvable_total}/{entry_total} solvable but classification claims none"
    return "pass", "scan", f"{solvable_total}/{entry_total} solvable, all inside the classification"


class _Entry(NamedTuple):
    """One record of a run before it runs: its check gives the record's
    (status, method, detail)."""

    section: str
    label: str
    family: str
    selectors: tuple[str, ...]
    check: Callable[[], tuple[str, str, str]]


def _plan(catalog: Catalog, seed: int, scan_count: int) -> list[_Entry]:
    """Every record of a full run, in the run's order: the structural,
    matrix, scalar, case, control, witness and scan sections, each in
    catalogue order.  Each entry names the one family whose branches its
    check builds."""
    plan = []

    def add(section, label, family, selectors, check, *args):
        plan.append(_Entry(section, label, family, selectors, functools.partial(check, *args)))

    for fid in FAMILY_IDS:
        for fam in family_branches(fid):
            add("structural", fam.describe(), fid, (fam.describe(), fid, "structural"), _structural_check, fam)
    for m in catalog.matrices:
        selectors = (m.label, m.family_id, _family_tag(m.family_id, m.kind), "matrix")
        add("matrix", m.label, m.family_id, selectors, _matrix_check, m)
    if {"4.44", "4.45"} <= {m.label for m in catalog.matrices}:
        selectors = ("4.44", "4.45", "4.44=4.45", "g4", "g4-kn", "matrix")
        add("matrix", "4.44=4.45", "g4", selectors, _matrix_pair_check, catalog)
    for s in catalog.scalars:
        add("scalar", s.label, s.family_id, (s.label, s.family_id, "scalar"), _scalar_check, s)
    for section, check, *args in (
        ("case", _case_check, seed),
        ("control", _control_check),
        ("witness", _witness_check),
    ):
        for case in catalog.cases:
            if section != "witness" or not case.empty:
                add(section, case.label, case.family_id, _case_selectors(case, section), check, case, *args)
    for fid in FAMILY_IDS:
        for kind in CONNECTION_KINDS:
            tag = _family_tag(fid, kind)
            add("scan", tag, fid, (tag, fid, "scan"), _scan_check, catalog, fid, kind, seed, scan_count)
    return plan


def _records(entries: Sequence[_Entry]) -> list[VerifyRecord]:
    """The records of `entries`, in listed order."""
    return [VerifyRecord(e.section, e.label, *e.check(), e.selectors) for e in entries]


# -- the job runner ------------------------------------------------------------


def _may_fork(families: Sequence[str]) -> bool:
    """A second process pays only for at least two families with work, on
    at least two CPUs, and forking is safe only while this process runs one
    thread."""
    if len(families) < 2 or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and threading.active_count() == 1


def _run_jobs(jobs: Sequence[Callable[[], list]], fork: bool) -> list[list]:
    """The results of the zero-argument `jobs` (at most 256), in listed order.

    With `fork`, one forked worker and this process share the jobs: their
    indices sit in a pipe that both read one byte at a time, and a one-byte
    read is atomic, so each job runs in exactly one process.  A process
    stops at its first exception and keeps it as that job's outcome.  The
    worker sends {index: outcome} back pickled through a second pipe and
    leaves by os._exit.  A job that neither process reports runs here, and
    the first exception in listed order is raised, as a serial run raises
    it."""
    if not fork:
        return [job() for job in jobs]
    import pickle
    import signal

    def drain(queue) -> dict[int, object]:
        outcomes: dict[int, object] = {}
        while byte := queue.read(1):
            try:
                outcomes[byte[0]] = jobs[byte[0]]()
            except Exception as exc:
                outcomes[byte[0]] = exc
                break
        return outcomes

    queue_fd, queue_end_fd = os.pipe()
    with os.fdopen(queue_end_fd, "wb") as out:
        out.write(bytes(range(len(jobs))))
    report_fd, report_end_fd = os.pipe()
    with (
        os.fdopen(queue_fd, "rb", buffering=0) as queue,
        os.fdopen(report_fd, "rb") as report,
        os.fdopen(report_end_fd, "wb") as report_end,
    ):
        try:
            pid = os.fork()
        except OSError:
            return [job() for job in jobs]
        if pid == 0:
            # The worker never returns into the caller: whatever happens, it
            # leaves by os._exit, so no buffer or handler of the parent's runs.
            # A report that does not pickle is never written: the parent
            # then runs this worker's jobs itself.
            try:
                report_end.write(pickle.dumps(drain(queue)))
                report_end.flush()
            finally:
                os._exit(0)
        try:
            report_end.close()
            outcomes = drain(queue)
            blob = report.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    with contextlib.suppress(Exception):  # no report, or one that does not unpickle
        outcomes.update(pickle.loads(blob))
    results = []
    for index, job in enumerate(jobs):
        outcome = outcomes[index] if index in outcomes else job()
        if isinstance(outcome, BaseException):
            raise outcome
        results.append(outcome)
    return results


def verify_all(
    seed: int = 0,
    scan_count: int = 500,
    only: Optional[str] = None,
    catalog: Optional[Catalog] = None,
) -> VerifySummary:
    """Run every catalogued check; deterministic for a fixed seed.

    `only` restricts to records whose selector set contains it exactly: a
    case label ("3.3.7"), a theorem prefix ("3.3"), a matrix label ("3.9"),
    a family ("g5"), a family-kind tag ("g5-can"), or a section name.

    `_plan` lists every record of a full run, in its order; `only` keeps
    those it selects.  Each family with records left is one job, its
    records across all seven sections, so each branch is built in one
    process.  When at least two families have work, `_run_jobs` shares the
    jobs between this process and one forked worker; `_may_fork` lists
    when the run stays serial.  The records are put back in the plan's
    order, so they are the same either way.
    """
    if catalog is None:
        catalog = load_catalog()
    plan = _plan(catalog, seed, scan_count)
    plan = [entry for entry in plan if only is None or only in entry.selectors]
    families = list(dict.fromkeys(entry.family for entry in plan))
    jobs = [functools.partial(_records, [e for e in plan if e.family == fid]) for fid in families]
    # each job's records come in plan order: walking the plan takes them back
    made = dict(zip(families, map(iter, _run_jobs(jobs, _may_fork(families)))))
    return VerifySummary(records=tuple(next(made[entry.family]) for entry in plan), seed=seed)
