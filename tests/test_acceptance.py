"""Acceptance suite: one test per acceptance criterion, at full scale.

Each test prints a single PASS/FAIL line so the suite doubles as a
readable acceptance report (run with `pytest -s tests/test_acceptance.py`
or inspect the captured output on failure).

Documented suspect entries (claims whose stated form is internally
inconsistent, each carrying a verified correction and a counterexample in
the report) are asserted to be exactly the known set; they warn and never
silently pass.
"""

import random
import time
from fractions import Fraction

import pytest

from lieschouten.algebras import FAMILY_IDS, build_family
from lieschouten.catalog import (
    MATRIX_LABELS,
    load_catalog,
    verify_all,
)
from lieschouten.cli import main
from lieschouten.geometry import OperatorMatrix
from lieschouten.poly import DEFAULT_TABLE
from lieschouten.soliton import derivation_residuals

SEED = 0
SCAN_COUNT = 500
TOLERANCE = 1e-9

SUSPECT_CASES = {"3.3.8", "3.3.11", "3.3.12", "3.4.1", "3.5.1", "3.5.2", "4.6.1", "4.11.1"}
SUSPECT_SCALARS = {"g4-lc"}


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def summary(catalog):
    return verify_all(seed=SEED, scan_count=SCAN_COUNT, catalog=catalog)


def records(summary, section):
    return [r for r in summary.records if r.section == section]


def test_criterion_1_matrix_fidelity(catalog):
    from lieschouten.catalog import _plan, _records

    start = time.monotonic()
    plan = _plan(catalog, SEED, SCAN_COUNT)
    recs = _records([entry for entry in plan if entry.section == "matrix"])
    elapsed = time.monotonic() - start
    bad = [r.label for r in recs if r.status != "pass"]
    covered = {r.label for r in recs}
    report(
        "criterion 1: all catalogued Ricci operator displays match as exact polynomial"
        " identities (zero tolerance)",
        not bad and set(MATRIX_LABELS) <= covered and elapsed < 5.0,
        f"{len(recs)} matrix checks in {elapsed:.2f}s" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_2_scalar_fidelity(summary, catalog):
    recs = records(summary, "scalar")
    failed = [r.label for r in recs if r.status == "fail"]
    warned = {r.label for r in recs if r.status == "warn"}
    # the g4-lc stated scalar contradicts its own catalogued operator matrix
    # (spurious constant -2); its traced variant must match exactly and the
    # discrepancy must surface as a warning, never silently
    fixture = next(s for s in catalog.scalars if s.label == "g4-lc")
    variant_documented = fixture.suspect and fixture.variant is not None
    report(
        "criterion 2: every stated scalar curvature matches exactly (the one"
        " internally-inconsistent statement is suspect-flagged with its traced variant)",
        not failed and warned == SUSPECT_SCALARS and variant_documented,
        f"{len(recs)} scalars, {len(recs) - len(warned)} stated forms exact, warns={sorted(warned)}",
    )


def test_criterion_3_case_verification(summary, catalog):
    recs = records(summary, "case")
    nonsuspect_bad = [
        r.label
        for r in recs
        if not catalog.case(r.label).suspect
        and not (r.status == "pass" and r.method in ("exact", "reduced", "scan-empty"))
    ]
    suspect_recs = [r for r in recs if catalog.case(r.label).suspect]
    suspects_warn = all(r.status == "warn" for r in suspect_recs)
    suspects_have_evidence = all(
        ("variant" in r.detail) or ("counterexample" in r.detail) or ("every c" in r.detail)
        for r in suspect_recs
    )
    labels = {r.label for r in suspect_recs}
    report(
        "criterion 3: every non-suspect case verifies at strength exact or reduced;"
        " suspect cases warn with evidence",
        not nonsuspect_bad and suspects_warn and suspects_have_evidence and labels == SUSPECT_CASES,
        f"{len(recs)} cases, suspects={sorted(labels)}"
        + (f"; failing non-suspect: {nonsuspect_bad}" if nonsuspect_bad else ""),
    )


def test_criterion_4_negative_controls(summary, catalog):
    recs = records(summary, "control")
    failed = [r.label for r in recs if r.status == "fail"]
    skipped = {r.label for r in recs if r.status == "skip"}
    # skips are exactly the loci where the bracket vanishes (every c solves)
    # plus the no-solutions claim, where there is no c to perturb
    expected_skips = {"3.3.1", "4.5.1", "4.6.1", "4.8.1"}
    report(
        "criterion 4: perturbing c by 1 yields a nonzero residual at a witness for"
        " every case on a locus with nonzero bracket",
        not failed and skipped == expected_skips,
        f"{len(recs) - len(skipped)} controls fired, skips={sorted(skipped)}",
    )


def test_criterion_5_no_solutions_for_g4_kn(summary):
    rec = next(r for r in records(summary, "case") if r.label == "4.8.1")
    entries = 2 * SCAN_COUNT * 6  # both eta branches x lambda0 grid
    report(
        "criterion 5: scanning g4 under the Kobayashi-Nomizu connection finds zero"
        f" solvable points over >=500 seeded points x >=5 lambda0 values",
        rec.status == "pass" and rec.method == "scan-empty",
        f"{rec.detail}; grid covers {entries} (point, lambda0) pairs",
    )


def test_criterion_6_iff_completeness(summary):
    scans = records(summary, "scan")
    witnesses = records(summary, "witness")
    bad_scans = [r.label for r in scans if r.status != "pass"]
    bad_witness = [r.label for r in witnesses if r.status != "pass"]
    report(
        "criterion 6: 500-point scans find no solvable point outside the stated"
        " classifications, and every case locus is witnessed by a solvable point",
        len(scans) == 21 and not bad_scans and not bad_witness,
        f"{len(scans)} (family, kind) scans, {len(witnesses)} case witnesses"
        + (f"; failing: {bad_scans + bad_witness}" if bad_scans or bad_witness else ""),
    )


def test_criterion_7_structural_identities(summary):
    recs = records(summary, "structural")
    bad = [r.label for r in recs if r.status != "pass"]
    report(
        "criterion 7: torsion, metric, nabla-J, curvature antisymmetry, and Ricci"
        " symmetry identities hold exactly for all families and branches",
        len(recs) == 8 and not bad,
        f"{len(recs)} family branches" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_8_oracle_equivalence():
    worst = 0.0
    checks = 0
    table = DEFAULT_TABLE
    for fid in FAMILY_IDS:
        branches = [build_family(fid, eta=e) for e in (1, -1)] if fid == "g4" else [build_family(fid)]
        for fam in branches:
            rng = random.Random(8)
            for _ in range(200):
                rows = [[Fraction(rng.randint(-40, 40), 16) for _ in range(3)] for _ in range(3)]
                d = OperatorMatrix(
                    tuple(tuple(table.const(v) for v in row) for row in rows)
                )
                residuals = derivation_residuals(d, fam)
                point = {
                    name: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for name in fam.parameters
                }
                x = [rng.uniform(-2, 2) for _ in range(3)]
                y = [rng.uniform(-2, 2) for _ in range(3)]
                direct = _brute_force(fam, rows, x, y, point)
                combined = [0.0, 0.0, 0.0]
                for n, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                    w = x[i] * y[j] - x[j] * y[i]
                    for k in range(3):
                        combined[k] += w * float(residuals[3 * n + k].evaluate(point))
                worst = max(worst, max(abs(direct[k] - combined[k]) for k in range(3)))
                checks += 1
    report(
        "criterion 8: derivation residuals agree with float brute-force derivation"
        " checking on 200 random operators per family (tolerance 1e-9)",
        worst < TOLERANCE,
        f"{checks} comparisons, max deviation {worst:.2e}",
    )


def _brute_force(fam, rows, x, y, point):
    consts = [
        [[float(fam.structure.c[i][j][k].evaluate(point)) for k in range(3)] for j in range(3)]
        for i in range(3)
    ]

    def bracket_num(u, v):
        out = [0.0, 0.0, 0.0]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    out[k] += u[i] * v[j] * consts[i][j][k]
        return out

    def apply_d(v):
        return [sum(v[i] * float(rows[i][j]) for i in range(3)) for j in range(3)]

    lhs = apply_d(bracket_num(x, y))
    r1 = bracket_num(apply_d(x), y)
    r2 = bracket_num(x, apply_d(y))
    return [lhs[k] - r1[k] - r2[k] for k in range(3)]


def test_criterion_9_determinism(capsys):
    args = ["verify", "--seed", "0", "--count", "120", "--format", "machine"]
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    code2 = main(list(args))
    out2 = capsys.readouterr().out
    with capsys.disabled():
        report(
            "criterion 9: repeated `verify --seed 0` runs produce byte-identical"
            " machine-readable output",
            code1 == 0 and code2 == 0 and out1 == out2,
            f"{len(out1.encode())} bytes per run",
        )


def test_full_suite_summary(summary):
    counts = summary.counts()
    report(
        "full catalogued battery: no failures at full scan scale",
        summary.ok,
        f"pass={counts['pass']} warn={counts['warn']} skip={counts['skip']} fail={counts['fail']}",
    )
