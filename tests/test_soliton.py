"""Tests for derivation residuals, soliton systems, solving, and scanning."""

import contextlib
import io
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieschouten import soliton
from lieschouten.algebras import (
    build_family,
    custom_family,
    draw_point,
    family_branches,
    instantiate_eta,
    point_values,
    sample_parameters,
    sample_scaled,
)
from lieschouten.catalog import Catalog, load_catalog, verify_all
from lieschouten.geometry import CONNECTION_KINDS, OperatorMatrix, connection, ricci_pipeline, scalar_curvature
from lieschouten.poly import (
    DEFAULT_TABLE,
    Polynomial,
    PolynomialError,
    Surd,
    exact_sqrt,
    parse_polynomial,
    quotient,
)
from lieschouten.soliton import (
    DEFAULT_LAMBDA0_GRID,
    LADDER_SAMPLES,
    CSolution,
    SolitonSystem,
    TheoremCase,
    case_matches_point,
    derivation_residuals,
    negative_control,
    scan,
    scan_membership,
    serialize_system,
    solve_for_c,
    soliton_system,
    verify_case,
    witness_point,
)
from lieschouten.soliton import (
    _apply_case,
    _c_form,
    _c_solutions,
    _CompiledCase,
    _holds,
    _locus_plan,
    _reduce_ladder,
    _Substitution,
)

from geometry_reference import (
    G5_ON_A_CIRCLE,
    derivation_candidate,
    generated_families,
    reference_derivation_residuals,
)
from membership_reference import reference_case_matches_point
from poly_reference import integer_point

T = DEFAULT_TABLE
ABELIAN = custom_family("")


def p(text):
    return parse_polynomial(text, T)


def operator(rows):
    return OperatorMatrix(tuple(tuple(T.const(v) if isinstance(v, int) else v for v in row) for row in rows))


def all_family_branches():
    out = []
    for fid in ("g1", "g2", "g3", "g5", "g6", "g7"):
        out.append(build_family(fid))
    out.append(build_family("g4", eta=1))
    out.append(build_family("g4", eta=-1))
    return out


class TestDerivationResiduals:
    def test_abelian_any_operator_is_derivation(self):
        d = operator([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert all(r.is_zero for r in derivation_residuals(d, ABELIAN))

    def test_identity_on_g1_gives_minus_bracket(self):
        # Id[x,y] - [Id x, y] - [x, Id y] = -[x,y]
        d = operator([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        residuals = derivation_residuals(d, build_family("g1"))
        c = build_family("g1").structure.c
        expected = [-c[i][j][k] for (i, j) in ((0, 1), (0, 2), (1, 2)) for k in range(3)]
        assert residuals == expected

    def test_inner_derivation_ad_e1_on_g3(self):
        # ad(e1) rows: images of e1, e2, e3 under [e1, .]
        g3 = build_family("g3")
        rows = [
            (T.zero, T.zero, T.zero),
            (T.zero, T.zero, p("-gamma")),
            (T.zero, p("-beta"), T.zero),
        ]
        residuals = derivation_residuals(OperatorMatrix(tuple(rows)), g3)
        assert all(r.is_zero for r in residuals)

    def test_residual_order_is_pair_major(self):
        sys1 = soliton_system(build_family("g1"), "lc")
        assert sys1.residual_labels()[0] == "[e1,e2].e1"
        assert sys1.residual_labels()[8] == "[e2,e3].e3"


_SHIFTS = ("lambda0", "c", "alpha*lambda0 + c", "-3/2*beta^2*lambda0 + c - gamma", "0")
_ENTRIES = st.one_of(st.just(0), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(
    fam=st.sampled_from(all_family_branches() + generated_families(seed=3, count=4)),
    entries=st.lists(_ENTRIES, min_size=9, max_size=9),
    shift=st.sampled_from(_SHIFTS),
)
def test_identity_shift_adds_mu_times_the_bracket(fam, entries, shift):
    # (A - mu*Id) on [e_i,e_j].e_m: the identity adds -C + C + C = C, times mu
    mu = p(shift)
    a = [[T.const(v) for v in entries[3 * i : 3 * i + 3]] for i in range(3)]
    shifted = [[q - mu if i == j else q for j, q in enumerate(row)] for i, row in enumerate(a)]
    c = fam.structure.c
    slots = [(i, j, m) for (i, j) in soliton.PAIRS for m in range(3)]
    expected = [r + mu * c[i][j][m] for r, (i, j, m) in zip(derivation_residuals(operator(a), fam), slots)]
    assert derivation_residuals(operator(shifted), fam) == expected


_OPERATOR_ENTRIES = st.one_of(
    _ENTRIES.map(T.const),
    st.sampled_from(("alpha", "-2/3*beta*gamma + 1", "lambda0*delta - c", "1/5*alpha^2 - 7/2*c")).map(p),
)


@settings(max_examples=150, deadline=None)
@given(
    fam=st.sampled_from(all_family_branches() + generated_families(seed=3, count=4)),
    entries=st.lists(_OPERATOR_ENTRIES, min_size=9, max_size=9),
)
def test_derivation_residuals_match_the_term_by_term_reference(fam, entries):
    d = operator([entries[3 * i : 3 * i + 3] for i in range(3)])
    assert derivation_residuals(d, fam) == reference_derivation_residuals(d, fam)


_GENERATED = generated_families(seed=7, count=6)
_FAMILIES = all_family_branches() + _GENERATED
_FAMILY_IDS = [f.describe() for f in all_family_branches()] + [f"custom{k}" for k in range(len(_GENERATED))]


class TestSystems:
    @pytest.mark.parametrize(
        "fam",
        all_family_branches() + _GENERATED,
        ids=[f.describe() for f in all_family_branches()] + [f"custom{k}" for k in range(len(_GENERATED))],
    )
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_system_is_the_residuals_of_the_candidate(self, fam, kind):
        expected = derivation_residuals(derivation_candidate(fam, kind), fam)
        assert list(soliton_system(fam, kind).residuals) == expected

    @pytest.mark.parametrize(
        "fam",
        all_family_branches() + _GENERATED,
        ids=[f.describe() for f in all_family_branches()] + [f"custom{k}" for k in range(len(_GENERATED))],
    )
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_system_is_the_reference_residuals_of_the_candidate(self, fam, kind):
        # no fused sum on this side: every product of the candidate is formed
        expected = reference_derivation_residuals(derivation_candidate(fam, kind), fam)
        assert list(soliton_system(fam, kind).residuals) == expected

    @pytest.mark.parametrize("fam", _FAMILIES, ids=_FAMILY_IDS)
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_no_listed_pair_of_products_cancels_by_construction(self, fam, kind):
        # the pairs that cancel for every operator are not listed: nine
        # products on [e_i,e_j].e_m for m outside {i, j}, seven inside it,
        # and no two of opposite sign share both factor objects
        op = ricci_pipeline(fam, kind)[1]
        for i, j in soliton.PAIRS:
            for m in range(3):
                products = soliton._residual_products(op, fam, i, j, m)
                assert len(products) == (7 if m in (i, j) else 9)
                live = [(sign, {id(a), id(b)}) for sign, a, b in products if not (a.is_zero or b.is_zero)]
                for (s1, f1), (s2, f2) in itertools.combinations(live, 2):
                    assert s1 == s2 or f1 != f2, (i, j, m)

    @pytest.mark.parametrize("fam", _FAMILIES, ids=_FAMILY_IDS)
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_pipeline_scalar_is_the_trace_of_its_operator(self, fam, kind):
        # the scalar is taken from the form without raising an index again
        form, op, s = ricci_pipeline(fam, kind)
        assert s == scalar_curvature(form) == op.entries[0][0] + op.entries[1][1] + op.entries[2][2]

    @pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_degree_bounds_in_c_and_lambda0(self, fam, kind):
        system = soliton_system(fam, kind)
        for r in system.residuals:
            assert r.degree_in("c") <= 1
            assert r.degree_in("lambda0") <= 1

    def test_candidate_shape(self):
        fam = build_family("g2")
        d = derivation_candidate(fam, "lc")
        # diagonal entries carry -(s*lambda0 + c)
        assert d.entries[0][0].degree_in("c") == 1
        assert d.entries[0][1].degree_in("c") == 0

    def test_abelian_system_is_identically_zero(self):
        system = soliton_system(ABELIAN, "lc")
        assert all(r.is_zero for r in system.residuals)

    def test_serialization_stable(self):
        system = soliton_system(build_family("g1"), "lc")
        text1 = serialize_system(system)
        text2 = serialize_system(soliton_system(build_family("g1"), "lc"))
        assert text1 == text2
        assert text1.startswith("family\tg1\nkind\tlc\n")
        assert text1.count("residual\t") == 9


class TestSolveForC:
    def test_g1_solution_point(self):
        system = soliton_system(build_family("g1"), "lc")
        sol = solve_for_c(system, integer_point({"alpha": Fraction(1), "beta": Fraction(0)}), Fraction(3, 7))
        assert sol.status == "unique" and sol.value == 0

    def test_g1_inconsistent_point(self):
        system = soliton_system(build_family("g1"), "lc")
        sol = solve_for_c(system, integer_point({"alpha": Fraction(1), "beta": Fraction(1)}), Fraction(0))
        assert sol.status == "none"

    def test_g4_kn_has_no_solution(self):
        system = soliton_system(build_family("g4", eta=1), "kn")
        sol = solve_for_c(system, integer_point({"alpha": Fraction(1), "beta": Fraction(0)}), Fraction(0))
        assert sol.status == "none"

    def test_g2_lc_alpha_beta_zero_formula(self):
        # solvable with c = 2*gamma^2*(1 - lambda0)
        system = soliton_system(build_family("g2"), "lc")
        for lam in (Fraction(0), Fraction(1, 4), Fraction(2)):
            sol = solve_for_c(
                system, integer_point({"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(3)}), lam
            )
            assert sol.status == "unique"
            assert sol.value == 2 * Fraction(9) * (1 - lam)

    def test_abelian_any_c(self):
        system = soliton_system(ABELIAN, "lc")
        sol = solve_for_c(system, ({}, 1), Fraction(1))
        assert sol.status == "any"

    def test_quadratic_in_c_is_internal_error(self):
        bad = SolitonSystem(
            family_id="custom",
            kind="lc",
            eta=None,
            table=T,
            residuals=(p("c^2 - alpha"),),
            constraints=(),
            nonvanishing=(),
        )
        with pytest.raises(PolynomialError):
            solve_for_c(bad, ({"alpha": 1}, 1), Fraction(0))

    @pytest.mark.parametrize(
        "residuals, solution",
        [
            (("lambda0 - 1",), None),
            (("lambda0*c",), None),
            (("c + lambda0", "c + 2*lambda0"), None),
            (("alpha*c + lambda0",), None),
            (("alpha*(2*lambda0 + c) + 1",), CSolution("unique", Fraction(-3))),
            (("alpha*(2*lambda0 + c) + 1", "alpha^2*(2*lambda0 + c) + alpha"), CSolution("unique", Fraction(-3))),
        ],
        ids=["lambda0 without c", "lambda0 times c", "two ratios", "R does not divide Q", "mu-form", "mu-form rows"],
    )
    def test_only_mu_form_systems_are_solved(self, monkeypatch, residuals, solution):
        system = SolitonSystem(
            family_id="g1",
            kind="lc",
            eta=None,
            table=T,
            residuals=tuple(map(p, residuals)),
            constraints=(),
            nonvanishing=(),
        )
        monkeypatch.setattr(soliton, "soliton_system", lambda fam, kind: system)
        if solution is None:
            with pytest.raises(PolynomialError):
                solve_for_c(system, ({"alpha": 1}, 1), Fraction(1))
            with pytest.raises(PolynomialError):
                scan(build_family("g1"), "lc", seed=0, count=5)
            return
        assert solve_for_c(system, ({"alpha": 1}, 1), Fraction(1)) == solution
        report = scan(build_family("g1"), "lc", seed=0, count=20)
        for _, values, lam, sol in report.entries:
            alpha = values["alpha"]
            assert sol == (CSolution("unique", -1 / alpha - 2 * lam) if alpha else CSolution("none"))


class TestVerifyCase:
    def test_exact_case(self):
        case = TheoremCase(
            label="t.1",
            family_id="g1",
            kind="lc",
            substitutions=(("beta", T.zero),),
            c_expr=T.zero,
            witness=(("alpha", Fraction(1)), ("beta", Fraction(0))),
        )
        report = verify_case(case)
        assert report.method == "exact" and report.ok and report.detail == ""

    def test_reduced_case(self):
        case = TheoremCase(
            label="t.2",
            family_id="g6",
            kind="lc",
            substitutions=(("gamma", T.zero), ("delta", T.zero)),
            c_expr=p("1/2*alpha^2 - 3/2*alpha^2*lambda0"),
            reductions=(("beta", p("alpha^2")),),
            nonzero=(p("alpha"),),
            sample_subs=(("beta", p("alpha")),),
            witness=(("alpha", Fraction(1)), ("beta", Fraction(1)), ("gamma", Fraction(0)), ("delta", Fraction(0))),
        )
        report = verify_case(case)
        assert report.method == "reduced" and report.ok

    def test_sampled_case_when_reductions_omitted(self):
        # same claim as above but without the quadratic rewrite: the ladder
        # cannot close symbolically and must fall back to sampling the locus
        case = TheoremCase(
            label="t.3",
            family_id="g6",
            kind="lc",
            substitutions=(("gamma", T.zero), ("delta", T.zero)),
            c_expr=p("1/2*alpha^2 - 3/2*alpha^2*lambda0"),
            nonzero=(p("alpha"),),
            sample_subs=(("beta", p("alpha")),),
            witness=(("alpha", Fraction(1)), ("beta", Fraction(1)), ("gamma", Fraction(0)), ("delta", Fraction(0))),
        )
        report = verify_case(case)
        assert report.method == "sampled"
        assert not report.ok  # sampled evidence alone never passes a stated case

    def test_failed_case_reports_counterexample(self):
        case = TheoremCase(
            label="t.4",
            family_id="g1",
            kind="lc",
            substitutions=(("beta", T.zero),),
            c_expr=T.one,  # wrong: the locus needs c = 0
            witness=(("alpha", Fraction(1)), ("beta", Fraction(0))),
        )
        report = verify_case(case)
        assert report.method == "failed" and not report.ok
        assert report.counterexample is not None

    def test_free_c_case(self):
        case = TheoremCase(
            label="t.5",
            family_id="g3",
            kind="lc",
            substitutions=(("alpha", T.zero), ("beta", T.zero), ("gamma", T.zero)),
            c_expr=None,
            witness=(("alpha", Fraction(0)), ("beta", Fraction(0)), ("gamma", Fraction(0))),
        )
        report = verify_case(case)
        assert report.method == "exact" and report.ok

    def test_empty_claim_scans_to_zero(self):
        case = TheoremCase(label="t.6", family_id="g4", kind="kn", empty=True)
        report = verify_case(case)
        assert report.method == "scan-empty" and report.ok


class TestNegativeControl:
    def test_g1_lc_perturbation_detected(self):
        case = TheoremCase(
            label="t.1",
            family_id="g1",
            kind="lc",
            substitutions=(("beta", T.zero),),
            c_expr=T.zero,
            witness=(("alpha", Fraction(1)), ("beta", Fraction(0))),
        )
        report = negative_control(case)
        assert report.ok and report.method == "control"
        # at alpha=1, beta=0 the first residual with c perturbed to 1 is alpha*c = 1
        prefix = "perturbation 1 raises residual "
        assert report.detail.startswith(prefix) and float(report.detail[len(prefix) :]) >= 1.0

    def test_skipped_for_free_c(self):
        case = TheoremCase(
            label="t.2",
            family_id="g3",
            kind="lc",
            substitutions=(("alpha", T.zero), ("beta", T.zero), ("gamma", T.zero)),
            c_expr=None,
        )
        report = negative_control(case)
        assert report.method == "skipped" and report.ok

    def test_zero_perturbation_rejected(self):
        case = TheoremCase(label="t.3", family_id="g1", kind="lc", c_expr=T.zero)
        with pytest.raises(ValueError):
            negative_control(case, perturbation=Fraction(0))


def test_a_case_over_another_table_raises_not_answers():
    # the catalogue's cases are over DEFAULT_TABLE; compiled over it, a
    # case's polynomials over another table would read wrong integers
    witness = (("alpha", Fraction(1)), ("beta", Fraction(2)))
    case = TheoremCase("t.4", "g1", "lc", c_expr=p("alpha^2 + beta"), witness=witness)
    assert negative_control(case).detail == "perturbation 1 raises residual 22"
    other = T.extended(["t"])
    moved = case._replace(c_expr=parse_polynomial("alpha^2 + beta", other))
    report = scan(build_family("g1"), "lc", seed=0, count=20)
    with pytest.raises(PolynomialError, match="mismatched variable tables"):
        negative_control(moved)
    with pytest.raises(PolynomialError, match="mismatched variable tables"):
        scan_membership(report, [moved])


def witness_values(case, eta):
    """The case's witness on one eta branch as values, each entry that uses
    eta evaluated at the branch's sign."""
    return {n: instantiate_eta(v, eta).constant_value() if isinstance(v, Polynomial) else v for n, v in case.witness}


def reference_negative_control(case, perturbation, lambda0):
    """(method, ok, detail) of `negative_control`, by Polynomial.evaluate
    of c_expr and of every residual at the witness."""
    _, c_expr, _ = case.effective()
    if case.empty or c_expr is None:
        return "skipped", True, "not applicable: every c solves on this locus"
    best = 0.0
    for fam in family_branches(case.family_id):
        system = soliton_system(fam, case.kind)
        point = {**witness_values(case, fam.eta), "lambda0": lambda0}
        point["c"] = instantiate_eta(c_expr, fam.eta).evaluate(point) + perturbation
        values = [r.evaluate(point) for r in system.residuals]
        if not any(values):
            return "control", False, "perturbed c still solves: system may be vacuous"
        best = max(best, *(abs(float(v)) for v in values))
    return "control", True, f"perturbation {perturbation} raises residual {best:g}"


@pytest.mark.parametrize(
    "perturbation, lam",
    [(Fraction(1), Fraction(1, 2)), (Fraction(-2, 3), 2), (Fraction(5, 7), Fraction(-3, 4)), (3, 0)],
)
def test_negative_control_matches_the_evaluate_reference(perturbation, lam):
    # every catalogued case, byte for byte, the Surd witness of 4.11.2 among them
    assert len(CATALOG_CASES) == 45
    surd_case = next(c for c in CATALOG_CASES if c.label == "4.11.2")
    assert isinstance(witness_point(surd_case, None)[0]["beta"], Surd)
    # every catalogued witness is integral; moved off it, each case's control
    # also runs at a common denominator above 1
    moved = [
        case._replace(witness=tuple((n, v * Fraction(2, 3) + Fraction(1, 5)) for n, v in case.witness))
        for case in CATALOG_CASES
    ]
    for case in list(CATALOG_CASES) + moved:
        report = negative_control(case, perturbation=perturbation, lambda0_value=lam)
        assert (report.method, report.ok, report.detail) == reference_negative_control(case, perturbation, lam), case.label
    assert negative_control(surd_case).method == "control"


def test_witness_point_is_the_integer_form_of_the_witness_values():
    # every non-empty catalogued case on each eta branch, 4.11.2's Surd
    # beta = sqrt(2) and g4's beta = eta among them: the form solves, and
    # its membership at lambda0 = 1/2 is the reference's at the values
    lam = Fraction(1, 2)
    for case in CATALOG_CASES:
        for fam in [] if case.empty else family_branches(case.family_id):
            values, point = witness_values(case, fam.eta), witness_point(case, fam.eta)
            assert point == integer_point(values), case.label
            sol = solve_for_c(soliton_system(fam, case.kind), point, lam)
            assert sol.status != "none", case.label
            expected = reference_case_matches_point(case, fam.eta, values, lam, sol)
            assert case_matches_point(case, fam.eta, point, lam, sol) == expected, case.label
    surd_case = next(c for c in CATALOG_CASES if c.label == "4.11.2")
    assert witness_point(surd_case, None) == ({"alpha": 1, "beta": exact_sqrt(2), "gamma": 0, "delta": 0}, 1)
    eta_case = next(c for c in CATALOG_CASES if c.label == "3.4.1")
    assert [witness_point(eta_case, eta) for eta in (1, -1)] == [({"alpha": 0, "beta": eta}, 1) for eta in (1, -1)]
    # moved off the integers, a witness that uses eta is scaled by the lcm
    moved = eta_case._replace(witness=tuple((n, v * Fraction(2, 3) + Fraction(1, 5)) for n, v in eta_case.witness))
    assert witness_point(moved, -1) == ({"alpha": 3, "beta": -7}, 15)


def test_a_witness_that_stays_symbolic_is_an_error():
    case = TheoremCase("w.1", "g4", "lc", witness=(("alpha", p("eta*alpha")),))
    with pytest.raises(PolynomialError, match="not constant"):
        witness_point(case, 1)


def test_negative_control_makes_no_evaluate_call(monkeypatch):
    def refuse(self, point):
        raise AssertionError("Polynomial.evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    reports = [negative_control(case) for case in CATALOG_CASES]
    assert sum(r.method == "control" and r.ok for r in reports) >= 40


class TestScan:
    def test_g5_canonical_always_solvable_with_zero(self):
        report = scan(build_family("g5"), "canonical", seed=0, count=40)
        assert len(report.solvable) == len(report.entries)
        assert all(sol.value == 0 for _, _, _, sol in report.solvable)

    def test_g4_kn_never_solvable(self):
        for eta in (1, -1):
            report = scan(build_family("g4", eta=eta), "kn", seed=0, count=120)
            assert len(report.solvable) == 0

    def test_g1_lc_solvable_exactly_at_beta_zero(self):
        report = scan(build_family("g1"), "lc", seed=0, count=120)
        for _, values, _, sol in report.entries:
            if sol.status in ("unique", "any"):
                assert values["beta"] == 0 and sol.value == 0
            elif values["beta"] == 0:
                pytest.fail("beta=0 point should be solvable")

    def test_deterministic_per_seed(self):
        a = scan(build_family("g6"), "kn", seed=7, count=25)
        b = scan(build_family("g6"), "kn", seed=7, count=25)
        assert a == b

    def test_plugged_back_c_solves_exactly(self):
        system = soliton_system(build_family("g7"), "lc")
        report = scan(build_family("g7"), "lc", seed=1, count=40)
        for _, values, lam, sol in report.solvable[:30]:
            if sol.status != "unique":
                continue
            point = {**values, "lambda0": lam, "c": sol.value}
            assert all(r.evaluate(point) == 0 for r in system.residuals)


# -- the exact scan kernel against a Fraction reference ------------------------

EXTENDED_GRID = DEFAULT_LAMBDA0_GRID + (Fraction(-7, 3), Fraction(5, 7))


def points_of(report):
    """Each drawn point of a scan report as values, from its integer form."""
    return [point_values(*report.scaled[k]) for k in report.slots]


def reference_solve(rows):
    """Fraction reference: -b/a at the first a != 0, then a zero check."""
    pivots = [-b / a for a, b in rows if a != 0]
    if not pivots:
        return CSolution("none" if any(b != 0 for _, b in rows) else "any")
    c = pivots[0]
    if any(a * c + b != 0 for a, b in rows):
        return CSolution("none")
    return CSolution("unique", value=c)


def reference_scan(fam, kind, seed, count, grid):
    """(values, lambda0, status, c) per entry via Polynomial.evaluate."""
    split = []
    for r in soliton_system(fam, kind).residuals:
        rest = r.coefficient_of("c", 0)
        split.append((rest.coefficient_of("lambda0", 0), rest.coefficient_of("lambda0", 1), r.coefficient_of("c", 1)))
    out = []
    for pt in sample_parameters(fam, seed=seed, count=count):
        evaluated = [(p0.evaluate(pt), q.evaluate(pt), rc.evaluate(pt)) for p0, q, rc in split]
        for lam in grid:
            sol = reference_solve([(a, b0 + b1 * lam) for b0, b1, a in evaluated])
            out.append((pt, lam, sol.status, sol.value))
    return out


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_scan_kernel_matches_fraction_reference(fam, kind):
    report = scan(fam, kind, seed=0, count=60, lambda0_grid=EXTENDED_GRID)
    got = [(values, lam, sol.status, sol.value) for _, values, lam, sol in report.entries]
    expected = reference_scan(fam, kind, 0, 60, EXTENDED_GRID)
    assert got == expected
    assert [tuple(map(type, g)) for g in got] == [tuple(map(type, e)) for e in expected]
    assert all(cell[2] is lam for cell, lam in zip(report.entries, itertools.cycle(EXTENDED_GRID)))


small = st.integers(-4, 4)
rational = st.builds(Fraction, small, st.integers(1, 3))


@st.composite
def c_rows(draw):
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "zero a", "zero", "consistent", "inconsistent", "stray b"]))
    if shape == "random":
        return [(draw(rational), draw(rational)) for _ in range(n)]
    if shape == "zero a":
        return [(Fraction(0), draw(rational)) for _ in range(n)]
    if shape == "zero":
        return [(Fraction(0), Fraction(0))] * n
    c = draw(rational)
    rows = [(a, -a * c) for a in (draw(rational) for _ in range(n))]
    i = draw(st.integers(0, n - 1))
    if shape == "inconsistent":
        rows[i] = (rows[i][0], rows[i][1] + draw(rational.filter(bool)))
    elif shape == "stray b":  # a == 0 but b != 0 beside consistent rows
        rows[i] = (Fraction(0), draw(rational.filter(bool)))
    return rows


def solve_row(rows, lambdas):
    """`_c_form` at rows (P, Q, R), flattened as the kernel returns them,
    as one solution per lambda0 of `lambdas`."""
    form = _c_form([x for row in rows for x in row])
    return _c_solutions(form, [(lam.numerator, lam.denominator) for lam in lambdas])


def solve_at_lambda0_zero(rows):
    """{a_i*c + b_i = 0} as the rows (P, Q, R) = (b_i, 0, a_i) at lambda0 = 0."""
    [sol] = solve_row([(b, 0, a) for a, b in rows], [Fraction(0)])
    return sol


@given(c_rows(), st.integers(1, 12))
def test_exact_solver_matches_fraction_reference(rows, scale):
    expected = reference_solve(rows)
    assert solve_at_lambda0_zero(rows) == expected
    # the scan kernel feeds rows scaled by a positive integer to cleared ints
    sol = solve_at_lambda0_zero(cleared(rows, scale))
    assert sol == expected
    assert type(sol.value) is type(expected.value)


@st.composite
def pqr_rows(draw):
    """Rows (P, Q, R) of P + Q*lambda0 + R*c = 0 in mu-form, Q = s*R for a
    drawn s, the only rows `_compiled_decomposition` admits.  A consistent
    shape solves at mu = k; a stray row has R == 0 but P != 0 beside
    consistent rows."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "zero R", "zero", "consistent", "inconsistent", "stray row"]))
    if shape == "zero":
        return [(Fraction(0),) * 3] * n
    if shape == "zero R":
        return [(draw(rational), Fraction(0), Fraction(0)) for _ in range(n)]
    s, k = draw(rational), draw(rational)
    rs = [draw(rational) for _ in range(n)]
    if shape == "random":
        return [(draw(rational), s * r, r) for r in rs]
    rows = [(-k * r, s * r, r) for r in rs]
    i = draw(st.integers(0, n - 1))
    if shape == "inconsistent":
        p, q, r = rows[i]
        rows[i] = (p + draw(rational.filter(bool)), q, r)
    elif shape == "stray row":
        rows[i] = (draw(rational.filter(bool)), Fraction(0), Fraction(0))
    return rows


def cleared(rows, scale=1):
    """The rows times a positive integer that makes every entry an integer,
    as the scan kernel feeds them."""
    den = scale
    for row in rows:
        for x in row:
            den *= x.denominator
    return [tuple(int(x * den) for x in row) for row in rows]


@given(pqr_rows(), st.lists(rational, min_size=1, max_size=4), st.integers(1, 12))
def test_exact_c_solver_matches_fraction_reference_at_each_lambda0(rows, lambdas, scale):
    for solutions in (solve_row(rows, lambdas), solve_row(cleared(rows, scale), lambdas)):
        assert list(solutions) == [reference_solve([(r, p + q * lam0) for p, q, r in rows]) for lam0 in lambdas]
        # in mu-form a point is solvable at every lambda0 or at none
        assert len({sol.status for sol in solutions}) == 1


SURD_G5 = custom_family(G5_ON_A_CIRCLE)  # its sample points are Surds


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_surd_points_scan_exactly(kind):
    # the kernel runs in integer Surds and matches the reference, which
    # evaluates and divides the Surds themselves
    report = scan(SURD_G5, kind, seed=0, count=20, lambda0_grid=EXTENDED_GRID)
    assert any(isinstance(v, Surd) for pt in points_of(report) for v in pt.values())
    got = [(values, lam, sol.status, sol.value) for _, values, lam, sol in report.entries]
    assert got == reference_scan(SURD_G5, kind, 0, 20, EXTENDED_GRID)
    if kind == "canonical":
        assert all(sol == ("unique", 0) and type(sol.value) is Fraction for _, _, _, sol in report.entries)


class TestExactLocus:
    def test_sqrt_of_large_perfect_square_is_exact(self):
        assert exact_sqrt(Fraction((2**60 + 1) ** 2, 9)) == Fraction(2**60 + 1, 3)

    def test_sqrt_beyond_float_range_is_exact(self):
        assert exact_sqrt(Fraction(10**400)) == Fraction(10**200)
        assert exact_sqrt(Fraction(2 * 10**400, 9)) == Fraction(10**200, 3) * exact_sqrt(2)

    def test_irrational_root_of_a_relation_is_a_surd(self):
        # 4.11.2's locus: beta^2 = 2*alpha^2 with alpha drawn, so beta is alpha*sqrt(2)
        case = next(c for c in CATALOG_CASES if c.label == "4.11.2")
        system = soliton_system(build_family("g6"), "canonical")
        plan = _locus_plan(system, case, _Substitution(case.substitutions, None), case.reductions)
        points = [draw_point(random.Random(k), *plan) for k in range(20)]
        points = [point_values(*pt) for pt in points if pt is not None]
        assert points and all(type(pt["beta"]) is Surd and pt["beta"].d == 2 for pt in points)
        assert all(pt["beta"] ** 2 == 2 * pt["alpha"] ** 2 for pt in points)

    def test_parametrized_relation_is_checked_without_tolerance(self):
        def case(rhs):
            return TheoremCase(
                label="l.1",
                family_id="g3",
                kind="lc",
                c_expr=T.zero,
                reductions=(("alpha", p(rhs)),),
                sample_subs=(("alpha", p("beta")),),
            )

        system = soliton_system(build_family("g3"), "lc")
        near, on = case("beta^2 + 1/10000000000000"), case("beta^2")
        near_plan, on_plan = (_locus_plan(system, c, _Substitution((), None), c.reductions) for c in (near, on))
        for seed in range(10):
            assert draw_point(random.Random(seed), *near_plan) is None
            assert draw_point(random.Random(seed), *on_plan) is not None


class TestCaseMembership:
    def test_substitution_locus(self):
        case = TheoremCase(
            label="m.1",
            family_id="g1",
            kind="lc",
            substitutions=(("beta", T.zero),),
            c_expr=T.zero,
        )
        system = soliton_system(build_family("g1"), "lc")
        inside = ({"alpha": 2, "beta": 0}, 1)
        sol = solve_for_c(system, inside, Fraction(1, 2))
        assert case_matches_point(case, None, inside, Fraction(1, 2), sol)
        outside = ({"alpha": 2, "beta": 1}, 1)
        assert not case_matches_point(case, None, outside, Fraction(1, 2), sol)

    def test_unsolvable_cell_lies_in_no_case(self):
        case = next(c for c in CATALOG_CASES if c.label == "3.3.7")
        witness = witness_point(case, None)
        sol = solve_for_c(soliton_system(build_family(case.family_id), case.kind), witness, Fraction(1, 2))
        assert case_matches_point(case, None, witness, Fraction(1, 2), sol)
        assert not case_matches_point(case, None, witness, Fraction(1, 2), CSolution("none"))

    def test_variant_is_effective_for_membership(self):
        case = TheoremCase(
            label="m.2",
            family_id="g3",
            kind="lc",
            substitutions=(("beta", T.zero), ("gamma", T.var("alpha"))),
            c_expr=p("-2*alpha^2 + 2*alpha^2*lambda0"),
            nonzero=(p("alpha"),),
            suspect=True,
            variant_substitutions=(("beta", T.zero), ("gamma", p("-alpha"))),
        )
        system = soliton_system(build_family("g3"), "lc")
        point = ({"alpha": 1, "beta": 0, "gamma": -1}, 1)
        sol = solve_for_c(system, point, Fraction(2))
        assert sol.status == "unique"
        assert case_matches_point(case, None, point, Fraction(2), sol)


class TestUnsampled:
    # beta := 0 makes the hypothesis beta != 0 vanish on the whole locus, so
    # every draw of the locus sampler is rejected; c := 12345 keeps the
    # exact and reduced rungs from closing first.
    CASE = TheoremCase(
        label="u.1",
        family_id="g1",
        kind="lc",
        substitutions=(("beta", T.zero),),
        c_expr=p("12345"),
        nonzero=(p("beta"),),
    )

    def test_sampler_giving_up_is_not_a_refutation(self):
        report = verify_case(self.CASE, sample_count=4)
        assert report.method == "unsampled"
        assert not report.ok
        assert report.counterexample is None
        assert report.detail == (
            "locus sampler gave up after 200 draws: 200 rejected, 0 of 4 samples checked"
        )

    def test_ranks_between_sampled_and_failed(self):
        order = soliton._METHOD_ORDER
        assert order["sampled"] < order["unsampled"] < order["failed"]

    def test_nonsuspect_unsampled_case_is_a_fail_record(self):
        catalog = Catalog(matrices=(), scalars=(), cases=(self.CASE,))
        summary = verify_all(catalog=catalog, only="case")
        [record] = summary.records
        assert (record.status, record.method) == ("fail", "unsampled")
        assert f"{50 * LADDER_SAMPLES} rejected, 0 of {LADDER_SAMPLES} samples checked" in record.detail


class TestReduceLadder:
    # On g6, delta := alpha turns the constraint into alpha*gamma - alpha*beta;
    # with the reduction alpha^2 = 1 the ideal contains beta - gamma, which
    # is alpha times the constraint plus a multiple of alpha^2 - 1 (sympy's
    # grlex basis agrees).  Neither leading monomial divides beta - gamma, so
    # only the S-polynomial of the two relations reaches it.
    SYSTEM = soliton_system(build_family("g6"), "lc")
    SUBS = (("delta", p("alpha")),)
    REDUCTIONS = (("alpha", T.one),)
    RELATIONS = (p("alpha*gamma - alpha*beta"), p("alpha^2 - 1"))

    def ladder(self, residuals):
        return soliton._reduce_ladder(residuals, self.SYSTEM, _Substitution(self.SUBS, None), self.REDUCTIONS)

    def test_s_polynomial_member_reduces_to_zero(self):
        member = p("beta - gamma")
        assert member.normal_form(self.RELATIONS) == member
        applied = [r.substitute("delta", p("alpha")) for r in self.SYSTEM.residuals]
        residuals = [member] + [member * r for r in applied]
        assert all(r.is_zero for r in self.ladder(residuals))

    def test_non_member_survives(self):
        # beta - gamma is in the basis, so beta + gamma is congruent to 2*gamma
        [reduced] = self.ladder([p("beta + gamma")])
        assert reduced == p("2*gamma")


class TestListedOrderSubstitution:
    # gamma := beta - alpha; beta := alpha, listed against table order: in
    # listed order gamma becomes beta - alpha and then alpha - alpha = 0, so
    # the locus is gamma = 0, beta = alpha.  In table order beta := alpha
    # would run first and leave gamma = beta - alpha with beta free.  On g6
    # the constraint alpha*gamma - beta*delta becomes -alpha*delta.
    SYSTEM = soliton_system(build_family("g6"), "lc")
    CASE = TheoremCase(
        label="o.1",
        family_id="g6",
        kind="lc",
        substitutions=(("gamma", p("beta - alpha")), ("beta", p("alpha"))),
        c_expr=p("alpha^2 - lambda0"),
        nonzero=(p("alpha"),),
    )
    RESOLVED = {"gamma": T.zero, "beta": p("alpha")}

    def resolved(self, q):
        return q.substitute("gamma", T.zero).substitute("beta", p("alpha"))

    def test_ladder_applies_the_listed_order(self):
        applied = _apply_case(self.SYSTEM, _Substitution(self.CASE.substitutions, None), self.CASE.c_expr)
        c_poly = self.CASE.c_expr
        assert applied == [self.resolved(r.substitute("c", c_poly)) for r in self.SYSTEM.residuals]
        # the constraint becomes -alpha*delta, so alpha*delta is in the ideal
        [reduced] = _reduce_ladder([p("alpha*delta")], self.SYSTEM, _Substitution(self.CASE.substitutions, None), ())
        assert reduced.is_zero

    def test_sampler_and_membership_agree_with_the_ladder(self):
        compiled = _CompiledCase(self.CASE, None)
        applied = _apply_case(self.SYSTEM, _Substitution(self.CASE.substitutions, None), self.CASE.c_expr)
        plan = _locus_plan(self.SYSTEM, self.CASE, _Substitution(self.CASE.substitutions, None), ())
        points = [draw_point(random.Random(k), *plan) for k in range(60)]
        points = [point_values(*pt) for pt in points if pt is not None]
        assert points
        for pt in points:
            assert set(pt) == {"alpha", "delta"}
            full = {**pt, **{var: expr.evaluate(pt) for var, expr in self.RESOLVED.items()}}
            assert compiled.c_at(integer_point(full)) is not None
            assert all(q.evaluate(full) == 0 for q in self.SYSTEM.constraints)
            at = {**pt, "lambda0": Fraction(1, 2)}
            assert [r.evaluate(at) for r in applied] == [
                r.evaluate({**full, "lambda0": Fraction(1, 2), "c": self.CASE.c_expr.evaluate(at)})
                for r in self.SYSTEM.residuals
            ]
        # the table-order reading, gamma = beta - alpha with beta free, is off the locus
        off = {"alpha": Fraction(1), "beta": Fraction(2), "gamma": Fraction(1), "delta": Fraction(0)}
        assert compiled.c_at(integer_point(off)) is None


# alpha := lambda0, beta := eta turns g5's constraint alpha*gamma + beta*delta
# into lambda0*gamma + eta*delta: gamma and delta are drawn, and the locus
# sampler is left with two unassigned names to draw one of and solve for the
# other.  Which one it solves for must not follow the string-hash seed.
_HASH_SEED_PROBE = """
import random
from lieschouten.algebras import build_family
from lieschouten.poly import parse_polynomial as p
from lieschouten.algebras import draw_point
from lieschouten.soliton import TheoremCase, _locus_plan, _Substitution, soliton_system, verify_case
case = TheoremCase("h.1", "g5", "lc", substitutions=(("alpha", p("lambda0")), ("beta", p("eta"))), c_expr=p("0"))
system = soliton_system(build_family("g5"), "lc")
plan = _locus_plan(system, case, _Substitution(case.substitutions, None), ())
points = [draw_point(random.Random(k), *plan) for k in range(8)]
report = verify_case(case, seed=0, sample_count=20)
print(repr([points, report.method, report.counterexample]))
"""


def test_locus_sampler_does_not_follow_the_string_hash_seed():
    src = os.path.dirname(os.path.dirname(soliton.__file__))
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as here:
        exec(_HASH_SEED_PROBE, namespace)
    assert outputs == {here.getvalue()}
    # eta is drawn and lambda0, the last in table order, solved for
    points = [point_values(*pt) for pt in namespace["points"] if pt is not None]
    assert points
    for pt in points:
        assert set(pt) == {"gamma", "delta", "eta", "lambda0"}
        assert pt["lambda0"] * pt["gamma"] + pt["eta"] * pt["delta"] == 0
    # the counterexample keeps the lambda0 that the locus solved, so it lies on the locus
    report = namespace["report"]
    assert report.method == "failed"
    point = report.counterexample
    assert point["lambda0"] * point["gamma"] + point["eta"] * point["delta"] == 0


def test_constraint_quadratic_in_its_free_variable_is_solved():
    # alpha := eta and gamma := eta turn g5's constraint into eta^2 + beta*delta:
    # beta and delta are drawn and eta is solved by the quadratic formula
    case = TheoremCase("q.1", "g5", "lc", substitutions=(("alpha", p("eta")), ("gamma", p("eta"))), c_expr=T.zero)
    system = soliton_system(build_family("g5"), "lc")
    plan = _locus_plan(system, case, _Substitution(case.substitutions, None), ())
    assert plan[0] == ["beta", "delta"] and [var for var, _ in plan[1]] == ["eta"]
    points = [point_values(*pt) for pt in (draw_point(random.Random(k), *plan) for k in range(40)) if pt is not None]
    assert points and any(isinstance(pt["eta"], Surd) for pt in points)
    for pt in points:
        assert pt["eta"] ** 2 + pt["beta"] * pt["delta"] == 0
        assert pt["eta"] + pt["delta"] != 0


def test_sampled_rung_compiles_the_locus_once_per_ladder_branch(monkeypatch):
    # the sampled rung of g6/lc without the quadratic rewrite: the draws
    # substitute nothing, so more samples make no more substitutions
    case = TheoremCase(
        label="t.3",
        family_id="g6",
        kind="lc",
        substitutions=(("gamma", T.zero), ("delta", T.zero)),
        c_expr=p("1/2*alpha^2 - 3/2*alpha^2*lambda0"),
        nonzero=(p("alpha"),),
        sample_subs=(("beta", p("alpha")),),
    )
    calls = []
    original = Polynomial.substitute

    def counting(self, var, replacement):
        calls.append(var)
        return original(self, var, replacement)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    counts = []
    for sample_count in (10, 60):
        calls.clear()
        assert verify_case(case, sample_count=sample_count).method == "sampled"
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_lambda0_law_flags_exactly_six_stated_suspect_case_branches():
    """A claim c = c_expr can hold for every lambda0 only if
    mu = c_expr + s*lambda0 is free of lambda0 modulo the case ideal: the
    case substitutions applied in listed order, as `_apply_case` does, then
    the normal form of `_reduce_ladder`.  Checked on every stated and
    variant case-branch with a c; it fails on six stated suspect ones."""
    flagged, checked = set(), 0
    for case in CATALOG_CASES:
        data = [("stated", (case.substitutions, case.c_expr, case.reductions))]
        if (case.variant_substitutions, case.variant_c, case.variant_reductions) != (None, None, None):
            data.append(("variant", case.effective()))
        for fam in family_branches(case.family_id):
            system = soliton_system(fam, case.kind)
            s = ricci_pipeline(fam, case.kind)[2]
            for which, (subs, c_expr, reductions) in data:
                if case.empty or c_expr is None:
                    continue
                mu = instantiate_eta(c_expr, fam.eta) + s * T.var("lambda0")
                for var, expr in subs:
                    mu = mu.substitute(var, instantiate_eta(expr, fam.eta))
                [normal] = soliton._reduce_ladder([mu], system, soliton._Substitution(subs, fam.eta), reductions)
                checked += 1
                if "lambda0" in normal.variables():
                    flagged.add((case.label, fam.eta, which))
    assert checked == 51
    assert flagged == {
        ("3.3.8", None, "stated"),
        ("3.4.1", 1, "stated"),
        ("3.4.1", -1, "stated"),
        ("3.5.1", None, "stated"),
        ("3.5.2", None, "stated"),
        ("4.11.1", None, "stated"),
    }
    assert {label for label, _, _ in flagged} <= {c.label for c in CATALOG_CASES if c.suspect}


# -- branch memo and the scan membership split ----------------------------------

OTHER_CUSTOM = "bracket.12 = 0, 0, alpha\nbracket.13 = 0, beta, 0\n"
HEISENBERG = "bracket.12 = 0, 0, 1\n"


def clear_branch_caches():
    for cached in (connection, ricci_pipeline, soliton_system):
        cached.cache_clear()


class TestBranchMemo:
    @pytest.mark.parametrize("first", [HEISENBERG, OTHER_CUSTOM], ids=["heisenberg-first", "other-first"])
    def test_custom_families_sharing_an_id_never_collide(self, first):
        clear_branch_caches()
        second = OTHER_CUSTOM if first == HEISENBERG else HEISENBERG
        built = {}
        for text in (first, second):
            fam = custom_family(text)
            assert fam.family_id == "custom"
            built[text] = soliton_system(fam, "lc").residuals
        assert built[HEISENBERG] != built[OTHER_CUSTOM]
        assert str(built[HEISENBERG][2]) == "-1/2*lambda0 + c + 3/2"
        assert {"alpha", "beta"} <= built[OTHER_CUSTOM][2].variables()

    def test_equal_families_share_one_build(self):
        clear_branch_caches()
        first = soliton_system(build_family("g2"), "kn")
        assert soliton_system(build_family("g2"), "kn") is first
        assert soliton_system.cache_info().misses == 1

    def test_decomposition_compiled_once_per_system(self):
        system = soliton_system(build_family("g2"), "kn")
        assert soliton._compiled_decomposition(system) is soliton._compiled_decomposition(system)

    def test_cache_is_bounded_but_holds_one_sweep(self):
        size = soliton_system.cache_info().maxsize
        assert size is not None and size >= 3 * len(all_family_branches())

    @pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
    def test_memoised_sample_is_a_fresh_draw(self, fam):
        scaled, slots = soliton._branch_sample(fam, 0, 500)
        assert [point_values(*scaled[k]) for k in slots] == sample_parameters(fam, seed=0, count=500)

    def test_sample_memo_is_bounded_and_shared_by_the_connections(self):
        soliton._branch_sample.cache_clear()
        for kind in CONNECTION_KINDS:
            scan(build_family("g3"), kind, seed=5, count=30)
        info = soliton._branch_sample.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert info.maxsize is not None and info.maxsize >= len(all_family_branches())

    def test_bad_count_still_raises_through_the_memo(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                scan(build_family("g1"), "lc", seed=0, count=0)

    def test_a_scan_after_the_memo_is_cleared_is_correct(self):
        # each point lives in the memo only as its integer form, so a cleared
        # memo leaves no second cache behind that still names the old points:
        # every later scan redraws, and stays correct
        fam = build_family("g1")
        before = scan(fam, "lc", seed=3, count=40)
        for kind in CONNECTION_KINDS:
            soliton._branch_sample.cache_clear()
            report = scan(fam, kind, seed=3, count=40)
            got = [(values, lam, sol.status, sol.value) for _, values, lam, sol in report.entries]
            assert got == reference_scan(fam, kind, 3, 40, DEFAULT_LAMBDA0_GRID)
        assert report.scaled is not before.scaled
        soliton._branch_sample.cache_clear()
        assert scan(fam, "lc", seed=3, count=40).rows == before.rows

    def test_each_case_compiled_once(self):
        soliton._compiled_case.cache_clear()
        case = next(c for c in CATALOG_CASES if c.family_id == "g1" and not c.empty)
        witness = witness_point(case, None)
        system = soliton_system(build_family("g1"), case.kind)
        sol = solve_for_c(system, witness, Fraction(1, 2))
        for _ in range(3):
            assert case_matches_point(case, None, witness, Fraction(1, 2), sol)
        assert soliton._compiled_case.cache_info().misses == 1
        assert soliton._compiled_case.cache_info().maxsize >= len(CATALOG_CASES) + 3  # g4 has two signs


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_scan_of_a_sample_with_repeats_equals_the_per_entry_reference(kind):
    fam, count = build_family("g1"), 60
    points = sample_parameters(fam, seed=0, count=count)
    assert len({tuple(pt.items()) for pt in points}) < count  # repeats occur
    report = scan(fam, kind, seed=0, count=count)
    got = [(values, lam, sol.status, sol.value) for _, values, lam, sol in report.entries]
    assert got == reference_scan(fam, kind, 0, count, DEFAULT_LAMBDA0_GRID)
    assert [cell[0] for cell in report.entries] == [i for i in range(count) for _ in DEFAULT_LAMBDA0_GRID]


MEMBERSHIP_GRID = DEFAULT_LAMBDA0_GRID + (Fraction(-7, 3), Fraction(3, 10))
QUADRATIC_IN_LAMBDA0 = "(lambda0 - 1/4)*(lambda0 - 2)"  # zero at two grid values
CATALOG_CASES = load_catalog().cases


def memberships(matches, report, cases, eta):
    """Per solvable cell: does `matches` place it inside one of `cases`?
    `case_matches_point` reads the cell's point as the integer form the
    report keeps, the reference as its values."""
    by_form = matches is case_matches_point
    return [
        any(matches(case, eta, report.scaled[report.slots[idx]] if by_form else values, lam, sol) for case in cases)
        for idx, values, lam, sol in report.solvable
    ]


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_scan_membership_equals_case_matches_point(fam, kind):
    cases = [c for c in CATALOG_CASES if c.family_id == fam.family_id and c.kind == kind]
    report = scan(fam, kind, seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    # each case alone also yields entries outside it, so both verdicts occur
    for subset in [cases] + [[case] for case in cases]:
        expected = memberships(reference_case_matches_point, report, subset, fam.eta)
        assert scan_membership(report, subset) == expected
        assert memberships(case_matches_point, report, subset, fam.eta) == expected


def test_membership_at_surd_points_matches_the_reference():
    # on the circle every sampled point meets the relation beta^2 = 4 - alpha^2
    # exactly; gamma = delta holds only where both are 0, and c = 0 equals
    # lambda0 - 1 only at lambda0 = 1, so each half holds at some entries only
    case = TheoremCase(
        label="f.1",
        family_id="custom",
        kind="canonical",
        substitutions=(("gamma", p("delta")),),
        c_expr=p("lambda0 - 1"),
        reductions=(("beta", p("4 - alpha^2")),),
        nonzero=(p("alpha + delta"), p("delta - 1")),
    )
    report = scan(SURD_G5, "canonical", seed=1, count=60, lambda0_grid=MEMBERSHIP_GRID)
    expected = memberships(reference_case_matches_point, report, [case], None)
    assert scan_membership(report, [case]) == expected
    assert memberships(case_matches_point, report, [case], None) == expected
    assert any(expected) and not all(expected)
    assert any(isinstance(pt["beta"], Surd) for pt in points_of(report))


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_membership_of_rows_where_every_c_solves_matches_the_reference(kind):
    # this custom algebra's scan has `any` rows beside `unique` (and `none`)
    # ones: an `any` cell lies in every case whose locus holds, whatever c
    fam = custom_family(OTHER_CUSTOM)
    report = scan(fam, kind, seed=0, count=30, lambda0_grid=MEMBERSHIP_GRID)
    assert {"unique", "any"} <= {row[0].status for row in report.rows}
    cases = [
        TheoremCase(label="o.1", family_id="custom", kind=kind, substitutions=(("beta", p("0")),), c_expr=p("lambda0 + 5")),
        TheoremCase(label="o.2", family_id="custom", kind=kind, nonzero=(p("alpha - 1"),)),
        # c_expr of degree 2 in lambda0
        TheoremCase("o.3", "custom", kind, substitutions=(("beta", p("0")),), c_expr=p(f"alpha*{QUADRATIC_IN_LAMBDA0}")),
        TheoremCase("o.4", "custom", kind, c_expr=p(f"lambda0^2 - alpha*{QUADRATIC_IN_LAMBDA0}"), nonzero=(p("alpha - 1"),)),
    ]
    for subset in [cases] + [[case] for case in cases]:
        expected = memberships(reference_case_matches_point, report, subset, None)
        assert scan_membership(report, subset) == expected
        assert any(expected) and not all(expected)


@settings(max_examples=200, deadline=None)
@given(
    coefficients=st.lists(st.tuples(rational, rational, rational), min_size=1, max_size=4),
    alpha=rational,
    beta=st.sampled_from([Fraction(0), Fraction(-3, 2), exact_sqrt(2), Fraction(1, 3) - exact_sqrt(8)]),
    lam=rational,
    shift=st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 7), exact_sqrt(2)]),
)
def test_the_c_half_of_membership_matches_the_reference_at_any_degree_in_lambda0(coefficients, alpha, beta, lam, shift):
    # c_expr = sum_j (a_j + b_j*alpha + e_j*beta^2) * lambda0^j is compiled to
    # its lambda0-free coefficients; the solved c, on c_expr or off it, must
    # get the reference's verdict at any lambda0, at Fraction and Surd points
    c_expr = sum(
        ((a + b * p("alpha") + e * p("beta^2")) * p("lambda0") ** j for j, (a, b, e) in enumerate(coefficients)),
        T.zero,
    )
    case = TheoremCase(label="d.1", family_id="custom", kind="lc", c_expr=c_expr, nonzero=(p("alpha + 9"),))
    values = {"alpha": alpha, "beta": beta}
    c = c_expr.evaluate({**values, "lambda0": lam}) + shift
    for sol in (CSolution("unique", c), CSolution("any")):
        expected = reference_case_matches_point(case, None, values, lam, sol)
        assert case_matches_point(case, None, integer_point(values), lam, sol) == expected
        assert expected == (sol.status == "any" or shift == 0)


@settings(max_examples=40, deadline=None)
@given(
    fam=st.sampled_from(all_family_branches() + [SURD_G5]),
    kind=st.sampled_from(CONNECTION_KINDS),
    seed=st.integers(0, 1000),
    grid=st.lists(rational, min_size=1, max_size=4),
)
def test_solve_for_c_equals_the_scan_entry(fam, kind, seed, grid):
    # at the report's integer form and at the least one of the values: any
    # L that clears the denominators gives the scan's solution
    report = scan(fam, kind, seed=seed, count=4, lambda0_grid=grid)
    system = soliton_system(fam, kind)
    for idx, values, lam, sol in report.entries:
        for point in (report.scaled[report.slots[idx]], integer_point(values)):
            got = solve_for_c(system, point, lam)
            assert got == sol and type(got.value) is type(sol.value)
        if sol.status == "unique":  # the solved c, plugged back, solves exactly
            point = {**values, "lambda0": lam, "c": sol.value}
            assert all(r.evaluate(point) == 0 for r in system.residuals)


CIRCLE = custom_family((pathlib.Path(__file__).parent / "data" / "circle.alg").read_text(encoding="utf-8"))


@settings(max_examples=40, deadline=None)
@given(
    fam=st.sampled_from(all_family_branches() + [CIRCLE]),
    kind=st.sampled_from(CONNECTION_KINDS),
    seed=st.integers(0, 10**6),
    grid=st.lists(rational, max_size=5),
)
def test_each_cell_of_a_scan_row_is_solve_for_c_at_its_point(fam, kind, seed, grid):
    # the scan solves a distinct point once, from the memo's integer form;
    # solve_for_c at the least integer form of its values: both go through
    # one row helper
    report = scan(fam, kind, seed=seed, count=5, lambda0_grid=grid)
    system = soliton_system(fam, kind)
    for pt, row in zip(points_of(report), report.rows):
        assert list(row) == [solve_for_c(system, integer_point(pt), lam) for lam in report.lambda0_grid]
        # mu-form: a point is solvable at every lambda0 or at none
        assert len({sol.status for sol in row}) <= 1
    # `cells` and `entries` build the same per-cell solutions on request
    expected = [
        (idx, pt, lam, solve_for_c(system, integer_point(pt), lam))
        for idx, pt in enumerate(points_of(report))
        for lam in report.lambda0_grid
    ]
    assert list(report.cells(("unique", "any", "none"))) == expected
    assert list(report.cells()) == [cell for cell in expected if cell[3].status != "none"]
    assert report.entries == tuple(expected)


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_the_circle_points_are_surds_and_their_rows_solve_for_c(kind):
    report = scan(CIRCLE, kind, seed=7, count=20)
    system = soliton_system(CIRCLE, kind)
    assert any(isinstance(v, Surd) for pt in points_of(report) for v in pt.values())
    for pt, row in zip(points_of(report), report.rows):
        assert list(row) == [solve_for_c(system, integer_point(pt), lam) for lam in report.lambda0_grid]


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_kernel_factor_gives_the_residual_parts_at_the_circle_points(kind):
    # the decomposition kernel at drawn Surd points, at the L each draw
    # reached and at a multiple of it: P, Q and R over D*L**G are the values
    system = soliton_system(CIRCLE, kind)
    parts = []
    for r in system.residuals:
        if not r.is_zero:
            rest = r.coefficient_of("c", 0)
            parts += [rest.coefficient_of("lambda0", 0), rest.coefficient_of("lambda0", 1), r.coefficient_of("c", 1)]
    kernel = soliton._compiled_decomposition(system)
    d, g = kernel.factor
    draws = sample_scaled(CIRCLE, 3, 30)
    assert any(isinstance(v, Surd) for nums, _ in draws for v in nums.values())
    for nums, scale in draws:
        reference = [q.evaluate(point_values(nums, scale)) for q in parts]
        for k in (1, 7):
            out = kernel.scaled({n: v * k for n, v in nums.items()}, scale * k)
            assert [quotient(f, d * (scale * k) ** g) for f in out] == reference


@pytest.mark.parametrize("fam", all_family_branches() + [CIRCLE], ids=lambda f: f.describe())
def test_memo_keeps_each_distinct_point_with_its_integer_form(fam):
    # nums[n] == value*L with L > 0 for the L the draw reached, the lcm of 6
    # and the value denominators, which need not be the least L; against a
    # fresh draw, equal values share one slot and different ones do not
    scaled, slots = soliton._branch_sample(fam, 0, 500)
    fresh = sample_parameters(fam, seed=0, count=500)
    assert len(slots) == len(fresh)
    for slot, (nums, scale) in enumerate(scaled):
        values = fresh[slots.index(slot)]
        assert type(scale) is int and scale == math.lcm(6, *(v.denominator for v in values.values()))
        assert list(nums) == list(values) and all(nums[n] == v * scale for n, v in values.items())
        assert all(type(x) is int or {type(x), type(x.a), type(x.b)} == {Surd, int} for x in nums.values())
    slot_of = {}
    for values, slot in zip(fresh, slots):
        assert slot_of.setdefault(tuple(values.items()), slot) == slot
    assert len(slot_of) == len(scaled)


def assert_membership_is_the_reference_cell_by_cell(report, cases, eta):
    """`scan_membership`, and `case_matches_point` cell by cell, equal the
    reference for the cases together and for each alone; returns the
    reference verdicts of the cases together."""
    for subset in [cases] + [[case] for case in cases]:
        expected = memberships(reference_case_matches_point, report, subset, eta)
        assert scan_membership(report, subset) == expected
        assert memberships(case_matches_point, report, subset, eta) == expected
    return memberships(reference_case_matches_point, report, cases, eta)


def verdict_rows(report, verdicts):
    """The verdicts of each solvable point, one per lambda0 of the grid."""
    n = len(report.lambda0_grid)
    return {tuple(verdicts[k : k + n]) for k in range(0, len(verdicts), n)}


def test_a_case_that_breaks_the_lambda0_law_is_decided_at_each_lambda0():
    # stated 3.3.8 puts c = -2*alpha^2 + 2*alpha^2*lambda0 on gamma = alpha,
    # where the system admits that c only at lambda0 = 1: E is not zero there
    stated = next(c for c in CATALOG_CASES if c.label == "3.3.8")._replace(variant_substitutions=None)
    report = scan(build_family("g3"), "lc", seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    expected = assert_membership_is_the_reference_cell_by_cell(report, [stated], None)
    only_at_one = tuple(lam == 1 for lam in MEMBERSHIP_GRID)
    assert verdict_rows(report, expected) == {only_at_one, (False,) * len(MEMBERSHIP_GRID)}


def test_a_c_expr_of_degree_two_in_lambda0_holds_at_its_two_roots():
    # g1/LC solves only on beta = 0, with c = 0 at every lambda0
    case = TheoremCase("q.1", "g1", "lc", substitutions=(("beta", T.zero),), c_expr=p(QUADRATIC_IN_LAMBDA0))
    report = scan(build_family("g1"), "lc", seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    expected = assert_membership_is_the_reference_cell_by_cell(report, [case], None)
    roots = tuple(lam in (Fraction(1, 4), 2) for lam in MEMBERSHIP_GRID)
    assert expected and verdict_rows(report, expected) == {roots}


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_membership_at_the_circle_surd_points_against_a_c_expr_of_degree_two(kind):
    report = scan(CIRCLE, kind, seed=7, count=40, lambda0_grid=MEMBERSHIP_GRID)
    assert any(isinstance(pt["beta"], Surd) for pt in points_of(report))
    cases = [
        TheoremCase("c.1", "custom", kind, c_expr=p(f"beta*{QUADRATIC_IN_LAMBDA0}"), reductions=(("beta", p("4 - alpha^2")),)),
        TheoremCase("c.2", "custom", kind, c_expr=p(f"beta^2*lambda0^2 + delta*{QUADRATIC_IN_LAMBDA0}")),
    ]
    expected = assert_membership_is_the_reference_cell_by_cell(report, cases, None)
    if kind == "canonical":  # c = 0 at every point: c.1 holds at the two roots only
        assert any(expected) and not all(expected)


@given(
    coefficients=st.lists(small, min_size=1, max_size=4),
    q0=small,
    r0=small.filter(bool),
    f=st.integers(1, 5),
    grid=st.lists(rational, min_size=1, max_size=5),
    pick=st.integers(0, 4),
)
def test_holds_is_c_equals_c_expr_at_each_lambda0(coefficients, q0, r0, f, grid, pick):
    # c_at gives [f, f*a_0, ..., f*a_k]; the form's c = -(P_0 + Q_0*lambda0)/R_0
    # is made to meet c_expr = sum_j a_j*lambda0^j at one picked grid value
    def c_expr(lam):
        return sum(a * lam**j for j, a in enumerate(coefficients))

    root = grid[pick % len(grid)]
    p0 = -(c_expr(root) * r0 + q0 * root)
    form = (p0.numerator, q0 * p0.denominator, r0 * p0.denominator)  # the same c, in integers
    at = [f] + [f * a for a in coefficients]
    expected = [Fraction(-(p0 + q0 * lam), r0) == c_expr(lam) for lam in grid]
    assert expected[pick % len(grid)]
    pairs = [(lam.numerator, lam.denominator) for lam in grid]
    assert _holds(at, form, pairs) == expected
    # a free c, and a point where every c solves, hold at every lambda0
    assert _holds([], form, pairs) == _holds(at, (), pairs) == [True] * len(grid)


@pytest.mark.parametrize("lam", [0.3, 2.0, exact_sqrt(2)], ids=["float", "integral float", "surd"])
def test_lambda0_that_is_not_rational_is_a_type_error(lam):
    fam = build_family("g2")
    system = soliton_system(fam, "lc")
    [pt] = sample_scaled(fam, seed=0, count=1)
    case = next(c for c in CATALOG_CASES if c.family_id == "g2" and c.c_expr is not None)
    for call in (
        lambda: solve_for_c(system, pt, lam),
        lambda: scan(fam, "lc", seed=0, count=3, lambda0_grid=[Fraction(1), lam]),
        lambda: case_matches_point(case, None, pt, lam, CSolution("unique", Fraction(0))),
        lambda: negative_control(case, lambda0_value=lam),
    ):
        with pytest.raises(TypeError, match="lambda0 must be an int or a Fraction"):
            call()


def test_scan_membership_sees_both_verdicts_off_the_default_grid():
    fam = build_family("g3")
    cases = [c for c in CATALOG_CASES if c.family_id == "g3" and c.kind == "lc"]
    report = scan(fam, "lc", seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    extra = [k for k, (_, _, lam, _) in enumerate(report.solvable) if lam not in DEFAULT_LAMBDA0_GRID]
    assert extra
    verdicts = [scan_membership(report, [case]) for case in cases]
    assert any(v[k] for v in verdicts for k in extra)
    assert any(not v[k] for v in verdicts for k in extra)


def assert_scan_report_contract(report):
    """`solvable` is the solvable part of `entries`, `size` counts them, and
    a repeated point shares its first occurrence's row; returns the number
    of repeats."""
    assert report.solvable == tuple(cell for cell in report.entries if cell[3].status != "none")
    assert report.size == len(report.entries) == len(report.slots) * len(report.lambda0_grid)
    assert len(report.rows) == len(report.slots)
    first_rows = {}
    for pt, row in zip(points_of(report), report.rows):
        assert len(row) == len(report.lambda0_grid)
        assert row is first_rows.setdefault(tuple(pt.items()), row)
    return len(report.slots) - len(first_rows)


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_scan_report_is_a_table_of_point_rows(fam, kind):
    report = scan(fam, kind, seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    repeats = assert_scan_report_contract(report)
    if fam.family_id == "g1":
        assert repeats  # g1 draws repeated points at this count


def test_scan_report_of_surd_points_is_a_table_of_point_rows():
    report = scan(SURD_G5, "canonical", seed=1, count=60, lambda0_grid=MEMBERSHIP_GRID)
    assert any(isinstance(v, Surd) for pt in points_of(report) for v in pt.values())
    assert assert_scan_report_contract(report)  # repeated Surd points share one row


def test_verify_builds_no_scan_entries(monkeypatch):
    built = []

    def counting(name):
        def read(report):
            built.append(name)
            return ()

        return property(read)

    for name in ("entries", "solvable"):
        monkeypatch.setattr(soliton.ScanReport, name, counting(name))
    summary = verify_all(only="g1", scan_count=60)
    solvable = total = 0
    for record in summary.records:
        if record.section == "scan":
            counts = record.detail.split(" ", 1)[0].split("/")
            solvable, total = solvable + int(counts[0]), total + int(counts[1])
    assert total == 3 * 60 * len(DEFAULT_LAMBDA0_GRID)
    assert 0 < solvable < total
    # the records pair the verdicts with `ScanReport.cells`, so no tuple of
    # every cell is built
    assert len(built) == 0


def test_scan_record_names_the_first_three_cells_outside_the_classification():
    # g1/LC solves only on beta = 0 with c = 0, so a case claiming c = 1
    # there leaves every solvable cell outside the classification
    wrong = TheoremCase(
        "x",
        "g1",
        "lc",
        substitutions=(("beta", T.zero),),
        c_expr=T.one,
        witness=(("alpha", Fraction(1)), ("beta", Fraction(0))),
    )
    catalog = Catalog(matrices=(), scalars=(), cases=(wrong,))
    summary = verify_all(catalog=catalog, only="g1-lc", scan_count=60)
    [record] = [r for r in summary.records if r.section == "scan"]
    fam = build_family("g1")
    report = scan(fam, "lc", seed=0, count=60)
    verdicts = scan_membership(report, [wrong])
    outside = [cell for cell, inside in zip(report.solvable, verdicts) if not inside]
    assert len(outside) == len(report.solvable) > 3
    named = [
        f"{fam.describe()} {', '.join(f'{k}={v}' for k, v in sorted(values.items()))}, lambda0={lam}, c={sol.value}"
        for _, values, lam, sol in outside[:3]
    ]
    assert record.status == "fail"
    assert record.detail == (
        f"{len(outside)}/{report.size} solvable; outside classification: " + " | ".join(named)
    )


# -- float brute-force oracle for the derivation residuals ---------------------


def brute_force_residual(fam, d_rows, x, y, point):
    """D[x,y] - [Dx,y] - [x,Dy] evaluated numerically, no polynomial path."""

    def bracket_num(u, v):
        out = [0.0, 0.0, 0.0]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                coeff = u[i] * v[j]
                for k in range(3):
                    cval = fam.structure.c[i][j][k]
                    if not cval.is_zero:
                        out[k] += coeff * float(cval.evaluate(point))
        return out

    def apply_d(v):
        return [sum(v[i] * d_rows[i][j] for i in range(3)) for j in range(3)]

    bxy = bracket_num(x, y)
    lhs = apply_d(bxy)
    rhs1 = bracket_num(apply_d(x), y)
    rhs2 = bracket_num(x, apply_d(y))
    return [lhs[k] - rhs1[k] - rhs2[k] for k in range(3)]


@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_oracle_equivalence_with_float_brute_force(fam):
    rng = random.Random(42)
    for _ in range(200):
        d_rows = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)]
        d = OperatorMatrix(
            tuple(tuple(T.const(Fraction(v).limit_denominator(10**6)) for v in row) for row in d_rows)
        )
        d_float = [[float(d.entries[i][j].constant_value()) for j in range(3)] for i in range(3)]
        residuals = derivation_residuals(d, fam)
        point = {name: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for name in fam.parameters}
        x = [rng.uniform(-2, 2) for _ in range(3)]
        y = [rng.uniform(-2, 2) for _ in range(3)]
        direct = brute_force_residual(fam, d_float, x, y, point)
        # bilinearity: residual(x, y) expands over the three basis pairs
        from_poly = [0.0, 0.0, 0.0]
        for n, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            weight = x[i] * y[j] - x[j] * y[i]
            for k in range(3):
                from_poly[k] += weight * float(residuals[3 * n + k].evaluate(point))
        for k in range(3):
            assert abs(direct[k] - from_poly[k]) < 1e-9


def test_serialized_system_matches_golden_file():
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "golden_g1_lc_system.txt"
    current = serialize_system(soliton_system(build_family("g1"), "lc"))
    assert current == golden.read_text(encoding="utf-8")


def test_machine_scan_output_matches_golden_file(capsys):
    import pathlib

    from lieschouten.cli import main

    # taken while a scan still built one record per cell: 12 solvable of 60
    golden = pathlib.Path(__file__).parent / "data" / "golden_g6_lc_scan.txt"
    argv = ["scan", "--family", "g6", "--kind", "lc", "--count", "20", "--lambda0", "0,1/2,-7/3", "--format", "machine"]
    assert main(argv) == 0
    current = capsys.readouterr().out
    assert current == golden.read_text(encoding="utf-8")
    assert current.endswith("summary\tsolvable=12\ttotal=60\n")


def test_machine_scan_of_an_unsolvable_branch_matches_golden_file(capsys):
    from lieschouten.cli import main

    # g4/KN has no solution: every row of the scan is the one `none` row
    golden = pathlib.Path(__file__).parent / "data" / "golden_g4_kn_scan.txt"
    argv = ["scan", "--family", "g4", "--eta", "1", "--kind", "kn", "--count", "20", "--format", "machine"]
    assert main(argv) == 0
    current = capsys.readouterr().out
    assert current == golden.read_text(encoding="utf-8")
    assert current.endswith("summary\tsolvable=0\ttotal=120\n")


def test_custom_affine_systems_match_golden_file(capsys):
    import pathlib

    from lieschouten.cli import main

    # taken while each residual was still folded product by product: a custom
    # algebra of fractional affine brackets under a constraint, all three kinds
    data = pathlib.Path(__file__).parent / "data"
    for kind in ("lc", "canonical", "kn"):
        argv = ["system", "--family", f"custom:{data / 'affine.alg'}", "--kind", kind, "--format", "machine"]
        assert main(argv) == 0
    current = capsys.readouterr().out
    assert current == (data / "golden_affine_systems.txt").read_text(encoding="utf-8")
    assert current.count("residual\t") == 27 and current.count("constraint\t") == 3


# sha256 of `serialize_system` on every catalogued branch, taken while
# monomials were still exponent tuples: the printed term order must not
# depend on how the polynomial kernel stores its keys
SYSTEM_SHA256 = {
    ("g1", None, "lc"): "a16304d7c8c4dc6eeef1ba6d0df5641a1ef66580c5307da61363d69ff0798bd8",
    ("g1", None, "canonical"): "4547c5c03d59646bf7cad1d5e62d8ed9f4d0e89189bd9d573a35e908611979df",
    ("g1", None, "kn"): "0f2a6f9459cb32aa7601628ffcb49c70cb3ccd6082580bd9524c9bb8224d7f8b",
    ("g2", None, "lc"): "e320be112785105fa39f34e7c94cc30caec3a66bd11f9fe4fafd7dbea52ee990",
    ("g2", None, "canonical"): "96cd367745c5312426a39c2d72780988d567ce46849c4e61bf23236df3539385",
    ("g2", None, "kn"): "165c9904bf399594fa86f5c2bf57340a12edbf70c7902cdc05d72eda1735cf96",
    ("g3", None, "lc"): "ac449f2d53214a71575b2958019676b326f5dd424ac3226d7b08c779195ad34d",
    ("g3", None, "canonical"): "e4448697d2742089834db90ac511f97318adfd02084db85a5cb1061ab3885d7f",
    ("g3", None, "kn"): "c285f496a836c051ab34404567e3fccc6ebc8a50c069893b9e1a7a9aa3bba44c",
    ("g4", 1, "lc"): "43c382cdb316f2b8c673234ea831bcfecd50dbabf877fde76c9e458f8d19045f",
    ("g4", 1, "canonical"): "e10192350fd79a9ec6c782ad7ef5e459662126be68159c6421acc6b7cd1c6c64",
    ("g4", 1, "kn"): "80f18f0108953db8e462e2e3f821bb5aab4d230fdc25a7e04427e41751df7035",
    ("g4", -1, "lc"): "6e12050c420c013ca5fc2d652a8e4b9fe657bb97d9e9abce239f46bc15eed530",
    ("g4", -1, "canonical"): "5c314eec6347d63a0e0cf90caedd41748abdf52758e958c41af7c31eef2b02e9",
    ("g4", -1, "kn"): "f8514cf8c4fdeae60044a07f7864e583324d17336a0055804ff0c2f787f9ce38",
    ("g5", None, "lc"): "05113a1149e0ae92c2d10e36e25ea65c92062ecf056558ada170d9488ad4c78c",
    ("g5", None, "canonical"): "857742e4d8ba0861d6d637c788d7e5de85f44741ad1e3ed520526bc0feb78259",
    ("g5", None, "kn"): "7d58bf4422b30381f9dcaa337b44c40297dd1b8c784d653a19c64fd8dff51758",
    ("g6", None, "lc"): "d0f246acb0ea0c12cd9de8f0f4bc6bdf916344085e2c3f8975f18c3129286c27",
    ("g6", None, "canonical"): "b8d3932bc5b3f7f87ba1dd08fb3f5aa3e5fbe516794d54296d63c3b94049005a",
    ("g6", None, "kn"): "4fcb071a828e999664492fed8c7970fdd1caf9c7a01d34a1d56b0c05adfb1a99",
    ("g7", None, "lc"): "78be477aa6e20bccb7518b478386e1f1aa4c1b4a068ff0746507ee93c4b813db",
    ("g7", None, "canonical"): "0a65a8d6152c6fcc5fe6567e4636f2d9afc14f9981bf3589e6826393733a0396",
    ("g7", None, "kn"): "b5c84885eb0db46233e2f27d0f76dd59ca3c93f5710eb2230967ed2b68ce20e6",
}


def test_serialized_systems_of_every_branch_match_pinned_digests():
    import hashlib

    from lieschouten.algebras import FAMILY_IDS, family_branches

    current = {
        (family_id, fam.eta, kind): hashlib.sha256(serialize_system(soliton_system(fam, kind)).encode()).hexdigest()
        for family_id in FAMILY_IDS
        for fam in family_branches(family_id)
        for kind in CONNECTION_KINDS
    }
    assert current == SYSTEM_SHA256


def test_g5_canonical_system_is_c_times_structure_constants():
    # the canonical Ricci of g5 vanishes, so D = -(c)Id and each residual
    # collapses to c times the matching structure constant
    fam = build_family("g5")
    system = soliton_system(fam, "canonical")
    c = T.var("c")
    expected = [
        c * fam.structure.c[i][j][k]
        for (i, j) in ((0, 1), (0, 2), (1, 2))
        for k in range(3)
    ]
    assert list(system.residuals) == expected
