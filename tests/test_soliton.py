"""Tests for derivation residuals, soliton systems, solving, and scanning."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieschouten import soliton
from lieschouten.algebras import build_family, custom_family, sample_parameters
from lieschouten.catalog import Catalog, load_catalog, verify_all
from lieschouten.geometry import CONNECTION_KINDS, OperatorMatrix, connection, ricci_pipeline
from lieschouten.poly import DEFAULT_TABLE, PolynomialError, parse_polynomial
from lieschouten.soliton import (
    DEFAULT_LAMBDA0_GRID,
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
)
from lieschouten.soliton import _exact_c_solver, _exact_or_float_sqrt, _sample_case_locus

from geometry_reference import G5_ON_A_CIRCLE, derivation_candidate, generated_families
from membership_reference import reference_case_matches_point

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


_GENERATED = generated_families(seed=7, count=6)


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
        sol = solve_for_c(system, {"alpha": Fraction(1), "beta": Fraction(0)}, Fraction(3, 7))
        assert sol.status == "unique" and sol.value == 0

    def test_g1_inconsistent_point(self):
        system = soliton_system(build_family("g1"), "lc")
        sol = solve_for_c(system, {"alpha": Fraction(1), "beta": Fraction(1)}, Fraction(0))
        assert sol.status == "none"

    def test_g4_kn_has_no_solution(self):
        system = soliton_system(build_family("g4", eta=1), "kn")
        sol = solve_for_c(system, {"alpha": Fraction(1), "beta": Fraction(0)}, Fraction(0))
        assert sol.status == "none"

    def test_g2_lc_alpha_beta_zero_formula(self):
        # solvable with c = 2*gamma^2*(1 - lambda0)
        system = soliton_system(build_family("g2"), "lc")
        for lam in (Fraction(0), Fraction(1, 4), Fraction(2)):
            sol = solve_for_c(
                system, {"alpha": Fraction(0), "beta": Fraction(0), "gamma": Fraction(3)}, lam
            )
            assert sol.status == "unique"
            assert sol.value == 2 * Fraction(9) * (1 - lam)

    def test_abelian_any_c(self):
        system = soliton_system(ABELIAN, "lc")
        sol = solve_for_c(system, {}, Fraction(1))
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
            solve_for_c(bad, {"alpha": Fraction(1)}, Fraction(0))


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
        assert report.method == "exact" and report.ok and report.residual_zero

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
        assert report.max_float_residual >= 1.0

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


class TestScan:
    def test_g5_canonical_always_solvable_with_zero(self):
        report = scan(build_family("g5"), "canonical", seed=0, count=40)
        assert len(report.solvable) == len(report.entries)
        assert all(e.c == 0 for e in report.solvable)

    def test_g4_kn_never_solvable(self):
        for eta in (1, -1):
            report = scan(build_family("g4", eta=eta), "kn", seed=0, count=120)
            assert len(report.solvable) == 0

    def test_g1_lc_solvable_exactly_at_beta_zero(self):
        report = scan(build_family("g1"), "lc", seed=0, count=120)
        for e in report.entries:
            if e.status in ("unique", "any"):
                assert e.values["beta"] == 0 and e.c == 0
            elif e.values["beta"] == 0:
                pytest.fail("beta=0 point should be solvable")

    def test_deterministic_per_seed(self):
        a = scan(build_family("g6"), "kn", seed=7, count=25)
        b = scan(build_family("g6"), "kn", seed=7, count=25)
        assert a == b

    def test_plugged_back_c_solves_exactly(self):
        system = soliton_system(build_family("g7"), "lc")
        report = scan(build_family("g7"), "lc", seed=1, count=40)
        for e in report.solvable[:30]:
            if e.status != "unique":
                continue
            point = dict(e.values)
            point["lambda0"] = e.lambda0
            point["c"] = e.c
            assert all(r.evaluate(point) == 0 for r in system.residuals)


# -- the exact scan kernel against a Fraction reference ------------------------

EXTENDED_GRID = DEFAULT_LAMBDA0_GRID + (Fraction(-7, 3), Fraction(5, 7))


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
    """(values, lambda0, status, c, residual_max) per entry via Polynomial.evaluate."""
    split = []
    for r in soliton_system(fam, kind).residuals:
        rest = r.coefficient_of("c", 0)
        split.append((rest.coefficient_of("lambda0", 0), rest.coefficient_of("lambda0", 1), r.coefficient_of("c", 1)))
    out = []
    for pt in sample_parameters(fam, seed=seed, count=count):
        evaluated = [(p0.evaluate(pt.values), q.evaluate(pt.values), rc.evaluate(pt.values)) for p0, q, rc in split]
        for lam in grid:
            sol = reference_solve([(a, b0 + b1 * lam) for b0, b1, a in evaluated])
            out.append((pt.values, lam, sol.status, sol.value, sol.residual_max))
    return out


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_scan_kernel_matches_fraction_reference(fam, kind):
    report = scan(fam, kind, seed=0, count=60, lambda0_grid=EXTENDED_GRID)
    got = [(e.values, e.lambda0, e.status, e.c, e.residual_max) for e in report.entries]
    expected = reference_scan(fam, kind, 0, 60, EXTENDED_GRID)
    assert got == expected
    assert [tuple(map(type, g)) for g in got] == [tuple(map(type, e)) for e in expected]
    assert all(e.lambda0 is lam for e, lam in zip(report.entries, itertools.cycle(EXTENDED_GRID)))


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


def solve_at_lambda0_zero(rows):
    """{a_i*c + b_i = 0} as the rows (P, Q, R) = (b_i, 0, a_i) at lambda0 = 0."""
    return _exact_c_solver([(b, 0, a) for a, b in rows])(0, 1)


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
    """Rows (P, Q, R) of P + Q*lambda0 + R*c = 0, and a lambda0 to try: the
    one lambda0 that solves, where the shape has one.  A stray last row
    spoils that lambda0, which every other row still agrees on."""
    n = draw(st.integers(1, 9))
    shape = draw(
        st.sampled_from(
            [
                "random",
                "zero R",
                "solvable at one lambda0",
                "zero R, solvable at one lambda0",
                "every lambda0 solves",
                "solvable at one lambda0, stray row",
                "zero R, stray row",
            ]
        )
    )
    lam, c = draw(rational), draw(rational)
    if shape == "every lambda0 solves":
        # multiples of one row: a unique c at each lambda0 when its R != 0,
        # every c when the row is zero
        base_r = draw(rational)
        base = (draw(rational), draw(rational), base_r) if base_r else (Fraction(0),) * 3
        return [tuple(k * x for x in base) for k in (draw(rational) for _ in range(n))], lam
    rows = []
    for _ in range(n):
        q = draw(rational.filter(bool)) if shape == "zero R, solvable at one lambda0" else draw(rational)
        r = Fraction(0) if shape.startswith("zero R") else draw(rational)
        p = draw(rational) if shape == "random" else -r * c - q * lam
        rows.append((p, q, r))
    if shape.endswith("stray row"):
        p, q, r = rows[-1]
        rows[-1] = (p + draw(rational.filter(bool)), q, r)
    return rows, lam


def cleared(rows, scale=1):
    """The rows times a positive integer that makes every entry an integer,
    as the scan kernel feeds them."""
    den = scale
    for row in rows:
        for x in row:
            den *= x.denominator
    return [tuple(int(x * den) for x in row) for row in rows]


@given(pqr_rows(), rational, st.integers(1, 12))
def test_exact_c_solver_matches_fraction_reference_at_each_lambda0(drawn, other, scale):
    rows, lam = drawn
    for solve in (_exact_c_solver(rows), _exact_c_solver(cleared(rows, scale))):
        for lam0 in (lam, other):
            assert solve(lam0.numerator, lam0.denominator) == reference_solve([(r, p + q * lam0) for p, q, r in rows])


FLOAT_G5 = custom_family(G5_ON_A_CIRCLE)  # its sample points are floats


def test_float_points_scan_through_tolerance_path(monkeypatch):
    calls = []
    solve_rows = soliton._solve_rows

    def counting(rows, tolerance):
        calls.append(tolerance)
        return solve_rows(rows, tolerance)

    def refuse(rows):
        raise AssertionError("exact solver reached from a float point")

    monkeypatch.setattr(soliton, "_solve_rows", counting)
    monkeypatch.setattr(soliton, "_exact_c_solver", refuse)
    report = scan(FLOAT_G5, "canonical", seed=0, count=20, tolerance=1e-7)
    assert calls == [1e-7] * len(report.entries)
    assert all(isinstance(v, float) for e in report.entries for v in e.values.values())
    assert all(e.status == "unique" and isinstance(e.c, float) and abs(e.c) <= 1e-7 for e in report.entries)


class TestExactLocus:
    def test_sqrt_of_large_perfect_square_is_exact(self):
        assert _exact_or_float_sqrt(Fraction((2**60 + 1) ** 2, 9)) == Fraction(2**60 + 1, 3)

    def test_sqrt_beyond_float_range_is_exact(self):
        assert _exact_or_float_sqrt(Fraction(10**400)) == Fraction(10**200)

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
        for seed in range(10):
            assert _sample_case_locus(system, near, (), near.reductions, T, random.Random(seed)) is None
            assert _sample_case_locus(system, on, (), on.reductions, T, random.Random(seed)) is not None


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
        inside = {"alpha": Fraction(2), "beta": Fraction(0)}
        sol = solve_for_c(system, inside, Fraction(1, 2))
        assert case_matches_point(case, None, inside, Fraction(1, 2), sol, T)
        outside = {"alpha": Fraction(2), "beta": Fraction(1)}
        assert not case_matches_point(case, None, outside, Fraction(1, 2), sol, T)

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
        point = {"alpha": Fraction(1), "beta": Fraction(0), "gamma": Fraction(-1)}
        sol = solve_for_c(system, point, Fraction(2))
        assert sol.status == "unique"
        assert case_matches_point(case, None, point, Fraction(2), sol, T)


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
        summary = verify_all(catalog=catalog, only="case", sample_count=4)
        [record] = summary.records
        assert (record.status, record.method) == ("fail", "unsampled")
        assert "200 rejected" in record.detail


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
        return soliton._reduce_ladder(residuals, self.SYSTEM, self.SUBS, self.REDUCTIONS, T)

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
        assert list(soliton._branch_sample(fam, 0, 500)) == sample_parameters(fam, seed=0, count=500)

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

    def test_each_case_compiled_once(self):
        soliton._compiled_case.cache_clear()
        case = next(c for c in CATALOG_CASES if c.family_id == "g1" and not c.empty)
        witness = soliton.resolve_witness(case, None, T)
        system = soliton_system(build_family("g1"), case.kind)
        sol = solve_for_c(system, witness, Fraction(1, 2))
        for _ in range(3):
            assert case_matches_point(case, None, witness, Fraction(1, 2), sol, T)
        assert soliton._compiled_case.cache_info().misses == 1
        assert soliton._compiled_case.cache_info().maxsize >= len(CATALOG_CASES) + 3  # g4 has two signs


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_scan_of_a_sample_with_repeats_equals_the_per_entry_reference(kind):
    fam, count = build_family("g1"), 60
    points = sample_parameters(fam, seed=0, count=count)
    assert len({tuple(pt.values.items()) for pt in points}) < count  # repeats occur
    report = scan(fam, kind, seed=0, count=count)
    got = [(e.values, e.lambda0, e.status, e.c, e.residual_max) for e in report.entries]
    assert got == reference_scan(fam, kind, 0, count, DEFAULT_LAMBDA0_GRID)
    assert [e.index for e in report.entries] == [i for i in range(count) for _ in DEFAULT_LAMBDA0_GRID]


MEMBERSHIP_GRID = DEFAULT_LAMBDA0_GRID + (Fraction(-7, 3), 0.3)
CATALOG_CASES = load_catalog().cases


def memberships(matches, report, cases, eta, tolerance=1e-9):
    """Per solvable entry: does `matches` place it inside one of `cases`?"""
    return [
        any(
            matches(case, eta, e.values, e.lambda0, CSolution(e.status, e.c, e.residual_max), T, tolerance)
            for case in cases
        )
        for e in report.solvable
    ]


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fam", all_family_branches(), ids=lambda f: f.describe())
def test_scan_membership_equals_case_matches_point(fam, kind):
    cases = [c for c in CATALOG_CASES if c.family_id == fam.family_id and c.kind == kind]
    report = scan(fam, kind, seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    # each case alone also yields entries outside it, so both verdicts occur
    for subset in [cases] + [[case] for case in cases]:
        expected = memberships(reference_case_matches_point, report, subset, fam.eta)
        assert scan_membership(report, subset, T) == expected
        assert memberships(case_matches_point, report, subset, fam.eta) == expected


def test_membership_at_float_points_matches_the_reference():
    # at float points every test is a tolerance test; a wide tolerance
    # makes each half of the membership hold at some entries and fail at others
    case = TheoremCase(
        label="f.1",
        family_id="custom",
        kind="canonical",
        substitutions=(("gamma", p("delta")),),
        c_expr=p("lambda0 - 5/4"),
        reductions=(("beta", p("4 - alpha^2")),),
        nonzero=(p("alpha + delta"), p("delta - 1")),
    )
    report = scan(FLOAT_G5, "canonical", seed=1, count=60, lambda0_grid=MEMBERSHIP_GRID)
    expected = memberships(reference_case_matches_point, report, [case], None, tolerance=0.5)
    assert scan_membership(report, [case], T, tolerance=0.5) == expected
    assert memberships(case_matches_point, report, [case], None, tolerance=0.5) == expected
    assert any(expected) and not all(expected)


@settings(max_examples=40, deadline=None)
@given(
    fam=st.sampled_from(all_family_branches() + [FLOAT_G5]),
    kind=st.sampled_from(CONNECTION_KINDS),
    seed=st.integers(0, 1000),
    grid=st.lists(rational, min_size=1, max_size=4),
    with_float=st.booleans(),
)
def test_solve_for_c_equals_the_scan_entry(fam, kind, seed, grid, with_float):
    grid = grid + [0.3] if with_float else grid
    report = scan(fam, kind, seed=seed, count=4, lambda0_grid=grid)
    system = soliton_system(fam, kind)
    for e in report.entries:
        sol = solve_for_c(system, e.values, e.lambda0)
        assert sol == CSolution(e.status, e.c, e.residual_max)
        assert type(sol.value) is type(e.c)
        if sol.status == "unique":  # the solved c, plugged back, solves
            point = {**e.values, "lambda0": e.lambda0, "c": e.c}
            assert all(abs(r.evaluate(point)) <= 1e-9 for r in system.residuals)


def reference_float_c(system, values, lam, tolerance=1e-9):
    """The rows a_i*c + b_i of the residuals, evaluated in floats at the
    point and lambda0, solved here: (status, c)."""
    point = {**{n: float(v) for n, v in values.items()}, "lambda0": lam}
    rows = [
        (float(r.coefficient_of("c", 1).evaluate(point)), float(r.coefficient_of("c", 0).evaluate(point)))
        for r in system.residuals
    ]
    candidates = [-b / a for a, b in rows if abs(a) > tolerance]
    if not candidates:
        return ("any" if all(abs(b) <= tolerance for _, b in rows) else "none"), None
    c = candidates[0]
    if any(abs(c - other) > tolerance for other in candidates) or any(abs(a * c + b) > tolerance for a, b in rows):
        return "none", None
    return "unique", c


def test_float_lambda0_at_an_exact_point_matches_the_float_reference():
    lambda_moves_c = 0
    for fam in all_family_branches():
        for kind in CONNECTION_KINDS:
            system = soliton_system(fam, kind)
            s = ricci_pipeline(fam, kind)[2]
            for pt in sample_parameters(fam, seed=0, count=12):
                for lam in (0.3, -1.7, 2.5):
                    sol = solve_for_c(system, pt, lam)
                    status, c = reference_float_c(system, pt.values, lam)
                    assert sol.status == status
                    if status == "unique":
                        assert type(sol.value) is float
                        assert abs(sol.value - c) <= 1e-9 * max(1.0, abs(c))
                        lambda_moves_c += s.evaluate(pt.values) != 0
    assert lambda_moves_c  # some solved c depends on lambda0 through s*lambda0


def test_scan_membership_sees_float_lambda0_and_both_verdicts():
    fam = build_family("g3")
    cases = [c for c in CATALOG_CASES if c.family_id == "g3" and c.kind == "lc"]
    report = scan(fam, "lc", seed=0, count=60, lambda0_grid=MEMBERSHIP_GRID)
    floats = [k for k, e in enumerate(report.solvable) if isinstance(e.lambda0, float)]
    assert floats
    verdicts = [scan_membership(report, [case], T) for case in cases]
    assert any(v[k] for v in verdicts for k in floats)
    assert any(not v[k] for v in verdicts for k in floats)


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
