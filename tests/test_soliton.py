"""Tests for derivation residuals, soliton systems, solving, and scanning."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieschouten import soliton
from lieschouten.algebras import build_family, custom_family, sample_parameters
from lieschouten.geometry import CONNECTION_KINDS, OperatorMatrix
from lieschouten.poly import DEFAULT_TABLE, PolynomialError, parse_polynomial
from lieschouten.soliton import (
    DEFAULT_LAMBDA0_GRID,
    CSolution,
    SolitonSystem,
    TheoremCase,
    case_matches_point,
    derivation_candidate,
    derivation_residuals,
    negative_control,
    scan,
    serialize_system,
    solve_for_c,
    soliton_system,
    verify_case,
)
from lieschouten.soliton import _exact_or_float_sqrt, _sample_case_locus, _solve_exact

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


class TestSystems:
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


@given(c_rows(), st.integers(1, 12))
def test_exact_solver_matches_fraction_reference(rows, scale):
    expected = reference_solve(rows)
    assert _solve_exact(rows) == expected
    # the scan kernel feeds rows scaled by a positive integer to cleared ints
    den = 1
    for a, b in rows:
        den = den * a.denominator * b.denominator
    int_rows = [(int(a * den * scale), int(b * den * scale)) for a, b in rows]
    sol = _solve_exact(int_rows)
    assert sol == expected
    assert type(sol.value) is type(expected.value)


def test_float_mode_scan_uses_tolerance_path(monkeypatch):
    calls = []
    solve_rows = soliton._solve_rows

    def counting(rows, tolerance):
        calls.append(tolerance)
        return solve_rows(rows, tolerance)

    def refuse(rows):
        raise AssertionError("exact solver reached from a float point")

    monkeypatch.setattr(soliton, "_solve_rows", counting)
    monkeypatch.setattr(soliton, "_solve_exact", refuse)
    report = scan(build_family("g5"), "canonical", seed=0, count=20, mode="float", tolerance=1e-7)
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
