"""Tests for the algebra families: brackets, Jacobi, constraints, sampling."""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from lieschouten import algebras
from lieschouten.algebras import (
    FAMILY_IDS,
    LORENTZIAN,
    PRODUCT_STRUCTURE_J,
    SamplingError,
    basis_vector,
    bracket,
    build_family,
    custom_family,
    draw_point,
    draw_rational,
    family_branches,
    jacobi_residuals,
    point_values,
    sample_parameters,
)
from lieschouten.poly import (
    DEFAULT_TABLE,
    IntegerKernel,
    Polynomial,
    Surd,
    exact_sqrt,
    one_field,
    parse_polynomial,
)

from geometry_reference import G5_ON_A_CIRCLE
from poly_reference import integer_point

DATA = pathlib.Path(__file__).parent / "data"

T = DEFAULT_TABLE


def p(text):
    return parse_polynomial(text, T)


def all_families():
    for fid in FAMILY_IDS:
        if fid == "g4":
            yield build_family("g4", eta=1)
            yield build_family("g4", eta=-1)
        else:
            yield build_family(fid)


ABELIAN = custom_family("")
# The quadratic solve for delta reads gamma, which the linear split solves,
# so the split runs first; in G5_ON_A_CIRCLE the quadratic solve runs first.
SPLIT_READ_BY_QUADRATIC = """
bracket.13 = alpha, beta, 0
bracket.23 = gamma, delta, 0
constraints = alpha*beta + gamma; gamma^2 + delta^2 - 4
"""


# Both constraints are linear in gamma, so only one of them may solve for it.
SHARED_LINEAR_TARGET = """
bracket.13 = alpha, beta, 0
bracket.23 = gamma, delta, 0
constraints = alpha*beta + gamma; gamma + delta^2 - 4
"""
# The constraints solve for delta and gamma, and each reads the other's
# target, so no solve order keeps both: only the final check does.
TARGETS_READ_BOTH_WAYS = """
bracket.13 = alpha, beta, 0
bracket.23 = gamma, delta, 0
constraints = gamma + delta; alpha*delta + gamma
"""
# Two circles: beta and delta are each a root of a quadratic, mostly in two
# different quadratic fields.
TWO_CIRCLES = """
bracket.13 = alpha, beta, 0
bracket.23 = gamma, delta, 0
constraints = alpha^2 + beta^2 - 4; gamma^2 + delta^2 - 2
"""


class TestBuildFamily:
    def test_g1_bracket_23(self):
        fam = build_family("g1")
        assert fam.structure.bracket_basis(1, 2) == (p("beta"), p("alpha"), p("alpha"))

    def test_g5_bracket_12_zero(self):
        fam = build_family("g5")
        assert all(q.is_zero for q in fam.structure.bracket_basis(0, 1))

    def test_g4_eta_plus_one(self):
        fam = build_family("g4", eta=1)
        assert fam.structure.bracket_basis(0, 1) == (T.zero, T.const(-1), p("2 - beta"))

    def test_g4_eta_minus_one(self):
        fam = build_family("g4", eta=-1)
        assert fam.structure.bracket_basis(0, 1) == (T.zero, T.const(-1), p("-2 - beta"))

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            build_family("g4")
        with pytest.raises(ValueError):
            build_family("g1", eta=1)
        with pytest.raises(ValueError):
            build_family("g9")

    def test_built_once_per_branch_and_errors_not_cached(self):
        assert build_family("g4", eta=-1) is build_family("g4", eta=-1)
        assert build_family("g4", eta=1) is not build_family("g4", eta=-1)
        assert algebras._build_family.cache_info().maxsize is not None
        for _ in range(2):
            with pytest.raises(ValueError):
                build_family("g4", eta=2)

    def test_memo_keyed_on_values_not_spelling(self):
        algebras._build_family.cache_clear()
        spellings = [
            family_branches("g1")[0],
            build_family("g1"),
            build_family("g1", None, DEFAULT_TABLE),
            build_family("g1", eta=None, table=DEFAULT_TABLE),
        ]
        assert all(fam is spellings[0] for fam in spellings)
        assert algebras._build_family.cache_info().misses == 1

    def test_side_conditions(self):
        assert build_family("g1").nonvanishing == (p("alpha"),)
        assert build_family("g2").nonvanishing == (p("gamma"),)
        g5 = build_family("g5")
        assert g5.equality_constraints == (p("alpha*gamma + beta*delta"),)
        assert g5.nonvanishing == (p("alpha + delta"),)
        assert build_family("g6").equality_constraints == (p("alpha*gamma - beta*delta"),)
        assert build_family("g7").equality_constraints == (p("alpha*gamma"),)

    def test_antisymmetry_identity(self):
        for fam in all_families():
            for i in range(3):
                for j in range(3):
                    forward = fam.structure.bracket_basis(i, j)
                    backward = fam.structure.bracket_basis(j, i)
                    assert all((a + b).is_zero for a, b in zip(forward, backward))


class TestBracket:
    def test_g3_basis_pair(self):
        fam = build_family("g3")
        e1, e2 = basis_vector(T, 0), basis_vector(T, 1)
        assert bracket(fam, e1, e2) == (T.zero, T.zero, p("-gamma"))

    def test_alternating(self):
        fam = build_family("g2")
        x = (p("alpha + 1"), p("beta"), p("gamma - delta"))
        assert all(q.is_zero for q in bracket(fam, x, x))

    def test_g7_basis_pair(self):
        fam = build_family("g7")
        e2, e3 = basis_vector(T, 1), basis_vector(T, 2)
        assert bracket(fam, e2, e3) == (p("gamma"), p("delta"), p("delta"))

    def test_bilinearity(self):
        fam = build_family("g6")
        e = [basis_vector(T, i) for i in range(3)]
        x = (p("2*alpha"), p("beta - 1"), T.zero)
        y = (T.one, p("delta"), p("gamma^2"))
        direct = bracket(fam, x, y)
        expanded = [T.zero, T.zero, T.zero]
        for i in range(3):
            for j in range(3):
                coeff = x[i] * y[j]
                for k, comp in enumerate(bracket(fam, e[i], e[j])):
                    expanded[k] = expanded[k] + coeff * comp
        assert list(direct) == expanded


class TestJacobi:
    def test_abelian_residuals_vanish(self):
        assert all(q.is_zero for q in jacobi_residuals(ABELIAN))

    def test_g1_residuals_vanish_identically(self):
        # hand expansion of the g1 table gives a cyclic sum that cancels
        assert all(q.is_zero for q in jacobi_residuals(build_family("g1")))

    @pytest.mark.parametrize("fam", list(all_families()), ids=lambda f: f.describe())
    def test_all_families_identically(self, fam):
        assert all(q.is_zero for q in jacobi_residuals(fam))

    def test_g7_on_constraint_locus(self):
        fam = build_family("g7")
        residuals = jacobi_residuals(fam)
        for point in sample_parameters(fam, seed=5, count=25):
            for q in residuals:
                assert q.evaluate(point) == 0

    def test_non_lie_table_reports_nonzero(self):
        # [[e1,e2],e3] = [e2,e3] = e1 while the other cyclic terms vanish
        fam = custom_family("bracket.12 = 0, 1, 0\nbracket.13 = 0, 0, 0\nbracket.23 = 1, 0, 0")
        assert any(not q.is_zero for q in jacobi_residuals(fam))


class TestMetricAndJ:
    def test_signature(self):
        assert LORENTZIAN.eps == (1, 1, -1)

    def test_j_squares_to_identity_and_is_isometric(self):
        for j, sigma in enumerate(PRODUCT_STRUCTURE_J):
            assert sigma * sigma == 1
            # g(J e_j, J e_j) = sigma_j^2 eps_j = eps_j
            assert sigma * sigma * LORENTZIAN.eps[j] == LORENTZIAN.eps[j]


class TestSampling:
    def test_g1_nonvanishing_enforced(self):
        for point in sample_parameters(build_family("g1"), seed=0, count=40):
            assert point["alpha"] != 0

    def test_g5_constraint_exact(self):
        con = p("alpha*gamma + beta*delta")
        for point in sample_parameters(build_family("g5"), seed=1, count=40):
            assert con.evaluate(point) == 0

    def test_draw_point_solves_a_linear_root_exactly(self):
        # alpha*gamma - beta*delta = 0 solved for alpha at the drawn beta,
        # delta and gamma; gamma must not vanish
        con = p("alpha*gamma - beta*delta")
        roots = [("alpha", IntegerKernel(T, [con.coefficient_of("alpha", k) for k in (0, 1)]))]
        side = IntegerKernel(T, [p("gamma"), con])
        pool = ["beta", "delta", "gamma"]
        for seed in range(40):
            ref = random.Random(seed)
            drawn = {name: draw_rational(ref) for name in pool}
            got = draw_point(random.Random(seed), pool, roots, side, 1)
            if drawn["gamma"]:
                nums, scale = got
                values = point_values(nums, scale)
                assert values == {**drawn, "alpha": drawn["beta"] * drawn["delta"] / drawn["gamma"]}
                assert type(values["alpha"]) is Fraction
                assert scale > 0 and nums == {name: v * scale for name, v in values.items()}
            else:
                assert got is None

    def test_point_values_inverts_integer_point(self):
        values = {"alpha": Fraction(1, 2), "beta": Surd(Fraction(0), Fraction(-1, 3), 14), "gamma": Fraction(-2)}
        got = point_values(*integer_point(values))
        assert got == values and list(got) == list(values)
        assert [type(v) for v in got.values()] == [Fraction, Surd, Fraction]

    def test_sampled_points_are_plain_dicts_of_their_draws(self):
        fam = custom_family(G5_ON_A_CIRCLE)
        points = sample_parameters(fam, seed=2, count=10)
        assert all(type(pt) is dict for pt in points)
        assert points == [point_values(*form) for form in algebras.sample_scaled(fam, 2, 10)]

    def test_reproducible(self):
        a = sample_parameters(build_family("g6"), seed=9, count=15)
        b = sample_parameters(build_family("g6"), seed=9, count=15)
        assert a == b
        c = sample_parameters(build_family("g6"), seed=10, count=15)
        assert a != c

    def test_g7_covers_both_branches(self):
        points = sample_parameters(build_family("g7"), seed=3, count=60)
        assert any(pt["alpha"] == 0 for pt in points)
        assert any(pt["gamma"] == 0 and pt["alpha"] != 0 for pt in points)
        for pt in points:
            assert pt["alpha"] * pt["gamma"] == 0
            assert pt["alpha"] + pt["delta"] != 0

    def test_surd_points_satisfy_both_constraints(self):
        # beta by the quadratic formula, delta by the linear root in beta's field
        points = sample_parameters(custom_family(G5_ON_A_CIRCLE), seed=2, count=10)
        assert any(isinstance(pt["beta"], Surd) for pt in points)
        for pt in points:
            assert pt["alpha"] ** 2 + pt["beta"] ** 2 == 4
            assert p("alpha*gamma + beta*delta").evaluate(pt) == 0
            assert pt["alpha"] + pt["delta"] != 0

    @pytest.mark.parametrize("text", [G5_ON_A_CIRCLE, SPLIT_READ_BY_QUADRATIC], ids=["quadratic-first", "split-first"])
    def test_listed_order_of_quadratics_does_not_matter(self, text):
        line = next(row for row in text.splitlines() if row.startswith("constraints = "))
        first, second = line[len("constraints = ") :].split("; ")
        fams = [custom_family(text), custom_family(text.replace(line, f"constraints = {second}; {first}"))]
        assert fams[1].equality_constraints == fams[0].equality_constraints[::-1]
        points = [sample_parameters(fam, seed=0, count=5) for fam in fams]
        assert points[0] == points[1]
        assert any(isinstance(v, Surd) for pt in points[0] for v in pt.values())
        for pt in points[0]:
            assert all(q.evaluate(pt) == 0 for q in fams[0].equality_constraints)

    def test_draw_needing_a_second_square_root_is_rejected(self, monkeypatch):
        verdicts = []

        def recording(values):
            verdicts.append(one_field(values))
            return verdicts[-1]

        monkeypatch.setattr(algebras, "one_field", recording)
        fam = custom_family(TWO_CIRCLES)
        points = sample_parameters(fam, seed=0, count=20)
        assert False in verdicts  # some draws put beta and delta in two fields
        for pt in points:
            assert one_field(pt.values())
            assert all(q.evaluate(pt) == 0 for q in fam.equality_constraints)
        assert any(isinstance(pt["beta"], Surd) and isinstance(pt["delta"], Surd) for pt in points)

    def test_constraint_without_linear_split_gives_surd_points(self):
        points = sample_parameters(custom_family(G5_ON_A_CIRCLE), seed=4, count=5)
        assert any(type(pt["beta"]) is Surd for pt in points)
        assert all(type(v) in (Fraction, Surd) for pt in points for v in pt.values())
        # the same algebra without the quadratic constraint samples rationals
        linear_only = G5_ON_A_CIRCLE.replace("alpha^2 + beta^2 - 4; ", "")
        rational = sample_parameters(custom_family(linear_only), seed=4, count=5)
        assert all(type(v) is Fraction for pt in rational for v in pt.values())

    @pytest.mark.parametrize(
        "constraint", ["alpha^3 - 2", "alpha^3 + beta^3 - 2", "alpha^3*beta^4 + 1"], ids=["one", "two", "product"]
    )
    def test_constraint_of_degree_above_two_is_a_sampling_error(self, constraint):
        fam = custom_family(f"bracket.13 = alpha, beta, 0\nconstraints = {constraint}\n")
        with pytest.raises(SamplingError, match="has degree above 2 in every variable"):
            sample_parameters(fam, seed=0, count=1)

    def test_constraint_of_solved_variables_is_only_checked(self):
        # alpha^2 - 1 has no variable left once alpha - 1 has solved for alpha
        fam = custom_family("bracket.13 = alpha, beta, 0\nconstraints = alpha - 1; alpha^2 - 1\n")
        assert all(pt["alpha"] == 1 for pt in sample_parameters(fam, seed=0, count=5))
        never = custom_family("bracket.13 = alpha, beta, 0\nconstraints = alpha - 1; alpha - 2\n")
        with pytest.raises(SamplingError, match="no draw of custom meets its side conditions"):
            sample_parameters(never, seed=0, count=1)

    @pytest.mark.parametrize("text", [SHARED_LINEAR_TARGET, TARGETS_READ_BOTH_WAYS], ids=["shared", "read-both-ways"])
    def test_every_point_satisfies_every_constraint(self, text):
        fam = custom_family(text)
        points = sample_parameters(fam, seed=0, count=20)
        assert len(points) == 20
        for pt in points:
            assert all(q.evaluate(pt) == 0 for q in fam.equality_constraints)

    @pytest.mark.parametrize("fam", list(all_families()), ids=lambda f: f.describe())
    def test_catalogued_points_satisfy_constraints_exactly(self, fam):
        for pt in sample_parameters(fam, seed=0, count=200):
            assert all(q.evaluate(pt) == 0 for q in fam.equality_constraints)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_parameters(build_family("g1"), seed=0, count=0)

    def test_constraint_coefficients_derived_once_per_call(self, monkeypatch):
        # the split constraint = a*var + b is found once per call, not per draw
        calls = []
        original = Polynomial.coefficient_of

        def counting(self, var, power):
            calls.append((var, power))
            return original(self, var, power)

        monkeypatch.setattr(Polynomial, "coefficient_of", counting)
        sample_parameters(build_family("g5"), seed=0, count=1)
        per_call = len(calls)
        sample_parameters(build_family("g5"), seed=0, count=60)
        assert per_call > 0
        assert len(calls) == 2 * per_call


def reference_sample(fam, seed, count):
    """Exact-mode sampling with the split coefficients and the nonvanishing
    polynomials evaluated by Polynomial.evaluate; also counts the split
    outcomes.  A constraint linear in no variable is solved for its last
    quadratic one by the quadratic formula, the root's sign drawn."""
    rng = random.Random(seed)
    splits = []
    for con in fam.equality_constraints:
        linear = [n for n in T.names if con.degree_in(n) == 1 and n not in con.coefficient_of(n, 1).variables()]
        var = linear[-1] if linear else [n for n in T.names if con.degree_in(n) == 2][-1]
        splits.append((var, [con.coefficient_of(var, k) for k in range(2 if linear else 3)]))
    solved = {var for var, _ in splits}
    points, outcomes = [], Counter()
    while len(points) < count:
        values = {n: draw_rational(rng) for n in fam.parameters if n not in solved}
        ok = True
        for var, coefficients in splits:
            c = [q.evaluate(values) for q in coefficients]
            if len(c) == 3:
                root = exact_sqrt(c[1] * c[1] - 4 * c[2] * c[0])
                if root is None:
                    outcome, ok = "reject", False
                else:
                    outcome, values[var] = "root", (-c[1] + (root if rng.random() < 0.5 else -root)) / (2 * c[2])
            elif c[1] != 0:
                outcome, values[var] = "root", -c[0] / c[1]
            elif c[0] == 0:
                outcome, values[var] = "free", draw_rational(rng)
            else:
                outcome, ok = "reject", False
            outcomes[outcome] += 1
            if not ok:
                break
        if ok and all(q.evaluate(values) != 0 for q in fam.nonvanishing):
            points.append(values)
    return points, outcomes


CIRCLE = custom_family((DATA / "circle.alg").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fam", list(all_families()) + [CIRCLE], ids=lambda f: f.describe())
def test_sampler_matches_evaluate_reference(fam, seed):
    got = sample_parameters(fam, seed=seed, count=200)
    expected, _ = reference_sample(fam, seed, 200)
    assert [pt for pt in got] == expected
    assert [{k: type(v) for k, v in pt.items()} for pt in got] == [
        {k: type(v) for k, v in e.items()} for e in expected
    ]


def test_the_circle_reference_draws_surds():
    # the circle's quadratic has an irrational root at most draws, and the
    # linear split then divides by it
    points, outcomes = reference_sample(CIRCLE, 0, 200)
    assert outcomes["root"] and any(type(pt["beta"]) is Surd for pt in points)
    assert any(type(pt["delta"]) is Surd for pt in points)


def test_draw_rational_keeps_the_draw_sequence():
    # numerator from -3..3 first, then denominator from 1..3, one draw each
    rng, ref = random.Random(5), random.Random(5)
    draws = [draw_rational(rng) for _ in range(2000)]
    assert draws == [Fraction(ref.choice(range(-3, 4)), ref.choice((1, 2, 3))) for _ in range(2000)]
    assert rng.getstate() == ref.getstate()
    assert all(type(v) is Fraction for v in draws)


def test_sampler_reference_reaches_every_split_outcome():
    outcomes = {
        fid: sum((reference_sample(build_family(fid), seed, 200)[1] for seed in range(3)), Counter())
        for fid in ("g5", "g6", "g7")
    }
    assert all(outcomes[fid]["root"] for fid in outcomes)
    assert outcomes["g7"]["free"]  # alpha = 0 leaves gamma free
    assert outcomes["g5"]["reject"]  # beta = 0 with alpha*gamma != 0


class TestCustomFiles:
    def test_roundtrip_brackets(self):
        fam = custom_family(
            """
            # three-parameter toy table
            bracket.12 = 0, 0, -gamma
            bracket.13 = 0, -beta, 0
            bracket.23 = alpha, 0, 0
            nonvanishing = alpha
            """
        )
        g3 = build_family("g3")
        assert fam.structure == g3.structure
        assert fam.parameters == ("alpha", "beta", "gamma")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            custom_family("bracket.12 alpha, 0, 0")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            custom_family("bracket.12 = alpha, 0")

    @pytest.mark.parametrize(
        "text, key, name",
        [
            ("bracket.12 = 0, 0, c", "bracket.12", "c"),
            ("bracket.13 = 0, alpha*lambda0, 0", "bracket.13", "lambda0"),
            ("bracket.23 = 1, 0, 0\nconstraints = alpha; beta - c", "constraints", "c"),
            ("bracket.23 = 1, 0, 0\nnonvanishing = lambda0 + c", "nonvanishing", "lambda0"),
        ],
    )
    def test_soliton_unknowns_are_reserved(self, text, key, name):
        with pytest.raises(ValueError, match=f"^{key}: {name} is reserved for the soliton unknowns$"):
            custom_family(text)

    def test_reserved_file_is_rejected(self):
        with pytest.raises(ValueError, match="^bracket.12: c is reserved"):
            algebras.load_family(f"custom:{DATA / 'reserved.alg'}")
