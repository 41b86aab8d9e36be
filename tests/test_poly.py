"""Tests for the exact polynomial ring, its parser, and its invariants."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieschouten.poly import (
    DEFAULT_TABLE,
    IntegerKernel,
    ParseError,
    Polynomial,
    PolynomialError,
    VariableTable,
    groebner_basis,
    parse_polynomial,
)

T = DEFAULT_TABLE


def p(text: str) -> Polynomial:
    return parse_polynomial(text, T)


class TestArithmetic:
    def test_add_doubles(self):
        assert p("1/2*beta^2") + p("1/2*beta^2") == p("beta^2")

    def test_add_identity(self):
        q = p("alpha^2 - 3/7*gamma + 2")
        assert q + T.zero == q

    def test_add_cancellation(self):
        # hand expansion: (alpha^2 - alpha*beta) + alpha*beta = alpha^2
        assert p("alpha^2 - alpha*beta") + p("alpha*beta") == p("alpha^2")

    def test_mul_difference_of_squares(self):
        assert p("(alpha+beta)*(alpha-beta)") == p("alpha^2 - beta^2")

    def test_mul_identity(self):
        q = p("alpha*beta - 5*delta^3")
        assert q * T.one == q

    def test_mul_then_substitute_eta(self):
        # (2*eta - beta)*(2*eta + alpha) = 4*eta^2 + 2*alpha*eta - 2*beta*eta
        # - alpha*beta; at eta=1 this is 4 + 2*alpha - 2*beta - alpha*beta.
        q = p("(2*eta-beta)*(2*eta+alpha)").substitute("eta", T.one)
        assert q == p("4 + 2*alpha - 2*beta - alpha*beta")

    def test_mismatched_tables_error(self):
        other = VariableTable(("x", "y"))
        with pytest.raises(PolynomialError):
            p("alpha") + other.var("x")
        with pytest.raises(PolynomialError):
            p("alpha") * other.var("y")

    def test_pow(self):
        assert p("alpha+1") ** 3 == p("alpha^3 + 3*alpha^2 + 3*alpha + 1")
        assert p("alpha") ** 0 == T.one

    def test_scalar_coercion(self):
        assert 2 * p("alpha") - 1 == p("2*alpha - 1")
        assert Fraction(1, 2) * p("beta^2") == p("1/2*beta^2")


class TestConstructor:
    def test_wrong_length_monomial_is_rejected(self):
        with pytest.raises(PolynomialError):
            Polynomial(T, {(1, 0): Fraction(1)})
        with pytest.raises(PolynomialError):
            Polynomial(T, {(0,) * len(T): Fraction(1), (0,) * (len(T) + 1): Fraction(2)})

    def test_zero_coefficients_are_dropped(self):
        one, alpha = (0,) * len(T), p("alpha").leading_monomial()
        q = Polynomial(T, {one: Fraction(0), alpha: Fraction(3, 2)})
        assert q.terms == {alpha: Fraction(3, 2)}
        assert Polynomial(T, {one: 0, alpha: Fraction(0)}).is_zero

    def test_int_coefficients_become_fractions(self):
        q = Polynomial(T, {p("beta").leading_monomial(): 2})
        assert q == p("2*beta")
        assert all(type(c) is Fraction for c in q.terms.values())


class TestHash:
    # equal objects must hash alike, so a constant and its scalar value are
    # interchangeable as set members and dict keys
    @pytest.mark.parametrize("value", [3, 0, -1, Fraction(5, 7)])
    def test_constant_hashes_like_its_value(self, value):
        const = T.const(value)  # T.const(0) is the zero polynomial
        assert const == value
        assert hash(const) == hash(value)
        assert len({const, value}) == 1
        assert {const: "x"}.get(value) == "x"

    def test_equal_polynomials_hash_alike(self):
        assert hash(p("alpha*beta + 1/2")) == hash(p("1/2 + beta*alpha"))


class TestEvaluate:
    def test_direct_arithmetic(self):
        assert p("3/2*beta^2").evaluate({"beta": 2}) == 6

    def test_scalar_curvature_sample(self):
        # -2*(alpha^2 + 1/2*beta^2) at alpha=1, beta=0 is -2
        q = p("-2*(alpha^2 + 1/2*beta^2)")
        assert q.evaluate({"alpha": 1, "beta": 0}) == -2

    def test_system_line_at_solution(self):
        # 3/2*alpha*beta^2*lambda0 + alpha*(3/2*beta^2 + c) vanishes at
        # alpha=1, beta=0, c=0 for any lambda0.
        q = p("3/2*alpha*beta^2*lambda0 + alpha*(3/2*beta^2 + c)")
        assert q.evaluate({"alpha": 1, "beta": 0, "c": 0, "lambda0": 7}) == 0

    def test_unassigned_variable(self):
        with pytest.raises(PolynomialError):
            p("alpha*beta").evaluate({"alpha": 1})

    def test_float_values_give_float(self):
        v = p("alpha^2 + 1").evaluate({"alpha": 0.5})
        assert isinstance(v, float) and abs(v - 1.25) < 1e-15

    def test_exact_rational_point(self):
        v = p("alpha^2 - beta").evaluate({"alpha": Fraction(1, 3), "beta": Fraction(1, 9)})
        assert v == 0


class TestSubstitute:
    def test_forced_cancellation(self):
        q = p("beta - eta").substitute("beta", T.var("eta")).substitute("eta", T.one)
        assert q.is_zero

    def test_gamma_equals_alpha_plus_beta(self):
        q = p("gamma*(alpha+beta-gamma)").substitute("gamma", p("alpha+beta"))
        assert q.is_zero

    def test_delta_equals_half_alpha(self):
        q = p("(alpha+delta)*(2*delta-alpha)").substitute("delta", p("1/2*alpha"))
        assert q.is_zero

    def test_substitute_by_constant(self):
        q = p("eta^2 + eta").substitute("eta", -1)
        assert q == T.zero


class TestReduceSquare:
    def test_generator_maps_to_zero(self):
        q = p("alpha^2 - gamma^2 - delta^2 + beta^2")
        assert q.reduce_square("alpha", p("gamma^2 + delta^2 - beta^2")).is_zero

    def test_repeated_rewrite(self):
        assert p("alpha^3").reduce_square("alpha", T.one) == p("alpha")
        assert p("alpha^4").reduce_square("alpha", T.one) == T.one

    def test_rhs_must_not_contain_var(self):
        with pytest.raises(PolynomialError):
            p("alpha^2").reduce_square("alpha", p("alpha"))

    def test_result_degree_bound(self):
        q = p("(alpha^2 + alpha + 1)*(beta + alpha^3)")
        r = q.reduce_square("alpha", p("beta - 1"))
        assert r.degree_in("alpha") <= 1

    def test_ideal_membership_numerically(self):
        # p - reduce(p) must vanish whenever alpha = +/- sqrt(rhs); checked
        # by float sampling at 100 constrained points
        import random

        q = p("alpha^4*beta - 2*alpha^3 + alpha*gamma + 5")
        rhs = p("beta^2 + 1")
        r = q.reduce_square("alpha", rhs)
        rng = random.Random(17)
        for _ in range(100):
            point = {
                "beta": rng.uniform(-3, 3),
                "gamma": rng.uniform(-3, 3),
            }
            root = rng.choice((1, -1)) * float(rhs.evaluate(point)) ** 0.5
            full = dict(point, alpha=root)
            assert abs(q.evaluate(full) - r.evaluate(full)) < 1e-9


def _divisible(m, pivot):
    return all(e >= pe for e, pe in zip(m, pivot))


class TestReduceByRelation:
    def test_multiples_of_the_relation_reduce_to_zero(self):
        rel = p("alpha*gamma - beta*delta + 2")
        for h in ("1", "alpha", "beta^2 - 3/2*gamma", "alpha*delta + 7", "c^3*alpha"):
            assert (p(h) * rel).reduce_by_relation(rel).is_zero

    def test_no_surviving_monomial_is_divisible_by_the_pivot(self):
        rel = p("alpha*gamma - beta*delta")
        q = p("alpha^2*gamma^2 + beta^2*delta^2*gamma + alpha*gamma*delta - 3")
        for pivot in rel.terms:  # both orientations of the two-term relation
            r = q.reduce_by_relation(rel, pivot=pivot)
            assert not any(_divisible(m, pivot) for m in r.terms)
            # the difference is a multiple of the relation
            assert (q - r).reduce_by_relation(rel).is_zero

    def test_pivot_outside_the_relation_raises(self):
        alpha_squared = p("alpha^2").leading_monomial()
        with pytest.raises(PolynomialError):
            p("alpha^3").reduce_by_relation(p("alpha*beta - 1"), pivot=alpha_squared)

    def test_zero_relation_leaves_the_input(self):
        q = p("alpha*beta - 1")
        assert q.reduce_by_relation(T.zero) == q


class TestIdealMembership:
    RELATIONS = ("alpha^2 - beta", "alpha*beta - 1")

    def relations(self):
        return [p(t) for t in self.RELATIONS]

    def test_s_polynomial_member_reduces_to_zero(self):
        # alpha - beta^2 = beta*(alpha^2 - beta) - alpha*(alpha*beta - 1) lies
        # in the ideal, but neither leading monomial divides any of its terms
        rels = self.relations()
        for text in ("alpha - beta^2", "gamma*(alpha - beta^2)"):
            assert p(text).normal_form(rels) == p(text)
            assert p(text).reduce_by_relations(rels).is_zero
            assert p(text).reduce_by_relations(reversed(rels)).is_zero

    def test_non_member_survives(self):
        assert p("alpha").reduce_by_relations(self.relations()) == p("alpha")
        assert not p("beta - 1").reduce_by_relations(self.relations()).is_zero

    def test_basis_contains_the_relations_and_generates_the_ideal(self):
        rels = self.relations()
        basis = groebner_basis(rels)
        assert basis[: len(rels)] == rels
        assert all(g.reduce_by_relations(rels).is_zero for g in basis)

    def test_basis_is_minimal(self):
        # Buchberger adds four S-polynomial remainders here; the leading
        # monomials beta and gamma divide those of five of the seven elements
        rels = [
            p("alpha*beta + 2*alpha"),
            p("3/2*alpha*delta + 2"),
            p("-3*alpha*beta - 2*alpha*gamma + 2*beta^2 + 2"),
        ]
        basis = groebner_basis(rels)
        assert sorted(g.leading_monomial() for g in basis) == sorted(
            p(t).leading_monomial() for t in ("alpha*delta", "beta", "gamma")
        )
        assert all(r.normal_form(basis).is_zero for r in rels)

    def test_equal_leading_monomials_keep_one(self):
        basis = groebner_basis([p("alpha - beta"), p("2*alpha - 2*beta")])
        assert basis == [p("alpha - beta")]

    def test_unit_ideal_and_no_relations(self):
        q = p("alpha^3*beta - gamma + 1/2")
        assert q.reduce_by_relations([p("alpha - 1"), p("alpha - 2")]).is_zero
        assert q.reduce_by_relations([]) == q
        assert q.reduce_by_relations([T.zero]) == q


class TestParser:
    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            p("alpha*e + 0")

    def test_literal(self):
        assert p("1/2*beta^2").terms == {
            (0, 2, 0, 0, 0, 0, 0): Fraction(1, 2)
        }

    def test_negated_group(self):
        q = p("-(alpha^2 + 1/2*beta*gamma)")
        assert q == -(p("alpha^2") + p("1/2*beta*gamma"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            p("alpha + * beta")
        assert exc.value.position == 8

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            p("3/0")

    def test_greek_aliases(self):
        assert p("α*β + λ0") == p("alpha*beta + lambda0")
        assert p("λ₀") == p("lambda0")

    def test_unary_minus_binds_factor(self):
        assert p("-alpha^2") == -p("alpha^2")
        assert p("1 - -alpha") == p("1 + alpha")

    def test_rational_power(self):
        assert p("2^3") == T.const(8)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            p("alpha beta")


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1/2*beta^2",
            "-alpha^2 - 1/2*beta*gamma",
            "alpha*beta^2 - 3/2*gamma + 7",
            "2*alpha^2 + 1/2*beta^2 - c + lambda0",
            "eta^4 - eta",
        ],
    )
    def test_parse_print_roundtrip(self, text):
        q = p(text)
        assert parse_polynomial(str(q), T) == q

    def test_deterministic_order(self):
        assert str(p("beta + alpha + gamma^2")) == "gamma^2 + alpha + beta"


# -- randomized ring and homomorphism properties -----------------------------

_small_table = VariableTable(("alpha", "beta", "gamma", "delta"))


@st.composite
def polynomials(draw, max_degree=3, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(4))
        if sum(mono) > max_degree:
            continue
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 3))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
    return Polynomial(_small_table, terms)


@st.composite
def points(draw):
    return {
        name: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        for name in _small_table.names
    }


@settings(max_examples=1000, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# A naive dict-of-Fraction reference: accumulate from Fraction(0), drop the
# zeros at the end.  Keys keep the order of their first occurrence, which is
# the order float evaluation sums the terms in.


def _ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _ref_pow(a, n):
    out = {(0,) * len(_small_table): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _assert_canonical(got, expected):
    assert got.table == _small_table
    assert list(got.terms.items()) == list(expected.items())
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert all(len(m) == len(_small_table) for m in got.terms)


@st.composite
def overlapping(draw, a):
    """A polynomial on a's monomials that cancels some of a's terms exactly
    and others partly, plus a few fresh terms."""
    terms = {m: draw(st.sampled_from((-c, -c, -2 * c, c / 3))) for m, c in a.terms.items()}
    for m, c in draw(polynomials(max_terms=2)).terms.items():
        terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(_small_table, terms)


_scalars = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)


@settings(max_examples=400, deadline=None)
@given(a=polynomials(), data=st.data(), k=_scalars, n=st.integers(0, 3))
def test_ring_operations_match_dict_reference(a, data, k, n):
    b = data.draw(st.one_of(polynomials(), overlapping(a)))
    A, B = a.terms, b.terms
    scalar = {(0,) * len(_small_table): Fraction(k)} if k else {}
    cases = [
        (a + b, _ref_add(A, B)),
        (a - b, _ref_add(A, B, -1)),
        (-a, _ref_add({}, A, -1)),
        (a * b, _ref_mul(A, B)),
        (a**n, _ref_pow(A, n)),
        (a * k, _ref_mul(A, scalar)),
        (k * a, _ref_mul(A, scalar)),
        (a * 0, {}),
        (Fraction(0) * a, {}),
        (a + k, _ref_add(A, scalar)),
        (k - a, _ref_add(_ref_add({}, A, -1), scalar)),
        # cancellation-heavy: whole and partial
        (a * b - b * a, {}),
        (a + (-a), {}),
        (a - a, {}),
        ((a + b) - a, _ref_add(_ref_add(A, B), A, -1)),
        ((a + b) * (a - b), _ref_mul(_ref_add(A, B), _ref_add(A, B, -1))),
    ]
    for got, expected in cases:
        _assert_canonical(got, expected)


def _assert_normalised(q):
    """Integer numerators over a positive denominator, in lowest terms."""
    assert type(q._den) is int and q._den > 0
    assert all(type(n) is int and n != 0 for n in q._num.values())
    assert gcd(q._den, *q._num.values()) == 1


@settings(max_examples=400, deadline=None)
@given(a=polynomials(), data=st.data(), k=_scalars, n=st.integers(0, 3), d=st.integers(1, 6))
def test_ring_results_are_normalised_and_equal_values_are_equal(a, data, k, n, d):
    # test_ring_operations_match_dict_reference checks the terms view of the
    # same results against the dict reference, in order
    b = data.draw(st.one_of(polynomials(), overlapping(a)))
    results = (a + b, a - b, -a, a * b, a**n, a * k, k - a, (a + b) - a, a.substitute("beta", b))
    for q in results + (a.coefficient_of("alpha", 1), a.project_to(_small_table)):
        _assert_normalised(q)
    # the same value built another way has the same storage and hash
    part = a * Fraction(1, d)
    for same in (sum([part] * d, _small_table.zero), part * d, (a * d) * Fraction(1, d), a + b - b):
        _assert_normalised(same)
        assert same == a and hash(same) == hash(a)
        assert (same._den, same._num) == (a._den, a._num)


def test_equal_values_built_differently_share_storage_and_hash():
    x = T.var("alpha")
    for same in (x * Fraction(1, 2) + x * Fraction(1, 2), (x * Fraction(1, 3)) * 3, p("2/4*alpha") * 2):
        assert same == x and hash(same) == hash(x) and (same._den, same._num) == (1, x._num)
    third = T.one * Fraction(1, 3)
    assert third + third + third == 1 and hash(third * 3) == hash(1)
    assert hash(third) == hash(Fraction(1, 3)) and (T.zero._den, T.zero._num) == (1, {})
    assert (x - x)._den == 1 and (x * Fraction(1, 3) - x * Fraction(1, 3))._den == 1


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), polynomials(), points())
def test_eval_is_ring_homomorphism(a, b, c, pt):
    assert (a * b + c).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) + c.evaluate(pt)


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), points())
def test_substitute_then_eval_composes(a, q, pt):
    direct = a.substitute("beta", q).evaluate(pt)
    composed = dict(pt)
    composed["beta"] = q.evaluate(pt)
    assert direct == a.evaluate(composed)


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_parse_print_random(a):
    assert parse_polynomial(str(a), _small_table) == a


def _reference_str(a):
    """The printed form spelled with Fraction arithmetic: abs(c) and str(Fraction)."""
    pieces = []
    for n, (m, c) in enumerate(sorted(a.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(a.table.names, m) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        if n == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


@settings(max_examples=300, deadline=None)
@given(polynomials(), st.sampled_from((1, -1, 7, Fraction(-1, 12), Fraction(10**12 + 1, 3))))
def test_print_matches_fraction_spelling(a, k):
    assert str(a * k) == _reference_str(a * k)


# -- the compiled integer form against Polynomial.evaluate --------------------


@st.composite
def univariate(draw, i):
    """A polynomial in the i-th variable of the small table alone."""
    terms = {}
    for e in draw(st.lists(st.integers(0, 3), max_size=3)):
        mono = tuple(e if j == i else 0 for j in range(len(_small_table)))
        terms[mono] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
    return Polynomial(_small_table, terms)


@st.composite
def batches(draw):
    """0-5 polynomials: general ones, the zero polynomial and constants, or
    each on its own variable."""
    if draw(st.booleans()):
        indices = draw(st.lists(st.integers(0, len(_small_table) - 1), unique=True, max_size=4))
        return [draw(univariate(i)) for i in indices]
    member = st.one_of(polynomials(), st.just(_small_table.zero), polynomials(max_degree=0))
    return draw(st.lists(member, max_size=5))


_kernel_values = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=500, deadline=None)
@given(batches(), st.fixed_dictionaries({name: _kernel_values for name in _small_table.names}), st.data())
def test_integer_kernel_matches_evaluate(batch, point, data):
    ref = [q.evaluate(point) for q in batch]
    out = IntegerKernel(_small_table, batch)(point)
    assert len(out) == len(batch) and all(type(v) is int for v in out)
    assert [v == 0 for v in out] == [r == 0 for r in ref]
    assert [v > 0 for v in out] == [r > 0 for r in ref]
    for (oi, ri), (oj, rj) in itertools.combinations(zip(out, ref), 2):
        assert oi * rj == oj * ri
    # beside the constant 1, each value is its reference times one factor
    *scaled, factor = IntegerKernel(_small_table, batch + [_small_table.one])(point)
    assert factor > 0 and scaled == [r * factor for r in ref]
    used = sorted(set().union(*(q.variables() for q in batch)))
    if used:
        missing = data.draw(st.sampled_from(used))
        partial = {k: v for k, v in point.items() if k != missing}
        with pytest.raises(PolynomialError, match=missing):
            IntegerKernel(_small_table, batch)(partial)


def test_integer_kernel_ignores_unused_and_needs_used_variables():
    kernel = IntegerKernel(T, [p("alpha^2 - 1/2*beta"), p("3"), T.zero])
    # one factor: coefficient lcm 2 times (value lcm 2) ** (degree 2) = 8
    assert kernel({"alpha": Fraction(1, 2), "beta": 1, "c": Fraction(7, 3)}) == [-2, 24, 0]
    with pytest.raises(PolynomialError, match="beta"):
        kernel({"alpha": 1})
    assert IntegerKernel(T, [])({}) == []


# -- sympy as an independent oracle (test-only dependency) --------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _symbols(sympy):
    return sympy.symbols(_small_table.names)


def to_sympy(sympy, q):
    gens = _symbols(sympy)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(gens, m)))
            for m, c in q.terms.items()
        )
    )


def from_sympy(sympy, expr):
    poly = sympy.Poly(expr, *_symbols(sympy), domain="QQ")
    return Polynomial(_small_table, {m: Fraction(str(c)) for m, c in poly.terms()})


_LINEAR_AND_QUADRATIC = tuple(m for m in itertools.product(range(3), repeat=4) if 0 < sum(m) <= 2)


@st.composite
def relations(draw):
    """Up to three nonconstant monomials of degree <= 2 plus a constant; the
    leading monomials of such relations overlap often enough that about a
    third of the drawn sets need S-polynomials."""
    monomials = draw(st.lists(st.sampled_from(_LINEAR_AND_QUADRATIC), min_size=1, max_size=3, unique=True))
    terms = {
        m: Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3))) for m in monomials
    }
    terms[(0, 0, 0, 0)] = Fraction(draw(st.integers(-3, 3)))
    return Polynomial(_small_table, terms)


@settings(max_examples=150, deadline=None)
@given(
    rels=st.lists(relations(), min_size=1, max_size=3),
    multipliers=st.lists(polynomials(max_degree=2, max_terms=3), min_size=3, max_size=3),
    q=polynomials(),
)
def test_normal_form_matches_sympy_groebner(sympy, rels, multipliers, q):
    basis = sympy.groebner([to_sympy(sympy, r) for r in rels], *_symbols(sympy), order="grlex", domain="QQ")
    expected = from_sympy(sympy, basis.reduce(to_sympy(sympy, q))[1])
    assert q.reduce_by_relations(rels) == expected
    member = sum((h * r for h, r in zip(multipliers, rels)), _small_table.zero)
    assert member.reduce_by_relations(rels).is_zero
    assert (q + member).reduce_by_relations(rels) == expected


@settings(max_examples=150, deadline=None)
@given(rels=st.lists(relations(), min_size=1, max_size=3))
def test_groebner_basis_leading_monomials_match_sympy(sympy, rels):
    gens = _symbols(sympy)
    reduced = sympy.groebner([to_sympy(sympy, r) for r in rels], *gens, order="grlex", domain="QQ")
    expected = {sympy.Poly(g, *gens, domain="QQ").monoms(order="grlex")[0] for g in reduced.exprs}
    leads = [g.leading_monomial() for g in groebner_basis(rels)]
    assert len(set(leads)) == len(leads)
    assert set(leads) == expected


@settings(max_examples=150, deadline=None)
@given(q=polynomials(), rhs=polynomials(max_degree=3), var=st.sampled_from(_small_table.names))
def test_reduce_square_matches_sympy_division(sympy, q, rhs, var):
    rhs = rhs.substitute(var, _small_table.zero)
    x = _symbols(sympy)[_small_table.index(var)]
    expected = sympy.rem(to_sympy(sympy, q), x**2 - to_sympy(sympy, rhs), x)
    assert q.reduce_square(var, rhs) == from_sympy(sympy, expected)


@settings(max_examples=150, deadline=None)
@given(a=polynomials(), b=polynomials(), var=st.sampled_from(_small_table.names))
def test_mul_and_substitute_match_sympy(sympy, a, b, var):
    x = _symbols(sympy)[_small_table.index(var)]
    sa, sb = to_sympy(sympy, a), to_sympy(sympy, b)
    assert a * b == from_sympy(sympy, sympy.expand(sa * sb))
    assert a.substitute(var, b) == from_sympy(sympy, sympy.expand(sa.subs(x, sb)))


@settings(max_examples=150, deadline=None)
@given(q=polynomials())
def test_parse_print_roundtrip_through_sympy(sympy, q):
    names = dict(zip(_small_table.names, _symbols(sympy)))
    printed = sympy.sympify(str(q).replace("^", "**"), locals=names)
    assert sympy.expand(printed - to_sympy(sympy, q)) == 0
    # sympy's own term list, written in this package's grammar, parses back
    monomials = sympy.Poly(to_sympy(sympy, q), *names.values(), domain="QQ").terms()
    text = " + ".join(
        "*".join([f"({c})"] + [f"{n}^{e}" for n, e in zip(names, m) if e]) for m, c in monomials
    )
    assert parse_polynomial(text or "0", _small_table) == q
