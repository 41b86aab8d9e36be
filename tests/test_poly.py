"""Tests for the exact polynomial ring, its parser, and its invariants."""

import itertools
from fractions import Fraction
from functools import partial
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
    Surd,
    VariableTable,
    _FIELD,
    _PIECE,
    _tokenize,
    exact_sqrt,
    groebner_basis,
    parse_polynomial,
    quotient,
    sum_of_products,
)
from poly_reference import ReferencePolynomial, integer_point, kernel_at
from tokenizer_reference import reference_tokens

T = DEFAULT_TABLE
# every exponent and every total degree stays below this
BOUND = 2 ** (_FIELD - 1)


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

    @pytest.mark.parametrize(
        "exponent", [-1, 1.0, Fraction(1), "1", None, BOUND, 2**64]
    )
    @pytest.mark.parametrize("coefficient", [2, 0])
    def test_impossible_exponents_are_rejected(self, exponent, coefficient):
        # a monomial with a negative exponent used to print as its coefficient
        # without being equal to it, and total_degree() returned -1
        with pytest.raises(PolynomialError):
            Polynomial(T, {(exponent,) + (0,) * (len(T) - 1): coefficient})

    def test_total_degree_bound(self):
        one = (0,) * len(T)
        assert Polynomial(T, {(BOUND // 2, BOUND // 2 - 1) + one[2:]: 1}).total_degree() == BOUND - 1
        with pytest.raises(PolynomialError):
            Polynomial(T, {(BOUND // 2, BOUND // 2) + one[2:]: 1})

    def test_power_at_the_bound(self):
        top = T.var("alpha") ** (BOUND - 1)
        assert top.leading_monomial() == (BOUND - 1,) + (0,) * (len(T) - 1)
        assert top.total_degree() == top.degree_in("alpha") == BOUND - 1
        assert str(top) == f"alpha^{BOUND - 1}"
        assert top == Polynomial(T, {top.leading_monomial(): 1})
        with pytest.raises(PolynomialError):
            T.var("alpha") ** BOUND
        with pytest.raises(PolynomialError):  # at once, not after squaring a long polynomial
            p("alpha + beta^2 + gamma - 1") ** (BOUND // 2)
        with pytest.raises(PolynomialError):
            top * T.var("c")
        with pytest.raises(PolynomialError):
            top.substitute("alpha", p("2*beta^2"))
        assert top.substitute("alpha", p("2*beta")) == 2 ** (BOUND - 1) * T.var("beta") ** (BOUND - 1)
        assert top * 3 - top == 2 * top

    def test_degree_bound_in_division_below_the_lead(self):
        # the pivot c^2 sits below the lead beta^3 of the relation, so each
        # rewrite of c^2 raises the degree by one until it passes the bound
        high = T.var("c") ** (BOUND - 2)
        relation = p("c^2 - beta^3")
        assert p("c^3").reduce_square("c", p("beta^3")) == p("beta^3*c")
        with pytest.raises(PolynomialError):
            high.reduce_by_relation(relation, pivot=p("c^2").leading_monomial())


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

    @pytest.mark.parametrize(
        "text, position",
        [
            ("2²", 1),  # str.isdigit accepts a superscript, int() does not
            ("alpha^²", 6),
            ("٣*alpha", 0),  # an Arabic-Indic digit is no number either
            ("2³/4", 1),
        ],
    )
    def test_non_ascii_digit_is_a_stray_character(self, text, position):
        with pytest.raises(ParseError) as exc:
            p(text)
        assert exc.value.position == position
        assert "unexpected character" in str(exc.value)

    @pytest.mark.parametrize(
        "text, position",
        [("", 0), ("alpha +", 7), ("(alpha", 6), ("alpha^", 6), ("3/  ", 4)],
    )
    def test_end_of_input_is_named(self, text, position):
        with pytest.raises(ParseError) as exc:
            p(text)
        assert exc.value.position == position
        assert "end of input" in str(exc.value)
        assert "None" not in str(exc.value)


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: T.var("alpha") * Fraction(1, 2**20000),
            lambda: parse_polynomial("1" * 5000 + "*alpha", T),
        ],
        ids=["6021-digit denominator", "5000-digit literal"],
    )
    def test_coefficients_past_the_int_str_digit_limit_print_and_parse(self, build):
        # both sides are past the 4300-digit default limit of int/str conversion
        q = build()
        assert parse_polynomial(str(q), T) == q
        assert repr(q) == f"Polynomial({q})"

    def test_long_literal_reads_in_decimal(self):
        q = parse_polynomial("1" * 5000 + "*alpha - 1/" + "9" * 4400, T)
        assert q.coefficient_of("alpha", 1) == T.const((10**5000 - 1) // 9)
        assert q.coefficient_of("alpha", 0) == T.const(Fraction(-1, 10**4400 - 1))
        assert str(q) == "1" * 5000 + "*alpha - 1/" + "9" * 4400

    @pytest.mark.parametrize(
        "n",
        [0, 7, 10**600 - 1, 10**600, 10**600 + 1, 10**1199, 3**20000, 10**9000 - 1],
        ids=["0", "7", "10^600-1", "10^600", "10^600+1", "10^1199", "3^20000", "10^9000-1"],
    )
    def test_decimal_pieces_join_to_the_decimal_spelling(self, n):
        q = T.const(n) * T.var("beta")
        text = str(q)
        assert text == ("0" if n == 0 else "beta" if n == 1 else f"{_spelled(n)}*beta")
        assert parse_polynomial(text, T) == q


def test_long_coefficients_under_the_least_digit_limit():
    # 640 is the least limit the interpreter accepts; it applies to its whole
    # process, so a child runs with it
    import os
    import subprocess
    import sys

    script = (
        "from fractions import Fraction\n"
        "from lieschouten.poly import DEFAULT_TABLE as T, IntegerKernel, parse_polynomial\n"
        "q = T.var('alpha') * (10**1000 + 7) - Fraction(1, 3**1500)\n"
        "assert parse_polynomial(str(q), T) == q\n"
        "value, scale = IntegerKernel(T, [q, T.one]).scaled({'alpha': 1}, 1)\n"
        "assert Fraction(value, scale) == q.evaluate({'alpha': 1})\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def _spelled(n: int) -> str:
    """The decimal digits of n >= 0 by repeated division, as a reference."""
    digits = []
    while True:
        n, d = divmod(n, 10)
        digits.append("0123456789"[d])
        if not n:
            return "".join(reversed(digits))


# -- the tokenizer against its character-by-character reference -------------

_token_pieces = st.sampled_from(
    ("alpha", "beta", "lambda0", "c", "_x1", "0", "7", "12", "+", "-", "*", "^", "(", ")", "/",
     " ", "\t", "\n", "α", "λ₀")
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(_token_pieces, st.characters(max_codepoint=127)), max_size=12).map("".join))
def test_tokenizer_matches_reference(text):
    """On the grammar's alphabet, whitespace and every other ASCII character,
    the regex tokenizer and the reference yield one token list, or both raise
    the same ParseError at one position."""

    def outcome(tokenize):
        try:
            return tokenize(text)
        except ParseError as err:
            return ("ParseError", err.position, str(err))

    assert outcome(_tokenize) == outcome(reference_tokens)


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


# -- packed monomials against the tuple-keyed reference -----------------------

# one variable, the default seven, and the default seven plus t0..t15
_TABLES = {len(t): t for t in (VariableTable(("x",)), T, T.extended(f"t{i}" for i in range(16)))}


@st.composite
def _monomial(draw, n, cap, positions=None):
    """An exponent tuple of total degree at most `cap` on up to four
    variables (of `positions`, if given), each exponent small, up to the
    cap, or the cap itself."""
    exps, left = [0] * n, cap
    for i in draw(st.lists(st.sampled_from(positions or range(n)), max_size=4)):
        e = min(left, draw(st.one_of(st.integers(0, 3), st.integers(0, cap), st.just(cap))))
        exps[i] += e
        left -= e
    return tuple(exps)


_coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _term_dicts(draw, n, cap=BOUND - 1, max_terms=5, stretch=1, coefficients=_coefficients, positions=None):
    """Up to `max_terms` terms; `stretch` multiplies every exponent."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(e * stretch for e in draw(_monomial(n, cap, positions)))
        terms[m] = terms.get(m, Fraction(0)) + draw(coefficients)
    return terms


# numerators and denominators on both sides of _PIECE, past which printing
# spells an integer in decimal pieces; all stay below the int/str digit limit
# that the reference's str(Fraction) meets
_print_coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.sampled_from((_PIECE - 1, _PIECE, -(_PIECE + 7), 3**1300))),
    st.one_of(st.integers(1, 12), st.sampled_from((_PIECE - 1, _PIECE + 1, 7**800))),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(sorted(_TABLES)),
    cap=st.sampled_from((3, BOUND - 1)),
    k=st.sampled_from((1, -1, 7, Fraction(-1, 12), Fraction(10**12 + 1, 3))),
    data=st.data(),
)
def test_print_matches_fraction_spelling(n, cap, k, data):
    a = Polynomial(_TABLES[n], data.draw(_term_dicts(n, cap=cap, coefficients=_print_coefficients))) * k
    assert str(a) == _reference_str(a)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tables_of_one_layout_print_their_own_names(data):
    # the same packed keys over T and over T's names reversed
    terms = data.draw(_term_dicts(len(T), cap=BOUND - 1))
    a, b = Polynomial(T, terms), Polynomial(VariableTable(reversed(T.names)), terms)
    assert a._num == b._num
    assert (str(a), str(b)) == (_reference_str(a), _reference_str(b))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equal_tables_built_apart_print_alike(data):
    names = ("x", "y", "z")
    first, second = VariableTable(names), VariableTable(names)
    assert first == second and first._text is not second._text
    terms = data.draw(_term_dicts(len(names)))
    texts = [str(Polynomial(table, terms)) for table in (first, second, first)]
    assert texts == [_reference_str(Polynomial(first, terms))] * 3


def _assert_same(got, ref):
    """The same terms in the same order, the same text and the same lead."""
    assert list(got.terms.items()) == list(ref.terms.items())
    assert str(got) == str(ref)
    if ref.terms:
        assert got.leading_monomial() == ref.leading_monomial()
    else:
        with pytest.raises(PolynomialError):
            got.leading_monomial()


def _both(table, terms):
    return Polynomial(table, terms), ReferencePolynomial(table, terms)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(sorted(_TABLES)), data=st.data())
def test_packed_ring_matches_tuple_reference(n, data):
    table = _TABLES[n]
    ta = data.draw(_term_dicts(n))
    # half the time on a's monomials, so that terms cancel
    cancelling = st.builds(lambda k: {m: -k * c for m, c in ta.items()}, st.sampled_from((1, 2)))
    tb = data.draw(st.one_of(_term_dicts(n), cancelling))
    (a, ra), (b, rb) = _both(table, ta), _both(table, tb)
    for got, ref in ((a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (b - a, rb - ra), (-a, -ra)):
        _assert_same(got, ref)
    for name in table.names:
        assert a.degree_in(name) == ra.degree_in(name)
    name = data.draw(st.sampled_from(table.names))
    for power in {0, data.draw(st.integers(0, 3)), *(m[table.index(name)] for m in ta)}:
        _assert_same(a.coefficient_of(name, power), ra.coefficient_of(name, power))
    if max(map(sum, ra.terms), default=0) + max(map(sum, rb.terms), default=0) < BOUND or a.is_zero or b.is_zero:
        _assert_same(a * b, ra * rb)
    else:
        with pytest.raises(PolynomialError):
            a * b


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(sorted(_TABLES)), data=st.data())
def test_packed_substitute_matches_tuple_reference(n, data):
    table = _TABLES[n]
    a, ra = _both(table, data.draw(_term_dicts(n)))
    name = data.draw(st.sampled_from(table.names))
    i = table.index(name)
    # a power of a one-term replacement stays one term, with a coefficient of
    # +-1 that prints at any power; a longer one only meets small powers
    if a.degree_in(name) <= 4:
        replacement = _term_dicts(n, cap=2, max_terms=3)
    else:
        replacement = _term_dicts(n, cap=2, max_terms=1, coefficients=st.sampled_from((1, -1)))
    r, rr = _both(table, data.draw(replacement))
    degree = r.total_degree()
    if not r.is_zero and any(sum(m) - m[i] + m[i] * degree >= BOUND for m in ra.terms):
        with pytest.raises(PolynomialError):
            a.substitute(name, r)
    else:
        _assert_same(a.substitute(name, r), ra.substitute(name, rr))


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from(sorted(_TABLES)),
    stretch=st.sampled_from((1, 2, 1000, (BOUND - 1) // 3)),
    data=st.data(),
)
def test_packed_normal_form_matches_tuple_reference(n, stretch, data):
    # exponents times one stretch keep divisibility and graded-lex order, so
    # the division takes the same steps up to degree BOUND - 1 as at degree 3;
    # all terms share two or three variables, so that they divide each other
    table = _TABLES[n]
    positions = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    terms = partial(_term_dicts, n, cap=3, stretch=stretch, positions=positions)
    f, rf = _both(table, data.draw(terms()))
    basis = [_both(table, data.draw(terms(max_terms=3))) for _ in range(data.draw(st.integers(1, 3)))]
    _assert_same(f.normal_form([g for g, _ in basis]), rf.normal_form([rg for _, rg in basis]))


# -- one accumulation against chained reference products ---------------------

# denominators up to 12, so the products' denominators differ and their lcm
# is more than any one of them
_mixed_coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


def _degree(ref):
    return max(map(sum, ref.terms), default=0)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(sorted(_TABLES)), cap=st.sampled_from((3, BOUND // 2, BOUND - 1)), data=st.data())
def test_sum_of_products_matches_chained_reference(n, cap, data):
    table = _TABLES[n]
    factors = _term_dicts(n, cap=cap, coefficients=_mixed_coefficients)
    triples = data.draw(st.lists(st.tuples(st.sampled_from((1, -1)), factors, factors), min_size=1, max_size=5))
    if data.draw(st.integers(0, 3)) == 0:
        # each product again, negated with its factors swapped: the sum is zero
        triples += [(-sign, tb, ta) for sign, ta, tb in triples]
    products, expected, past_bound = [], ReferencePolynomial(table, {}), []
    for sign, ta, tb in triples:
        (a, ra), (b, rb) = _both(table, ta), _both(table, tb)
        products.append((sign, a, b))
        if ra.terms and rb.terms and _degree(ra) + _degree(rb) >= BOUND:
            past_bound.append((a, b))
        elif sign > 0:
            expected = expected + ra * rb
        else:
            expected = expected - ra * rb
    if past_bound:
        with pytest.raises(PolynomialError):
            sum_of_products(table, products)
        a, b = past_bound[0]
        with pytest.raises(PolynomialError):
            a * b
        return
    got = sum_of_products(table, products)
    assert got.table is table
    assert dict(got.terms) == dict(expected.terms)
    assert str(got) == str(expected)
    _assert_normalised(got)
    if not expected.terms:
        assert (got._num, got._den) == ({}, 1)
        assert got == table.zero


def test_sum_of_products_of_nothing_and_of_zero_factors_is_zero():
    # a zero factor skips its product before the degree check, as `*` does
    high = Polynomial(T, {(BOUND - 1, 0, 0, 0, 0, 0, 0): Fraction(1, 3)})
    for products in ([], [(1, T.zero, high), (-1, high, T.zero)], [(1, p("alpha"), T.zero)]):
        got = sum_of_products(T, products)
        assert (got._num, got._den) == ({}, 1)
    assert sum_of_products(T, [(1, high, T.one), (-1, T.zero, high)]) == high
    with pytest.raises(PolynomialError):
        sum_of_products(T, [(1, high, p("beta"))])
    with pytest.raises(PolynomialError):
        sum_of_products(T, [(1, p("alpha"), parse_polynomial("x", VariableTable(("x",))))])


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
    out = kernel_at(IntegerKernel(_small_table, batch), point)
    assert len(out) == len(batch) and all(type(v) is int for v in out)
    assert [v == 0 for v in out] == [r == 0 for r in ref]
    assert [v > 0 for v in out] == [r > 0 for r in ref]
    for (oi, ri), (oj, rj) in itertools.combinations(zip(out, ref), 2):
        assert oi * rj == oj * ri
    # beside the constant 1, each value is its reference times one factor
    *scaled, factor = kernel_at(IntegerKernel(_small_table, batch + [_small_table.one]), point)
    assert factor > 0 and scaled == [r * factor for r in ref]
    used = sorted(set().union(*(q.variables() for q in batch)))
    if used:
        missing = data.draw(st.sampled_from(used))
        partial = {k: v for k, v in point.items() if k != missing}
        with pytest.raises(PolynomialError, match=missing):
            kernel_at(IntegerKernel(_small_table, batch), partial)


def test_integer_kernel_ignores_unused_and_needs_used_variables():
    kernel = IntegerKernel(T, [p("alpha^2 - 1/2*beta"), p("3"), T.zero])
    # one factor: coefficient lcm 2 times (value lcm 2) ** (degree 2) = 8
    assert kernel_at(kernel, {"alpha": Fraction(1, 2), "beta": 1, "c": Fraction(7, 3)}) == [-2, 24, 0]
    with pytest.raises(PolynomialError, match="beta"):
        kernel_at(kernel, {"alpha": 1})
    assert IntegerKernel(T, []).scaled({}, 1) == []


@settings(max_examples=300, deadline=None)
@given(
    batches(),
    st.fixed_dictionaries({name: _kernel_values for name in _small_table.names}),
    st.integers(1, 10**6),
    st.data(),
)
def test_integer_kernel_scaled_entry_takes_any_common_denominator(batch, point, k, data):
    # (n*k, L*k) is the same point as (n, L): the same zeros and signs, and
    # the same ratios, which is what lets one integer form serve many kernels
    kernel = IntegerKernel(_small_table, batch)
    nums, scale = integer_point(point)
    assert scale > 0 and all(type(n) is int and n == v * scale for n, v in zip(nums.values(), point.values()))
    ref = [q.evaluate(point) for q in batch]
    for out in (kernel.scaled(nums, scale), kernel.scaled({name: n * k for name, n in nums.items()}, scale * k)):
        assert [v == 0 for v in out] == [r == 0 for r in ref]
        assert [v > 0 for v in out] == [r > 0 for r in ref]
        for (oi, ri), (oj, rj) in itertools.combinations(zip(out, ref), 2):
            assert oi * rj == oj * ri
    used = sorted(set().union(*(q.variables() for q in batch)))
    if used:
        missing = data.draw(st.sampled_from(used))
        with pytest.raises(PolynomialError, match=f"unassigned variable {missing!r}"):
            kernel.scaled({name: n for name, n in nums.items() if name != missing}, scale)


@settings(max_examples=300, deadline=None)
@given(
    batches(),
    st.fixed_dictionaries({name: _kernel_values for name in _small_table.names}),
    st.integers(1, 10**6),
)
def test_integer_kernel_factor_turns_its_integers_into_the_values(batch, point, k):
    # F / (D*L**G) is each polynomial's value at the least L and at every
    # multiple of it, which are all the L that clear the denominators
    kernel = IntegerKernel(_small_table, batch)
    d, g = kernel.factor
    assert type(d) is int and d > 0 and type(g) is int and g >= 0
    nums, scale = integer_point(point)
    reference = [q.evaluate(point) for q in batch]
    for n, L in ((nums, scale), ({name: v * k for name, v in nums.items()}, scale * k)):
        assert [Fraction(f, d * L**g) for f in kernel.scaled(n, L)] == reference


def test_integer_point_of_surds_is_integer_surds():
    root = exact_sqrt(Fraction(3, 4))  # 1/2*sqrt(3)
    point = {"alpha": Fraction(1, 3) + root, "beta": Fraction(-5, 2)}
    nums, scale = integer_point(point)
    assert scale == 6 and nums == {"alpha": 2 + 3 * exact_sqrt(3), "beta": -15}
    polys = [p("alpha^2 - beta"), p("alpha*beta")]
    kernel = IntegerKernel(T, polys)
    d, g = kernel.factor
    assert [quotient(f, d * scale**g) for f in kernel.scaled(nums, scale)] == [q.evaluate(point) for q in polys]
    with pytest.raises(PolynomialError, match="unassigned variable 'beta'"):
        kernel.scaled({"alpha": nums["alpha"]}, scale)


def _scaled_reference(table, polys, point):
    """The kernel's integers beside the constant 1, and the evaluate values
    times the kernel's factor, which must be equal."""
    *scaled, factor = kernel_at(IntegerKernel(table, list(polys) + [table.one]), point)
    assert factor > 0
    return scaled, [q.evaluate(point) * factor for q in polys]


def test_integer_kernel_sums_thousands_of_terms():
    # every monomial of degree <= 8 in the seven default variables: 6435
    # terms, far past the length at which a flat `a + b + ...` chain
    # overflows the compiler's recursion limit
    monomials = [m for m in itertools.product(range(9), repeat=len(T)) if sum(m) <= 8]
    big = Polynomial(T, {m: Fraction(k % 13 - 6, 1 + k % 5) for k, m in enumerate(monomials)})
    assert len(big.terms) >= 5000
    point = dict(zip(T.names, [Fraction(1, 2), -2, Fraction(3, 7), 1, 0, Fraction(-5, 3), 4]))
    scaled, reference = _scaled_reference(T, [big, -big], point)
    assert scaled == reference


def test_integer_kernel_source_holds_no_variable_name():
    table = VariableTable(("lambda", "import", "x0", "f"))
    polys = [
        parse_polynomial("lambda^2*import - 3/2*x0*f + f^3 - 2", table),
        parse_polynomial("x0 - 1/3*lambda", table),
    ]
    kernel = IntegerKernel(table, polys)
    assert "lambda" not in kernel.source and "import" not in kernel.source
    point = {"lambda": Fraction(2, 3), "import": -1, "x0": 5, "f": Fraction(-1, 2)}
    scaled, reference = _scaled_reference(table, polys, point)
    assert scaled == reference


def test_integer_kernel_degenerate_lists():
    assert IntegerKernel(T, [T.zero]).scaled({}, 1) == [0]
    # constants only: coefficient denominator 6, no base to homogenise
    assert IntegerKernel(T, [p("3"), p("-1/2"), T.zero, p("1/3")]).scaled({"alpha": 7}, 1) == [18, -3, 0, 2]
    # a coefficient too long for a decimal literal under the int/str digit limit
    huge = Polynomial(T, {(1, 0, 0, 0, 0, 0, 0): 2**40000 + 1, (0,) * len(T): -1})
    assert IntegerKernel(T, [huge]).scaled({"alpha": 3}, 1) == [3 * (2**40000 + 1) - 1]


def test_integer_kernel_rejects_a_polynomial_over_another_table():
    # read over a table of another layout, alpha^2 + 3*beta at alpha=2,
    # beta=1 would come out 10 or 4, not 7; an equal table built apart is fine
    q = p("alpha^2 + 3*beta")
    assert IntegerKernel(T, [q]).scaled({"alpha": 2, "beta": 1}, 1) == [7]
    assert IntegerKernel(VariableTable(T.names), [q]).scaled({"alpha": 2, "beta": 1}, 1) == [7]
    for table in (T.extended(["x"]), VariableTable(reversed(T.names))):
        with pytest.raises(PolynomialError, match="mismatched variable tables"):
            IntegerKernel(table, [T.one, q])


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


# -- exact quadratic surds against sympy ----------------------------------------

_RADICANDS = (2, 3, 5, 6, 8, 12, 18, 50, 99, Fraction(1, 2), Fraction(9, 8), Fraction(35, 9), 2**45 * 3)
_PARTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def surd_to_sympy(sympy, x):
    def q(v):
        return sympy.Rational(v.numerator, v.denominator)

    return q(x.a) + q(x.b) * sympy.sqrt(x.d) if isinstance(x, Surd) else q(x)


def sympy_zero(sympy, expr):
    return sympy.expand(sympy.radsimp(expr)) == 0


def sign_of(x):
    return x.sign() if isinstance(x, Surd) else (x > 0) - (x < 0)


@settings(max_examples=150, deadline=None)
@given(
    radicand=st.sampled_from(_RADICANDS),
    parts=st.lists(_PARTS, min_size=4, max_size=4),
    op=st.sampled_from(["+", "-", "*", "/", "**"]),
    exponent=st.integers(-3, 4),
)
def test_surd_arithmetic_zero_test_and_sign_match_sympy(sympy, radicand, parts, op, exponent):
    root = exact_sqrt(radicand)
    assert sympy_zero(sympy, surd_to_sympy(sympy, root) - sympy.sqrt(sympy.Rational(str(radicand))))
    x, y = parts[0] + parts[1] * root, parts[2] + parts[3] * root
    sx, sy = surd_to_sympy(sympy, x), surd_to_sympy(sympy, y)
    if sympy_zero(sympy, sy if op == "/" else sx) and (op == "/" or (op == "**" and exponent < 0)):
        with pytest.raises(ZeroDivisionError):
            x / y if op == "/" else x**exponent
        return
    got, expected = {
        "+": (lambda: (x + y, sx + sy)),
        "-": (lambda: (x - y, sx - sy)),
        "*": (lambda: (x * y, sx * sy)),
        "/": (lambda: (x / y, sx / sy)),
        "**": (lambda: (x**exponent, sx**exponent)),
    }[op]()
    assert sympy_zero(sympy, surd_to_sympy(sympy, got) - expected)
    # a Surd is never zero; a zero result is the rational 0
    assert bool(got) == (not sympy_zero(sympy, expected))
    assert isinstance(got, (int, Fraction, Surd)) and not (isinstance(got, Surd) and got.b == 0)
    assert sign_of(got) == int(sympy.sign(expected))
    assert (x == y) == sympy_zero(sympy, sx - sy) and (x == y) <= (hash(x) == hash(y))
    # the integer form is the value times its positive denominator
    if isinstance(got, Surd):
        num = got.numerator
        assert got.denominator > 0 and num == got * got.denominator
        assert all(type(part) is int or part.denominator == 1 for part in (num.a, num.b))
        assert sympy_zero(sympy, sympy.sympify(str(got)) - surd_to_sympy(sympy, got))


def test_surds_of_two_fields_do_not_mix():
    with pytest.raises(PolynomialError, match="two quadratic fields"):
        exact_sqrt(2) + exact_sqrt(3)
    assert exact_sqrt(8) == 2 * exact_sqrt(2) and exact_sqrt(2) != exact_sqrt(3)
    assert exact_sqrt(-1) is None and exact_sqrt(exact_sqrt(2)) is None


def test_polynomial_evaluates_at_a_surd_point():
    q = parse_polynomial("alpha^2 + beta^2 - 4")
    beta = exact_sqrt(3)
    assert q.evaluate({"alpha": 1, "beta": beta}) == 0
    assert type(q.evaluate({"alpha": 1, "beta": beta})) is Fraction
    assert parse_polynomial("alpha*beta").evaluate({"alpha": 2, "beta": beta}) == 2 * beta
    # the compiled integer form runs unchanged, on integer Surds
    kernel = IntegerKernel(DEFAULT_TABLE, [q, parse_polynomial("alpha*beta - 1/2")])
    zero, other = kernel_at(kernel, {"alpha": Fraction(1, 2), "beta": exact_sqrt(Fraction(15, 4))})
    assert zero == 0 and isinstance(other, Surd) and other.sign() > 0  # sqrt(15)/4 - 1/2
