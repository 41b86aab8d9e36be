"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial stores integer numerators over one positive common
denominator, keyed by monomials of a fixed, ordered variable table.  A
monomial is an exponent tuple with one entry per table variable:

    3/2*alpha*beta^2 - 1/3*gamma  over  (alpha, beta, gamma, ...)
        ->  _num = {(1, 2, 0, ...): 9, (0, 0, 1, ...): -2},  _den = 6

The storage is normalised (no zero numerator, gcd(_den, *_num) == 1, and
zero is ({}, 1)), so two polynomials are equal exactly when their
(denominator, numerators) pairs are, and symbolic identities can be
tested with ``==``.  ``terms`` derives the monomial -> Fraction view, in
storage order.

Only the public constructor ``Polynomial(table, terms)`` checks its input:
it rejects a monomial of the wrong length and drops zero coefficients.
The ring operations form no Fraction: ``+`` and ``-`` merge numerators
over the lcm of the denominators, deleting a key the moment it cancels,
``*`` convolves them over the product of the denominators, and each
result is divided once by its one common gcd.

Printing uses graded lexicographic monomial order (higher total degree
first, ties broken by the exponent vector), which makes rendered output
deterministic and parse/print round-trips exact.

``Polynomial.evaluate`` evaluates one polynomial over Fractions or floats.
``IntegerKernel`` is the one compiled form for bulk exact evaluation: a
list of polynomials over one common coefficient denominator, homogenised
to one degree, evaluated at a point of ints or Fractions to one integer per
polynomial, all scaled by one positive factor.  The sampler, the c solve at
a point (`scan`, `solve_for_c`) and case membership (`case_matches_point`,
`scan_membership`) compile their polynomials once per call and evaluate
every exact point with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

DEFAULT_VARIABLES = ("alpha", "beta", "gamma", "delta", "eta", "lambda0", "c")

# Accepted input aliases for the ASCII variable names (output is ASCII only).
_GREEK_INPUT = {
    "α": "alpha",
    "β": "beta",
    "γ": "gamma",
    "δ": "delta",
    "η": "eta",
    "λ": "lambda",
    "₀": "0",
}


def _grlex(m: Monomial) -> tuple[int, Monomial]:
    """Graded-lex key: total degree first, then the exponent vector."""
    return (sum(m), m)


def _divides(a: Monomial, b: Monomial) -> bool:
    """Whether the monomial `a` divides `b`."""
    return all(x <= y for x, y in zip(a, b))


class PolynomialError(ValueError):
    """Raised for ill-formed polynomial operations (table mismatch, bad eval)."""


class ParseError(PolynomialError):
    """Syntax or name error while parsing an expression, with position info."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableTable:
    """An ordered, immutable set of variable names.

    The order is fixed at construction and determines both the monomial
    exponent layout and the printing order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str] = DEFAULT_VARIABLES):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolynomialError(f"duplicate variable names in {names!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *_):
        raise AttributeError("VariableTable is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableTable({', '.join(self.names)})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolynomialError(f"unknown variable {name!r}") from None

    def var(self, name: str) -> "Polynomial":
        """The polynomial consisting of the single variable `name`."""
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial._make(self, {tuple(exps): 1}, 1)

    def const(self, value: Scalar) -> "Polynomial":
        coeff = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Polynomial._make(self, {(0,) * len(self.names): coeff.numerator} if coeff else {}, coeff.denominator)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {}, 1)

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def extended(self, extra: Iterable[str]) -> "VariableTable":
        """A new table with `extra` names appended after the current ones."""
        return VariableTable(self.names + tuple(extra))


DEFAULT_TABLE = VariableTable()


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("table", "_num", "_den")

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            if len(m) != len(table):
                raise PolynomialError(
                    f"monomial {m} does not match table of size {len(table)}"
                )
            if c:
                clean[m] = Fraction(c)
        # Reduced fractions over their lcm already have numerator gcd 1 with it.
        den = lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_num", {m: c.numerator * (den // c.denominator) for m, c in clean.items()})
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, table: VariableTable, num: dict[Monomial, int], den: int) -> "Polynomial":
        """Wrap nonzero numerators over den > 0, unchecked, in lowest terms."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: n // g for m, n in num.items()}
                den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A fresh dict monomial -> Fraction coefficient, in storage order."""
        den = self._den
        return {m: Fraction(n, den) for m, n in self._num.items()}

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.table is not self.table and other.table != self.table:
                raise PolynomialError("mismatched variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _merge(self, other, subtract: bool) -> "Polynomial":
        """self + other, or self - other, over the lcm of the denominators.
        A zero operand returns the other one itself; polynomials are immutable."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._num:
            return self
        if not self._num and not subtract:
            return other
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = dict(self._num) if fa == 1 else {m: n * fa for m, n in self._num.items()}
        pairs = other._num.items() if fb == 1 else [(m, n * fb) for m, n in other._num.items()]
        for m, n in pairs:
            if m in out:
                total = out[m] - n if subtract else out[m] + n
                if total:
                    out[m] = total
                else:
                    del out[m]
            else:
                out[m] = -n if subtract else n
        return Polynomial._make(self.table, out, den)

    def __add__(self, other) -> "Polynomial":
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.table, {m: -n for m, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "Polynomial":
        return self._merge(other, True)

    def __rsub__(self, other) -> "Polynomial":
        return (-self)._merge(other, False)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self.table.zero
            p = other.numerator
            return Polynomial._make(
                self.table, {m: n * p for m, n in self._num.items()}, self._den * other.denominator
            )
        other = self._coerce(other)
        if not self._num or not other._num:
            return self.table.zero
        # Convolve the integer numerators over the product of the denominators.
        out: dict[Monomial, int] = {}
        b = other._num.items()
        for ma, ca in self._num.items():
            for mb, cb in b:
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial._make(self.table, {m: n for m, n in out.items() if n}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise PolynomialError("exponent must be a non-negative integer")
        result = self.table.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.table.const(other)
        if not isinstance(other, Polynomial) or other.table != self.table:
            return False
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if not any(map(any, self._num)):
            # a constant equals its scalar value, so it hashes like it
            n = next(iter(self._num.values()), 0)
            return hash(n if self._den == 1 else Fraction(n, self._den))
        return hash((self.table, self._den, frozenset(self._num.items())))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def variables(self) -> set[str]:
        """Names of variables that actually occur (nonzero exponent)."""
        used: set[str] = set()
        for m in self._num:
            for name, e in zip(self.table.names, m):
                if e:
                    used.add(name)
        return used

    def total_degree(self) -> int:
        return max((sum(m) for m in self._num), default=0)

    def degree_in(self, var: str) -> int:
        i = self.table.index(var)
        return max((m[i] for m in self._num), default=0)

    def coefficient_of(self, var: str, power: int) -> "Polynomial":
        """The coefficient of var^power, as a polynomial without `var`."""
        i = self.table.index(var)
        return Polynomial._make(
            self.table, {m[:i] + (0,) + m[i + 1 :]: n for m, n in self._num.items() if m[i] == power}, self._den
        )

    def constant_value(self) -> Fraction:
        """The value of a degree-0 polynomial; error if any variable occurs."""
        if self.total_degree() > 0:
            raise PolynomialError(f"{self} is not constant")
        return Fraction(next(iter(self._num.values()), 0), self._den)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Mapping[str, Union[Scalar, float]]):
        """Evaluate at a point assigning every occurring variable.

        Values may be ints, Fractions, or floats; the result is an exact
        Fraction unless a float value is involved.  Variables that do not
        occur in the polynomial may be omitted from `point`.
        """
        idx_vals = []
        for name in self.variables():
            if name not in point:
                raise PolynomialError(f"unassigned variable {name!r}")
        for i, name in enumerate(self.table.names):
            if name in point:
                v = point[name]
                idx_vals.append((i, v if isinstance(v, float) else Fraction(v)))
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for i, v in idx_vals:
                if m[i]:
                    term = term * v ** m[i]
            total = total + term
        return total

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of `var` by `replacement`, re-canonicalized."""
        replacement = self._coerce(replacement)
        i = self.table.index(var)
        # Group by exponent of var so each power of the replacement is
        # computed once.
        by_power: dict[int, dict[Monomial, int]] = {}
        for m, n in self._num.items():
            stripped = m[:i] + (0,) + m[i + 1 :]
            by_power.setdefault(m[i], {})[stripped] = n
        result = self.table.zero
        for power, num in sorted(by_power.items()):
            partial = Polynomial._make(self.table, num, self._den)
            result = result + partial * replacement**power
        return result

    def substitute_all(self, assignments: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Apply several single-variable substitutions in table order."""
        out = self
        for name in self.table.names:
            if name in assignments:
                out = out.substitute(name, assignments[name])
        return out

    def reduce_square(self, var: str, rhs: "Polynomial") -> "Polynomial":
        """Rewrite var^2 -> rhs until the degree in `var` is at most 1.

        `rhs` must not involve `var`.  The result is congruent to the input
        modulo the ideal generated by var^2 - rhs.
        """
        rhs = self._coerce(rhs)
        if rhs.degree_in(var) > 0:
            raise PolynomialError(f"reduction rhs must not contain {var!r}")
        square = self.table.var(var) ** 2
        return self.reduce_by_relation(square - rhs, pivot=square.leading_monomial())

    def leading_monomial(self) -> Monomial:
        """Graded-lex largest monomial; error on the zero polynomial."""
        if not self._num:
            raise PolynomialError("zero polynomial has no leading monomial")
        return max(self._num, key=_grlex)

    def reduce_by_relation(self, relation: "Polynomial", pivot: Monomial | None = None) -> "Polynomial":
        """Remainder modulo one relation, eliminating one of its monomials.

        Rewrites every monomial divisible by the pivot (the relation's
        graded-lex leading monomial by default); the result differs from
        the input by a multiple of the relation, and no surviving monomial
        is divisible by the pivot.  Only the default pivot gives the unique
        normal form, zero on every multiple of the relation; another pivot
        must make each rewrite lower its variables, as var^2 does in
        `reduce_square`.
        """
        relation = self._coerce(relation)
        if relation.is_zero:
            return self
        lead = relation.leading_monomial() if pivot is None else pivot
        if lead not in relation._num:
            raise PolynomialError("pivot is not a monomial of the relation")
        return self._divide([(lead, relation)])

    def reduce_by_relations(self, relations: Iterable["Polynomial"]) -> "Polynomial":
        """Normal form modulo the ideal of `relations`: zero exactly on its members."""
        return self.normal_form(groebner_basis(self._coerce(r) for r in relations))

    def normal_form(self, basis: Sequence["Polynomial"]) -> "Polynomial":
        """Remainder of division by `basis`; unique when it is a Groebner basis."""
        return self._divide([(g.leading_monomial(), g) for g in basis if not g.is_zero])

    def _divide(self, divisors: Sequence[tuple[Monomial, "Polynomial"]]) -> "Polynomial":
        """Multivariate division, largest term first: a term divisible by the
        pivot of some (pivot, g) is cancelled by a multiple of the first
        such g, any other term moves to the remainder, in Fractions."""
        out = self.terms
        rem: dict[Monomial, Fraction] = {}
        divisor_terms = [(pivot, g.terms) for pivot, g in divisors]
        while out:
            m = max(out, key=_grlex)
            for pivot, g in divisor_terms:
                if _divides(pivot, m):
                    shift = tuple(e - pe for e, pe in zip(m, pivot))
                    factor = out[m] / g[pivot]
                    for gm, gc in g.items():
                        key = tuple(a + b for a, b in zip(shift, gm))
                        out[key] = out.get(key, 0) - factor * gc
                        if not out[key]:
                            del out[key]
                    break
            else:
                rem[m] = rem.get(m, 0) + out.pop(m)
        return Polynomial(self.table, rem)

    def project_to(self, table: VariableTable) -> "Polynomial":
        """Re-express over `table`; every used variable must exist there."""
        used = self.variables()
        for name in self.table.names:
            if name in used and name not in table:
                raise PolynomialError(f"variable {name!r} still occurs; cannot project")
        positions = [table.index(name) if name in table else None for name in self.table.names]
        out: dict[Monomial, int] = {}
        for m, n in self._num.items():
            exps = [0] * len(table)
            for e, pos in zip(m, positions):
                if e:
                    exps[pos] = e  # type: ignore[index]
            out[tuple(exps)] = n
        return Polynomial._make(table, out, self._den)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        pieces: list[str] = []
        den = self._den
        # Graded lexicographic, largest first (earlier variables weigh more).
        ordered = sorted(self._num.items(), key=lambda item: _grlex(item[0]), reverse=True)
        for k, (m, n) in enumerate(ordered):
            factors = []
            for name, e in zip(self.table.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            # the magnitude of n/den in lowest terms, as str(Fraction) spells it
            g = gcd(n, den)
            mag = str(abs(n) // g) if den == g else f"{abs(n) // g}/{den // g}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if k == 0:
                pieces.append(body if n > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def groebner_basis(relations: Iterable[Polynomial]) -> list[Polynomial]:
    """A graded-lex Groebner basis of the ideal generated by `relations`.

    Buchberger's algorithm (Cox, Little and O'Shea, "Ideals, Varieties,
    and Algorithms", ch. 2): the S-polynomial of each pair, smallest lcm
    first, is divided by the basis so far, and a nonzero remainder joins
    it.  Pairs with coprime leading monomials are skipped: their
    S-polynomial always reduces to zero.  The basis returned is minimal:
    an element whose leading monomial is a multiple of another's (or equal
    to an earlier one's) is dropped, which leaves every normal form as it is.
    """
    basis: list[Polynomial] = []
    pairs: list[tuple[Monomial, int, int]] = []

    def admit(g: Polynomial) -> None:
        lead = g.leading_monomial()
        for k, f in enumerate(basis):
            lf = f.leading_monomial()
            if any(a and b for a, b in zip(lf, lead)):
                pairs.append((tuple(map(max, lf, lead)), k, len(basis)))
        basis.append(g)

    for r in relations:
        if not r.is_zero:
            admit(r)
    while pairs:
        pair = min(pairs, key=lambda pair: _grlex(pair[0]))
        pairs.remove(pair)
        top, i, j = pair
        remainder = (_monic_multiple(basis[i], top) - _monic_multiple(basis[j], top)).normal_form(basis)
        if not remainder.is_zero:
            admit(remainder)
    leads = [g.leading_monomial() for g in basis]
    return [
        g
        for k, (g, lead) in enumerate(zip(basis, leads))
        if not any(_divides(other, lead) and (other != lead or j < k) for j, other in enumerate(leads) if j != k)
    ]


def _monic_multiple(q: Polynomial, top: Monomial) -> Polynomial:
    """The multiple of `q` whose leading term is exactly the monomial `top`."""
    lead = q.leading_monomial()
    shift = tuple(t - e for t, e in zip(top, lead))
    return Polynomial(q.table, {shift: Fraction(q._den, q._num[lead])}) * q


class IntegerKernel:
    """A list of polynomials compiled for exact evaluation in integers.

    The polynomials share one coefficient denominator D and are homogenised
    to their maximum total degree G with an extra base.  At a point whose
    values are n_j / L, with L the lcm of the value denominators, every
    polynomial f then takes the value F / (D * L**G) for an integer F
    computed from the power table of (n_1, ..., n_k, L).  Calling the kernel
    at a point of ints or Fractions returns those integers F, one per
    polynomial.  The common factor D * L**G is positive, so the F keep the
    zeros, the signs and the ratios of the values, and no Fraction is formed.
    """

    __slots__ = ("names", "degree", "monomials", "polys")

    def __init__(self, table: VariableTable, polys: Sequence[Polynomial]):
        used = set().union(*(poly.variables() for poly in polys))
        self.names = tuple(n for n in table.names if n in used)
        positions = [table.index(n) for n in self.names]
        self.degree = max((poly.total_degree() for poly in polys), default=0)
        denominator = lcm(*(poly._den for poly in polys))
        width = self.degree + 1
        monomials: dict[Monomial, int] = {}
        self.monomials: list[tuple[int, ...]] = []  # flat power-table indices
        self.polys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for poly in polys:
            slots, coeffs = [], []
            scale = denominator // poly._den
            for mono, n in poly._num.items():
                if mono not in monomials:
                    exps = [mono[i] for i in positions] + [self.degree - sum(mono)]
                    monomials[mono] = len(self.monomials)
                    self.monomials.append(tuple(j * width + e for j, e in enumerate(exps) if e))
                slots.append(monomials[mono])
                coeffs.append(n * scale)
            self.polys.append((tuple(slots), tuple(coeffs)))

    def __call__(self, point: Mapping[str, Scalar]) -> list[int]:
        """One integer per polynomial, all scaled by one positive factor."""
        try:
            vals = [point[n] for n in self.names]
        except KeyError as missing:
            raise PolynomialError(f"unassigned variable {missing.args[0]!r}") from None
        scale = lcm(*(v.denominator for v in vals))
        powers: list[int] = []
        for base in [v.numerator * (scale // v.denominator) for v in vals] + [scale]:
            powers += accumulate(repeat(base, self.degree), mul, initial=1)
        mono = [prod(map(powers.__getitem__, idx)) for idx in self.monomials]
        return [sum(map(mul, coeffs, map(mono.__getitem__, slots))) for slots, coeffs in self.polys]


# -- parsing -----------------------------------------------------------------
#
# Grammar:
#   expr     := term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' nat)?
#   base     := rational | ident | '(' expr ')' | '-' factor
#   rational := nat ('/' nat)?


class _Tokenizer:
    def __init__(self, text: str):
        for src, dst in _GREEK_INPUT.items():
            text = text.replace(src, dst)
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next(self) -> tuple[str, object, int]:
        """Return (kind, value, position); kind 'end' at end of input."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        start = self.pos
        ch = self.text[start]
        if ch.isdigit():
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return ("int", int(self.text[start : self.pos]), start)
        if ch.isalpha() or ch == "_":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return ("ident", self.text[start : self.pos], start)
        if ch in "+-*^()/":
            self.pos += 1
            return (ch, ch, start)
        raise ParseError(f"unexpected character {ch!r}", start)


class _Parser:
    def __init__(self, text: str, table: VariableTable):
        self.table = table
        self.tokens: list[tuple[str, object, int]] = []
        tok = _Tokenizer(text)
        while True:
            t = tok.next()
            self.tokens.append(t)
            if t[0] == "end":
                break
        self.i = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, object, int]:
        t = self.tokens[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, kind: str) -> tuple[str, object, int]:
        t = self.advance()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected trailing token {t[1]!r}", t[2])
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.base()
        if self.peek()[0] == "^":
            self.advance()
            t = self.expect("int")
            p = p ** t[1]  # type: ignore[operator]
        return p

    def base(self) -> Polynomial:
        t = self.advance()
        kind, value, pos = t
        if kind == "int":
            num = value
            if self.peek()[0] == "/":
                self.advance()
                dt = self.expect("int")
                if dt[1] == 0:
                    raise ParseError("zero denominator", dt[2])
                return self.table.const(Fraction(num, dt[1]))  # type: ignore[arg-type]
            return self.table.const(num)  # type: ignore[arg-type]
        if kind == "ident":
            if value not in self.table:
                raise ParseError(f"unknown variable {value!r}", pos)
            return self.table.var(value)  # type: ignore[arg-type]
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        if kind == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_polynomial(text: str, table: VariableTable = DEFAULT_TABLE) -> Polynomial:
    """Parse an expression into a canonical Polynomial over `table`.

    Raises ParseError (with position) on syntax errors or unknown names.
    """
    return _Parser(text, table).parse()
