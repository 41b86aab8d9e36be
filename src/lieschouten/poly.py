"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial stores integer numerators over one positive common
denominator, keyed by packed monomials of a fixed, ordered variable table:
one `_FIELD`-bit field per variable, the first variable most significant,
under a top field that holds the total degree.  Over (alpha, beta, gamma):

    3/2*alpha*beta^2 - 1/3*gamma
        ->  _num = {3<<48 | 1<<32 | 2<<16: 9, 1<<48 | 1: -2},  _den = 6

A product of monomials is the sum of their keys, and graded lexicographic
order (higher total degree first, ties broken by the exponent vector) is
integer order, which printing and division use.  Every exponent and total
degree stays below 2**(_FIELD - 1), so the top bit of each field is a guard
bit: p divides m when no guard bit of (m + guard) - p is borrowed.  The
public constructor and every product check this bound; past it they raise
PolynomialError.  ``terms`` and ``leading_monomial`` give exponent tuples.
Printing takes each monomial's text from its table's memo, which spells a
packed key once, on first use, so a term costs one gcd and one lookup.

The storage is normalised (no zero numerator, gcd(_den, *_num) == 1, and
zero is ({}, 1)), so two polynomials are equal exactly when their
(denominator, numerators) pairs are.  Only ``Polynomial(table, terms)``
checks its input: the monomial lengths, the exponents (ints in range) and
zero coefficients.  Every other result is wrapped by ``Polynomial._make``,
which takes the object from ``object.__new__`` and writes its slots through
the slots' member descriptors, bound once at module level (``_set_num``
and the like): ``__setattr__`` and ``__delattr__`` raise for every name,
so the class stays immutable, and a construction costs no
``object.__setattr__`` call.  The ring operations form no Fraction: ``+``
and ``-`` merge numerators over the lcm of the denominators, deleting a key
the moment it cancels, ``*`` convolves them over the product of the
denominators, and each result is divided once by its one common gcd.
``sum_of_products`` folds a signed sum of products, the shape of every
curvature component, Ricci entry and soliton residual, into one such
convolution over the lcm of the products' denominators: one dict and one
gcd per sum, however many products it has.

A value is exact: an int, a Fraction, or a `Surd` a + b*sqrt(d) of one
quadratic field, which is what an irrational root of a quadratic is.
``Polynomial.evaluate`` evaluates one polynomial at such a point.
``IntegerKernel`` is the one compiled form for bulk exact evaluation: a
list of polynomials over one common coefficient denominator, homogenised
to one degree, evaluated at a point of ints, Fractions or Surds to one
integer (or integer Surd) per polynomial, all scaled by one positive
factor.  The list becomes one straight-line Python function (see
`_kernel_source`): once per soliton system for the c solve, once per
(case, eta) for case membership, once per sampler call.  Each distinct
source text is compiled once per process, in a bounded memo, and run in
each kernel's own namespace, which binds the names it reads.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt
from typing import Iterable, Mapping, Optional, Sequence, Union

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


# Bits per field of a packed monomial.  Exponents and total degrees stay
# below _LIMIT, so the top bit of each field is a guard bit.
_FIELD = 16
_LIMIT = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1

# Decimal digits per piece when an integer is printed or parsed: below 640,
# the least int/str digit limit the interpreter can be set to (4300 by
# default), so coefficients of any size print and parse.
_DIGITS = 600
_PIECE = 10**_DIGITS


class PolynomialError(ValueError):
    """Raised for ill-formed polynomial operations (table mismatch, bad eval)."""


class ParseError(PolynomialError):
    """Syntax or name error while parsing an expression, with position info."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableTable:
    """An ordered, immutable set of variable names.

    The order is fixed at construction and determines both the packed
    monomial layout and the printing order: variable i has the field at bit
    `_shifts[i]`, the first variable highest, and the total degree the field
    at bit `_top` above them all.  `_guard` holds the top bit of every field.
    `_text` is the memo of printed monomials, `_MonomialText`.
    """

    __slots__ = ("names", "_index", "_shifts", "_top", "_guard", "_text")

    def __init__(self, names: Iterable[str] = DEFAULT_VARIABLES):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolynomialError(f"duplicate variable names in {names!r}")
        shifts = tuple(_FIELD * i for i in reversed(range(len(names))))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_shifts", shifts)
        object.__setattr__(self, "_top", _FIELD * len(names))
        object.__setattr__(self, "_guard", sum(_LIMIT << s for s in shifts + (_FIELD * len(names),)))
        object.__setattr__(self, "_text", _MonomialText(zip(names, shifts)))

    def __setattr__(self, *_):
        raise AttributeError("VariableTable is immutable")

    __delattr__ = __setattr__

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

    def _pack(self, monomial: Monomial) -> int:
        """The packed key of an exponent tuple, checked against the layout."""
        n = len(self.names)
        if len(monomial) != n or not all(isinstance(e, int) and e >= 0 for e in monomial) or sum(monomial) >= _LIMIT:
            raise PolynomialError(f"monomial {monomial} is not {n} non-negative ints of sum below {_LIMIT}")
        key = sum(monomial)  # the total degree, shifted up to the top field
        for e in monomial:
            key = key << _FIELD | e
        return key

    def _unpack(self, key: int) -> Monomial:
        return tuple([key >> s & _MASK for s in self._shifts])

    def var(self, name: str) -> "Polynomial":
        """The polynomial consisting of the single variable `name`."""
        return Polynomial._make(self, {1 << self._top | 1 << self._shifts[self.index(name)]: 1}, 1)

    def const(self, value: Scalar) -> "Polynomial":
        coeff = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Polynomial._make(self, {0: coeff.numerator} if coeff else {}, coeff.denominator)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {}, 1)

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def extended(self, extra: Iterable[str]) -> "VariableTable":
        """A new table with `extra` names appended after the current ones."""
        return VariableTable(self.names + tuple(extra))


class _MonomialText(dict):
    """Packed monomial -> its printed factors, "alpha*beta^2" ("" for 1),
    each built on first use from the (name, shift) pairs of one table."""

    __slots__ = ("_fields",)

    def __init__(self, fields: Iterable[tuple[str, int]]):
        self._fields = tuple(fields)

    def __missing__(self, key: int) -> str:
        text = self[key] = "*".join(n if e == 1 else f"{n}^{e}" for n, s in self._fields if (e := key >> s & _MASK))
        return text


DEFAULT_TABLE = VariableTable()


class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("table", "_num", "_den", "_hash")  # _hash is set on first use

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, Scalar]):
        num, den = _over_lcm({table._pack(m): Fraction(c) for m, c in terms.items()})
        _set_table(self, table)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _make(cls, table: VariableTable, num: dict[int, int], den: int) -> "Polynomial":
        """Wrap nonzero numerators over den > 0, unchecked, in lowest terms."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: n // g for m, n in num.items()}
                den //= g
        self = _new(cls)
        _set_table(self, table)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    __delattr__ = __setattr__

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A fresh dict exponent tuple -> Fraction coefficient, in storage order."""
        den, unpack = self._den, self.table._unpack
        return {unpack(m): Fraction(n, den) for m, n in self._num.items()}

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
        if (max(self._num) + max(other._num)) >> self.table._top >= _LIMIT:  # no field carries
            raise PolynomialError(f"product of total degree beyond {_LIMIT - 1}")
        # Convolve the integer numerators over the product of the denominators;
        # a product of monomials is the sum of their keys.
        out: dict[int, int] = {}
        b = other._num.items()
        for ma, ca in self._num.items():
            for mb, cb in b:
                m = ma + mb
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial._make(self.table, {m: n for m, n in out.items() if n}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0 or n * self.total_degree() >= _LIMIT:  # before any squaring
            raise PolynomialError(f"exponent must be a non-negative integer that keeps the degree below {_LIMIT}")
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
        try:
            return self._hash
        except AttributeError:
            pass
        if not any(self._num):
            # a constant (key 0 only) equals its scalar value, so it hashes like it
            n = next(iter(self._num.values()), 0)
            value = hash(n if self._den == 1 else Fraction(n, self._den))
        else:
            value = hash((self.table, self._den, frozenset(self._num.items())))
        _set_hash(self, value)
        return value

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _used(self) -> list[tuple[str, int]]:
        """(name, field shift) of each variable that occurs, in table order."""
        union = 0
        for m in self._num:
            union |= m
        return [(name, s) for name, s in zip(self.table.names, self.table._shifts) if union >> s & _MASK]

    def variables(self) -> set[str]:
        """Names of variables that actually occur (nonzero exponent)."""
        return {name for name, _ in self._used()}

    def total_degree(self) -> int:
        return max(self._num, default=0) >> self.table._top

    def degree_in(self, var: str) -> int:
        s = self.table._shifts[self.table.index(var)]
        return max((m >> s & _MASK for m in self._num), default=0)

    def coefficient_of(self, var: str, power: int) -> "Polynomial":
        """The coefficient of var^power, as a polynomial without `var`."""
        table = self.table
        s = table._shifts[table.index(var)]
        drop = power << s | power << table._top
        return Polynomial._make(table, {m - drop: n for m, n in self._num.items() if m >> s & _MASK == power}, self._den)

    def constant_value(self) -> Fraction:
        """The value of a degree-0 polynomial; error if any variable occurs."""
        if self.total_degree() > 0:
            raise PolynomialError(f"{self} is not constant")
        return Fraction(next(iter(self._num.values()), 0), self._den)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Mapping[str, Union[Scalar, "Surd"]]):
        """Evaluate at a point assigning every occurring variable.

        Values may be ints, Fractions or Surds; the result is a Fraction,
        or a Surd when a Surd value leaves one.  Only `*`, `**` and `+` of
        the values are used.  Variables that do not occur in the polynomial
        may be omitted from `point`.
        """
        shift_vals = []
        for name, s in self._used():
            if name not in point:
                raise PolynomialError(f"unassigned variable {name!r}")
            shift_vals.append((s, point[name]))
        den = self._den
        total = Fraction(0)
        for m, n in self._num.items():
            term = Fraction(n, den)
            for s, v in shift_vals:
                e = m >> s & _MASK
                if e:
                    term = term * v**e
            total = total + term
        return total

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of `var` by `replacement`, re-canonicalized;
        the polynomial itself when `var` does not occur."""
        other = self._coerce(replacement)
        if other is NotImplemented:
            raise TypeError(f"cannot substitute {replacement!r} for {var!r}")
        s = self.table._shifts[self.table.index(var)]
        unit = 1 << s | 1 << self.table._top
        # Group by exponent of var so each power of the replacement is
        # computed once.
        by_power: dict[int, dict[int, int]] = {}
        for m, n in self._num.items():
            e = m >> s & _MASK
            by_power.setdefault(e, {})[m - e * unit] = n
        if not by_power.keys() - {0}:
            return self
        result = Polynomial._make(self.table, by_power.pop(0), self._den) if 0 in by_power else self.table.zero
        if other._num:
            for power, num in sorted(by_power.items()):
                result = result + Polynomial._make(self.table, num, self._den) * other**power
        return result

    def reduce_square(self, var: str, rhs: "Polynomial") -> "Polynomial":
        """Rewrite var^2 -> rhs until the degree in `var` is at most 1.

        `rhs` must not involve `var`, so the rewrite is confluent: grouped by
        e div 2 as `substitute` groups by e, each term's var^e becomes
        var^(e mod 2)*rhs^(e div 2).  The result is congruent to the input
        modulo the ideal generated by var^2 - rhs.
        """
        rhs = self._coerce(rhs)
        if rhs.degree_in(var) > 0:
            raise PolynomialError(f"reduction rhs must not contain {var!r}")
        s = self.table._shifts[self.table.index(var)]
        halves: dict[int, dict[int, int]] = {}
        for m, n in self._num.items():
            k = (m >> s & _MASK) // 2
            halves.setdefault(k, {})[m - k * (2 << s | 2 << self.table._top)] = n
        return sum((Polynomial._make(self.table, num, self._den) * rhs**k for k, num in halves.items()), self.table.zero)

    def leading_monomial(self) -> Monomial:
        """Graded-lex largest monomial; error on the zero polynomial."""
        if not self._num:
            raise PolynomialError("zero polynomial has no leading monomial")
        return self.table._unpack(max(self._num))

    def reduce_by_relation(self, relation: "Polynomial") -> "Polynomial":
        """Normal form modulo one relation, by its leading term: zero exactly
        on the multiples of the relation; the input for the zero relation."""
        return self.normal_form([self._coerce(relation)])

    def reduce_by_relations(self, relations: Iterable["Polynomial"]) -> "Polynomial":
        """Normal form modulo the ideal of `relations`: zero exactly on its members."""
        return self.normal_form(groebner_basis(self._coerce(r) for r in relations))

    def normal_form(self, basis: Sequence["Polynomial"]) -> "Polynomial":
        """Remainder of division by `basis`, by leading terms only (Cox, Little
        and O'Shea, ch. 2 section 3); unique when `basis` is a Groebner basis.
        Largest term first, in Fractions: a term that the lead of some nonzero
        g divides is cancelled by a multiple of the first such g, and any other
        term moves to the remainder, so no step raises the total degree."""
        guard = self.table._guard
        out = {m: Fraction(n, self._den) for m, n in self._num.items()}
        rem: dict[int, Fraction] = {}
        divisors = []
        for g in basis:
            if g._num:
                terms = {m: Fraction(n, g._den) for m, n in g._num.items()}
                lead = max(terms)
                divisors.append((lead, terms[lead], terms.items()))
        while out:
            m = max(out)
            for lead, at_lead, terms in divisors:
                if (m + guard - lead) & guard == guard:
                    shift = m - lead
                    factor = out[m] / at_lead
                    for gm, gc in terms:
                        key = shift + gm
                        out[key] = out.get(key, 0) - factor * gc
                        if not out[key]:
                            del out[key]
                    break
            else:
                rem[m] = rem.get(m, 0) + out.pop(m)
        return Polynomial._make(self.table, *_over_lcm(rem))

    def project_to(self, table: VariableTable) -> "Polynomial":
        """Re-express over `table`; every used variable must exist there."""
        used = self.variables()
        for name in self.table.names:
            if name in used and name not in table:
                raise PolynomialError(f"variable {name!r} still occurs; cannot project")
        moves = [(s, table._shifts[table.index(name)]) for name, s in self._used()]
        out: dict[int, int] = {}
        for m, n in self._num.items():
            key = m >> self.table._top << table._top
            for s, t in moves:
                key |= (m >> s & _MASK) << t
            out[key] = n
        return Polynomial._make(table, out, self._den)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        """The terms largest first in graded-lex order, each its coefficient's
        magnitude as str(Fraction) spells it (left out when 1) times the
        table's text of its monomial, joined by " + " and " - "; "0" for zero."""
        if not self._num:
            return "0"
        den, num, text = self._den, self._num, self.table._text
        pieces = []
        for m in sorted(num, reverse=True):
            n = num[m]
            g = gcd(n, den)
            a, d = abs(n) // g, den // g
            mag = str(a) if a < _PIECE else _decimal(a)
            if d != 1:
                mag = f"{mag}/{d if d < _PIECE else _decimal(d)}"
            factors = text[m]
            body = mag if not factors else factors if mag == "1" else f"{mag}*{factors}"
            pieces.append(f"+ {body}" if n > 0 else f"- {body}")
        out = " ".join(pieces)
        return out[2:] if out[0] == "+" else f"-{out[2:]}"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# The slot setters, bound once: they write a slot straight through its
# member descriptor, past `Polynomial.__setattr__`, which refuses every write.
_new = object.__new__
_set_table = Polynomial.table.__set__
_set_num = Polynomial._num.__set__
_set_den = Polynomial._den.__set__
_set_hash = Polynomial._hash.__set__


def sum_of_products(table: VariableTable, products: Iterable[tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """The sum of sign*a*b over (sign, a, b) triples, sign +1 or -1, as one
    integer accumulation.

    A triple with a zero factor is skipped; every other product is checked
    against the degree bound as `*` checks it.  Each product's numerators
    are convolved straight into one dict over D, the lcm of the products'
    denominators a._den*b._den, and the result is built and reduced once:
    no partial sum or product becomes a Polynomial.
    """
    live = []
    for sign, a, b in products:
        if a._num and b._num:
            if (a.table is not table and a.table != table) or (b.table is not table and b.table != table):
                raise PolynomialError("mismatched variable tables")
            if (max(a._num) + max(b._num)) >> table._top >= _LIMIT:  # no field carries
                raise PolynomialError(f"product of total degree beyond {_LIMIT - 1}")
            live.append((sign, a, b))
    den = lcm(*[a._den * b._den for _, a, b in live])
    out: dict[int, int] = {}
    get = out.get
    for sign, a, b in live:
        scale = sign * (den // (a._den * b._den))
        nb = b._num.items()
        for ma, ca in a._num.items():
            ca *= scale
            for mb, cb in nb:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    return Polynomial._make(table, {m: n for m, n in out.items() if n}, den)


def _decimal(n: int) -> str:
    """`str(n)` for an int n >= 0 of any size: split in two at a power of
    ten until each piece has at most `_DIGITS` digits."""
    if n < _PIECE:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


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
    pairs: list[tuple[int, int, int]] = []  # (packed lcm, newer, older), so ties go in list order

    def admit(g: Polynomial) -> None:
        lead = g.leading_monomial()
        for k, f in enumerate(basis):
            lf = f.leading_monomial()
            if any(a and b for a, b in zip(lf, lead)):
                pairs.append((g.table._pack(tuple(map(max, lf, lead))), len(basis), k))
        basis.append(g)

    for r in relations:
        if not r.is_zero:
            admit(r)
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        top, j, i = pair
        remainder = (_monic_multiple(basis[i], top) - _monic_multiple(basis[j], top)).normal_form(basis)
        if not remainder.is_zero:
            admit(remainder)
    leads = [max(g._num) for g in basis]
    guard = basis[0].table._guard if basis else 0
    return [
        g
        for k, (g, lead) in enumerate(zip(basis, leads))
        if not any((lead + guard - o) & guard == guard and (o != lead or j < k) for j, o in enumerate(leads) if j != k)
    ]


def _monic_multiple(q: Polynomial, top: int) -> Polynomial:
    """The multiple of `q` whose leading term is exactly the packed monomial `top`."""
    lead = max(q._num)
    c = Fraction(q._den, q._num[lead])
    return Polynomial._make(q.table, {top - lead: c.numerator}, c.denominator) * q


def _over_lcm(terms: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """Nonzero Fractions as numerators over their lcm, in lowest terms."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}, den


# -- exact quadratic surds -------------------------------------------------------


class Surd:
    """The exact real number a + b*sqrt(d) of the quadratic field Q(sqrt(d)).

    a and b are rationals (ints or Fractions) with b != 0 and d > 1 is not a
    square, so a Surd is never rational, nor zero, and is always true:
    `surd` and `exact_sqrt` give the rational a itself when b is 0.
    `+ - * /` and `**` with rationals and with Surds of the same d are
    exact; two different d raise PolynomialError.  Equality and `sign` are
    exact: a + b*sqrt(d) has the sign of a where a and b agree, else that of
    the larger of a^2 and b^2*d, which are never equal.  `numerator` and
    `denominator` are its integer form, as for a Fraction: the Surd times
    the lcm L of the denominators of a and b, and L, so an `IntegerKernel`
    runs at a point of Surds unchanged.  `float` is an approximation, for
    display only.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = a, b, d

    def _pair(self, other):
        """(a, b) of `other` in this field, None for a type it does not take."""
        if isinstance(other, Surd):
            if other.d != self.d:
                raise PolynomialError(f"sqrt({self.d}) and sqrt({other.d}) lie in two quadratic fields")
            return other.a, other.b
        return (other, 0) if isinstance(other, (int, Fraction)) else None

    def __add__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else surd(self.a + o[0], self.b + o[1], self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else surd(self.a - o[0], self.b - o[1], self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e) = (self.a, self.b, self.d), o
        return surd(a * c + b * e * d, a * e + b * c, d)

    __rmul__ = __mul__

    def _inverse(self) -> "Surd":
        norm = self.a * self.a - self.b * self.b * self.d  # nonzero: d is not a square
        return Surd(Fraction(self.a, norm), Fraction(-self.b, norm), self.d)

    def __truediv__(self, other):
        o = self._pair(other)
        return NotImplemented if o is None else self * (other._inverse() if o[1] else Fraction(1, other))

    def __rtruediv__(self, other):
        return NotImplemented if self._pair(other) is None else self._inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return 1 / self**-n
        out = 1
        for _ in range(n):
            out = self * out
        return out

    def sign(self) -> int:
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        return sa if sa == sb or a * a > b * b * self.d else sb

    def _key(self) -> tuple:
        # b*sqrt(d) is fixed by b^2*d and the sign of b, even if d kept a square factor
        return self.a, self.b * self.b * self.d, self.b > 0

    def __eq__(self, other):
        if isinstance(other, Surd):
            return self._key() == other._key()
        return False if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * sqrt(self.d)

    @property
    def denominator(self) -> int:
        return lcm(self.a.denominator, self.b.denominator)

    @property
    def numerator(self) -> "Surd":
        den, a, b = self.denominator, self.a, self.b
        return Surd(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), self.d)

    def __str__(self) -> str:
        """One ASCII form: `sqrt(2)`, `-3/2*sqrt(5)`, `1/2-sqrt(3)`."""
        mag = abs(self.b)
        body = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        return f"{self.a or ''}{'-' if self.b < 0 else '+' if self.a else ''}{body}"

    __repr__ = __str__


def surd(a, b, d: int):
    """a + b*sqrt(d) for a non-square d > 1: the rational a itself when b is 0."""
    return Surd(a, b, d) if b else a


def exact_sqrt(x) -> Optional[Union[Fraction, Surd]]:
    """The square root >= 0 of a rational x >= 0: a Fraction when x is the
    square of one, else f*sqrt(d), d > 1 squarefree.  None when x < 0, and
    None for a Surd x, whose root would be a second, nested root."""
    if isinstance(x, Surd) or x < 0:
        return None
    x = Fraction(x)
    f, d = _square_part(x.numerator * x.denominator)  # sqrt(p/q) = sqrt(p*q)/q
    return surd(0, Fraction(f, x.denominator), d) if d > 1 else Fraction(f, x.denominator)


def _square_part(n: int) -> tuple[int, int]:
    """(f, d) with n = f^2 * d, for an int n >= 0, by trial division up to
    the cube root of what is left, which then has at most two prime
    factors.  So d is squarefree when n is below 2^42; above that, division
    stops at 2^14, and d may keep the square of a prime above 2^14."""
    f, d, k = 1, 1, 2
    while k * k * k <= n and k < 1 << 14:
        while n % (k * k) == 0:
            n //= k * k
            f *= k
        if n % k == 0:
            n //= k
            d *= k
        k += 1
    root = isqrt(n)
    return (f * root, d) if root * root == n else (f, d * n)


def quotient(x, y):
    """x / y, exactly: a Fraction of two rationals, else a Surd or rational."""
    return x / y if isinstance(x, Surd) or isinstance(y, Surd) else Fraction(x, y)


def one_field(values: Iterable) -> bool:
    """Whether the Surds among `values` share one field: at most one d."""
    return len({v.d for v in values if isinstance(v, Surd)}) < 2


class IntegerKernel:
    """A list of polynomials compiled for exact evaluation in integers.

    The polynomials share one coefficient denominator D and are homogenised
    to their maximum total degree G with an extra base.  At a point whose
    values are n_j / L, with L the lcm of the value denominators, every
    polynomial f then takes the value F / (D * L**G) for an integer F.
    `scaled` at a point's integer form (n_j, L) returns those integers F,
    one per polynomial.  The common factor D * L**G is positive, so the F
    keep the zeros, the signs and the ratios of the values, and no Fraction
    is formed.  Any other L > 0 with integer n_j gives the same zeros,
    signs and ratios, so `scaled` takes them as given: one integer form, as
    drawn or as a case's witness is made, serves every kernel that reads
    the point.  `factor` is (D, G), so a caller that needs the values
    themselves divides each F by D * L**G once.  At construction the list
    becomes the straight-line function in `source` (see `_kernel_source`),
    which reads n_j by the names bound in its namespace and takes L as is;
    one source serves kernels over different names, so it is compiled once
    (`_compiled`).  Every polynomial must be over `table`, as for `+` and `*`.
    """

    __slots__ = ("names", "factor", "source", "_run")

    def __init__(self, table: VariableTable, polys: Sequence[Polynomial]):
        if any(poly.table is not table and poly.table != table for poly in polys):
            raise PolynomialError("mismatched variable tables")
        used = set().union(*(poly.variables() for poly in polys))
        self.names = tuple(n for n in table.names if n in used)
        self.factor = (lcm(*(poly._den for poly in polys)), max((poly.total_degree() for poly in polys), default=0))
        self.source = _kernel_source(table, self.names, polys, self.factor)
        namespace: dict = {"__builtins__": {}, **{f"n{j}": n for j, n in enumerate(self.names)}}
        exec(_compiled(self.source), namespace)
        self._run = namespace["kernel"]

    def scaled(self, numerators: Mapping[str, Scalar], scale: int) -> list[int]:
        """One integer per polynomial at the point numerators[n] / scale,
        for any scale L > 0 that clears every denominator."""
        try:
            return self._run(numerators, scale)
        except KeyError as missing:
            raise PolynomialError(f"unassigned variable {missing.args[0]!r}") from None


@lru_cache(maxsize=128)
def _compiled(source: str):
    """The code object of a kernel source, once per distinct text among the
    last 128; each `IntegerKernel` runs it in its own namespace."""
    return compile(source, "<IntegerKernel>", "exec")


def _kernel_source(
    table: VariableTable, names: Sequence[str], polys: Sequence[Polynomial], factor: tuple[int, int]
) -> str:
    """Python source of `kernel(point, L)` for `IntegerKernel` with the
    factor (D, G), which reads the numerator of the j-th name as x0, x1, ...
    from `point` by the name bound to n0, n1, ... in its namespace.

    Each power of a base is built once by a chain (x0_3 = x0_2 * x0), each
    homogenised monomial that more than one term uses gets one local, and
    each polynomial is the sum of its integer coefficients times its
    monomials, as a balanced tree of parenthesised `+`: a flat chain of a
    few thousand terms overflows the compiler's recursion limit.  Only
    integer literals and generated identifiers enter the source.
    """
    denominator, degree = factor
    shifts, top = [table._shifts[table.index(n)] for n in names], table._top
    bases = [f"x{j}" for j in range(len(names))] + ["L"]
    slots: dict[int, int] = {}
    exponents: list[tuple[int, ...]] = []  # homogenised, over `bases`
    rows: list[list[tuple[int, int]]] = []  # per polynomial: (slot, coefficient)
    for poly in polys:
        scale = denominator // poly._den
        row = []
        for mono, n in poly._num.items():
            if mono not in slots:
                slots[mono] = len(exponents)
                exponents.append(tuple([mono >> s & _MASK for s in shifts] + [degree - (mono >> top)]))
            row.append((slots[mono], n * scale))
        rows.append(row)

    lines = ["def kernel(point, L):"] + [f"    x{j} = point[n{j}]" for j in range(len(names))]
    for j, base in enumerate(bases):
        top = max((exps[j] for exps in exponents), default=0)
        lines += [f"    {base}_{e} = {base if e == 2 else f'{base}_{e - 1}'} * {base}" for e in range(2, top + 1)]
    uses = Counter(slot for row in rows for slot, _ in row)
    monomials = []
    for slot, exps in enumerate(exponents):
        product = " * ".join(base if e == 1 else f"{base}_{e}" for base, e in zip(bases, exps) if e)
        if uses[slot] > 1 and "*" in product:
            lines.append(f"    m{slot} = {product}")
            product = f"m{slot}"
        monomials.append(product)

    def term(slot: int, coeff: int) -> str:
        # hex keeps a literal of any size clear of the int/str digit limit
        literal = str(coeff) if -_PIECE < coeff < _PIECE else hex(coeff)
        if not monomials[slot]:
            return literal
        return monomials[slot] if coeff == 1 else f"{literal} * {monomials[slot]}"

    sums = [_balanced_sum([term(slot, coeff) for slot, coeff in row]) for row in rows]
    lines.append(f"    return [{', '.join(sums)}]")
    return "\n".join(lines) + "\n"


def _balanced_sum(terms: Sequence[str]) -> str:
    """`terms` added as a balanced tree of parenthesised `+`, or "0"."""
    if len(terms) <= 1:
        return terms[0] if terms else "0"
    mid = len(terms) // 2
    return f"({_balanced_sum(terms[:mid])} + {_balanced_sum(terms[mid:])})"


# -- parsing -----------------------------------------------------------------
#
# Grammar:
#   expr     := term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' nat)?
#   base     := rational | ident | '(' expr ')' | '-' factor
#   rational := nat ('/' nat)?


# One token per match: leading whitespace (what `str.isspace` accepts in
# ASCII), then a natural number, an identifier, an operator, or else one
# stray character or the end of input.  Every pattern is ASCII, so a
# superscript or a non-ASCII digit is a stray character, not a number.
_TOKEN = re.compile(
    r"[\s\x1c-\x1f]*(?:(?P<int>\d+)|(?P<ident>\w+)|(?P<op>[-+*^()/])|(?P<stray>.|\Z))",
    re.ASCII | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) tokens of `text` after the Greek aliases are
    spelled out, ending with ("end", None, position)."""
    for src, dst in _GREEK_INPUT.items():
        text = text.replace(src, dst)
    tokens: list[tuple[str, object, int]] = []
    match, end = _TOKEN.match, 0
    while True:
        m = match(text, end)  # never None: the last alternative takes anything
        kind, end = m.lastgroup, m.end()
        value, pos = m[kind], m.start(kind)
        if kind == "int":
            tokens.append(("int", _integer(value), pos))
        elif kind == "ident":
            tokens.append(("ident", value, pos))
        elif kind == "op":
            tokens.append((value, value, pos))
        elif value:
            raise ParseError(f"unexpected character {value!r}", pos)
        else:
            tokens.append(("end", None, pos))
            return tokens


def _integer(digits: str) -> int:
    """`int(digits)` for an ASCII digit run of any length, read in pieces of
    at most `_DIGITS` digits."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def _found(token: tuple[str, object, int]) -> str:
    return "end of input" if token[0] == "end" else f"token {token[1]!r}"


class _Parser:
    """Recursive descent that evaluates as it reads, with the values, the
    storage order and the errors of the ring operations in grammar order.
    A product of numbers and variables is one term (numerator, denominator,
    packed key), a `Polynomial` only once it meets a parenthesised sum or a
    power of one; each sum is one dict, a key deleted the moment it
    cancels, as `+` does, and one `_make`."""

    def __init__(self, text: str, table: VariableTable):
        self.table = table
        self.tokens = _tokenize(text)
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
            raise ParseError(f"expected {kind!r}, found {_found(t)}", t[2])
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected trailing token {t[1]!r}", t[2])
        return p

    def expr(self) -> Polynomial:
        out: dict[int, int] = {}
        den, sign = 1, 1
        while True:
            t = self.term()
            if isinstance(t, Polynomial):
                items, d = t._num.items(), t._den
            else:  # a zero term has denominator 1
                items, d = ((t[2], t[0]),) if t[0] else (), t[1]
            if den % d:
                grow = d // gcd(den, d)
                out, den = {m: n * grow for m, n in out.items()}, den * grow
            scale = sign * (den // d)
            for m, n in items:
                total = out.get(m, 0) + n * scale
                if total:
                    out[m] = total
                else:
                    del out[m]
            op = self.peek()[0]
            if op != "+" and op != "-":
                return Polynomial._make(self.table, out, den)
            self.advance()
            sign = 1 if op == "+" else -1

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            q = self.factor()
            if isinstance(p, Polynomial) or isinstance(q, Polynomial):
                p = self.polynomial(p) * self.polynomial(q)
            elif p[0] and q[0]:
                if (p[2] + q[2]) >> self.table._top >= _LIMIT:  # as `*` checks it
                    raise PolynomialError(f"product of total degree beyond {_LIMIT - 1}")
                p = (p[0] * q[0], p[1] * q[1], p[2] + q[2])
            else:
                p = (0, 1, 0)
        return p

    def polynomial(self, p) -> Polynomial:
        """A term as a `Polynomial`."""
        if isinstance(p, Polynomial):
            return p
        return Polynomial._make(self.table, {p[2]: p[0]}, p[1]) if p[0] else self.table.zero

    def factor(self):
        p = self.base()
        if self.peek()[0] == "^":
            self.advance()
            e = self.expect("int")[1]
            if isinstance(p, Polynomial):
                return p**e
            if e * (p[2] >> self.table._top) >= _LIMIT:  # as `**` checks it
                raise PolynomialError(f"exponent must be a non-negative integer that keeps the degree below {_LIMIT}")
            return (p[0] ** e, p[1] ** e, p[2] * e)
        return p

    def base(self):
        t = self.advance()
        kind, value, pos = t
        if kind == "int":
            if self.peek()[0] != "/":
                return (value, 1, 0)
            self.advance()
            _, d, at = self.expect("int")
            if d == 0:
                raise ParseError("zero denominator", at)
            g = gcd(value, d)
            return (value // g, d // g, 0)
        if kind == "ident":
            if value not in self.table:
                raise ParseError(f"unknown variable {value!r}", pos)
            return (1, 1, 1 << self.table._top | 1 << self.table._shifts[self.table._index[value]])
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        if kind == "-":
            p = self.factor()
            return -p if isinstance(p, Polynomial) else (-p[0], p[1], p[2])
        raise ParseError(f"unexpected {_found(t)}", pos)


def parse_polynomial(text: str, table: VariableTable = DEFAULT_TABLE) -> Polynomial:
    """Parse an expression into a canonical Polynomial over `table`.

    Raises ParseError (with position) on syntax errors or unknown names.
    """
    return _Parser(text, table).parse()
