"""The tuple-keyed polynomial arithmetic that `lieschouten.poly` used before
it packed each monomial into one integer, kept as the reference the
property in `test_poly.py` compares `Polynomial` with; and the parser that
built one `Polynomial` per token before `poly._Parser` folded each product
of numbers and variables into one term, kept as `reference_parse`.

A monomial here is an exponent tuple, one entry per table variable, and
graded-lex order is the key (total degree, exponent tuple).  The numerators
and their one common denominator are normalised as in `Polynomial`, and
every loop keeps its order, so the `terms` of a result list the same
monomials in the same order.  There is no exponent bound.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

from lieschouten.poly import ParseError, Polynomial, VariableTable, _tokenize


def _grlex(m):
    """Graded-lex key: total degree first, then the exponent vector."""
    return (sum(m), m)


def _divides(a, b):
    """Whether the monomial `a` divides `b`."""
    return all(x <= y for x, y in zip(a, b))


class ReferencePolynomial:
    def __init__(self, table: VariableTable, terms):
        clean = {m: Fraction(c) for m, c in terms.items() if c}
        assert all(len(m) == len(table) for m in terms)
        den = lcm(*(c.denominator for c in clean.values()))
        self.table = table
        self._num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den

    @classmethod
    def _make(cls, table, num, den):
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: n // g for m, n in num.items()}
                den //= g
        self = object.__new__(cls)
        self.table, self._num, self._den = table, num, den
        return self

    @property
    def terms(self):
        den = self._den
        return {m: Fraction(n, den) for m, n in self._num.items()}

    def _merge(self, other, subtract):
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
        return ReferencePolynomial._make(self.table, out, den)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return ReferencePolynomial._make(self.table, {m: -n for m, n in self._num.items()}, self._den)

    def __mul__(self, other):
        if not self._num or not other._num:
            return ReferencePolynomial._make(self.table, {}, 1)
        out = {}
        b = other._num.items()
        for ma, ca in self._num.items():
            for mb, cb in b:
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return ReferencePolynomial._make(self.table, {m: n for m, n in out.items() if n}, self._den * other._den)

    def __pow__(self, n):
        result = ReferencePolynomial(self.table, {(0,) * len(self.table): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree_in(self, var):
        i = self.table.index(var)
        return max((m[i] for m in self._num), default=0)

    def coefficient_of(self, var, power):
        i = self.table.index(var)
        return ReferencePolynomial._make(
            self.table, {m[:i] + (0,) + m[i + 1 :]: n for m, n in self._num.items() if m[i] == power}, self._den
        )

    def substitute(self, var, replacement):
        i = self.table.index(var)
        by_power = {}
        for m, n in self._num.items():
            stripped = m[:i] + (0,) + m[i + 1 :]
            by_power.setdefault(m[i], {})[stripped] = n
        result = ReferencePolynomial._make(self.table, {}, 1)
        for power, num in sorted(by_power.items()):
            partial = ReferencePolynomial._make(self.table, num, self._den)
            result = result + partial * replacement**power
        return result

    def leading_monomial(self):
        return max(self._num, key=_grlex)

    def normal_form(self, basis):
        out = self.terms
        rem = {}
        divisor_terms = [(g.leading_monomial(), g.terms) for g in basis if g._num]
        while out:
            m = max(out, key=_grlex)
            for lead, g in divisor_terms:
                if _divides(lead, m):
                    shift = tuple(e - le for e, le in zip(m, lead))
                    factor = out[m] / g[lead]
                    for gm, gc in g.items():
                        key = tuple(a + b for a, b in zip(shift, gm))
                        out[key] = out.get(key, 0) - factor * gc
                        if not out[key]:
                            del out[key]
                    break
            else:
                rem[m] = rem.get(m, 0) + out.pop(m)
        return ReferencePolynomial(self.table, rem)

    def __str__(self):
        if not self._num:
            return "0"
        pieces = []
        den = self._den
        ordered = sorted(self._num.items(), key=lambda item: _grlex(item[0]), reverse=True)
        for k, (m, n) in enumerate(ordered):
            factors = []
            for name, e in zip(self.table.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
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


def integer_point(values):
    """A point's values as its integer form (numerators, L): L the lcm of the
    value denominators, and each value times L, an int or an integer Surd.
    It is the one point form that `IntegerKernel.scaled`, `solve_for_c` and
    `case_matches_point` take; the package makes a point in it and never
    converts one, so the tests, which write points as values, convert here."""
    scale = lcm(*[v.denominator for v in values.values()])
    return {n: v.numerator * (scale // v.denominator) for n, v in values.items()}, scale


def kernel_at(kernel, point):
    """`kernel.scaled` at the `integer_point` of the values of `point` that
    the kernel reads: L is the lcm of those values' denominators alone, so
    the integers do not depend on names the kernel ignores."""
    return kernel.scaled(*integer_point({n: point[n] for n in kernel.names if n in point}))


# -- the parser that built one Polynomial per token ---------------------------
#
# Grammar:
#   expr     := term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' nat)?
#   base     := rational | ident | '(' expr ')' | '-' factor
#   rational := nat ('/' nat)?


def _found(token):
    return "end of input" if token[0] == "end" else f"token {token[1]!r}"


class _ReferenceParser:
    def __init__(self, text: str, table: VariableTable):
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        t = self.tokens[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, kind):
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

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self):
        p = self.base()
        if self.peek()[0] == "^":
            self.advance()
            p = p ** self.expect("int")[1]
        return p

    def base(self):
        t = self.advance()
        kind, value, pos = t
        if kind == "int":
            if self.peek()[0] == "/":
                self.advance()
                dt = self.expect("int")
                if dt[1] == 0:
                    raise ParseError("zero denominator", dt[2])
                return self.table.const(Fraction(value, dt[1]))
            return self.table.const(value)
        if kind == "ident":
            if value not in self.table:
                raise ParseError(f"unknown variable {value!r}", pos)
            return self.table.var(value)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        if kind == "-":
            return -self.factor()
        raise ParseError(f"unexpected {_found(t)}", pos)


def reference_parse(text: str, table: VariableTable) -> Polynomial:
    """`text` parsed token by token: each number and variable one
    `Polynomial`, combined by the ring operations in grammar order."""
    return _ReferenceParser(text, table).parse()
