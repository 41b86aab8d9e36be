"""The seven three-dimensional Lorentzian Lie algebra families and friends.

Each family is given by its bracket table on a pseudo-orthonormal basis
(e1, e2, e3) with e3 timelike, together with the parameter side conditions
that come with it: polynomial equality constraints that must vanish and
polynomials that must not vanish.  Structure constants are polynomials in
the shared variable table, so everything downstream (connections,
curvature, soliton systems) stays exact.

The family g4 carries a discrete parameter eta in {+1, -1}; it is
instantiated at construction time, so no polynomial ever contains a
symbolic eta (its defining relation eta^2 = 1 would otherwise leak
quotient-ring arithmetic into the whole pipeline).

`sample_parameters` draws exact points that meet the side conditions.  A
draw (`draw_point`) is integer from the start: each value is written over
one common denominator L as it is drawn, and that integer form (nums, L)
is the only form a draw is kept in.  The kernels that decide it, and the
scan's after it (through `sample_scaled`), read it as it is; a point's
values are made from it by `point_values`, only where it is printed or
evaluated.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

from .poly import (
    DEFAULT_TABLE,
    IntegerKernel,
    Polynomial,
    Surd,
    VariableTable,
    exact_sqrt,
    one_field,
    parse_polynomial,
    quotient,
    sum_of_products,
)

Vector = tuple[Polynomial, Polynomial, Polynomial]
Value = Union[Fraction, Surd]  # an exact parameter value
Draw = tuple[dict, int]  # (nums, L), a point's integer form as `draw_point` gives it

FAMILY_IDS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")

# Per-branch derived data (family, sample, connection, Ricci data, soliton
# system) is memoized on its arguments' values.  Each verify_all section
# sweeps all 24 catalogued branches (8 family branches, g4 having two
# signs, x 3 kinds) in turn, and an LRU smaller than one sweep never hits;
# the bound stays finite so that a caller building many custom families
# does not keep all of them alive.
BRANCH_CACHE_SIZE = 32


# The Lorentzian metric g(e_i, e_j) = eps_i * delta_ij, e3 timelike.
LORENTZIAN_EPS = (1, 1, -1)

# Product structure J = diag(1, 1, -1): J e1 = e1, J e2 = e2, J e3 = -e3.
PRODUCT_STRUCTURE_J = (1, 1, -1)


class StructureConstants(NamedTuple):
    """Brackets [e_i, e_j] = sum_k c[i][j][k] e_k, antisymmetric in (i, j)."""

    c: tuple[tuple[Vector, Vector, Vector], ...]


class LieAlgebraFamily(NamedTuple):
    family_id: str
    structure: StructureConstants
    equality_constraints: tuple[Polynomial, ...]
    nonvanishing: tuple[Polynomial, ...]
    eta: Optional[int]
    table: VariableTable
    parameters: tuple[str, ...]  # variables occurring in brackets/constraints

    def describe(self) -> str:
        eta = f", eta={self.eta:+d}" if self.eta is not None else ""
        return f"{self.family_id}{eta}"


# Bracket tables: entries are expressions for ([e1,e2], [e1,e3], [e2,e3]).
_BRACKETS = {
    "g1": (("alpha", "0", "-beta"), ("-alpha", "-beta", "0"), ("beta", "alpha", "alpha")),
    "g2": (("0", "gamma", "-beta"), ("0", "-beta", "-gamma"), ("alpha", "0", "0")),
    "g3": (("0", "0", "-gamma"), ("0", "-beta", "0"), ("alpha", "0", "0")),
    "g4": (("0", "-1", "2*eta - beta"), ("0", "-beta", "1"), ("alpha", "0", "0")),
    "g5": (("0", "0", "0"), ("alpha", "beta", "0"), ("gamma", "delta", "0")),
    "g6": (("0", "alpha", "beta"), ("0", "gamma", "delta"), ("0", "0", "0")),
    "g7": (
        ("-alpha", "-beta", "-beta"),
        ("alpha", "beta", "beta"),
        ("gamma", "delta", "delta"),
    ),
}

_EQUALITY = {
    "g5": ("alpha*gamma + beta*delta",),
    "g6": ("alpha*gamma - beta*delta",),
    "g7": ("alpha*gamma",),
}

_NONVANISHING = {
    "g1": ("alpha",),
    "g2": ("gamma",),
    "g5": ("alpha + delta",),
    "g6": ("alpha + delta",),
    "g7": ("alpha + delta",),
}


def _assemble_family(
    family_id: str,
    pair_rows: dict[tuple[int, int], Vector],
    equality: tuple[Polynomial, ...],
    nonvanishing: tuple[Polynomial, ...],
    eta: Optional[int] = None,
) -> LieAlgebraFamily:
    """The antisymmetric bracket table plus the parameters it and its side
    conditions use, in table order."""
    table = DEFAULT_TABLE
    zero: Vector = (table.zero, table.zero, table.zero)
    grid = [[zero for _ in range(3)] for _ in range(3)]
    for (i, j), vec in pair_rows.items():
        grid[i][j] = vec
        grid[j][i] = tuple(-p for p in vec)  # type: ignore[assignment]
    polys = [q for vec in pair_rows.values() for q in vec] + list(equality + nonvanishing)
    used = set().union(*(q.variables() for q in polys))
    return LieAlgebraFamily(
        family_id=family_id,
        structure=StructureConstants(tuple(tuple(row) for row in grid)),
        equality_constraints=equality,
        nonvanishing=nonvanishing,
        eta=eta,
        table=table,
        parameters=tuple(n for n in table.names if n in used),
    )


def build_family(family_id: str, eta: Optional[int] = None) -> LieAlgebraFamily:
    """Construct one of g1..g7 over DEFAULT_TABLE, the table of the
    catalogue, once per argument value, however the arguments are spelled.

    `eta` must be +1 or -1 for g4 and omitted otherwise.
    """
    return _build_family(family_id, eta)


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def _build_family(family_id: str, eta: Optional[int]) -> LieAlgebraFamily:
    """`build_family`, memoised on its positional arguments."""
    if family_id not in _BRACKETS:
        raise ValueError(f"unknown family {family_id!r} (expected one of {FAMILY_IDS})")
    if family_id == "g4":
        if eta not in (1, -1):
            raise ValueError("g4 requires eta=+1 or eta=-1")
    elif eta is not None:
        raise ValueError(f"{family_id} does not take an eta branch")

    def prep(text: str) -> Polynomial:
        return instantiate_eta(parse_polynomial(text), eta)

    rows = {
        pair: tuple(prep(t) for t in texts)
        for pair, texts in zip(((0, 1), (0, 2), (1, 2)), _BRACKETS[family_id])
    }
    equality = tuple(prep(t) for t in _EQUALITY.get(family_id, ()))
    nonvanishing = tuple(prep(t) for t in _NONVANISHING.get(family_id, ()))
    return _assemble_family(family_id, rows, equality, nonvanishing, eta)  # type: ignore[arg-type]


def family_branches(family_id: str) -> list[LieAlgebraFamily]:
    """Every branch of a catalogued family: both eta signs for g4, else one."""
    etas = (1, -1) if family_id == "g4" else (None,)
    return [build_family(family_id, eta=eta) for eta in etas]


def instantiate_eta(q: Polynomial, eta: Optional[int]) -> Polynomial:
    """`q` on one eta branch: a symbolic eta becomes the branch's sign."""
    if eta is not None and "eta" in q.variables():
        return q.substitute("eta", eta)
    return q


def custom_family(text: str) -> LieAlgebraFamily:
    """Build a custom algebra over DEFAULT_TABLE from its key/value
    description.

    Recognized keys (one `key = value` pair per line, '#' starts a comment):

        bracket.12 = expr, expr, expr     components of [e1, e2]
        bracket.13 = expr, expr, expr     components of [e1, e3]
        bracket.23 = expr, expr, expr     components of [e2, e3]
        constraints = expr; expr; ...     polynomials required to vanish
        nonvanishing = expr; expr; ...    polynomials required to be nonzero

    Missing bracket keys default to zero.  The names lambda0 and c are
    reserved for the soliton unknowns: a value that uses one raises
    ValueError naming its key.  The Jacobi identity is not enforced; use
    `jacobi_residuals` to inspect it.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()

    def parse(key: str, part: str) -> Polynomial:
        q = parse_polynomial(part)
        for name in ("lambda0", "c"):
            if name in q.variables():
                raise ValueError(f"{key}: {name} is reserved for the soliton unknowns")
        return q

    def parse_vector(key: str) -> Vector:
        parts = entries[key].split(",")
        if len(parts) != 3:
            raise ValueError(f"{key}: expected three comma-separated expressions")
        return tuple(parse(key, part) for part in parts)  # type: ignore[return-value]

    def parse_list(key: str) -> tuple[Polynomial, ...]:
        value = entries.get(key, "")
        return tuple(parse(key, part) for part in value.split(";") if part.strip())

    keys = {(0, 1): "bracket.12", (0, 2): "bracket.13", (1, 2): "bracket.23"}
    rows = {pair: parse_vector(key) for pair, key in keys.items() if key in entries}
    return _assemble_family("custom", rows, parse_list("constraints"), parse_list("nonvanishing"))


def bracket(fam: LieAlgebraFamily, x: Sequence[Polynomial], y: Sequence[Polynomial]) -> Vector:
    """Bilinear, antisymmetric extension of the bracket table to vectors."""
    table = fam.table
    out = [table.zero, table.zero, table.zero]
    for i in range(3):
        if x[i].is_zero:
            continue
        for j in range(3):
            if i == j or y[j].is_zero:
                continue
            coeff = x[i] * y[j]
            for k, comp in enumerate(fam.structure.c[i][j]):
                if not comp.is_zero:
                    out[k] = out[k] + coeff * comp
    return (out[0], out[1], out[2])


def jacobi_residuals(fam: LieAlgebraFamily) -> Vector:
    """Components of [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2].

    Identically zero exactly when the table defines a Lie algebra; for
    custom algebras the residuals are reported, never enforced.  The e_m
    component is one `sum_of_products` of C_ij^l C_lk^m, (i, j, k) cyclic.
    """
    c = fam.structure.c
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return tuple(
        sum_of_products(fam.table, [(1, c[i][j][l], c[l][k][m]) for i, j, k in cyclic for l in range(3)])
        for m in range(3)
    )


# -- constrained parameter sampling -------------------------------------------

# Draws come from {-3..3} scaled by 1/d for d in {1,2,3}; _SCALE, the lcm
# of the d, writes each one as an integer numerator n*_SCALE//d.
_NUMERATORS = tuple(range(-3, 4))
_DENOMINATORS = (1, 2, 3)
_SCALE = 6


class SamplingError(ValueError):
    """The sampler cannot meet a family's side conditions: a constraint has
    degree above 2 in every variable it could be solved for, or no draw
    satisfies them all."""


def draw_rational(rng: random.Random) -> Fraction:
    """One exact draw from the sampling pool (numerator first, then denominator)."""
    return Fraction(*_pool_draw(rng.getrandbits))


def _pool_draw(getrandbits) -> tuple[int, int]:
    """(numerator, denominator) of one pool draw, each index drawn as
    `Random.choice` draws it from a pool of 7 and of 3 (`Random._randbelow`:
    3 and 2 random bits per try until one is in range), so the stream is
    that of `choice`, without its method calls."""
    i, j = 7, 3
    while i >= 7:
        i = getrandbits(3)
    while j >= 3:
        j = getrandbits(2)
    return _NUMERATORS[i], _DENOMINATORS[j]


def _split(constraint: Polynomial, taken: set[str]) -> Optional[tuple[str, tuple[Polynomial, ...]]]:
    """(var, (c0, c1)) with constraint = c1*var + c0, for the last table
    variable outside `taken` in which `constraint` is linear, else
    (var, (c0, c1, c2)) with c2*var^2 added, for the last one in which it is
    quadratic; the c_k are free of var.  None if there is neither."""
    for degree in (1, 2):
        found = [n for n in constraint.table.names if n not in taken and constraint.degree_in(n) == degree]
        if found:
            return found[-1], tuple(constraint.coefficient_of(found[-1], k) for k in range(degree + 1))
    return None


def _root(coefficients: Sequence[Value], rng: random.Random):
    """A root of sum c_k*x^k over the values (c0, c1) or (c0, c1, c2): by
    the quadratic formula when c2 != 0, the sign of its root drawn; "free"
    if every c_k is 0; None if there is none, or if the discriminant is a
    Surd, whose root would be a second root."""
    if len(coefficients) == 3 and coefficients[2]:
        c0, c1, c2 = coefficients
        root = exact_sqrt(c1 * c1 - 4 * c2 * c0)
        if root is None:
            return None
        return quotient(-c1 + (root if rng.random() < 0.5 else -root), 2 * c2)
    c0, c1 = coefficients[:2]
    if c1:
        return quotient(-c0, c1)
    return "free" if not c0 else None


def sample_parameters(fam: LieAlgebraFamily, seed: int, count: int) -> list[dict[str, Value]]:
    """Deterministic exact parameter points satisfying the family side conditions.

    Each equality constraint, in listed order, is solved for the last
    variable that appears linearly in it and that no earlier constraint
    solves, else for the last such variable in which it is quadratic, and
    the rest are drawn from a small rational pool.  A quadratic is solved by
    the quadratic formula: an irrational root is a `Surd`, and a draw that
    would need a second square root, beside one already drawn or nested in
    it, is rejected.  A constraint of degree above 2 in every variable it
    could be solved for raises SamplingError; one whose variables an
    earlier constraint solves is only checked.  Each constraint is solved
    after every other one whose solved variable it reads, so no later step
    moves a variable that an earlier one read, where such an order exists.
    A point is kept only if every equality constraint holds exactly and no
    nonvanishing polynomial vanishes.  Each split's coefficients, and the
    side conditions, are compiled once per call.  Without `count` points
    after 200*count + 1000 draws it raises SamplingError.
    """
    return [point_values(*form) for form in sample_scaled(fam, seed, count)]


def point_values(nums: dict, scale: int) -> dict[str, Value]:
    """The values {n: nums[n] / L} of an integer form (nums, L)."""
    return {name: quotient(num, scale) for name, num in nums.items()}


def sample_scaled(fam: LieAlgebraFamily, seed: int, count: int) -> list[Draw]:
    """The points of `sample_parameters` in their integer forms, as
    `draw_point` gives them."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    splits: dict[Polynomial, Optional[tuple[str, tuple[Polynomial, ...]]]] = {}
    for con in fam.equality_constraints:
        taken = {split[0] for split in splits.values() if split is not None}
        splits[con] = _split(con, taken)
        if splits[con] is None and con.variables() - taken:
            raise SamplingError(f"constraint {con} has degree above 2 in every variable it could be solved for")
    splits = {con: splits[con] for con in _solve_order({con: split and split[0] for con, split in splits.items()})}
    # a target that a constraint solved before it reads is drawn as well
    solved: set[str] = set()
    read: set[str] = set()
    for con, split in splits.items():
        if split is not None and split[0] not in read:
            solved.add(split[0])
        read |= con.variables()
    pool = [name for name in fam.parameters if name not in solved]
    roots = [(var, IntegerKernel(fam.table, coefficients)) for var, coefficients in filter(None, splits.values())]
    # nonzero where it must be, then zero on every constraint
    side = IntegerKernel(fam.table, fam.nonvanishing + fam.equality_constraints)

    points: list[Draw] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise SamplingError(
                f"no draw of {fam.family_id} meets its side conditions: {len(points)} of {count} points"
                f" after {attempts - 1} draws"
            )
        drawn = draw_point(rng, pool, roots, side, len(fam.nonvanishing))
        if drawn is not None:
            points.append(drawn)
    return points


def draw_point(
    rng: random.Random,
    pool: Sequence[str],
    roots: Sequence[tuple[str, IntegerKernel]],
    side: IntegerKernel,
    nonzero: int,
) -> Optional[Draw]:
    """One draw of a constrained point as its integer form (nums, L), the
    value of n being nums[n] / L for an int or integer Surd nums[n]; None if
    rejected.

    Each name of `pool` is drawn from the sampling pool, in order, and
    written straight to its numerator over L = 6.  Then each (var, kernel)
    of `roots` sets var to a root, by `_root`, of the kernel's coefficients
    (c0, c1) or (c0, c1, c2) at (nums, L): a var they leave free is drawn,
    and a draw with no root, or whose root is a second square root, is
    rejected.  L grows to its lcm with a root's denominator only where that
    does not divide it, so L is the lcm of 6 and every value's denominator:
    equal points have one form.  The point is kept only if the first
    `nonzero` values of `side` are nonzero and the rest are zero.  The one
    draw of `sample_parameters` and of the sampled ladder rung.
    """
    nums, scale, getrandbits = {}, _SCALE, rng.getrandbits
    for name in pool:  # each a draw_rational, as its numerator over _SCALE
        n, d = _pool_draw(getrandbits)
        nums[name] = n * _SCALE // d
    for var, kernel in roots:
        sol = _root(kernel.scaled(nums, scale), rng)
        if sol is None:
            return None
        sol = draw_rational(rng) if sol == "free" else sol
        if isinstance(sol, Surd) and not one_field([sol, *nums.values()]):
            return None
        den = sol.denominator
        if scale % den:
            grow = den // gcd(scale, den)
            scale *= grow
            nums = {name: num * grow for name, num in nums.items()}
        nums[var] = sol.numerator * (scale // den)
    out = side.scaled(nums, scale)
    return (nums, scale) if all(out[:nonzero]) and not any(out[nonzero:]) else None


def _solve_order(targets: dict[Polynomial, Optional[str]]) -> list[Polynomial]:
    """The constraints in listed order, except that each one comes after
    every other one whose target variable it reads.  Where no such order
    exists, as for two constraints that read each other's targets, the
    listed one stays."""
    order, pending = [], list(targets)
    while pending:
        ready = [con for con in pending if not any(targets[o] in con.variables() for o in pending if o is not con)]
        order.append(ready[0] if ready else pending[0])
        pending.remove(order[-1])
    return order
