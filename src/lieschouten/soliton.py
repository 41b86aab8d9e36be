"""Algebraic Schouten soliton systems and their verification machinery.

For a family with (symmetrized where applicable) Ricci operator Ric~,
scalar curvature s and raised Schouten form Sch~ (rho - s*lambda0*g with
its index raised), the candidate derivation is

    D = Sch~ - c * Id = Ric~ - mu * Id,   mu = s*lambda0 + c,

and the metric Lie algebra is an algebraic Schouten soliton exactly when D
is a derivation of the bracket: D[X,Y] = [DX,Y] + [X,DY].  Expanding this
over the basis pairs (e1,e2), (e1,e3), (e2,e3) gives nine polynomial
residuals in the family parameters, lambda0, and c.  Subtracting mu*Id
from an operator adds mu*C_ij^m to its residual on [e_i,e_j].e_m, so the
residuals are built as those of Ric~, which is free of lambda0 and c, plus
mu*C_ij^m: lambda0 and c enter only through mu, and each residual is
P + Q*lambda0 + R*c with Q = s*R.

Classification claims are represented as TheoremCase values: parameter
substitutions, an expression for c (or "c stays free"), optional quadratic
side relations, nonvanishing hypotheses, and a rational witness point on
the case locus.  Verification climbs an evidence ladder:

    exact      residuals are zero polynomials after the substitutions,
    reduced    every residual lies in the ideal of the substituted family
               constraints and the case's relations var^2 - rhs,
    sampled    zero at LADDER_SAMPLES (120) seeded points on the case locus,
    unsampled  the locus sampler gave up before enough points were drawn,
    failed     a counterexample point is recorded.

Cases marked suspect carry a variant (a small, principled correction);
both the stated and variant data are verified and reported.

Everything is decided exactly, in integers, by `poly.IntegerKernel`s at a
point's one form, (nums, L) with values nums[n]/L: Fractions, or
`poly.Surd`s of one quadratic field where a square root enters (a
quadratic constraint, a case's relation var^2 - rhs, the witness
beta = sqrt(2) of 4.11.2), as drawn or as `_CompiledCase` makes a witness.
lambda0 is rational, and any other lambda0 raises TypeError.
`_compiled_decomposition` checks the residual shape once per system and
compiles the P, Q, R of the nonzero residuals to one kernel.  `_c_form`,
the c solve of `scan` and `solve_for_c`, decides a point's kernel values
once, with no lambda0 in the test, into one form: no c, every c, or
(P_0, Q_0, R_0) with c = -(d*P_0 + n*Q_0)/(d*R_0) at lambda0 = n/d.
`negative_control` reads the same kernel at the witness, and c_expr from
the case's `c_kernel`.  `scan` takes its sample from the branch memo
`_branch_sample`, shared by the connections, which keeps each distinct
point in its integer form and nothing else: the kernel and `_c_form` run
once per distinct point.  A `ScanReport` is a table of the shared integer
forms and one `_c_form` per distinct point; its values
(`algebras.point_values`) and `CSolution`s are built only on request.  A
case's data on one eta branch is one `_Substitution`, which applies its
substitutions in listed order for every consumer.  The sampled rung
compiles the case locus once per ladder branch (`_locus_plan`) into the
arguments of `draw_point`; lambda0, and c where the claim leaves it free,
are drawn after it only when the locus left them unassigned.  Case
membership is `_CompiledCase`, compiled once per (case, eta): the
polynomials that must vanish on a case's locus, the hypotheses that must
not, the coefficients of c_expr in lambda0, and the witness.  `_holds`
compares a point's form with c_expr as one polynomial in lambda0, which is
zero wherever the case keeps the lambda0 law, so `scan_membership` decides
each distinct point once for the grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .algebras import (
    BRANCH_CACHE_SIZE,
    Draw,
    LieAlgebraFamily,
    Value,
    _split,
    build_family,
    draw_point,
    draw_rational,
    family_branches,
    instantiate_eta,
    point_values,
    sample_scaled,
)
from .geometry import OperatorMatrix, ricci_pipeline
from .poly import (
    DEFAULT_TABLE,
    IntegerKernel,
    Polynomial,
    PolynomialError,
    VariableTable,
    groebner_basis,
    quotient,
    sum_of_products,
)

PAIRS = ((0, 1), (0, 2), (1, 2))

WitnessValue = Union[Value, Polynomial]


# The one record that stays a frozen dataclass, the rest being named
# tuples: a perturbed system is derived from it with `dataclasses.replace`.
@dataclass(frozen=True)
class SolitonSystem:
    """Nine derivation residuals plus the family side conditions."""

    family_id: str
    kind: str
    eta: Optional[int]
    table: VariableTable
    residuals: tuple[Polynomial, ...]  # pair-major: (1,2) then (1,3) then (2,3)
    constraints: tuple[Polynomial, ...]
    nonvanishing: tuple[Polynomial, ...]

    def residual_labels(self) -> list[str]:
        return [f"[e{i+1},e{j+1}].e{k+1}" for (i, j) in PAIRS for k in range(3)]


def _residual_products(
    d: OperatorMatrix, fam: LieAlgebraFamily, i: int, j: int, m: int
) -> list[tuple[int, Polynomial, Polynomial]]:
    """The e_m component of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] as the
    signed products of sum_k (C_ij^k D_km - D_ik C_kj^m - D_jk C_ik^m), for
    `sum_of_products`, which skips those with a zero factor.

    Nine products where m is neither i nor j, seven where m is one of them:
    at k = m = i the first and second products are C_ij^i D_ii and
    -D_ii C_ij^i, and at k = m = j the first and third are C_ij^j D_jj and
    -D_jj C_ij^j, the same two factors with opposite signs, so that pair
    cancels for every D and is not listed.
    """
    c = fam.structure.c
    rows = d.entries
    out = []
    for k in range(3):
        if k == m == i:
            out.append((-1, rows[j][k], c[i][k][m]))
        elif k == m == j:
            out.append((-1, rows[i][k], c[k][j][m]))
        else:
            out += ((1, c[i][j][k], rows[k][m]), (-1, rows[i][k], c[k][j][m]), (-1, rows[j][k], c[i][k][m]))
    return out


def derivation_residuals(d: OperatorMatrix, fam: LieAlgebraFamily) -> list[Polynomial]:
    """Components of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] for the three pairs.

    Returns nine polynomials in the fixed order pair (1,2), (1,3), (2,3),
    coordinates e1, e2, e3 within each pair, each one `sum_of_products`
    over the products `_residual_products` lists: nine, or seven on the
    coordinates e_i and e_j of the pair (e_i, e_j), where one pair of
    products cancels for every D.
    """
    table = fam.table
    return [sum_of_products(table, _residual_products(d, fam, i, j, m)) for (i, j) in PAIRS for m in range(3)]


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def soliton_system(fam: LieAlgebraFamily, kind: str) -> SolitonSystem:
    """The nine residuals of D = Ric~ - mu*Id, mu = s*lambda0 + c, built
    once per (family, kind) value.

    The residuals are those of the Ricci operator, which is free of lambda0
    and c, plus mu*C_ij^m: the identity contributes -C_ij^m + C_ij^m +
    C_ij^m to the residual on [e_i, e_j].e_m.  That shift is one more
    product, (1, mu, C_ij^m), in the residual's single `sum_of_products`.
    No family's brackets use lambda0 or c (`custom_family` rejects them).
    """
    _, op, s = ricci_pipeline(fam, kind)
    table = fam.table
    mu = s * table.var("lambda0") + table.var("c")
    c = fam.structure.c
    residuals = tuple(
        sum_of_products(table, _residual_products(op, fam, i, j, m) + [(1, mu, c[i][j][m])])
        for (i, j) in PAIRS
        for m in range(3)
    )
    return SolitonSystem(
        family_id=fam.family_id,
        kind=kind,
        eta=fam.eta,
        table=fam.table,
        residuals=residuals,
        constraints=fam.equality_constraints,
        nonvanishing=fam.nonvanishing,
    )


def serialize_system(system: SolitonSystem) -> str:
    """Stable text form: header, residuals in fixed order, side conditions."""
    lines = [
        f"family\t{system.family_id}",
        f"kind\t{system.kind}",
        f"eta\t{system.eta if system.eta is not None else '-'}",
        f"variables\t{','.join(system.table.names)}",
    ]
    for label, r in zip(system.residual_labels(), system.residuals):
        lines.append(f"residual\t{label}\t{r}")
    for q in system.constraints:
        lines.append(f"constraint\t{q}")
    for q in system.nonvanishing:
        lines.append(f"nonvanishing\t{q}")
    return "\n".join(lines) + "\n"


# -- solving for c -------------------------------------------------------------


class CSolution(NamedTuple):
    """Outcome of solving the residual system for c at one point."""

    status: str  # "unique" | "any" | "none"
    value: Optional[Value] = None


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def _compiled_decomposition(system: SolitonSystem) -> IntegerKernel:
    """Per residual that is not identically zero, (P, Q, R) with
    residual = P + Q*lambda0 + R*c, compiled to one integer kernel that
    returns P_0, Q_0, R_0, P_1, ..., as `_c_form` takes them, once per
    system value.  A zero residual holds for every c.  The one check of the
    residual shape: P, Q and R are free of lambda0 and c, and Q = s*R for
    one polynomial s, that is Q_i*R_0 == Q_0*R_i with R_0 | Q_0 for the
    first nonzero R_0, else every Q is zero.  The division keeps every Q
    zero at a point where every R is.  Any other system raises
    `PolynomialError`.
    """
    lam, c = system.table.var("lambda0"), system.table.var("c")
    out = []
    for r in system.residuals:
        if r.is_zero:
            continue
        rest = r.coefficient_of("c", 0)
        p, q, rc = rest.coefficient_of("lambda0", 0), rest.coefficient_of("lambda0", 1), r.coefficient_of("c", 1)
        if r != p + q * lam + rc * c or rc.degree_in("lambda0"):
            raise PolynomialError(f"residual not of the form P + Q*lambda0 + R*c: {r}")
        out.append((p, q, rc))
    q0, r0 = next(((q, rc) for _, q, rc in out if not rc.is_zero), (None, None))
    if r0 is None:
        mu_form = all(q.is_zero for _, q, _ in out)
    else:
        mu_form = q0.normal_form([r0]).is_zero and all(q * r0 == q0 * rc for _, q, rc in out)
    if not mu_form:
        raise PolynomialError("lambda0 and c do not enter the residuals only through s*lambda0 + c")
    return IntegerKernel(system.table, [q for triple in out for q in triple])


_NO_SOLUTION = CSolution("none")
_ANY_C = CSolution("any")


def _pairs(grid: Sequence[Rational]) -> list[tuple[int, int]]:
    """Each lambda0 of `grid` as (numerator, denominator)."""
    return [(lam.numerator, lam.denominator) for lam in grid]


def _rational(lambda0_values: Iterable[Rational]) -> tuple[Rational, ...]:
    """The lambda0 values, each an int or a Fraction, else TypeError: the
    c solve is exact, so lambda0 is a rational."""
    out = tuple(lambda0_values)
    for lam in out:
        if not isinstance(lam, Rational):
            raise TypeError(f"lambda0 must be an int or a Fraction, not {lam!r}")
    return out


def _c_form(out: Sequence[Value]) -> Optional[tuple]:
    """The c solve at one point, free of lambda0, from its
    `_compiled_decomposition` values P_0, Q_0, R_0, P_1, ... (integers or
    integer Surds, scaled by one positive factor): None where no c solves,
    () where every c does, else the pivot's (P_0, Q_0, R_0), the c at
    lambda0 = n/d being -(d*P_0 + n*Q_0)/(d*R_0).  In mu-form, Q_i = s*R_i,
    each row is R_i*(c + s*lambda0) + P_i: the first row with R != 0 is the
    pivot, and every row must satisfy R_i*P_0 == R_0*P_i (so P_i == 0 where
    R_i == 0).  With no pivot every Q is zero too, and every c solves
    exactly when every P is zero."""
    p0 = q0 = r0 = 0
    for p, q, r in zip(out[0::3], out[1::3], out[2::3]):
        if r0:
            if r * p0 != r0 * p:
                return None
        elif r:
            p0, q0, r0 = p, q, r
        elif p:
            return None
    return (p0, q0, r0) if r0 else ()


def _c_solutions(form: Optional[tuple], grid: Sequence[tuple[int, int]]) -> tuple[CSolution, ...]:
    """The `CSolution`s of a `_c_form`, one per lambda0 = n/d, d > 0, of
    `grid`; one division each."""
    if not form:
        return (_ANY_C if form == () else _NO_SOLUTION,) * len(grid)
    p0, q0, r0 = form
    return tuple(CSolution("unique", quotient(-(d * p0 + n * q0), d * r0)) for n, d in grid)


def solve_for_c(system: SolitonSystem, point: Draw, lambda0_value: Rational) -> CSolution:
    """Solve all residuals simultaneously for c at a point's integer form.

    Residuals are degree <= 1 in c by construction, so the system is a set
    of scalar linear equations a_i*c + b_i = 0, decided exactly by `_c_form`
    at the point's kernel values, which does not change under scaling.
    """
    form = _c_form(_compiled_decomposition(system).scaled(*point))
    return _c_solutions(form, _pairs(_rational([lambda0_value])))[0]


# -- scanning -----------------------------------------------------------------

DEFAULT_LAMBDA0_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(-1),
)


class ScanReport(NamedTuple):
    """A scan as a table over the branch memo's sample: `slots` holds each
    drawn point's distinct index, and per distinct point `scaled` holds its
    integer form and `forms` its `_c_form`.  `rows` (one tuple of c
    solutions per point, one per lambda0 of the grid, a repeated point
    sharing its first occurrence's row object), `cells`, `entries` (every
    cell) and `solvable` build their values and `CSolution`s on request;
    `solvable_count` counts from `forms` and `slots` alone."""

    family_id: str
    kind: str
    eta: Optional[int]
    seed: int
    count: int
    lambda0_grid: tuple[Rational, ...]
    forms: tuple[Optional[tuple], ...]
    scaled: tuple[Draw, ...]
    slots: tuple[int, ...]

    @property
    def size(self) -> int:
        """The number of (point, lambda0) cells."""
        return len(self.slots) * len(self.lambda0_grid)

    @property
    def solvable_count(self) -> int:
        """The number of solvable cells: a point with a `_c_form` solves at
        every lambda0 of the grid, and one without at none."""
        return len(self.lambda0_grid) * sum(self.forms[k] is not None for k in self.slots)

    @property
    def rows(self) -> tuple[tuple[CSolution, ...], ...]:
        pairs = _pairs(self.lambda0_grid)
        solved = [_c_solutions(form, pairs) for form in self.forms]
        return tuple(map(solved.__getitem__, self.slots))

    @property
    def entries(self) -> tuple[tuple[int, dict[str, Value], Rational, CSolution], ...]:
        return tuple(self.cells(("unique", "any", "none")))

    @property
    def solvable(self) -> tuple[tuple[int, dict[str, Value], Rational, CSolution], ...]:
        return tuple(self.cells())

    def cells(
        self, statuses: tuple[str, ...] = ("unique", "any")
    ) -> Iterator[tuple[int, dict[str, Value], Rational, CSolution]]:
        """(index, values, lambda0, solution) of the cells with one of
        `statuses`, the solvable ones by default: point-major, the grid in
        its order, which is also the order of `scan_membership`'s verdicts.
        A repeated point shares its first occurrence's values, which are
        made when its first cell is."""
        grid, values = self.lambda0_grid, {}
        for idx, (k, row) in enumerate(zip(self.slots, self.rows)):
            for lam, sol in zip(grid, row):
                if sol.status in statuses:
                    if k not in values:
                        values[k] = point_values(*self.scaled[k])
                    yield idx, values[k], lam, sol


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def _branch_sample(fam: LieAlgebraFamily, seed: int, count: int) -> tuple[tuple[Draw, ...], tuple[int, ...]]:
    """`sample_scaled` once per (family, seed, count) value, as (scaled,
    slots): each distinct point's integer form as drawn, and each point's
    distinct index.  The three connections of a branch scan one shared
    draw, which no caller writes.  Equal points have one form, in one name
    order, so a repeat is found by its form."""
    first: dict[tuple, int] = {}  # integer form -> index of its distinct point
    scaled, slots = [], []
    for nums, scale in sample_scaled(fam, seed, count):
        slots.append(first.setdefault((scale, *nums.values()), len(scaled)))
        if slots[-1] == len(scaled):
            scaled.append((nums, scale))
    return tuple(scaled), tuple(slots)


def scan(
    fam: LieAlgebraFamily,
    kind: str,
    seed: int = 0,
    count: int = 100,
    lambda0_grid: Sequence[Rational] = DEFAULT_LAMBDA0_GRID,
) -> ScanReport:
    """Sample the constrained parameter space and solve for c everywhere.

    Deterministic for a fixed seed.  The sample comes from the branch memo
    (`_branch_sample`), and each distinct point's integers go through the
    kernel once and `_c_form` once, which decides the point for the whole
    grid.  No `CSolution` is built here.
    """
    kernel = _compiled_decomposition(soliton_system(fam, kind))
    grid = _rational(lambda0_grid)
    scaled, slots = _branch_sample(fam, seed, count)
    forms = tuple(_c_form(kernel.scaled(*point)) for point in scaled)
    return ScanReport(fam.family_id, kind, fam.eta, seed, count, grid, forms, scaled, slots)


# -- theorem cases -------------------------------------------------------------


class TheoremCase(NamedTuple):
    """One classification claim: a locus plus the c that should solve on it."""

    label: str
    family_id: str
    kind: str
    substitutions: tuple[tuple[str, Polynomial], ...] = ()
    c_expr: Optional[Polynomial] = None  # None: the claim holds for every c
    reductions: tuple[tuple[str, Polynomial], ...] = ()  # var^2 := rhs
    nonzero: tuple[Polynomial, ...] = ()
    sample_subs: tuple[tuple[str, Polynomial], ...] = ()  # locus parametrization
    witness: tuple[tuple[str, "WitnessValue"], ...] = ()  # may use eta symbolically
    suspect: bool = False
    empty: bool = False  # claim: no solutions at all (checked by scan)
    variant_substitutions: Optional[tuple[tuple[str, Polynomial], ...]] = None
    variant_c: Optional[Polynomial] = None
    variant_reductions: Optional[tuple[tuple[str, Polynomial], ...]] = None
    note: str = ""

    def effective(self) -> tuple[tuple[tuple[str, Polynomial], ...], Optional[Polynomial], tuple[tuple[str, Polynomial], ...]]:
        """(substitutions, c, reductions) with variant data where present."""
        subs = self.variant_substitutions if self.variant_substitutions is not None else self.substitutions
        c = self.variant_c if self.variant_c is not None else self.c_expr
        reds = self.variant_reductions if self.variant_reductions is not None else self.reductions
        return subs, c, reds


class VerificationReport(NamedTuple):
    label: str
    family_id: str
    kind: str
    method: str  # "exact" | "reduced" | "sampled" | "unsampled" | "failed" | "scan-empty"
    ok: bool
    suspect: bool
    counterexample: Optional[dict[str, Value]] = None
    variant_method: Optional[str] = None
    detail: str = ""


_METHOD_ORDER = {"exact": 0, "reduced": 1, "sampled": 2, "unsampled": 3, "failed": 4}

# Points the sampled rung checks on a case's locus, per branch and data set.
LADDER_SAMPLES = 120


def _report(case: TheoremCase, method: str, ok: bool, **rest) -> VerificationReport:
    """A report on `case`, with its label, family, kind and suspect flag."""
    return VerificationReport(case.label, case.family_id, case.kind, method, ok, case.suspect, **rest)


class _Substitution:
    """A case's substitutions var := expr on one eta branch, in listed
    order: `pairs` holds them with eta instantiated, and calling it on a
    polynomial instantiates eta and applies them one after another, each
    rewriting the result of the ones before it.  The one reading of a
    case's data that the ladder, the locus plan and case membership
    share."""

    __slots__ = ("pairs", "eta")

    def __init__(self, subs: Sequence[tuple[str, Polynomial]], eta: Optional[int]):
        self.eta = eta
        self.pairs = tuple((var, instantiate_eta(expr, eta)) for var, expr in subs)

    def __call__(self, q: Polynomial) -> Polynomial:
        q = instantiate_eta(q, self.eta)
        for var, expr in self.pairs:
            q = q.substitute(var, expr)
        return q


def _apply_case(system: SolitonSystem, on_locus: _Substitution, c_expr: Optional[Polynomial]) -> list[Polynomial]:
    """The residuals with c := c_expr, then the case's substitutions."""
    residuals = list(system.residuals)
    if c_expr is not None:
        c_poly = instantiate_eta(c_expr, system.eta)
        residuals = [r.substitute("c", c_poly) for r in residuals]
    return [on_locus(r) for r in residuals]


def _reduce_ladder(
    residuals: Sequence[Polynomial],
    system: SolitonSystem,
    on_locus: _Substitution,
    reductions: Sequence[tuple[str, Polynomial]],
) -> list[Polynomial]:
    """Normal forms of the residuals modulo the case ideal.

    The ideal is generated by the family constraints under the case
    substitutions and one relation var^2 - rhs per quadratic reduction, its
    rhs under the substitutions too.  One Groebner basis serves all nine
    residuals, and a residual reduces to zero exactly when it lies in the
    ideal.
    """
    relations = [on_locus(q) for q in system.constraints]
    relations += [system.table.var(var) ** 2 - on_locus(rhs) for var, rhs in reductions]
    basis = groebner_basis(relations)
    return [r.normal_form(basis) for r in residuals]


def _locus_plan(
    system: SolitonSystem,
    case: TheoremCase,
    on_locus: _Substitution,
    reductions: Sequence[tuple[str, Polynomial]],
) -> tuple[list[str], list[tuple[str, IntegerKernel]], IntegerKernel, int]:
    """The case locus compiled once into the arguments of `draw_point` after
    its rng: the pool names, the roots, the side kernel and its count of
    polynomials that must not vanish.

    The composed data is the case's sample parametrization applied after
    its substitutions.  The pool names are the family parameters that
    neither assigns, nor, with no parametrization, a relation var^2 = rhs.
    Each parametrization var := expr is the linear root of var - expr; each
    relation whose var is still unassigned is the quadratic root of
    var^2 - rhs, and the others are checked.  A family constraint left with
    unassigned variables is split by `_split`, as `sample_parameters` splits
    one, and its other unassigned variables join the pool.  The side kernel
    holds the family and case nonvanishing polynomials, which must not
    vanish, then the checked relations and every constraint, which must."""
    table = system.table
    sample = _Substitution(case.sample_subs, system.eta)

    def composed(q: Polynomial) -> Polynomial:
        return sample(on_locus(q))

    consumed = {var for var, _ in on_locus.pairs + sample.pairs}
    if not sample.pairs:
        consumed |= {var for var, _ in reductions}
    fam_params = build_family(case.family_id, eta=system.eta).parameters
    pool = [v for v in fam_params if v not in consumed]
    roots = [(var, (-expr, table.one)) for var, expr in sample.pairs]
    assigned = set(pool) | {var for var, _ in sample.pairs}
    relations = []
    for var, rhs in reductions:
        if var in assigned:
            relations.append(table.var(var) ** 2 - composed(rhs))
        else:
            roots.append((var, (-composed(rhs), table.zero, table.one)))
            assigned.add(var)
    constraints = [composed(con) for con in system.constraints]
    for con in constraints:
        unassigned = con.variables() - assigned
        split = _split(con, assigned)
        if split is not None:
            roots.append(split)
            unassigned.remove(split[0])
        pool += [v for v in table.names if v in unassigned]
        assigned |= con.variables()
    nonzero = [composed(q) for q in system.nonvanishing + case.nonzero]
    kernels = [(var, IntegerKernel(table, coefficients)) for var, coefficients in roots]
    return pool, kernels, IntegerKernel(table, nonzero + relations + constraints), len(nonzero)


def _verify_single(
    system: SolitonSystem,
    case: TheoremCase,
    subs: Sequence[tuple[str, Polynomial]],
    c_expr: Optional[Polynomial],
    reductions: Sequence[tuple[str, Polynomial]],
    seed: int,
    sample_count: int,
) -> tuple[str, Optional[dict[str, Value]], str]:
    """Run the exact -> reduced -> sampled ladder on one system branch,
    reading the case's substitutions as one `_Substitution` for every rung.

    Returns (method, counterexample_point, detail); the detail is empty
    except for "unsampled", where it gives the draw counts.
    """
    on_locus = _Substitution(subs, system.eta)
    residuals = _apply_case(system, on_locus, c_expr)
    if all(r.is_zero for r in residuals):
        return "exact", None, ""
    reduced = _reduce_ladder(residuals, system, on_locus, reductions)
    if all(r.is_zero for r in reduced):
        return "reduced", None, ""
    plan = _locus_plan(system, case, on_locus, reductions)
    rng = random.Random(seed)
    checked = rejected = 0
    while checked < sample_count:
        if checked + rejected >= 50 * sample_count:
            detail = (
                f"locus sampler gave up after {checked + rejected} draws: "
                f"{rejected} rejected, {checked} of {sample_count} samples checked"
            )
            return "unsampled", None, detail
        drawn = draw_point(rng, *plan)
        if drawn is None:
            rejected += 1
            continue
        values = point_values(*drawn)
        # lambda0, and c for a claim that leaves it free, where the locus left them unassigned
        if "lambda0" not in values:
            values["lambda0"] = draw_rational(rng)
        if c_expr is None and "c" not in values:
            values["c"] = draw_rational(rng)
        if any(r.evaluate(values) for r in residuals):
            return "failed", values, ""
        checked += 1
    return "sampled", None, ""


def verify_case(case: TheoremCase, seed: int = 0, sample_count: int = LADDER_SAMPLES) -> VerificationReport:
    """Verify a claimed case against the generated soliton system.

    For g4 both eta branches are verified; the weaker outcome is reported.
    Suspect cases additionally run their variant data, and the stated
    data's counterexample (if any) is preserved as evidence.
    """
    if case.empty:
        return _verify_empty(case, seed)

    stated_method, stated_counter, stated_detail = "exact", None, ""
    variant_method: Optional[str] = None
    stated = (case.substitutions, case.c_expr, case.reductions)
    for fam in family_branches(case.family_id):
        system = soliton_system(fam, case.kind)
        method, counter, detail = _verify_single(system, case, *stated, seed, sample_count)
        if _METHOD_ORDER[method] > _METHOD_ORDER[stated_method]:
            stated_method, stated_counter, stated_detail = method, counter, detail
        if (case.variant_substitutions, case.variant_c, case.variant_reductions) != (None, None, None):
            v_subs, v_c, v_reds = case.effective()
            v_method, _, _ = _verify_single(system, case, v_subs, v_c, v_reds, seed, sample_count)
            if variant_method is None or _METHOD_ORDER[v_method] > _METHOD_ORDER[variant_method]:
                variant_method = v_method

    ok = stated_method in ("exact", "reduced") or (
        case.suspect and variant_method in ("exact", "reduced")
    )
    return _report(
        case,
        stated_method,
        ok,
        counterexample=stated_counter,
        variant_method=variant_method,
        detail=stated_detail or case.note,
    )


def _verify_empty(case: TheoremCase, seed: int) -> VerificationReport:
    """A no-solutions claim: scan both branches and demand zero solvable."""
    solvable = total = 0
    for fam in family_branches(case.family_id):
        report = scan(fam, case.kind, seed=seed, count=500)
        solvable += report.solvable_count
        total += report.size
    ok = solvable == 0
    return _report(case, "scan-empty", ok, detail=f"{solvable} solvable of {total} scanned {case.note}".strip())


def negative_control(
    case: TheoremCase,
    perturbation: Fraction = Fraction(1),
    lambda0_value: Rational = Fraction(1, 2),
) -> VerificationReport:
    """Perturb the case's c at its witness and demand a nonzero residual.

    Guards against vacuously-zero systems.  Not applicable (reported ok,
    method "skipped") when the claim holds for every c, which happens
    exactly when the bracket vanishes on the case locus.  Decided in
    integers at the witness's integer form, by kernels the branch already
    built: `_compiled_decomposition` gives each residual as
    (P + Q*lambda0 + R*c) / F, F being its factor D*L**G, and the case's
    `c_kernel` gives c_expr.  The largest residual's size is reported for
    display.
    """
    if perturbation == 0:
        raise ValueError("perturbation must be nonzero")
    [lambda0_value] = _rational([lambda0_value])
    if case.empty or case.effective()[1] is None:
        return _report(case, "skipped", True, detail="not applicable: every c solves on this locus")
    best = 0.0
    for fam in family_branches(case.family_id):
        kernel = _compiled_decomposition(soliton_system(fam, case.kind))
        compiled = _compiled_case(case, fam.eta)
        nums, scale = compiled.witness
        f, *a = compiled.c_kernel.scaled(nums, scale)
        c = quotient(sum(x * lambda0_value**j for j, x in enumerate(a)), f) + perturbation
        out, factor = kernel.scaled(nums, scale), kernel.factor[0] * scale ** kernel.factor[1]
        values = [quotient(p + q * lambda0_value + r * c, factor) for p, q, r in zip(out[0::3], out[1::3], out[2::3])]
        if not any(values):
            return _report(case, "control", False, detail="perturbed c still solves: system may be vacuous")
        best = max(best, *(abs(float(v)) for v in values))
    detail = f"perturbation {perturbation} raises residual {best:g}"
    return _report(case, "control", True, detail=detail)


# -- membership of scan hits in a stated classification ------------------------


def case_matches_point(
    case: TheoremCase,
    eta: Optional[int],
    point: Draw,
    lambda0_value: Rational,
    c_solution: CSolution,
) -> bool:
    """Does a solvable point, in integer form (nums, L), fall inside the
    case's (effective) locus?  An unsolvable one lies in no case; a solved
    c = u/v is the form (-u, 0, v) of `_holds`."""
    if case.empty or c_solution.status == "none":
        return False
    grid = _pairs(_rational([lambda0_value]))
    at = _compiled_case(case, eta).c_at(point)
    c = c_solution.value
    form = () if c_solution.status == "any" else (-c.numerator, 0, c.denominator)
    return at is not None and _holds(at, form, grid)[0]


class _CompiledCase:
    """The membership test of one case on one eta branch, over the
    catalogue's DEFAULT_TABLE, free of lambda0 and c: `locus` holds the
    polynomials that must vanish on its locus (var - expr per substitution,
    var^2 - rhs per reduction), then the ones that must not (its nonzero
    hypotheses); `c_kernel`, where the case fixes c, holds 1 and the
    coefficients a_j of c_expr = sum_j a_j*lambda0^j.  Both run once per
    point at its integer form, and `_holds` then decides the lambda0 grid.
    `witness` is the witness's integer form, L the lcm of its denominators;
    `load_catalog` rejects an entry that reads a variable but g4's eta."""

    __slots__ = ("split", "locus", "c_kernel", "witness")

    def __init__(self, case: TheoremCase, eta: Optional[int]):
        table = DEFAULT_TABLE
        subs, c_expr, reductions = case.effective()
        on_locus = _Substitution(subs, eta)
        vanish = [table.var(var) - expr for var, expr in on_locus.pairs]
        vanish += [table.var(var) ** 2 - instantiate_eta(rhs, eta) for var, rhs in reductions]
        nonzero = [instantiate_eta(q, eta) for q in case.nonzero]
        self.split = len(vanish)
        self.locus = IntegerKernel(table, vanish + nonzero)
        self.c_kernel = None
        if c_expr is not None:
            c_expr = instantiate_eta(c_expr, eta)
            powers = range(c_expr.degree_in("lambda0") + 1)
            self.c_kernel = IntegerKernel(table, [table.one] + [c_expr.coefficient_of("lambda0", j) for j in powers])
        values = [
            (name, instantiate_eta(v, eta).constant_value() if isinstance(v, Polynomial) else v)
            for name, v in case.witness
        ]
        scale = lcm(*[v.denominator for _, v in values])
        self.witness = {name: v.numerator * (scale // v.denominator) for name, v in values}, scale

    def c_at(self, point: Draw) -> Optional[list]:
        """None off the locus, else `c_kernel` at the point ([] for a free c)."""
        out = self.locus.scaled(*point)
        if any(out[: self.split]) or not all(out[self.split :]):
            return None
        return [] if self.c_kernel is None else self.c_kernel.scaled(*point)


def _holds(at: list, form: tuple, grid: Sequence[tuple[int, int]]) -> list[bool]:
    """The c half of membership, per lambda0 = n/d, d > 0, of `grid`: does
    the c of a point's `_c_form` (`()` for every c) equal the case's c_expr,
    given by `c_at` as [f, f*a_0, ..., f*a_k], f > 0 ([] for a free c)?
    With c = -(P_0 + Q_0*lambda0)/R_0 that is E(lambda0) = 0 for
    E = R_0*sum_j f*a_j*lambda0^j + f*(P_0 + Q_0*lambda0).  Every cell holds
    where E is the zero polynomial, as it is wherever the case keeps the
    lambda0 law; otherwise each cell is E(n/d)*d^k == 0, k >= deg E."""
    if not at or not form:
        return [True] * len(grid)
    p0, q0, r0 = form
    e = [r0 * a for a in at[1:]] + [0]
    e[0] += at[0] * p0
    e[1] += at[0] * q0
    if not any(e):
        return [True] * len(grid)
    k = len(e) - 1
    return [not sum(x * n**j * d ** (k - j) for j, x in enumerate(e)) for n, d in grid]


# One `_CompiledCase` per (case, eta) value; the bound holds one sweep
# of the catalogue's 45 cases, 48 with both g4 signs.
_compiled_case = lru_cache(maxsize=64)(_CompiledCase)


def witness_point(case: TheoremCase, eta: Optional[int]) -> Draw:
    """The case's witness on one eta branch in integer form; no caller writes it."""
    return _compiled_case(case, eta).witness


def scan_membership(report: ScanReport, cases: Sequence[TheoremCase]) -> list[bool]:
    """Per solvable cell of `report`, in the order of `report.cells()`: does
    it fall inside one of `cases`?

    Equal to `any(case_matches_point(...))` cell by cell, but decided once
    per distinct point for the whole grid, from the report's `forms` and
    the memo's integer forms: the lambda0-free locus test and c_expr's
    coefficients run once per point and case, and `_holds` decides the
    grid.  A repeated point shares its first occurrence's verdicts.
    """
    compiled = [_compiled_case(case, report.eta) for case in cases if not case.empty]
    grid = _pairs(report.lambda0_grid)
    decided = []
    for form, point in zip(report.forms, report.scaled):
        if form is None:
            decided.append([])
            continue
        verdicts = [False] * len(grid)
        for c in compiled:
            at = c.c_at(point)
            if at is not None:
                verdicts = [v or h for v, h in zip(verdicts, _holds(at, form, grid))]
                if all(verdicts):
                    break
        decided.append(verdicts)
    return [v for k in report.slots for v in decided[k]]
