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
    sampled    zero at >= 100 seeded points on the case locus,
    unsampled  the locus sampler gave up before enough points were drawn,
    failed     a counterexample point is recorded.

Cases marked suspect carry a variant (a small, principled correction);
both the stated and variant data are verified and reported.

Each concept makes its exact-or-float choice in one place.  The c solve at a
point is `_point_solver`.  `_compiled_decomposition` checks the residual
shape once per system and compiles the P, Q, R of the nonzero residuals to
one `poly.IntegerKernel`.  An exact point is evaluated once and decided
once, with no lambda0 in the test, and each exact lambda0 then costs one
division (`_exact_c_solver`).  A float point or a float lambda0 is solved
against the tolerance.  `scan` draws its sample once per family branch
(`_branch_sample`), shared by the connections, and builds one point solver
per distinct point for its whole lambda0 grid; `solve_for_c` builds one for
its single call.  A `ScanReport` is a table: the shared sample and one row
of solutions per point, a repeated point sharing its first occurrence's
row; its `ScanEntry` records are built only on request.  Case membership is
`_CompiledCase`, compiled once per (case, eta, table): the polynomials that
must vanish on a case's locus, the hypotheses that must not, and
c - c_expr, decided in integers at an exact point with an exact lambda0 and
by the tolerance otherwise.  `scan_membership` walks the rows and decides each
distinct point once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .algebras import (
    BRANCH_CACHE_SIZE,
    LieAlgebraFamily,
    ParameterPoint,
    build_family,
    draw_rational,
    family_branches,
    instantiate_eta,
    sample_parameters,
    solve_constraint_for,
)
from .geometry import OperatorMatrix, ricci_pipeline
from .poly import (
    DEFAULT_TABLE,
    IntegerKernel,
    Polynomial,
    PolynomialError,
    Scalar,
    VariableTable,
    groebner_basis,
    sum_of_products,
)

PAIRS = ((0, 1), (0, 2), (1, 2))

Value = Union[Fraction, float]
WitnessValue = Union[Fraction, float, Polynomial]


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
    """The e_m component of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] as the nine
    signed products of sum_k (C_ij^k D_km - D_ik C_kj^m - D_jk C_ik^m), for
    `sum_of_products`, which skips those with a zero factor."""
    c = fam.structure.c
    rows = d.entries
    out = []
    for k in range(3):
        out += ((1, c[i][j][k], rows[k][m]), (-1, rows[i][k], c[k][j][m]), (-1, rows[j][k], c[i][k][m]))
    return out


def derivation_residuals(d: OperatorMatrix, fam: LieAlgebraFamily) -> list[Polynomial]:
    """Components of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] for the three pairs.

    Returns nine polynomials in the fixed order pair (1,2), (1,3), (2,3),
    coordinates e1, e2, e3 within each pair, each one `sum_of_products`
    over its nine products.
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
    residual_max: float = 0.0


Decomposition = tuple[tuple[Polynomial, Polynomial, Polynomial], ...]


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def _compiled_decomposition(system: SolitonSystem) -> tuple[Decomposition, IntegerKernel]:
    """Per residual that is not identically zero: (P, Q, R) with
    residual = P + Q*lambda0 + R*c, and their integer form, as
    `_point_solver` takes them, compiled once per system value.  A zero
    residual holds for every c.  The one check of the residual shape: P, Q
    and R are free of lambda0 and c, and Q = s*R for one polynomial s, that
    is Q_i*R_0 == Q_0*R_i with R_0 | Q_0 for the first nonzero R_0, else
    every Q is zero.  The division keeps every Q zero at a point where every
    R is.  Any other system raises `PolynomialError`.
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
    return tuple(out), IntegerKernel(system.table, [q for triple in out for q in triple])


def _solve_rows(rows: list[tuple[Value, Value]], tolerance: float) -> CSolution:
    """Solve {a_i*c + b_i = 0} for one unknown c when a float is involved."""
    candidate: Optional[Value] = None
    for a, b in rows:
        if abs(a) > tolerance:
            c_here = -b / a
            if candidate is None:
                candidate = c_here
            elif abs(candidate - c_here) > tolerance:
                return CSolution("none")
    if candidate is None:
        if all(abs(b) <= tolerance for _, b in rows):
            return CSolution("any", value=None)
        return CSolution("none")
    worst = max(abs(a * candidate + b) for a, b in rows)
    if worst > tolerance:
        return CSolution("none")
    return CSolution("unique", value=candidate, residual_max=float(worst))


_NO_SOLUTION = CSolution("none")
_ANY_C = CSolution("any")


def _exact_c_solver(rows: Sequence[tuple[Scalar, Scalar, Scalar]]) -> Callable[[int, int], CSolution]:
    """Decide {P_i + Q_i*lambda0 + R_i*c = 0} over the rationals, for every
    exact lambda0 at once: the result maps (n, d), lambda0 = n/d with d > 0,
    to the solution.  The rows are in mu-form, Q_i = s*R_i, as
    `_compiled_decomposition` checks, so each is R_i*(c + s*lambda0) + P_i.

    The point is decided once, with no lambda0 in the test: the first row
    with R != 0 is the pivot, and every row must satisfy
    R_i*P_0 == R_0*P_i, which also forces P_i == 0 where R_i == 0; then
    c = -(d*P_0 + n*Q_0)/(d*R_0).  With no pivot every Q is zero too, and
    every c solves exactly when every P is zero.
    """
    pivot = next(((p, q, r) for p, q, r in rows if r), None)
    if pivot is None:
        outcome = _NO_SOLUTION if any(p for p, _, _ in rows) else _ANY_C
    elif any(r * pivot[0] != pivot[2] * p for p, _, r in rows):
        outcome = _NO_SOLUTION
    else:
        p0, q0, r0 = pivot
        return lambda n, d: CSolution("unique", value=Fraction(-(d * p0 + n * q0), d * r0))
    return lambda n, d: outcome


def _is_exact(values: Iterable[Value]) -> bool:
    return all(not isinstance(v, float) for v in values)


def _point_solver(
    compiled: tuple[Decomposition, IntegerKernel], values: dict[str, Value], tolerance: float
) -> Callable[[Value], CSolution]:
    """lambda0 -> the c solution at one point, from `_compiled_decomposition`.

    The one place where the c solve picks exact or float: an exact point
    is evaluated once by the kernel and an exact lambda0 is decided by
    `_exact_c_solver`; a float point, or a float lambda0, goes to
    `_solve_rows` with `tolerance`, the rows evaluated once per point.
    """
    decomposition, kernel = compiled
    triples: Optional[list[tuple[Value, Value, Value]]] = None

    def by_tolerance(lam: Value) -> CSolution:
        nonlocal triples
        if triples is None:
            triples = [(p0.evaluate(values), q.evaluate(values), rc.evaluate(values)) for p0, q, rc in decomposition]
        return _solve_rows([(a, b0 + b1 * lam) for b0, b1, a in triples], tolerance)

    if not _is_exact(values.values()):
        return by_tolerance
    out = kernel(values)
    exact = _exact_c_solver(list(zip(out[0::3], out[1::3], out[2::3])))

    def solve(lam: Value) -> CSolution:
        return by_tolerance(lam) if isinstance(lam, float) else exact(*lam.as_integer_ratio())

    return solve


def solve_for_c(
    system: SolitonSystem,
    point: Union[ParameterPoint, dict[str, Value]],
    lambda0_value: Value,
    tolerance: float = 1e-9,
) -> CSolution:
    """Solve all residuals simultaneously for c at a parameter point.

    Residuals are degree <= 1 in c by construction, so the system is a set
    of scalar linear equations a_i*c + b_i = 0, decided by `_point_solver`:
    in integers at an exact point with an exact lambda0, else by `tolerance`.
    """
    values = point.values if isinstance(point, ParameterPoint) else dict(point)
    return _point_solver(_compiled_decomposition(system), values, tolerance)(lambda0_value)


# -- scanning -----------------------------------------------------------------

DEFAULT_LAMBDA0_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(-1),
)


class ScanEntry(NamedTuple):
    index: int
    values: dict[str, Value]
    lambda0: Value
    status: str
    c: Optional[Value]
    residual_max: float


class ScanReport(NamedTuple):
    """A scan as a table: one row of c solutions, one per lambda0 of the
    grid, for each sampled point.  A repeated point shares its first
    occurrence's row object.  `entries` and `solvable` build their
    `ScanEntry` records on request; `cells` walks the same cells and builds
    none."""

    family_id: str
    kind: str
    eta: Optional[int]
    seed: int
    count: int
    lambda0_grid: tuple[Value, ...]
    points: tuple[ParameterPoint, ...]
    rows: tuple[tuple[CSolution, ...], ...]

    @property
    def size(self) -> int:
        """The number of (point, lambda0) cells."""
        return len(self.points) * len(self.lambda0_grid)

    @property
    def entries(self) -> tuple[ScanEntry, ...]:
        return self._entries(("unique", "any", "none"))

    @property
    def solvable(self) -> tuple[ScanEntry, ...]:
        return self._entries(("unique", "any"))

    def cells(
        self, statuses: tuple[str, ...] = ("unique", "any")
    ) -> Iterator[tuple[int, ParameterPoint, Value, CSolution]]:
        """(index, point, lambda0, solution) of the cells with one of
        `statuses`, the solvable ones by default: point-major, the grid in
        its order, which is also the order of `scan_membership`'s verdicts."""
        grid = self.lambda0_grid
        for idx, (pt, row) in enumerate(zip(self.points, self.rows)):
            for lam, sol in zip(grid, row):
                if sol.status in statuses:
                    yield idx, pt, lam, sol

    def _entries(self, statuses: tuple[str, ...]) -> tuple[ScanEntry, ...]:
        return tuple(
            ScanEntry(idx, pt.values, lam, sol.status, sol.value, sol.residual_max)
            for idx, pt, lam, sol in self.cells(statuses)
        )


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def _branch_sample(fam: LieAlgebraFamily, seed: int, count: int) -> tuple[ParameterPoint, ...]:
    """`sample_parameters` once per (family, seed, count) value: the three
    connections of a branch scan one shared draw, which no caller writes.
    A repeated exact point is the object of its first occurrence, so a
    repeat is known by identity; float points stay apart, as -0.0 == 0.0."""
    first: dict[tuple, ParameterPoint] = {}
    return tuple(
        first.setdefault(tuple(pt.values.items()), pt) if pt.exact else pt
        for pt in sample_parameters(fam, seed=seed, count=count)
    )


def scan(
    fam: LieAlgebraFamily,
    kind: str,
    seed: int = 0,
    count: int = 100,
    lambda0_grid: Sequence[Value] = DEFAULT_LAMBDA0_GRID,
    tolerance: float = 1e-9,
) -> ScanReport:
    """Sample the constrained parameter space and solve for c everywhere.

    Deterministic for a fixed seed.  The sample is drawn once per branch
    (`_branch_sample`), and each distinct point gets one `_point_solver`,
    which solves the whole grid into the point's row; a repeated point
    shares that row.  No `ScanEntry` is built here.
    """
    compiled = _compiled_decomposition(soliton_system(fam, kind))
    grid = tuple(lambda0_grid)
    points = _branch_sample(fam, seed, count)
    solved: dict[int, tuple[CSolution, ...]] = {}  # by id of the shared point
    for pt in points:
        if id(pt) not in solved:
            solved[id(pt)] = tuple(map(_point_solver(compiled, pt.values, tolerance), grid))
    return ScanReport(
        family_id=fam.family_id,
        kind=kind,
        eta=fam.eta,
        seed=seed,
        count=count,
        lambda0_grid=grid,
        points=points,
        rows=tuple(solved[id(pt)] for pt in points),
    )


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
    residual_zero: bool
    max_float_residual: float = 0.0
    witness: Optional[dict[str, Value]] = None
    counterexample: Optional[dict[str, Value]] = None
    variant_method: Optional[str] = None
    detail: str = ""


_METHOD_ORDER = {"exact": 0, "reduced": 1, "sampled": 2, "unsampled": 3, "failed": 4}


def resolve_witness(
    case: TheoremCase, eta: Optional[int], table: VariableTable
) -> dict[str, Value]:
    """Witness values for one eta branch; symbolic entries must be constant."""
    out: dict[str, Value] = {}
    for name, value in case.witness:
        if isinstance(value, Polynomial):
            value = instantiate_eta(value, eta, table).constant_value()
        out[name] = value
    return out


def _apply_case(
    system: SolitonSystem,
    subs: Sequence[tuple[str, Polynomial]],
    c_expr: Optional[Polynomial],
    table: VariableTable,
) -> list[Polynomial]:
    eta = system.eta
    residuals = list(system.residuals)
    if c_expr is not None:
        c_poly = instantiate_eta(c_expr, eta, table)
        residuals = [r.substitute("c", c_poly) for r in residuals]
    for var, expr in subs:
        expr = instantiate_eta(expr, eta, table)
        residuals = [r.substitute(var, expr) for r in residuals]
    return residuals


def _reduce_ladder(
    residuals: Sequence[Polynomial],
    system: SolitonSystem,
    subs: Sequence[tuple[str, Polynomial]],
    reductions: Sequence[tuple[str, Polynomial]],
    table: VariableTable,
) -> list[Polynomial]:
    """Normal forms of the residuals modulo the case ideal.

    The ideal is generated by the family constraints under the case
    substitutions and one relation var^2 - rhs per quadratic reduction.
    One Groebner basis serves all nine residuals, and a residual reduces to
    zero exactly when it lies in the ideal.
    """
    eta = system.eta
    sub_map = {var: instantiate_eta(expr, eta, table) for var, expr in subs}
    relations = [q.substitute_all(sub_map) for q in system.constraints]
    relations += [
        table.var(var) ** 2 - instantiate_eta(rhs, eta, table).substitute_all(sub_map)
        for var, rhs in reductions
    ]
    basis = groebner_basis(relations)
    return [r.normal_form(basis) for r in residuals]


def _sample_case_locus(
    system: SolitonSystem,
    case: TheoremCase,
    subs: Sequence[tuple[str, Polynomial]],
    reductions: Sequence[tuple[str, Polynomial]],
    table: VariableTable,
    rng: random.Random,
) -> Optional[dict[str, Value]]:
    """One random point on the case locus, or None for a rejected draw."""
    eta = system.eta
    sub_map = {var: instantiate_eta(expr, eta, table) for var, expr in subs}
    sample_map = {var: instantiate_eta(expr, eta, table) for var, expr in case.sample_subs}

    def composed(q: Polynomial) -> Polynomial:
        return q.substitute_all(sub_map).substitute_all(sample_map)

    fam_params = build_family(case.family_id, eta=eta, table=table).parameters
    consumed = set(sub_map) | set(sample_map)
    if not sample_map:
        # no explicit parametrization: quadratic relations fix their vars
        consumed |= {var for var, _ in reductions}
    free = [v for v in fam_params if v not in consumed]

    values: dict[str, Value] = {}
    for v in free:
        values[v] = draw_rational(rng)
    for var, expr in sample_map.items():
        values[var] = expr.evaluate(values)

    def tol() -> float:
        # exact points are decided exactly; only a float root brings slack
        return 0 if _is_exact(values.values()) else 1e-12

    for var, rhs in reductions:
        rhs_val = composed(instantiate_eta(rhs, eta, table)).evaluate(values)
        if var in values:
            # parametrized locus must satisfy the relation on its own
            if abs(values[var] ** 2 - rhs_val) > tol():
                return None
            continue
        if rhs_val < 0:
            return None
        root = _exact_or_float_sqrt(rhs_val)
        values[var] = root if rng.random() < 0.5 else -root
    # family equality constraints on the composed locus
    for con in system.constraints:
        con = composed(con)
        if con.is_zero:
            continue
        remaining = [v for v in con.variables() if v not in values]
        if remaining:
            var = remaining[-1]
            if con.degree_in(var) == 1:
                sol = solve_constraint_for(con, var, values)
                if sol is None:
                    return None
                values[var] = draw_rational(rng) if sol == "free" else sol
                continue
            return None
        if abs(con.evaluate(values)) > tol():
            return None
    # nonvanishing: family side conditions and the case hypotheses
    nonzero_tol = 0 if _is_exact(values.values()) else 1e-9
    for q in tuple(system.nonvanishing) + tuple(case.nonzero):
        q = composed(instantiate_eta(q, eta, table))
        if q.is_zero or abs(q.evaluate(values)) <= nonzero_tol:
            return None
    return values


def _exact_or_float_sqrt(value: Value) -> Value:
    if isinstance(value, Fraction) and value >= 0:
        num, den = value.numerator, value.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    return float(value) ** 0.5


def _verify_single(
    system: SolitonSystem,
    case: TheoremCase,
    subs: Sequence[tuple[str, Polynomial]],
    c_expr: Optional[Polynomial],
    reductions: Sequence[tuple[str, Polynomial]],
    table: VariableTable,
    seed: int,
    sample_count: int,
    tolerance: float,
) -> tuple[str, float, Optional[dict[str, Value]], str]:
    """Run the exact -> reduced -> sampled ladder on one system branch.

    Returns (method, max_float_residual, counterexample_point, detail); the
    detail is empty except for "unsampled", where it gives the draw counts.
    """
    residuals = _apply_case(system, subs, c_expr, table)
    if all(r.is_zero for r in residuals):
        return "exact", 0.0, None, ""
    reduced = _reduce_ladder(residuals, system, subs, reductions, table)
    if all(r.is_zero for r in reduced):
        return "reduced", 0.0, None, ""
    rng = random.Random(seed)
    checked = rejected = 0
    worst = 0.0
    while checked < sample_count:
        if checked + rejected >= 50 * sample_count:
            detail = (
                f"locus sampler gave up after {checked + rejected} draws: "
                f"{rejected} rejected, {checked} of {sample_count} samples checked"
            )
            return "unsampled", worst, None, detail
        values = _sample_case_locus(system, case, subs, reductions, table, rng)
        if values is None:
            rejected += 1
            continue
        full = dict(values)
        full["lambda0"] = draw_rational(rng)
        if c_expr is None:
            full["c"] = draw_rational(rng)
        tol = 0 if _is_exact(full.values()) else tolerance
        for r in residuals:
            val = r.evaluate(full)
            mag = abs(float(val))
            worst = max(worst, mag)
            if abs(val) > tol:
                return "failed", worst, full, ""
        checked += 1
    return "sampled", worst, None, ""


def verify_case(
    case: TheoremCase,
    table: VariableTable = DEFAULT_TABLE,
    seed: int = 0,
    sample_count: int = 120,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Verify a claimed case against the generated soliton system.

    For g4 both eta branches are verified; the weaker outcome is reported.
    Suspect cases additionally run their variant data, and the stated
    data's counterexample (if any) is preserved as evidence.
    """
    if case.empty:
        return _verify_empty(case, table, seed, tolerance)

    stated_method = "exact"
    stated_worst = 0.0
    stated_counter = None
    stated_detail = ""
    variant_method: Optional[str] = None
    for fam in family_branches(case.family_id, table):
        system = soliton_system(fam, case.kind)
        method, worst, counter, detail = _verify_single(
            system,
            case,
            case.substitutions,
            case.c_expr,
            case.reductions,
            table,
            seed,
            sample_count,
            tolerance,
        )
        if _METHOD_ORDER[method] > _METHOD_ORDER[stated_method]:
            stated_method, stated_counter, stated_detail = method, counter, detail
        stated_worst = max(stated_worst, worst)
        if (
            case.variant_substitutions is not None
            or case.variant_c is not None
            or case.variant_reductions is not None
        ):
            v_subs, v_c, v_reds = case.effective()
            v_method, _, _, _ = _verify_single(
                system, case, v_subs, v_c, v_reds, table, seed, sample_count, tolerance
            )
            if variant_method is None or _METHOD_ORDER[v_method] > _METHOD_ORDER[variant_method]:
                variant_method = v_method

    ok = stated_method in ("exact", "reduced") or (
        case.suspect and variant_method in ("exact", "reduced")
    )
    return VerificationReport(
        label=case.label,
        family_id=case.family_id,
        kind=case.kind,
        method=stated_method,
        ok=ok,
        suspect=case.suspect,
        residual_zero=stated_method in ("exact", "reduced"),
        max_float_residual=stated_worst,
        witness=resolve_witness(case, 1 if case.family_id == "g4" else None, table) or None,
        counterexample=stated_counter,
        variant_method=variant_method,
        detail=stated_detail or case.note,
    )


def _verify_empty(
    case: TheoremCase, table: VariableTable, seed: int, tolerance: float
) -> VerificationReport:
    """A no-solutions claim: scan both branches and demand zero solvable."""
    solvable = 0
    total = 0
    for fam in family_branches(case.family_id, table):
        report = scan(fam, case.kind, seed=seed, count=500, tolerance=tolerance)
        solvable += len(report.solvable)
        total += report.size
    ok = solvable == 0
    return VerificationReport(
        label=case.label,
        family_id=case.family_id,
        kind=case.kind,
        method="scan-empty",
        ok=ok,
        suspect=case.suspect,
        residual_zero=ok,
        detail=f"{solvable} solvable of {total} scanned {case.note}".strip(),
    )


def negative_control(
    case: TheoremCase,
    perturbation: Fraction = Fraction(1),
    table: VariableTable = DEFAULT_TABLE,
    lambda0_value: Value = Fraction(1, 2),
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Perturb the case's c at its witness and demand a nonzero residual.

    Guards against vacuously-zero systems.  Not applicable (reported ok,
    method "skipped") when the claim holds for every c, which happens
    exactly when the bracket vanishes on the case locus.
    """
    if perturbation == 0:
        raise ValueError("perturbation must be nonzero")
    _, c_expr, _ = case.effective()
    if case.empty or c_expr is None:
        return VerificationReport(
            label=case.label,
            family_id=case.family_id,
            kind=case.kind,
            method="skipped",
            ok=True,
            suspect=case.suspect,
            residual_zero=False,
            detail="not applicable: every c solves on this locus",
        )
    best = 0.0
    witness: dict[str, Value] = {}
    for fam in family_branches(case.family_id, table):
        system = soliton_system(fam, case.kind)
        witness = resolve_witness(case, system.eta, table)
        point = dict(witness)
        point["lambda0"] = lambda0_value
        c_val = instantiate_eta(c_expr, system.eta, table).evaluate(point)
        point["c"] = c_val + perturbation
        branch_max = 0.0
        for r in system.residuals:
            val = r.evaluate(point)
            branch_max = max(branch_max, abs(float(val)))
        if branch_max <= (0.0 if _is_exact(point.values()) else tolerance):
            return VerificationReport(
                label=case.label,
                family_id=case.family_id,
                kind=case.kind,
                method="control",
                ok=False,
                suspect=case.suspect,
                residual_zero=True,
                witness=witness,
                detail="perturbed c still solves: system may be vacuous",
            )
        best = max(best, branch_max)
    return VerificationReport(
        label=case.label,
        family_id=case.family_id,
        kind=case.kind,
        method="control",
        ok=True,
        suspect=case.suspect,
        residual_zero=False,
        max_float_residual=best,
        witness=witness,
        detail=f"perturbation {perturbation} raises residual {best:g}",
    )


# -- membership of scan hits in a stated classification ------------------------


def case_matches_point(
    case: TheoremCase,
    eta: Optional[int],
    values: dict[str, Value],
    lambda0_value: Value,
    c_solution: CSolution,
    table: VariableTable,
    tolerance: float = 1e-9,
) -> bool:
    """Does a solvable scan entry fall inside the case's (effective) locus?
    An unsolvable one lies in no case."""
    if case.empty or c_solution.status == "none":
        return False
    tol = _match_tolerance(_is_exact(values.values()), lambda0_value, tolerance)
    compiled = _compiled_case(case, eta, table)
    return compiled.locus_holds(values, tol) and compiled.c_matches(values, lambda0_value, c_solution, tol)


def _match_tolerance(exact_point: bool, lambda0_value: Value, tolerance: float) -> float:
    """0 at an exact point with an exact lambda0; `tolerance` once a float enters."""
    return 0 if exact_point and not isinstance(lambda0_value, float) else tolerance


class _CompiledCase:
    """The membership test of one case on one eta branch: the polynomials
    that must vanish on its locus (var - expr per substitution, var^2 - rhs
    per reduction), the ones that must not (its nonzero hypotheses), and
    c - c_expr, which must vanish at the point, lambda0 and the solved c
    (None when the case leaves c free).  At tolerance 0 each test is decided
    in integers by its `IntegerKernel`; otherwise by `Polynomial.evaluate`
    against the tolerance."""

    __slots__ = ("vanish", "nonzero", "locus", "c", "c_kernel")

    def __init__(self, case: TheoremCase, eta: Optional[int], table: VariableTable):
        subs, c_expr, reductions = case.effective()
        self.vanish = [table.var(var) - instantiate_eta(expr, eta, table) for var, expr in subs]
        self.vanish += [table.var(var) ** 2 - instantiate_eta(rhs, eta, table) for var, rhs in reductions]
        self.nonzero = [instantiate_eta(q, eta, table) for q in case.nonzero]
        self.locus = IntegerKernel(table, self.vanish + self.nonzero)
        self.c = None if c_expr is None else table.var("c") - instantiate_eta(c_expr, eta, table)
        self.c_kernel = None if self.c is None else IntegerKernel(table, [self.c])

    def locus_holds(self, values: dict[str, Value], tol: float) -> bool:
        """The lambda0-free half: substitutions, quadratic relations, hypotheses."""
        if tol == 0:
            out = self.locus(values)
            split = len(self.vanish)
            return not any(out[:split]) and all(out[split:])
        return all(abs(q.evaluate(values)) <= tol for q in self.vanish) and all(
            abs(q.evaluate(values)) > tol for q in self.nonzero
        )

    def c_matches(self, values: dict[str, Value], lambda0_value: Value, c_solution: CSolution, tol: float) -> bool:
        """The c half: the solved c equals the case's c at this lambda0."""
        if self.c is None or c_solution.status == "any":
            return True
        point = {**values, "lambda0": lambda0_value, "c": c_solution.value}
        if tol == 0:
            return not self.c_kernel(point)[0]
        return abs(self.c.evaluate(point)) <= tol


# One `_CompiledCase` per (case, eta, table) value; the bound holds one sweep
# of the catalogue's 45 cases, 48 with both g4 signs.
_compiled_case = lru_cache(maxsize=64)(_CompiledCase)


def scan_membership(
    report: ScanReport, cases: Sequence[TheoremCase], table: VariableTable, tolerance: float = 1e-9
) -> list[bool]:
    """Per solvable entry of `report`: does it fall inside one of `cases`?

    Equal to `any(case_matches_point(...))` entry by entry, but decided
    over the report's rows, one per distinct point: a point's exactness
    and the lambda0-free locus test once per tolerance it meets, c - c_expr
    once per solvable lambda0.  A repeated point shares its first
    occurrence's row and so its verdicts.
    """
    compiled = [_compiled_case(case, report.eta, table) for case in cases if not case.empty]
    grid = report.lambda0_grid
    decided: dict[int, list[bool]] = {}  # by id of the shared row
    out: list[bool] = []
    for pt, row in zip(report.points, report.rows):
        if id(row) not in decided:
            decided[id(row)] = _row_membership(compiled, pt.values, grid, row, tolerance)
        out += decided[id(row)]
    return out


def _row_membership(
    compiled: Sequence[_CompiledCase],
    values: dict[str, Value],
    grid: Sequence[Value],
    row: Sequence[CSolution],
    tolerance: float,
) -> list[bool]:
    """Per solvable cell of one point's row: inside one of `compiled`?"""
    exact = _is_exact(values.values())
    loci: dict[float, list[_CompiledCase]] = {}  # the cases whose locus holds, by tolerance
    out = []
    for lam, sol in zip(grid, row):
        if sol.status == "none":
            continue
        tol = _match_tolerance(exact, lam, tolerance)
        if tol not in loci:
            loci[tol] = [c for c in compiled if c.locus_holds(values, tol)]
        out.append(any(c.c_matches(values, lam, sol, tol) for c in loci[tol]))
    return out
