"""Algebraic Schouten soliton systems and their verification machinery.

For a family with (symmetrized where applicable) Ricci operator Ric~ and
scalar curvature s, the candidate derivation is

    D = Ric~ - (s*lambda0 + c) * Id,

and the metric Lie algebra is an algebraic Schouten soliton exactly when D
is a derivation of the bracket: D[X,Y] = [DX,Y] + [X,DY].  Expanding this
over the basis pairs (e1,e2), (e1,e3), (e2,e3) gives nine polynomial
residuals in the family parameters, lambda0, and c; each residual has
degree at most one in lambda0 and in c, with no lambda0*c cross term,
because D is affine in both.

Classification claims are represented as TheoremCase values: parameter
substitutions, an expression for c (or "c stays free"), optional quadratic
side relations, nonvanishing hypotheses, and a rational witness point on
the case locus.  Verification climbs an evidence ladder:

    exact    residuals are zero polynomials after the substitutions,
    reduced  zero after rewriting by the family constraints and the case's
             quadratic relations,
    sampled  zero at >= 100 seeded points on the case locus,
    failed   a counterexample point is recorded.

Cases marked suspect carry a variant (a small, principled correction);
both the stated and variant data are verified and reported.

Solving for c at an exact (rational) point is decided in integers: a scan
compiles the system's coefficient polynomials P, Q, R (residual =
P + Q*lambda0 + R*c) to integer terms once, clears the point's denominators
once, and tests the rows (a_i, b_i) for consistency by a_i*b_0 == a_0*b_i
against the first row with a_0 != 0.  No division happens until that test
passes; then c = -b_0/a_0.  Float points, and float lambda0 values, keep
the tolerance path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .algebras import (
    LieAlgebraFamily,
    ParameterPoint,
    build_family,
    sample_parameters,
    solve_constraint_for,
)
from .geometry import OperatorMatrix, ricci_pipeline
from .poly import DEFAULT_TABLE, Monomial, Polynomial, PolynomialError, Scalar, VariableTable

PAIRS = ((0, 1), (0, 2), (1, 2))

Value = Union[Fraction, float]
WitnessValue = Union[Fraction, float, Polynomial]


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


def derivation_residuals(d: OperatorMatrix, fam: LieAlgebraFamily) -> list[Polynomial]:
    """Components of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] for the three pairs.

    Returns nine polynomials in the fixed order pair (1,2), (1,3), (2,3),
    coordinates e1, e2, e3 within each pair.
    """
    c = fam.structure.c
    zero = fam.table.zero
    rows = d.entries
    out: list[Polynomial] = []
    for (i, j) in PAIRS:
        for m in range(3):
            acc = zero
            for k in range(3):
                acc = acc + c[i][j][k] * rows[k][m]
                acc = acc - rows[i][k] * c[k][j][m]
                acc = acc - rows[j][k] * c[i][k][m]
            out.append(acc)
    return out


def derivation_candidate(fam: LieAlgebraFamily, kind: str) -> OperatorMatrix:
    """D = Ric~ - (s*lambda0 + c) Id over the family's variable table."""
    _, op, s = ricci_pipeline(fam, kind)
    table = fam.table
    shift = s * table.var("lambda0") + table.var("c")
    rows = [
        [op.entries[i][j] - (shift if i == j else table.zero) for j in range(3)]
        for i in range(3)
    ]
    return OperatorMatrix(tuple(tuple(r) for r in rows))


def soliton_system(fam: LieAlgebraFamily, kind: str) -> SolitonSystem:
    d = derivation_candidate(fam, kind)
    residuals = tuple(derivation_residuals(d, fam))
    for r in residuals:
        if r.degree_in("c") > 1 or r.degree_in("lambda0") > 1:
            raise PolynomialError(
                f"residual degree bound violated for {fam.family_id}/{kind}: {r}"
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


@dataclass(frozen=True)
class CSolution:
    """Outcome of solving the residual system for c at one point."""

    status: str  # "unique" | "any" | "none"
    value: Optional[Value] = None
    residual_max: float = 0.0


def _c_decomposition(system: SolitonSystem) -> list[tuple[Polynomial, Polynomial, Polynomial]]:
    """Per residual: (P, Q, R) with residual = P + Q*lambda0 + R*c."""
    out = []
    for r in system.residuals:
        if r.degree_in("c") > 1 or r.degree_in("lambda0") > 1:
            raise PolynomialError(f"residual not affine in c and lambda0: {r}")
        rc = r.coefficient_of("c", 1)
        if "lambda0" in rc.variables() or "c" in rc.variables():
            raise PolynomialError("c coefficient unexpectedly involves lambda0 or c")
        rest = r.coefficient_of("c", 0)
        q = rest.coefficient_of("lambda0", 1)
        p0 = rest.coefficient_of("lambda0", 0)
        out.append((p0, q, rc))
    return out


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


def _solve_exact(rows: Sequence[tuple[Scalar, Scalar]]) -> CSolution:
    """Decide {a_i*c + b_i = 0} over the rationals without dividing.

    The first row with a != 0 is the pivot; every row must then satisfy
    a_i*b_0 == a_0*b_i, which also forces b_i == 0 where a_i == 0.  The one
    division forms c = -b_0/a_0 after that test has passed.
    """
    for a0, b0 in rows:
        if a0:
            break
    else:
        return CSolution("none" if any(b for _, b in rows) else "any")
    if any(a * b0 != a0 * b for a, b in rows):
        return CSolution("none")
    return CSolution("unique", value=Fraction(-b0, a0))


def _is_exact(values: Iterable[Value]) -> bool:
    return all(not isinstance(v, float) for v in values)


def solve_for_c(
    system: SolitonSystem,
    point: Union[ParameterPoint, dict[str, Value]],
    lambda0_value: Value,
    tolerance: float = 1e-9,
) -> CSolution:
    """Solve all residuals simultaneously for c at a parameter point.

    Exact (Fraction) points are decided by the division-free exact solver;
    float points use `tolerance`.  Residuals are degree <= 1 in c by
    construction, so the system is a set of scalar linear equations
    a_i*c + b_i = 0.
    """
    values = point.values if isinstance(point, ParameterPoint) else dict(point)
    rows = []
    for p0, q, rc in _c_decomposition(system):
        a = rc.evaluate(values)
        b = p0.evaluate(values) + q.evaluate(values) * lambda0_value
        rows.append((a, b))
    if _is_exact(values.values()) and not isinstance(lambda0_value, float):
        return _solve_exact(rows)
    return _solve_rows(rows, tolerance)


# -- scanning -----------------------------------------------------------------

DEFAULT_LAMBDA0_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(-1),
)


@dataclass(frozen=True)
class ScanEntry:
    index: int
    values: dict[str, Value]
    lambda0: Value
    status: str
    c: Optional[Value]
    residual_max: float


@dataclass(frozen=True)
class ScanReport:
    family_id: str
    kind: str
    eta: Optional[int]
    seed: int
    count: int
    lambda0_grid: tuple[Value, ...]
    entries: tuple[ScanEntry, ...]

    @property
    def solvable(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status in ("unique", "any"))


class _IntegerKernel:
    """A system's c-decomposition compiled to integer terms for one scan.

    The 27 coefficient polynomials (P, Q, R per residual) share one
    coefficient denominator and are homogenised to their maximum total
    degree G with an extra base.  At a point whose values are n_j / L, with
    L the lcm of the value denominators, every polynomial f then takes the
    value F / (denominator * L**G) for an integer F computed from the power
    table of (n_1, ..., n_k, L).  The common factor is positive, so it
    cancels from -b/a and from every consistency test.
    """

    def __init__(self, table: VariableTable, decomposition):
        polys = [poly for triple in decomposition for poly in triple]
        used = set().union(*(poly.variables() for poly in polys))
        self.names = tuple(n for n in table.names if n in used)
        positions = [table.index(n) for n in self.names]
        self.degree = max((poly.total_degree() for poly in polys), default=0)
        denominator = lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
        width = self.degree + 1
        monomials: dict[Monomial, int] = {}
        self.monomials: list[tuple[int, ...]] = []  # flat power-table indices
        self.polys: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for poly in polys:
            slots, coeffs = [], []
            for mono, coeff in poly.terms.items():
                if mono not in monomials:
                    exps = [mono[i] for i in positions] + [self.degree - sum(mono)]
                    monomials[mono] = len(self.monomials)
                    self.monomials.append(
                        tuple(j * width + e for j, e in enumerate(exps) if e)
                    )
                slots.append(monomials[mono])
                coeffs.append(int(coeff * denominator))
            self.polys.append((tuple(slots), tuple(coeffs)))

    def rows(self, values: dict[str, Value]) -> list[tuple[int, int, int]]:
        """Integer (P, Q, R) per residual, all scaled by one positive factor."""
        vals = [values[n] for n in self.names]
        scale = lcm(*(v.denominator for v in vals))
        powers = []
        for base in [v.numerator * (scale // v.denominator) for v in vals] + [scale]:
            power = 1
            powers.append(power)
            for _ in range(self.degree):
                power *= base
                powers.append(power)
        mono = [prod(map(powers.__getitem__, idx)) for idx in self.monomials]
        out = [sum(map(mul, coeffs, map(mono.__getitem__, slots))) for slots, coeffs in self.polys]
        return list(zip(out[0::3], out[1::3], out[2::3]))


def scan(
    fam: LieAlgebraFamily,
    kind: str,
    seed: int = 0,
    count: int = 100,
    lambda0_grid: Sequence[Value] = DEFAULT_LAMBDA0_GRID,
    tolerance: float = 1e-9,
    mode: str = "exact",
) -> ScanReport:
    """Sample the constrained parameter space and solve for c everywhere.

    Deterministic for a fixed seed; entries are ordered point-major with
    the lambda0 grid in the given order.  Exact points are decided in
    integers by `_IntegerKernel` and `_solve_exact`; float points and float
    lambda0 values go through the tolerance path.
    """
    system = soliton_system(fam, kind)
    decomposition = _c_decomposition(system)
    kernel = _IntegerKernel(system.table, decomposition)
    points = sample_parameters(fam, seed=seed, count=count, mode=mode)
    entries: list[ScanEntry] = []
    for idx, pt in enumerate(points):
        values = pt.values
        exact_rows = kernel.rows(values) if _is_exact(values.values()) else None
        triples = None
        for lam in lambda0_grid:
            if exact_rows is not None and not isinstance(lam, float):
                n, d = lam.numerator, lam.denominator
                sol = _solve_exact([(d * r, d * p + n * q) for p, q, r in exact_rows])
            else:
                if triples is None:
                    triples = [
                        (p0.evaluate(values), q.evaluate(values), rc.evaluate(values))
                        for p0, q, rc in decomposition
                    ]
                sol = _solve_rows([(a, b0 + b1 * lam) for b0, b1, a in triples], tolerance)
            entries.append(
                ScanEntry(
                    index=idx,
                    values=values,
                    lambda0=lam,
                    status=sol.status,
                    c=sol.value,
                    residual_max=sol.residual_max,
                )
            )
    return ScanReport(
        family_id=fam.family_id,
        kind=kind,
        eta=fam.eta,
        seed=seed,
        count=count,
        lambda0_grid=tuple(lambda0_grid),
        entries=tuple(entries),
    )


# -- theorem cases -------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCase:
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


@dataclass(frozen=True)
class VerificationReport:
    label: str
    family_id: str
    kind: str
    method: str  # "exact" | "reduced" | "sampled" | "failed" | "scan-empty"
    ok: bool
    suspect: bool
    residual_zero: bool
    max_float_residual: float = 0.0
    witness: Optional[dict[str, Value]] = None
    counterexample: Optional[dict[str, Value]] = None
    variant_method: Optional[str] = None
    detail: str = ""


_METHOD_ORDER = {"exact": 0, "reduced": 1, "sampled": 2, "failed": 3}


def _family_branches(case: TheoremCase, table: VariableTable) -> list[LieAlgebraFamily]:
    if case.family_id == "g4":
        return [build_family("g4", eta=1, table=table), build_family("g4", eta=-1, table=table)]
    return [build_family(case.family_id, table=table)]


def _instantiate(poly: Polynomial, eta: Optional[int], table: VariableTable) -> Polynomial:
    if eta is not None and "eta" in poly.variables():
        return poly.substitute("eta", table.const(eta))
    return poly


def resolve_witness(
    case: TheoremCase, eta: Optional[int], table: VariableTable
) -> dict[str, Value]:
    """Witness values for one eta branch; symbolic entries must be constant."""
    out: dict[str, Value] = {}
    for name, value in case.witness:
        if isinstance(value, Polynomial):
            value = _instantiate(value, eta, table).constant_value()
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
        c_poly = _instantiate(c_expr, eta, table)
        residuals = [r.substitute("c", c_poly) for r in residuals]
    for var, expr in subs:
        expr = _instantiate(expr, eta, table)
        residuals = [r.substitute(var, expr) for r in residuals]
    return residuals


def _reduce_ladder(
    residuals: Sequence[Polynomial],
    system: SolitonSystem,
    subs: Sequence[tuple[str, Polynomial]],
    reductions: Sequence[tuple[str, Polynomial]],
    table: VariableTable,
) -> list[Polynomial]:
    """Rewrite by family constraints and the case's quadratic relations.

    A two-term constraint can be oriented two ways (either monomial as the
    pivot), and which orientation closes the reduction depends on how it
    interleaves with the square rewrites; all orientation combinations are
    tried and the first that reaches zero wins.  This stays deliberately
    short of ideal-membership machinery: when no orientation closes, the
    ladder falls through to sampling.
    """
    eta = system.eta
    sub_map = {var: _instantiate(expr, eta, table) for var, expr in subs}
    relations = []
    for q in system.constraints:
        q = q.substitute_all(sub_map)
        if not q.is_zero:
            relations.append(q)
    reds = [
        (var, _instantiate(rhs, eta, table).substitute_all(sub_map))
        for var, rhs in reductions
    ]

    pivot_choices = []
    for q in relations:
        monos = sorted(q.terms, key=lambda m: (sum(m), m), reverse=True)
        pivot_choices.append(monos[:2] if len(monos) == 2 else monos[:1])

    def run(pivots) -> list[Polynomial]:
        out = list(residuals)
        for _ in range(200):
            changed = False
            for i, r in enumerate(out):
                before = r
                for q, pivot in zip(relations, pivots):
                    r = r.reduce_by_relation(q, pivot=pivot)
                for var, rhs in reds:
                    if r.degree_in(var) >= 2:
                        r = r.reduce_square(var, rhs)
                if r != before:
                    out[i] = r
                    changed = True
            if not changed:
                return out
        return out

    combos = list(itertools.product(*pivot_choices)) if pivot_choices else [()]
    if len(combos) > 8:
        combos = combos[:8]
    first_result = None
    for pivots in combos:
        result = run(pivots)
        if first_result is None:
            first_result = result
        if all(r.is_zero for r in result):
            return result
    return first_result if first_result is not None else list(residuals)


_SAMPLE_POOL_NUM = tuple(range(-3, 4))
_SAMPLE_POOL_DEN = (1, 2, 3)


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
    sub_map = {var: _instantiate(expr, eta, table) for var, expr in subs}
    sample_map = {var: _instantiate(expr, eta, table) for var, expr in case.sample_subs}

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
        values[v] = Fraction(rng.choice(_SAMPLE_POOL_NUM), rng.choice(_SAMPLE_POOL_DEN))
    for var, expr in sample_map.items():
        values[var] = expr.evaluate(values)

    def tol() -> float:
        # exact points are decided exactly; only a float root brings slack
        return 0 if _is_exact(values.values()) else 1e-12

    for var, rhs in reductions:
        rhs_val = composed(_instantiate(rhs, eta, table)).evaluate(values)
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
                values[var] = (
                    Fraction(rng.choice(_SAMPLE_POOL_NUM), rng.choice(_SAMPLE_POOL_DEN))
                    if sol == "free"
                    else sol
                )
                continue
            return None
        if abs(con.evaluate(values)) > tol():
            return None
    # nonvanishing: family side conditions and the case hypotheses
    nonzero_tol = 0 if _is_exact(values.values()) else 1e-9
    for q in tuple(system.nonvanishing) + tuple(case.nonzero):
        q = composed(_instantiate(q, eta, table))
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
) -> tuple[str, float, Optional[dict[str, Value]]]:
    """Run the exact -> reduced -> sampled ladder on one system branch.

    Returns (method, max_float_residual, counterexample_point).
    """
    residuals = _apply_case(system, subs, c_expr, table)
    if all(r.is_zero for r in residuals):
        return "exact", 0.0, None
    reduced = _reduce_ladder(residuals, system, subs, reductions, table)
    if all(r.is_zero for r in reduced):
        return "reduced", 0.0, None
    rng = random.Random(seed)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < sample_count:
        attempts += 1
        if attempts > 50 * sample_count:
            return "failed", worst, None
        values = _sample_case_locus(system, case, subs, reductions, table, rng)
        if values is None:
            continue
        full = dict(values)
        full["lambda0"] = Fraction(rng.choice(_SAMPLE_POOL_NUM), rng.choice(_SAMPLE_POOL_DEN))
        if c_expr is None:
            full["c"] = Fraction(rng.choice(_SAMPLE_POOL_NUM), rng.choice(_SAMPLE_POOL_DEN))
        tol = 0 if _is_exact(full.values()) else tolerance
        for r in residuals:
            val = r.evaluate(full)
            mag = abs(float(val))
            worst = max(worst, mag)
            if abs(val) > tol:
                return "failed", worst, full
        checked += 1
    return "sampled", worst, None


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
    variant_method: Optional[str] = None
    for fam in _family_branches(case, table):
        system = soliton_system(fam, case.kind)
        method, worst, counter = _verify_single(
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
            stated_method, stated_counter = method, counter
        stated_worst = max(stated_worst, worst)
        if (
            case.variant_substitutions is not None
            or case.variant_c is not None
            or case.variant_reductions is not None
        ):
            v_subs, v_c, v_reds = case.effective()
            v_method, _, _ = _verify_single(
                system, case, v_subs, v_c, v_reds, table, seed, sample_count, tolerance
            )
            if variant_method is None or _METHOD_ORDER[v_method] > _METHOD_ORDER[variant_method]:
                variant_method = v_method

    ok = stated_method in ("exact", "reduced") or (
        case.suspect and variant_method in ("exact", "reduced")
    )
    detail = case.note
    if stated_method == "failed" and not case.suspect:
        ok = False
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
        detail=detail,
    )


def _verify_empty(
    case: TheoremCase, table: VariableTable, seed: int, tolerance: float
) -> VerificationReport:
    """A no-solutions claim: scan both branches and demand zero solvable."""
    solvable = 0
    total = 0
    for fam in _family_branches(case, table):
        report = scan(fam, case.kind, seed=seed, count=500, tolerance=tolerance)
        solvable += len(report.solvable)
        total += len(report.entries)
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
    for fam in _family_branches(case, table):
        system = soliton_system(fam, case.kind)
        witness = resolve_witness(case, system.eta, table)
        point = dict(witness)
        point["lambda0"] = lambda0_value
        c_val = _instantiate(c_expr, system.eta, table).evaluate(point)
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
    """Does a solvable scan entry fall inside the case's (effective) locus?"""
    if case.empty:
        return False
    subs, c_expr, reductions = case.effective()
    tol = 0 if _is_exact(values.values()) and not isinstance(lambda0_value, float) else tolerance

    def instantiated(q: Polynomial) -> Polynomial:
        return _instantiate(q, eta, table)

    for var, expr in subs:
        expected = instantiated(expr).evaluate(values)
        if abs(values[var] - expected) > tol:
            return False
    for var, rhs in reductions:
        target = instantiated(rhs).evaluate(values)
        if abs(values[var] ** 2 - target) > tol:
            return False
    for q in case.nonzero:
        if abs(instantiated(q).evaluate(values)) <= tol:
            return False
    if c_expr is None:
        return True
    if c_solution.status == "any":
        return True
    point = dict(values)
    point["lambda0"] = lambda0_value
    expected_c = instantiated(c_expr).evaluate(point)
    return abs(c_solution.value - expected_c) <= tol
