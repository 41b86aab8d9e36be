"""Reference membership test that scan membership is compared with.

It decides whether a solvable point lies in a case's (effective) locus with
the case's c straight from the case data, by `Polynomial.evaluate`: each
substitution var := expr as |var - expr|, each reduction var^2 := rhs as
|var^2 - rhs|, each hypothesis as |q|, and the solved c against c_expr at
the point and lambda0.  An exact point with an exact lambda0 compares the
Fractions with 0; a float anywhere compares against the tolerance.  It
compiles nothing and forms no difference polynomial, unlike the compiled
membership in `lieschouten.soliton` that it checks.
"""

from lieschouten.algebras import instantiate_eta


def reference_case_matches_point(case, eta, values, lambda0_value, c_solution, table, tolerance=1e-9):
    if case.empty:
        return False
    exact = not any(isinstance(v, float) for v in [*values.values(), lambda0_value])
    tol = 0 if exact else tolerance
    subs, c_expr, reductions = case.effective()

    def at(q, point=values):
        return instantiate_eta(q, eta, table).evaluate(point)

    if any(abs(values[var] - at(expr)) > tol for var, expr in subs):
        return False
    if any(abs(values[var] ** 2 - at(rhs)) > tol for var, rhs in reductions):
        return False
    if any(abs(at(q)) <= tol for q in case.nonzero):
        return False
    if c_expr is None or c_solution.status == "any":
        return True
    return abs(c_solution.value - at(c_expr, {**values, "lambda0": lambda0_value})) <= tol
