"""Reference membership test that scan membership is compared with.

It decides whether a solvable point lies in a case's (effective) locus with
the case's c straight from the case data, by `Polynomial.evaluate`: each
substitution var := expr as var == expr, each reduction var^2 := rhs as
var^2 == rhs, each hypothesis as q != 0, and the solved c against c_expr
at the point and lambda0, every comparison exact, at a point of Fractions
or of Surds.  It compiles nothing and forms no difference polynomial,
unlike the compiled membership in `lieschouten.soliton` that it checks.
"""

from lieschouten.algebras import instantiate_eta


def reference_case_matches_point(case, eta, values, lambda0_value, c_solution):
    if case.empty:
        return False
    subs, c_expr, reductions = case.effective()

    def at(q, point=values):
        return instantiate_eta(q, eta).evaluate(point)

    if any(values[var] != at(expr) for var, expr in subs):
        return False
    if any(values[var] ** 2 != at(rhs) for var, rhs in reductions):
        return False
    if any(at(q) == 0 for q in case.nonzero):
        return False
    if c_expr is None or c_solution.status == "any":
        return True
    return c_solution.value == at(c_expr, {**values, "lambda0": lambda0_value})
