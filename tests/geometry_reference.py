"""Reference constructions that the differential tests compare the engine with.

Each is written out here from its definition, independently of the shared
curvature helper in `lieschouten.geometry` and of the way `soliton_system`
builds its residuals:

* `reference_levi_civita`: the Koszul formula with every eps factor
  multiplied in, zero constants included,
* `reference_canonical` and `reference_kobayashi_nomizu`: the derived
  connections from their defining formulas, nabla - 1/2 (nabla J) J and
  nabla0 - 1/4 [(nabla_Y J) J X - (nabla_{JY} J) X], with nabla J formed
  here from the Levi-Civita coefficients,
* `reference_curvature`: every component of R(e_i, e_j) e_k, term by term,
* `reference_ricci_form`: the weighted contraction of that full tensor,
* `derivation_candidate`: D = Sch~ - c*Id with the Schouten form raised,
  built from the reference Ricci form,
* `reference_derivation_residuals`: the components of
  D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], each bracket and image expanded
  term by term with every product formed, zero factors included,
* `generated_families`: seeded custom algebras with affine bracket entries,
* `G5_ON_A_CIRCLE`: g5 restricted to alpha^2 + beta^2 = 4, a custom algebra
  whose quadratic constraint has no linear split, so its points carry Surds.
"""

import random
from fractions import Fraction

from lieschouten.algebras import LORENTZIAN_EPS, PRODUCT_STRUCTURE_J, custom_family
from lieschouten.geometry import (
    LEVI_CIVITA,
    BilinearForm,
    OperatorMatrix,
    connection,
    levi_civita,
    ricci_operator,
    scalar_curvature,
    schouten_form,
    symmetrize,
)


def reference_levi_civita(fam):
    """Gamma^k_ij from 2 eps_k Gamma^k_ij = C^k_ij eps_k - C^i_jk eps_i + C^j_ki eps_j."""
    c = fam.structure.c
    eps = LORENTZIAN_EPS
    half = Fraction(1, 2)
    return [
        [
            [(c[i][j][k] * eps[k] - c[j][k][i] * eps[i] + c[k][i][j] * eps[j]) * (half * eps[k]) for k in range(3)]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _nabla_j(gamma):
    """nj[i][j][k]: the e_k component of (nabla_{e_i} J) e_j
    = nabla_{e_i}(J e_j) - J nabla_{e_i} e_j = Gamma_ij^k (sigma_j - sigma_k)."""
    sigma = PRODUCT_STRUCTURE_J
    return [[[gamma[i][j][k] * (sigma[j] - sigma[k]) for k in range(3)] for j in range(3)] for i in range(3)]


def reference_canonical(fam):
    """Gamma0_ij^k = Gamma_ij^k - 1/2 sigma_j (nabla_{e_i} J)_j^k."""
    g = levi_civita(fam).gamma
    nj = _nabla_j(g)
    sigma = PRODUCT_STRUCTURE_J
    half = Fraction(1, 2)
    return [[[g[i][j][k] - half * sigma[j] * nj[i][j][k] for k in range(3)] for j in range(3)] for i in range(3)]


def reference_kobayashi_nomizu(fam):
    """Gamma1_ij^k = Gamma0_ij^k - 1/4 (sigma_i - sigma_j) (nabla_{e_j} J)_i^k:
    on (X, Y) = (e_i, e_j), (nabla_Y J) J X - (nabla_{JY} J) X is
    (sigma_i - sigma_j) (nabla_{e_j} J) e_i."""
    nj = _nabla_j(levi_civita(fam).gamma)
    g0 = reference_canonical(fam)
    sigma = PRODUCT_STRUCTURE_J
    quarter = Fraction(1, 4)
    return [
        [[g0[i][j][k] - quarter * (sigma[i] - sigma[j]) * nj[j][i][k] for k in range(3)] for j in range(3)]
        for i in range(3)
    ]


def reference_curvature(conn, fam):
    """r[i][j][k][l]: the e_l component of
    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k."""
    g = conn.gamma
    c = fam.structure.c
    zero = fam.table.zero
    r = [[[[zero] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = zero
                    for m in range(3):
                        acc = acc + g[j][k][m] * g[i][m][l]
                        acc = acc - g[i][k][m] * g[j][m][l]
                        acc = acc - c[i][j][m] * g[m][k][l]
                    r[i][j][k][l] = acc
    return tuple(tuple(tuple(map(tuple, plane)) for plane in planes) for planes in r)


def reference_ricci_form(conn, fam, r=None):
    """rho(e_i, e_j) = sum_a w_a g(R(e_i, e_a) e_j, e_a) over all three a,
    weights w = -eps, negated for the Levi-Civita kind."""
    r = reference_curvature(conn, fam) if r is None else r
    eps = LORENTZIAN_EPS
    sign = -1 if conn.kind == LEVI_CIVITA else 1
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = fam.table.zero
            for a in range(3):
                acc = acc + (-eps[a]) * eps[a] * r[i][a][j][a]
            row.append(sign * acc)
        rows.append(tuple(row))
    return BilinearForm(tuple(rows))


def derivation_candidate(fam, kind):
    """D = Sch~ - c*Id, where Sch~ raises the Schouten form rho - s*lambda0*g
    of the reference Ricci form (symmetrized for the non-Levi-Civita kinds)."""
    rho = reference_ricci_form(connection(fam, kind), fam)
    form = rho if kind == LEVI_CIVITA else symmetrize(rho)
    s = scalar_curvature(form)
    table = fam.table
    sch = ricci_operator(schouten_form(form, s, table.var("lambda0")))
    c = table.var("c")
    rows = [[q - c if i == j else q for j, q in enumerate(row)] for i, row in enumerate(sch.entries)]
    return OperatorMatrix(tuple(tuple(r) for r in rows))


def reference_derivation_residuals(d, fam):
    """Nine components, pair (1,2), (1,3), (2,3) and e1, e2, e3 within each,
    of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], from D e_k = sum_m D_km e_m
    (row k of `d` is the image of e_k) and [e_i,e_j] = sum_k C_ij^k e_k."""
    c = fam.structure.c
    rows = d.entries
    zero = fam.table.zero
    out = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d_bracket, left, right = [zero] * 3, [zero] * 3, [zero] * 3
        for k in range(3):
            for m in range(3):
                d_bracket[m] = d_bracket[m] + c[i][j][k] * rows[k][m]  # D(C_ij^k e_k)
                left[m] = left[m] + rows[i][k] * c[k][j][m]  # [D_ik e_k, e_j]
                right[m] = right[m] + rows[j][k] * c[i][k][m]  # [e_i, D_jk e_k]
        out += [d_bracket[m] - left[m] - right[m] for m in range(3)]
    return out


_PARAMETERS = ("alpha", "beta", "gamma", "delta")
_COEFFICIENTS = tuple(Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3))


def generated_families(seed, count):
    """`count` custom algebras: each bracket entry is zero with probability
    1/2 and otherwise an affine form in two of alpha..delta.  The Jacobi
    identity is not imposed; the identities tested hold for any brackets."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.5:
            return "0"
        names = rng.sample(_PARAMETERS, 2)
        parts = [f"{rng.choice(_COEFFICIENTS)}*{n}" for n in names]
        return " + ".join(parts + [str(rng.choice(_COEFFICIENTS))])

    out = []
    for _ in range(count):
        lines = [f"bracket.{key} = " + ", ".join(entry() for _ in range(3)) for key in ("12", "13", "23")]
        out.append(custom_family("\n".join(lines) + "\n"))
    return out


# The quadratic constraint is solved for beta by the quadratic formula, often
# a Surd, and the linear one for delta in beta's quadratic field.  The same
# algebra is tests/data/circle.alg.
G5_ON_A_CIRCLE = """
bracket.13 = alpha, beta, 0
bracket.23 = gamma, delta, 0
constraints = alpha^2 + beta^2 - 4; alpha*gamma + beta*delta
nonvanishing = alpha + delta
"""
