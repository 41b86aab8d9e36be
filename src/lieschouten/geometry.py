"""Connections and curvature for left-invariant metrics in dimension 3.

Everything is computed symbolically from the structure constants:

* the Levi-Civita connection via the Koszul formula
      2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y),
* the canonical connection   nabla0_X Y = nabla_X Y - 1/2 (nabla_X J) J Y,
* the Kobayashi-Nomizu connection
      nabla1_X Y = nabla0_X Y - 1/4 [ (nabla_Y J) J X - (nabla_{JY} J) X ],
* curvature  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
* the Ricci form
      rho(X,Y) = -g(R(X,e1)Y,e1) - g(R(X,e2)Y,e2) + g(R(X,e3)Y,e3),
  its symmetrization, the epsilon-weighted scalar curvature, and the
  lambda0-generalized Schouten form rho - s*lambda0*g.

The Ricci form is contracted directly: `ricci_form` reads only the 18
curvature components R^a_iaj (a != i) of its trace, through the one helper
`_curvature_products` that `curvature` also uses for the full tensor.  That
helper lists a component's nine signed products; `poly.sum_of_products`
folds them, skipping any with a zero factor, into one integer
accumulation: one per component in `curvature`, one per entry over both
components' products in `ricci_form`.
For the diagonal J the canonical and Kobayashi-Nomizu coefficients are
written in closed form from the Levi-Civita ones, which is what the two
defining formulas reduce to.

Sign caveat: the catalogued reference matrices for the Levi-Civita
connection follow the opposite curvature sign convention from the
canonical/Kobayashi-Nomizu series (R(X,Y) = nabla_[X,Y] - [nabla_X,
nabla_Y] versus the commutator-first form above).  `ricci_form` folds that
single sign into the Levi-Civita branch so both series of catalogued
matrices are reproduced as exact identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebras import BRANCH_CACHE_SIZE, PRODUCT_STRUCTURE_J, LieAlgebraFamily, MetricSignature
from .poly import Polynomial, sum_of_products

LEVI_CIVITA = "lc"
CANONICAL = "canonical"
KOBAYASHI_NOMIZU = "kn"
CONNECTION_KINDS = (LEVI_CIVITA, CANONICAL, KOBAYASHI_NOMIZU)
# Accepted spellings of a connection kind, in the catalog and on the CLI.
KIND_ALIASES = {"lc": LEVI_CIVITA, "canonical": CANONICAL, "kn": KOBAYASHI_NOMIZU}

Matrix3 = tuple[tuple[Polynomial, ...], ...]
Array3 = tuple[tuple[tuple[Polynomial, ...], ...], ...]


def _freeze3(rows) -> Matrix3:
    return tuple(tuple(row) for row in rows)


class ConnectionCoefficients(NamedTuple):
    """Gamma[i][j][k]: nabla_{e_i} e_j = sum_k Gamma[i][j][k] e_k."""

    kind: str
    gamma: Array3


class CurvatureTensor(NamedTuple):
    """r[i][j][k][l]: R(e_i, e_j) e_k = sum_l r[i][j][k][l] e_l."""

    r: tuple[Array3, ...]


class BilinearForm(NamedTuple):
    entries: Matrix3

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        return self.entries[ij[0]][ij[1]]

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i] for i in range(3) for j in range(i)
        )


class OperatorMatrix(NamedTuple):
    """Row convention: row i holds the components of the image of e_i."""

    entries: Matrix3

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        return self.entries[ij[0]][ij[1]]


def levi_civita(fam: LieAlgebraFamily) -> ConnectionCoefficients:
    """Koszul-formula Levi-Civita connection of the family's metric.

    2 eps_k Gamma^k_ij = C^k_ij eps_k - C^i_jk eps_i + C^j_ki eps_j: the
    nonzero constants are added or subtracted by the sign of their eps
    factor, and the sum is scaled once by eps_k / 2.
    """
    c = fam.structure.c
    eps = fam.metric.eps
    gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                acc = fam.table.zero
                for sign, q in ((eps[k], c[i][j][k]), (-eps[i], c[j][k][i]), (eps[j], c[k][i][j])):
                    acc = acc + q if sign > 0 else acc - q
                gamma[i][j][k] = acc if acc.is_zero else acc * Fraction(eps[k], 2)
    return ConnectionCoefficients(LEVI_CIVITA, _freeze3([_freeze3(g) for g in gamma]))


def nabla_j(conn: ConnectionCoefficients) -> tuple[OperatorMatrix, ...]:
    """The three operators (nabla_{e_i} J), rows as images of e_j.

    (nabla_{e_i} J) e_j = nabla_{e_i}(J e_j) - J nabla_{e_i} e_j, which for
    diagonal J reduces to Gamma[i][j][k] (sigma_j - sigma_k) on e_k.
    """
    sigma = PRODUCT_STRUCTURE_J
    out = []
    for i in range(3):
        rows = [
            [conn.gamma[i][j][k] * (sigma[j] - sigma[k]) for k in range(3)]
            for j in range(3)
        ]
        out.append(OperatorMatrix(_freeze3(rows)))
    return tuple(out)


def canonical_connection(fam: LieAlgebraFamily) -> ConnectionCoefficients:
    """nabla0 = nabla - 1/2 (nabla J) J, which parallelizes J and the metric.

    For the diagonal J the correction removes Gamma_ij^k (sigma_j - sigma_k)
    sigma_j / 2 from Gamma_ij^k, so Gamma0_ij^k is Gamma_ij^k where
    sigma_j = sigma_k and zero elsewhere.
    """
    g = connection(fam, LEVI_CIVITA).gamma
    sigma = PRODUCT_STRUCTURE_J
    zero = fam.table.zero
    gamma = [
        [[g[i][j][k] if sigma[j] == sigma[k] else zero for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    return ConnectionCoefficients(CANONICAL, _freeze_array3(gamma))


def kobayashi_nomizu(fam: LieAlgebraFamily) -> ConnectionCoefficients:
    """nabla1 = nabla0 - 1/4 [(nabla_Y J) J X - (nabla_{JY} J) X] on (X, Y).

    For the diagonal J the correction on (e_i, e_j) has e_k component
    (sigma_i - sigma_j)(sigma_i - sigma_k)/4 Gamma_ji^k, which is Gamma_ji^k
    where sigma_j = sigma_k != sigma_i and zero elsewhere.
    """
    g = connection(fam, LEVI_CIVITA).gamma
    g0 = connection(fam, CANONICAL).gamma
    sigma = PRODUCT_STRUCTURE_J
    gamma = [
        [
            [g0[i][j][k] - g[j][i][k] if sigma[j] == sigma[k] != sigma[i] else g0[i][j][k] for k in range(3)]
            for j in range(3)
        ]
        for i in range(3)
    ]
    return ConnectionCoefficients(KOBAYASHI_NOMIZU, _freeze_array3(gamma))


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def connection(fam: LieAlgebraFamily, kind: str) -> ConnectionCoefficients:
    """The connection of one branch, built once per (family, kind) value."""
    if kind == LEVI_CIVITA:
        return levi_civita(fam)
    if kind == CANONICAL:
        return canonical_connection(fam)
    if kind == KOBAYASHI_NOMIZU:
        return kobayashi_nomizu(fam)
    raise ValueError(f"unknown connection kind {kind!r}")


def _curvature_products(
    conn: ConnectionCoefficients, fam: LieAlgebraFamily, i: int, j: int, k: int, l: int, sign: int = 1
) -> list[tuple[int, Polynomial, Polynomial]]:
    """sign * R^l_ijk, the e_l component of R(e_i, e_j) e_k, as the nine
    signed products of

        sum_m (Gamma_jk^m Gamma_im^l - Gamma_ik^m Gamma_jm^l - C_ij^m Gamma_mk^l),

    for `sum_of_products`, which skips those with a zero factor.
    """
    g = conn.gamma
    c = fam.structure.c
    out = []
    for m in range(3):
        out += ((sign, g[j][k][m], g[i][m][l]), (-sign, g[i][k][m], g[j][m][l]), (-sign, c[i][j][m], g[m][k][l]))
    return out


def curvature(conn: ConnectionCoefficients, fam: LieAlgebraFamily) -> CurvatureTensor:
    """The full tensor, each plane (i, j) with i != j computed on its own.

    No plane is derived from another by antisymmetry, so the structural
    check R(e_i, e_j) = -R(e_j, e_i) tests the components themselves.
    """
    table = fam.table
    zero = table.zero
    return CurvatureTensor(
        tuple(
            tuple(
                tuple(
                    tuple(
                        zero if i == j else sum_of_products(table, _curvature_products(conn, fam, i, j, k, l))
                        for l in range(3)
                    )
                    for k in range(3)
                )
                for j in range(3)
            )
            for i in range(3)
        )
    )


def ricci_form(conn: ConnectionCoefficients, fam: LieAlgebraFamily) -> BilinearForm:
    """rho(e_i, e_j) with the weights (-1, -1, +1) over the basis trace.

    The contraction is taken straight from the 18 components R^a_iaj with
    a != i (R(e_i, e_i) = 0), without building the curvature tensor: each
    entry is one `sum_of_products` over the 18 products of its two
    components.  For the Levi-Civita kind it is negated, a sign folded into
    the products' signs; see the module docstring for why the two
    catalogued series need opposite signs.
    """
    # the weight -eps_a times the eps_a of g(R(e_i, e_a) e_j, e_a) = R^a_iaj
    # eps_a is -1 for every a, so the trace is -sum_a R^a_iaj, which the
    # Levi-Civita kind negates
    sign = 1 if conn.kind == LEVI_CIVITA else -1
    rows = [
        [
            sum_of_products(
                fam.table, [t for a in range(3) if a != i for t in _curvature_products(conn, fam, i, a, j, a, sign)]
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    return BilinearForm(_freeze3(rows))


def symmetrize(form: BilinearForm) -> BilinearForm:
    half = Fraction(1, 2)
    rows = [
        [(form.entries[i][j] + form.entries[j][i]) * half for j in range(3)]
        for i in range(3)
    ]
    return BilinearForm(_freeze3(rows))


def ricci_operator(form: BilinearForm, metric: MetricSignature) -> OperatorMatrix:
    """Index raising: entry (i, j) = eps_j * form(e_i, e_j)."""
    rows = [
        [form.entries[i][j] * metric.eps[j] for j in range(3)] for i in range(3)
    ]
    return OperatorMatrix(_freeze3(rows))


def scalar_curvature(form: BilinearForm) -> Polynomial:
    """Epsilon-weighted trace: form(e1,e1) + form(e2,e2) - form(e3,e3)."""
    return form.entries[0][0] + form.entries[1][1] - form.entries[2][2]


def schouten_form(form: BilinearForm, s: Polynomial, lambda0: Polynomial) -> BilinearForm:
    """rho - s*lambda0*g for g = diag(1, 1, -1)."""
    shift = [s * lambda0 * eps for eps in (1, 1, -1)]
    rows = [[q - shift[i] if i == j else q for j, q in enumerate(row)] for i, row in enumerate(form.entries)]
    return BilinearForm(_freeze3(rows))


def torsion(conn: ConnectionCoefficients, fam: LieAlgebraFamily) -> Array3:
    """T(e_i, e_j) components: Gamma^k_ij - Gamma^k_ji - C^k_ij."""
    g = conn.gamma
    c = fam.structure.c
    return _freeze_array3(
        [
            [[g[i][j][k] - g[j][i][k] - c[i][j][k] for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
    )


def metric_compatibility_residual(
    conn: ConnectionCoefficients, fam: LieAlgebraFamily
) -> Array3:
    """(nabla_{e_i} g)(e_j, e_k) = -Gamma^k_ij eps_k - Gamma^j_ik eps_j."""
    g = conn.gamma
    eps = fam.metric.eps
    return _freeze_array3(
        [
            [
                [-(g[i][j][k] * eps[k]) - (g[i][k][j] * eps[j]) for k in range(3)]
                for j in range(3)
            ]
            for i in range(3)
        ]
    )


def _freeze_array3(arr) -> Array3:
    return tuple(_freeze3(plane) for plane in arr)


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def ricci_pipeline(fam: LieAlgebraFamily, kind: str):
    """The (form, operator, scalar) triple the reference matrices display.

    The Levi-Civita Ricci form is already symmetric; for the other two
    connections the raw form is symmetrized before the operator is built.
    Built once per (family, kind) value, like `connection`.
    """
    conn = connection(fam, kind)
    rho = ricci_form(conn, fam)
    form = rho if kind == LEVI_CIVITA else symmetrize(rho)
    op = ricci_operator(form, fam.metric)
    s = scalar_curvature(form)
    return form, op, s
