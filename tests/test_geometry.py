"""Structural identities of the three connections and spot fixture checks.

The full catalogued matrix/scalar comparisons live in test_catalog and
test_acceptance; here the geometry engine is pinned down through the
identities it must satisfy for every family and through a few hand-typed
reference entries.
"""

import itertools
from fractions import Fraction

import pytest

from lieschouten.algebras import FAMILY_IDS, build_family, custom_family
from lieschouten.geometry import (
    CANONICAL,
    CONNECTION_KINDS,
    KOBAYASHI_NOMIZU,
    LEVI_CIVITA,
    BilinearForm,
    canonical_connection,
    connection,
    curvature,
    kobayashi_nomizu,
    levi_civita,
    metric_compatibility_residual,
    nabla_j,
    ricci_form,
    ricci_operator,
    ricci_pipeline,
    scalar_curvature,
    schouten_form,
    symmetrize,
    torsion,
)
from lieschouten.poly import DEFAULT_TABLE, parse_polynomial

from geometry_reference import (
    generated_families,
    reference_canonical,
    reference_curvature,
    reference_kobayashi_nomizu,
    reference_levi_civita,
    reference_ricci_form,
)

T = DEFAULT_TABLE
ABELIAN = custom_family("")


def p(text):
    return parse_polynomial(text, T)


def _at_zero(q, names):
    """q with each of `names` set to zero, one substitution after another."""
    for name in names:
        q = q.substitute(name, T.zero)
    return q


def all_families():
    out = []
    for fid in FAMILY_IDS:
        if fid == "g4":
            out.append(build_family("g4", eta=1))
            out.append(build_family("g4", eta=-1))
        else:
            out.append(build_family(fid))
    return out


FAMILIES = all_families()


def fam_id(fam):
    return fam.describe()


class TestLeviCivita:
    def test_abelian_connection_vanishes(self):
        lc = levi_civita(ABELIAN)
        assert all(
            lc.gamma[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3)
        )

    def test_g3_abelian_specialization(self):
        lc = levi_civita(build_family("g3"))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert _at_zero(lc.gamma[i][j][k], ("alpha", "beta", "gamma")).is_zero

    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_torsion_free(self, fam):
        t = torsion(levi_civita(fam), fam)
        assert all(t[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3))

    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_metric_compatible(self, fam):
        res = metric_compatibility_residual(levi_civita(fam), fam)
        assert all(res[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3))


class TestNablaJ:
    def test_abelian_all_zero(self):
        mats = nabla_j(levi_civita(ABELIAN))
        assert all(q.is_zero for m in mats for row in m.entries for q in row)

    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_anticommutes_with_j(self, fam):
        # (nabla_X J) J + J (nabla_X J) = 0 follows from J^2 = Id
        sigma = (1, 1, -1)
        for m in nabla_j(levi_civita(fam)):
            for j in range(3):
                for k in range(3):
                    lhs = m.entries[j][k] * sigma[j] + sigma[k] * m.entries[j][k]
                    assert lhs.is_zero


class TestDerivedConnections:
    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_canonical_parallelizes_j_and_metric(self, fam):
        conn = canonical_connection(fam)
        assert all(
            q.is_zero for m in nabla_j(conn) for row in m.entries for q in row
        )
        res = metric_compatibility_residual(conn, fam)
        assert all(res[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3))

    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_kn_parallelizes_j(self, fam):
        conn = kobayashi_nomizu(fam)
        assert all(
            q.is_zero for m in nabla_j(conn) for row in m.entries for q in row
        )

    def test_abelian_derived_connections_vanish(self):
        for kind in (CANONICAL, KOBAYASHI_NOMIZU):
            conn = connection(ABELIAN, kind)
            assert all(
                conn.gamma[i][j][k].is_zero
                for i in range(3)
                for j in range(3)
                for k in range(3)
            )

    def test_g1_canonical_torsion_reported_nonzero(self):
        t = torsion(canonical_connection(build_family("g1")), build_family("g1"))
        assert any(
            not t[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3)
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            connection(build_family("g1"), "weyl")


GENERATED = generated_families(seed=11, count=6)


@pytest.mark.parametrize(
    "build, reference",
    [
        (levi_civita, reference_levi_civita),
        (canonical_connection, reference_canonical),
        (kobayashi_nomizu, reference_kobayashi_nomizu),
    ],
    ids=[LEVI_CIVITA, CANONICAL, KOBAYASHI_NOMIZU],
)
@pytest.mark.parametrize("fams", [FAMILIES, generated_families(seed=5, count=48)], ids=["catalogue", "custom"])
def test_closed_form_derived_connections_match_their_definitions(fams, build, reference):
    # float evaluation sums in dict order, so the term order is pinned too
    for fam in fams:
        got = build(fam).gamma
        expected = reference(fam)
        for i, j, k in itertools.product(range(3), repeat=3):
            assert list(got[i][j][k].terms.items()) == list(expected[i][j][k].terms.items())


@pytest.mark.parametrize(
    "fam",
    FAMILIES + GENERATED,
    ids=[fam_id(f) for f in FAMILIES] + [f"custom{k}" for k in range(len(GENERATED))],
)
@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_ricci_form_is_the_contraction_of_the_full_tensor(fam, kind):
    conn = connection(fam, kind)
    r = reference_curvature(conn, fam)
    assert curvature(conn, fam).r == r
    assert ricci_form(conn, fam) == reference_ricci_form(conn, fam, r)


class TestCurvature:
    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_antisymmetry_in_first_slots(self, fam, kind):
        riem = curvature(connection(fam, kind), fam)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert (riem.r[i][j][k][l] + riem.r[j][i][k][l]).is_zero

    def test_abelian_flat(self):
        riem = curvature(levi_civita(ABELIAN), ABELIAN)
        assert all(
            riem.r[i][j][k][l].is_zero
            for i in range(3)
            for j in range(3)
            for k in range(3)
            for l in range(3)
        )


class TestRicci:
    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_lc_form_symmetric(self, fam):
        assert ricci_form(levi_civita(fam), fam).is_symmetric

    def test_g1_lc_matches_reference_matrix(self):
        _, op, s = ricci_pipeline(build_family("g1"), LEVI_CIVITA)
        expected = [
            ["1/2*beta^2", "alpha*beta", "alpha*beta"],
            ["alpha*beta", "2*alpha^2 + 1/2*beta^2", "2*alpha^2"],
            ["-alpha*beta", "-2*alpha^2", "-2*alpha^2 + 1/2*beta^2"],
        ]
        for i in range(3):
            for j in range(3):
                assert op.entries[i][j] == p(expected[i][j])
        assert s == p("3/2*beta^2")

    def test_g1_canonical_matches_reference_matrix(self):
        _, op, s = ricci_pipeline(build_family("g1"), CANONICAL)
        expected = [
            ["-(alpha^2 + 1/2*beta^2)", "0", "-1/4*alpha*beta"],
            ["0", "-(alpha^2 + 1/2*beta^2)", "-1/2*alpha^2"],
            ["1/4*alpha*beta", "1/2*alpha^2", "0"],
        ]
        for i in range(3):
            for j in range(3):
                assert op.entries[i][j] == p(expected[i][j])
        assert s == p("-2*(alpha^2 + 1/2*beta^2)")

    def test_g5_canonical_is_flat(self):
        _, op, s = ricci_pipeline(build_family("g5"), CANONICAL)
        assert all(q.is_zero for row in op.entries for q in row)
        assert s.is_zero

    def test_operator_raises_index_with_metric(self):
        form = BilinearForm(
            tuple(tuple(T.one if i == j else T.zero for j in range(3)) for i in range(3))
        )
        op = ricci_operator(form, build_family("g1").metric)
        assert op.entries[0][0] == T.one
        assert op.entries[1][1] == T.one
        assert op.entries[2][2] == -T.one

    def test_scalar_examples(self):
        assert ricci_pipeline(build_family("g7"), LEVI_CIVITA)[2] == p("-1/2*gamma^2")
        assert ricci_pipeline(build_family("g3"), CANONICAL)[2] == p(
            "-gamma*(alpha + beta - gamma)"
        )
        assert ricci_pipeline(build_family("g7"), KOBAYASHI_NOMIZU)[2] == p(
            "-(2*alpha^2 + beta^2 + beta*gamma)"
        )


class TestSymmetrize:
    def test_idempotent_on_symmetric(self):
        form = ricci_form(levi_civita(build_family("g2")), build_family("g2"))
        assert symmetrize(form) == form

    def test_antisymmetric_input_vanishes(self):
        a = p("alpha")
        rows = (
            (T.zero, a, T.zero),
            (-a, T.zero, T.zero),
            (T.zero, T.zero, T.zero),
        )
        out = symmetrize(BilinearForm(rows))
        assert all(q.is_zero for row in out.entries for q in row)


class TestSchouten:
    def test_lambda0_zero_returns_form(self):
        fam = build_family("g2")
        form, _, s = ricci_pipeline(fam, LEVI_CIVITA)
        assert schouten_form(form, s, T.zero) == form

    def test_classical_quarter_normalization(self):
        fam = build_family("g1")
        form, _, s = ricci_pipeline(fam, LEVI_CIVITA)
        classical = schouten_form(form, s, p("1/4"))
        for i in range(3):
            eps = (1, 1, -1)[i]
            assert classical.entries[i][i] == form.entries[i][i] - p("1/4") * s * eps

    def test_abelian_vanishes(self):
        form, _, s = ricci_pipeline(ABELIAN, LEVI_CIVITA)
        out = schouten_form(form, s, T.var("lambda0"))
        assert all(q.is_zero for row in out.entries for q in row)


class TestMetricResidualReporting:
    def test_kn_residual_is_reported_value(self):
        # the KN connection is generally not metric; the residual is data,
        # not an assertion
        fam = build_family("g1")
        res = metric_compatibility_residual(kobayashi_nomizu(fam), fam)
        assert any(
            not res[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3)
        )

    def test_kn_residual_golden_for_g1(self):
        # frozen from an independent hand computation of nabla1 on g1
        fam = build_family("g1")
        res = metric_compatibility_residual(kobayashi_nomizu(fam), fam)
        nonzero = {
            (i, j, k): str(res[i][j][k])
            for i in range(3)
            for j in range(3)
            for k in range(3)
            if not res[i][j][k].is_zero
        }
        assert nonzero == {
            (1, 2, 2): "2*alpha",
            (2, 0, 0): "-2*alpha",
            (2, 1, 1): "2*alpha",
        }

    @pytest.mark.parametrize("fam", FAMILIES, ids=fam_id)
    def test_canonical_torsion_against_rederivation(self, fam):
        # independent route: with nabla torsion-free, the canonical torsion
        # is T0(e_i,e_j) = -1/2 (nabla_i J) J e_j + 1/2 (nabla_j J) J e_i
        sigma = (1, 1, -1)
        lc = levi_civita(fam)
        nj = nabla_j(lc)
        computed = torsion(canonical_connection(fam), fam)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected = (
                        nj[j].entries[i][k] * sigma[i] - nj[i].entries[j][k] * sigma[j]
                    ) * Fraction(1, 2)
                    assert computed[i][j][k] == expected


def test_g3_flat_specialization_curvature_vanishes():
    # setting all three parameters to zero turns g3 abelian, so R = 0
    fam = build_family("g3")
    riem = curvature(levi_civita(fam), fam)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert _at_zero(riem.r[i][j][k][l], ("alpha", "beta", "gamma")).is_zero
