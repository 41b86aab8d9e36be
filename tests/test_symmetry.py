"""Symmetry oracles for the catalogue and the soliton systems.

Every other check of a catalogued claim runs the engine's own algebra.
These read the data alone (see `symmetry_reference`): the systems, cases,
matrices and scalars of the six families without eta are
weighted-homogeneous, and every g4 entry at eta = -1 is the mirror image
of the one at eta = +1.  A failure names the entry and its weights or its
mirror image.
"""

import pytest

from lieschouten.algebras import FAMILY_IDS, build_family, instantiate_eta
from lieschouten.catalog import load_catalog
from lieschouten.geometry import CONNECTION_KINDS, ricci_pipeline
from lieschouten.soliton import PAIRS, soliton_system
from symmetry_reference import SIGN, WEIGHTS, mirror, mirror_value, weights, witness_value

CATALOG = load_catalog()
SCALED = [fid for fid in FAMILY_IDS if fid != "g4"]


def _data_sets(case):
    """(name, substitutions, c, reductions) of the stated data, and of the
    variant data when the case has any."""
    out = [("stated", case.substitutions, case.c_expr, case.reductions)]
    if (case.variant_substitutions, case.variant_c, case.variant_reductions) != (None, None, None):
        out.append(("variant", *case.effective()))
    return out


def _fixtures(fids):
    """(label, entries) of each catalogued matrix and scalar of
    `fids`, an entry being (name, polynomial, the sign the mirror gives
    it): SIGN[i]*SIGN[j] for a matrix entry (i, j), 1 for a scalar."""
    out = []
    for m in CATALOG.matrices:
        if m.family_id in fids:
            entries = [
                (f"{m.label}[{i + 1}][{j + 1}]", q, SIGN[i] * SIGN[j]) for i, row in enumerate(m.entries) for j, q in enumerate(row)
            ]
            out.append(pytest.param(m.label, entries, id=m.label))
    for s in CATALOG.scalars:
        if s.family_id in fids:
            entries = [(s.label, s.expr, 1)] + ([(f"{s.label} variant", s.variant, 1)] if s.variant is not None else [])
            out.append(pytest.param(s.label, entries, id=s.label))
    return out


# -- scaling -------------------------------------------------------------------


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
@pytest.mark.parametrize("fid", SCALED)
def test_every_residual_has_weight_3(fid, kind):
    system = soliton_system(build_family(fid), kind)
    for label, r in zip(system.residual_labels(), system.residuals):
        assert weights(r) <= {3}, f"{fid}-{kind} residual {label} has weights {sorted(weights(r))}: {r}"


@pytest.mark.parametrize("case", [c for c in CATALOG.cases if c.family_id in SCALED], ids=lambda c: c.label)
def test_case_data_is_homogeneous(case):
    for name, subs, c_expr, reductions in _data_sets(case):
        where = f"case {case.label} ({name})"
        for var, expr in subs + case.sample_subs:
            assert weights(expr) <= {1}, f"{where}: {var} := {expr} has weights {sorted(weights(expr))}"
        for var, rhs in reductions:
            assert WEIGHTS[var] == 1 and weights(rhs) <= {2}, f"{where}: {var}^2 := {rhs} has weights {sorted(weights(rhs))}"
        if c_expr is not None:
            assert weights(c_expr) <= {2}, f"{where}: c = {c_expr} has weights {sorted(weights(c_expr))}"
    for q in case.nonzero:
        assert len(weights(q)) == 1, f"case {case.label}: hypothesis {q} != 0 has weights {sorted(weights(q))}"


@pytest.mark.parametrize("label, entries", _fixtures(SCALED))
def test_matrix_or_scalar_has_weight_2(label, entries):
    for name, q, _ in entries:
        assert weights(q) <= {2}, f"{name} has weights {sorted(weights(q))}: {q}"


# -- the g4 mirror -------------------------------------------------------------


def _mirrored(q, sign=1):
    """The eta = -1 image of `q` at eta = +1, times `sign`."""
    return sign * mirror(instantiate_eta(q, 1))


@pytest.mark.parametrize("kind", CONNECTION_KINDS)
def test_g4_system_at_minus_one_is_the_mirror_of_plus_one(kind):
    plus, minus = build_family("g4", eta=1), build_family("g4", eta=-1)
    (_, op_plus, s_plus), (_, op_minus, s_minus) = ricci_pipeline(plus, kind), ricci_pipeline(minus, kind)
    assert mirror(s_plus) == s_minus, f"g4-{kind} scalar {s_minus} is not the mirror of {s_plus}"
    for i in range(3):
        for j in range(3):
            image = SIGN[i] * SIGN[j] * mirror(op_plus.entries[i][j])
            assert image == op_minus.entries[i][j], f"g4-{kind} Ricci[{i + 1}][{j + 1}]: {op_minus.entries[i][j]} != {image}"
    system_plus, system_minus = soliton_system(plus, kind), soliton_system(minus, kind)
    signs = [SIGN[i] * SIGN[j] * SIGN[m] for i, j in PAIRS for m in range(3)]
    for label, sign, r_plus, r_minus in zip(system_plus.residual_labels(), signs, system_plus.residuals, system_minus.residuals):
        assert sign * mirror(r_plus) == r_minus, f"g4-{kind} residual {label}: {r_minus} != {sign} * mirror of {r_plus}"


@pytest.mark.parametrize("case", [c for c in CATALOG.cases if c.family_id == "g4"], ids=lambda c: c.label)
def test_g4_case_at_minus_one_is_the_mirror_of_plus_one(case):
    for name, subs, c_expr, reductions in _data_sets(case):
        where = f"case {case.label} ({name})"
        for var, expr in subs + case.sample_subs:
            image = _mirrored(expr, mirror_value(var, 1))
            assert instantiate_eta(expr, -1) == image, f"{where}: {var} := {expr} at eta = -1 is not {image}"
        for var, rhs in reductions:
            assert instantiate_eta(rhs, -1) == _mirrored(rhs), f"{where}: {var}^2 := {rhs} is not mirrored"
        if c_expr is not None:
            image = _mirrored(c_expr)
            assert instantiate_eta(c_expr, -1) == image, f"{where}: c = {c_expr} at eta = -1 is not {image}"
    for q in case.nonzero:
        assert instantiate_eta(q, -1) in (_mirrored(q), _mirrored(q, -1)), f"case {case.label}: hypothesis {q} is not mirrored"
    for var, value in case.witness:
        image = mirror_value(var, witness_value(value, 1))
        assert witness_value(value, -1) == image, f"case {case.label}: witness {var} = {value} is not mirrored"


@pytest.mark.parametrize("label, entries", _fixtures(("g4",)))
def test_g4_matrix_or_scalar_at_minus_one_is_the_mirror_of_plus_one(label, entries):
    for name, q, sign in entries:
        image = _mirrored(q, sign)
        assert instantiate_eta(q, -1) == image, f"{name} at eta = -1: {instantiate_eta(q, -1)} != {image}"
