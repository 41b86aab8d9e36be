"""The record contract: every record is an immutable named tuple with value
equality and hash, except `SolitonSystem`, which stays a frozen dataclass so
that `dataclasses.replace` derives a perturbed system from it."""

import dataclasses
from fractions import Fraction

import pytest

from lieschouten import algebras, catalog, geometry, soliton
from lieschouten.algebras import build_family, custom_family, sample_scaled
from lieschouten.catalog import load_catalog, verify_all
from lieschouten.geometry import connection, curvature, ricci_pipeline
from lieschouten.soliton import SolitonSystem, scan, solve_for_c, soliton_system, verify_case


RECORD_NAMES = (
    "StructureConstants", "LieAlgebraFamily",
    "ConnectionCoefficients", "CurvatureTensor", "BilinearForm", "OperatorMatrix",
    "CSolution", "ScanReport", "TheoremCase", "VerificationReport",
    "MatrixFixture", "ScalarFixture", "Catalog", "VerifyRecord", "VerifySummary",
)


@pytest.fixture(scope="module")
def records() -> dict:
    """One real instance of each named-tuple record, by class name."""
    fam = build_family("g4", eta=1)
    conn = connection(fam, "lc")
    form, op, _ = ricci_pipeline(fam, "lc")
    point = sample_scaled(fam, seed=0, count=1)[0]
    report = scan(fam, "lc", count=2)
    cat = load_catalog()
    summary = verify_all(only="3.3.7", scan_count=20, catalog=cat)
    return {
        "StructureConstants": fam.structure,
        "LieAlgebraFamily": fam,
        "ConnectionCoefficients": conn,
        "CurvatureTensor": curvature(conn, fam),
        "BilinearForm": form,
        "OperatorMatrix": op,
        "CSolution": solve_for_c(soliton_system(fam, "lc"), point, Fraction(1)),
        "ScanReport": report,
        "TheoremCase": cat.case("3.3.7"),
        "VerificationReport": verify_case(cat.case("3.3.7"), sample_count=10),
        "MatrixFixture": cat.matrices[0],
        "ScalarFixture": cat.scalars[0],
        "Catalog": cat,
        "VerifyRecord": summary.records[0],
        "VerifySummary": summary,
    }


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_is_a_frozen_named_tuple(records, name):
    record = records[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and not dataclasses.is_dataclass(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


def test_soliton_system_is_the_only_dataclass():
    found = [
        obj
        for module in (algebras, catalog, geometry, soliton)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    ]
    assert found == [SolitonSystem]
    system = soliton_system(build_family("g4", eta=1), "kn")
    bumped = tuple(r + 1 for r in system.residuals)
    derived = dataclasses.replace(system, residuals=bumped)
    assert type(derived) is SolitonSystem
    assert derived.residuals == bumped and derived.family_id == system.family_id
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.kind = "lc"


def test_equal_custom_families_share_memo_keys():
    text = "bracket.13 = alpha, beta, 0\nbracket.23 = gamma, delta, 0\nconstraints = alpha*gamma + beta*delta"
    first, second = custom_family(text), custom_family(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert soliton_system(first, "lc") is soliton_system(second, "lc")
