"""Exact curvature and algebraic Schouten soliton toolkit for
three-dimensional Lorentzian Lie groups.

The package computes, entirely in exact rational arithmetic, the
Levi-Civita, canonical, and Kobayashi-Nomizu connections on the seven
left-invariant Lorentzian Lie algebra families g1..g7 (and on custom
three-dimensional algebras), derives their Ricci/Schouten data, builds the
derivation systems characterizing algebraic Schouten solitons, and checks
every catalogued classification case against them.
"""

import importlib

# Each public name, by the module that defines it.  A name is resolved on
# first access (PEP 562), so `import lieschouten` loads no submodule and a
# one-shot command loads only the modules it runs.
_EXPORTS = {
    "algebras": (
        "FAMILY_IDS",
        "LieAlgebraFamily",
        "MetricSignature",
        "SamplingError",
        "StructureConstants",
        "bracket",
        "build_family",
        "custom_family",
        "jacobi_residuals",
        "load_family",
        "sample_parameters",
    ),
    "catalog": ("Catalog", "CatalogError", "load_catalog", "verify_all"),
    "geometry": (
        "CANONICAL",
        "CONNECTION_KINDS",
        "KOBAYASHI_NOMIZU",
        "LEVI_CIVITA",
        "BilinearForm",
        "ConnectionCoefficients",
        "CurvatureTensor",
        "OperatorMatrix",
        "canonical_connection",
        "connection",
        "curvature",
        "kobayashi_nomizu",
        "levi_civita",
        "metric_compatibility_residual",
        "nabla_j",
        "ricci_form",
        "ricci_operator",
        "ricci_pipeline",
        "scalar_curvature",
        "schouten_form",
        "symmetrize",
        "torsion",
    ),
    "poly": (
        "DEFAULT_TABLE",
        "DEFAULT_VARIABLES",
        "ParseError",
        "Polynomial",
        "PolynomialError",
        "Surd",
        "VariableTable",
        "exact_sqrt",
        "parse_polynomial",
    ),
    "soliton": (
        "CSolution",
        "ScanReport",
        "SolitonSystem",
        "TheoremCase",
        "VerificationReport",
        "derivation_residuals",
        "negative_control",
        "scan",
        "serialize_system",
        "soliton_system",
        "solve_for_c",
        "verify_case",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Read from the module on every access, never cached here, so a
    # rebinding of the module attribute is seen.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
