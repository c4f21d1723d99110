"""Exact algebra and numerical probes for value distribution of meromorphic functions.

The package provides a small closed class of symbolic functions (rational
functions times exponentials of polynomials), Nevanlinna-style counting and
proximity functionals over radial grids, differential-polynomial expansion
machinery, empirical harnesses for the classical growth inequalities, and
normal-family probes (Marty-type grids and Zalcman-type rescaling).

`import nevanlab` loads no submodule: each exported name is imported from
its submodule on first access (PEP 562) and then bound here, so a caller
pays only for the modules it uses.
"""

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "polynomials": ("Polynomial", "poly_roots", "RootFindingError", "QuadratureError"),
    "expressions": (
        "Expr",
        "Const",
        "Var",
        "Poly",
        "Exp",
        "Divisor",
        "Canonical",
        "INFINITY",
        "is_infinite",
        "NotNormalizableError",
        "IndeterminatePointError",
        "ParseError",
        "parse",
        "print_expr",
        "evaluate",
        "evaluate_on_grid",
        "spherical_derivative",
        "differentiate",
        "canonicalize",
        "divisors",
        "substitute_affine",
        "parse_complex",
        "add",
        "mul",
        "div",
        "pow_int",
    ),
    "nevanlinna": (
        "DEFAULT_SAMPLES",
        "RadialGrid",
        "FunctionData",
        "NevanlinnaReport",
        "unintegrated_counting",
        "counting_N",
        "counting_series",
        "proximity_m",
        "characteristic_T",
        "radial_report",
    ),
    "diffpoly": (
        "AlphaViolation",
        "DiffPolynomial",
        "DiffTerm",
        "MonomialSpec",
        "alpha_index",
        "build_standard_monomial",
        "compose_generalized",
        "compose_monomial",
        "degree_d",
        "diffpoly_expression",
        "evaluate_diffpoly",
        "expand_power_derivative",
        "generalized_polynomial",
        "print_diffpoly",
        "weight_theta",
    ),
    "inequalities": (
        "BoundednessVerdict",
        "SlackSeries",
        "Verdict",
        "check_fmt",
        "check_hinchliffe",
        "check_hinchliffe_multi",
        "check_log_derivative",
        "check_smt",
        "fmt_boundedness_verdict",
        "slack_verdict",
    ),
    "normality": (
        "CriterionParams",
        "CriterionReport",
        "ExtrasReport",
        "FamilySpec",
        "INFINITE_MULTIPLICITY",
        "MartyReport",
        "MultiplicityReport",
        "RescaleReport",
        "RescalingSpec",
        "check_holomorphic_criterion",
        "check_meromorphic_criterion",
        "check_multiplicities",
        "chordal_distance",
        "disc_grid",
        "holomorphic_reduction",
        "marty_probe",
        "meromorphic_reduction",
        "rescale_extras_check",
        "rescaled_function",
        "rescaling_identity_values",
        "zalcman_rescale",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: importing it binds it on the package
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
