"""Exact algebra and numerical probes for value distribution of meromorphic functions.

The package provides a small closed class of symbolic functions (rational
functions times exponentials of polynomials), Nevanlinna-style counting and
proximity functionals over radial grids, differential-polynomial expansion
machinery, empirical harnesses for the classical growth inequalities, and
normal-family probes (Marty-type grids and Zalcman-type rescaling).
"""

__version__ = "0.1.0"

from .polynomials import Polynomial, poly_roots, RootFindingError
from .expressions import (
    Expr,
    Const,
    Var,
    Poly,
    Exp,
    Divisor,
    Canonical,
    INFINITY,
    is_infinite,
    NotNormalizableError,
    IndeterminatePointError,
    ParseError,
    parse,
    print_expr,
    evaluate,
    evaluate_on_grid,
    differentiate,
    canonicalize,
    divisors,
    substitute_affine,
    parse_complex,
    add,
    mul,
    div,
    pow_int,
)
from .nevanlinna import (
    DEFAULT_SAMPLES,
    RadialGrid,
    FunctionData,
    NevanlinnaReport,
    QuadratureError,
    unintegrated_counting,
    counting_N,
    counting_series,
    proximity_m,
    characteristic_T,
    spherical_derivative,
    radial_report,
)
from .diffpoly import (
    AlphaViolation,
    DiffPolynomial,
    DiffTerm,
    MonomialSpec,
    alpha_index,
    build_standard_monomial,
    compose_generalized,
    compose_monomial,
    degree_d,
    diffpoly_expression,
    evaluate_diffpoly,
    expand_power_derivative,
    generalized_polynomial,
    print_diffpoly,
    weight_theta,
)
from .inequalities import (
    BoundednessVerdict,
    SlackSeries,
    Verdict,
    check_fmt,
    check_hinchliffe,
    check_hinchliffe_multi,
    check_log_derivative,
    check_smt,
    fmt_boundedness_verdict,
    slack_verdict,
)
from .normality import (
    CriterionParams,
    CriterionReport,
    ExtrasReport,
    FamilySpec,
    INFINITE_MULTIPLICITY,
    MartyReport,
    MultiplicityReport,
    RescaleReport,
    RescalingSpec,
    check_holomorphic_criterion,
    check_meromorphic_criterion,
    check_multiplicities,
    chordal_distance,
    disc_grid,
    holomorphic_reduction,
    marty_probe,
    meromorphic_reduction,
    rescale_extras_check,
    rescaled_function,
    rescaling_identity_values,
    zalcman_rescale,
)
