"""Berezin-transform toolkit for disk function spaces.

Closed-form Berezin transforms of composition operators on the Hardy and
Bergman spaces, truncated-matrix oracles and numerical ranges, planar
convexity classification of sampled ranges, and a randomized harness for
Berezin-number inequalities of positive unital maps.
"""

from .closed_form import (
    BoundaryLimit,
    DiskPoint,
    PolarGrid,
    RangeSample,
    bergman_transform,
    blaschke_real_imag,
    boundary_limit,
    conjugation_partner,
    hardy_transform,
    model_transform,
    sample_range,
)
from .geometry import (
    ConvexityReport,
    ShapeClass,
    classify_shape,
    convex_hull,
    convexity_report,
    default_tolerance,
    hausdorff_distance,
    hull_signed_depth,
    polygon_area,
)
from .inequalities import (
    MappingReport,
    PositiveMap,
    PropositionReport,
    ScalarFunction,
    TrialReport,
    berezin_mapping_check,
    corollary_c1_check,
    intermediate_refinement_check,
    parse_function,
    popoviciu_operator_check,
    proposition_checks,
    run_trials,
    scalar_popoviciu_check,
    superquadratic_pointwise_check,
)
from .kernels import (
    BERGMAN,
    HARDY,
    L2,
    SpaceSpec,
    kernel_eval,
    kernel_norm_sq,
    model_space,
    normalized_kernel_coeffs,
    normalized_kernel_matrix,
)
from .matrix_oracle import (
    OperatorMatrix,
    berezin_grid,
    composition_matrix,
    l2_berezin_set,
    model_berezin_range,
    model_operator_matrix,
    numerical_range_boundary,
)
from .symbols import (
    SymbolError,
    SymbolSpec,
    apply,
    automorphism,
    blaschke,
    elliptic,
    symbol_series,
    taylor_coeffs,
)
from .verify import SUITES, CheckResult, run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "SpaceSpec", "HARDY", "BERGMAN", "L2", "model_space",
    "kernel_eval", "kernel_norm_sq",
    "normalized_kernel_coeffs", "normalized_kernel_matrix",
    # symbols
    "SymbolError", "SymbolSpec", "elliptic", "automorphism", "blaschke",
    "apply", "symbol_series", "taylor_coeffs",
    # closed forms
    "DiskPoint", "PolarGrid", "RangeSample", "BoundaryLimit",
    "hardy_transform", "bergman_transform", "blaschke_real_imag",
    "conjugation_partner", "boundary_limit", "sample_range",
    "model_transform",
    # geometry
    "ShapeClass", "ConvexityReport", "convex_hull", "polygon_area",
    "classify_shape", "convexity_report", "hausdorff_distance",
    "hull_signed_depth", "default_tolerance",
    # matrix oracle
    "OperatorMatrix", "composition_matrix", "berezin_grid",
    "l2_berezin_set", "model_operator_matrix",
    "model_berezin_range", "numerical_range_boundary",
    # inequalities
    "ScalarFunction", "PositiveMap", "MappingReport", "PropositionReport",
    "TrialReport", "parse_function", "superquadratic_pointwise_check",
    "scalar_popoviciu_check", "popoviciu_operator_check",
    "intermediate_refinement_check", "corollary_c1_check",
    "berezin_mapping_check", "proposition_checks", "run_trials",
    # verification
    "CheckResult", "SUITES", "run_suite", "suite_names",
]
