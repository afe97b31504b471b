"""Berezin-transform toolkit for disk function spaces.

Closed-form Berezin transforms of composition operators on the Hardy and
Bergman spaces, truncated-matrix oracles and numerical ranges, planar
convexity classification of sampled ranges, and a randomized harness for
Berezin-number inequalities of positive unital maps.

Submodules and exported names load on first access (PEP 562), so a process
imports only the modules it uses: ``berezin --help`` imports no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, listed once under the module that defines it.
_EXPORTS = {
    "kernels": ("SpaceSpec", "HARDY", "BERGMAN", "model_space", "normalized_kernel_matrix"),
    "symbols": ("SymbolError", "SymbolSpec", "elliptic", "automorphism", "blaschke",
                "apply", "symbol_series", "taylor_coeffs"),
    "closed_form": ("DiskPoint", "PolarGrid", "RangeSample", "BoundaryLimit",
                    "hardy_transform", "bergman_transform", "blaschke_real_imag",
                    "conjugation_partner", "boundary_limit", "sample_range",
                    "model_transform"),
    "geometry": ("ShapeClass", "ConvexityReport", "convex_hull", "classify_shape",
                 "convexity_report", "hausdorff_distance", "hull_signed_depth",
                 "default_tolerance"),
    "matrix_oracle": ("OperatorMatrix", "composition_matrix", "berezin_grid",
                      "l2_berezin_set", "model_operator_matrix", "model_berezin_range",
                      "numerical_range_boundary"),
    "inequalities": ("ScalarFunction", "PositiveMap", "MappingReport", "PropositionReport",
                     "TrialReport", "parse_function", "superquadratic_pointwise_check",
                     "scalar_popoviciu_check", "popoviciu_operator_check",
                     "intermediate_refinement_check", "corollary_c1_check",
                     "berezin_mapping_check", "proposition_checks", "run_trials"),
    "verify": ("CheckResult", "SUITES", "run_suite", "suite_names"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "output"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
