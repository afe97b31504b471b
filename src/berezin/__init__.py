"""Berezin-transform toolkit for disk function spaces.

Closed-form Berezin transforms of composition operators on the Hardy and
Bergman spaces, truncated-matrix oracles and numerical ranges, planar
convexity classification of sampled ranges, and a randomized harness for
Berezin-number inequalities of positive unital maps.

Each name is imported from the module that defines it.  The namespace holds
only the submodules, loaded on first access (PEP 562), so a process imports
only the modules it uses: ``berezin --help`` imports no numpy.
"""

import importlib

__version__ = "0.1.0"
__all__ = ["__version__"]

_SUBMODULES = frozenset({"cli", "closed_form", "geometry", "inequalities", "kernels",
                         "matrix_oracle", "output", "symbols", "verify"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
