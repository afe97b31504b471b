"""Disk self-maps used as composition symbols.

Three families are supported, each validated at construction time:

* elliptic rotations/contractions  phi(z) = alpha z  with |alpha| <= 1,
* disk automorphisms  phi(z) = (a z + b)/(conj(b) z + conj(a))  with
  |a|^2 - |b|^2 = 1,
* Blaschke factors  phi_alpha(z) = (z - alpha)/(1 - conj(alpha) z)  with
  |alpha| < 1.

Every family is linear-fractional: ``mobius_coefficients`` alone maps a family
to its formula, and column k of ``matrix_oracle.composition_matrix`` holds the
Taylor coefficients of phi^k.
"""
from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from .kernels import as_size

__all__ = [
    "SymbolError",
    "SymbolSpec",
    "elliptic",
    "automorphism",
    "blaschke",
    "apply",
    "mobius_coefficients",
    "symbol_series",
]

_AUTOMORPHISM_TOL = 1e-12


class SymbolError(ValueError):
    """Raised for invalid symbol parameters."""


@dataclasses.dataclass(frozen=True)
class SymbolSpec:
    """A validated composition symbol.  Use the factory functions below."""

    kind: str  # "elliptic" | "automorphism" | "blaschke"
    alpha: complex = 0j  # elliptic / blaschke parameter
    a: complex = 0j  # automorphism parameters
    b: complex = 0j

    @property
    def label(self) -> str:
        if self.kind == "automorphism":
            return f"automorphism(a={self.a}, b={self.b})"
        return f"{self.kind}(alpha={self.alpha})"


def elliptic(alpha) -> SymbolSpec:
    """phi(z) = alpha*z with alpha in the closed unit disk."""
    alpha = complex(alpha)
    if not abs(alpha) <= 1.0 + 1e-15:  # also rejects NaN
        raise SymbolError(f"elliptic symbol requires |alpha| <= 1, got {abs(alpha)}")
    return SymbolSpec("elliptic", alpha=alpha)


def automorphism(a, b) -> SymbolSpec:
    """phi(z) = (a z + b)/(conj(b) z + conj(a)), |a|^2 - |b|^2 = 1."""
    a, b = complex(a), complex(b)
    for name, value in (("a", a), ("b", b)):
        if not cmath.isfinite(value):
            raise SymbolError(f"automorphism parameter {name} must be finite, got {value}")
    # Products, not **, so that a huge |a| overflows to inf (NaN defect)
    # instead of raising OverflowError.
    defect = abs(abs(a) * abs(a) - abs(b) * abs(b) - 1.0)
    if not defect <= _AUTOMORPHISM_TOL:
        raise SymbolError(
            "automorphism requires |a|^2 - |b|^2 = 1 "
            f"(defect {defect:.3e} exceeds {_AUTOMORPHISM_TOL})"
        )
    return SymbolSpec("automorphism", a=a, b=b)


def blaschke(alpha) -> SymbolSpec:
    """phi_alpha(z) = (z - alpha)/(1 - conj(alpha) z) with |alpha| < 1."""
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:  # also rejects NaN
        raise SymbolError(f"Blaschke factor requires |alpha| < 1, got {abs(alpha)}")
    return SymbolSpec("blaschke", alpha=alpha)


def apply(symbol: SymbolSpec, z):
    """Evaluate phi(z) = (a z + b)/(c z + d) with the ``mobius_coefficients``
    of ``symbol``.  Accepts complex scalars or arrays (vectorized)."""
    a, b, c, d = mobius_coefficients(symbol)
    z = np.asarray(z, dtype=complex)
    out = (a * z + b) / (c * z + d)
    return complex(out) if out.ndim == 0 else out


def mobius_coefficients(symbol: SymbolSpec) -> tuple[complex, complex, complex, complex]:
    """(a, b, c, d) with phi(z) = (a z + b)/(c z + d): every supported symbol
    is linear-fractional.  Elliptic alpha z is (alpha, 0, 0, 1), the
    automorphism (a, b, conj(b), conj(a)) and the Blaschke factor at alpha
    (1, -alpha, -conj(alpha), 1).
    """
    if symbol.kind == "elliptic":
        return symbol.alpha, 0j, 0j, 1 + 0j
    if symbol.kind == "automorphism":
        a, b = symbol.a, symbol.b
        return a, b, b.conjugate(), a.conjugate()
    al = symbol.alpha
    return 1 + 0j, -al, -al.conjugate(), 1 + 0j


def symbol_series(symbol: SymbolSpec, truncation: int) -> np.ndarray:
    """First ``truncation`` Taylor coefficients of phi at the origin.

    With phi = (a z + b)/(c z + d) (``mobius_coefficients``), 1/(c z + d) is
    expanded as the exact geometric series sum_m (-c/d)^m z^m / d (no
    numerical differentiation), so the coefficients carry no cancellation
    error.
    """
    N = as_size(truncation, "truncation", 1)
    a, b, c, d = np.array(mobius_coefficients(symbol))
    geom = (-c / d) ** np.arange(N) / d
    coeffs = b * geom
    coeffs[1:] += a * geom[:-1]
    return coeffs

