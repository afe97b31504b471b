"""Reproducing kernels for the Hardy, Bergman and model spaces.

Each space is identified by a :class:`SpaceSpec`.  The module provides
pointwise kernel evaluation, kernel norms, and the coordinate vector of the
*normalized* kernel in the natural orthonormal basis -- the vector that turns
a truncated operator matrix into a Berezin value via a plain quadratic form.
"""
from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "SpaceSpec",
    "HARDY",
    "BERGMAN",
    "L2",
    "model_space",
    "kernel_eval",
    "kernel_norm_sq",
    "normalized_kernel_coeffs",
    "normalized_kernel_matrix",
    "disk_points",
]

_L2_POINTWISE_ERROR = (
    "pointwise kernel not defined for the l2 abstraction; use a basis index"
)


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """A reproducing-kernel space tag: hardy, bergman, model(n) or l2."""

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hardy", "bergman", "model", "l2"):
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.kind == "model":
            if self.n is None or self.n < 1:
                raise ValueError("model space requires an integer dimension n >= 1")
        elif self.n is not None:
            raise ValueError(f"space {self.kind!r} takes no dimension parameter")

    @property
    def label(self) -> str:
        if self.kind == "model":
            return f"model({self.n})"
        return self.kind


HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")
L2 = SpaceSpec("l2")


def model_space(n: int) -> SpaceSpec:
    """The n-dimensional model space K_{z^n} (orthocomplement of z^n H^2)."""
    return SpaceSpec("model", int(n))


def _as_z(w) -> complex:
    """Accept a complex number or anything with a ``.z`` attribute."""
    z = getattr(w, "z", w)
    return complex(z)


def kernel_eval(space: SpaceSpec, w, z) -> complex:
    """Evaluate the reproducing kernel K(z, w) = k_w(z).

    Parameters
    ----------
    space : SpaceSpec
        One of HARDY, BERGMAN or model_space(n).  The l2 tag is rejected:
        its kernels are standard basis vectors indexed by integers, not by
        disk points.
    w, z : complex or DiskPoint
        Points of the open unit disk.

    Returns
    -------
    complex
        Hardy: 1/(1-conj(w) z); Bergman: 1/(1-conj(w) z)^2;
        model(n): (1 - conj(w)^n z^n)/(1 - conj(w) z).
    """
    if space.kind == "l2":
        raise ValueError(_L2_POINTWISE_ERROR)
    wc = np.conj(_as_z(w))
    zc = _as_z(z)
    if space.kind == "hardy":
        return 1.0 / (1.0 - wc * zc)
    if space.kind == "bergman":
        return 1.0 / (1.0 - wc * zc) ** 2
    # model(n): finite geometric sum, no singularity since |conj(w) z| < 1
    t = wc * zc
    if abs(1.0 - t) < 1e-15:
        return complex(space.n)
    return (1.0 - t ** space.n) / (1.0 - t)


def kernel_norm_sq(space: SpaceSpec, w) -> float:
    """Squared norm of the kernel at w, i.e. k_w(w).  Strictly positive."""
    if space.kind == "l2":
        raise ValueError(_L2_POINTWISE_ERROR)
    s = abs(_as_z(w)) ** 2
    if s >= 1.0:
        raise ValueError("kernel norm requires |w| < 1")
    if space.kind == "hardy":
        return 1.0 / (1.0 - s)
    if space.kind == "bergman":
        return 1.0 / (1.0 - s) ** 2
    if s == 0.0:
        return 1.0
    return (1.0 - s ** space.n) / (1.0 - s)


def normalized_kernel_coeffs(space: SpaceSpec, w, truncation: int) -> np.ndarray:
    """Coordinates of the unit-norm kernel k̂_w in the orthonormal basis.

    Hardy basis {z^k}: entries sqrt(1-|w|^2) * conj(w)^k.
    Bergman basis {sqrt(k+1) z^k}: entries (1-|w|^2) * sqrt(k+1) * conj(w)^k.
    Model(n) basis {1, z, ..., z^(n-1)}: entries conj(w)^k / sqrt(norm_sq);
    here the truncation must equal n exactly (the space is n-dimensional).

    The returned vector has unit Euclidean norm up to the geometric
    truncation tail |w|^(2N).
    """
    return normalized_kernel_matrix(space, np.array([_as_z(w)]), truncation)[:, 0]


def disk_points(ws) -> np.ndarray:
    """``ws`` as a 1-D complex array, checked to lie in the open unit disk.

    A NaN or infinite point is rejected by name: ``|w| >= 1`` is False for
    NaN, so the disk test alone would let it through.
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    if not np.all(np.isfinite(ws)):
        raise ValueError("kernel coefficients require finite points, got NaN or inf")
    if np.any(np.abs(ws) >= 1.0):
        raise ValueError("kernel coefficients require |w| < 1")
    return ws


def normalized_kernel_matrix(space: SpaceSpec, ws, truncation: int) -> np.ndarray:
    """Vectorized form: one normalized-coefficient column per point in ws."""
    if space.kind == "l2":
        raise ValueError(_L2_POINTWISE_ERROR)
    N = int(truncation)
    if N < 1:
        raise ValueError("truncation must be >= 1")
    if space.kind == "model" and N != space.n:
        raise ValueError(
            f"model({space.n}) coefficients require truncation == n, got {N}"
        )
    ws = disk_points(ws)
    s = np.abs(ws) ** 2
    # row k holds conj(w)^k: a running product down the columns
    powers = np.empty((N, ws.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.conj(ws)
    np.cumprod(powers, axis=0, out=powers)
    if space.kind == "hardy":
        powers *= np.sqrt(1.0 - s)
    elif space.kind == "bergman":
        powers *= np.sqrt(np.arange(1, N + 1, dtype=float))[:, None]
        powers *= 1.0 - s
    else:
        powers /= np.sqrt((1.0 - s ** space.n) / (1.0 - s))
    return powers
