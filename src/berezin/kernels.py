"""Reproducing kernels for the Hardy, Bergman and model spaces.

Each space is identified by a :class:`SpaceSpec`.  The module provides the
coordinate vector of the *normalized* kernel in the natural orthonormal
basis -- the vector that turns a truncated operator matrix into a Berezin
value via a plain quadratic form.
"""
from __future__ import annotations

import dataclasses
import operator

import numpy as np

__all__ = [
    "SpaceSpec",
    "HARDY",
    "BERGMAN",
    "model_space",
    "normalized_kernel_matrix",
    "kernel_scales",
    "disk_points",
    "as_size",
    "row_blocks",
]


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """A reproducing-kernel space tag: hardy, bergman or model(n)."""

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hardy", "bergman", "model"):
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.kind == "model":
            object.__setattr__(self, "n", as_size(self.n, "model dimension n", 1))
        elif self.n is not None:
            raise ValueError(f"space {self.kind!r} takes no dimension parameter")

    @property
    def label(self) -> str:
        if self.kind == "model":
            return f"model({self.n})"
        return self.kind


HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")


def model_space(n: int) -> SpaceSpec:
    """The n-dimensional model space K_{z^n} (orthocomplement of z^n H^2)."""
    return SpaceSpec("model", n)


def as_size(value, name: str, minimum: int) -> int:
    """``value`` as a Python int of at least ``minimum``, read with ``operator.index``.

    Python and numpy integers pass; a float such as 2.5 or inf raises
    ``ValueError`` naming ``name`` instead of being truncated, as does an
    integer below ``minimum``.
    """
    try:
        size = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if size < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {size}")
    return size


def row_blocks(n: int, rows: int) -> list[slice]:
    """Slices of ``rows`` consecutive rows covering rows 0..n-1, the last one
    taking a single leftover row with it: numpy multiplies a one-row matrix
    through another routine (GEMV), which can differ in the last bit."""
    starts = list(range(0, max(n - 1, 1), rows)) if n else []
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def disk_points(ws) -> np.ndarray:
    """``ws`` as a 1-D complex array, checked to lie in the open unit disk.

    A NaN or infinite point is rejected by name: ``|w| >= 1`` is False for
    NaN, so the disk test alone would let it through.
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    if not np.all(np.isfinite(ws)):
        raise ValueError("expected finite points, got NaN or inf")
    if np.any(np.abs(ws) >= 1.0):
        raise ValueError(f"expected points with |w| < 1, got |w| = {np.abs(ws).max()}")
    return ws


def normalized_kernel_matrix(space: SpaceSpec, ws, truncation: int) -> np.ndarray:
    """Coordinates of the unit-norm kernel k̂_w in the orthonormal basis, one
    column per point w of ``ws``: sqrt(c2) * wt_k * conj(w)^k in row k, with
    ``(wt, c2)`` from :func:`kernel_scales`.  For model(n) the truncation
    must equal n exactly (the space is n-dimensional).

    Each column has unit Euclidean norm up to the geometric truncation tail
    |w|^(2N).
    """
    N = as_size(truncation, "truncation", 1)
    if space.kind == "model" and N != space.n:
        raise ValueError(
            f"model({space.n}) coefficients require truncation == n, got {N}"
        )
    ws = disk_points(ws)
    wt, c2 = kernel_scales(space, np.abs(ws) ** 2, N)
    # row k holds conj(w)^k: a running product down the columns
    powers = np.empty((N, ws.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.conj(ws)
    np.cumprod(powers, axis=0, out=powers)
    powers *= wt[:, None]
    powers *= np.sqrt(c2)
    return powers


def kernel_scales(space: SpaceSpec, s, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``(wt, c2)``, the one statement of each space's scaling: the basis
    weights wt_k, k < N, and c2 = 1 / k_w(w) at |w|^2 = ``s``, shaped like ``s``.

    Hardy, basis {z^k}: wt = 1 and c2 = 1 - s.
    Bergman, basis {sqrt(k+1) z^k}: wt = sqrt(k+1) and c2 = (1 - s)^2.
    Model(n), basis {1, z, ..., z^(n-1)}: wt = 1 and c2 = (1 - s) / (1 - s^n).
    """
    s = np.asarray(s, dtype=float)
    if space.kind == "bergman":
        return np.sqrt(np.arange(1, N + 1, dtype=float)), (1.0 - s) ** 2
    if space.kind == "hardy":
        return np.ones(N), 1.0 - s
    return np.ones(N), (1.0 - s) / (1.0 - s ** space.n)
