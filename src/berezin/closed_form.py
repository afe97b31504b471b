"""Closed-form Berezin transforms of composition operators on the disk.

For a self-map phi and the Hardy-space kernel, the transform evaluates to

    (1 - |z|^2) / (1 - conj(z) phi(z)),

and the Bergman-space transform is its square.  This module also carries the
explicit real/imaginary decomposition for Blaschke symbols on the Bergman
space, the conjugation symmetry partner point, radial boundary limits, and
grid sampling of whole Berezin ranges.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import symbols as sym
from .kernels import SpaceSpec, as_size, disk_points, row_blocks

__all__ = [
    "PolarGrid",
    "RangeSample",
    "hardy_transform",
    "bergman_transform",
    "transform",
    "blaschke_real_imag",
    "conjugation_partner",
    "boundary_limit",
    "sample_range",
    "model_transform",
]

TWO_PI = 2.0 * math.pi
_MESH_BYTES_MAX = 2**48  # a larger complex mesh exceeds a 48-bit address space
# sample_range evaluates the transform on blocks of whole mesh rows with about
# this many bytes per complex array (2048 points), so the transform's
# temporaries (about six such arrays at once) stay small next to the values.
_SAMPLE_BLOCK_BYTES = 2**15


@dataclasses.dataclass(frozen=True)
class PolarGrid:
    """Sorted radius and angle samples; radii live in [0, r_max], r_max < 1."""

    r_values: np.ndarray
    theta_values: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r_values, dtype=float)
        t = np.asarray(self.theta_values, dtype=float)
        if r.size == 0 or t.size == 0:
            raise ValueError("grid must be nonempty")
        for name, values in (("radii", r), ("angles", t)):
            if not np.all(np.isfinite(values)):  # NaN passes every comparison below
                raise ValueError(f"grid {name} must be finite")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("grid values must be strictly increasing")
        if r[0] < 0 or r[-1] >= 1.0:
            raise ValueError("radii must lie in [0, 1)")
        if t[0] < 0 or t[-1] >= TWO_PI:
            raise ValueError("angles must lie in [0, 2*pi)")
        object.__setattr__(self, "r_values", r)
        object.__setattr__(self, "theta_values", t)

    @classmethod
    def regular(cls, r_steps: int = 200, theta_steps: int = 256,
                r_max: float = 0.998) -> "PolarGrid":
        """Radii uniform in r^2 on [0, r_max^2], angles uniform in [0, 2*pi).

        Uniform spacing in r^2 equidistributes |z|^2, the variable every
        closed form actually depends on.  A grid of fewer than 2 radii or 1
        angle, or whose complex mesh would take over 2^48 bytes, is refused
        before anything is allocated; an r_max too small for r_steps
        distinct radii is refused by name.
        """
        if not (0.0 < r_max < 1.0):
            raise ValueError("r_max must lie in (0, 1)")
        r_steps, theta_steps = as_size(r_steps, "r_steps", 2), as_size(theta_steps, "theta_steps", 1)
        if (nbytes := 16 * r_steps * theta_steps) > _MESH_BYTES_MAX:
            raise MemoryError(f"a {r_steps} x {theta_steps} grid needs "
                              f"{nbytes / 2**50:.3g} PiB per complex array")
        r = np.sqrt(np.linspace(0.0, r_max**2, r_steps))
        if np.any(np.diff(r) <= 0):  # r_max^2 underflows, or nearly so
            raise ValueError(f"r_max = {r_max!r} is too small for r_steps = {r_steps} "
                             "distinct radii")
        t = np.linspace(0.0, TWO_PI, theta_steps, endpoint=False)
        return cls(r, t)

    def mesh(self) -> np.ndarray:
        """Complex points z = r * exp(i theta), shape (len(r), len(theta))."""
        return self.r_values[:, None] * np.exp(1j * self.theta_values)[None, :]


@dataclasses.dataclass(frozen=True)
class RangeSample:
    """Berezin-transform values over a polar grid (r-major layout)."""

    space: SpaceSpec
    symbol: sym.SymbolSpec | None  # None for non-composition operators
    grid: PolarGrid
    values: np.ndarray

    def points(self) -> np.ndarray:
        """Values as an (n, 2) array of planar points, r-major order."""
        flat = self.values.ravel()
        return np.column_stack([flat.real, flat.imag])

    def berezin_number(self) -> float:
        return float(np.max(np.abs(self.values)))


def _as_complex(z):
    """complex | array -> complex scalar or ndarray."""
    arr = np.asarray(z, dtype=complex)
    return complex(arr) if arr.ndim == 0 else arr


def hardy_transform(symbol: sym.SymbolSpec, z):
    """Berezin transform of C_phi on the Hardy space at z.

    Returns (1 - |z|^2) / (1 - conj(z) phi(z)); for elliptic symbols this is
    (1 - |z|^2) / (1 - alpha |z|^2), a function of r alone.  Vectorized over
    arrays of z.
    """
    zc = _as_complex(z)
    s = np.abs(zc) ** 2
    return (1.0 - s) / (1.0 - np.conj(zc) * sym.apply(symbol, zc))


def bergman_transform(symbol: sym.SymbolSpec, z):
    """Berezin transform of C_phi on the Bergman space: the square of the
    Hardy expression with the same symbol and point."""
    return hardy_transform(symbol, z) ** 2


def transform(space: SpaceSpec, symbol: sym.SymbolSpec, z):
    """The closed-form transform of ``space`` at z: Hardy or Bergman.

    The model spaces have no composition closed form here; the
    matrix-oracle module handles them.
    """
    if space.kind == "hardy":
        return hardy_transform(symbol, z)
    if space.kind == "bergman":
        return bergman_transform(symbol, z)
    raise ValueError(f"closed forms exist for hardy/bergman spaces, got {space.label}")


def blaschke_real_imag(alpha, z):
    """Real and imaginary parts of the Bergman transform for a Blaschke symbol.

    Uses the explicit decomposition: with s = |z|^2,

        X = (1 - s) (1 - Re(conj(alpha) z)) + 2 Im(conj(alpha) z)^2
        Y = Im(conj(alpha) z) (1 + s - 2 Re(conj(alpha) z))
        k = (1 - s) / ((1 - s)^2 + 4 Im(alpha conj(z))^2)

    and Re = k^2 (X^2 - Y^2), Im = 2 k^2 X Y.  The pair must coincide with
    the direct ``bergman_transform`` value; that agreement is this module's
    central invariant.
    """
    alpha = complex(alpha)
    zc = _as_complex(z)
    s = np.abs(zc) ** 2
    aw = np.conj(alpha) * zc
    im_aw = np.imag(aw)
    x = (1.0 - s) * (1.0 - np.real(aw)) + 2.0 * im_aw**2
    y = im_aw * (1.0 + s - 2.0 * np.real(aw))
    # Im(alpha conj(z)) = -Im(conj(alpha) z), so the squares agree.
    k = (1.0 - s) / ((1.0 - s) ** 2 + 4.0 * im_aw**2)
    return k**2 * (x**2 - y**2), 2.0 * k**2 * x * y


def conjugation_partner(alpha, z):
    """The point where the Blaschke Bergman transform takes the conjugate value.

    For alpha != 0 the partner of z is (alpha / conj(alpha)) conj(z), the
    reflection of z across the line through 0 and alpha; for alpha = 0 the
    symmetry statement is vacuous and z itself is returned.  z is a point of
    the open disk or an array of them, checked by ``kernels.disk_points``; a
    non-finite alpha raises ``ValueError``.
    """
    points = disk_points(z)
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"conjugation partner requires a finite alpha, got {alpha}")
    if alpha == 0:
        return z
    return _as_complex((alpha / alpha.conjugate() * np.conj(points)).reshape(np.shape(z)))


def boundary_limit(space: SpaceSpec, symbol: sym.SymbolSpec, theta: float) -> float:
    """Numerically extrapolated limit of |transform(r e^{i theta})| as r -> 1.

    Samples r in {1 - 10^-k : k = 4, 5, 6} and applies Aitken extrapolation
    to them (exact for geometric convergence).  A non-finite theta raises
    ``ValueError``.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"boundary angle theta must be finite, got {theta}")
    radii = 1.0 - 10.0 ** (-np.arange(4.0, 7.0))
    v1, v2, v3 = np.abs(transform(space, symbol, radii * np.exp(1j * theta)))
    denom = v3 - 2.0 * v2 + v1
    if abs(denom) > 1e-300:
        value = v3 - (v3 - v2) ** 2 / denom
    else:
        value = v3
    return float(value)


def sample_range(space: SpaceSpec, symbol: sym.SymbolSpec, grid: PolarGrid) -> RangeSample:
    """Evaluate the closed-form ``transform`` at every grid point.

    The mesh is never built whole: each ``kernels.row_blocks`` block of rows
    ``r[a:b, None] * exp(1j * theta)`` (at least one row, else about
    ``_SAMPLE_BLOCK_BYTES`` per complex array) goes through ``transform``
    into its rows of one preallocated array.  Every value is the one
    ``transform(space, symbol, grid.mesh())`` gives, bit for bit, since both
    evaluate the same elementwise expressions on the same points.
    """
    r = grid.r_values
    phase = np.exp(1j * grid.theta_values)
    values = np.empty((len(r), len(phase)), dtype=complex)
    for b in row_blocks(len(r), max(1, _SAMPLE_BLOCK_BYTES // (16 * len(phase)))):
        values[b] = transform(space, symbol, r[b, None] * phase)
    return RangeSample(space, symbol, grid, values)


def model_transform(n: int, z):
    """Closed-form Berezin transform of the model-space shift M_{z^n}.

    At lambda the value is lambda (1 - |lambda|^(2n-2)) / (1 - |lambda|^(2n));
    for n = 1 the operator is 0 and so is the transform.
    """
    n = as_size(n, "model dimension n", 1)
    zc = _as_complex(z)
    if n == 1:
        return np.zeros_like(np.asarray(zc)) if np.ndim(zc) else 0j
    s = np.abs(zc) ** 2
    return zc * (1.0 - s ** (n - 1)) / (1.0 - s**n)
