"""Independent matrix verification path for Berezin transforms.

Everything here works with truncated operator matrices in explicit
orthonormal bases: composition operators on Hardy/Bergman monomial bases,
the n-dimensional model-space shift, diagonal l2 operators, and inscribed
polygonal approximations of numerical ranges.  Agreement between these
quadratic forms and the closed forms in :mod:`berezin.closed_form` is the
package's primary cross-check.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import symbols as sym
from .closed_form import PolarGrid, RangeSample
from .kernels import SpaceSpec, model_space, normalized_kernel_matrix

__all__ = [
    "OperatorMatrix",
    "composition_matrix",
    "berezin_grid",
    "l2_berezin_set",
    "model_operator_matrix",
    "model_berezin_range",
    "numerical_range_boundary",
]

# Bytes of one complex kernel block in berezin_grid; the grid is evaluated in
# chunks of points so its working set stays two blocks whatever its size.
_CHUNK_BYTES = 2**24

_BASIS_FOR_SPACE = {
    "hardy": "hardy-monomial",
    "bergman": "bergman-monomial",
    "l2": "l2-standard",
}


def _basis_label(space: SpaceSpec) -> str:
    if space.kind == "model":
        return f"model({space.n})"
    return _BASIS_FOR_SPACE[space.kind]


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator matrix together with its basis label."""

    entries: np.ndarray
    basis: str
    truncation: int

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix entries must be finite")
        if m.shape[0] != self.truncation:
            raise ValueError("truncation must match the matrix dimension")
        object.__setattr__(self, "entries", m)


def composition_matrix(space: SpaceSpec, symbol: sym.SymbolSpec, N: int) -> OperatorMatrix:
    """Truncated matrix of C_phi in the monomial orthonormal basis.

    Column k holds the coefficients of C_phi(basis_k) = phi^k expanded in the
    basis: plain Taylor coefficients for Hardy, and for Bergman the same
    coefficients reweighted by sqrt(k+1)/sqrt(j+1) so the basis stays
    orthonormal.  Elliptic symbols give the diagonal matrix diag(alpha^k)
    in both spaces (the weights cancel on the diagonal).

    The columns are built by block doubling: once columns 0..k-1 exist,
    columns k..2k-1 are phi^k * phi^j, i.e. the lower-triangular Toeplitz
    matrix of phi^k's coefficients times columns 0..k-1, one GEMM per
    doubling instead of one convolution per column.
    """
    if space.kind not in ("hardy", "bergman"):
        raise ValueError("composition matrices are built on hardy/bergman bases")
    N = int(N)
    if N < 1:
        raise ValueError("truncation must be >= 1")
    base = sym.symbol_series(symbol, N)
    cols = np.zeros((N, N), dtype=complex)
    cols[0, 0] = 1.0
    k = 1
    while k < N:
        m = min(k, N - k)
        power = np.convolve(cols[:, k - 1], base)[:N]
        # toeplitz[i, j] = power[i - j] for i >= j, else 0
        padded = np.concatenate([np.zeros(N - 1, dtype=complex), power])
        toeplitz = sliding_window_view(padded[::-1], N)[::-1]
        cols[:, k:k + m] = toeplitz @ cols[:, :m]
        k += m
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=float))
        cols = cols * (w[None, :] / w[:, None])
    return OperatorMatrix(cols, _basis_label(space), N)


def _check_basis(op: OperatorMatrix, space: SpaceSpec) -> None:
    if op.basis != _basis_label(space):
        raise ValueError(
            f"basis mismatch: matrix is in {op.basis!r}, "
            f"kernel coefficients requested for {space.label!r}"
        )


def berezin_grid(op: OperatorMatrix, space: SpaceSpec, ws) -> np.ndarray:
    """Berezin values v* M v, v = normalized_kernel_coeffs(space, w, N), per w.

    The result has the shape of ``ws``.  Values converge to the closed form
    as N grows: the error is at most 2 ||C_phi|| times the kernel tail norm
    |(1 - P_N) k̂_w|, which is |w|^N for Hardy.  Points are taken in chunks
    of about ``_CHUNK_BYTES`` of kernel coefficients, so memory stays bounded
    whatever the number of points.
    """
    _check_basis(op, space)
    ws = np.asarray(ws, dtype=complex)
    flat = ws.ravel()
    N = op.truncation
    step = max(1, _CHUNK_BYTES // (16 * N))
    vals = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, step):
        v = normalized_kernel_matrix(space, flat[start:start + step], N)
        mv = op.entries @ v
        np.einsum("ip,ip->p", np.conj(v, out=v), mv, out=vals[start:start + step])
        del v, mv  # free this chunk's blocks before the next one is built
    return vals.reshape(ws.shape)


def l2_berezin_set(operator) -> np.ndarray:
    """Distinct diagonal entries = the Berezin set of a finite l2 operator.

    The l2 kernels are the standard basis vectors, so the Berezin transform
    at index j is exactly the (j, j) entry whatever the off-diagonal part
    looks like.  Accepts a square matrix or a bare diagonal vector; order of
    first appearance is preserved.
    """
    arr = np.asarray(operator, dtype=complex)
    if arr.ndim == 2:
        if arr.shape[0] != arr.shape[1]:
            raise ValueError("operator matrix must be square")
        diag = np.diag(arr).copy()
    else:
        diag = np.atleast_1d(arr).ravel()
    if diag.size == 0:
        raise ValueError("empty diagonal")
    _, first = np.unique(diag, return_index=True)
    return diag[np.sort(first)]


def model_operator_matrix(n: int) -> OperatorMatrix:
    """The compressed shift on K_{z^n}: ones on the first subdiagonal."""
    n = int(n)
    if n < 1:
        raise ValueError("model dimension must be >= 1")
    return OperatorMatrix(np.eye(n, k=-1, dtype=complex), f"model({n})", n)


def model_berezin_range(n: int, grid: PolarGrid) -> RangeSample:
    """Sample <M k̂_lambda, k̂_lambda> for the model shift over a polar grid.

    The sampled sup modulus approaches (n-1)/n from below as r_max -> 1.
    """
    op = model_operator_matrix(n)
    values = berezin_grid(op, model_space(n), grid.mesh())
    return RangeSample(model_space(n), None, grid, values)


def numerical_range_boundary(op, directions: int = 180) -> np.ndarray:
    """Inscribed-polygon sample of the numerical range boundary.

    For each direction theta_m = 2*pi*m/M the top eigenvector u of the
    Hermitian part of exp(-i theta_m) A is computed and <A u, u> recorded;
    the convex hull of the returned (M, 2) points approximates W(A) from
    inside.
    """
    A = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    M = int(directions)
    if M < 3:
        raise ValueError("need at least 3 directions")
    points = np.empty(M, dtype=complex)
    for m in range(M):
        rotated = np.exp(-2j * np.pi * m / M) * A
        herm = 0.5 * (rotated + rotated.conj().T)
        try:
            _, vecs = np.linalg.eigh(herm)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed to converge on direction {m} of {M}: {exc}"
            ) from exc
        u = vecs[:, -1]
        points[m] = np.vdot(u, A @ u)
    return np.column_stack([points.real, points.imag])
