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
from .kernels import SpaceSpec, disk_points, model_space, normalized_kernel_matrix

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

# berezin_grid keeps the first M(w) rows at each point w: the smallest
# multiple of _ROW_STEP (at most N) whose dropped kernel tail moves the value
# by at most _TAIL_BUDGET.
_ROW_STEP = 32
_TAIL_BUDGET = 2.0**-60

# composition_matrix sets every real or imaginary part below this to zero,
# the square root of the smallest normal double: a product of two parts that
# are kept is then normal, so its GEMMs never meet subnormal operands.
_FLUSH_BELOW = np.sqrt(np.finfo(float).tiny)


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator matrix in the orthonormal basis of ``space``."""

    entries: np.ndarray
    space: SpaceSpec

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix entries must be finite")
        object.__setattr__(self, "entries", m)

    @property
    def truncation(self) -> int:
        return self.entries.shape[0]


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
    doubling instead of one convolution per column.  Parts below
    ``_FLUSH_BELOW`` (about 1.5e-154) of the symbol series, of each phi^k and
    of each new block are set to zero; entries move by about 1e-151 at most
    (3e-151 for Blaschke alpha = 0.3i at N = 1024).
    """
    if space.kind not in ("hardy", "bergman"):
        raise ValueError("composition matrices are built on hardy/bergman bases")
    N = int(N)
    if N < 1:
        raise ValueError("truncation must be >= 1")
    base = _flush_tiny(sym.symbol_series(symbol, N))
    cols = np.zeros((N, N), dtype=complex)
    cols[0, 0] = 1.0
    k = 1
    while k < N:
        m = min(k, N - k)
        power = _flush_tiny(np.convolve(cols[:, k - 1], base)[:N])
        # toeplitz[i, j] = power[i - j] for i >= j, else 0
        padded = np.concatenate([np.zeros(N - 1, dtype=complex), power])
        toeplitz = sliding_window_view(padded[::-1], N)[::-1]
        cols[:, k:k + m] = toeplitz @ cols[:, :m]
        _flush_tiny(cols[:, k:k + m])
        k += m
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=float))
        cols = cols * (w[None, :] / w[:, None])
    return OperatorMatrix(cols, space)


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Set the real and imaginary parts of ``a`` below ``_FLUSH_BELOW`` to zero, in place."""
    for part in (a.real, a.imag):
        part[np.abs(part) < _FLUSH_BELOW] = 0.0
    return a


def _check_basis(op: OperatorMatrix, space: SpaceSpec) -> None:
    if op.space != space:
        raise ValueError(
            f"basis mismatch: matrix is in the {op.space.label!r} basis, "
            f"kernel coefficients requested for {space.label!r}"
        )


def _kernel_rows(op: OperatorMatrix, space: SpaceSpec, ws: np.ndarray) -> np.ndarray:
    """Rows M(w) of the kernel that berezin_grid keeps at each point of ``ws``.

    M(w) is the smallest multiple of ``_ROW_STEP``, capped at N, with
    2 ||C||_F tau_M(w) <= ``_TAIL_BUDGET``, where tau_M(w) = |w|^M for Hardy
    and |w|^M sqrt(M + 1 - M |w|^2) for Bergman is the norm of the kernel's
    part beyond row M.  Model spaces keep all n rows.
    """
    N = op.truncation
    if space.kind == "model":
        return np.full(ws.shape, N)
    # Any bound on ||C||_2 keeps the rule safe: the floor covers a zero matrix,
    # and a norm that overflows to inf gives log_budget = -inf, so every point
    # but w = 0 keeps all N rows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        frob = max(np.linalg.norm(op.entries), np.finfo(float).tiny)
        log_budget = np.log(_TAIL_BUDGET / (2.0 * frob))
        log_r = np.log(np.abs(ws))  # -inf at w = 0, whose tails are all 0
        # Hardy: |w|^M <= budget once M >= log_budget / log|w|; fmax and fmin
        # skip the NaN of -inf / -inf.
        hardy = np.fmin(np.fmax(log_budget / log_r, 1.0), N)
    rows = np.minimum(np.ceil(hardy / _ROW_STEP).astype(int) * _ROW_STEP, N)
    if space.kind == "bergman":
        # The Bergman tail is at least the Hardy one: step up from there.
        one_minus_s = 1.0 - np.abs(ws) ** 2
        idx = np.arange(rows.size)
        while idx.size:
            m = rows[idx]
            log_tail = m * log_r[idx] + 0.5 * np.log1p(m * one_minus_s[idx])
            idx = idx[(m < N) & (log_tail > log_budget)]
            rows[idx] = np.minimum(rows[idx] + _ROW_STEP, N)
    return rows


def berezin_grid(op: OperatorMatrix, space: SpaceSpec, ws) -> np.ndarray:
    """Berezin values v* C v, v = normalized_kernel_matrix(space, [w], N), per w.

    The result has the shape of ``ws``.  Values converge to the closed form
    as N grows: the error is at most (2 tau + tau^2) ||C_phi|| for the kernel
    tail norm tau = |(1 - P_N) k̂_w|, which is |w|^N for Hardy and
    |w|^N sqrt(N + 1 - N |w|^2) for Bergman.

    Each point w is evaluated on the leading M(w) x M(w) block only, with
    M(w) from ``_kernel_rows``: the rows it drops move the value by at most
    (2 tau_M + tau_M^2) ||C||_2 <= 2^-60 (1 + tau_M / 2), by the same bound.
    Points are sorted by M (stably), and each group is taken in chunks of
    about ``_CHUNK_BYTES`` of kernel coefficients, so memory stays bounded
    whatever the number of points.
    """
    _check_basis(op, space)
    ws = np.asarray(ws, dtype=complex)
    flat = disk_points(ws.ravel())
    rows = _kernel_rows(op, space, flat)
    order = np.argsort(rows, kind="stable")
    sizes, counts = np.unique(rows, return_counts=True)
    vals = np.empty(flat.size, dtype=complex)
    start = 0
    for M, count in zip(sizes.tolist(), counts.tolist()):
        block = op.entries[:M, :M]
        step = max(1, _CHUNK_BYTES // (16 * M))
        for lo in range(start, start + count, step):
            ix = order[lo:min(lo + step, start + count)]
            v = normalized_kernel_matrix(space, flat[ix], M)
            mv = block @ v
            vals[ix] = np.einsum("ip,ip->p", np.conj(v, out=v), mv)
            del v, mv  # free this chunk's blocks before the next one is built
        start += count
    return vals.reshape(ws.shape)


def l2_berezin_set(operator) -> np.ndarray:
    """Distinct diagonal entries = the Berezin set of a finite l2 operator.

    The l2 kernels are the standard basis vectors, so the Berezin transform
    at index j is exactly the (j, j) entry whatever the off-diagonal part
    looks like.  Order of first appearance is preserved.
    """
    arr = np.asarray(operator, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("operator matrix must be square")
    diag = np.diag(arr)
    if diag.size == 0:
        raise ValueError("empty diagonal")
    _, first = np.unique(diag, return_index=True)
    return diag[np.sort(first)]


def model_operator_matrix(n: int) -> OperatorMatrix:
    """The compressed shift on K_{z^n}: ones on the first subdiagonal."""
    n = int(n)
    if n < 1:
        raise ValueError("model dimension must be >= 1")
    return OperatorMatrix(np.eye(n, k=-1, dtype=complex), model_space(n))


def model_berezin_range(n: int, grid: PolarGrid) -> RangeSample:
    """Sample <M k̂_lambda, k̂_lambda> for the model shift over a polar grid.

    The sampled sup modulus approaches (n-1)/n from below as r_max -> 1.
    """
    op = model_operator_matrix(n)
    values = berezin_grid(op, op.space, grid.mesh())
    return RangeSample(op.space, None, grid, values)


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
