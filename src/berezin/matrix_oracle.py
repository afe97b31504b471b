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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import symbols as sym
from .closed_form import PolarGrid, RangeSample
from .kernels import (SpaceSpec, as_size, disk_points, kernel_scales, model_space,
                      normalized_kernel_matrix, row_blocks)

__all__ = [
    "OperatorMatrix",
    "composition_matrix",
    "berezin_grid",
    "l2_berezin_set",
    "model_operator_matrix",
    "model_berezin_range",
    "numerical_range_boundary",
]

# Bytes of one chunk of berezin_grid's work, so that its working set does not
# grow with the number of points.  The direct route takes its points in
# chunks whose kernel block has this size: the block and its product with the
# operator are two such blocks.  Every array of the ring route takes at most
# an eighth of this size (512 KiB): its moduli come in runs whose coefficients
# take that much, its diagonal table in row blocks of that size, and its
# points in runs of _CHUNK_BYTES // 256 = 16,384, whose two Horner
# accumulators take it.  Arrays that small stay in cache, and the heap they
# leave behind is small too.
_CHUNK_BYTES = 2**22

# berezin_grid keeps the first M(w) rows at each point w: the smallest
# multiple of _ROW_STEP (at most N) whose dropped kernel tail moves the value
# by at most _TAIL_BUDGET.
_ROW_STEP = 32
_TAIL_BUDGET = 2.0**-60

# composition_matrix sets every real or imaginary part below this to zero,
# the square root of the smallest normal double: a product of two parts that
# are kept is then normal, so its GEMMs never meet subnormal operands.
_FLUSH_BELOW = np.sqrt(np.finfo(float).tiny)

# composition_matrix writes each doubling's product, and the Bergman weights,
# in kernels.row_blocks of about _BUILD_BLOCK_BYTES of the N x N matrix.  The
# block size is a multiple of _BUILD_ROW_ALIGN rows, so every row meets the
# same GEMM micro-kernel as in one whole product and the matrix's bytes do not
# depend on the blocking.
_BUILD_BLOCK_BYTES = 2**21
_BUILD_ROW_ALIGN = 64


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

    Each product, and the Bergman reweighting, is written into the matrix in
    row blocks of about 2 MiB (``kernels.row_blocks``), so the working set is
    the N x N matrix plus a few such blocks: about 17 MiB at N = 1024, and
    one 85 MB matrix plus 2 MiB blocks at N = 2304.
    """
    if space.kind not in ("hardy", "bergman"):
        raise ValueError("composition matrices are built on hardy/bergman bases")
    N = as_size(N, "truncation N")
    if N < 1:
        raise ValueError("truncation must be >= 1")
    base = _flush_tiny(sym.symbol_series(symbol, N))
    cols = np.zeros((N, N), dtype=complex)
    cols[0, 0] = 1.0
    step = _BUILD_BLOCK_BYTES // (16 * N) // _BUILD_ROW_ALIGN * _BUILD_ROW_ALIGN
    blocks = row_blocks(N, max(step, _BUILD_ROW_ALIGN))
    k = 1
    while k < N:
        m = min(k, N - k)
        power = _flush_tiny(np.convolve(cols[:, k - 1], base)[:N])
        # toeplitz[i, j] = power[i - j] for i >= j, else 0
        padded = np.concatenate([np.zeros(N - 1, dtype=complex), power])
        toeplitz = sliding_window_view(padded[::-1], N)[::-1]
        for rows in blocks:
            out = cols[rows, k:k + m]
            np.matmul(toeplitz[rows], cols[:, :m], out=out)
            _flush_tiny(out)
        k += m
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=float))
        for rows in blocks:
            cols[rows] *= w[None, :] / w[rows, None]
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
    M depends on |w| alone: the points are sorted by modulus once (exact
    equality of |w|), M is found per modulus, and each run of moduli with one
    M shares its block.  In a run, a modulus decides the route of its points:

    * held by one point, the direct route: the kernel block, its product
      with the M x M block and the conjugate reduction (``_direct_route``);
    * shared by two or more points, the ring route: on the circle |w| = r
      the value is a trigonometric polynomial whose 2M - 1 coefficients cost
      one O(M^2) pass per modulus, after which each point costs O(M)
      (``_ring_route``).

    Both routes take their points in chunks of about ``_CHUNK_BYTES``, so
    memory does not grow with the number of points.
    """
    _check_basis(op, space)
    ws = np.asarray(ws, dtype=complex)
    flat = disk_points(ws.ravel())
    if not flat.size:
        return np.empty(ws.shape, dtype=complex)
    radii = np.abs(flat)
    order = np.argsort(radii)
    radii = radii[order]
    # the k-th modulus (exact equality of |w|) starts at bounds[k] in ``order``
    bounds = np.append(np.flatnonzero(np.r_[True, radii[1:] != radii[:-1]]), flat.size)
    del radii  # free the sorted moduli before the routes allocate theirs
    held = np.diff(bounds)  # points on each modulus
    alone = np.repeat(held == 1, held)  # per point of ``order``
    rows = _kernel_rows(op, space, flat[order[bounds[:-1]]])
    # runs of consecutive moduli with one M (M >= 1, so 0 marks both ends); M
    # never decreases as |w| grows, but the runs do not rely on that
    cuts = np.flatnonzero(np.diff(rows, prepend=0, append=0)).tolist()
    vals = np.empty(flat.size, dtype=complex)
    for a, b in zip(cuts[:-1], cuts[1:]):
        block = op.entries[:rows[a], :rows[a]]
        run, lone, h = order[bounds[a]:bounds[b]], alone[bounds[a]:bounds[b]], held[a:b]
        # lone points in input order: a column's last bit can depend on its
        # place in the GEMM, and the recorded outputs used this order
        _direct_route(space, block, flat, np.sort(run[lone]), vals)
        if h.size < run.size:  # some modulus of the run holds two or more points
            _ring_route(space, block, flat, run[~lone], h[h > 1], vals)
    return vals.reshape(ws.shape)


def _direct_route(space, block, flat, ix, vals) -> None:
    """Write the values at the points ``flat[ix]`` into ``vals``, one kernel
    column and one product with the M x M ``block`` per point, in chunks of
    about ``_CHUNK_BYTES`` of kernel coefficients.  A chunk's kernel block
    and its product with the operator are the working set.
    """
    step = max(1, _CHUNK_BYTES // (16 * block.shape[0]))
    for lo in range(0, ix.size, step):
        part = ix[lo:lo + step]
        v = normalized_kernel_matrix(space, flat[part], block.shape[0])
        mv = block @ v
        vals[part] = np.einsum("ip,ip->p", np.conj(v, out=v), mv)
        del v, mv  # free this chunk's blocks before the next one is built


def _ring_route(space, block, flat, ix, held, vals) -> None:
    """Write the values at the points ``flat[ix]`` into ``vals``, modulus by modulus.

    ``ix`` lists the points one modulus after another; modulus k holds
    ``held[k]`` points.  With C' = diag(wt) C diag(wt) for C = ``block`` and
    c2 from ``kernels.kernel_scales``, a point w with |w|^2 = s has the value

        c2(s) (sum_{d>=0} b_d(s) w^d + conj(sum_{d>=1} conj(b_{-d}(s)) w^d)),
        b_d(s) = sum_m C'[m + d, m] s^m,  b_{-d}(s) = sum_m C'[m, m + d] s^m,

    a trigonometric polynomial in w/|w| whose coefficients
    (``_ring_coefficients``) cost O(M^2) per modulus.  Each point then costs
    O(M): both polynomials are evaluated at w by Horner's rule.  The moduli
    are taken in runs whose coefficients take an eighth of ``_CHUNK_BYTES``,
    and their points in runs of ``_CHUNK_BYTES // 256``.
    """
    M = block.shape[0]
    ring_end = np.cumsum(held)
    ring_s = np.abs(flat[ix[ring_end - held]]) ** 2
    ring_of = np.repeat(np.arange(held.size), held)
    step = max(1, _CHUNK_BYTES // (256 * M))
    for k0 in range(0, held.size, step):
        k1 = min(k0 + step, held.size)
        wt, c2 = kernel_scales(space, ring_s[k0:k1], M)
        coef = _ring_coefficients(block, wt, ring_s[k0:k1])
        points_end = ring_end[k1 - 1]
        for lo in range(ring_end[k0] - held[k0], points_end, _CHUNK_BYTES // 256):
            part = slice(lo, min(lo + _CHUNK_BYTES // 256, points_end))
            ring = ring_of[part] - k0
            w = flat[ix[part]]
            y = coef[M - 1].take(ring, axis=1)
            for d in range(M - 2, -1, -1):
                y *= w
                y += coef[d].take(ring, axis=1)
            np.conj(y[1], out=y[1])
            y[0] += y[1]
            y[0] *= c2[ring]
            vals[ix[part]] = y[0]


def _ring_coefficients(block: np.ndarray, wt: np.ndarray, s: np.ndarray) -> np.ndarray:
    """coef[d, 0, k] = b_d(s_k) and, for d >= 1, coef[d, 1, k] = conj(b_{-d}(s_k)),
    as in ``_ring_route``; coef[0, 1] is zero.

    The diagonals of C' = diag(wt) block diag(wt) are laid out by
    m = min(j, k) in row blocks (``_diagonals``) that take an eighth of
    ``_CHUNK_BYTES``; one GEMM per block adds its powers s^m times its rows.
    """
    M = block.shape[0]
    coef = np.empty((s.size, 2 * M), dtype=complex)
    real = coef.view(float)
    for m in row_blocks(M, max(1, _CHUNK_BYTES // (256 * M))):
        table = _diagonals(block, wt, m).reshape(m.stop - m.start, -1).view(float)
        powers = s[:, None] ** np.arange(m.start, m.stop)
        if m.start:
            real += powers @ table
        else:
            np.matmul(powers, table, out=real)
        del table  # before the next block's table is built
    return np.ascontiguousarray(coef.reshape(-1, 2, M).T)


def _diagonals(block: np.ndarray, wt: np.ndarray, m: slice) -> np.ndarray:
    """Rows ``m`` of the diagonals of C' = diag(wt) block diag(wt), indexed by
    min(j, k): table[i, 0, d] = C'[m_i + d, m_i] and, for d >= 1,
    table[i, 1, d] = conj(C'[m_i, m_i + d]), zero where m_i + d >= M."""
    M = block.shape[0]
    rows = m.stop - m.start
    padded = np.zeros((rows, 2 * M), dtype=complex)
    # skew[i, d] = padded[i, m_i + d], inside the buffer for every d < M
    skew = as_strided(padded[:, m.start:], (rows, M),
                      (padded.strides[0] + padded.strides[1], padded.strides[1]))
    table = np.empty((rows, 2, M), dtype=complex)
    for t, source in enumerate((block[:, m].T, block[m])):
        padded[:, :M] = source
        table[:, t] = skew
    del padded, skew
    np.conj(table[:, 1], out=table[:, 1])
    table[:, 1, 0] = 0.0
    weight = sliding_window_view(np.concatenate([wt, np.zeros(M - 1)]), M)[m]
    table *= (wt[m, None] * weight)[:, None, :]
    return table


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
    n = as_size(n, "model dimension n")
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
    M = as_size(directions, "directions")
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
