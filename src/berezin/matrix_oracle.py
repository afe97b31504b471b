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
from .closed_form import TWO_PI, PolarGrid, RangeSample
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
# grow with the number of points.  A direct-route chunk holds its kernel block
# and the block's product with the operator, each of this size.  A polar-route
# chunk holds rings whose coefficients, padded to a multiple of P, take an
# eighth of it (512 KiB), as does each row block of its diagonal table.
# composition_matrix stores its blocks of diagonals in row pieces of a
# sixty-fourth of it (64 KiB).  Arrays that small stay in cache, and the heap
# they leave behind is small too.
_CHUNK_BYTES = 2**22

# composition_matrix computes its anti-diagonals into a ring and stores this
# many at once: row j of B consecutive diagonals is B consecutive entries of
# matrix row j.  Its ring of B + 2 diagonals takes 544 KiB at N = 1024.
_BLOCK_DIAGONALS = 32

# berezin_grid keeps the first M(w) rows at each point w: the smallest
# multiple of _ROW_STEP (at most N) whose dropped kernel tail moves the value
# by at most _TAIL_BUDGET.
_ROW_STEP = 32
_TAIL_BUDGET = 2.0**-60

# composition_matrix sets every real or imaginary part of its matrix below
# this, the square root of the smallest normal double, to zero, so that
# berezin_grid's GEMMs meet no subnormal operands from the matrix.  The
# recurrence that builds the matrix runs through subnormals unflushed: the
# flush applies to the copy of each block of diagonals on its way into the
# matrix, never to the diagonals the recurrence reads.
_FLUSH_BELOW = np.sqrt(np.finfo(float).tiny)


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator matrix in the orthonormal basis of ``space``."""

    entries: np.ndarray
    space: SpaceSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _square_matrix(self.entries))

    @property
    def truncation(self) -> int:
        return self.entries.shape[0]


def _square_matrix(entries) -> np.ndarray:
    """``entries`` as a complex array, checked to be a non-empty, square and
    finite matrix; each failure raises ``ValueError`` naming it."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {m.shape}")
    if not m.size:
        raise ValueError("operator matrix must not be empty")
    # min and max carry NaN and inf through; m[..., None] has a float view in any layout
    if not all(np.isfinite(f(m[..., None].view(float))) for f in (np.min, np.max)):
        raise ValueError("operator matrix entries must be finite")
    return m


def composition_matrix(space: SpaceSpec, symbol: sym.SymbolSpec, N: int) -> OperatorMatrix:
    """Truncated matrix of C_phi in the monomial orthonormal basis.

    Column k holds the coefficients of C_phi(basis_k) = phi^k expanded in the
    basis: plain Taylor coefficients for Hardy, and for Bergman the same
    coefficients reweighted by sqrt(k+1)/sqrt(j+1) so the basis stays
    orthonormal.  Elliptic symbols give the diagonal matrix diag(alpha^k)
    in both spaces (the weights cancel on the diagonal).

    Every symbol is linear-fractional, phi(z) = (a z + b)/(c z + d)
    (``symbols.mobius_coefficients``), so (c z + d) phi^k = (a z + b) phi^(k-1).
    Comparing the coefficients of z^j gives each Taylor coefficient
    C[j, k] of phi^k from three neighbours:

        C[j, k] = (a/d) C[j-1, k-1] + (b/d) C[j, k-1] - (c/d) C[j-1, k],

    with C[0, 0] = 1, C[j, 0] = 0 for j >= 1 and zero outside the matrix.
    The matrix is filled one anti-diagonal j + k = t at a time, t = 1..2N-2:
    each comes from the two before it as three shifted slices.  An entry
    takes the same operations whatever N is, so every build is the leading
    block of every larger one, byte for byte.

    A rounding error e made at (j0, k0) travels into column k as e times the
    coefficients of phi^(k-k0) / (c z + d), which are at most 1 / (|d| - |c|)
    in modulus: 1 for elliptic symbols, 1 / (1 - |alpha|) for Blaschke
    factors and |a| / (|a| - |b|) for automorphisms.  An entry's error is at
    most the sum of the errors made above and to the left of it times that
    bound; in practice it is far smaller: against a long double build at
    N = 513 it is at most 1.5e-14 (Blaschke 0.99 on Bergman).

    The cost is O(N^2) arithmetic and no BLAS.  The diagonals are computed
    into a ring of B + 2 rows of N + 1 entries, B = ``_BLOCK_DIAGONALS`` or
    (N - 1) / 2 if that is less.  Row j of B consecutive diagonals is B
    consecutive entries of matrix row j, so the B diagonals are stored
    together, in row pieces of ``_CHUNK_BYTES`` / (1024 B) rows: a copy of
    each piece gets the Bergman reweighting and the flush of parts below
    ``_FLUSH_BELOW`` (entries move by about 1e-154 at most), and goes into
    the matrix once.  A piece whose rows run past column N - 1 stores only
    its entries inside the matrix.  At N = 1024 the build peaks at about
    16.9 MiB, of which the matrix takes 16.
    """
    if space.kind not in ("hardy", "bergman"):
        raise ValueError("composition matrices are built on hardy/bergman bases")
    N = as_size(N, "truncation N", 1)
    a, b, c, d = sym.mobius_coefficients(symbol)
    # 0-d arrays: the cheapest operands per ufunc call
    a, b, c = (np.array(v) for v in np.array([a, b, c]) / d)
    cols = np.zeros((N, N), dtype=complex)
    cols[0, 0] = 1.0
    # by_diagonal[j, t] = C[j, t - j] wherever 0 <= t - j < N
    item = cols.itemsize
    by_diagonal = as_strided(cols, (N, 2 * N - 1), ((N - 1) * item, item))
    B = max(1, min(_BLOCK_DIAGONALS, (N - 1) // 2))
    step = max(1, _CHUNK_BYTES // (1024 * B))
    # ring[i + 2, j + 1] = C[j, t - j] for diagonal t = t0 + i of the block
    # starting at t0, rows 0 and 1 the two diagonals before it; ring[:, 0]
    # stays 0 for C[-1, .], and entries not yet written are the zero C[j, k <= 0]
    ring = np.zeros((B + 2, N + 1), dtype=complex)
    ring[1, 1] = 1.0
    diagonals = list(ring)
    term = np.empty(N, dtype=complex)
    # beyond[i, r] = i - r: row r of a piece is past column N - 1 on diagonal
    # t0 + i when i - r > N - 1 - t0 + r0
    beyond = np.subtract.outer(np.arange(B), np.arange(step))
    if space.kind == "bergman":
        w, _ = kernel_scales(space, 0.0, N)
        # rw[N - 1 + B - k] = w[k], and 1 for k outside 0..N-1
        rw = np.concatenate([np.ones(B), w[::-1], np.ones(B + step)])
        windows = sliding_window_view(rw, step)
    for t0 in range(1, 2 * N - 1, B):
        nb = min(B, 2 * N - 1 - t0)
        for i in range(nb):
            t = t0 + i
            lo, hi = max(0, t - N + 1), min(t - 1, N - 1)  # rows j with 1 <= k < N
            older, last, new = diagonals[i], diagonals[i + 1], diagonals[i + 2][lo + 1:hi + 2]
            part = term[:hi + 1 - lo]
            np.multiply(older[lo:hi + 1], a, out=new)
            np.multiply(last[lo + 1:hi + 2], b, out=part)
            new += part
            np.multiply(last[lo:hi + 1], c, out=part)
            new -= part
        # Rows first..edge-1 run past column N - 1 on the block's last
        # diagonals; rows edge..stop-1 do not, and where they run before
        # column 1 the ring holds the zero C[j, k <= 0], written only to
        # C[j, 0] = 0 and to entries of later diagonals.
        t1 = t0 + nb - 1
        first, edge, stop = max(0, t0 - N + 1), max(0, t1 - N + 1), min(t1, N)
        pieces = [(r0, min(r0 + step, edge)) for r0 in range(first, edge, step)]
        pieces += [(r0, min(r0 + step, stop)) for r0 in range(edge, stop, step)]
        for r0, r1 in pieces:
            block = ring[2:2 + nb, r0 + 1:r1 + 1]
            if space.kind == "bergman":
                at = N - 1 + B - t0 + r0
                ratio = windows[at - nb + 1:at + 1, :r1 - r0][::-1] / w[r0:r1]
                block = block * ratio  # a copy: the ring feeds the recurrence
            else:
                block = block.copy()
            parts = block.view(float)
            np.putmask(parts, np.abs(parts) < _FLUSH_BELOW, 0.0)
            target = by_diagonal[r0:r1, t0:t0 + nb]
            if r0 < edge:
                inside = beyond[:nb, :r1 - r0].T <= N - 1 - t0 + r0
                np.copyto(target, block.T, where=inside)
            else:
                target[...] = block.T
        ring[:2] = ring[nb:nb + 2]
    return OperatorMatrix(cols, space)


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

    The layout of ``ws`` decides the route.  A polar mesh, row k equal to
    r_k exp(2 pi i j / P) for j < P as ``PolarGrid.mesh`` builds it from
    ``PolarGrid.regular``'s angles, takes ``_polar_route``: one O(M^2)
    coefficient pass and one length-P inverse FFT per ring.  Any other input
    takes ``_direct_route`` once per value of M, with that M's points in input
    order.  Both routes work in chunks of about ``_CHUNK_BYTES``, so memory
    does not grow with the number of points.
    """
    _check_basis(op, space)
    ws = np.asarray(ws, dtype=complex)
    flat = disk_points(ws.ravel())
    if not flat.size:
        return np.empty(ws.shape, dtype=complex)
    if ws.ndim == 2:
        r = ws[:, 0].real
        turn = np.exp(1j * np.linspace(0.0, TWO_PI, ws.shape[1], endpoint=False))
        if np.array_equal(ws, r[:, None] * turn[None, :]):
            return _polar_route(op, space, r, ws.shape[1])
    rows = _kernel_rows(op, space, flat)
    vals = np.empty(flat.size, dtype=complex)
    for M in np.flatnonzero(np.bincount(rows)).tolist():
        _direct_route(space, op.entries[:M, :M], flat, np.flatnonzero(rows == M), vals)
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


def _polar_route(op: OperatorMatrix, space: SpaceSpec, r: np.ndarray, P: int) -> np.ndarray:
    """Values on the mesh r_k exp(2 pi i j / P), shape (r.size, P).

    With C' = diag(wt) C diag(wt) for the M x M block C and c2 from
    ``kernels.kernel_scales``, a point w = r e^{i theta}, s = r^2, has the value

        c2(s) (sum_{d>=0} b_d(s) w^d + conj(sum_{d>=1} conj(b_{-d}(s)) w^d)),
        b_d(s) = sum_m C'[m + d, m] s^m,  b_{-d}(s) = sum_m C'[m, m + d] s^m.

    At theta_j = 2 pi j / P each sum is an unnormalized length-P inverse DFT
    of the coefficients b_d(s) r^d folded mod P.  The rings of one M go in
    chunks whose coefficients, padded to a multiple of P, take an eighth of
    ``_CHUNK_BYTES``.
    """
    rows = _kernel_rows(op, space, r)
    vals = np.empty((r.size, P), dtype=complex)
    for M in np.flatnonzero(np.bincount(rows)).tolist():
        width = -(-M // P) * P  # M rounded up to a multiple of P
        rings = np.flatnonzero(rows == M)
        step = max(1, _CHUNK_BYTES // (256 * width))
        for lo in range(0, rings.size, step):
            part = rings[lo:lo + step]
            s = r[part] ** 2
            wt, c2 = kernel_scales(space, s, M)
            coef = np.zeros((part.size, 2, width), dtype=complex)
            np.multiply(_ring_coefficients(op.entries[:M, :M], wt, s),
                        (r[part, None] ** np.arange(M))[:, None, :], out=coef[..., :M])
            if width > P:
                coef = coef.reshape(part.size, 2, -1, P).sum(axis=2)
            y = np.fft.ifft(coef, norm="forward")
            y[:, 0] += np.conj(y[:, 1], out=y[:, 1])  # in place: temporaries cost page faults
            y[:, 0] *= c2[:, None]
            vals[part] = y[:, 0]
            del coef, y  # before the next chunk's are built
    return vals


def _ring_coefficients(block: np.ndarray, wt: np.ndarray, s: np.ndarray) -> np.ndarray:
    """coef[k, 0, d] = b_d(s_k) and, for d >= 1, coef[k, 1, d] = conj(b_{-d}(s_k)),
    as in ``_polar_route``; coef[k, 1, 0] is zero.

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
    return coef.reshape(-1, 2, M)


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
    looks like.  Order of first appearance is preserved.  A matrix that is
    empty, not square or not finite raises ``ValueError``.
    """
    diag = np.diag(_square_matrix(operator))
    _, first = np.unique(diag, return_index=True)
    return diag[np.sort(first)]


def model_operator_matrix(n: int) -> OperatorMatrix:
    """The compressed shift on K_{z^n}: ones on the first subdiagonal."""
    n = as_size(n, "model dimension n", 1)
    return OperatorMatrix(np.eye(n, k=-1, dtype=complex), model_space(n))


def model_berezin_range(n: int, grid: PolarGrid) -> RangeSample:
    """Sample <M k̂_lambda, k̂_lambda> for the model shift over a polar grid.

    The sampled sup modulus approaches (n-1)/n from below as r_max -> 1.
    """
    op = model_operator_matrix(n)
    return RangeSample(op.space, None, grid, berezin_grid(op, op.space, grid.mesh()))


def numerical_range_boundary(op, directions: int = 180) -> np.ndarray:
    """Inscribed-polygon sample of the numerical range boundary.

    For each direction theta_m = 2*pi*m/M the top eigenvector u of H_m, the
    Hermitian part of exp(-i theta_m) A, is computed and <A u, u> recorded;
    the convex hull of the returned (M, 2) points approximates W(A) from
    inside (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).  For even M,
    direction m + M/2 has Hermitian part -H_m, whose top eigenvector is the
    bottom one of H_m: one ``eigh`` serves both directions.  An odd M takes
    one ``eigh`` per direction.

    A matrix with no nonzero imaginary part has W(A) = conj W(A): H at
    -theta_m is the conjugate of H_m, so the point of direction -m mod M is
    written as the exact conjugate of the point of direction m, and its
    ``eigh`` is skipped.  With the pairing above, a real A takes M//4 + 1
    ``eigh`` calls for even M and (M + 1)//2 for odd M.

    ``op`` is an :class:`OperatorMatrix` or a non-empty, square and finite
    matrix; any other input raises ``ValueError``.
    """
    A = op.entries if isinstance(op, OperatorMatrix) else _square_matrix(op)
    M = as_size(directions, "directions", 3)
    half = M // 2 if M % 2 == 0 else M
    mirror = not A.imag.any()
    points = np.empty(M, dtype=complex)
    done = np.zeros(M, dtype=bool)
    for m in range(half):
        if done[m]:
            continue
        rotated = np.exp(-2j * np.pi * m / M) * A
        herm = 0.5 * (rotated + rotated.conj().T)
        try:
            _, vecs = np.linalg.eigh(herm)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed to converge on direction {m} of {M}: {exc}"
            ) from exc
        found = [(m, vecs[:, -1])]
        if half < M:
            found.append((m + half, vecs[:, 0]))
        for k, u in found:
            if done[k]:
                continue
            points[k] = np.vdot(u, A @ u)
            done[k] = True
            if mirror and not done[-k % M]:
                points[-k % M] = points[k].conjugate()
                done[-k % M] = True
    return np.column_stack([points.real, points.imag])
