import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin import closed_form as cf
from berezin import geometry, kernels, symbols
from berezin import matrix_oracle as oracle


def _chunk_points(N: int) -> int:
    """Points per chunk of berezin_grid at truncation N."""
    return max(1, oracle._CHUNK_BYTES // (16 * N))


def test_composition_matrix_elliptic_is_diagonal_powers():
    op = oracle.composition_matrix(kernels.HARDY, symbols.elliptic(0.5), 6)
    expected = np.diag(0.5 ** np.arange(6).astype(float))
    np.testing.assert_allclose(op.entries, expected, atol=1e-15)


def test_composition_matrix_first_column_is_constant_function():
    op = oracle.composition_matrix(kernels.BERGMAN, symbols.blaschke(0.3), 8)
    e0 = np.zeros(8)
    e0[0] = 1.0
    np.testing.assert_allclose(op.entries[:, 0], e0, atol=1e-15)


def test_bergman_weights_differ_from_hardy():
    symb = symbols.blaschke(0.5)
    hardy_op = oracle.composition_matrix(kernels.HARDY, symb, 16)
    bergman_op = oracle.composition_matrix(kernels.BERGMAN, symb, 16)
    j = np.arange(16, dtype=float)
    ratio = np.sqrt(j[None, :] + 1) / np.sqrt(j[:, None] + 1)
    np.testing.assert_allclose(
        bergman_op.entries, hardy_op.entries * ratio, atol=1e-13
    )


def test_oracle_agrees_with_closed_forms():
    """Matrix quadratic forms against the closed-form transforms: the central
    dual-route check of the whole package."""
    rng = np.random.default_rng(101)
    ws = rng.uniform(0.05, 0.8, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    catalog = [
        symbols.elliptic(0.5),
        symbols.elliptic(0.25 + 0.25j),
        symbols.blaschke(0.5),
        symbols.blaschke(0.3j),
        symbols.automorphism(1.25, 0.75),
    ]
    for space in (kernels.HARDY, kernels.BERGMAN):
        closed_fn = (
            cf.hardy_transform if space.kind == "hardy" else cf.bergman_transform
        )
        for symb in catalog:
            op = oracle.composition_matrix(space, symb, 256)
            got = oracle.berezin_grid(op, space, ws)
            np.testing.assert_allclose(got, closed_fn(symb, ws), atol=1e-8)


def test_single_point_oracle_matches_grid():
    # the grid spans more than one chunk, so this also pins that a value does
    # not depend on which chunk its point falls in
    symb = symbols.blaschke(0.4)
    op = oracle.composition_matrix(kernels.HARDY, symb, 128)
    w = 0.3 + 0.2j
    ws = np.full(2 * _chunk_points(128) + 3, 0.1 + 0j)
    ws[-2] = w
    single = oracle.berezin_grid(op, kernels.HARDY, np.array([w]))
    assert single.shape == (1,)
    np.testing.assert_allclose(
        single[0], oracle.berezin_grid(op, kernels.HARDY, ws)[-2], rtol=1e-13
    )


def test_l2_berezin_set_from_a_square_matrix_only():
    mat = np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(oracle.l2_berezin_set(mat), [1.0, 2.0])
    upper = np.array([[1.5, 1.0], [0.0, 1.5]])
    np.testing.assert_array_equal(oracle.l2_berezin_set(upper), [1.5])
    for bad in ([3.0, 3.0, 1.0], np.zeros((2, 3))):
        with pytest.raises(ValueError, match="operator matrix must be square"):
            oracle.l2_berezin_set(bad)


def test_model_operator_matrix_is_subdiagonal_shift():
    op = oracle.model_operator_matrix(3)
    np.testing.assert_array_equal(
        op.entries, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    )


def test_model_range_matches_closed_form():
    grid = cf.PolarGrid.regular(30, 12, 0.98)
    for n in (1, 2, 4):
        sample = oracle.model_berezin_range(n, grid)
        np.testing.assert_allclose(
            sample.values, cf.model_transform(n, grid.mesh()), atol=1e-13
        )
        assert sample.symbol is None


def test_model_berezin_number_approaches_limit():
    grid = cf.PolarGrid.regular(200, 32, 0.9999)
    for n in (2, 5, 8):
        ber = oracle.model_berezin_range(n, grid).berezin_number()
        target = (n - 1) / n
        assert target - 2e-3 <= ber <= target + 1e-12


def test_numerical_range_of_diagonal_is_segment():
    pts = oracle.numerical_range_boundary(np.diag([1.0, 2.0]), 90)
    assert pts.shape == (90, 2)
    np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-12)
    assert pts[:, 0].min() >= 1.0 - 1e-12
    assert pts[:, 0].max() <= 2.0 + 1e-12


@pytest.mark.parametrize("n, M", [(2, 360), (65, 180), (65, 181)])
def test_numerical_range_of_nilpotent_jordan_block(n, M):
    # n x n Jordan block: the numerical range is the closed disk of radius
    # cos(pi / (n + 1)), 1/2 for n = 2
    pts = oracle.numerical_range_boundary(np.eye(n, k=1), M)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(radii, np.cos(np.pi / (n + 1)), rtol=0, atol=1e-12)


def test_numerical_range_hermitian_matches_eigenvalue_interval():
    rng = np.random.default_rng(77)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (g + g.conj().T) / 2
    eigs = np.linalg.eigvalsh(h)
    pts = oracle.numerical_range_boundary(h, 180)
    np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-10)
    np.testing.assert_allclose(pts[:, 0].min(), eigs[0], atol=1e-10)
    np.testing.assert_allclose(pts[:, 0].max(), eigs[-1], atol=1e-10)


@pytest.mark.parametrize("M", [180, 181])
@pytest.mark.parametrize("A", [
    np.random.default_rng(21).normal(size=(2, 7, 7)).T @ np.array([1.0, 1j]),
    oracle.model_operator_matrix(65).entries,
], ids=["random7", "shift65"])
def test_numerical_range_points_attain_the_support_function(A, M):
    # Re(exp(-i theta_m) p_m) = <H_m u, u> for the unit vector u behind p_m,
    # which is lambda_max(H_m) exactly when u is a top eigenvector; for even
    # M the directions m + M/2 read the bottom eigenvector of H_m
    pts = oracle.numerical_range_boundary(A, M)
    p = pts[:, 0] + 1j * pts[:, 1]
    scale = np.linalg.norm(A, 2)
    for m in range(M):
        rot = np.exp(-2j * np.pi * m / M)
        herm = 0.5 * (rot * A + (rot * A).conj().T)
        top = np.linalg.eigvalsh(herm)[-1]
        assert abs((rot * p[m]).real - top) <= 1e-12 * scale


@pytest.mark.parametrize("bad, reason", [
    (np.zeros((2, 3)), "must be square"),
    (np.ones(4), "must be square"),
    (np.zeros((0, 0)), "must not be empty"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "must be finite"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "must be finite"),
    (np.array([[1.0, 0.0], [complex(0.0, -np.inf), 1.0]]).T, "must be finite"),
], ids=["2x3", "1-D", "0x0", "NaN", "NaN-diagonal", "inf-imag-transposed"])
def test_numerical_range_rejects_a_bad_matrix_by_name(bad, reason):
    with pytest.raises(ValueError, match=reason):
        oracle.numerical_range_boundary(bad, 180)
    with pytest.raises(ValueError, match=reason):
        oracle.OperatorMatrix(bad, kernels.HARDY)
    with pytest.raises(ValueError, match=reason):
        oracle.l2_berezin_set(bad)


def test_wrapping_a_matrix_builds_no_mask():
    # An N x N boolean finiteness mask alone took 1 MiB at N = 1024
    entries = np.zeros((1024, 1024), dtype=complex)
    tracemalloc.start()
    try:
        for view in (entries, entries.T, entries[::2, ::2]):
            assert oracle.OperatorMatrix(view, kernels.HARDY).entries is view
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_berezin_samples_inside_numerical_range():
    """Berezin values are averages <T k, k> over unit vectors, so every
    sample must land inside the numerical-range hull."""
    rng = np.random.default_rng(303)
    ws = rng.uniform(0.05, 0.8, 60) * np.exp(2j * np.pi * rng.uniform(size=60))
    for symb in (symbols.blaschke(0.5), symbols.elliptic(0.25 + 0.25j)):
        op = oracle.composition_matrix(kernels.HARDY, symb, 64)
        vals = oracle.berezin_grid(op, kernels.HARDY, ws)
        samples = np.column_stack([vals.real, vals.imag])
        hull_pts = oracle.numerical_range_boundary(op, 180)
        depth = geometry.hull_signed_depth(hull_pts, samples)
        assert depth.min() >= -1e-6


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        oracle.OperatorMatrix(np.zeros((2, 3)), kernels.HARDY)
    op = oracle.composition_matrix(kernels.HARDY, symbols.elliptic(0.5), 4)
    assert op.space == kernels.HARDY
    assert op.truncation == 4
    with pytest.raises(ValueError, match="basis mismatch"):
        oracle.berezin_grid(op, kernels.BERGMAN, [0.1])
    assert oracle.model_operator_matrix(3).space == kernels.model_space(3)


def test_composition_matrix_rejects_model():
    with pytest.raises(ValueError):
        oracle.composition_matrix(kernels.model_space(3), symbols.elliptic(0.5), 8)


# ---------------------------------------------------------------------------
# Reference implementations.  composition_matrix fills its matrix by a
# three-term recurrence, normalized_kernel_matrix builds powers by a running
# product and berezin_grid works through the points in chunks; each must agree
# with the direct form below to rounding.

def reference_composition_matrix(space, symbol, N):
    """One convolution per column: column k is phi^(k-1) * phi."""
    base = symbols.symbol_series(symbol, N)
    cols = np.zeros((N, N), dtype=complex)
    cols[0, 0] = 1.0
    col = cols[:, 0].copy()
    for k in range(1, N):
        col = np.convolve(col, base)[:N]
        cols[:, k] = col
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=float))
        cols = cols * (w[None, :] / w[:, None])
    return cols


def reference_kernel_matrix(space, ws, N):
    """Powers of conj(w) by ``**``, scaled by the basis weights and norms."""
    ws = np.asarray(ws, dtype=complex)
    s = np.abs(ws) ** 2
    powers = np.conj(ws)[None, :] ** np.arange(N)[:, None]
    if space.kind == "hardy":
        return np.sqrt(1.0 - s)[None, :] * powers
    if space.kind == "bergman":
        weights = np.sqrt(np.arange(1, N + 1, dtype=float))
        return (1.0 - s)[None, :] * weights[:, None] * powers
    norms = (1.0 - s ** space.n) / (1.0 - s)
    return powers / np.sqrt(norms)[None, :]


def reference_berezin_grid(op, space, ws):
    """The whole N x P kernel matrix at once."""
    ws = np.asarray(ws, dtype=complex)
    v = reference_kernel_matrix(space, ws.ravel(), op.truncation)
    vals = np.einsum("ip,ip->p", np.conj(v), op.entries @ v)
    return vals.reshape(ws.shape)


_REFERENCE_SYMBOLS = [
    symbols.elliptic(0.25 + 0.25j),
    symbols.automorphism(1.25, 0.75),
    symbols.blaschke(0.5),
    symbols.blaschke(0.3j),  # its powers' coefficients run through subnormals
]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 64, 129, 513])
@pytest.mark.parametrize("symb", _REFERENCE_SYMBOLS, ids=lambda s: s.label)
def test_composition_matrix_equals_sequential_convolution(symb, N):
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symb, N)
        np.testing.assert_allclose(
            op.entries, reference_composition_matrix(space, symb, N), rtol=0, atol=1e-13
        )


def reference_extended_matrix(space, symbol, N):
    """One convolution per column, as reference_composition_matrix, in long
    double from the symbol's coefficients, rounded to complex at the end."""
    a, b, c, d = (np.clongdouble(x) for x in symbols.mobius_coefficients(symbol))
    # phi = (a z + b)/d * sum_m (-c/d)^m z^m
    geom = np.ones(N, dtype=np.clongdouble)
    for m in range(1, N):
        geom[m] = geom[m - 1] * (-c / d)
    base = b * geom / d
    base[1:] += a * geom[:-1] / d
    cols = np.zeros((N, N), dtype=np.clongdouble)
    cols[0, 0] = 1
    for k in range(1, N):
        cols[:, k] = np.convolve(cols[:, k - 1], base)[:N]
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=np.longdouble))
        cols *= w[None, :] / w[:, None]
    return cols.astype(complex)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN], ids=lambda s: s.label)
@pytest.mark.parametrize(
    "symb", [symbols.blaschke(0.9), symbols.blaschke(0.99), symbols.automorphism(2.6, 2.4)],
    ids=lambda s: s.label,
)
def test_composition_matrix_is_accurate_against_extended_precision(space, symb):
    # Errors grow with 1 / (|d| - |c|): 100 for Blaschke 0.99, 13 for (2.6, 2.4).
    got = oracle.composition_matrix(space, symb, 513).entries
    np.testing.assert_allclose(got, reference_extended_matrix(space, symb, 513),
                               rtol=0, atol=5e-14)


def reference_recurrence_matrix(space, symbol, N):
    """The three-term recurrence of composition_matrix on the whole padded
    matrix: each anti-diagonal gathered and scattered by fancy indexing, then
    one reweighting and one flush over all rows at once."""
    a, b, c, d = symbols.mobius_coefficients(symbol)
    a, b, c = np.array([a, b, c]) / d
    pad = np.zeros((N + 1, N + 1), dtype=complex)  # pad[j + 1, k + 1] = C[j, k]
    pad[1, 1] = 1.0
    for t in range(1, 2 * N - 1):
        j = np.arange(max(0, t - N + 1), min(t - 1, N - 1) + 1)
        k = t - j
        new = pad[j, k] * a
        new += pad[j + 1, k] * b
        new -= pad[j, k + 1] * c
        pad[j + 1, k + 1] = new
    cols = pad[1:, 1:].copy()
    if space.kind == "bergman":
        w = np.sqrt(np.arange(1, N + 1, dtype=float))
        cols *= w[None, :] / w[:, None]
    for part in (cols.real, cols.imag):
        part[np.abs(part) < oracle._FLUSH_BELOW] = 0.0
    return cols


@pytest.mark.parametrize("N", [1, 2, 3, 5, 64, 129, 513, 1024])
@pytest.mark.parametrize("symb", _REFERENCE_SYMBOLS, ids=lambda s: s.label)
def test_build_is_byte_identical_to_a_whole_matrix_recurrence(symb, N):
    # The build's rolling diagonals, strided writes and row-banded reweighting
    # and flush must not change a bit; 513 and 1024 span several row bands.
    for space in (kernels.HARDY, kernels.BERGMAN):
        got = oracle.composition_matrix(space, symb, N).entries
        assert got.tobytes() == reference_recurrence_matrix(space, symb, N).tobytes()


def test_composition_matrix_memory_is_one_matrix():
    # The N = 1024 matrix takes 16 MiB; the whole strided Toeplitz copy, the
    # N x m product and the Bergman reweighting's second matrix took 40 MiB.
    tracemalloc.start()
    try:
        oracle.composition_matrix(kernels.BERGMAN, symbols.automorphism(1.25, 0.75), 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# Each call returns the size it built, so a numpy integer can be checked too.
@pytest.mark.parametrize("built, name, minimum", [
    (lambda n: oracle.composition_matrix(kernels.HARDY, symbols.blaschke(0.5), n).truncation,
     "truncation N", 1),
    (lambda n: kernels.normalized_kernel_matrix(kernels.HARDY, [0.5], n).shape[0],
     "truncation", 1),
    (lambda n: len(oracle.numerical_range_boundary(np.eye(2), n)), "directions", 3),
    (lambda n: oracle.model_operator_matrix(n).truncation, "model dimension n", 1),
    (lambda n: len(symbols.symbol_series(symbols.blaschke(0.5), n)), "truncation", 1),
], ids=["composition_matrix", "normalized_kernel_matrix", "numerical_range_boundary",
        "model_operator_matrix", "symbol_series"])
def test_sizes_must_be_integers(built, name, minimum):
    for bad in (2.5, 3.9, 4.0, float("inf"), float("nan"), "4", None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            built(bad)
    for low in (minimum - 1, np.int64(-2)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {low}$"):
            built(low)
    assert built(np.int64(4)) == built(np.int32(4)) == built(4) == 4
    assert built(minimum) == minimum


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN], ids=lambda s: s.label)
@pytest.mark.parametrize(
    "symb", [symbols.blaschke(0.3j), symbols.automorphism(1.25, 0.75)], ids=lambda s: s.label
)
def test_leading_block_is_the_smaller_build(space, symb):
    # verify's oracle suite builds N = 512 once and reads N = 256 off its block.
    block = oracle.composition_matrix(space, symb, 512).entries[:256, :256]
    small = oracle.composition_matrix(space, symb, 256)
    assert block.tobytes() == small.entries.tobytes()
    ws = np.array([0.0, 0.5, 0.8j, -0.3 + 0.6j])
    head = oracle.OperatorMatrix(block, space)
    assert (oracle.berezin_grid(head, space, ws).tobytes()
            == oracle.berezin_grid(small, space, ws).tobytes())


@pytest.mark.parametrize("symb", _REFERENCE_SYMBOLS, ids=lambda s: s.label)
def test_every_build_is_a_leading_block_of_a_larger_one(symb):
    # An entry takes the same operations at any N, so no byte depends on N
    sizes = [*range(1, 41), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000]
    for space in (kernels.HARDY, kernels.BERGMAN):
        big = oracle.composition_matrix(space, symb, 1024).entries
        for N in sizes:
            small = oracle.composition_matrix(space, symb, N).entries
            assert small.tobytes() == big[:N, :N].tobytes(), (space.label, N)


@pytest.mark.parametrize(
    "space", [kernels.HARDY, kernels.BERGMAN, kernels.model_space(1), kernels.model_space(7)],
    ids=lambda s: s.label,
)
def test_kernel_matrix_equals_direct_powers(space):
    rng = np.random.default_rng(11)
    ws = np.concatenate([
        [0.0, 0.5, -0.999j, 1e-200],
        rng.uniform(0, 0.999, 200) * np.exp(2j * np.pi * rng.uniform(size=200)),
    ])
    for N in ([space.n] if space.kind == "model" else [1, 2, 64, 300]):
        np.testing.assert_allclose(
            kernels.normalized_kernel_matrix(space, ws, N),
            reference_kernel_matrix(space, ws, N),
            rtol=0, atol=1e-13,
        )


# Points where berezin_grid's row rule is at its ends: w = 0 (every tail is
# 0), a modulus whose log is far from 0, and moduli whose tails need every row.
_EDGE_POINTS = np.array(
    [0.0, 1e-200, -1e-200j, 0.999, 0.999j * np.exp(0.3j), -0.999, 0.5 - 0.5j], dtype=complex
)


@pytest.mark.parametrize("count", ["empty", "one", "chunk", "chunk+1"])
@pytest.mark.parametrize(
    "symb",
    _REFERENCE_SYMBOLS + [symbols.blaschke(0.3 + 0.4j), symbols.automorphism(2.6, 2.4)],
    ids=lambda s: s.label,
)
def test_berezin_grid_equals_whole_matrix(symb, count):
    N = 64
    size = {"empty": 0, "one": 1, "chunk": _chunk_points(N), "chunk+1": _chunk_points(N) + 1}
    rng = np.random.default_rng(5)
    n = size[count]
    ws = rng.uniform(0, 0.99, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    ws[:len(_EDGE_POINTS)] = _EDGE_POINTS[:n]
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symb, N)
        got = oracle.berezin_grid(op, space, ws)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, reference_berezin_grid(op, space, ws), rtol=0, atol=1e-13)


@pytest.mark.parametrize("N, chunk_points", [(512, None), (129, 5)])
def test_berezin_grid_keeps_mesh_shape_across_chunks(monkeypatch, N, chunk_points):
    # With chunks of 5 points at M = N, every group of equal M spans several
    # chunks and ends inside one; each group's points are spread over the mesh.
    if chunk_points is not None:
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 16 * N * chunk_points)
    grid = cf.PolarGrid.regular(60, 80, 0.99)
    assert grid.mesh().size > 2 * _chunk_points(N)
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symbols.automorphism(1.25, 0.75j), N)
        rows = oracle._kernel_rows(op, space, grid.mesh().ravel())
        assert np.unique(rows).size > 3 and rows.max() == N
        got = oracle.berezin_grid(op, space, grid.mesh())
        assert got.shape == grid.mesh().shape == (60, 80)
        np.testing.assert_allclose(
            got, reference_berezin_grid(op, space, grid.mesh()), rtol=0, atol=1e-13
        )
    model = oracle.model_operator_matrix(5)
    got = oracle.berezin_grid(model, kernels.model_space(5), grid.mesh())
    np.testing.assert_allclose(
        got, reference_berezin_grid(model, kernels.model_space(5), grid.mesh()), rtol=0, atol=1e-13
    )


# A mesh with its r = 0 ring; at N = 129 the outer rings keep all 129 rows,
# whose coefficients the polar route pads to 6 x 24 and folds onto 24 angles.
_RING_MESH = cf.PolarGrid.regular(40, 24, 0.99)


def _reference_by_rows(op, space, ws, rows=16):
    """reference_berezin_grid on ``rows`` rows of the mesh ``ws`` at a time."""
    return np.concatenate([reference_berezin_grid(op, space, ws[i:i + rows])
                           for i in range(0, len(ws), rows)])


@pytest.mark.parametrize("symb", _REFERENCE_SYMBOLS, ids=lambda s: s.label)
def test_polar_route_on_a_mesh_equals_whole_matrix(symb):
    ws = _RING_MESH.mesh()
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symb, 129)
        got = oracle.berezin_grid(op, space, ws)
        assert got.shape == ws.shape
        np.testing.assert_allclose(got, reference_berezin_grid(op, space, ws), rtol=0, atol=1e-13)


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN], ids=lambda s: s.label)
def test_polar_route_on_the_range_grid_equals_whole_matrix(space):
    # the default 200 x 256 grid of ``range`` at the oracle workload's N; the
    # reference kernels of 16 rows at a time serve every symbol
    ws = cf.PolarGrid.regular(200, 256, 0.99).mesh()
    ops = [oracle.composition_matrix(space, symb, 256) for symb in _REFERENCE_SYMBOLS]
    got = [oracle.berezin_grid(op, space, ws) for op in ops]
    for i in range(0, len(ws), 16):
        v = reference_kernel_matrix(space, ws[i:i + 16].ravel(), 256)
        for op, vals in zip(ops, got):
            ref = np.einsum("ip,ip->p", np.conj(v), op.entries @ v)
            np.testing.assert_allclose(vals[i:i + 16].ravel(), ref, rtol=0, atol=1e-13)


def _route_sizes(monkeypatch, calls=None):
    """Record how many points each route of berezin_grid is given, summed
    over the route calls of each berezin_grid call; ``calls`` collects
    (M, the indices given) per direct-route call."""
    sizes = {"direct": [], "polar": []}
    grid, direct, polar = oracle.berezin_grid, oracle._direct_route, oracle._polar_route

    def spy_grid(*args):
        for route in sizes.values():
            route.append(0)
        return grid(*args)

    def spy_direct(space, block, flat, ix, vals):
        sizes["direct"][-1] += ix.size
        if calls is not None:
            calls.append((block.shape[0], ix))
        direct(space, block, flat, ix, vals)

    def spy_polar(op, space, r, P):
        sizes["polar"][-1] += r.size * P
        return polar(op, space, r, P)

    monkeypatch.setattr(oracle, "berezin_grid", spy_grid)
    monkeypatch.setattr(oracle, "_direct_route", spy_direct)
    monkeypatch.setattr(oracle, "_polar_route", spy_polar)
    return sizes


def test_only_a_polar_mesh_takes_the_polar_route(monkeypatch):
    # A mesh is taken as polar only when it equals, bit for bit, the mesh of
    # its first column's radii and P angles 2 pi j / P.
    grid = cf.PolarGrid.regular(40, 24, 0.99)
    mesh = grid.mesh()
    moved = mesh.copy()
    moved[7, 5] = complex(np.nextafter(mesh[7, 5].real, 1.0), mesh[7, 5].imag)
    turned = cf.PolarGrid(grid.r_values, grid.theta_values + 0.1).mesh()
    sizes = _route_sizes(monkeypatch)
    for ws in (mesh, moved, turned, mesh.ravel()):
        for space in (kernels.HARDY, kernels.BERGMAN):
            op = oracle.composition_matrix(space, symbols.automorphism(1.25, 0.75j), 129)
            got = oracle.berezin_grid(op, space, ws)
            assert got.shape == ws.shape
            np.testing.assert_allclose(got, reference_berezin_grid(op, space, ws),
                                       rtol=0, atol=1e-13)
    assert sizes["polar"] == [mesh.size] * 2 + [0] * 6
    assert sizes["direct"] == [0] * 2 + [mesh.size] * 6


def test_mixed_points_take_the_direct_route_in_input_order(monkeypatch):
    # Mesh points share moduli, random points do not, and _EDGE_POINTS hold
    # both kinds (1e-200 and -1e-200j share one, as do 0.999 and -0.999);
    # shuffled into a 2-D array, they are no polar mesh.
    rng = np.random.default_rng(8)
    lone = rng.uniform(0, 0.99, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
    ws = np.concatenate([_RING_MESH.mesh().ravel(), _EDGE_POINTS, lone])
    ws = ws[rng.permutation(ws.size)].reshape(3, -1)
    calls = []
    sizes = _route_sizes(monkeypatch, calls)
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symbols.automorphism(1.25, 0.75j), 129)
        got = oracle.berezin_grid(op, space, ws)
        assert got.shape == ws.shape
        np.testing.assert_allclose(got, reference_berezin_grid(op, space, ws), rtol=0, atol=1e-13)
    assert sizes["direct"] == [ws.size] * 2 and sizes["polar"] == [0, 0]
    assert all(np.all(np.diff(ix) > 0) for _, ix in calls)


# Meshes that fold each ring's 2M - 1 coefficients onto its P angles in
# every way: one angle, P far below 2M - 1 (the 2000 x 8 grid of ``sweep``),
# and P above it; each holds the r = 0 ring.
_FOLD_MESHES = {
    "P=1": cf.PolarGrid.regular(40, 1, 0.99),
    "sweep 2000x8": cf.PolarGrid.regular(2000, 8),
    "P=513": cf.PolarGrid.regular(12, 513, 0.99),
}


@pytest.mark.parametrize("mesh", _FOLD_MESHES)
@pytest.mark.parametrize(
    "symb", _REFERENCE_SYMBOLS + [symbols.automorphism(2.6, 2.4)], ids=lambda s: s.label
)
def test_polar_route_folds_each_ring_onto_its_angles(symb, mesh, monkeypatch):
    ws = _FOLD_MESHES[mesh].mesh()
    assert np.all(ws[0] == 0)
    sizes = _route_sizes(monkeypatch)
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symb, 129)
        np.testing.assert_allclose(
            oracle.berezin_grid(op, space, ws), _reference_by_rows(op, space, ws),
            rtol=0, atol=1e-13,
        )
    assert sizes["polar"] == [ws.size] * 2 and sizes["direct"] == [0, 0]


@pytest.mark.parametrize("n", range(1, 9))
def test_polar_route_on_model_spaces_equals_whole_matrix(n, monkeypatch):
    sizes = _route_sizes(monkeypatch)
    op = oracle.model_operator_matrix(n)
    for grid in [_RING_MESH, *_FOLD_MESHES.values()]:
        ws = grid.mesh()
        np.testing.assert_allclose(
            oracle.berezin_grid(op, op.space, ws), _reference_by_rows(op, op.space, ws),
            rtol=0, atol=1e-13,
        )
        assert sizes["polar"][-1] == ws.size and sizes["direct"][-1] == 0


def test_polar_route_across_chunks(monkeypatch):
    # Chunks of three rings at M = 129 (6 x 24 coefficients each), so the
    # rings of every M span several chunks, and diagonal row blocks of three
    # rows, with a leftover row at M = 64 and 128.
    N = 129
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 256 * 3 * 144)
    ws = _RING_MESH.mesh()
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symbols.blaschke(0.3 + 0.4j), N)
        assert np.bincount(oracle._kernel_rows(op, space, _RING_MESH.r_values))[N] == 20
        np.testing.assert_allclose(
            oracle.berezin_grid(op, space, ws), reference_berezin_grid(op, space, ws),
            rtol=0, atol=1e-13,
        )


def test_each_row_count_takes_one_direct_call(monkeypatch):
    # Lone moduli among shared ones (eight turns of a + bi share a modulus),
    # shuffled, at N = 1024: one direct-route call per M, in increasing M,
    # each given the block of its M and its points in input order.
    rng = np.random.default_rng(10)
    a, b = rng.uniform(0, 0.7, (2, 30))
    turns = [a + 1j * b, a - 1j * b, -a + 1j * b, -a - 1j * b,
             b + 1j * a, b - 1j * a, -b + 1j * a, -b - 1j * a]
    lone = rng.uniform(0, 0.99, 150) * np.exp(2j * np.pi * rng.uniform(size=150))
    ws = np.concatenate([np.ravel(turns), lone, _EDGE_POINTS])
    ws = ws[rng.permutation(ws.size)]
    calls = []
    sizes = _route_sizes(monkeypatch, calls)
    for space in (kernels.HARDY, kernels.BERGMAN):
        calls.clear()
        op = oracle.composition_matrix(space, symbols.automorphism(1.25, 0.75j), 1024)
        np.testing.assert_allclose(
            oracle.berezin_grid(op, space, ws), reference_berezin_grid(op, space, ws),
            rtol=0, atol=1e-13,
        )
        rows = oracle._kernel_rows(op, space, ws)
        assert [M for M, _ in calls] == np.unique(rows).tolist() and len(calls) >= 3
        assert all(np.array_equal(ix, np.flatnonzero(rows == M)) for M, ix in calls)
    assert sizes["direct"] == [ws.size] * 2 and sizes["polar"] == [0, 0]


def test_berezin_grid_memory_is_bounded():
    # The whole 256 x 51,200 kernel matrix, its conjugate and its product
    # with the operator took about 600 MiB at once; a chunk keeps two blocks
    # of _CHUNK_BYTES alive (its kernel columns and their product with the
    # operator) whatever the number of points, next to 2 MiB of per-point
    # arrays.  The chunk stays at 4 MiB: 16 MiB chunks peaked at 35 MiB here.
    grid = cf.PolarGrid.regular(200, 256, 0.99)
    ws = grid.mesh()
    op = oracle.composition_matrix(kernels.BERGMAN, symbols.blaschke(0.5), 256)
    tracemalloc.start()
    try:
        oracle.berezin_grid(op, kernels.BERGMAN, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * oracle._CHUNK_BYTES + 2 * 2**20 <= 14 * 2**20


def test_direct_route_memory_is_bounded():
    # The same 51,200 points raveled are no polar mesh: the direct route
    # keeps the chunk's two blocks plus about 2 MiB of per-point arrays.
    ws = cf.PolarGrid.regular(200, 256, 0.99).mesh().ravel()
    op = oracle.composition_matrix(kernels.BERGMAN, symbols.blaschke(0.5), 256)
    tracemalloc.start()
    try:
        oracle.berezin_grid(op, kernels.BERGMAN, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * oracle._CHUNK_BYTES + 2 * 2**20


def _tail_norm(space, ws, N):
    """Norm of the kernel's part beyond the first N basis vectors, |(1 - P_N) k̂_w|."""
    s = np.abs(ws) ** 2
    tail = np.abs(ws) ** N
    if space.kind == "bergman":
        tail = tail * np.sqrt(N + 1 - N * s)
    return tail


_unit = st.floats(0.0, 1.0, allow_nan=False)
_turn = st.floats(0.0, 2 * np.pi, allow_nan=False)


@st.composite
def _symbol(draw, kinds=("elliptic", "blaschke", "automorphism")):
    kind = draw(st.sampled_from(kinds))
    turn = np.exp(1j * draw(_turn))
    if kind == "elliptic":
        return symbols.elliptic(draw(_unit) * turn)
    if kind == "blaschke":
        return symbols.blaschke(0.95 * draw(_unit) * turn)
    # |phi(0)| = |b/a| <= 0.9 keeps ||C_phi|| small enough that the tail bound
    # times the operator norm stays below the tolerance
    ratio = 0.9 * draw(_unit)
    a = np.exp(1j * draw(_turn)) / np.sqrt(1.0 - ratio**2)
    return symbols.automorphism(a, ratio * abs(a) * turn)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    symb=_symbol(),
    N=st.sampled_from([64, 128]),
    points=st.lists(st.tuples(_unit, _turn), min_size=1, max_size=20),
)
def test_oracle_agrees_with_closed_form_inside_tail_bound(symb, N, points):
    ws = np.array([0.999 * r * np.exp(1j * t) for r, t in points])
    for space, closed in ((kernels.HARDY, cf.hardy_transform), (kernels.BERGMAN, cf.bergman_transform)):
        inside = ws[_tail_norm(space, ws, N) < 1e-10]
        op = oracle.composition_matrix(space, symb, N)
        np.testing.assert_allclose(
            oracle.berezin_grid(op, space, inside), closed(symb, inside), rtol=0, atol=1e-8
        )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symb=_symbol(kinds=("blaschke", "automorphism")), N=st.integers(1, 64))
def test_recurrence_equals_sequential_convolution(symb, N):
    for space in (kernels.HARDY, kernels.BERGMAN):
        np.testing.assert_allclose(oracle.composition_matrix(space, symb, N).entries,
                                   reference_composition_matrix(space, symb, N),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [1, 40, 256, 1024])
@pytest.mark.parametrize(
    "symb", [symbols.blaschke(0.5), symbols.automorphism(2.6, 2.4)], ids=lambda s: s.label
)
def test_kernel_rows_meet_the_tail_budget_and_are_minimal(symb, N):
    rng = np.random.default_rng(23)
    ws = np.concatenate([
        _EDGE_POINTS,
        rng.uniform(0, 1, 400) ** 0.25 * 0.9999 * np.exp(2j * np.pi * rng.uniform(size=400)),
    ])
    step = oracle._ROW_STEP
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symb, N)
        scale = 2 * np.linalg.norm(op.entries)
        rows = oracle._kernel_rows(op, space, ws)
        assert rows.dtype.kind == "i" and rows.shape == ws.shape
        assert np.all((rows == N) | (rows % step == 0))
        assert np.all((rows >= min(step, N)) & (rows <= N))
        fits = scale * _tail_norm(space, ws, rows) <= oracle._TAIL_BUDGET
        assert np.all(fits | (rows == N))
        smaller = (-(-rows // step) - 1) * step  # the candidate before M
        lower = smaller >= step
        assert np.all(scale * _tail_norm(space, ws[lower], smaller[lower]) > oracle._TAIL_BUDGET)
        assert rows[0] == min(step, N)  # w = 0
    # both ends of the rule are reached
    op = oracle.composition_matrix(kernels.HARDY, symb, N)
    rows = oracle._kernel_rows(op, kernels.HARDY, _EDGE_POINTS)
    assert rows[3] == N and rows[1] == min(step, N)


def test_berezin_grid_of_a_matrix_whose_norm_overflows():
    # ||C||_F is inf here, so every point keeps all N = 4 rows (w = 0 through
    # the NaN of -inf / -inf), with no floating-point warning on the way.
    op = oracle.OperatorMatrix(np.full((4, 4), 1e155), kernels.HARDY)
    ws = np.array([0.0, 0.5, 1e-200j])
    np.testing.assert_array_equal(oracle._kernel_rows(op, kernels.HARDY, ws), [4, 4, 4])
    np.testing.assert_allclose(
        oracle.berezin_grid(op, kernels.HARDY, ws),
        reference_berezin_grid(op, kernels.HARDY, ws), rtol=1e-15,
    )


@pytest.mark.parametrize(
    "bad, reason",
    [(np.nan, "finite"), (complex(np.nan, np.nan), "finite"), (np.inf, "finite"),
     (complex(0, -np.inf), "finite"), (1.5j, r"\|w\| < 1")],
)
def test_berezin_grid_rejects_points_off_the_open_disk(bad, reason):
    # rejected before the row rule takes log|w|, so with no warning either
    for space in (kernels.HARDY, kernels.BERGMAN):
        op = oracle.composition_matrix(space, symbols.blaschke(0.5), 32)
        with pytest.raises(ValueError, match=reason):
            oracle.berezin_grid(op, space, np.array([0.1, bad, 0.2]))
