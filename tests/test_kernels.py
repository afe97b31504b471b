import numpy as np
import pytest

from berezin import kernels


def reference_kernel(space, w, z):
    """The reproducing kernel k_w(z) in closed form."""
    t = np.conj(w) * z
    if space.kind == "hardy":
        return 1.0 / (1.0 - t)
    if space.kind == "bergman":
        return 1.0 / (1.0 - t) ** 2
    return (1.0 - t ** space.n) / (1.0 - t)


def basis_values(space, z, N):
    """The first N orthonormal basis functions at z."""
    k = np.arange(N)
    weights = np.sqrt(k + 1.0) if space.kind == "bergman" else np.ones(N)
    return weights * z ** k


def kernel_column(space, w, N):
    return kernels.normalized_kernel_matrix(space, [w], N)[:, 0]


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN, kernels.model_space(5)],
                         ids=lambda s: s.label)
def test_coordinates_sum_to_the_normalized_kernel(space):
    """sum_k c_k e_k(z) = k_w(z) / sqrt(k_w(w)): the coordinates of k̂_w
    reproduce the closed-form kernel and its norm."""
    rng = np.random.default_rng(23)
    N = space.n or 400
    for _ in range(25):
        w = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        series = kernel_column(space, w, N) @ basis_values(space, z, N)
        expected = reference_kernel(space, w, z) / np.sqrt(reference_kernel(space, w, w).real)
        np.testing.assert_allclose(series, expected, rtol=1e-12)


def test_normalized_coeffs_unit_norm():
    rng = np.random.default_rng(5)
    for space in (kernels.HARDY, kernels.BERGMAN):
        for _ in range(20):
            w = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            coeffs = kernel_column(space, w, 400)
            np.testing.assert_allclose(np.linalg.norm(coeffs), 1.0, atol=1e-10)


def test_normalized_coeffs_hardy_formula():
    w = 0.6
    coeffs = kernel_column(kernels.HARDY, w, 8)
    expected = np.sqrt(1 - w**2) * w ** np.arange(8)
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_normalized_coeffs_bergman_formula():
    w = 0.5j
    k = np.arange(10)
    coeffs = kernel_column(kernels.BERGMAN, w, 10)
    expected = (1 - abs(w) ** 2) * np.sqrt(k + 1) * np.conj(w) ** k
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_model_coeffs_need_matching_truncation():
    space = kernels.model_space(4)
    coeffs = kernel_column(space, 0.3, 4)
    np.testing.assert_allclose(np.linalg.norm(coeffs), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        kernel_column(space, 0.3, 8)


def test_kernel_matrix_columns_match_single_points():
    ws = np.array([0.1, 0.3 + 0.2j, -0.5j])
    mat = kernels.normalized_kernel_matrix(kernels.BERGMAN, ws, 64)
    assert mat.shape == (64, 3)
    for j, w in enumerate(ws):
        np.testing.assert_allclose(
            mat[:, j], kernel_column(kernels.BERGMAN, w, 64)
        )


def test_model_space_validation():
    with pytest.raises(ValueError):
        kernels.model_space(0)
    assert kernels.model_space(3).n == 3
    assert "model" in kernels.model_space(3).label
    with pytest.raises(ValueError, match="unknown space kind"):
        kernels.SpaceSpec("l2")


def test_model_space_dimension_must_be_an_integer():
    with pytest.raises(ValueError, match="^model dimension n must be an integer, got 2.5$"):
        kernels.model_space(2.5)
    for bad in (2.5, float("nan"), None):
        with pytest.raises(ValueError, match=f"^model dimension n must be an integer, got {bad}$"):
            kernels.SpaceSpec("model", bad)
    assert kernels.model_space(np.int64(3)) == kernels.model_space(np.int32(3))
    assert type(kernels.model_space(np.int64(3)).n) is int


@pytest.mark.parametrize(
    "bad, reason",
    [(np.nan, "finite"), (complex(np.nan, np.nan), "finite"), (np.inf, "finite"),
     (complex(np.inf, 0.5), "finite"), (1.0, r"\|w\| < 1"), (-2j, r"\|w\| < 1")],
)
@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN, kernels.model_space(3)],
                         ids=lambda s: s.label)
def test_points_off_the_open_disk_are_rejected(space, bad, reason):
    N = space.n or 8
    with pytest.raises(ValueError, match=reason):
        kernels.normalized_kernel_matrix(space, np.array([0.2, bad]), N)
    with pytest.raises(ValueError, match=reason):
        kernel_column(space, bad, N)


def test_disk_messages_name_the_points_not_a_caller():
    with pytest.raises(ValueError, match=r"^expected finite points, got NaN or inf$"):
        kernels.disk_points([0.5, np.nan])
    with pytest.raises(ValueError, match=r"^expected points with \|w\| < 1, got \|w\| = 2.0$"):
        kernels.disk_points([0.5, 1.0, -2j])


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
def test_row_blocks_cover_the_rows_and_leave_no_single_row_block(rows):
    for n in sorted({0, 1, 2, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1}):
        blocks = kernels.row_blocks(n, rows)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(b.start % rows == 0 for b in blocks)
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert all(b.stop - b.start <= rows + 1 for b in blocks[-1:])
        if n >= 2 and rows >= 2:
            assert all(b.stop - b.start >= 2 for b in blocks)


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN, kernels.model_space(1),
                                   kernels.model_space(6)], ids=lambda s: s.label)
def test_kernel_scales_factor_the_kernel_columns(space):
    # wt are the basis weights and c2 = 1 / k_w(w); the kernel columns and the
    # ring route of berezin_grid both read the space's scaling from here
    ws = np.array([0.0, 1e-200j, 0.3 - 0.4j, -0.9, 0.999j])
    N = space.n or 40
    wt, c2 = kernels.kernel_scales(space, np.abs(ws) ** 2, N)
    assert wt.shape == (N,) and c2.shape == ws.shape
    np.testing.assert_array_equal(wt, basis_values(space, 1.0, N))
    np.testing.assert_allclose(c2, 1.0 / reference_kernel(space, ws, ws).real, rtol=1e-13, atol=0)


def kernel_matrix_per_space(space, ws, N):
    """normalized_kernel_matrix's arithmetic written out with one scaling
    formula per space: the reference its bits are pinned to."""
    ws = np.asarray(ws, dtype=complex)
    s = np.abs(ws) ** 2
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


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.BERGMAN, kernels.model_space(1),
                                   kernels.model_space(6)], ids=lambda s: s.label)
def test_kernel_matrix_keeps_its_per_space_arithmetic(space):
    # Hardy's weights are ones (x * 1.0 is x, signed zeros included) and
    # Bergman's sqrt((1 - s)^2) is 1 - s exactly, so both match the per-space
    # formulas bit for bit; model(n)'s product with sqrt(c2) and the quotient
    # by sqrt(1 / c2) differ by rounding and in the signs of zero parts.
    rng = np.random.default_rng(4)
    ws = np.concatenate([
        [0.0, -0.0, 1e-200, -1e-200j, 0.3 - 0.4j, 1 - 2.0**-52],
        rng.uniform(0, 0.999, 100) * np.exp(2j * np.pi * rng.uniform(size=100)),
    ])
    for N in ([space.n] if space.kind == "model" else [1, 2, 300]):
        got = kernels.normalized_kernel_matrix(space, ws, N)
        before = kernel_matrix_per_space(space, ws, N)
        if space.kind == "model":
            np.testing.assert_allclose(got, before, rtol=1e-15, atol=0)
        else:
            assert got.tobytes() == before.tobytes()


@pytest.mark.parametrize("space", [kernels.HARDY, kernels.model_space(1),
                                   kernels.model_space(6)], ids=lambda s: s.label)
def test_unit_weights_leave_the_kernel_columns_byte_for_byte(space):
    # Hardy's and model(n)'s weights are ones; x * 1.0 is x bit for bit, so
    # normalized_kernel_matrix's columns equal those with the weight product
    # left out, signed zeros included
    rng = np.random.default_rng(9)
    ws = np.concatenate([
        [0.0, -0.0, 1e-200, -1e-200j, 0.3 - 0.4j, 1 - 2.0**-52],
        rng.uniform(0, 0.999, 100) * np.exp(2j * np.pi * rng.uniform(size=100)),
    ])
    for N in ([space.n] if space.kind == "model" else [1, 2, 300]):
        wt, c2 = kernels.kernel_scales(space, np.abs(ws) ** 2, N)
        assert np.all(wt == 1.0)
        powers = np.empty((N, ws.size), dtype=complex)
        powers[0] = 1.0
        powers[1:] = np.conj(ws)
        np.cumprod(powers, axis=0, out=powers)
        powers *= np.sqrt(c2)
        got = kernels.normalized_kernel_matrix(space, ws, N)
        assert got.tobytes() == powers.tobytes()
