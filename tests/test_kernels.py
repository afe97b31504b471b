import numpy as np
import pytest

from berezin import kernels


def test_hardy_kernel_worked_example():
    # k_w(z) = 1 / (1 - conj(w) z) at w = 0.5, z = 0.25
    val = kernels.kernel_eval(kernels.HARDY, 0.5, 0.25)
    np.testing.assert_allclose(val, 1.0 / (1.0 - 0.5 * 0.25))


def test_bergman_kernel_is_square_of_hardy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        h = kernels.kernel_eval(kernels.HARDY, w, z)
        b = kernels.kernel_eval(kernels.BERGMAN, w, z)
        np.testing.assert_allclose(b, h * h, rtol=1e-13)


def test_bergman_norm_worked_example():
    # ||k_w||^2 = 1 / (1 - |w|^2)^2 at |w|^2 = 0.5
    w = np.sqrt(0.5)
    np.testing.assert_allclose(kernels.kernel_norm_sq(kernels.BERGMAN, w), 4.0)


def test_reproducing_property():
    """The kernel evaluated at its own base point equals its squared norm."""
    rng = np.random.default_rng(23)
    spaces = [kernels.HARDY, kernels.BERGMAN, kernels.model_space(3)]
    for space in spaces:
        for _ in range(25):
            w = rng.uniform(0, 0.97) * np.exp(2j * np.pi * rng.uniform())
            np.testing.assert_allclose(
                kernels.kernel_eval(space, w, w),
                kernels.kernel_norm_sq(space, w),
                rtol=1e-12,
            )


def test_model_kernel_truncated_geometric():
    # (1 - conj(w)^n z^n) / (1 - conj(w) z) is the degree-(n-1) partial sum
    w, z, n = 0.4 + 0.1j, 0.3 - 0.2j, 5
    direct = sum((np.conj(w) * z) ** k for k in range(n))
    np.testing.assert_allclose(
        kernels.kernel_eval(kernels.model_space(n), w, z), direct, rtol=1e-13
    )


def test_l2_kernel_has_no_pointwise_evaluation():
    with pytest.raises(ValueError, match="basis index"):
        kernels.kernel_eval(kernels.L2, 0.5, 0.5)


def test_normalized_coeffs_unit_norm():
    rng = np.random.default_rng(5)
    for space in (kernels.HARDY, kernels.BERGMAN):
        for _ in range(20):
            w = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            coeffs = kernels.normalized_kernel_coeffs(space, w, 400)
            np.testing.assert_allclose(np.linalg.norm(coeffs), 1.0, atol=1e-10)


def test_normalized_coeffs_hardy_formula():
    w = 0.6
    coeffs = kernels.normalized_kernel_coeffs(kernels.HARDY, w, 8)
    expected = np.sqrt(1 - w**2) * w ** np.arange(8)
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_normalized_coeffs_bergman_formula():
    w = 0.5j
    k = np.arange(10)
    coeffs = kernels.normalized_kernel_coeffs(kernels.BERGMAN, w, 10)
    expected = (1 - abs(w) ** 2) * np.sqrt(k + 1) * np.conj(w) ** k
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_model_coeffs_need_matching_truncation():
    space = kernels.model_space(4)
    coeffs = kernels.normalized_kernel_coeffs(space, 0.3, 4)
    np.testing.assert_allclose(np.linalg.norm(coeffs), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        kernels.normalized_kernel_coeffs(space, 0.3, 8)


def test_kernel_matrix_columns_match_single_points():
    ws = np.array([0.1, 0.3 + 0.2j, -0.5j])
    mat = kernels.normalized_kernel_matrix(kernels.BERGMAN, ws, 64)
    assert mat.shape == (64, 3)
    for j, w in enumerate(ws):
        np.testing.assert_allclose(
            mat[:, j], kernels.normalized_kernel_coeffs(kernels.BERGMAN, w, 64)
        )


def test_model_space_validation():
    with pytest.raises(ValueError):
        kernels.model_space(0)
    assert kernels.model_space(3).n == 3
    assert "model" in kernels.model_space(3).label


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
        kernels.normalized_kernel_coeffs(space, bad, N)
