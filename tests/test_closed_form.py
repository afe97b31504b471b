import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin import closed_form as cf
from berezin import kernels, symbols


def test_disk_point_validation_and_normalization():
    p = cf.DiskPoint(0.5, 2 * np.pi + 1.0)
    np.testing.assert_allclose(p.theta, 1.0)
    with pytest.raises(ValueError):
        cf.DiskPoint(1.0, 0.0)
    q = cf.DiskPoint(0.3, np.pi / 2)
    np.testing.assert_allclose(q.z, 0.3j, atol=1e-17)


def test_polar_grid_regular_properties():
    grid = cf.PolarGrid.regular(100, 64, 0.9)
    assert grid.r_values[0] == 0.0
    np.testing.assert_allclose(grid.r_values[-1], 0.9)
    # uniform in r^2
    np.testing.assert_allclose(np.diff(grid.r_values**2), 0.81 / 99, atol=1e-15)
    assert grid.theta_values[0] == 0.0
    assert grid.theta_values[-1] < 2 * np.pi
    mesh = grid.mesh()
    assert mesh.shape == (100, 64)


def test_polar_grid_validation():
    with pytest.raises(ValueError):
        cf.PolarGrid(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        cf.PolarGrid(np.array([0.5, 0.4]), np.array([0.0]))
    with pytest.raises(ValueError):
        cf.PolarGrid.regular(r_max=1.0)


def test_hardy_transform_worked_example():
    # elliptic alpha = 0.5 at z = 0.8: (1 - 0.64) / (1 - 0.32) = 9/17... and
    # the blaschke value below is the hand-checked pair from the module docs
    val = cf.hardy_transform(symbols.elliptic(0.5), 0.8)
    np.testing.assert_allclose(val, 0.36 / 0.68)


def test_hardy_elliptic_theta_independent_formula():
    grid = cf.PolarGrid.regular(40, 16, 0.95)
    mesh = grid.mesh()
    r2 = grid.r_values[:, None] ** 2
    for alpha in (0.5, -0.8, 0.3 + 0.4j, 0.9j):
        vals = cf.hardy_transform(symbols.elliptic(alpha), mesh)
        formula = np.broadcast_to((1 - r2) / (1 - alpha * r2), vals.shape)
        np.testing.assert_allclose(vals, formula, atol=1e-13)


def test_bergman_is_square_of_hardy():
    rng = np.random.default_rng(13)
    z = rng.uniform(0, 0.98, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    for symb in (symbols.blaschke(0.6), symbols.automorphism(1.25, 0.75)):
        h = cf.hardy_transform(symb, z)
        np.testing.assert_allclose(cf.bergman_transform(symb, z), h * h, rtol=1e-12)


_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_angles = st.floats(0.0, 2 * np.pi, exclude_max=True)


def _polar(r, theta):
    return r * np.exp(1j * theta)


@_settings
@given(rho=st.floats(0.05, 0.95), psi=_angles, r=st.floats(0.0, 0.98), theta=_angles)
def test_blaschke_real_imag_matches_direct_bergman(rho, psi, r, theta):
    """The explicit real/imaginary split must agree with direct evaluation."""
    alpha, z = _polar(rho, psi), _polar(r, theta)
    re, im = cf.blaschke_real_imag(alpha, z)
    direct = cf.bergman_transform(symbols.blaschke(alpha), z)
    np.testing.assert_allclose(re + 1j * im, direct, atol=1e-12)


def test_real_axis_value_worked_example():
    # alpha = 0.75, r = 0.5: the squared factor is (1 - 0.5 * 0.5625)^2
    val = cf.bergman_transform(symbols.blaschke(0.75), 0.5 * 0.75)
    np.testing.assert_allclose(val, 0.71875**2, atol=1e-13)


def test_conjugation_partner_reflects_angle():
    alpha = 0.5j  # arg = pi/2, so theta maps to pi - theta
    p = cf.DiskPoint(0.7, 0.3)
    q = cf.conjugation_partner(alpha, p)
    np.testing.assert_allclose([q.r, q.theta], [0.7, np.pi - 0.3])


def test_conjugation_partner_zero_alpha_is_identity():
    p = cf.DiskPoint(0.4, 1.1)
    assert cf.conjugation_partner(0.0, p) is p


@_settings
@given(rho=st.floats(0.1, 0.9), psi=_angles, r=st.floats(0.0, 0.95), theta=_angles)
def test_conjugation_partner_value_symmetry(rho, psi, r, theta):
    alpha = _polar(rho, psi)
    p = cf.DiskPoint(r, theta)
    q = cf.conjugation_partner(alpha, p)
    symb = symbols.blaschke(alpha)
    np.testing.assert_allclose(
        cf.bergman_transform(symb, q.z),
        np.conj(cf.bergman_transform(symb, p.z)),
        atol=1e-12,
    )


def test_conjugation_partner_requires_blaschke():
    with pytest.raises(ValueError):
        cf.conjugation_partner(symbols.elliptic(0.5), cf.DiskPoint(0.5, 0.0))


def test_boundary_limit_zero_off_axis_one_at_zero():
    lim = cf.boundary_limit(kernels.BERGMAN, symbols.blaschke(0.5), theta=1.0)
    assert lim.converged
    assert abs(lim.value) <= 1e-3

    lim0 = cf.boundary_limit(kernels.BERGMAN, symbols.blaschke(0.0), theta=1.0)
    np.testing.assert_allclose(lim0.value, 1.0, atol=1e-3)


def test_boundary_limit_on_axis_sees_the_exceptional_ray():
    # Along theta = arg(alpha) the radial limit is (1 - |alpha|)^2, not 0:
    # the transform is not continuous up to that boundary point.
    alpha = 0.5
    lim = cf.boundary_limit(kernels.BERGMAN, symbols.blaschke(alpha), theta=0.0)
    np.testing.assert_allclose(lim.value, (1 - alpha) ** 2, atol=1e-3)


def test_boundary_limit_samples_recorded():
    lim = cf.boundary_limit(kernels.HARDY, symbols.elliptic(0.5), theta=0.2)
    assert len(lim.samples) == 5
    np.testing.assert_allclose(lim.value, 0.0, atol=1e-3)


def test_sample_range_layout_and_berezin_number():
    grid = cf.PolarGrid.regular(10, 8, 0.9)
    sample = cf.sample_range(kernels.HARDY, symbols.elliptic(0.5), grid)
    assert sample.values.shape == (10, 8)
    pts = sample.points()
    assert pts.shape == (80, 2)
    # r-major: the first theta_steps rows share the first radius
    np.testing.assert_allclose(pts[:8, 0], sample.values[0].real)
    assert 0 < sample.berezin_number() <= 1 + 1e-12


def test_sample_range_rejects_model_space():
    grid = cf.PolarGrid.regular(5, 4, 0.9)
    space, symbol = kernels.model_space(3), symbols.elliptic(0.5)
    for reject in (lambda: cf.sample_range(space, symbol, grid),
                   lambda: cf.boundary_limit(space, symbol, 0.0),
                   lambda: cf.transform(space, symbol, 0.5j)):
        with pytest.raises(ValueError, match=r"hardy/bergman spaces, got model\(3\)"):
            reject()


def test_model_transform_worked_values():
    # n = 2 at z = 0.6: 0.6 * (1 - 0.36) / (1 - 0.36^2)... reduces to
    # 0.6 / (1 + 0.36)
    np.testing.assert_allclose(
        cf.model_transform(2, 0.6), 0.6 / 1.36, atol=1e-15
    )
    np.testing.assert_allclose(cf.model_transform(1, 0.7j), 0.0, atol=1e-15)


def test_model_transform_matches_quotient_form():
    rng = np.random.default_rng(19)
    z = rng.uniform(0, 0.97, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
    for n in (2, 3, 6):
        s = np.abs(z) ** 2
        expected = z * (1 - s ** (n - 1)) / (1 - s**n)
        np.testing.assert_allclose(cf.model_transform(n, z), expected, rtol=1e-12)


@pytest.mark.parametrize("r_steps, theta_steps", [(1, 8), (2, 0)])
def test_regular_grid_needs_two_radii_and_one_angle(r_steps, theta_steps):
    with pytest.raises(ValueError, match="at least 2 radii and 1 angle"):
        cf.PolarGrid.regular(r_steps, theta_steps, 0.9)


@pytest.mark.parametrize("r_max, r_steps", [(1e-170, 200), (1e-200, 2), (1e-160, 10**4)])
def test_regular_grid_names_an_r_max_too_small_for_distinct_radii(r_max, r_steps):
    # r_max^2 underflows to 0, or to too few subnormals for r_steps radii
    with pytest.raises(ValueError, match=f"^r_max = {r_max!r} is too small for "
                                         f"r_steps = {r_steps} distinct radii$"):
        cf.PolarGrid.regular(r_steps, 4, r_max)
    assert cf.PolarGrid.regular(2, 4, 1e-150).r_values[1] == 1e-150


def test_regular_grid_too_large_is_refused_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="a 100000000 x 100000000 grid needs 142 PiB"):
            cf.PolarGrid.regular(10**8, 10**8, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_regular_grid_sizes_must_be_integers():
    for bad, name in ((2.5, "r_steps"), (3.9, "theta_steps")):
        sizes = {"r_steps": 4, "theta_steps": 3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            cf.PolarGrid.regular(sizes["r_steps"], sizes["theta_steps"], 0.9)
    grid = cf.PolarGrid.regular(np.int64(4), np.int32(3), 0.9)
    assert (grid.r_values.size, grid.theta_values.size) == (4, 3)


def test_model_transform_dimension_must_be_an_integer():
    with pytest.raises(ValueError, match="^model dimension n must be an integer, got 2.5$"):
        cf.model_transform(2.5, [0.5])
    for n in (np.int64(2), np.int32(2)):
        assert cf.model_transform(n, 0.6) == cf.model_transform(2, 0.6)


# One symbol of each family the benchmark's range and sweep ops draw.
_CATALOGUE_SYMBOLS = [symbols.elliptic(0.5j), symbols.elliptic(-0.8), symbols.elliptic(1),
                      symbols.blaschke(0.5), symbols.blaschke(0.2 + 0.2j),
                      symbols.automorphism(1.025, 0.225), symbols.automorphism(1j, 0)]


@pytest.mark.parametrize("grid", [
    cf.PolarGrid.regular(200, 256, 0.998),
    cf.PolarGrid.regular(201, 256, 0.998),  # 8-row blocks: the leftover row joins the last
    cf.PolarGrid.regular(2000, 8, 0.998),  # 256-row blocks, a partial last one
    cf.PolarGrid.regular(37, 13, 0.998),
    cf.PolarGrid(np.array([0.5]), np.linspace(0.0, 6.0, 5)),  # a single radius
], ids=["200x256", "201x256", "2000x8", "37x13", "1x5"])
@pytest.mark.parametrize("block_bytes", [None, 16 * 13 * 5], ids=["default", "small"])
def test_sample_range_equals_the_whole_mesh_formula(monkeypatch, grid, block_bytes):
    # The small blocks hold 5 rows of 13 angles: 37 = 7 * 5 + 2 rows.
    if block_bytes is not None:
        monkeypatch.setattr(cf, "_SAMPLE_BLOCK_BYTES", block_bytes)
    for space in (kernels.HARDY, kernels.BERGMAN):
        for symbol in _CATALOGUE_SYMBOLS:
            values = cf.sample_range(space, symbol, grid).values
            assert values.tobytes() == cf.transform(space, symbol, grid.mesh()).tobytes()


@pytest.mark.parametrize("r_steps, theta_steps", [(200, 256), (800, 1024)])
def test_sample_range_memory_is_the_values_and_one_block(r_steps, theta_steps):
    import tracemalloc

    grid = cf.PolarGrid.regular(r_steps, theta_steps, 0.998)
    tracemalloc.start()
    try:
        cf.sample_range(kernels.BERGMAN, symbols.automorphism(1.025, 0.225), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 bytes a point are the values themselves; measured: 19.9 and 16.3.
    assert peak <= 24 * r_steps * theta_steps
