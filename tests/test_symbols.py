import numpy as np
import pytest

from berezin import symbols


def test_elliptic_apply():
    symb = symbols.elliptic(0.5j)
    np.testing.assert_allclose(symbols.apply(symb, 0.4), 0.2j)


def test_elliptic_rejects_large_alpha():
    with pytest.raises(symbols.SymbolError):
        symbols.elliptic(1.0 + 1e-6)


def test_automorphism_constraint():
    # |a|^2 - |b|^2 must equal 1
    symbols.automorphism(1.25, 0.75)
    with pytest.raises(symbols.SymbolError):
        symbols.automorphism(1.0, 0.5)


def test_automorphism_maps_disk_to_disk():
    rng = np.random.default_rng(3)
    symb = symbols.automorphism(1.25, 0.75)
    z = rng.uniform(0, 0.99, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
    assert np.all(np.abs(symbols.apply(symb, z)) < 1.0)


def test_blaschke_apply_and_fixed_zero():
    symb = symbols.blaschke(0.5)
    np.testing.assert_allclose(symbols.apply(symb, 0.5), 0.0, atol=1e-15)
    with pytest.raises(symbols.SymbolError):
        symbols.blaschke(1.0)


def test_blaschke_taylor_worked_example():
    coeffs = symbols.taylor_coeffs(symbols.blaschke(0.5), 1, 3)
    np.testing.assert_allclose(coeffs, [-0.5, 0.75, 0.375], atol=1e-15)


def test_square_of_identity_symbol():
    # phi(z) = z composed with itself: coefficients (0, 0, 1)
    symb = symbols.blaschke(0.0)
    coeffs = symbols.taylor_coeffs(symb, 2, 3)
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 1.0], atol=1e-15)


def test_series_evaluates_to_symbol():
    """Truncated Taylor series reproduces phi pointwise well inside the disk."""
    rng = np.random.default_rng(17)
    cases = [
        symbols.blaschke(0.5),
        symbols.blaschke(0.3 - 0.4j),
        symbols.automorphism(1.25, 0.75),
    ]
    z = rng.uniform(0, 0.5, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
    for symb in cases:
        coeffs = symbols.symbol_series(symb, 128)
        series_val = np.polyval(coeffs[::-1], z)
        np.testing.assert_allclose(series_val, symbols.apply(symb, z), atol=1e-12)


@pytest.mark.parametrize("symb", [
    symbols.elliptic(0.0),
    symbols.elliptic(1.0),
    symbols.elliptic(np.exp(2j)),
    symbols.elliptic(0.25 + 0.25j),
    symbols.blaschke(0.0),
    symbols.blaschke(0.3 - 0.4j),
    symbols.blaschke(0.99j),
    symbols.automorphism(1.0, 0.0),
    symbols.automorphism(1j, 0.0),
    symbols.automorphism(1.25, 0.75),
    symbols.automorphism(2.6j, -2.4),
], ids=lambda s: s.label)
def test_mobius_coefficients_evaluate_to_symbol(symb):
    rng = np.random.default_rng(41)
    z = np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    a, b, c, d = symbols.mobius_coefficients(symb)
    np.testing.assert_allclose((a * z + b) / (c * z + d), symbols.apply(symb, z),
                               rtol=1e-15, atol=0)


def test_power_series_evaluates_to_power():
    rng = np.random.default_rng(29)
    symb = symbols.blaschke(0.4j)
    z = rng.uniform(0, 0.4, 30) * np.exp(2j * np.pi * rng.uniform(size=30))
    for power in (2, 3, 5):
        coeffs = symbols.taylor_coeffs(symb, power, 160)
        series_val = np.polyval(coeffs[::-1], z)
        np.testing.assert_allclose(
            series_val, symbols.apply(symb, z) ** power, atol=1e-12
        )


def test_taylor_power_zero_is_constant_one():
    coeffs = symbols.taylor_coeffs(symbols.blaschke(0.5), 0, 4)
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_elliptic_taylor_single_term():
    coeffs = symbols.taylor_coeffs(symbols.elliptic(0.25 + 0.25j), 2, 5)
    expected = np.zeros(5, dtype=complex)
    expected[2] = (0.25 + 0.25j) ** 2
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_apply_accepts_disk_points():
    from berezin.closed_form import DiskPoint

    p = DiskPoint(0.5, 0.0)
    np.testing.assert_allclose(symbols.apply(symbols.elliptic(0.5), p), 0.25)


def test_labels_mention_parameters():
    assert "0.5" in symbols.blaschke(0.5).label
    assert symbols.elliptic(0.5).kind == "elliptic"


def test_series_sizes_must_be_integers():
    phi = symbols.blaschke(0.5)
    with pytest.raises(ValueError, match="^truncation must be an integer, got 2.5$"):
        symbols.symbol_series(phi, 2.5)
    with pytest.raises(ValueError, match="^power must be an integer, got 2.5$"):
        symbols.taylor_coeffs(phi, 2.5, 3)
    with pytest.raises(ValueError, match="^truncation must be an integer, got 2.5$"):
        symbols.taylor_coeffs(phi, 2, 2.5)
    np.testing.assert_array_equal(symbols.symbol_series(phi, np.int64(3)),
                                  symbols.symbol_series(phi, 3))
    np.testing.assert_array_equal(symbols.taylor_coeffs(phi, np.int32(2), np.int64(3)),
                                  symbols.taylor_coeffs(phi, 2, 3))


@pytest.mark.parametrize("power, truncation", [(2, 0), (0, 0), (2, -1)])
def test_taylor_coeffs_rejects_truncation_below_one(power, truncation):
    with pytest.raises(ValueError, match="^truncation must be >= 1$"):
        symbols.taylor_coeffs(symbols.blaschke(0.5), power, truncation)
