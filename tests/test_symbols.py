import numpy as np
import pytest

from berezin import kernels, symbols
from berezin.matrix_oracle import composition_matrix


def _power_coeffs(symb, power, truncation):
    """Taylor coefficients of phi^power: column ``power`` of the Hardy
    composition matrix."""
    return composition_matrix(kernels.HARDY, symb, truncation).entries[:, power]


def _reference_phi(symb, z):
    """phi(z) by each family's own formula, independent of
    ``mobius_coefficients``."""
    if symb.kind == "elliptic":
        return symb.alpha * z
    if symb.kind == "automorphism":
        a, b = symb.a, symb.b
        return (a * z + b) / (np.conj(b) * z + np.conj(a))
    al = symb.alpha
    return (z - al) / (1 - np.conj(al) * z)


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
    coeffs = _power_coeffs(symbols.blaschke(0.5), 1, 3)
    np.testing.assert_allclose(coeffs, [-0.5, 0.75, 0.375], atol=1e-15)


def test_square_of_identity_symbol():
    # phi(z) = z composed with itself: coefficients (0, 0, 1)
    symb = symbols.blaschke(0.0)
    coeffs = _power_coeffs(symb, 2, 3)
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
        np.testing.assert_allclose(series_val, _reference_phi(symb, z), atol=1e-12)


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
    symbols.automorphism(1.25, 0.75j),
    symbols.automorphism(2.6j, -2.4),
], ids=lambda s: s.label)
def test_mobius_coefficients_evaluate_to_symbol(symb):
    # A complex b or alpha catches a missing conjugate on c or d.
    rng = np.random.default_rng(41)
    z = np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    np.testing.assert_allclose(symbols.apply(symb, z), _reference_phi(symb, z),
                               rtol=1e-15, atol=0)


def test_power_series_evaluates_to_power():
    rng = np.random.default_rng(29)
    symb = symbols.blaschke(0.4j)
    z = rng.uniform(0, 0.4, 30) * np.exp(2j * np.pi * rng.uniform(size=30))
    for power in (2, 3, 5):
        coeffs = _power_coeffs(symb, power, 160)
        series_val = np.polyval(coeffs[::-1], z)
        np.testing.assert_allclose(
            series_val, _reference_phi(symb, z) ** power, atol=1e-12
        )


def test_taylor_power_zero_is_constant_one():
    coeffs = _power_coeffs(symbols.blaschke(0.5), 0, 4)
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_elliptic_taylor_single_term():
    coeffs = _power_coeffs(symbols.elliptic(0.25 + 0.25j), 2, 5)
    expected = np.zeros(5, dtype=complex)
    expected[2] = (0.25 + 0.25j) ** 2
    np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_labels_mention_parameters():
    assert "0.5" in symbols.blaschke(0.5).label
    assert symbols.elliptic(0.5).kind == "elliptic"


def test_series_sizes_must_be_integers():
    phi = symbols.blaschke(0.5)
    with pytest.raises(ValueError, match="^truncation must be an integer, got 2.5$"):
        symbols.symbol_series(phi, 2.5)
    np.testing.assert_array_equal(symbols.symbol_series(phi, np.int64(3)),
                                  symbols.symbol_series(phi, 3))

