"""Exact algebra of the Dirac matrices and light-cone operators."""

import numpy as np
import pytest

from volkovfp.clifford import (
    MINKOWSKI_ETA,
    dirac_gamma,
    kernel_basis,
    lightcone_operators,
    spin_adjoint,
    spin_inner,
    transverse_slash,
)

ID4 = np.eye(4)


def test_anticommutation_relations_exact():
    for i in range(4):
        for j in range(4):
            gi, gj = dirac_gamma(i), dirac_gamma(j)
            anti = gi @ gj + gj @ gi
            assert np.array_equal(anti, 2.0 * MINKOWSKI_ETA[i, j] * ID4)


def test_gamma_index_out_of_range():
    with pytest.raises(IndexError):
        dirac_gamma(4)
    with pytest.raises(IndexError):
        dirac_gamma(-1)


def test_gamma_squares():
    assert np.array_equal(dirac_gamma(0) @ dirac_gamma(0), ID4)
    assert np.array_equal(dirac_gamma(1) @ dirac_gamma(1), -ID4)
    g1, g2 = dirac_gamma(1), dirac_gamma(2)
    assert np.max(np.abs(g1 @ g2 + g2 @ g1)) == 0.0


def test_lightcone_identities_exact():
    n_plus, n_minus, pi_plus, pi_minus = lightcone_operators()
    assert np.max(np.abs(n_plus @ n_plus)) == 0.0
    assert np.max(np.abs(n_minus @ n_minus)) == 0.0
    assert np.array_equal(n_plus @ n_minus + n_minus @ n_plus, ID4)
    assert np.array_equal(pi_minus + pi_plus, ID4)
    assert np.array_equal(pi_minus @ pi_minus, pi_minus)
    assert np.array_equal(pi_plus @ pi_plus, pi_plus)
    assert np.max(np.abs(pi_minus @ pi_plus)) == 0.0
    # gamma0 Pi- = N+ Pi-
    assert np.array_equal(dirac_gamma(0) @ pi_minus, n_plus @ pi_minus)


def test_pi_minus_rank_two():
    pi_minus = lightcone_operators()[3]
    eigvals = np.linalg.eigvals(pi_minus)
    assert np.sum(np.abs(eigvals - 1.0) < 1e-12) == 2
    assert np.sum(np.abs(eigvals) < 1e-12) == 2


def test_spin_inner_signature_and_symmetry(rng):
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    assert spin_inner(e1, e1) == pytest.approx(1.0)
    eigvals = np.linalg.eigvalsh(dirac_gamma(0))
    assert sorted(eigvals) == [-1.0, -1.0, 1.0, 1.0]

    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert spin_inner(psi, phi) == pytest.approx(np.conj(spin_inner(phi, psi)))
    for j in range(4):
        g = dirac_gamma(j)
        assert spin_inner(g @ psi, phi) == pytest.approx(spin_inner(psi, g @ phi))


def test_spin_adjoint_of_gammas():
    for j in range(4):
        g = dirac_gamma(j)
        assert np.allclose(spin_adjoint(g), g, atol=1e-15)


def test_transverse_slash_properties(rng):
    assert np.max(np.abs(transverse_slash(0.0, 0.0))) == 0.0
    a = transverse_slash(1.0, 0.0)
    assert np.array_equal(a @ a, -ID4)

    k2, k3, a2, a3 = rng.normal(size=4)
    slash = transverse_slash(k2 + a2, k3 + a3)
    expected = -((k2 + a2) ** 2 + (k3 + a3) ** 2) * ID4
    assert np.allclose(slash @ slash, expected, atol=1e-14)
    for j in (0, 1):
        g = dirac_gamma(j)
        assert np.max(np.abs(slash @ g + g @ slash)) < 1e-15


def test_slash_difference_product():
    # (A - m)(A + m) = (A^2 - m^2) = -2 at k2=1, k3=0, a=0, m=1
    a = transverse_slash(1.0, 0.0)
    product = (a - ID4) @ (a + ID4)
    assert np.allclose(product, -2.0 * ID4, atol=1e-15)


def _wide_complex(rng, shape):
    """Random complex entries over 200 decades, some of them exactly zero."""
    values = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * 10.0 ** rng.uniform(-100.0, 100.0, shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


def test_spin_adjoint_is_the_gamma0_product_bit_for_bit(rng):
    """The sign mask gives gamma0 M^dag gamma0 exactly, so every artifact
    built on the adjoint keeps its bytes."""
    g0 = dirac_gamma(0)
    mats = _wide_complex(rng, (200, 4, 4))
    assert np.array_equal(spin_adjoint(mats), g0 @ np.conj(np.swapaxes(mats, -1, -2)) @ g0)
    assert np.array_equal(spin_adjoint(mats[0]), g0 @ np.conj(mats[0].T) @ g0)


def test_spin_inner_is_the_gamma0_product_bit_for_bit(rng):
    g0 = dirac_gamma(0)
    psi, phi = _wide_complex(rng, (2, 200, 4))
    assert np.array_equal(spin_inner(psi, phi), np.sum(np.conj(psi) * (phi @ g0.T), axis=-1))
    assert spin_inner(psi[0], phi[0]) == complex(np.sum(np.conj(psi[0]) * (g0 @ phi[0])))


def test_kernel_basis_layout():
    """B[a, b] as kernel_basis documents it."""
    n_plus, n_minus, pi_plus, pi_minus = lightcone_operators()
    g = (dirac_gamma(2), dirac_gamma(3), ID4)
    basis = kernel_basis()
    assert basis.shape == (4, 4, 4, 4) and not basis.flags.writeable
    assert np.array_equal(basis[0, 0], n_minus)
    for j in range(3):
        assert np.array_equal(basis[0, j + 1], pi_minus @ g[j])
        assert np.array_equal(basis[j + 1, 0], g[j] @ pi_plus)
        for i in range(3):
            assert np.array_equal(basis[i + 1, j + 1], g[i] @ n_plus @ g[j])
