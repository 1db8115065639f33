"""Dirac matrices, light-cone operators and the indefinite spin inner product.

Everything in this module is a plain 4x4 complex ``numpy`` array in the
standard Dirac representation,

    gamma0 = diag(1, 1, -1, -1),       gammak = [[0, sigma_k], [-sigma_k, 0]],

so that {gamma_i, gamma_j} = 2 eta_ij with eta = diag(1, -1, -1, -1).
Spinor components are representation dependent; every scalar produced by
the rest of the library (inner products, kernel invariants) is not.

The spin inner product ``spin_inner(psi, phi) = psi^dag gamma0 phi`` has
signature (2, 2); the Dirac matrices are symmetric with respect to it.

The light-cone combinations

    N_plus  = (gamma0 + gamma1) / 2,     N_minus = (gamma0 - gamma1) / 2,
    Pi_minus = N_minus N_plus,           Pi_plus  = N_plus N_minus,

are nilpotent (N_pm^2 = 0) resp. idempotent rank-2 projectors with
Pi_minus + Pi_plus = 1.  The range of Pi_minus carries the dynamical
degrees of freedom of a mode propagating along constant-s null surfaces,
and gamma0 Pi_minus = N_plus Pi_minus.

Spin matrices of the form N_minus, Pi_minus G_j, G_i N_plus G_j and
G_i Pi_plus, with G = (gamma2, gamma3, 1), span every projector kernel
(``kernel_basis``): a kernel is a table of scalar coefficients on them.
Because gamma0 is diagonal, the spin adjoint and the spin inner product
are sign masks, not matrix products.

Matrices returned by the module are read-only; copy before mutating.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpinMatrix",
    "Spinor",
    "dirac_gamma",
    "lightcone_operators",
    "kernel_basis",
    "spin_inner",
    "spin_adjoint",
    "transverse_slash",
    "MINKOWSKI_ETA",
]

# Type aliases; spin matrices are (4, 4) complex arrays, spinors (4,) complex.
SpinMatrix = np.ndarray
Spinor = np.ndarray

MINKOWSKI_ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _build_gammas() -> tuple[np.ndarray, ...]:
    g0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    gs = [g0]
    for sigma in _SIGMA:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, 2:] = sigma
        g[2:, :2] = -sigma
        gs.append(g)
    for g in gs:
        g.setflags(write=False)
    return tuple(gs)


_GAMMA = _build_gammas()


def dirac_gamma(j: int) -> SpinMatrix:
    """Return gamma^j (j = 0..3) in the Dirac representation."""
    if j not in (0, 1, 2, 3):
        raise IndexError(f"gamma index must be 0..3, got {j!r}")
    return _GAMMA[j]


def _build_lightcone() -> tuple[np.ndarray, ...]:
    n_plus = 0.5 * (_GAMMA[0] + _GAMMA[1])
    n_minus = 0.5 * (_GAMMA[0] - _GAMMA[1])
    pi_minus = n_minus @ n_plus
    pi_plus = n_plus @ n_minus
    ops = (n_plus, n_minus, pi_plus, pi_minus)
    for op in ops:
        op.setflags(write=False)
    return ops


_N_PLUS, _N_MINUS, _PI_PLUS, _PI_MINUS = _build_lightcone()


def lightcone_operators() -> tuple[SpinMatrix, SpinMatrix, SpinMatrix, SpinMatrix]:
    """Return (N_plus, N_minus, Pi_plus, Pi_minus)."""
    return _N_PLUS, _N_MINUS, _PI_PLUS, _PI_MINUS


def _build_kernel_basis() -> np.ndarray:
    g = (_GAMMA[2], _GAMMA[3], np.eye(4, dtype=complex))
    basis = np.empty((4, 4, 4, 4), dtype=complex)
    basis[0, 0] = _N_MINUS
    for j, g_j in enumerate(g, 1):
        basis[0, j] = _PI_MINUS @ g_j
        basis[j, 0] = g_j @ _PI_PLUS
        for i, g_i in enumerate(g, 1):
            basis[i, j] = g_i @ _N_PLUS @ g_j
    basis.setflags(write=False)
    return basis


_KERNEL_BASIS = _build_kernel_basis()


def kernel_basis() -> np.ndarray:
    """The (4, 4, 4, 4) table B[a, b] of kernel basis matrices.

    With G = (gamma2, gamma3, 1) and index 0 standing for no factor,
    B[0, 0] = N_minus, B[0, j] = Pi_minus G_j, B[i, j] = G_i N_plus G_j
    and B[i, 0] = G_i Pi_plus (i, j = 1..3).  For S = sum_i g_i G_i and
    S~ = sum_j g~_j G_j,

        alpha N_minus + beta Pi_minus S~ + (S/2u) (beta N_plus S~ + alpha Pi_plus)

    is sum_ab p_a q_b B[a, b] with p = (1, g / 2u) and q = (alpha, beta g~).
    """
    return _KERNEL_BASIS


_GAMMA0_SIGNS = _GAMMA[0].diagonal().real.copy()
_ADJOINT_SIGNS = np.outer(_GAMMA0_SIGNS, _GAMMA0_SIGNS)


def spin_inner(psi: Spinor, phi: Spinor):
    """Indefinite spin inner product psi^dag gamma0 phi (signature (2, 2)).

    Conjugate linear in the first argument, conjugate symmetric; the
    gamma matrices are symmetric with respect to this product.  Leading
    axes broadcast (one product per row); two spinors give a complex.
    """
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    value = np.sum(np.conj(psi) * (phi * _GAMMA0_SIGNS), axis=-1)
    return complex(value) if value.ndim == 0 else value


def spin_adjoint(mat: SpinMatrix) -> SpinMatrix:
    """Adjoint gamma0 M^dag gamma0 with respect to the spin inner product.

    A (..., 4, 4) stack gives the adjoint of each matrix.  gamma0 is
    diagonal, so the product is a sign mask on the conjugate transpose.
    """
    return np.conj(np.swapaxes(np.asarray(mat), -1, -2)) * _ADJOINT_SIGNS


def transverse_slash(t2, t3) -> SpinMatrix:
    """Transverse slash gamma2 t2 + gamma3 t3 of a transverse momentum t = k + a(s).

    Squares to -(t2^2 + t3^2) times the identity and anticommutes with
    gamma0, gamma1 (hence with N_pm, commutes with Pi_pm).  Array arguments
    broadcast and give a (..., 4, 4) stack of matrices.
    """
    return np.asarray(t2)[..., None, None] * _GAMMA[2] + np.asarray(t3)[..., None, None] * _GAMMA[3]
