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

Matrices returned by the module are read-only; copy before mutating.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpinMatrix",
    "Spinor",
    "dirac_gamma",
    "lightcone_operators",
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


def spin_inner(psi: Spinor, phi: Spinor):
    """Indefinite spin inner product psi^dag gamma0 phi (signature (2, 2)).

    Conjugate linear in the first argument, conjugate symmetric; the
    gamma matrices are symmetric with respect to this product.  Leading
    axes broadcast (one product per row); two spinors give a complex.
    """
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    value = np.sum(np.conj(psi) * (phi @ _GAMMA[0].T), axis=-1)
    return complex(value) if value.ndim == 0 else value


def spin_adjoint(mat: SpinMatrix) -> SpinMatrix:
    """Adjoint gamma0 M^dag gamma0 with respect to the spin inner product.

    A (..., 4, 4) stack gives the adjoint of each matrix.
    """
    return _GAMMA[0] @ np.conj(np.swapaxes(np.asarray(mat), -1, -2)) @ _GAMMA[0]


def transverse_slash(k2, k3, a2=0.0, a3=0.0) -> SpinMatrix:
    """Transverse slash gamma2 (k2 + a2) + gamma3 (k3 + a3).

    Squares to -((k2+a2)^2 + (k3+a3)^2) times the identity and
    anticommutes with gamma0, gamma1 (hence with N_pm, commutes with Pi_pm).
    Array arguments broadcast and give a (..., 4, 4) stack of matrices.
    """
    t2 = np.asarray(k2 + a2)[..., None, None]
    t3 = np.asarray(k3 + a3)[..., None, None]
    return t2 * _GAMMA[2] + t3 * _GAMMA[3]
