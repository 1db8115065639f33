"""Momentum-space Green's functions and the fermionic-projector kernel.

For a separated mode (k2, k3, u) of mass m in a plane-wave potential the
retarded/advanced Green's functions reduce to scalar first-order ODEs in
s.  With E(s~,s) = exp(-i Phi(s~,s)/4u) (``modes.phase_factor``) the
retarded pair is

    a(s,s~) = -(i/(2 pi)^3) Theta(s-s~) E,
    b(s,s~) = -(i/4u) (2/(2 pi)^3) Theta(s-s~) (Aslash(s~) + m) E,

the advanced pair carries Theta(s~-s) and the opposite sign; ``green_ab``
returns both.  Away from the diagonal both satisfy
4iu d/ds = ((k2+a2)^2+(k3+a3)^2+m^2) * (.) and the retarded a jumps by
-i/(2 pi)^3 across s = s~.  ``assemble_kernel`` completes (a, b) with
the matrix Aslash(s) + m to the full kernel

    K = N_minus a + Pi_minus b
        + (1/2u) (Aslash(s) + m) (N_plus b + Pi_plus a),

plus, for the single Green's functions only, a symbolic
(1/u) (2 pi)^-3 N_plus delta(s-s~) / 2 term that is never sampled
numerically and cancels in the advanced-minus-retarded difference.

That difference divided by 2 pi i is the causal fundamental kernel; it
is continuous across the diagonal with scalar coefficient E/(2 pi)^4.
The signature operator acts by the sign of u, and the projector kernel
(u < 0) equals minus that sign times the causal kernel:

    a_P(s,s~) = E / (2 pi)^4,
    b_P(s,s~) = (Aslash(s~) + m) E / (2u (2 pi)^4),

assembled with the same completion.  The kernel is symmetric under the
spin adjoint, gamma0 P(s,s~)^dag gamma0 = P(s~,s).  Every kernel needs
only E and Aslash + m at s and s~: one ``moments`` and one ``field`` call.

Prefactor conventions used throughout (powers of 2 pi):

    retarded/advanced a      -+ i / (2 pi)^3
    retarded/advanced b      -+ (i/4u) * 2 / (2 pi)^3
    symbolic delta term      (1/2u) * 2 / (2 pi)^3
    causal difference        divide by 2 pi i  ->  1 / (2 pi)^4
    projector kernel a       1 / (2 pi)^4
    fixed-s scalar product   (2 pi)^4
    spacetime pairing        4 pi^3 (includes the 1/2 null-coordinate Jacobian)

The mass-oscillation check integrates the spacetime pairing of two mass
families with a Gaussian regulator exp(-eps s^2), extrapolates eps -> 0
by Neville/Richardson over the given schedule and compares against the
sign(u)-weighted fixed-s expression; this verifies that the spacetime
pairing of mass-integrated families collapses onto the mass diagonal.
The regulated s integral is a Gaussian in closed form, so the check is
one (m, m') Gram matrix per distinct u contracted with one table of
Gaussian weights e^{-kappa^2/4eps}; the potential drops out.

The kernel values are returned, not written: ``volkovfp.cli`` writes
every artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import dirac_gamma, lightcone_operators, transverse_slash
from .modes import (
    GridMismatchError,
    MassFamily,
    ModeParams,
    _mat,
    _node_grid,
    _same_node_grid,
    _set_fields,
    phase_factor,
)
from .potential import PlaneWavePotential
from .quadrature import checked_panels, phase_rate

__all__ = [
    "GreenAB",
    "green_ab",
    "assemble_kernel",
    "causal_fundamental_momentum",
    "signature_sign",
    "fp_scalar_a",
    "fp_kernel_momentum",
    "MassOscillationResult",
    "mass_oscillation_check",
    "SmearedProfile",
    "fp_pair_smeared",
    "extrapolate_to_zero",
]

_TWO_PI_3 = (2.0 * np.pi) ** 3
_TWO_PI_4 = (2.0 * np.pi) ** 4

_N_PLUS, _N_MINUS, _PI_PLUS, _PI_MINUS = lightcone_operators()
_GAMMA0 = dirac_gamma(0)
_ID4 = np.eye(4, dtype=complex)


class GreenAB(NamedTuple):
    """Scalar and matrix coefficients of one Green's function, each with
    the batch shape of the modes and points as leading axes."""

    a: complex | np.ndarray
    b: np.ndarray


def _slash_plus_m(mode: ModeParams, pot: PlaneWavePotential, *points) -> list:
    """Aslash + m, the matrix factor of every b coefficient and completion,
    at each array of s in `points`, from one field call on all of them."""
    points = [np.asarray(s, dtype=float) for s in points]
    a2, a3 = pot.field(np.concatenate([s.ravel() for s in points]))[:2]
    ends = np.cumsum([s.size for s in points])[:-1]
    return [transverse_slash(mode.k2, mode.k3, c2.reshape(s.shape), c3.reshape(s.shape))
            + _mat(mode.m) * _ID4
            for s, c2, c3 in zip(points, np.split(a2, ends), np.split(a3, ends))]


def _green_pair(mode: ModeParams, s, s_tilde, env, slash_m_tilde) -> tuple[GreenAB, GreenAB]:
    """Retarded and advanced coefficients from E(s~,s) and Aslash(s~) + m."""
    pair = []
    for supported, sign in ((np.asarray(s) >= s_tilde, 1.0), (np.asarray(s) <= s_tilde, -1.0)):
        env_k = np.where(supported, env, 0.0)
        a = sign * (-1j) * env_k / _TWO_PI_3
        b = _mat(sign * (-1j / (4.0 * mode.u)) * (2.0 / _TWO_PI_3) * env_k) * slash_m_tilde
        pair.append(GreenAB(complex(a) if a.ndim == 0 else a, b))
    return tuple(pair)


def green_ab(mode: ModeParams, pot: PlaneWavePotential, s, s_tilde) -> tuple[GreenAB, GreenAB]:
    """Retarded and advanced Green's coefficients (a, b) at (s, s~).

    The support convention at coincidence is the one-sided limit: both
    kinds report their limiting value at s = s~.  Modes, s and s~
    broadcast against each other.
    """
    slash_m_tilde, = _slash_plus_m(mode, pot, s_tilde)
    return _green_pair(mode, s, s_tilde, phase_factor(mode, pot, s_tilde, s), slash_m_tilde)


def assemble_kernel(a, b: np.ndarray, mode: ModeParams, slash_m: np.ndarray) -> np.ndarray:
    """Algebraic completion N- a + Pi- b + (Aslash(s)+m)(N+ b + Pi+ a)/2u,
    given slash_m = Aslash(s) + m."""
    front = slash_m / _mat(2.0 * mode.u)
    a = _mat(a)
    return _N_MINUS * a + _PI_MINUS @ b + front @ (_N_PLUS @ b + _PI_PLUS * a)


def causal_fundamental_momentum(mode: ModeParams, pot: PlaneWavePotential,
                                s, s_tilde) -> np.ndarray:
    """Momentum-space causal fundamental kernel (advanced - retarded)/(2 pi i).

    Off the diagonal this samples both Green's functions and subtracts;
    the symbolic delta terms are identical on both sides and cancel.  At
    exact coincidence the two step functions sum to one, which is the
    continuous value E/(2 pi)^4 used directly.
    """
    coincident = np.asarray(s) == s_tilde
    slash_m, slash_m_tilde = _slash_plus_m(mode, pot, s, s_tilde)
    ret, adv = _green_pair(mode, s, s_tilde, phase_factor(mode, pot, s_tilde, s), slash_m_tilde)
    a = np.where(coincident, 1.0 / _TWO_PI_4, (adv.a - ret.a) / (2j * np.pi))
    b_coincident = slash_m_tilde / _mat(2.0 * mode.u * _TWO_PI_4)
    b = np.where(_mat(coincident), b_coincident, (adv.b - ret.b) / (2j * np.pi))
    return assemble_kernel(a, b, mode, slash_m)


def signature_sign(u):
    """Sign of the null separation constant, the action of the signature operator.

    An int for one u, an integer array for an array of them.
    """
    u = np.asarray(u)
    if not np.all(np.isfinite(u)) or np.any(u == 0):
        raise ValueError("u must be finite; u = 0 is excluded (measure zero, no separated mode)")
    sign = np.where(u > 0, 1, -1)
    return int(sign) if sign.ndim == 0 else sign


def fp_scalar_a(mode: ModeParams, pot: PlaneWavePotential, s, s_tilde):
    """Scalar coefficient a(s, s~) = E(s~,s)/(2 pi)^4 of the projector kernel.

    Modes, s and s~ broadcast; this is the scalar channel analysed by
    the spectral diagnostics.
    """
    if not np.all(np.asarray(mode.u) < 0):
        raise ValueError("projector kernel requires u < 0")
    return phase_factor(mode, pot, s_tilde, s) / _TWO_PI_4


def fp_kernel_momentum(mode: ModeParams, pot: PlaneWavePotential,
                       s, s_tilde) -> np.ndarray:
    """Momentum-space kernel of the fermionic projector (u < 0 only)."""
    a = fp_scalar_a(mode, pot, s, s_tilde)
    slash_m, slash_m_tilde = _slash_plus_m(mode, pot, s, s_tilde)
    b = _mat(a * _TWO_PI_4) * slash_m_tilde / _mat(2.0 * mode.u * _TWO_PI_4)
    return assemble_kernel(a, b, mode, slash_m)


# ---------------------------------------------------------------------------
# mass-oscillation check


def extrapolate_to_zero(xs, ys):
    """Neville extrapolation of samples (x_k, y_k) to x = 0."""
    xs = [float(x) for x in xs]
    table = [complex(y) for y in ys]
    n = len(table)
    if n != len(xs) or n == 0:
        raise ValueError("need matching, nonempty sample lists")
    if len(set(xs)) != n:
        raise ValueError("sample abscissae must be distinct")
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            table[i] = (x0 * table[i + 1] - x1 * table[i]) / (x0 - x1)
    return table[0]


@dataclass(frozen=True)
class MassOscillationResult:
    """Both sides of the mass-oscillation identity and their gap."""

    epsilons: tuple
    lhs_by_epsilon: tuple
    lhs: complex
    rhs: complex
    relative_gap: float


def _check_family_pair(fam_psi: MassFamily, fam_phi: MassFamily) -> None:
    if not np.array_equal(fam_psi.masses, fam_phi.masses) or not np.array_equal(
        fam_psi.mass_quad_weights, fam_phi.mass_quad_weights
    ):
        raise GridMismatchError("families must share the mass grid")
    if not _same_node_grid(fam_psi, fam_phi):
        raise GridMismatchError("families must share the (u, k2, k3) node grid")
    for fam in (fam_psi, fam_phi):
        if not fam.weights_smooth():
            raise ValueError(
                "mass profile must vanish at the interval ends "
                "(smooth, compactly supported weights required)"
            )


def _mass_amplitudes(fam: MassFamily) -> np.ndarray:
    """(m, node, 4) amplitudes mw_m eta_m w_m chi0_m of a family."""
    return (fam.mass_quad_weights * fam.eta)[:, None, None] * fam.weights[..., None] * fam.chi0


def mass_oscillation_check(
    fam_psi: MassFamily,
    fam_phi: MassFamily,
    pot: PlaneWavePotential,
    epsilons=(0.1, 0.05, 0.025),
) -> MassOscillationResult:
    """Verify that the regulated spacetime pairing matches the sign(u) form.

    lhs(eps): 4 pi^3 times the spinor pairing of the two mass-integrated
    families, integrated over s with the regulator exp(-eps s^2) and summed
    over the (u, k2, k3) nodes and the double mass grid, extrapolated
    eps -> 0.

    rhs: (2 pi)^4 mass-diagonal fixed-s expression weighted by sign(u).

    The s integral is done in closed form.  By the two-mass pairing
    identity (``modes.mass_pairing_identity``) the completed modes pair as
    <X_m(s)| gamma0 X_m'(s)> = (m + m')/(2u) <chi0_m|chi0_m'> at every s,
    with the Euclidean product on the right, and the transverse phase
    cancels between the two modes.  Only the mass beat e^{i kappa s},
    kappa = (m^2 - m'^2)/4u, is left, and
    int e^{i kappa s - eps s^2} ds = sqrt(pi/eps) e^{-kappa^2/4eps}.
    So ``pot`` does not enter the result; the ``mass-pairing`` scenario
    checks the identity for each profile kind.

    With a_m = mw_m eta_m w_m chi0_m, each distinct u builds one (m, m')
    Gram matrix W_u = sum_{nodes at u} qw conj(a^psi_m) . a^phi_m' by one
    matmul, and one (u, eps, m, m') table of the Gaussian weights applies
    the whole schedule.  When both arguments are the same family its
    amplitudes are built once.

    A regulator so small that, at the smallest |u| and smallest eps,
    e^{-kappa^2/4eps} underflows to 0 for every pair of adjacent masses
    no longer couples neighbouring masses; it raises ValueError.
    """
    _check_family_pair(fam_psi, fam_phi)
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ValueError("regulator schedule must be positive")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("regulator schedule must not repeat an epsilon")

    masses = fam_psi.masses
    mw = fam_psi.mass_quad_weights

    # Python floats: a subnormal eps_min gives inf here, not an overflow warning;
    # the closest adjacent pair carries the largest weight
    eps_min = min(epsilons)
    msq = [m * m for m in masses.tolist()]
    u_min = float(np.min(np.abs(fam_psi.u)))
    kappa = min(hi - lo for lo, hi in zip(msq, msq[1:])) / (4.0 * u_min)
    if math.exp(-kappa * kappa / (4.0 * eps_min)) == 0.0:
        raise ValueError(f"regulator epsilon {eps_min:g} decouples adjacent masses: "
                         "e^{-kappa^2/4eps} underflows to 0 at the smallest |u|")

    # fixed-s side: the mass-diagonal pairing of every (mass, node), weighted by sign(u)
    diag = np.einsum("mnc,mnc->mn", np.conj(fam_psi.weights[..., None] * fam_psi.chi0),
                     fam_phi.weights[..., None] * fam_phi.chi0)
    diag_pref = mw * fam_psi.eta * fam_phi.eta
    rhs = _TWO_PI_4 * (diag_pref @ diag) @ (fam_psi.quad_weights * signature_sign(fam_psi.u))

    # regulated spacetime side: one (m, m') Gram matrix per distinct u
    ket = _mass_amplitudes(fam_phi)
    bra = np.conj(ket if fam_psi is fam_phi else _mass_amplitudes(fam_psi)) \
        * fam_psi.quad_weights[:, None]
    u_values, u_group = np.unique(fam_psi.u, return_inverse=True)
    n_m = masses.size
    gram = np.empty((u_values.size, n_m, n_m), dtype=complex)
    for g in range(u_values.size):
        nodes = u_group == g
        gram[g] = bra[:, nodes].reshape(n_m, -1) @ ket[:, nodes].reshape(n_m, -1).T

    u_col = u_values[:, None, None]
    eps = np.asarray(epsilons)
    kappa_sq = np.square(np.subtract.outer(msq, msq) / (4.0 * u_col))
    gauss = np.sqrt(np.pi / eps)[:, None, None] \
        * np.exp(-kappa_sq[:, None] / (4.0 * eps[:, None, None]))  # (u, eps, m, m')
    paired = gram * np.add.outer(masses, masses) / (2.0 * u_col)
    lhs_by_eps = 4.0 * np.pi ** 3 * np.einsum("gemp,gmp->e", gauss, paired)

    lhs = extrapolate_to_zero(epsilons, lhs_by_eps) if len(epsilons) > 1 else complex(lhs_by_eps[0])
    scale = max(abs(rhs), 1e-300)
    with np.errstate(over="ignore"):  # a gap past the float range is inf and fails its check
        gap = abs(lhs - rhs) / scale
    return MassOscillationResult(
        epsilons=epsilons,
        lhs_by_epsilon=tuple(complex(v) for v in lhs_by_eps),
        lhs=complex(lhs),
        rhs=complex(rhs),
        relative_gap=float(gap),
    )


# ---------------------------------------------------------------------------
# smeared projector pairing


@dataclass(frozen=True)
class SmearedProfile:
    """Momentum-space test profile: per-node spinor times scalar s-envelope.

    envelopes[i] maps an array of s values to complex amplitudes; the
    profile vanishes outside s_support.  All u must be negative so the
    projector factor is meaningful.
    """

    m: float
    u: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    quad_weights: np.ndarray
    spinors: np.ndarray
    envelopes: list
    s_support: tuple[float, float]

    def __post_init__(self):
        if not 0 < self.m < np.inf:
            raise ValueError("profile mass must be positive and finite")
        u, k2, k3, qw = _node_grid(self.u, self.k2, self.k3, self.quad_weights)
        if np.any(u >= 0):
            raise ValueError("smeared projector profiles require u < 0 at all nodes")
        n = u.shape[0]
        spinors = np.asarray(self.spinors, dtype=complex)
        if spinors.shape != (n, 4) or not np.isfinite(spinors).all():
            raise ValueError(f"spinors must be finite, of shape ({n}, 4)")
        if len(self.envelopes) != n:
            raise ValueError("need one envelope per node")
        lo, hi = self.s_support
        if not -np.inf < lo < hi < np.inf:
            raise ValueError("s support must be a finite, nonempty interval")
        _set_fields(self, u=u, k2=k2, k3=k3, quad_weights=qw, spinors=spinors)

    def node_mode(self, i: int) -> ModeParams:
        return ModeParams(float(self.k2[i]), float(self.k3[i]), float(self.u[i]), self.m)


def fp_pair_smeared(profile_phi: SmearedProfile, profile_psi: SmearedProfile,
                    pot: PlaneWavePotential) -> complex:
    """Projector pairing of two test profiles over a shared (u<0, k2, k3) grid.

    Computes sum_i qw_i  double-integral  conj(f_phi(s)) f_psi(s~)
    <chi_phi | P_i(s,s~) chi_psi>  ds ds~.  The kernel phase factorises
    as E(s~,s) = e(s) conj(e(s~)), so the double integral splits into
    products of single s-integrals, all evaluated on one checked
    Gauss-Legendre panel rule per node (``volkovfp.quadrature``).
    """
    if profile_phi.m != profile_psi.m or not _same_node_grid(profile_phi, profile_psi):
        raise GridMismatchError("profiles must share the momentum grid")

    lo = min(profile_phi.s_support[0], profile_psi.s_support[0])
    hi = max(profile_phi.s_support[1], profile_psi.s_support[1])
    total = 0.0 + 0.0j
    for i in range(profile_phi.u.shape[0]):
        mode = profile_phi.node_mode(i)
        u = mode.u
        bra = np.conj(profile_phi.spinors[i]) @ _GAMMA0
        chi_psi = profile_psi.spinors[i]
        env_phi, env_psi = profile_phi.envelopes[i], profile_psi.envelopes[i]

        def integrands(s):
            """(s, 13) integrands of i_u (4), i_v (4), j_0 (1) and j_a (4)."""
            e_vals = phase_factor(mode, pot, 0.0, s)
            slash_m, = _slash_plus_m(mode, pot, s)
            front = slash_m / (2.0 * u)
            left = np.conj(np.asarray(env_phi(s), dtype=complex)) * e_vals
            right = np.asarray(env_psi(s), dtype=complex) * np.conj(e_vals)
            return np.concatenate([
                left[:, None] * (bra @ (_N_MINUS + front @ _PI_PLUS)),
                left[:, None] * (bra @ (_PI_MINUS + front @ _N_PLUS)),
                right[:, None],
                right[:, None] * (slash_m @ chi_psi),
            ], axis=1)

        rule = checked_panels(lo, hi, phase_rate(mode, pot, lo, hi), integrands)
        i_u, i_v, j_0, j_a = np.split(rule.weights @ rule.values, [4, 8, 9])
        node_val = (i_u @ chi_psi) * j_0[0] + (i_v @ j_a) / (2.0 * u)
        total += profile_phi.quad_weights[i] * node_val / _TWO_PI_4
    return complex(total)
