"""Momentum-space Green's functions and the fermionic-projector kernel.

For a separated mode (k2, k3, u) of mass m in a plane-wave potential the
retarded/advanced Green's functions reduce to scalar first-order ODEs in
s.  With E(s~,s) = exp(-i Phi(s~,s)/4u) (``modes.phase_factor``),
S = Aslash(s) + m and S~ = Aslash(s~) + m, the retarded pair is

    a(s,s~) = -(i/(2 pi)^3) Theta(s-s~) E,
    b(s,s~) = beta S~,    beta(s,s~) = -(i/4u) (2/(2 pi)^3) Theta(s-s~) E,

the advanced pair carries Theta(s~-s) and the opposite sign; ``green_ab``
returns both, each as its scalars (a, beta).  Away from the diagonal
both satisfy 4iu d/ds = ((k2+a2)^2+(k3+a3)^2+m^2) * (.) and the retarded
a jumps by -i/(2 pi)^3 across s = s~.  The algebraic completion with S
gives the full kernel

    K = N_minus a + Pi_minus b + (S/2u) (N_plus b + Pi_plus a),

plus, for the single Green's functions only, a symbolic
(1/u) (2 pi)^-3 N_plus delta(s-s~) / 2 term that is never sampled
numerically and cancels in the advanced-minus-retarded difference.

That difference divided by 2 pi i is the causal fundamental kernel; it
is continuous across the diagonal with scalar coefficient E/(2 pi)^4.
The signature operator acts by the sign of u, and the projector kernel
(u < 0) equals minus that sign times the causal kernel:

    a_P(s,s~) = E / (2 pi)^4,
    beta_P(s,s~) = E / (2u (2 pi)^4),

completed the same way.  The kernel is symmetric under the spin adjoint,
gamma0 P(s,s~)^dag gamma0 = P(s~,s).

Every kernel is a matrix polynomial of degree <= 2 in the transverse
momenta t = (k2 + a2(s), k3 + a3(s)) and t~ at s~.  With G = (gamma2,
gamma3, 1), S = sum_i g_i G_i for g = (t2, t3, m) and S~ likewise for
g~ = (t~2, t~3, m), so the kernel is the rank-one coefficient table
p_a q_b, p = (1, g/2u) and q = (a, beta g~), on the 16 constant
matrices of ``clifford.kernel_basis``: one (..., 16) @ (16, 16)
product, no 4x4 product per kernel.  ``wave_slice``
evaluates E(s~,s), t and t~ once (one ``moments`` and one ``field``
call) into a ``WaveSlice``; every kernel is algebra on it.

Prefactor conventions used throughout (powers of 2 pi):

    retarded/advanced a      -+ i / (2 pi)^3
    retarded/advanced beta   -+ (i/4u) * 2 / (2 pi)^3
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

from .clifford import dirac_gamma, kernel_basis
from .modes import (
    GridMismatchError,
    MassFamily,
    ModeParams,
    _node_grid,
    _same_node_grid,
    _set_fields,
    phase_factor,
)
from .potential import PlaneWavePotential
from .quadrature import checked_panels, phase_rate

__all__ = [
    "WaveSlice",
    "wave_slice",
    "GreenAB",
    "green_ab",
    "causal_fundamental_momentum",
    "signature_sign",
    "fp_kernel_momentum",
    "MassOscillationResult",
    "mass_oscillation_check",
    "SmearedProfile",
    "fp_pair_smeared",
    "extrapolate_to_zero",
]

_TWO_PI_3 = (2.0 * np.pi) ** 3
_TWO_PI_4 = (2.0 * np.pi) ** 4

_GAMMA0 = dirac_gamma(0)
_KERNEL_BASIS = kernel_basis()
_BASIS_ROWS = _KERNEL_BASIS.reshape(16, 16)


class GreenAB(NamedTuple):
    """Scalar coefficients of one Green's function, with b = beta (Aslash(s~) + m);
    each has the batch shape of the modes and points as leading axes."""

    a: complex | np.ndarray
    beta: complex | np.ndarray


class WaveSlice(NamedTuple):
    """E(s~,s) and the transverse momenta t = (k2 + a2(s), k3 + a3(s)) and
    t~ = (k2 + a2(s~), k3 + a3(s~)), batch axes leading."""

    s: np.ndarray
    s_tilde: np.ndarray
    env: np.ndarray
    t: tuple[np.ndarray, np.ndarray]
    t_tilde: tuple[np.ndarray, np.ndarray]

    def mirrored(self) -> "WaveSlice":
        """The slice at (s~,s), exact: each term of Phi is an endpoint difference."""
        return WaveSlice(self.s_tilde, self.s, np.conj(self.env), self.t_tilde, self.t)


def wave_slice(mode: ModeParams, pot: PlaneWavePotential, s, s_tilde) -> WaveSlice:
    """The modes' wave at (s, s~) from one moments and one field call; all broadcast."""
    s, s_tilde = np.asarray(s, dtype=float), np.asarray(s_tilde, dtype=float)
    a2, a3 = pot.field(np.concatenate([s.ravel(), s_tilde.ravel()]))[:2]
    t, t_tilde = (
        (mode.k2 + c2.reshape(x.shape), mode.k3 + c3.reshape(x.shape))
        for x, c2, c3 in zip((s, s_tilde), np.split(a2, [s.size]), np.split(a3, [s.size])))
    return WaveSlice(s, s_tilde, phase_factor(mode, pot, s_tilde, s), t, t_tilde)


def green_ab(mode: ModeParams, wave: WaveSlice) -> tuple[GreenAB, GreenAB]:
    """Retarded and advanced Green's coefficients (a, beta) on a wave slice;
    at s = s~ both kinds report their one-sided limit."""
    pair = []
    for supported, sign in ((wave.s >= wave.s_tilde, 1.0), (wave.s <= wave.s_tilde, -1.0)):
        env_k = np.where(supported, wave.env, 0.0)
        a = sign * (-1j) * env_k / _TWO_PI_3
        beta = sign * (-1j / (4.0 * mode.u)) * (2.0 / _TWO_PI_3) * env_k
        pair.append(GreenAB(*(complex(x) if x.ndim == 0 else x for x in (a, beta))))
    return tuple(pair)


def _front(mode: ModeParams, t) -> np.ndarray:
    """p = (1, (t2, t3, m)/2u), the coefficients of 1 and S/2u on (1, G),
    along a last axis of 4."""
    two_u = 2.0 * mode.u
    p = np.ones(np.shape(t[0]) + (4,))  # t broadcasts the modes against the points
    p[..., 1], p[..., 2], p[..., 3] = t[0] / two_u, t[1] / two_u, mode.m / two_u
    return p


def _kernel(mode: ModeParams, wave: WaveSlice, a, beta) -> np.ndarray:
    """a N- + beta Pi- S~ + (S/2u)(beta N+ S~ + a Pi+) for S = Aslash(s) + m
    and S~ = Aslash(s~) + m: the coefficients p_a q_b on the kernel basis,
    p = (1, (t2, t3, m)/2u) and q = (a, beta (t~2, t~3, m)), times the basis
    in one product.  a and beta broadcast to the batch shape of wave.env."""
    shape = np.shape(wave.env)
    q = np.empty(shape + (4,), dtype=complex)
    q[..., 0] = a
    for j, g_tilde in enumerate((*wave.t_tilde, mode.m), 1):
        q[..., j] = beta * g_tilde
    coef = _front(mode, wave.t)[..., :, None] * q[..., None, :]
    return (coef.reshape(-1, 16) @ _BASIS_ROWS).reshape(shape + (4, 4))


def causal_fundamental_momentum(mode: ModeParams, wave: WaveSlice) -> np.ndarray:
    """Momentum-space causal fundamental kernel (advanced - retarded)/(2 pi i).

    Off the diagonal this samples both Green's functions and subtracts;
    the symbolic delta terms are identical on both sides and cancel.  At
    exact coincidence the two step functions sum to one, which is the
    continuous value E/(2 pi)^4 used directly.
    """
    coincident = wave.s == wave.s_tilde
    ret, adv = green_ab(mode, wave)
    a = np.where(coincident, 1.0 / _TWO_PI_4, (adv.a - ret.a) / (2j * np.pi))
    beta = np.where(coincident, 1.0 / (2.0 * mode.u * _TWO_PI_4),
                    (adv.beta - ret.beta) / (2j * np.pi))
    return _kernel(mode, wave, a, beta)


def signature_sign(u):
    """Sign of the null separation constant, the action of the signature operator.

    An int for one u, an integer array for an array of them.
    """
    u = np.asarray(u)
    if not np.all(np.isfinite(u)) or np.any(u == 0):
        raise ValueError("u must be finite; u = 0 is excluded (measure zero, no separated mode)")
    sign = np.where(u > 0, 1, -1)
    return int(sign) if sign.ndim == 0 else sign


def fp_kernel_momentum(mode: ModeParams, wave: WaveSlice) -> np.ndarray:
    """Momentum-space kernel of the fermionic projector (u < 0 only)."""
    if not np.all(np.asarray(mode.u) < 0):
        raise ValueError("projector kernel requires u < 0")
    return _kernel(mode, wave, wave.env / _TWO_PI_4, wave.env / (2.0 * mode.u * _TWO_PI_4))


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
        if not fam.eta.any():
            raise ValueError("mass profile eta vanishes at every mass; "
                             "both sides of the check would be 0")
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

    lhs = extrapolate_to_zero(epsilons, lhs_by_eps)
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
    as E(s~,s) = e(s) conj(e(s~)), and the kernel's coefficients on the
    kernel basis as E(s~,s)/(2 pi)^4 p_a(s) p_b(s~), p = (1, (t2, t3, m)/2u),
    so the double integral is L^T W R / (2 pi)^4 with L = int conj(f_phi) e p,
    R = int f_psi conj(e) p and W_ab = <chi_phi | B[a, b] chi_psi>.  L and
    R come from one checked Gauss-Legendre panel rule per node
    (``volkovfp.quadrature``).
    """
    if profile_phi.m != profile_psi.m or not _same_node_grid(profile_phi, profile_psi):
        raise GridMismatchError("profiles must share the momentum grid")

    lo = min(profile_phi.s_support[0], profile_psi.s_support[0])
    hi = max(profile_phi.s_support[1], profile_psi.s_support[1])
    total = 0.0 + 0.0j
    for i in range(profile_phi.u.shape[0]):
        mode = profile_phi.node_mode(i)
        bra = np.conj(profile_phi.spinors[i]) @ _GAMMA0
        spin = np.einsum("i,abij,j->ab", bra, _KERNEL_BASIS, profile_psi.spinors[i])
        env_phi, env_psi = profile_phi.envelopes[i], profile_psi.envelopes[i]

        def integrands(s):
            """(s, 8) integrands, L's four and R's four."""
            wave = wave_slice(mode, pot, s, 0.0)  # wave.env is E(0, s) = e(s)
            p = _front(mode, wave.t)
            left = np.conj(np.asarray(env_phi(s), dtype=complex)) * wave.env
            right = np.asarray(env_psi(s), dtype=complex) * np.conj(wave.env)
            return np.concatenate([left[:, None] * p, right[:, None] * p], axis=1)

        rule = checked_panels(lo, hi, phase_rate(mode, pot, lo, hi), integrands)
        left, right = np.split(rule.weights @ rule.values, 2)
        total += profile_phi.quad_weights[i] * (left @ spin @ right) / _TWO_PI_4
    return complex(total)
