"""Momentum-space Green's functions and the fermionic-projector kernel.

For a separated mode (k2, k3, u) of mass m in a plane-wave potential the
retarded/advanced Green's functions reduce to scalar first-order ODEs in
s.  With E(s~,s) = exp(-i Phi(s~,s)/4u) the retarded pair is

    a(s,s~) = -(i/(2 pi)^3) Theta(s-s~) E,
    b(s,s~) = -(i/4u) (2/(2 pi)^3) Theta(s-s~) (Aslash(s~) + m) E,

the advanced pair carries Theta(s~-s) and the opposite sign.  Away from
the diagonal both satisfy  4iu d/ds = ((k2+a2)^2+(k3+a3)^2+m^2) * (.)
and the retarded a jumps by -i/(2 pi)^3 across s = s~.  The full kernel
is assembled as

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
spin adjoint, gamma0 P(s,s~)^dag gamma0 = P(s~,s).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import dirac_gamma, lightcone_operators, transverse_slash
from .modes import GridMismatchError, MassFamily, ModeParams
from .potential import PlaneWavePotential, phase, transverse_phase

__all__ = [
    "GreenAB",
    "green_ab",
    "assemble_kernel",
    "causal_fundamental_momentum",
    "signature_sign",
    "fp_scalar_a",
    "fp_kernel_momentum",
    "KernelSample",
    "write_kernel_csv",
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
_N_PLUS_G2 = _N_PLUS @ dirac_gamma(2)
_N_PLUS_G3 = _N_PLUS @ dirac_gamma(3)
_ID4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class GreenAB:
    """Scalar and matrix coefficients of one Green's function.

    delta_n_plus is the coefficient of the symbolic N_plus delta(s-s~)
    term of the full kernel; it is reported for completeness but never
    sampled (point values of a delta are meaningless), and it drops out
    of every assembled difference kernel.
    """

    a: complex
    b: np.ndarray
    delta_n_plus: float


def _phase_factor(mode: ModeParams, pot: PlaneWavePotential, s: float, s_tilde: float) -> complex:
    return complex(np.exp(-1j * phase(pot, mode.query, s_tilde, s) / (4.0 * mode.u)))


def green_ab(mode: ModeParams, pot: PlaneWavePotential, s: float, s_tilde: float,
             which: str) -> GreenAB:
    """Retarded or advanced Green's coefficients (a, b) at (s, s~).

    The support convention at coincidence is the one-sided limit: both
    kinds report their limiting value at s = s~.
    """
    if mode.u == 0:
        raise ValueError("u = 0 has no separated Green's function")
    if which == "retarded":
        supported = s >= s_tilde
        sign = 1.0
    elif which == "advanced":
        supported = s <= s_tilde
        sign = -1.0
    else:
        raise ValueError(f"which must be 'retarded' or 'advanced', got {which!r}")
    delta_coeff = 2.0 / (_TWO_PI_3 * 2.0 * mode.u)
    if not supported:
        return GreenAB(0.0, np.zeros((4, 4), dtype=complex), delta_coeff)
    env = _phase_factor(mode, pot, s, s_tilde)
    a = sign * (-1j) * env / _TWO_PI_3
    aslash_tilde = transverse_slash(mode.k2, mode.k3, float(pot.a2(s_tilde)), float(pot.a3(s_tilde)))
    b = sign * (-1j / (4.0 * mode.u)) * (2.0 / _TWO_PI_3) * env * (aslash_tilde + mode.m * _ID4)
    return GreenAB(a, b, delta_coeff)


def assemble_kernel(a: complex, b: np.ndarray, mode: ModeParams,
                    pot: PlaneWavePotential, s: float) -> np.ndarray:
    """Algebraic completion N- a + Pi- b + (Aslash(s)+m)(N+ b + Pi+ a)/2u."""
    aslash = transverse_slash(mode.k2, mode.k3, float(pot.a2(s)), float(pot.a3(s)))
    front = (aslash + mode.m * _ID4) / (2.0 * mode.u)
    return _N_MINUS * a + _PI_MINUS @ b + front @ (_N_PLUS @ b + _PI_PLUS * a)


def causal_fundamental_momentum(mode: ModeParams, pot: PlaneWavePotential,
                                s: float, s_tilde: float) -> np.ndarray:
    """Momentum-space causal fundamental kernel (advanced - retarded)/(2 pi i).

    Off the diagonal this samples both Green's functions and subtracts;
    the symbolic delta terms are identical on both sides and cancel.  At
    exact coincidence the two step functions sum to one, which is the
    continuous value E/(2 pi)^4 used directly.
    """
    if mode.u == 0:
        raise ValueError("u = 0 has no separated kernel")
    if s == s_tilde:
        a = 1.0 / _TWO_PI_4
        aslash_tilde = transverse_slash(mode.k2, mode.k3, float(pot.a2(s_tilde)),
                                        float(pot.a3(s_tilde)))
        b = (aslash_tilde + mode.m * _ID4) / (2.0 * mode.u * _TWO_PI_4)
        return assemble_kernel(a, b, mode, pot, s)
    adv = green_ab(mode, pot, s, s_tilde, "advanced")
    ret = green_ab(mode, pot, s, s_tilde, "retarded")
    a = (adv.a - ret.a) / (2j * np.pi)
    b = (adv.b - ret.b) / (2j * np.pi)
    return assemble_kernel(a, b, mode, pot, s)


def signature_sign(u: float) -> int:
    """Sign of the null separation constant, the action of the signature operator."""
    if u == 0:
        raise ValueError("u = 0 is excluded (measure zero, no separated mode)")
    return 1 if u > 0 else -1


def fp_scalar_a(mode: ModeParams, pot: PlaneWavePotential, s, s_tilde: float):
    """Scalar coefficient a(s, s~) = E(s~,s)/(2 pi)^4 of the projector kernel.

    Vectorised over s; this is the scalar channel analysed by the
    spectral diagnostics.
    """
    if not mode.u < 0:
        raise ValueError("projector kernel requires u < 0")
    phi = phase(pot, mode.query, s_tilde, s)
    return np.exp(-1j * phi / (4.0 * mode.u)) / _TWO_PI_4


def fp_kernel_momentum(mode: ModeParams, pot: PlaneWavePotential,
                       s: float, s_tilde: float) -> np.ndarray:
    """Momentum-space kernel of the fermionic projector (u < 0 only)."""
    if not mode.u < 0:
        raise ValueError("projector kernel requires u < 0")
    a = complex(fp_scalar_a(mode, pot, s, s_tilde))
    env = a * _TWO_PI_4
    aslash_tilde = transverse_slash(mode.k2, mode.k3, float(pot.a2(s_tilde)),
                                    float(pot.a3(s_tilde)))
    b = env * (aslash_tilde + mode.m * _ID4) / (2.0 * mode.u * _TWO_PI_4)
    return assemble_kernel(a, b, mode, pot, s)


@dataclass(frozen=True)
class KernelSample:
    """One evaluated momentum-space kernel value."""

    mode: ModeParams
    s: float
    s_tilde: float
    value: np.ndarray

    def row(self) -> list:
        flat = np.asarray(self.value, dtype=complex).reshape(-1)
        cells = [self.mode.u, self.mode.k2, self.mode.k3, self.s, self.s_tilde]
        for entry in flat:
            cells.extend((entry.real, entry.imag))
        return cells


KERNEL_CSV_HEADER = ["u", "k2", "k3", "s", "s_tilde"] + [
    f"{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")
]


def write_kernel_csv(path, samples, comment: str | None = None) -> None:
    """Write kernel samples as CSV rows (u, k2, k3, s, s~, re_ij, im_ij)."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(KERNEL_CSV_HEADER))
    for sample in samples:
        lines.append(",".join(f"{cell:.17g}" for cell in sample.row()))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def summary(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "lhs_by_epsilon_re": [v.real for v in self.lhs_by_epsilon],
            "lhs_by_epsilon_im": [v.imag for v in self.lhs_by_epsilon],
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "relative_gap": self.relative_gap,
        }


def _check_family_pair(fam_psi: MassFamily, fam_phi: MassFamily) -> None:
    if not np.array_equal(fam_psi.masses, fam_phi.masses) or not np.array_equal(
        fam_psi.mass_quad_weights, fam_phi.mass_quad_weights
    ):
        raise GridMismatchError("families must share the mass grid")
    if not fam_psi.node_packet.same_grid_nodes(fam_phi.node_packet):
        raise GridMismatchError("families must share the (u, k2, k3) node grid")
    for fam in (fam_psi, fam_phi):
        if not fam.weights_smooth():
            raise ValueError(
                "mass profile must vanish at the interval ends "
                "(smooth, compactly supported weights required)"
            )


def _completion_basis(chi0: np.ndarray, masses: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, node, 3, 4) stack of static_m, N+ gamma2 chi0_m and N+ gamma3 chi0_m.

    The completion X_m(s) = [1 - N+ (Aslash(s) - m) / 2u] chi0_m equals
    static_m - c2(s) N+ gamma2 chi0_m - c3(s) N+ gamma3 chi0_m with
    c_j(s) = (k_j + a_j(s)) / 2u and static_m = chi0_m + m N+ chi0_m / 2u.
    """
    static = chi0 + (masses[:, None, None] / (2.0 * u[:, None])) * (chi0 @ _N_PLUS.T)
    return np.stack([static, chi0 @ _N_PLUS_G2.T, chi0 @ _N_PLUS_G3.T], axis=2)


def mass_oscillation_check(
    fam_psi: MassFamily,
    fam_phi: MassFamily,
    pot: PlaneWavePotential,
    epsilons=(0.1, 0.05, 0.025),
    *,
    tail: float = 1e-14,
    points_per_osc: int = 8,
) -> MassOscillationResult:
    """Verify that the regulated spacetime pairing matches the sign(u) form.

    lhs(eps): 4 pi^3 triple quadrature of the spinor pairing of the two
    mass-integrated families over (s, nodes) with regulator exp(-eps s^2)
    and the double mass integral, extrapolated eps -> 0.

    rhs: (2 pi)^4 mass-diagonal fixed-s expression weighted by sign(u).

    The s-grids are trapezoid rules on [-L, L] with L set by the regulator
    tail and spacing set by the largest mass-beat frequency; for a
    Gaussian-enveloped trigonometric integrand the trapezoid rule is
    spectrally accurate.

    The double mass sum factors: at each node and s the completed spinors
    of each family are summed over masses first, Psi(s) = sum_m c_m(s)
    X_m(s), and only the two sums are paired, <Psi(s)| gamma0 Phi(s)>.
    The completion X_m(s) is affine in the s-dependent coefficients
    (k2 + a2(s))/2u and (k3 + a3(s))/2u, so each sum costs a few
    (s, m) @ (m, 4) products and the whole epsilon schedule is one
    (n_eps, s) @ (s,) product per node.
    """
    _check_family_pair(fam_psi, fam_phi)
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ValueError("regulator schedule must be positive")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("regulator schedule must not repeat an epsilon")

    masses = fam_psi.masses
    mw = fam_psi.mass_quad_weights
    grid = fam_psi.node_packet
    eps_col = np.asarray(epsilons)[:, None]

    eps_min = min(epsilons)
    half_width = float(np.sqrt(np.log(1.0 / tail) / eps_min))

    # per-mass amplitudes and weights of every node, (m, node, 4) and (m, node)
    chi_psi = np.stack([pkt.chi0 for pkt in fam_psi.packets])
    chi_phi = np.stack([pkt.chi0 for pkt in fam_phi.packets])
    w_psi = np.stack([pkt.weights for pkt in fam_psi.packets])
    w_phi = np.stack([pkt.weights for pkt in fam_phi.packets])
    basis_psi = _completion_basis(chi_psi, masses, grid.u)
    basis_phi = _completion_basis(chi_phi, masses, grid.u)
    amp_psi = (mw * fam_psi.eta)[:, None] * w_psi
    amp_phi = (mw * fam_phi.eta)[:, None] * w_phi
    diag_pref = mw * fam_psi.eta * fam_phi.eta

    rhs = 0.0 + 0.0j
    lhs_by_eps = np.zeros(len(epsilons), dtype=complex)

    for i in range(grid.n_nodes):
        u = float(grid.u[i])
        k2 = float(grid.k2[i])
        k3 = float(grid.k3[i])
        qw = float(grid.quad_weights[i])

        # fixed-s side
        diag = np.einsum("mc,mc->m", np.conj(w_psi[:, i, None] * chi_psi[:, i]),
                         w_phi[:, i, None] * chi_phi[:, i])
        rhs += _TWO_PI_4 * qw * signature_sign(u) * np.sum(diag_pref * diag)

        # regulated spacetime side
        beat_max = (masses[-1] ** 2 - masses[0] ** 2) / (4.0 * abs(u))
        ds = 2.0 * np.pi / (points_per_osc * (beat_max + 1.0))
        n_half = int(np.ceil(half_width / ds))
        s_grid = ds * np.arange(-n_half, n_half + 1)

        base = transverse_phase(pot, k2, k3, 0.0, s_grid)
        osc = np.exp(
            -1j * (base[None, :] + np.square(masses)[:, None] * s_grid[None, :]) / (4.0 * u)
        )
        # (s, 3) coefficients of the completion basis: 1, -c2(s), -c3(s)
        completion = np.stack([
            np.ones_like(s_grid),
            -(k2 + np.asarray(pot.a2(s_grid), dtype=float)) / (2.0 * u),
            -(k3 + np.asarray(pot.a3(s_grid), dtype=float)) / (2.0 * u),
        ], axis=1)
        # sum_m amp_m osc_m(s) X_m(s) for each family, then the gamma0 pairing
        psi = np.einsum("sk,skc->sc", completion,
                        np.tensordot((amp_psi[:, i, None] * osc).T, basis_psi[:, i], axes=1))
        phi = np.einsum("sk,skc->sc", completion,
                        np.tensordot((amp_phi[:, i, None] * osc).T, basis_phi[:, i], axes=1))
        pairing = np.sum((np.conj(psi) @ _GAMMA0) * phi, axis=1)

        s_weights = ds * np.exp(-eps_col * np.square(s_grid))
        lhs_by_eps += 4.0 * np.pi ** 3 * qw * (s_weights @ pairing)

    lhs = extrapolate_to_zero(epsilons, lhs_by_eps) if len(epsilons) > 1 else complex(lhs_by_eps[0])
    scale = max(abs(rhs), 1e-300)
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
        u = np.asarray(self.u, dtype=float)
        if np.any(u >= 0):
            raise ValueError("smeared projector profiles require u < 0 at all nodes")
        n = u.shape[0]
        spinors = np.asarray(self.spinors, dtype=complex)
        if spinors.shape != (n, 4):
            raise ValueError(f"spinors must have shape ({n}, 4)")
        if len(self.envelopes) != n:
            raise ValueError("need one envelope per node")
        lo, hi = self.s_support
        if not lo < hi:
            raise ValueError("empty s support")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "k2", np.asarray(self.k2, dtype=float))
        object.__setattr__(self, "k3", np.asarray(self.k3, dtype=float))
        object.__setattr__(self, "quad_weights", np.asarray(self.quad_weights, dtype=float))
        object.__setattr__(self, "spinors", spinors)

    def node_mode(self, i: int) -> ModeParams:
        return ModeParams(float(self.k2[i]), float(self.k3[i]), float(self.u[i]), self.m)


def _gl_panel_rule(lo: float, hi: float, max_width: float, order: int = 32):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_panels = max(1, int(np.ceil((hi - lo) / max_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    s = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    w = (half[:, None] * weights[None, :]).reshape(-1)
    return s, w


def fp_pair_smeared(profile_phi: SmearedProfile, profile_psi: SmearedProfile,
                    pot: PlaneWavePotential, *, gl_order: int = 32) -> complex:
    """Projector pairing of two test profiles over a shared (u<0, k2, k3) grid.

    Computes sum_i qw_i  double-integral  conj(f_phi(s)) f_psi(s~)
    <chi_phi | P_i(s,s~) chi_psi>  ds ds~.  The kernel phase factorises
    as E(s~,s) = e(s) conj(e(s~)), so the double integral splits into
    products of single s-integrals evaluated on Gauss-Legendre panels.
    """
    if profile_phi.m != profile_psi.m or not (
        np.array_equal(profile_phi.u, profile_psi.u)
        and np.array_equal(profile_phi.k2, profile_psi.k2)
        and np.array_equal(profile_phi.k3, profile_psi.k3)
        and np.array_equal(profile_phi.quad_weights, profile_psi.quad_weights)
    ):
        raise GridMismatchError("profiles must share the momentum grid")

    m = profile_phi.m
    lo = min(profile_phi.s_support[0], profile_psi.s_support[0])
    hi = max(profile_phi.s_support[1], profile_psi.s_support[1])
    total = 0.0 + 0.0j
    for i in range(profile_phi.u.shape[0]):
        mode = profile_phi.node_mode(i)
        u = mode.u
        # local oscillation rate of e(s) bounds the panel width
        probe = np.linspace(lo, hi, 64)
        q_max = float(np.max(
            (mode.k2 + np.asarray(pot.a2(probe))) ** 2
            + (mode.k3 + np.asarray(pot.a3(probe))) ** 2
        )) + m * m
        freq = q_max / (4.0 * abs(u))
        width = min((hi - lo) / 8.0, 2.0 * np.pi / (8.0 * max(freq, 1.0)))
        s_nodes, s_w = _gl_panel_rule(lo, hi, width, gl_order)

        zeta_vals = transverse_phase(pot, mode.k2, mode.k3, 0.0, s_nodes) + m * m * s_nodes
        e_vals = np.exp(-1j * zeta_vals / (4.0 * u))

        a2 = np.asarray(pot.a2(s_nodes), dtype=float)
        a3 = np.asarray(pot.a3(s_nodes), dtype=float)
        g2, g3 = dirac_gamma(2), dirac_gamma(3)
        aslash = (
            np.multiply.outer(mode.k2 + a2, g2) + np.multiply.outer(mode.k3 + a3, g3)
        )
        front = (aslash + m * _ID4) / (2.0 * u)
        u_mat = _N_MINUS[None, :, :] + front @ _PI_PLUS
        v_mat = _PI_MINUS[None, :, :] + front @ _N_PLUS

        chi_phi = profile_phi.spinors[i]
        chi_psi = profile_psi.spinors[i]
        f_phi = np.asarray(profile_phi.envelopes[i](s_nodes), dtype=complex)
        f_psi = np.asarray(profile_psi.envelopes[i](s_nodes), dtype=complex)

        left_weight = s_w * np.conj(f_phi) * e_vals
        bra = np.conj(chi_phi) @ _GAMMA0
        i_u = np.einsum("s,sd->d", left_weight, np.einsum("c,scd->sd", bra, u_mat))
        i_v = np.einsum("s,sd->d", left_weight, np.einsum("c,scd->sd", bra, v_mat))

        right_weight = s_w * f_psi * np.conj(e_vals)
        j_0 = np.sum(right_weight)
        j_a = np.einsum("s,sc->c", right_weight,
                        np.einsum("scd,d->sc", aslash + m * _ID4, chi_psi))

        node_val = (i_u @ chi_psi) * j_0 + (i_v @ j_a) / (2.0 * u)
        total += profile_phi.quad_weights[i] * node_val / _TWO_PI_4
    return complex(total)
