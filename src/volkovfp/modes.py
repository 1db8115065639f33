"""Exact single modes in a plane wave, wavepackets and null-surface products.

A separated mode is labelled by (k2, k3, u, m) with u != 0 and has the form

    psi(t,x,y,z) = exp(-i k2 y - i k3 z) exp(-i u l) chi(s),    s = t+x, l = t-x.

Its dynamical content is the Pi_minus projection of chi, which evolves
along s by a pure phase,

    Pi_minus chi(s) = exp(-i Phi(0, s) / 4u) Pi_minus chi(0),

with Phi the cumulative phase integral of (k2+a2)^2 + (k3+a3)^2 + m^2
(``volkovfp.potential.phase``).  ``phase_factor`` is the one place the
factor exp(-i Phi(s_from, s) / 4u) is computed: the Pi_minus evolution,
the packets, the Green's functions, projector kernel and smeared
pairings of ``projector`` and the transforms of ``spectral`` all call
it.  The mass-oscillation check evaluates no phase: its s integral is in
closed form (see ``projector``).
The complementary projection is fixed algebraically,

    Pi_plus chi(s) = -(1 / 2u) N_plus (Aslash(s) - m) Pi_minus chi(s),

equivalently 2u N_minus chi + (Aslash - m) Pi_minus chi = 0, so the full
spinor solves the Dirac equation exactly; ``mode_and_dirac`` returns the
mode with the Dirac operator applied to it, from analytic derivatives.

Wavepackets are finite superpositions over a grid of (u, k2, k3) nodes
with a shared mass: each node carries a Pi_minus amplitude chi0, a
complex weight and a quadrature weight.  The fixed-s scalar product

    (psi | phi)_s = (2 pi)^4 sum_i qw_i <Pi- chi^psi_i(s) | gamma0 Pi- chi^phi_i(s)>

is independent of s because each node evolves by a unit phase; it is the
discretisation of the corresponding momentum-space integral.  Families
over a mass interval add a smooth mass profile eta(m) vanishing at the
interval ends; they store the node grid once, with (mass, node) arrays
of amplitudes and weights, and feed the mass-oscillation check in
``projector``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import dirac_gamma, lightcone_operators, spin_inner, transverse_slash
# transverse_phase is not called here; it stays bound because perfbench's
# tracer self-test checks that a name imported into another module is wrapped.
from .potential import PlaneWavePotential, _integrand, phase, transverse_phase  # noqa: F401

__all__ = [
    "GridMismatchError",
    "ModeParams",
    "ModeAmplitude",
    "phase_factor",
    "project_pi_minus",
    "evolve_pi_minus",
    "mode_and_dirac",
    "WavePacket",
    "packet_pi_minus",
    "packet_pi_minus_field",
    "null_scalar_product",
    "mass_pairing_identity",
    "null_decay_scan",
    "MassFamily",
    "smooth_bump",
]

_TWO_PI_4 = (2.0 * np.pi) ** 4

_N_PLUS, _N_MINUS, _PI_PLUS, _PI_MINUS = lightcone_operators()
_GAMMA0 = dirac_gamma(0)
_ID4 = np.eye(4, dtype=complex)
_N_PLUS_G2, _N_PLUS_G3 = _N_PLUS @ dirac_gamma(2), _N_PLUS @ dirac_gamma(3)


class GridMismatchError(ValueError):
    """Raised when two packets, families or profiles do not share their grid."""


def _set_fields(obj, **values) -> None:
    """Store checked values on a frozen dataclass from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _broadcast_fields(obj, names) -> list:
    """Values of a frozen dataclass's fields, stored as one-shape float arrays.

    Scalars stay as given; if any field is an array, every field is
    broadcast to the common shape, so each entry names one mode.
    """
    values = [getattr(obj, name) for name in names]
    if not all(np.isscalar(v) for v in values):
        values = [np.array(v, dtype=float) for v in np.broadcast_arrays(*values)]
        for name, value in zip(names, values):
            object.__setattr__(obj, name, value)
    return values


def _pi_minus_rows(chi0, name: str, shape: tuple | None = None) -> np.ndarray:
    """chi0 as complex 4-spinor rows with leading axes `shape` (any if None),
    each finite and in the range of Pi_minus to 1e-12 of max(1, its norm)."""
    chi0 = np.asarray(chi0, dtype=complex)
    if chi0.shape[-1:] != (4,) or (shape is not None and chi0.shape[:-1] != shape):
        want = "(..., 4)" if shape is None else str((*shape, 4))
        raise ValueError(f"{name} must be 4-component spinors of shape {want}, "
                         f"got {chi0.shape}")
    if not np.isfinite(chi0).all():
        raise ValueError(f"{name} must be finite")
    off_range = np.linalg.norm(chi0 @ _PI_MINUS.T - chi0, axis=-1)
    if (off_range > 1e-12 * np.maximum(1.0, np.linalg.norm(chi0, axis=-1))).any():
        raise ValueError(f"{name} rows must lie in the range of Pi_minus; "
                         "use project_pi_minus first")
    return chi0


@dataclass(frozen=True)
class ModeParams:
    """Separation constants of a single mode; u != 0 and m > 0.

    Arrays (broadcast to one shape) give a batch with one mode per entry;
    every function below then returns one result per mode, along leading
    axes of that shape.
    """

    k2: float | np.ndarray
    k3: float | np.ndarray
    u: float | np.ndarray
    m: float | np.ndarray

    def __post_init__(self):
        fields = np.array(_broadcast_fields(self, ("k2", "k3", "u", "m")), dtype=float)
        if not np.isfinite(fields).all():
            raise ValueError("mode k2, k3, u and m must be finite")
        if (fields[2] == 0).any():
            raise ValueError("null momentum u must be nonzero")
        if not (fields[3] > 0).all():
            raise ValueError(f"mass must be positive, got {fields[3].min()}")


def phase_factor(mode, pot: PlaneWavePotential, s_from, s):
    """exp(-i Phi(s_from, s) / 4u), the phase a mode's Pi_minus part gains from s_from to s.

    mode is anything with fields k2, k3, u and m (a ModeParams or a
    WavePacket); its fields, s_from and s broadcast against each other.
    """
    return np.exp(-1j * phase(pot, mode.k2, mode.k3, mode.m, s_from, s) / (4.0 * mode.u))


def project_pi_minus(spinor) -> np.ndarray:
    """Project a spinor (or each row of a stack) onto the range of Pi_minus."""
    return np.asarray(spinor, dtype=complex) @ _PI_MINUS.T


@dataclass(frozen=True)
class ModeAmplitude:
    """Pi_minus-projected amplitude at the reference null surface s = 0.

    chi0 is one spinor, or a (..., 4) stack with one spinor per mode.
    """

    chi0: np.ndarray

    def __post_init__(self):
        _set_fields(self, chi0=_pi_minus_rows(self.chi0, "amplitude"))


def _vec(x) -> np.ndarray:
    """Per-mode scalars as a factor of (..., 4) spinors."""
    return np.asarray(x)[..., None]


def _mat(x) -> np.ndarray:
    """Per-mode scalars as a factor of (..., 4, 4) spin matrices."""
    return np.asarray(x)[..., None, None]


def _apply(mat, spinor) -> np.ndarray:
    """Spin matrices times spinors, broadcast over leading axes."""
    return (mat @ spinor[..., None])[..., 0]


def evolve_pi_minus(amp: ModeAmplitude, mode: ModeParams, pot: PlaneWavePotential, s) -> np.ndarray:
    """Propagate the Pi_minus amplitude from the reference surface s = 0 to s (a pure phase)."""
    return _vec(phase_factor(mode, pot, 0.0, s)) * amp.chi0


def _n_plus_slash(t2, t3) -> np.ndarray:
    """N_plus (gamma2 t2 + gamma3 t3) from the constant products N_plus gamma2
    and N_plus gamma3.  t2 and t3 never meet in one real or imaginary part
    of an entry, so each part is one product with +-1/2, bit for bit the
    matrix product's."""
    return _mat(t2) * _N_PLUS_G2 + _mat(t3) * _N_PLUS_G3


def _completion(mode: ModeParams, t2, t3) -> np.ndarray:
    """1 - N_plus (Aslash - m) / 2u for Aslash = gamma2 t2 + gamma3 t3, mapping
    Pi_minus chi to the full spinor; bit for bit the matrix-product form, as
    m N_plus shares no entry part with N_plus Aslash."""
    return _ID4 - (_n_plus_slash(t2, t3) - _mat(mode.m) * _N_PLUS) / _mat(2.0 * mode.u)


def _plane_factor(mode: ModeParams, l, y, z) -> np.ndarray:
    """exp(-i (k2 y + k3 z + u l)), the unit-modulus transverse/longitudinal factor."""
    return np.exp(-1j * (mode.k2 * y + mode.k3 * z + mode.u * l))


def mode_and_dirac(amp: ModeAmplitude, mode: ModeParams, pot: PlaneWavePotential, point):
    """The full mode at a point (s, l, y, z) in null coordinates, psi, and
    the Dirac operator applied to it there, D psi, as two (..., 4) arrays.

    Each coordinate is a scalar or an array over the modes of a batch.
    D psi uses the analytic s-derivative of the closed-form solution; in
    null coordinates (d_t = d_s + d_l, d_x = d_s - d_l) the plane-wave
    Dirac operator acting on the separated mode reduces to

        [2i N_plus d_s + 2u N_minus + Aslash(s) - m] chi(s)

    times unit-modulus phase factors.  Both come from one evaluation of
    the phase, the completion and the plane factor; the norm of D psi is
    the mode's Dirac residual.
    """
    s, l, y, z = point
    u, m = mode.u, mode.m
    a2, a3, da2, da3 = pot.field(s)
    t2, t3 = mode.k2 + a2, mode.k3 + a3
    aslash = transverse_slash(t2, t3)

    v = evolve_pi_minus(amp, mode, pot, s)
    v_prime = _vec((-1j / (4.0 * u)) * _integrand(mode.k2, mode.k3, m, a2, a3)) * v
    completion = _completion(mode, t2, t3)
    chi = _apply(completion, v)
    chi_prime = _apply(completion, v_prime) - _apply(_n_plus_slash(da2, da3), v) / _vec(2.0 * u)

    residual = 2j * _apply(_N_PLUS, chi_prime) + _vec(2.0 * u) * _apply(_N_MINUS, chi) \
        + _apply(aslash, chi) - _vec(m) * chi
    # The transverse/longitudinal plane-wave factors are unit modulus and
    # do not change the norm, but keep the evaluation at the requested point.
    plane = _vec(_plane_factor(mode, l, y, z))
    return plane * chi, plane * residual


# ---------------------------------------------------------------------------
# wavepackets


def _as_node_array(values, shape: tuple, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


_NODE_GRID = ("u", "k2", "k3", "quad_weights")


def _node_grid(u, k2, k3, quad_weights, batch: bool = False) -> tuple[np.ndarray, ...]:
    """Checked float arrays (u, k2, k3, quad_weights) of one momentum grid,
    shape (N,), or with `batch` of one grid per entry of leading axes,
    (..., N): at least one node, all finite, every u nonzero, the nodes of
    each grid distinct."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.size == 0:
        raise ValueError("node grid needs at least one node")
    if u.ndim > 1 and not batch:
        raise ValueError(f"node grid must be one 1-D array of nodes, got shape {u.shape}")
    if not np.all(np.isfinite(u)) or np.any(u == 0):
        raise ValueError("u must be finite and nonzero")
    k2 = _as_node_array(k2, u.shape, "k2")
    k3 = _as_node_array(k3, u.shape, "k3")
    # each grid's nodes in (u, k2, k3) order: a repeat sits next to its twin
    order = np.lexsort((k3, k2, u), axis=-1)
    nodes = np.take_along_axis(np.stack((u, k2, k3)), order[None], axis=-1)
    if (nodes[..., 1:] == nodes[..., :-1]).all(axis=0).any():
        raise ValueError("(u, k2, k3) nodes must be distinct")
    return u, k2, k3, _as_node_array(quad_weights, u.shape, "quad_weights")


def _same_node_grid(a, b) -> bool:
    """Whether two packets, families or profiles have the same node grid."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _NODE_GRID)


@dataclass(frozen=True)
class WavePacket:
    """Discrete superposition of modes over a (u, k2, k3) grid, shared mass.

    chi0 holds one Pi_minus amplitude per node (rows), weights the complex
    superposition coefficients and quad_weights the quadrature weights of
    the momentum grid.  Leading axes make a batch of packets of one mass:
    u, k2, k3, weights and quad_weights of shape (..., N), chi0 of shape
    (..., N, 4), each packet's nodes distinct.
    """

    m: float
    u: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    chi0: np.ndarray
    weights: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        if not 0 < self.m < np.inf:
            raise ValueError("packet mass must be positive and finite")
        u, k2, k3, qw = _node_grid(self.u, self.k2, self.k3, self.quad_weights, batch=True)
        _set_fields(self, u=u, k2=k2, k3=k3, quad_weights=qw,
                    chi0=_pi_minus_rows(self.chi0, "chi0", u.shape),
                    weights=_as_node_array(self.weights, u.shape, "weights", complex))

    @property
    def n_nodes(self) -> int:
        return self.u.shape[-1]

    def same_grid(self, other: "WavePacket") -> bool:
        return self.m == other.m and _same_node_grid(self, other)


def _surfaces(s, packet: WavePacket) -> np.ndarray:
    """Surfaces s as an array that broadcasts against the packet's node axes."""
    s = np.asarray(s, dtype=float)
    return s.reshape(s.shape + (1,) * packet.u.ndim)


def packet_pi_minus(packet: WavePacket, pot: PlaneWavePotential, s) -> np.ndarray:
    """Weighted, evolved Pi_minus values of all packet nodes at surface s.

    Returns an (n_nodes, 4) array w_i exp(-i Phi_i(0,s)/4u_i) chi0_i (with
    the batch axes of a batch of packets in front); an array of surfaces
    gives one such block per surface, s.shape + (..., n_nodes, 4).
    """
    factors = packet.weights * phase_factor(packet, pot, 0.0, _surfaces(s, packet))
    return factors[..., None] * packet.chi0


def packet_pi_minus_field(packet: WavePacket, pot: PlaneWavePotential,
                          s, l_values) -> np.ndarray:
    """Pi_minus part of the packet wavefunction at (s, l) for y = z = 0.

    Returns an (n_l, 4) array sum_i qw_i w_i e^{-i u_i l} e^{-i Phi_i/4u_i} chi0_i;
    an array of surfaces gives one such block per surface, (..., n_l, 4),
    from one (n_l, n_nodes) kernel e^{-i l u_i}.  Takes one packet, not a batch.
    """
    if packet.u.ndim != 1:
        raise ValueError(f"packet field takes one packet, not a batch {packet.u.shape[:-1]}")
    l_values = np.atleast_1d(np.asarray(l_values, dtype=float))
    values = packet.quad_weights[:, None] * packet_pi_minus(packet, pot, s)
    kernel = np.exp(-1j * np.outer(l_values, packet.u))
    return kernel @ values


def null_scalar_product(psi: WavePacket, phi: WavePacket, pot: PlaneWavePotential,
                        s):
    """Fixed-s scalar product of two packets sharing mass and grid.

    (2 pi)^4 sum_i qw_i <Pi- chi^psi_i(s) | gamma0 Pi- chi^phi_i(s)>.
    On the range of Pi_minus the gamma0 pairing is the Euclidean one, so
    the result is positive for psi = phi != 0 and independent of s.  A
    complex for one surface and one packet pair; otherwise an array of
    shape s.shape + the packets' batch shape.
    """
    if not psi.same_grid(phi):
        raise GridMismatchError("packets must share mass and (u, k2, k3) grid")
    # one node phase serves both packets, which share mass and grid
    phases = phase_factor(psi, pot, 0.0, _surfaces(s, psi))
    a, b = ((p.weights * phases)[..., None] * p.chi0 for p in (psi, phi))
    # <a | gamma0 b> = a^dag gamma0 gamma0 b: the gamma0 pairing on the
    # Pi_minus range is the plain Euclidean one.
    pairing = np.sum(np.conj(a) * b, axis=-1)
    value = _TWO_PI_4 * np.sum(psi.quad_weights * pairing, axis=-1)
    return complex(value) if value.ndim == 0 else value


def mass_pairing_identity(amp_a: ModeAmplitude, mode_a: ModeParams,
                          amp_b: ModeAmplitude, mode_b: ModeParams,
                          pot: PlaneWavePotential, s):
    """Two-mass pairing identity at surface s, computed both ways.

    lhs: 2u <chi^m(s) | chi^m'(s)> from the fully reconstructed spinors.
    rhs: (m + m') exp(i (m^2 - m'^2) s / 4u) <chi0^m | gamma0 chi0^m'>
    from the initial data alone.  The two runs share only the phase
    integral; everything else is an independent code path.  Complex
    values for one pair of modes, arrays for a batch.
    """
    if not all(np.array_equal(getattr(mode_a, f), getattr(mode_b, f)) for f in ("k2", "k3", "u")):
        raise ValueError("modes must share (k2, k3, u)")
    u = mode_a.u
    shape = np.broadcast_shapes(np.shape(s), np.shape(u), amp_a.chi0.shape[:-1],
                                amp_b.chi0.shape[:-1])  # one batch, the two masses first
    both = ModeParams(mode_a.k2, mode_a.k3, u,
                      np.stack([np.broadcast_to(mode.m, shape) for mode in (mode_a, mode_b)]))
    amps = ModeAmplitude(np.stack([np.broadcast_to(a.chi0, (*shape, 4)) for a in (amp_a, amp_b)]))
    a2, a3 = pot.field(s)[:2]
    completion = _completion(both, mode_a.k2 + a2, mode_a.k3 + a3)
    chi_a, chi_b = _apply(completion, evolve_pi_minus(amps, both, pot, s))
    lhs = 2.0 * u * spin_inner(chi_a, chi_b)

    m, mp = mode_a.m, mode_b.m
    osc = np.exp(1j * (m * m - mp * mp) * s / (4.0 * u))
    rhs = (m + mp) * osc * spin_inner(amp_a.chi0, amp_b.chi0 @ _GAMMA0.T)
    return lhs, rhs


# ---------------------------------------------------------------------------
# null-direction decay scan


def null_decay_scan(packet: WavePacket, pot: PlaneWavePotential, s_values,
                    l_values) -> tuple[np.ndarray, float]:
    """Fit the |l|^-N tail of ||Pi_minus psi(s, l)|| over an l window.

    Returns (magnitudes, min_order): magnitudes[j, i] is
    ||Pi_minus psi(s_j, l_i)||, the fitted data, from one
    packet_pi_minus_field call over all surfaces.  l_values are grouped by
    sign and each branch of at least 8 samples is fitted separately
    against |l| on every surface; min_order is the weakest of all these
    fits.  A single-mode (delta-weight) packet shows no decay.
    """
    from .spectral import decay_order_fit

    l_values = np.asarray(l_values, dtype=float)
    if np.any(l_values == 0):
        raise ValueError("decay scan needs l != 0 for a log-log fit")
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    magnitudes = np.linalg.norm(packet_pi_minus_field(packet, pot, s_values, l_values), axis=-1)
    branches = [b for b in (l_values > 0, l_values < 0) if np.count_nonzero(b) >= 8]
    if not branches:
        raise ValueError("decay scan needs at least 8 samples per l branch")
    min_order = float(np.min([decay_order_fit(np.abs(l_values[b]), mags[b])[0]
                              for mags in magnitudes for b in branches]))
    return magnitudes, min_order


# ---------------------------------------------------------------------------
# mass families


def smooth_bump(x, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump on (lo, hi), peak value 1 at the midpoint, 0 outside."""
    x = np.asarray(x, dtype=float)
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


@dataclass(frozen=True)
class MassFamily:
    """Packets over a mass grid on one node grid, with a smooth mass profile.

    masses are positive and strictly increasing; eta holds the smooth
    profile values (vanishing at the first and last mass) and
    mass_quad_weights the quadrature weights of the mass grid.  The
    (u, k2, k3, quad_weights) node grid is stored once; chi0 (mass, node, 4)
    and weights (mass, node) hold each mass's Pi_minus amplitudes and
    complex weights.
    """

    masses: np.ndarray
    eta: np.ndarray
    mass_quad_weights: np.ndarray
    u: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    quad_weights: np.ndarray
    chi0: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size < 2:
            raise ValueError("mass family needs at least two masses")
        if not (masses[0] > 0 and np.all(np.diff(masses) > 0)):
            raise ValueError("masses must be positive and strictly increasing")
        u, k2, k3, qw = _node_grid(self.u, self.k2, self.k3, self.quad_weights)
        shape = (masses.size, u.size)
        _set_fields(self, masses=masses,
                    eta=_as_node_array(self.eta, masses.shape, "eta"),
                    mass_quad_weights=_as_node_array(self.mass_quad_weights, masses.shape,
                                                     "mass_quad_weights"),
                    u=u, k2=k2, k3=k3, quad_weights=qw,
                    chi0=_pi_minus_rows(self.chi0, "chi0", shape),
                    weights=_as_node_array(self.weights, shape, "weights", complex))

    @property
    def n_nodes(self) -> int:
        return self.u.shape[0]

    @property
    def node_packet(self) -> WavePacket:
        """The packet at the first mass.  Nothing in the package reads it;
        it stays for perfbench's tracer, which sizes each traced
        mass-oscillation check as ``fam_psi.node_packet.n_nodes``."""
        return WavePacket(float(self.masses[0]), self.u, self.k2, self.k3,
                          self.chi0[0], self.weights[0], self.quad_weights)

    def weights_smooth(self) -> bool:
        """Profile vanishes at the sampled interval ends, to 1e-10 of its peak."""
        scale = float(np.max(np.abs(self.eta))) or 1.0
        return max(abs(self.eta[0]), abs(self.eta[-1])) <= 1e-10 * scale
