"""Exact single modes in a plane wave, wavepackets and null-surface products.

A separated mode is labelled by (k2, k3, u, m) with u != 0 and has the form

    psi(t,x,y,z) = exp(-i k2 y - i k3 z) exp(-i u l) chi(s),    s = t+x, l = t-x.

Its dynamical content is the Pi_minus projection of chi, which evolves
along s by a pure phase,

    Pi_minus chi(s) = exp(-i Phi(0, s) / 4u) Pi_minus chi(0),

with Phi the cumulative phase integral of (k2+a2)^2 + (k3+a3)^2 + m^2.
The complementary projection is fixed algebraically,

    Pi_plus chi(s) = -(1 / 2u) N_plus (Aslash(s) - m) Pi_minus chi(s),

equivalently 2u N_minus chi + (Aslash - m) Pi_minus chi = 0, so the full
spinor solves the Dirac equation exactly; ``dirac_residual`` verifies
this with analytic derivatives.

Wavepackets are finite superpositions over a grid of (u, k2, k3) nodes
with a shared mass: each node carries a Pi_minus amplitude chi0, a
complex weight and a quadrature weight.  The fixed-s scalar product

    (psi | phi)_s = (2 pi)^4 sum_i qw_i <Pi- chi^psi_i(s) | gamma0 Pi- chi^phi_i(s)>

is independent of s because each node evolves by a unit phase; it is the
discretisation of the corresponding momentum-space integral.  Families
over a mass interval add a smooth mass profile eta(m) vanishing at the
interval ends; they feed the mass-oscillation check in ``projector``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import dirac_gamma, lightcone_operators, spin_inner, transverse_slash
from .potential import (
    PhaseQuery,
    PlaneWavePotential,
    _broadcast_fields,
    phase,
    phase_integrand,
    potential_from_descriptor,
    transverse_phase,
)

__all__ = [
    "GridMismatchError",
    "ModeParams",
    "ModeAmplitude",
    "project_pi_minus",
    "evolve_pi_minus",
    "reconstruct_full",
    "mode_wavefunction",
    "dirac_residual",
    "WavePacket",
    "packet_pi_minus",
    "packet_pi_minus_field",
    "null_scalar_product",
    "mass_pairing_identity",
    "DecayReport",
    "null_decay_scan",
    "MassFamily",
    "smooth_bump",
    "packet_to_document",
    "packet_from_document",
    "family_to_document",
    "family_from_document",
    "save_document",
    "load_document",
]

_TWO_PI_4 = (2.0 * np.pi) ** 4

_N_PLUS, _N_MINUS, _PI_PLUS, _PI_MINUS = lightcone_operators()
_GAMMA0 = dirac_gamma(0)
_ID4 = np.eye(4, dtype=complex)


class GridMismatchError(ValueError):
    """Raised when two packets do not share mass and node grid."""


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

    @cached_property
    def query(self) -> PhaseQuery:
        return PhaseQuery(self.k2, self.k3, self.m)


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
        chi0 = np.asarray(self.chi0, dtype=complex)
        if chi0.ndim == 0 or chi0.shape[-1] != 4:
            raise ValueError("amplitude must be a 4-component spinor or a stack of them")
        if not np.isfinite(chi0).all():
            raise ValueError("amplitude must be finite")
        off_range = np.linalg.norm(chi0 @ _PI_MINUS.T - chi0, axis=-1)
        if (off_range > 1e-12 * np.maximum(1.0, np.linalg.norm(chi0, axis=-1))).any():
            raise ValueError("amplitude must lie in the range of Pi_minus; "
                             "use project_pi_minus first")
        object.__setattr__(self, "chi0", chi0)

    @classmethod
    def from_spinor(cls, spinor) -> "ModeAmplitude":
        return cls(project_pi_minus(spinor))


def _vec(x) -> np.ndarray:
    """Per-mode scalars as a factor of (..., 4) spinors."""
    return np.asarray(x)[..., None]


def _mat(x) -> np.ndarray:
    """Per-mode scalars as a factor of (..., 4, 4) spin matrices."""
    return np.asarray(x)[..., None, None]


def _apply(mat, spinor) -> np.ndarray:
    """Spin matrices times spinors, broadcast over leading axes."""
    return (mat @ spinor[..., None])[..., 0]


def evolve_pi_minus(amp: ModeAmplitude, mode: ModeParams, pot: PlaneWavePotential,
                    s, s_from=0.0) -> np.ndarray:
    """Propagate the Pi_minus amplitude from s_from to s (a pure phase)."""
    phi = phase(pot, mode.query, s_from, s)
    return _vec(np.exp(-1j * phi / (4.0 * mode.u))) * amp.chi0


def _completion(mode: ModeParams, aslash) -> np.ndarray:
    """1 - N_plus (Aslash - m) / 2u, mapping Pi_minus chi to the full spinor."""
    return _ID4 - (_N_PLUS @ (aslash - _mat(mode.m) * _ID4)) / _mat(2.0 * mode.u)


def reconstruct_full(pi_minus_chi, mode: ModeParams, pot: PlaneWavePotential,
                     s) -> np.ndarray:
    """Complete a Pi_minus value to the full solution spinor at s.

    The Pi_plus component is fixed by the algebraic constraint
    2u N_minus chi = -(Aslash(s) - m) Pi_minus chi.
    """
    aslash = transverse_slash(mode.k2, mode.k3, pot.a2(s), pot.a3(s))
    return _apply(_completion(mode, aslash), np.asarray(pi_minus_chi, dtype=complex))


def _plane_factor(mode: ModeParams, l, y, z) -> np.ndarray:
    """exp(-i (k2 y + k3 z + u l)), the unit-modulus transverse/longitudinal factor."""
    return np.exp(-1j * (mode.k2 * y + mode.k3 * z + mode.u * l))


def mode_wavefunction(amp: ModeAmplitude, mode: ModeParams, pot: PlaneWavePotential,
                      point) -> np.ndarray:
    """Evaluate the full mode at a point (s, l, y, z) in null coordinates.

    Each coordinate is a scalar or an array over the modes of a batch.
    """
    s, l, y, z = point
    chi = reconstruct_full(evolve_pi_minus(amp, mode, pot, s), mode, pot, s)
    return _vec(_plane_factor(mode, l, y, z)) * chi


def dirac_residual(amp: ModeAmplitude, mode: ModeParams, pot: PlaneWavePotential,
                   point):
    """Euclidean norm of the Dirac operator applied to the mode at a point.

    Uses the analytic s-derivative of the closed-form solution; in null
    coordinates (d_t = d_s + d_l, d_x = d_s - d_l) the plane-wave Dirac
    operator acting on the separated mode reduces to

        [2i N_plus d_s + 2u N_minus + Aslash(s) - m] chi(s)

    times unit-modulus phase factors.  A float for one mode, an array
    of norms for a batch (point coordinates as in mode_wavefunction).
    """
    s, l, y, z = point
    u, m = mode.u, mode.m
    aslash = transverse_slash(mode.k2, mode.k3, pot.a2(s), pot.a3(s))
    aslash_prime = transverse_slash(0.0, 0.0, pot.da2(s), pot.da3(s))

    v = evolve_pi_minus(amp, mode, pot, s)
    v_prime = _vec((-1j / (4.0 * u)) * phase_integrand(pot, mode.query, s)) * v
    completion = _completion(mode, aslash)
    chi = _apply(completion, v)
    chi_prime = _apply(completion, v_prime) - _apply(_N_PLUS @ aslash_prime, v) / _vec(2.0 * u)

    residual = 2j * _apply(_N_PLUS, chi_prime) + _vec(2.0 * u) * _apply(_N_MINUS, chi) \
        + _apply(aslash, chi) - _vec(m) * chi
    # The transverse/longitudinal plane-wave factors are unit modulus and
    # do not change the norm, but keep the evaluation at the requested point.
    norms = np.linalg.norm(_vec(_plane_factor(mode, l, y, z)) * residual, axis=-1)
    return float(norms) if norms.ndim == 0 else norms


# ---------------------------------------------------------------------------
# wavepackets


def _as_node_array(values, n, name, dtype=float):
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class WavePacket:
    """Discrete superposition of modes over a (u, k2, k3) grid, shared mass.

    chi0 holds one Pi_minus amplitude per node (rows), weights the complex
    superposition coefficients and quad_weights the quadrature weights of
    the momentum grid.
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
        u = np.asarray(self.u, dtype=float)
        n = u.shape[0]
        if u.ndim != 1 or n == 0:
            raise ValueError("packet needs at least one node")
        if not np.all(np.isfinite(u)) or np.any(u == 0):
            raise ValueError("packet u must be finite and nonzero")
        k2 = _as_node_array(self.k2, n, "k2")
        k3 = _as_node_array(self.k3, n, "k3")
        nodes = {(float(a), float(b), float(c)) for a, b, c in zip(u, k2, k3)}
        if len(nodes) != n:
            raise ValueError("packet grid nodes must be distinct")
        chi0 = np.asarray(self.chi0, dtype=complex)
        if chi0.shape != (n, 4):
            raise ValueError(f"chi0 must have shape ({n}, 4)")
        proj = chi0 @ _PI_MINUS.T
        if np.max(np.abs(proj - chi0)) > 1e-12 * max(1.0, np.max(np.abs(chi0))):
            raise ValueError("chi0 rows must lie in the range of Pi_minus")
        weights = _as_node_array(self.weights, n, "weights", dtype=complex)
        qw = _as_node_array(self.quad_weights, n, "quad_weights")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "k3", k3)
        object.__setattr__(self, "chi0", chi0)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quad_weights", qw)

    @property
    def n_nodes(self) -> int:
        return self.u.shape[0]

    def mode(self, i: int) -> ModeParams:
        return ModeParams(float(self.k2[i]), float(self.k3[i]), float(self.u[i]), self.m)

    def same_grid_nodes(self, other: "WavePacket") -> bool:
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.k2, other.k2)
            and np.array_equal(self.k3, other.k3)
            and np.array_equal(self.quad_weights, other.quad_weights)
        )

    def same_grid(self, other: "WavePacket") -> bool:
        return self.m == other.m and self.same_grid_nodes(other)


def packet_pi_minus(packet: WavePacket, pot: PlaneWavePotential, s) -> np.ndarray:
    """Weighted, evolved Pi_minus values of all packet nodes at surface s.

    Returns an (n_nodes, 4) array w_i exp(-i Phi_i(0,s)/4u_i) chi0_i; an
    array of surfaces gives one such block per surface, (..., n_nodes, 4).
    """
    s = np.asarray(s, dtype=float)[..., None]
    phases = transverse_phase(pot, packet.k2, packet.k3, 0.0, s) + packet.m * packet.m * s
    factors = packet.weights * np.exp(-1j * phases / (4.0 * packet.u))
    return factors[..., None] * packet.chi0


def packet_pi_minus_field(packet: WavePacket, pot: PlaneWavePotential,
                          s: float, l_values) -> np.ndarray:
    """Pi_minus part of the packet wavefunction at (s, l) for y = z = 0.

    Returns an (n_l, 4) array sum_i qw_i w_i e^{-i u_i l} e^{-i Phi_i/4u_i} chi0_i.
    """
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
    complex for one surface, an array for an array of surfaces.
    """
    if not psi.same_grid(phi):
        raise GridMismatchError("packets must share mass and (u, k2, k3) grid")
    a = packet_pi_minus(psi, pot, s)
    b = packet_pi_minus(phi, pot, s)
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
    chi_a = reconstruct_full(evolve_pi_minus(amp_a, mode_a, pot, s), mode_a, pot, s)
    chi_b = reconstruct_full(evolve_pi_minus(amp_b, mode_b, pot, s), mode_b, pot, s)
    lhs = 2.0 * u * spin_inner(chi_a, chi_b)

    m, mp = mode_a.m, mode_b.m
    osc = np.exp(1j * (m * m - mp * mp) * s / (4.0 * u))
    rhs = (m + mp) * osc * spin_inner(amp_a.chi0, amp_b.chi0 @ _GAMMA0.T)
    return lhs, rhs


# ---------------------------------------------------------------------------
# null-direction decay scan


@dataclass(frozen=True)
class DecayReport:
    """Result of a null-direction decay scan.

    fitted_orders maps each scanned s to the smallest tail exponent seen
    across the l branches; min_order is the minimum over s.  A packet is
    flagged non-decaying when min_order falls below the threshold.
    magnitudes[j, i] is ||Pi_minus psi(s_j, l_i)||, the fitted data.
    """

    s_values: np.ndarray
    l_values: np.ndarray
    magnitudes: np.ndarray
    fitted_orders: np.ndarray
    fit_residuals: np.ndarray
    min_order: float
    threshold: float
    non_decaying: bool

    def summary(self) -> dict:
        return {
            "s_values": self.s_values.tolist(),
            "fitted_orders": self.fitted_orders.tolist(),
            "fit_residuals": self.fit_residuals.tolist(),
            "min_order": self.min_order,
            "threshold": self.threshold,
            "non_decaying": self.non_decaying,
        }


def null_decay_scan(packet: WavePacket, pot: PlaneWavePotential, s_values,
                    l_values, threshold: float = 0.5) -> DecayReport:
    """Fit the |l|^-N tail of ||Pi_minus psi(s, l)|| over an l window.

    l_values are grouped by sign and each branch is fitted separately
    against |l|; the reported order per s is the weaker branch.  A
    single-mode (delta-weight) packet shows no decay and is flagged.
    """
    from .spectral import decay_order_fit

    l_values = np.asarray(l_values, dtype=float)
    if np.any(l_values == 0):
        raise ValueError("decay scan needs l != 0 for a log-log fit")
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    orders = np.empty(s_values.shape)
    residuals = np.empty(s_values.shape)
    magnitudes = np.empty(s_values.shape + l_values.shape)
    for j, s in enumerate(s_values):
        field_values = packet_pi_minus_field(packet, pot, float(s), l_values)
        mags = magnitudes[j] = np.linalg.norm(field_values, axis=1)
        branch_orders = []
        branch_residuals = []
        for branch in (l_values > 0, l_values < 0):
            if np.count_nonzero(branch) >= 8:
                order, resid = decay_order_fit(np.abs(l_values[branch]), mags[branch])
                branch_orders.append(order)
                branch_residuals.append(resid)
        if not branch_orders:
            raise ValueError("decay scan needs at least 8 samples per l branch")
        pick = int(np.argmin(branch_orders))
        orders[j] = branch_orders[pick]
        residuals[j] = branch_residuals[pick]
    min_order = float(np.min(orders))
    return DecayReport(
        s_values=s_values,
        l_values=l_values,
        magnitudes=magnitudes,
        fitted_orders=orders,
        fit_residuals=residuals,
        min_order=min_order,
        threshold=threshold,
        non_decaying=bool(min_order < threshold),
    )


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
    """Family of packets over a mass grid with a smooth mass profile.

    masses sample the open interval (interval[0], interval[1]); eta holds
    the smooth profile values (vanishing at the interval ends) and
    mass_quad_weights the quadrature weights of the mass grid.  All
    per-mass packets must share one (u, k2, k3) node grid.
    """

    interval: tuple[float, float]
    masses: np.ndarray
    eta: np.ndarray
    mass_quad_weights: np.ndarray
    packets: list[WavePacket] = field(default_factory=list)

    def __post_init__(self):
        lo, hi = self.interval
        if not (0 < lo < hi):
            raise ValueError("mass interval must satisfy 0 < lo < hi")
        masses = np.asarray(self.masses, dtype=float)
        n = masses.shape[0]
        if n < 2:
            raise ValueError("mass family needs at least two masses")
        if np.any(masses < lo) or np.any(masses > hi):
            raise ValueError("masses must lie in the closed mass interval")
        if not np.all(np.diff(masses) > 0):
            raise ValueError("masses must be strictly increasing")
        eta = _as_node_array(self.eta, n, "eta")
        qw = _as_node_array(self.mass_quad_weights, n, "mass_quad_weights")
        if len(self.packets) != n:
            raise ValueError("need one packet per mass")
        for m_val, packet in zip(masses, self.packets):
            if packet.m != m_val:
                raise ValueError("packet masses must match the mass grid")
            if not packet.same_grid_nodes(self.packets[0]):
                raise GridMismatchError("family packets must share the node grid")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mass_quad_weights", qw)

    @property
    def node_packet(self) -> WavePacket:
        return self.packets[0]

    def weights_smooth(self, rtol: float = 1e-10) -> bool:
        """Profile effectively vanishes at the sampled interval ends."""
        scale = float(np.max(np.abs(self.eta))) or 1.0
        return abs(self.eta[0]) <= rtol * scale and abs(self.eta[-1]) <= rtol * scale


# ---------------------------------------------------------------------------
# JSON serialisation


def _complex_to_lists(arr: np.ndarray) -> dict:
    return {"re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}


def _complex_from_lists(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def packet_to_document(packet: WavePacket, pot: PlaneWavePotential | None = None) -> dict:
    doc = {
        "type": "wavepacket",
        "mass": packet.m,
        "u": packet.u.tolist(),
        "k2": packet.k2.tolist(),
        "k3": packet.k3.tolist(),
        "chi0": _complex_to_lists(packet.chi0),
        "weights": _complex_to_lists(packet.weights),
        "quad_weights": packet.quad_weights.tolist(),
    }
    if pot is not None:
        doc["potential"] = pot.descriptor()
    return doc


def packet_from_document(doc: dict) -> tuple[WavePacket, PlaneWavePotential | None]:
    if doc.get("type") != "wavepacket":
        raise ValueError("document is not a wavepacket")
    packet = WavePacket(
        m=float(doc["mass"]),
        u=np.asarray(doc["u"], dtype=float),
        k2=np.asarray(doc["k2"], dtype=float),
        k3=np.asarray(doc["k3"], dtype=float),
        chi0=_complex_from_lists(doc["chi0"]),
        weights=_complex_from_lists(doc["weights"]),
        quad_weights=np.asarray(doc["quad_weights"], dtype=float),
    )
    pot = potential_from_descriptor(doc["potential"]) if "potential" in doc else None
    return packet, pot


def family_to_document(family: MassFamily, pot: PlaneWavePotential | None = None) -> dict:
    doc = {
        "type": "massfamily",
        "interval": list(family.interval),
        "masses": family.masses.tolist(),
        "eta": family.eta.tolist(),
        "mass_quad_weights": family.mass_quad_weights.tolist(),
        "packets": [packet_to_document(p) for p in family.packets],
    }
    if pot is not None:
        doc["potential"] = pot.descriptor()
    return doc


def family_from_document(doc: dict) -> tuple[MassFamily, PlaneWavePotential | None]:
    if doc.get("type") != "massfamily":
        raise ValueError("document is not a massfamily")
    packets = [packet_from_document(p)[0] for p in doc["packets"]]
    family = MassFamily(
        interval=tuple(doc["interval"]),
        masses=np.asarray(doc["masses"], dtype=float),
        eta=np.asarray(doc["eta"], dtype=float),
        mass_quad_weights=np.asarray(doc["mass_quad_weights"], dtype=float),
        packets=packets,
    )
    pot = potential_from_descriptor(doc["potential"]) if "potential" in doc else None
    return family, pot


def save_document(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_document(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
