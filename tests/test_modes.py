"""Mode construction, wavepackets, null products, pairing and decay."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion_packet, grid_family, random_packet, random_pi_minus
from volkovfp.clifford import (
    dirac_gamma,
    lightcone_operators,
    spin_inner,
    transverse_slash,
)
from volkovfp.modes import (
    GridMismatchError,
    ModeAmplitude,
    ModeParams,
    WavePacket,
    dirac_residual,
    evolve_pi_minus,
    mass_pairing_identity,
    mode_wavefunction,
    null_decay_scan,
    null_scalar_product,
    packet_pi_minus,
    packet_pi_minus_field,
    phase_factor,
    project_pi_minus,
    reconstruct_full,
    smooth_bump,
)
from volkovfp.potential import (HarmonicPotential, PulsePotential, TabulatedPotential,
                                ZeroPotential, transverse_phase)

N_PLUS, N_MINUS, PI_PLUS, PI_MINUS = lightcone_operators()
ID4 = np.eye(4)


def random_amp(rng):
    return ModeAmplitude(random_pi_minus(rng)[0])


def random_mode(rng, u_sign=None):
    sign = u_sign if u_sign is not None else rng.choice([-1.0, 1.0])
    u = float(sign * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
    return ModeParams(k2=float(rng.normal(0, 0.7)), k3=float(rng.normal(0, 0.7)),
                      u=u, m=float(rng.uniform(0.5, 1.5)))


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ModeParams(0.0, 0.0, -0.5, 0.0)


@pytest.mark.parametrize("fields", [
    (float("nan"), 0.0, -0.5, 1.0), (0.0, float("inf"), -0.5, 1.0),
    (0.0, 0.0, float("-inf"), 1.0), (0.0, 0.0, -0.5, float("inf")),
], ids=["nan-k2", "inf-k3", "inf-u", "inf-m"])
def test_mode_params_reject_non_finite_fields(fields):
    with pytest.raises(ValueError, match="finite"):
        ModeParams(*fields)


@pytest.mark.parametrize("m, u", [(float("inf"), -0.5), (1.0, float("nan"))],
                         ids=["inf-mass", "nan-u"])
def test_packet_rejects_non_finite_mass_or_u(rng, m, u):
    with pytest.raises(ValueError, match="finite"):
        WavePacket(m=m, u=np.array([u]), k2=np.zeros(1), k3=np.zeros(1),
                   chi0=random_pi_minus(rng, 1), weights=np.ones(1, complex),
                   quad_weights=np.ones(1))


def test_amplitude_must_be_pi_minus():
    vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    if np.linalg.norm(PI_MINUS @ vec - vec) > 1e-12:
        with pytest.raises(ValueError):
            ModeAmplitude(vec)
    amp = ModeAmplitude(project_pi_minus(vec))
    assert np.allclose(PI_MINUS @ amp.chi0, amp.chi0)


def test_evolution_is_pure_phase(rng):
    pot = HarmonicPotential(0.2, 1.0)
    for _ in range(20):
        mode = random_mode(rng)
        amp = random_amp(rng)
        s = float(rng.uniform(-5, 5))
        out = evolve_pi_minus(amp, mode, pot, s)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(amp.chi0), rel=1e-14)


def test_evolution_phase_value_zero_potential():
    # k2 = k3 = 0, m = 1, u = -1/2: phase over s = pi is exp(i pi/2) = i
    mode = ModeParams(0.0, 0.0, -0.5, 1.0)
    amp = ModeAmplitude(project_pi_minus(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))
    out = evolve_pi_minus(amp, mode, ZeroPotential(), np.pi)
    assert np.allclose(out, 1j * amp.chi0, atol=1e-15)


def test_evolution_group_property(rng):
    pot = HarmonicPotential(0.3, 1.0)
    mode = random_mode(rng)
    amp = random_amp(rng)
    s1, s2 = 1.3, -2.1
    direct = evolve_pi_minus(amp, mode, pot, s2)
    step1 = evolve_pi_minus(amp, mode, pot, s1)
    rebased = evolve_pi_minus(ModeAmplitude(step1), mode, pot, s2, s_from=s1)
    assert np.max(np.abs(rebased - direct)) < 1e-12


def test_reconstruct_satisfies_algebraic_constraint(rng):
    pot = HarmonicPotential(0.2, 1.0)
    worst = 0.0
    for _ in range(1000):
        mode = random_mode(rng)
        amp = random_amp(rng)
        s = float(rng.uniform(-5, 5))
        chi_minus = evolve_pi_minus(amp, mode, pot, s)
        chi = reconstruct_full(chi_minus, mode, pot, s)
        aslash = transverse_slash(mode.k2, mode.k3, *map(float, pot.field(s)[:2]))
        resid = 2.0 * mode.u * (N_MINUS @ chi) + (aslash - mode.m * ID4) @ (PI_MINUS @ chi)
        worst = max(worst, np.linalg.norm(resid) / np.linalg.norm(chi))
        assert np.max(np.abs(PI_MINUS @ chi - chi_minus)) < 1e-13
    assert worst < 1e-13


def test_reconstruct_zero_potential_form(rng):
    mode = ModeParams(0.0, 0.0, -0.8, 1.1)
    amp = random_amp(rng)
    chi = reconstruct_full(amp.chi0, mode, ZeroPotential(), 0.0)
    # at zero transverse momentum, Pi+ part = (m/2u) N+ chi0
    expected_plus = (mode.m / (2.0 * mode.u)) * (N_PLUS @ amp.chi0)
    assert np.allclose(PI_PLUS @ chi, expected_plus, atol=1e-14)


def test_wavefunction_phases(rng):
    pot = HarmonicPotential(0.2, 1.0)
    mode = random_mode(rng)
    amp = random_amp(rng)
    s = 0.7
    at_origin = mode_wavefunction(amp, mode, pot, (s, 0.0, 0.0, 0.0))
    direct = reconstruct_full(evolve_pi_minus(amp, mode, pot, s), mode, pot, s)
    assert np.allclose(at_origin, direct, atol=1e-14)
    # l-periodicity with period 2 pi / |u|
    period = 2.0 * np.pi / abs(mode.u)
    a = mode_wavefunction(amp, mode, pot, (s, 1.2, 0.3, -0.4))
    b = mode_wavefunction(amp, mode, pot, (s, 1.2 + period, 0.3, -0.4))
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("pot,tol", [
    (ZeroPotential(), 1e-12),
    (HarmonicPotential(0.2, 1.0), 1e-10),
    (PulsePotential(0.2, 1.0, 3.0), 1e-8),
])
def test_dirac_residual_small(rng, pot, tol):
    for _ in range(50):
        mode = random_mode(rng)
        amp = random_amp(rng)
        point = tuple(rng.uniform(-3, 3, size=4))
        resid = dirac_residual(amp, mode, pot, point)
        norm = np.linalg.norm(mode_wavefunction(amp, mode, pot, point))
        assert resid <= tol * norm


def test_dirac_residual_finite_difference_oracle(rng):
    """Central-difference residual converges O(h^2) to the analytic one."""
    pot = HarmonicPotential(0.3, 1.0)
    mode = ModeParams(0.4, -0.2, -0.6, 1.1)
    amp = random_amp(rng)
    s0, l0 = 0.9, 0.0

    def chi_of_s(s):
        return reconstruct_full(evolve_pi_minus(amp, mode, pot, s), mode, pot, s)

    def fd_residual(h):
        dchi = (chi_of_s(s0 + h) - chi_of_s(s0 - h)) / (2.0 * h)
        chi = chi_of_s(s0)
        aslash = transverse_slash(mode.k2, mode.k3, *map(float, pot.field(s0)[:2]))
        resid = 2j * (N_PLUS @ dchi) + 2.0 * mode.u * (N_MINUS @ chi) \
            + (aslash - mode.m * ID4) @ chi
        return np.linalg.norm(resid)

    analytic = dirac_residual(amp, mode, pot, (s0, l0, 0.0, 0.0))
    err1 = abs(fd_residual(1e-3) - analytic)
    err2 = abs(fd_residual(5e-4) - analytic)
    # halving h divides the O(h^2) error by about 4
    assert err2 < err1 / 2.5
    assert err1 < 1e-4


def test_packet_validation(rng):
    with pytest.raises(ValueError):
        WavePacket(m=1.0, u=np.array([0.0]), k2=np.zeros(1), k3=np.zeros(1),
                   chi0=random_pi_minus(rng, 1), weights=np.ones(1, complex),
                   quad_weights=np.ones(1))
    with pytest.raises(ValueError):
        WavePacket(m=1.0, u=np.array([-0.5, -0.5]), k2=np.zeros(2), k3=np.zeros(2),
                   chi0=random_pi_minus(rng, 2), weights=np.ones(2, complex),
                   quad_weights=np.ones(2))
    raw = rng.normal(size=(1, 4)) + 0j  # not in the Pi- range
    if np.max(np.abs(raw @ PI_MINUS.T - raw)) > 1e-9:
        with pytest.raises(ValueError):
            WavePacket(m=1.0, u=np.array([-0.5]), k2=np.zeros(1), k3=np.zeros(1),
                       chi0=raw, weights=np.ones(1, complex), quad_weights=np.ones(1))


def test_null_product_invariance_and_positivity(rng):
    pot = HarmonicPotential(0.3, 1.0)
    worst = 0.0
    for _ in range(10):
        psi = random_packet(rng)
        phi = companion_packet(rng, psi)
        base = null_scalar_product(psi, phi, pot, 0.0)
        for s in np.linspace(-10, 10, 9):
            val = null_scalar_product(psi, phi, pot, float(s))
            worst = max(worst, abs(val - base) / abs(base))
        self_product = null_scalar_product(psi, psi, pot, 1.3)
        assert self_product.real > 0
        assert abs(self_product.imag) <= 1e-14 * self_product.real
        fwd = null_scalar_product(psi, phi, pot, 2.0)
        rev = null_scalar_product(phi, psi, pot, 2.0)
        assert fwd == pytest.approx(np.conj(rev), rel=1e-13)
    assert worst < 1e-10


def test_null_product_single_node_value(rng):
    # single node, unit weight, normalised chi0: product = (2 pi)^4 qw
    chi0 = random_pi_minus(rng, 1)
    qw = 0.37
    packet = WavePacket(m=1.0, u=np.array([-0.5]), k2=np.array([0.1]),
                        k3=np.array([0.0]), chi0=chi0,
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([qw]))
    val = null_scalar_product(packet, packet, ZeroPotential(), 0.0)
    assert val.real == pytest.approx((2.0 * np.pi) ** 4 * qw, rel=1e-14)


def test_null_product_grid_mismatch(rng):
    psi = random_packet(rng, n_nodes=6)
    phi = random_packet(rng, n_nodes=6)
    with pytest.raises(GridMismatchError):
        null_scalar_product(psi, phi, ZeroPotential(), 0.0)


@settings(max_examples=30, deadline=None)
@given(m=st.floats(0.5, 1.5), mp=st.floats(0.5, 1.5), s=st.floats(-4.0, 4.0),
       u=st.floats(-2.0, -0.1), k2=st.floats(-1.0, 1.0))
def test_mass_pairing_identity_property(m, mp, s, u, k2):
    rng = np.random.default_rng(int(abs(hash((m, mp, s, u, k2))) % 2 ** 32))
    pot = HarmonicPotential(0.2, 1.0)
    amp_a, amp_b = random_amp(rng), random_amp(rng)
    lhs, rhs = mass_pairing_identity(amp_a, ModeParams(k2, 0.1, u, m),
                                     amp_b, ModeParams(k2, 0.1, u, mp), pot, s)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_mass_pairing_equal_mass_phase_free(rng):
    pot = HarmonicPotential(0.2, 1.0)
    mode = ModeParams(0.3, 0.0, -0.5, 1.0)
    amp_a, amp_b = random_amp(rng), random_amp(rng)
    lhs0, rhs0 = mass_pairing_identity(amp_a, mode, amp_b, mode, pot, 0.0)
    lhs5, rhs5 = mass_pairing_identity(amp_a, mode, amp_b, mode, pot, 5.0)
    assert rhs0 == pytest.approx(rhs5, rel=1e-12)  # phase factor is one
    assert lhs0 == pytest.approx(lhs5, rel=1e-12)
    assert rhs0 == pytest.approx(2.0 * mode.m * spin_inner(
        amp_a.chi0, dirac_gamma(0) @ amp_b.chi0), rel=1e-13)


def test_mass_pairing_s_dependence_is_pure_phase(rng):
    pot = HarmonicPotential(0.4, 1.0)
    amp_a, amp_b = random_amp(rng), random_amp(rng)
    m, mp, u = 1.0, 1.2, -0.5
    mode_a = ModeParams(0.3, -0.1, u, m)
    mode_b = ModeParams(0.3, -0.1, u, mp)
    lhs0, _ = mass_pairing_identity(amp_a, mode_a, amp_b, mode_b, pot, 0.0)
    s = 2.7
    lhs_s, _ = mass_pairing_identity(amp_a, mode_a, amp_b, mode_b, pot, s)
    expected = np.exp(1j * (m * m - mp * mp) * s / (4.0 * u))
    assert lhs_s / lhs0 == pytest.approx(expected, rel=1e-12)


def test_mass_pairing_requires_shared_transverse(rng):
    amp = random_amp(rng)
    with pytest.raises(ValueError):
        mass_pairing_identity(amp, ModeParams(0.1, 0.0, -0.5, 1.0),
                              amp, ModeParams(0.2, 0.0, -0.5, 1.2),
                              ZeroPotential(), 0.0)


def _gaussian_u_packet(rng, n=160, center=-1.1, sigma=0.04):
    u = np.linspace(-2.0, -0.2, n)
    chi0 = np.tile(random_pi_minus(rng)[0], (n, 1))
    weights = np.exp(-np.square((u - center) / sigma) / 2.0).astype(complex)
    du = u[1] - u[0]
    return WavePacket(m=1.0, u=u, k2=np.full(n, 0.3), k3=np.zeros(n),
                      chi0=chi0, weights=weights, quad_weights=np.full(n, du))


def test_decay_scan_smooth_weights(rng):
    packet = _gaussian_u_packet(rng)
    l_grid = np.geomspace(20.0, 200.0, 40)
    l_both = np.concatenate([l_grid, -l_grid])
    report_zero = null_decay_scan(packet, ZeroPotential(), [-5.0, 0.0, 5.0], l_both)
    assert report_zero.min_order >= 4.0
    assert not report_zero.non_decaying
    report_harm = null_decay_scan(packet, HarmonicPotential(0.2, 1.0),
                                  [-5.0, 0.0, 5.0], l_both)
    assert report_harm.min_order >= 4.0
    assert abs(report_harm.min_order - report_zero.min_order) <= 0.1 * report_zero.min_order
    # the report carries the magnitudes it fitted, for its CSV
    assert np.array_equal(report_harm.l_values, l_both)
    for s, mags in zip(report_harm.s_values, report_harm.magnitudes):
        field = packet_pi_minus_field(packet, HarmonicPotential(0.2, 1.0), s, l_both)
        assert np.array_equal(mags, np.linalg.norm(field, axis=1))


def test_decay_scan_flags_single_mode(rng):
    chi0 = random_pi_minus(rng, 1)
    packet = WavePacket(m=1.0, u=np.array([-0.5]), k2=np.array([0.3]),
                        k3=np.array([0.0]), chi0=chi0,
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([1.0]))
    l_grid = np.geomspace(20.0, 200.0, 24)
    report = null_decay_scan(packet, ZeroPotential(), [0.0], l_grid)
    assert report.non_decaying
    assert abs(report.min_order) < 1e-6


def test_decay_scan_needs_enough_samples(rng):
    packet = _gaussian_u_packet(rng, n=40)
    with pytest.raises(ValueError):
        null_decay_scan(packet, ZeroPotential(), [0.0], np.geomspace(20, 200, 5))
    with pytest.raises(ValueError):
        null_decay_scan(packet, ZeroPotential(), [0.0], np.array([0.0, 1.0, 2.0]))


def test_family_validation_and_roundtrip(rng):
    family = grid_family(rng)
    assert family.weights_smooth()
    # the node-count contract of the first-mass packet view
    assert family.node_packet.n_nodes == family.n_nodes == 20
    with pytest.raises(ValueError, match="0 < lo < hi"):
        replace(family, interval=(0.0, 1.2))


def _off_range_at_last_mass(chi0):
    chi0 = chi0.copy()
    chi0[-1, 3] = [1.0, 0.0, 0.0, 0.0]
    return chi0


def _repeated_node(k3):
    k3 = k3.copy()
    k3[1] = k3[0]  # nodes 0 and 1 differ only in k3
    return k3


def _nan_weight(weights):
    weights = weights.copy()
    weights[4, 7] = np.nan
    return weights


@pytest.mark.parametrize("field, edit, match", [
    ("chi0", _off_range_at_last_mass, "chi0 rows must lie in the range of Pi_minus"),
    ("weights", lambda w: w[0], r"weights must have shape \(13, 20\)"),
    ("weights", _nan_weight, "weights must be finite"),
    ("k3", _repeated_node, r"\(u, k2, k3\) nodes must be distinct"),
    ("masses", lambda m: m + 0.05, "masses must lie in the closed mass interval"),
], ids=["chi0-off-range-at-last-mass", "weights-per-node-only", "nan-weight",
        "repeated-node", "mass-outside-interval"])
def test_family_rejects_malformed_field(rng, field, edit, match):
    family = grid_family(rng)
    with pytest.raises(ValueError, match=match):
        replace(family, **{field: edit(getattr(family, field))})


def test_smooth_bump_properties():
    x = np.linspace(0.8, 1.2, 21)
    eta = smooth_bump(x, 0.8, 1.2)
    assert eta[0] == 0.0 and eta[-1] == 0.0
    assert eta[10] == pytest.approx(1.0)
    assert np.all(eta >= 0.0)
    assert np.all(smooth_bump(np.array([0.79, 1.21]), 0.8, 1.2) == 0.0)


# ---------------------------------------------------------------------------
# batched evaluation: one call over a leading mode axis equals per-mode calls


def random_batch(rng, n=40):
    """n random modes of both signs of u as one batch, plus amplitudes and points."""
    u = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(np.log(0.1), np.log(2.0), n))
    mode = ModeParams(k2=rng.normal(0, 0.7, n), k3=rng.normal(0, 0.7, n), u=u,
                      m=rng.uniform(0.5, 1.5, n))
    amp = ModeAmplitude(random_pi_minus(rng, n))
    points = rng.uniform(-3.0, 3.0, size=(4, n))
    return mode, amp, points


def split(mode, amp):
    """The batch as per-mode scalar ModeParams / ModeAmplitude pairs."""
    for i in range(mode.u.shape[0]):
        yield (ModeParams(float(mode.k2[i]), float(mode.k3[i]), float(mode.u[i]),
                          float(mode.m[i])), ModeAmplitude(amp.chi0[i]))


@pytest.mark.parametrize("pot", [HarmonicPotential(0.2, 1.0), PulsePotential(0.3, 1.0, 2.0)],
                         ids=["harmonic", "pulse"])
def test_batched_mode_functions_match_scalar_calls(rng, pot):
    mode, amp, points = random_batch(rng)
    assert np.any(mode.u < 0) and np.any(mode.u > 0)
    s = points[0]
    evolved = evolve_pi_minus(amp, mode, pot, s)
    full = reconstruct_full(evolved, mode, pot, s)
    wave = mode_wavefunction(amp, mode, pot, points)
    resid = dirac_residual(amp, mode, pot, points)
    assert evolved.shape == full.shape == wave.shape == (40, 4) and resid.shape == (40,)
    for i, (mode_i, amp_i) in enumerate(split(mode, amp)):
        point = tuple(points[:, i])
        evolved_i = evolve_pi_minus(amp_i, mode_i, pot, point[0])
        assert np.max(np.abs(evolved[i] - evolved_i)) <= 1e-13
        assert np.max(np.abs(full[i] - reconstruct_full(evolved_i, mode_i, pot, point[0]))) \
            <= 1e-13
        assert np.max(np.abs(wave[i] - mode_wavefunction(amp_i, mode_i, pot, point))) <= 1e-13
        resid_i = dirac_residual(amp_i, mode_i, pot, point)
        assert isinstance(resid_i, float)
        assert abs(resid[i] - resid_i) <= 1e-13


@pytest.mark.parametrize("pot", [HarmonicPotential(0.2, 1.0), PulsePotential(0.3, 1.0, 2.0)],
                         ids=["harmonic", "pulse"])
def test_phase_factor_unit_modulus_and_composes(rng, pot):
    mode, _, points = random_batch(rng)
    a, b, c = points[:3]
    ab = phase_factor(mode, pot, a, b)
    assert ab.shape == (40,)
    assert np.max(np.abs(np.abs(ab) - 1.0)) <= 1e-15
    composed = ab * phase_factor(mode, pot, b, c)
    assert np.max(np.abs(composed - phase_factor(mode, pot, a, c))) <= 1e-13


def test_phase_factor_is_the_exact_phase_formula(rng):
    # bit for bit exp(-i (transverse phase + m^2 ds) / 4u), for a mode batch
    # and for a packet's nodes at a column of surfaces
    pot = PulsePotential(0.3, 1.0, 2.0)
    mode, _, points = random_batch(rng)
    s_from, s = points[:2]
    expected = np.exp(-1j * (transverse_phase(pot, mode.k2, mode.k3, s_from, s)
                             + mode.m * mode.m * (s - s_from)) / (4.0 * mode.u))
    assert np.array_equal(phase_factor(mode, pot, s_from, s), expected)

    packet = random_packet(rng)
    s = rng.uniform(-3.0, 3.0, (5, 1))
    expected = np.exp(-1j * (transverse_phase(pot, packet.k2, packet.k3, 0.0, s)
                             + packet.m * packet.m * (s - 0.0)) / (4.0 * packet.u))
    got = phase_factor(packet, pot, 0.0, s)
    assert got.shape == (5, packet.n_nodes)
    assert np.array_equal(got, expected)


def test_batched_mass_pairing_matches_scalar_calls(rng):
    pot = HarmonicPotential(0.5, 1.0)
    mode_a, amp_a, points = random_batch(rng)
    mode_b = ModeParams(mode_a.k2, mode_a.k3, mode_a.u, rng.uniform(0.6, 1.4, 40))
    amp_b = ModeAmplitude(random_pi_minus(rng, 40))
    s = 5.0 * points[0] / 3.0
    lhs, rhs = mass_pairing_identity(amp_a, mode_a, amp_b, mode_b, pot, s)
    for i, ((ma, aa), (mb, ab)) in enumerate(zip(split(mode_a, amp_a), split(mode_b, amp_b))):
        lhs_i, rhs_i = mass_pairing_identity(aa, ma, ab, mb, pot, float(s[i]))
        assert abs(lhs[i] - lhs_i) <= 1e-13 and abs(rhs[i] - rhs_i) <= 1e-13
    with pytest.raises(ValueError, match="share"):
        shifted = ModeParams(mode_a.k2 + 1e-3, mode_a.k3, mode_a.u, mode_b.m)
        mass_pairing_identity(amp_a, mode_a, amp_b, shifted, pot, s)


def test_null_product_over_an_array_of_surfaces(rng):
    pot = HarmonicPotential(0.3, 1.0)
    psi = random_packet(rng, n_nodes=8)
    phi = companion_packet(rng, psi)
    surfaces = np.array([0.0, -7.5, 2.5, 10.0])
    values = null_scalar_product(psi, phi, pot, surfaces)
    assert values.shape == (4,)
    for s, value in zip(surfaces, values):
        single = null_scalar_product(psi, phi, pot, float(s))
        assert isinstance(single, complex)
        assert abs(value - single) <= 1e-13 * abs(single)


SURFACE_PROFILES = pytest.mark.parametrize(
    "pot", [HarmonicPotential(0.3, 1.0), PulsePotential(0.3, 1.0, 2.0)], ids=["harmonic", "pulse"])


@SURFACE_PROFILES
def test_packet_field_over_an_array_of_surfaces(rng, pot):
    packet = random_packet(rng, n_nodes=8)
    surfaces = np.array([0.0, -7.5, 2.5, 10.0])
    l_values = np.concatenate([np.geomspace(20.0, 200.0, 9), -np.geomspace(20.0, 200.0, 9)])
    field = packet_pi_minus_field(packet, pot, surfaces, l_values)
    assert field.shape == (4, 18, 4)
    expected = np.stack([packet_pi_minus_field(packet, pot, float(s), l_values)
                         for s in surfaces])
    assert np.array_equal(field, expected)


@SURFACE_PROFILES
def test_null_product_pairs_the_two_packets_evolutions(rng, pot):
    """Both packets share one node phase; the result is bit for bit the
    pairing of their separately evolved Pi_minus values."""
    psi = random_packet(rng, n_nodes=8)
    phi = companion_packet(rng, psi)
    surfaces = np.array([0.0, -7.5, 2.5, 10.0])
    a = packet_pi_minus(psi, pot, surfaces)
    b = packet_pi_minus(phi, pot, surfaces)
    pairing = np.sum(np.conj(a) * b, axis=-1)
    expected = (2.0 * np.pi) ** 4 * np.sum(psi.quad_weights * pairing, axis=-1)
    assert np.array_equal(null_scalar_product(psi, phi, pot, surfaces), expected)


_TAB_GRID = np.linspace(-12.0, 12.0, 49)
BATCH_PROFILES = pytest.mark.parametrize("pot", [
    HarmonicPotential(0.3, 1.0), PulsePotential(0.3, 1.0, 2.0),
    TabulatedPotential(_TAB_GRID, 0.3 * np.cos(_TAB_GRID), 0.1 * np.sin(_TAB_GRID)),
], ids=["harmonic", "pulse", "tabulated"])
_PACKET_ARRAYS = ("u", "k2", "k3", "chi0", "weights", "quad_weights")


def _batch(packets, shape):
    """Packets of one mass as one batch with leading axes `shape`."""
    return WavePacket(packets[0].m, *(
        np.stack([getattr(p, name) for p in packets]).reshape(*shape, *getattr(packets[0], name).shape)
        for name in _PACKET_ARRAYS))


@BATCH_PROFILES
@pytest.mark.parametrize("shape", [(5,), (2, 3)], ids=str)
def test_null_product_of_a_batch_matches_the_packet_loop(rng, pot, shape):
    n_packets = int(np.prod(shape))
    psis = [random_packet(rng, n_nodes=6) for _ in range(n_packets)]
    phis = [companion_packet(rng, psi) for psi in psis]
    psi, phi = _batch(psis, shape), _batch(phis, shape)
    assert psi.n_nodes == 6 and psi.chi0.shape == (*shape, 6, 4)
    surfaces = np.array([0.0, -7.5, 2.5, 10.0])
    expected = np.stack([null_scalar_product(a, b, pot, surfaces) for a, b in zip(psis, phis)],
                        axis=-1).reshape(4, *shape)
    assert np.array_equal(null_scalar_product(psi, phi, pot, surfaces), expected)
    assert np.array_equal(null_scalar_product(psi, phi, pot, 2.5), expected[2])
    values = packet_pi_minus(psi, pot, surfaces)
    assert values.shape == (4, *shape, 6, 4)
    assert np.array_equal(values.reshape(4, n_packets, 6, 4)[:, 1],
                          packet_pi_minus(psis[1], pot, surfaces))


def test_nodes_are_distinct_per_packet_of_a_batch(rng):
    batch = _batch([random_packet(rng, n_nodes=4) for _ in range(3)], (3,))
    # every packet on the first packet's nodes: the batch is fine
    shared = {name: np.repeat(getattr(batch, name)[:1], 3, axis=0) for name in ("u", "k2", "k3")}
    assert replace(batch, **shared).n_nodes == 4
    # the last packet repeats its node 0 as node 2
    for name in shared:
        shared[name][2, 2] = shared[name][2, 0]
    with pytest.raises(ValueError, match=r"\(u, k2, k3\) nodes must be distinct"):
        replace(batch, **shared)
    # twins apart in every one of u, k2 and k3 order alone
    u, k2, k3 = (np.array([[-0.5, -0.5, -0.7, -0.5]]), np.array([[0.0, 1.0, 0.0, 0.0]]),
                 np.array([[0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="nodes must be distinct"):
        WavePacket(1.0, u, k2, k3, np.zeros((1, 4, 4)), np.ones((1, 4)), np.ones((1, 4)))


def test_field_and_family_take_one_grid(rng):
    batch = _batch([random_packet(rng, n_nodes=4) for _ in range(2)], (2,))
    with pytest.raises(ValueError, match="not a batch"):
        packet_pi_minus_field(batch, ZeroPotential(), 0.0, [20.0, 40.0])
    family = grid_family(rng)
    with pytest.raises(ValueError, match="one 1-D array of nodes"):
        replace(family, **{name: getattr(family, name)[None]
                           for name in ("u", "k2", "k3", "quad_weights")})


@pytest.mark.parametrize("bad_u", [0.0, float("nan"), float("inf")], ids=["zero", "nan", "inf"])
def test_batch_with_one_bad_u_is_rejected(rng, bad_u):
    mode, _, _ = random_batch(rng, n=5)
    u = mode.u.copy()
    u[3] = bad_u
    with pytest.raises(ValueError, match="nonzero|finite"):
        ModeParams(mode.k2, mode.k3, u, mode.m)


def test_batch_amplitudes_validated_per_row(rng):
    chi0 = random_pi_minus(rng, 5)
    assert ModeAmplitude(chi0).chi0.shape == (5, 4)
    chi0[2] = [1.0, 0.0, 0.0, 0.0]  # leaves the range of Pi_minus
    with pytest.raises(ValueError, match="Pi_minus"):
        ModeAmplitude(chi0)
    with pytest.raises(ValueError, match="4-component"):
        ModeAmplitude(np.zeros((5, 3)))


def test_tabulated_batch_with_one_point_out_of_range_raises(rng):
    from volkovfp.potential import PotentialDomainError, TabulatedPotential

    grid = np.linspace(-2.0, 2.0, 41)
    pot = TabulatedPotential(grid, 0.1 * np.cos(grid))
    mode, amp, points = random_batch(rng, n=6)
    points[0] = np.linspace(-1.5, 1.5, 6)
    assert dirac_residual(amp, mode, pot, points).shape == (6,)
    points[0, 4] = 2.5
    with pytest.raises(PotentialDomainError):
        dirac_residual(amp, mode, pot, points)


def test_completion_is_the_matrix_product_bit_for_bit(rng):
    """The completion and its s-derivative come from constant products
    N_plus gamma2 and N_plus gamma3; on finite stacks they equal the matrix
    products exactly, so the dirac-residual, mass-pairing and null-product
    artifacts keep their bytes."""
    from volkovfp.modes import _completion, _n_plus_slash

    n = 400
    t2, t3 = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-100.0, 100.0, (2, n))
    t2[::7] = 0.0
    mode = ModeParams(0.0, 0.0, rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n),
                      10.0 ** rng.uniform(-3.0, 3.0, n))
    slash = transverse_slash(t2, t3)
    assert np.array_equal(_n_plus_slash(t2, t3), N_PLUS @ slash)
    m, two_u = (np.asarray(x)[:, None, None] for x in (mode.m, 2.0 * mode.u))
    assert np.array_equal(_completion(mode, t2, t3), ID4 - (N_PLUS @ (slash - m * ID4)) / two_u)
