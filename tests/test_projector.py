"""Green's functions, causal kernel, projector kernel, mass oscillation."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import grid_family, random_pi_minus
from volkovfp.clifford import dirac_gamma, lightcone_operators, spin_adjoint, transverse_slash
from volkovfp import potential, projector
from volkovfp.modes import (
    GridMismatchError,
    MassFamily,
    ModeAmplitude,
    ModeParams,
    dirac_residual,
    mass_pairing_identity,
    smooth_bump,
)
from volkovfp.potential import (
    HarmonicPotential,
    PlaneWavePotential,
    PulsePotential,
    TabulatedPotential,
    ZeroPotential,
    phase_integrand,
    transverse_phase,
)
from volkovfp.projector import (
    SmearedProfile,
    causal_fundamental_momentum,
    extrapolate_to_zero,
    fp_kernel_momentum,
    fp_pair_smeared,
    fp_scalar_a,
    green_ab,
    mass_oscillation_check,
    signature_sign,
    wave_slice,
)
from volkovfp.quadrature import UndersampledGridError

TWO_PI_3 = (2.0 * np.pi) ** 3
TWO_PI_4 = (2.0 * np.pi) ** 4
N_PLUS, N_MINUS, PI_PLUS, PI_MINUS = lightcone_operators()
ID4 = np.eye(4)

POT = HarmonicPotential(0.2, 1.0)
MODE = ModeParams(k2=0.3, k3=-0.1, u=-0.5, m=1.0)


RETARDED, ADVANCED = 0, 1  # positions in the pair green_ab returns


def _slash_plus_m(mode, pot, s):
    """Aslash(s) + m, one matrix per mode."""
    return transverse_slash(mode.k2, mode.k3, *pot.field(s)[:2]) \
        + np.asarray(mode.m)[..., None, None] * ID4


def _assembled(a, b, mode, slash_m):
    """The matrix oracle of every kernel, N- a + Pi- b + (S/2u)(N+ b + Pi+ a)
    with S = slash_m = Aslash(s) + m, in explicit 4x4 products."""
    a = np.asarray(a)[..., None, None]
    front = slash_m / np.asarray(2.0 * mode.u)[..., None, None]
    return N_MINUS * a + PI_MINUS @ b + front @ (N_PLUS @ b + PI_PLUS * a)


def test_green_supports():
    ret, adv = green_ab(MODE, wave_slice(MODE, POT, 1.0, 2.0))
    assert ret.a == 0.0 and ret.beta == 0.0 and adv.a != 0.0 and adv.beta != 0.0
    ret, adv = green_ab(MODE, wave_slice(MODE, POT, 3.0, 2.0))
    assert adv.a == 0.0 and adv.beta == 0.0 and ret.a != 0.0 and ret.beta != 0.0


def test_green_value_at_source():
    ret, adv = green_ab(MODE, wave_slice(MODE, ZeroPotential(), 2.0, 2.0))
    assert ret.a == pytest.approx(-1j / TWO_PI_3)
    assert adv.a == pytest.approx(1j / TWO_PI_3)
    # jump of the retarded scalar across the diagonal
    below = green_ab(MODE, wave_slice(MODE, POT, 0.5 - 1e-12, 0.5))[RETARDED].a
    at = green_ab(MODE, wave_slice(MODE, POT, 0.5, 0.5))[RETARDED].a
    assert at - below == pytest.approx(-1j / TWO_PI_3, rel=1e-9)


def _scalar_ode_residual(which, s, s_tilde, h=1e-5):
    def a_at(x):
        return green_ab(MODE, wave_slice(MODE, POT, x, s_tilde))[which].a

    da = (a_at(s + h) - a_at(s - h)) / (2.0 * h)
    lhs = 4j * MODE.u * da
    rhs = phase_integrand(POT, MODE.k2, MODE.k3, MODE.m, s) * a_at(s)
    return abs(lhs - rhs) / abs(rhs)


def test_green_scalar_ode_off_diagonal():
    assert _scalar_ode_residual(RETARDED, 1.7, 0.5) < 1e-9
    assert _scalar_ode_residual(ADVANCED, -0.7, 0.5) < 1e-9


def test_green_scalar_ode_analytic_derivative():
    # d/ds of the closed form is -(i/4u) q(s) a(s), so the residual of
    # 4iu a' = q a built from the analytic derivative vanishes identically
    s, s_tilde = 1.7, 0.5
    a = green_ab(MODE, wave_slice(MODE, POT, s, s_tilde))[RETARDED].a
    q = phase_integrand(POT, MODE.k2, MODE.k3, MODE.m, s)
    da = (-1j / (4.0 * MODE.u)) * q * a
    assert abs(4j * MODE.u * da - q * a) <= 1e-10 * abs(q * a)


def test_green_matrix_ode_off_diagonal():
    s_tilde, s, h = 0.5, 1.9, 1e-5

    def b_at(x):
        beta = green_ab(MODE, wave_slice(MODE, POT, x, s_tilde))[RETARDED].beta
        return beta * _slash_plus_m(MODE, POT, s_tilde)

    db = (b_at(s + h) - b_at(s - h)) / (2.0 * h)
    lhs = 4j * MODE.u * db
    rhs = phase_integrand(POT, MODE.k2, MODE.k3, MODE.m, s) * b_at(s)
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-9


def test_causal_kernel_continuous_across_diagonal():
    s_tilde = 0.5
    at = causal_fundamental_momentum(MODE, wave_slice(MODE, POT, s_tilde, s_tilde))
    lo = causal_fundamental_momentum(MODE, wave_slice(MODE, POT, s_tilde - 1e-10, s_tilde))
    hi = causal_fundamental_momentum(MODE, wave_slice(MODE, POT, s_tilde + 1e-10, s_tilde))
    assert np.max(np.abs(hi - lo)) <= 1e-12
    assert np.max(np.abs(hi - at)) <= 1e-12
    assert np.max(np.abs(lo - at)) <= 1e-12


def test_causal_kernel_solves_source_free_system():
    """Columns of the kernel satisfy the separated first-order system in s."""
    s_tilde, s, h = -0.3, 1.1, 1e-5

    def kernel(x):
        return causal_fundamental_momentum(MODE, wave_slice(MODE, POT, x, s_tilde))

    dk = (kernel(s + h) - kernel(s - h)) / (2.0 * h)
    aslash = transverse_slash(MODE.k2, MODE.k3, *map(float, POT.field(s)[:2]))
    resid = 2j * (N_PLUS @ dk) + 2.0 * MODE.u * (N_MINUS @ kernel(s)) \
        + (aslash - MODE.m * ID4) @ kernel(s)
    assert np.max(np.abs(resid)) / np.max(np.abs(kernel(s))) < 1e-9


def test_causal_kernel_scaling_against_green_difference():
    # multiplying the kernel by 2 pi i reproduces the assembled bare
    # Green's-function difference
    for s, s_tilde in ((1.3, -0.4), (-2.0, 0.7)):
        k = causal_fundamental_momentum(MODE, wave_slice(MODE, POT, s, s_tilde))
        ret, adv = green_ab(MODE, wave_slice(MODE, POT, s, s_tilde))
        b = (adv.beta - ret.beta) * _slash_plus_m(MODE, POT, s_tilde)
        bare = _assembled(adv.a - ret.a, b, MODE, _slash_plus_m(MODE, POT, s))
        assert np.max(np.abs(2j * np.pi * k - bare)) <= 1e-15


def test_signature_sign():
    assert signature_sign(-0.5) == -1
    assert signature_sign(3.0) == 1
    with pytest.raises(ValueError):
        signature_sign(0.0)
    u_grid = np.array([-1.0, -0.5, 2.0])
    proj = (1 - np.array([signature_sign(u) for u in u_grid])) / 2
    assert np.array_equal(proj * proj, proj)


def test_fp_kernel_requires_negative_u():
    positive = ModeParams(0.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        fp_kernel_momentum(positive, wave_slice(positive, POT, 0.0, 0.0))
    with pytest.raises(ValueError):
        fp_scalar_a(positive, POT, 0.0, 0.0)


def test_fp_scalar_at_coincidence_exact():
    assert complex(fp_scalar_a(MODE, POT, 0.7, 0.7)) == (1.0 / TWO_PI_4) + 0.0j


def test_fp_equals_minus_sign_times_causal(rng):
    worst = 0.0
    for _ in range(50):
        mode = ModeParams(float(rng.normal(0, 0.7)), float(rng.normal(0, 0.7)),
                          -float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
                          float(rng.uniform(0.5, 1.5)))
        s, s_tilde = rng.uniform(-3, 3, size=2)
        p = fp_kernel_momentum(mode, wave_slice(mode, POT, float(s), float(s_tilde)))
        k = causal_fundamental_momentum(mode, wave_slice(mode, POT, float(s), float(s_tilde)))
        gap = np.max(np.abs(p - (-signature_sign(mode.u)) * k))
        worst = max(worst, gap / np.max(np.abs(p)))
    assert worst < 1e-12


def test_fp_spin_adjoint_symmetry(rng):
    worst = 0.0
    for _ in range(50):
        mode = ModeParams(float(rng.normal(0, 0.7)), float(rng.normal(0, 0.7)),
                          -float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
                          float(rng.uniform(0.5, 1.5)))
        s, s_tilde = rng.uniform(-3, 3, size=2)
        p = fp_kernel_momentum(mode, wave_slice(mode, POT, float(s), float(s_tilde)))
        q = fp_kernel_momentum(mode, wave_slice(mode, POT, float(s_tilde), float(s)))
        gap = np.max(np.abs(spin_adjoint(p) - q)) / np.max(np.abs(p))
        worst = max(worst, gap)
    assert worst < 1e-12


def test_fp_zero_potential_single_frequency():
    mode = ModeParams(0.3, 0.0, -0.5, 1.0)
    v0 = (mode.k2 ** 2 + mode.k3 ** 2 + mode.m ** 2) / (4.0 * mode.u)
    for s in (0.5, 2.0, -3.3):
        a_val = complex(fp_scalar_a(mode, ZeroPotential(), s, 0.0))
        assert a_val == pytest.approx(np.exp(-1j * v0 * s) / TWO_PI_4, rel=1e-13)


def test_extrapolate_to_zero_polynomial():
    xs = [0.4, 0.2, 0.1]
    ys = [7.0 + 3.0 * x - 2.0 * x * x for x in xs]
    assert extrapolate_to_zero(xs, ys) == pytest.approx(7.0, rel=1e-12)


def test_repeated_abscissae_rejected(rng):
    with pytest.raises(ValueError, match="distinct"):
        extrapolate_to_zero([0.1, 0.1, 0.05], [1.0, 1.0, 2.0])
    fam = grid_family(rng, (0.8, 1.2), n_masses=5, k_grid=(-0.3, 0.3, 1))
    with pytest.raises(ValueError, match="repeat"):
        mass_oscillation_check(fam, fam, POT, epsilons=(0.1, 0.1, 0.05))


def test_vanishing_regulator_rejected_before_allocating(rng):
    """A regulator under which no two adjacent masses couple is refused up front."""
    fam = grid_family(rng, (0.8, 1.2), n_masses=5, k_grid=(-0.3, 0.3, 1))
    with pytest.raises(ValueError, match="decouples adjacent masses"):
        mass_oscillation_check(fam, fam, POT, epsilons=(1e-300, 2e-300))


# ---------------------------------------------------------------------------
# mass oscillation


def test_mass_oscillation_diagonal(rng):
    fam = grid_family(rng, (0.8, 1.2))
    result = mass_oscillation_check(fam, fam, POT)
    assert result.relative_gap <= 1e-2
    # all u < 0: rhs is minus a positive quantity
    assert result.rhs.real < 0
    assert abs(result.rhs.imag) < 1e-12 * abs(result.rhs)
    assert np.sign(result.lhs.real) == np.sign(result.rhs.real)


def test_mass_oscillation_disjoint_supports(rng):
    fam_lo = grid_family(rng, (0.8, 0.88))
    fam_hi = grid_family(rng, (1.12, 1.2))
    fam = grid_family(rng, (0.8, 1.2))
    base = mass_oscillation_check(fam, fam, POT)
    null = mass_oscillation_check(fam_lo, fam_hi, POT)
    assert abs(null.rhs) == 0.0
    assert abs(null.lhs) <= 1e-3 * abs(base.lhs)


def test_mass_oscillation_grid_checks(rng):
    fam = grid_family(rng, (0.8, 1.2))
    other = grid_family(rng, (0.8, 1.2), u_grid=(-0.2, -0.15, 5))
    with pytest.raises(GridMismatchError):
        mass_oscillation_check(fam, other, POT)

    bad = replace(fam, eta=np.ones_like(fam.eta))  # does not vanish at the ends
    with pytest.raises(ValueError, match="vanish"):
        mass_oscillation_check(bad, bad, POT)


def test_mass_oscillation_epsilon_path_matches_analytic(rng):
    """The regulated s-quadrature agrees with the exact Gaussian integral."""
    fam = grid_family(rng, (0.8, 1.2), n_masses=9, u_grid=(-0.08, -0.06, 5),
                      k_grid=(-0.3, 0.3, 1))
    eps = 0.05
    result = mass_oscillation_check(fam, fam, POT, epsilons=(eps,))

    masses = fam.masses
    mw = fam.mass_quad_weights
    total = 0.0 + 0.0j
    for i in range(fam.n_nodes):
        u = float(fam.u[i])
        chi = fam.chi0[:, i]
        inner = np.einsum("mc,nc->mn", np.conj(chi), chi)
        msq = masses ** 2
        omega = (msq[:, None] - msq[None, :]) / (4.0 * u)
        gaussian = np.sqrt(np.pi / eps) * np.exp(-np.square(omega) / (4.0 * eps))
        mass_sum = (masses[:, None] + masses[None, :]) / (2.0 * u)
        pref = (mw * fam.eta)[:, None] * (mw * fam.eta)[None, :]
        total += 4.0 * np.pi ** 3 * fam.quad_weights[i] * np.einsum(
            "mn,mn,mn,mn->", pref, mass_sum, inner, gaussian)
    assert result.lhs_by_epsilon[0] == pytest.approx(total, rel=1e-13)


def _brute_force_lhs(fam_psi, fam_phi, pot, epsilons, tail=1e-14, points_per_osc=8):
    """Regulated spacetime pairing from the full (m, n, s) pairing tensor."""
    masses = fam_psi.masses
    mw = fam_psi.mass_quad_weights
    half_width = np.sqrt(np.log(1.0 / tail) / min(epsilons))
    out = np.zeros(len(epsilons), dtype=complex)
    for i in range(fam_psi.n_nodes):
        u, k2, k3 = fam_psi.u[i], fam_psi.k2[i], fam_psi.k3[i]
        beat_max = (masses[-1] ** 2 - masses[0] ** 2) / (4.0 * abs(u))
        ds = 2.0 * np.pi / (points_per_osc * (beat_max + 1.0))
        n_half = int(np.ceil(half_width / ds))
        s_grid = ds * np.arange(-n_half, n_half + 1)
        base = transverse_phase(pot, k2, k3, 0.0, s_grid)
        osc = np.exp(-1j * (base[None, :] + np.square(masses)[:, None] * s_grid) / (4.0 * u))
        slash = np.array([transverse_slash(k2, k3, *pot.field(s)[:2]) for s in s_grid])

        def completed(family):
            chi0 = family.chi0[:, i]
            ops = ID4 - N_PLUS @ (slash[None] - masses[:, None, None, None] * ID4) / (2.0 * u)
            return np.einsum("mscd,md->msc", ops, chi0)

        pairing = np.einsum("msc,cd,nsd->mns", np.conj(completed(fam_psi)),
                            dirac_gamma(0), completed(fam_phi))
        w_psi, w_phi = fam_psi.weights[:, i], fam_phi.weights[:, i]
        left = (mw * fam_psi.eta * np.conj(w_psi))[:, None] * np.conj(osc)
        right = (mw * fam_phi.eta * w_phi)[:, None] * osc
        for j, eps in enumerate(epsilons):
            s_w = ds * np.exp(-eps * np.square(s_grid))
            out[j] += 4.0 * np.pi ** 3 * fam_psi.quad_weights[i] * np.einsum(
                "ms,ns,mns,s->", left, right, pairing, s_w)
    return out


def test_mass_oscillation_matches_brute_force_contraction(rng):
    masses = np.linspace(0.8, 1.2, 7)
    n = 6
    u = -rng.uniform(0.06, 0.2, n)
    k2 = rng.normal(0.0, 0.3, n)
    k3 = rng.normal(0.0, 0.3, n)
    qw = rng.uniform(0.1, 1.0, n)

    def family(eta):
        draws = [(random_pi_minus(rng, n), rng.normal(size=n) + 1j * rng.normal(size=n))
                 for _ in masses]
        chi0, weights = (np.array(column) for column in zip(*draws))
        return MassFamily(masses=masses, eta=eta,
                          mass_quad_weights=np.full(masses.size, 0.4 / 6),
                          u=u, k2=k2, k3=k3, quad_weights=qw, chi0=chi0, weights=weights)

    bump = smooth_bump(masses, 0.8, 1.2)
    fam_psi = family(bump)
    fam_phi = family(bump * (1.0 + 2.0 * masses))
    epsilons = (0.1, 0.3, 0.15)
    result = mass_oscillation_check(fam_psi, fam_phi, POT, epsilons=epsilons)
    expected = _brute_force_lhs(fam_psi, fam_phi, POT, epsilons)
    np.testing.assert_allclose(result.lhs_by_epsilon, expected, rtol=1e-12, atol=0.0)


def _brute_force_rhs(fam_psi, fam_phi):
    """Fixed-s side summed node by node and mass by mass."""
    total = 0.0 + 0.0j
    for i in range(fam_psi.n_nodes):
        for m in range(fam_psi.masses.size):
            inner = np.vdot(fam_psi.weights[m, i] * fam_psi.chi0[m, i],
                            fam_phi.weights[m, i] * fam_phi.chi0[m, i])
            total += (TWO_PI_4 * fam_psi.quad_weights[i] * np.sign(fam_psi.u[i])
                      * fam_psi.mass_quad_weights[m] * fam_psi.eta[m] * fam_phi.eta[m] * inner)
    return total


def test_mass_oscillation_shared_u_matches_brute_force(rng):
    """Several nodes per u, both signs of u: one oscillation table serves a whole u group."""
    masses = np.linspace(0.8, 1.2, 7)
    u = np.repeat([-0.15, -0.08, 0.07, 0.12], 3)
    n = u.size
    k2 = rng.normal(0.0, 0.3, n)
    k3 = rng.normal(0.0, 0.3, n)
    qw = rng.uniform(0.1, 1.0, n)

    def family(eta):
        chi0 = np.stack([random_pi_minus(rng, n) for _ in masses])
        weights = rng.normal(size=(masses.size, n)) + 1j * rng.normal(size=(masses.size, n))
        return MassFamily(masses=masses, eta=eta,
                          mass_quad_weights=np.full(masses.size, 0.4 / 6),
                          u=u, k2=k2, k3=k3, quad_weights=qw, chi0=chi0, weights=weights)

    bump = smooth_bump(masses, 0.8, 1.2)
    fam_psi = family(bump)
    fam_phi = family(bump * (2.0 - masses))
    epsilons = (0.2, 0.1)
    result = mass_oscillation_check(fam_psi, fam_phi, POT, epsilons=epsilons)
    expected = _brute_force_lhs(fam_psi, fam_phi, POT, epsilons)
    np.testing.assert_allclose(result.lhs_by_epsilon, expected, rtol=1e-12, atol=0.0)
    assert result.rhs == pytest.approx(_brute_force_rhs(fam_psi, fam_phi), rel=1e-12)


def test_mass_oscillation_same_family_twice_matches_copy(rng):
    """The diagonal call sums its one family once; a copy is summed separately."""
    fam = grid_family(rng, (0.8, 1.2), u_grid=(-0.1, -0.05, 3))
    same = mass_oscillation_check(fam, fam, POT)
    copy = mass_oscillation_check(fam, replace(fam), POT)
    scale = abs(same.rhs)
    assert same.rhs == copy.rhs
    assert np.max(np.abs(np.subtract(same.lhs_by_epsilon, copy.lhs_by_epsilon))) <= 1e-15 * scale
    assert abs(same.lhs - copy.lhs) <= 1e-15 * scale


def _random_family(rng, masses, u, eta):
    """Family with a random Pi_minus amplitude and complex weight per (mass, node)."""
    n = u.size
    chi0 = np.stack([random_pi_minus(rng, n) for _ in masses])
    weights = rng.normal(size=(masses.size, n)) + 1j * rng.normal(size=(masses.size, n))
    return MassFamily(masses=masses, eta=eta,
                      mass_quad_weights=np.full(masses.size, 0.4 / (masses.size - 1)),
                      u=u, k2=rng.normal(0.0, 0.3, n), k3=rng.normal(0.0, 0.3, n),
                      quad_weights=rng.uniform(0.1, 1.0, n), chi0=chi0, weights=weights)


@pytest.mark.parametrize("pot", [PulsePotential(0.5, 2.0, 1.5), ZeroPotential()],
                         ids=["pulse", "zero"])
def test_mass_oscillation_potential_drops_out(rng, pot):
    """The s-grid oracle under another profile gives the same regulated pairing:
    the closed form, which never evaluates the profile, holds for every one."""
    masses = np.linspace(0.8, 1.2, 5)
    fam_psi = _random_family(rng, masses, np.repeat([-0.15, 0.1], 2), smooth_bump(masses, 0.8, 1.2))
    fam_phi = replace(fam_psi, weights=np.conj(fam_psi.weights[::-1]),
                      eta=fam_psi.eta * (2.0 - masses))
    epsilons = (0.2, 0.1)
    result = mass_oscillation_check(fam_psi, fam_phi, pot, epsilons=epsilons)
    assert result == mass_oscillation_check(fam_psi, fam_phi, POT, epsilons=epsilons)
    expected = _brute_force_lhs(fam_psi, fam_phi, pot, epsilons)
    np.testing.assert_allclose(result.lhs_by_epsilon, expected, rtol=1e-12, atol=0.0)


def test_mass_oscillation_never_evaluates_the_potential(rng, monkeypatch):
    fam = grid_family(rng, (0.8, 1.2), n_masses=9)
    fam_hi = replace(fam, eta=smooth_bump(fam.masses, 0.9, 1.2))
    base = [mass_oscillation_check(fam, fam, POT), mass_oscillation_check(fam, fam_hi, POT)]

    def refuse(*args, **kwargs):
        raise AssertionError("the potential was evaluated")

    monkeypatch.setattr(potential, "transverse_phase", refuse)
    for cls in (ZeroPotential, HarmonicPotential, PulsePotential, TabulatedPotential):
        for name in ("field", "moments"):
            monkeypatch.setattr(cls, name, refuse)
    for name in ("field", "moments"):
        with pytest.raises(AssertionError, match="evaluated"):
            getattr(POT, name)(0.0)
    assert [mass_oscillation_check(fam, fam, POT), mass_oscillation_check(fam, fam_hi, POT)] == base


def test_disjoint_null_is_measured_not_rounding_noise():
    """Criterion 5's disjoint-support null falls with eps like e^{-kappa^2/4eps},
    far below the rounding level of the diagonal pairing."""
    epsilons = (0.025, 0.0125, 0.00625, 0.003125)
    fam = grid_family(np.random.default_rng(5), n_masses=41, u_grid=(-0.1, -0.05, 9),
                      k_grid=(-0.4, 0.4, 5))
    diag = mass_oscillation_check(fam, fam, POT, epsilons=epsilons)
    null = mass_oscillation_check(replace(fam, eta=smooth_bump(fam.masses, 0.8, 0.88)),
                                  replace(fam, eta=smooth_bump(fam.masses, 1.12, 1.2)),
                                  POT, epsilons=epsilons)
    ratios = np.abs(null.lhs_by_epsilon) / abs(diag.lhs)
    assert np.all(np.diff(ratios) < 0)
    assert 0 < ratios[-1] < 1e-40


def _two_sign_family(rng):
    """Nine negative-u panels joined to five positive-u ones: the halves differ,
    so the sign(u) weights of the fixed-s side do not cancel."""
    neg, pos = (grid_family(rng, n_masses=21, u_grid=u_grid, k_grid=(-0.4, 0.4, 5))
                for u_grid in ((-0.1, -0.05, 9), (0.06, 0.1, 5)))
    joined = {name: np.concatenate([getattr(neg, name), getattr(pos, name)], axis=-1)
              for name in ("u", "k2", "k3", "quad_weights", "weights")}
    return neg, replace(neg, chi0=np.concatenate([neg.chi0, pos.chi0], axis=1), **joined)


def test_mass_oscillation_both_signature_eigenspaces(rng, monkeypatch):
    neg, fam = _two_sign_family(rng)
    result = mass_oscillation_check(fam, fam, POT)
    assert result.relative_gap <= 2e-3
    # the u > 0 nodes add a positive part to the negative-only fixed-s side
    assert mass_oscillation_check(neg, neg, POT).rhs.real < result.rhs.real < 0

    # a signature operator blind to sign(u) fails only once u > 0 is present
    monkeypatch.setattr(projector, "signature_sign", lambda u: -np.ones(np.shape(u), int))
    assert mass_oscillation_check(fam, fam, POT).relative_gap > 0.5
    assert mass_oscillation_check(neg, neg, POT).relative_gap <= 1e-2


# ---------------------------------------------------------------------------
# smeared pairing


def _gaussian_envelope(center, width):
    return lambda s: np.exp(-np.square(np.asarray(s) - center) / (2.0 * width ** 2))


def _profiles(rng):
    u = np.array([-0.7, -0.4])
    k2 = np.array([0.3, -0.1])
    k3 = np.array([0.0, 0.2])
    qw = np.array([0.6, 0.4])
    phi = SmearedProfile(1.0, u, k2, k3, qw,
                         rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)),
                         [_gaussian_envelope(0.2, 1.3)] * 2, (-14.0, 14.0))
    psi = SmearedProfile(1.0, u, k2, k3, qw,
                         rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)),
                         [_gaussian_envelope(-0.5, 0.9)] * 2, (-14.0, 14.0))
    return phi, psi


def test_fp_pair_smeared_zero_potential_oracle(rng):
    """Closed-form double Gaussian integral of the single-frequency kernel."""
    phi, psi = _profiles(rng)
    pairing = fp_pair_smeared(phi, psi, ZeroPotential())

    g0 = dirac_gamma(0)
    oracle = 0.0 + 0.0j
    for i in range(2):
        mode = phi.node_mode(i)
        v0 = (mode.k2 ** 2 + mode.k3 ** 2 + 1.0) / (4.0 * mode.u)
        aslash = transverse_slash(mode.k2, mode.k3)
        front = (aslash + ID4) / (2.0 * mode.u)
        kernel = (N_MINUS + front @ PI_PLUS) / TWO_PI_4 \
            + ((PI_MINUS + front @ N_PLUS) @ (aslash + ID4)) / (2.0 * mode.u * TWO_PI_4)
        int_s = np.sqrt(2.0 * np.pi) * 1.3 * np.exp(-1j * v0 * 0.2 - v0 ** 2 * 1.3 ** 2 / 2.0)
        int_t = np.sqrt(2.0 * np.pi) * 0.9 * np.exp(1j * v0 * (-0.5) - v0 ** 2 * 0.9 ** 2 / 2.0)
        spin_part = np.conj(phi.spinors[i]) @ g0 @ kernel @ psi.spinors[i]
        oracle += phi.quad_weights[i] * int_s * int_t * spin_part
    assert pairing == pytest.approx(oracle, rel=1e-12)


def test_fp_pair_smeared_conjugate_symmetry(rng):
    phi, psi = _profiles(rng)
    fwd = fp_pair_smeared(phi, psi, POT)
    rev = fp_pair_smeared(psi, phi, POT)
    assert fwd == pytest.approx(np.conj(rev), rel=1e-12)


def test_fp_pair_smeared_quadratic_scaling(rng):
    phi, _ = _profiles(rng)
    scaled = SmearedProfile(phi.m, phi.u, phi.k2, phi.k3, phi.quad_weights,
                            2.5 * phi.spinors, phi.envelopes, phi.s_support)
    base = fp_pair_smeared(phi, phi, POT)
    big = fp_pair_smeared(scaled, scaled, POT)
    assert big == pytest.approx(2.5 ** 2 * base, rel=1e-12)


def test_fp_pair_smeared_raises_when_check_cannot_be_met(rng):
    phi, psi = _profiles(rng)
    stepped = SmearedProfile(phi.m, phi.u, phi.k2, phi.k3, phi.quad_weights, phi.spinors,
                             [lambda s: np.where(np.asarray(s) > 1.0 / np.pi, 1.0, 0.0)] * 2,
                             phi.s_support)
    with pytest.raises(UndersampledGridError):
        fp_pair_smeared(stepped, psi, POT)


def test_smeared_profile_requires_negative_u(rng):
    with pytest.raises(ValueError):
        SmearedProfile(1.0, np.array([0.5]), np.zeros(1), np.zeros(1), np.ones(1),
                       rng.normal(size=(1, 4)) + 0j,
                       [_gaussian_envelope(0.0, 1.0)], (-5.0, 5.0))


@pytest.mark.parametrize("edits, match", [
    ({"k2": [0.3, -0.1, 0.5]}, "k2 must have shape"),
    ({"k2": [0.3]}, "k2 must have shape"),
    ({"quad_weights": [1.0]}, "quad_weights must have shape"),
    ({"k2": [0.3, np.nan]}, "k2 must be finite"),
    ({"m": np.nan}, "mass must be positive and finite"),
    ({"m": 0.0}, "mass must be positive and finite"),
    ({"u": [-0.7, -0.7], "k2": [0.3, 0.3], "k3": [0.0, 0.0]}, "nodes must be distinct"),
    ({"spinors": np.full((2, 4), np.nan + 0j)}, "spinors must be finite"),
    ({"s_support": (-np.inf, 14.0)}, "s support must be a finite"),
    ({"u": [[-0.7, -0.5]], "k2": [[0.3, -0.1]], "k3": [[0.0, 0.0]], "quad_weights": [[1.0, 1.0]]},
     "one 1-D array of nodes"),
], ids=["long-k2", "short-k2", "short-quad-weights", "nan-k2", "nan-mass", "zero-mass",
        "repeated-node", "nan-spinors", "infinite-support", "batched-grid"])
def test_smeared_profile_checks_its_grid(rng, edits, match):
    phi, _ = _profiles(rng)
    with pytest.raises(ValueError, match=match):
        replace(phi, **edits)


def test_batched_kernels_match_scalar_calls(rng):
    """One call over modes and (s, s~) pairs equals the per-sample calls,
    including s == s~ entries (the coincidence branch) inside the batch."""
    n = 30
    mode = ModeParams(rng.normal(0, 0.7, n), rng.normal(0, 0.7, n),
                      -np.exp(rng.uniform(np.log(0.1), np.log(2.0), n)), rng.uniform(0.5, 1.5, n))
    s, s_tilde = rng.uniform(-3, 3, size=(2, n))
    s_tilde[::4] = s[::4]
    wave = wave_slice(mode, POT, s, s_tilde)
    kernel = fp_kernel_momentum(mode, wave)
    causal = causal_fundamental_momentum(mode, wave)
    scalar_a = fp_scalar_a(mode, POT, s, s_tilde)
    greens = green_ab(mode, wave)
    slash_m = _slash_plus_m(mode, POT, s)
    adv = greens[ADVANCED]
    assembled = _assembled(adv.a, adv.beta[:, None, None] * _slash_plus_m(mode, POT, s_tilde),
                           mode, slash_m)
    assert kernel.shape == causal.shape == assembled.shape == (n, 4, 4)
    for i in range(n):
        mode_i = ModeParams(float(mode.k2[i]), float(mode.k3[i]), float(mode.u[i]),
                            float(mode.m[i]))
        si, sti = float(s[i]), float(s_tilde[i])
        wave_i = wave_slice(mode_i, POT, si, sti)
        assert np.max(np.abs(kernel[i] - fp_kernel_momentum(mode_i, wave_i))) <= 1e-13
        assert np.max(np.abs(causal[i] - causal_fundamental_momentum(mode_i, wave_i))) <= 1e-13
        assert abs(scalar_a[i] - fp_scalar_a(mode_i, POT, si, sti)) <= 1e-13
        for batch, single in zip(greens, green_ab(mode_i, wave_i)):
            assert isinstance(single.a, complex)
            assert abs(batch.a[i] - single.a) <= 1e-13
            assert isinstance(single.beta, complex)
            assert abs(batch.beta[i] - single.beta) <= 1e-13
        single_b = adv.beta[i] * _slash_plus_m(mode_i, POT, sti)
        assert np.max(np.abs(assembled[i] - _assembled(
            complex(adv.a[i]), single_b, mode_i, slash_m[i]))) <= 1e-13
    coincident = causal[::4]
    every_fourth = ModeParams(mode.k2[::4], mode.k3[::4], mode.u[::4], mode.m[::4])
    expected = fp_kernel_momentum(every_fourth, wave_slice(every_fourth, POT, s[::4], s[::4]))
    assert np.max(np.abs(coincident - expected)) <= 1e-13  # P = -sign(u) K = K for u < 0


def test_signature_sign_broadcasts():
    assert np.array_equal(signature_sign(np.array([-0.5, 2.0])), [-1, 1])
    with pytest.raises(ValueError):
        signature_sign(np.array([-0.5, 0.0]))


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, np.array([np.nan, -1.0, np.inf])],
                         ids=["nan", "inf", "-inf", "array"])
def test_signature_sign_refuses_non_finite_u(u):
    with pytest.raises(ValueError, match="finite"):
        signature_sign(u)


_TAB_S = np.linspace(-4.0, 4.0, 33)
KERNEL_PROFILES = pytest.mark.parametrize("pot", [
    ZeroPotential(), HarmonicPotential(0.3, 1.0), PulsePotential(0.4, 1.3, 2.0),
    TabulatedPotential(_TAB_S, 0.3 * np.cos(_TAB_S), 0.2 * np.sin(0.7 * _TAB_S)),
], ids=["zero", "harmonic", "pulse", "tabulated"])


def _kernel_grid(rng, n=4):
    """n modes with u < 0 on axis 0, three s on axis 1 and three s~ on
    axis 2, one of them equal to the first s."""
    shape = (n, 1, 1)
    mode = ModeParams(rng.normal(0.0, 0.5, shape), rng.normal(0.0, 0.5, shape),
                      -np.exp(rng.uniform(np.log(0.2), np.log(2.0), shape)),
                      rng.uniform(0.5, 1.5, shape))
    s = rng.uniform(-3.0, 3.0, (3, 1))
    return mode, s, np.append(rng.uniform(-3.0, 3.0, 2), s[0, 0])


@KERNEL_PROFILES
def test_each_kernel_call_evaluates_the_profile_once(rng, monkeypatch, pot):
    """wave_slice makes at most one field and one moments call on batched
    modes and (s, s~) grids, and a kernel given the slice makes none; every
    other public call makes at most one of each.  mass_pairing_identity
    evolves both of its masses by one phase."""
    calls = []
    for cls in (ZeroPotential, HarmonicPotential, PulsePotential, TabulatedPotential):
        for name in ("field", "moments"):
            def spy(self, s, original=vars(cls)[name], name=name):
                calls.append(name)
                return original(self, s)

            monkeypatch.setattr(cls, name, spy)
    mode, s, s_tilde = _kernel_grid(rng)
    n = 5
    flat = ModeParams(rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.5, n),
                      -np.exp(rng.uniform(np.log(0.2), np.log(2.0), n)), rng.uniform(0.5, 1.5, n))
    amp_a, amp_b = (ModeAmplitude(random_pi_minus(rng, n)) for _ in range(2))
    point = rng.uniform(-3.0, 3.0, (4, n))
    calls.clear()
    wave = wave_slice(mode, pot, s, s_tilde)
    assert calls.count("field") <= 1 and calls.count("moments") <= 1, ("wave_slice", calls)
    runs = {  # name: (call, most calls of each)
        "green_ab": (lambda: green_ab(mode, wave), 0),
        "causal_fundamental_momentum": (lambda: causal_fundamental_momentum(mode, wave), 0),
        "fp_kernel_momentum": (lambda: fp_kernel_momentum(mode, wave), 0),
        "mirrored fp_kernel_momentum": (lambda: fp_kernel_momentum(mode, wave.mirrored()), 0),
        "fp_scalar_a": (lambda: fp_scalar_a(mode, pot, s, s_tilde), 1),
        "mass_pairing_identity": (lambda: mass_pairing_identity(
            amp_a, flat, amp_b, replace(flat, m=flat.m[::-1]), pot, point[0]), 1),
        "dirac_residual": (lambda: dirac_residual(amp_a, flat, pot, point), 1),
    }
    for name, (run, most) in runs.items():
        calls.clear()
        run()
        assert calls.count("field") <= most and calls.count("moments") <= most, (name, calls)


@KERNEL_PROFILES
def test_mirrored_slice_is_a_fresh_slice(rng, pot):
    """Every kernel on wave.mirrored() equals, bit for bit, the kernel on a
    slice evaluated afresh at (s~, s), on batched modes and with s = s~ at
    one point: Phi(s, s~) = -Phi(s~, s) exactly, so E(s, s~) = conj E(s~, s)."""
    mode, s, s_tilde = _kernel_grid(rng)
    mirrored = wave_slice(mode, pot, s, s_tilde).mirrored()
    fresh = wave_slice(mode, pot, s_tilde, s)
    for kernel in (fp_kernel_momentum, causal_fundamental_momentum):
        assert np.array_equal(kernel(mode, mirrored), kernel(mode, fresh)), kernel.__name__
    for green_mirrored, green_fresh in zip(green_ab(mode, mirrored), green_ab(mode, fresh)):
        assert np.array_equal(green_mirrored.a, green_fresh.a)
        assert np.array_equal(green_mirrored.beta, green_fresh.beta)


@dataclass(frozen=True)
class ShiftedPotential(PlaneWavePotential):
    """`base` with its field shifted by the constant (c2, c3)."""

    base: PlaneWavePotential
    c2: float
    c3: float

    def field(self, s):
        a2, a3, da2, da3 = self.base.field(s)
        return a2 + self.c2, a3 + self.c3, da2, da3

    def moments(self, s):
        a2, a3, b = self.base.moments(s)
        s = np.asarray(s, dtype=float)
        c2, c3 = self.c2, self.c3
        return (a2 + c2 * s, a3 + c3 * s,
                b + 2.0 * c2 * a2 + 2.0 * c3 * a3 + (c2 * c2 + c3 * c3) * s)


@KERNEL_PROFILES
def test_gauge_shift_is_a_momentum_shift(rng, pot):
    """P_{a+c}(k - c) = P_a(k): a constant shift c of the field moves every
    kernel to the momentum k - c, in both Green's functions too."""
    mode, s, s_tilde = _kernel_grid(rng)
    shifted = ShiftedPotential(pot, 0.37, -0.21)
    moved = replace(mode, k2=mode.k2 - shifted.c2, k3=mode.k3 - shifted.c3)

    def gap(value, reference):
        return np.max(np.abs(value - reference)) / np.max(np.abs(reference))

    wave, wave_shifted = wave_slice(mode, pot, s, s_tilde), wave_slice(moved, shifted, s, s_tilde)
    for kernel in (fp_kernel_momentum, causal_fundamental_momentum):
        assert gap(kernel(moved, wave_shifted), kernel(mode, wave)) <= 1e-13
    for green_shifted, green in zip(green_ab(moved, wave_shifted), green_ab(mode, wave)):
        assert gap(green_shifted.a, green.a) <= 1e-13
        assert gap(green_shifted.beta, green.beta) <= 1e-13


@KERNEL_PROFILES
def test_kernels_match_the_matrix_oracle(rng, pot):
    """Every kernel built on the coefficient basis equals the explicit 4x4
    products of the completion, N- a + Pi- b + (S/2u)(N+ b + Pi+ a), to
    1e-15 of its largest entry: the projector and causal kernels, and the
    kernel of each Green's function."""
    mode, s, s_tilde = _kernel_grid(rng, n=12)
    wave = wave_slice(mode, pot, s, s_tilde)
    slash_m, slash_m_tilde = _slash_plus_m(mode, pot, s), _slash_plus_m(mode, pot, s_tilde)
    two_u = 2.0 * mode.u

    def gap(kernel, a, beta):
        oracle = _assembled(a, np.asarray(beta)[..., None, None] * slash_m_tilde, mode, slash_m)
        assert kernel.shape == oracle.shape == wave.env.shape + (4, 4)
        scale = np.maximum(np.max(np.abs(oracle), axis=(-2, -1)), 1e-300)
        return np.max(np.max(np.abs(kernel - oracle), axis=(-2, -1)) / scale)

    env = wave.env
    assert gap(fp_kernel_momentum(mode, wave), env / TWO_PI_4, env / (two_u * TWO_PI_4)) <= 1e-15
    ret, adv = green_ab(mode, wave)
    coincident = s == s_tilde
    a = np.where(coincident, 1.0 / TWO_PI_4, (adv.a - ret.a) / (2j * np.pi))
    beta = np.where(coincident, 1.0 / (two_u * TWO_PI_4), (adv.beta - ret.beta) / (2j * np.pi))
    assert gap(causal_fundamental_momentum(mode, wave), a, beta) <= 1e-15
    for green in (ret, adv):
        assert gap(projector._kernel(mode, wave, green.a, green.beta), green.a, green.beta) <= 1e-15


@dataclass(frozen=True)
class RotatedPotential(PlaneWavePotential):
    """`base` with its field turned by the angle theta in the (y, z) plane."""

    base: PlaneWavePotential
    theta: float

    def turn(self, x2, x3):
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * x2 - s * x3, s * x2 + c * x3

    def field(self, s):
        a2, a3, da2, da3 = self.base.field(s)
        return (*self.turn(a2, a3), *self.turn(da2, da3))

    def moments(self, s):
        a2, a3, b = self.base.moments(s)
        return (*self.turn(a2, a3), b)


@KERNEL_PROFILES
def test_rotation_conjugates_every_kernel(rng, pot):
    """K_{Ra}(Rk) = U K_a(k) U^-1 with U = cos(theta/2) + sin(theta/2) gamma2 gamma3:
    turning the field and the momentum by theta turns every kernel by the
    spin rotation U, in both Green's functions too, whose scalars a and
    beta do not change."""
    mode, s, s_tilde = _kernel_grid(rng)
    turned_pot = RotatedPotential(pot, 0.7)
    turned = replace(mode, **dict(zip(("k2", "k3"), turned_pot.turn(mode.k2, mode.k3))))
    g23 = dirac_gamma(2) @ dirac_gamma(3)
    half = turned_pot.theta / 2.0
    spin, spin_inv = np.cos(half) * ID4 + np.sin(half) * g23, np.cos(half) * ID4 - np.sin(half) * g23
    assert np.allclose(spin @ spin_inv, ID4, rtol=0.0, atol=1e-15)

    def gap(value, reference):
        return np.max(np.abs(value - reference)) / np.max(np.abs(reference))

    wave, wave_turned = wave_slice(mode, pot, s, s_tilde), wave_slice(turned, turned_pot, s, s_tilde)
    for kernel in (fp_kernel_momentum, causal_fundamental_momentum):
        assert gap(kernel(turned, wave_turned), spin @ kernel(mode, wave) @ spin_inv) <= 1e-13
    slash_m_tilde = _slash_plus_m(mode, pot, s_tilde)
    turned_slash_m_tilde = _slash_plus_m(turned, turned_pot, s_tilde)
    for green_turned, green in zip(green_ab(turned, wave_turned), green_ab(mode, wave)):
        assert gap(green_turned.a, green.a) <= 1e-13
        assert gap(green_turned.beta, green.beta) <= 1e-13
        b = green.beta[..., None, None] * slash_m_tilde
        b_turned = green_turned.beta[..., None, None] * turned_slash_m_tilde
        assert gap(b_turned, spin @ b @ spin_inv) <= 1e-13
