"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one line  ACCEPTANCE <n> <name>: PASS|FAIL (details)
before asserting, so a full run documents every criterion's outcome.
Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import companion_packet, grid_family, random_packet, random_pi_minus
from volkovfp import cli
from volkovfp.clifford import (
    MINKOWSKI_ETA,
    dirac_gamma,
    lightcone_operators,
    spin_adjoint,
)
from volkovfp.modes import (
    ModeAmplitude,
    ModeParams,
    WavePacket,
    dirac_residual,
    mass_pairing_identity,
    mode_wavefunction,
    null_decay_scan,
    null_scalar_product,
    smooth_bump,
)
from volkovfp.potential import HarmonicPotential, PulsePotential, ZeroPotential, transverse_phase
from volkovfp.projector import (
    causal_fundamental_momentum,
    fp_kernel_momentum,
    fp_scalar_a,
    mass_oscillation_check,
    signature_sign,
    wave_slice,
)
from volkovfp.spectral import (
    GaussianWindow,
    decay_order_fit,
    harmonic_carrier,
    harmonic_sidebands_analytic,
    plancherel_reference,
    spectrum_fft,
    transform_l2,
    windowed_phase_transform,
)

ID4 = np.eye(4)


def report(number, name, passed, detail, budget, elapsed):
    state = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {state} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")


def test_criterion_1_algebra_suite():
    start = time.time()
    worst = 0.0
    for i in range(4):
        for j in range(4):
            gi, gj = dirac_gamma(i), dirac_gamma(j)
            worst = max(worst, np.max(np.abs(
                gi @ gj + gj @ gi - 2.0 * MINKOWSKI_ETA[i, j] * ID4)))
    n_plus, n_minus, pi_plus, pi_minus = lightcone_operators()
    worst = max(worst, np.max(np.abs(n_plus @ n_plus)))
    worst = max(worst, np.max(np.abs(n_minus @ n_minus)))
    worst = max(worst, np.max(np.abs(pi_minus - n_minus @ n_plus)))
    worst = max(worst, np.max(np.abs(pi_minus @ pi_minus - pi_minus)))
    worst = max(worst, np.max(np.abs(pi_plus @ pi_plus - pi_plus)))
    worst = max(worst, np.max(np.abs(pi_minus + pi_plus - ID4)))
    worst = max(worst, np.max(np.abs(dirac_gamma(0) @ pi_minus - n_plus @ pi_minus)))
    elapsed = time.time() - start
    ok = worst <= 1e-14
    report(1, "algebra-suite", ok, f"max deviation {worst:.1e} <= 1e-14", 1.0, elapsed)
    assert ok and elapsed < 1.0


def _random_mode(rng):
    u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
    return ModeParams(k2=float(rng.normal(0, 0.7)), k3=float(rng.normal(0, 0.7)),
                      u=u, m=float(rng.uniform(0.5, 1.5)))


def test_criterion_2_exact_solution_suite():
    start = time.time()
    rng = np.random.default_rng(2)
    results = {}
    for name, pot, tol in (
        ("zero", ZeroPotential(), 1e-10),
        ("harmonic", HarmonicPotential(0.2, 1.0), 1e-10),
        ("pulse", PulsePotential(0.2, 1.0, 3.0), 1e-8),
    ):
        # 1000 modes drawn in turn (mode, amplitude, point), then one call per profile
        draws = [(_random_mode(rng), random_pi_minus(rng)[0], rng.uniform(-3.0, 3.0, size=4))
                 for _ in range(1000)]
        modes, chi0, points = zip(*draws)
        mode = ModeParams(*(np.array([getattr(md, field) for md in modes])
                            for field in ("k2", "k3", "u", "m")))
        amp = ModeAmplitude(np.array(chi0))
        point = tuple(np.array(points).T)
        resid = dirac_residual(amp, mode, pot, point)
        norm = np.linalg.norm(mode_wavefunction(amp, mode, pot, point), axis=-1)
        results[name] = (float(np.max(resid / norm)), tol)
    elapsed = time.time() - start
    ok = all(worst <= tol for worst, tol in results.values())
    detail = ", ".join(f"{k} {w:.1e}<= {t:.0e}" for k, (w, t) in results.items())
    report(2, "exact-solution-suite", ok, detail, 5.0, elapsed)
    assert ok and elapsed < 5.0


def test_criterion_3_null_product_invariance():
    start = time.time()
    rng = np.random.default_rng(3)
    pot = HarmonicPotential(0.3, 1.0)
    worst = 0.0
    s_grid = np.linspace(-10.0, 10.0, 11)
    for _ in range(50):
        psi = random_packet(rng, n_nodes=10)
        phi = companion_packet(rng, psi)
        base = null_scalar_product(psi, phi, pot, 0.0)
        for s in s_grid:
            val = null_scalar_product(psi, phi, pot, float(s))
            worst = max(worst, abs(val - base) / abs(base))
    elapsed = time.time() - start
    ok = worst <= 1e-10
    report(3, "null-product-invariance", ok, f"max rel deviation {worst:.1e} <= 1e-10",
           5.0, elapsed)
    assert ok and elapsed < 5.0


def test_criterion_4_mass_pairing_identity():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        lam = float(rng.uniform(0.0, 0.5))
        pot = HarmonicPotential(lam, 1.0) if lam > 0 else ZeroPotential()
        k2, k3 = rng.normal(0, 0.7, size=2)
        u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
        m = float(rng.uniform(0.5, 1.5))
        mp = float(rng.uniform(0.5, 1.5))
        s = float(rng.uniform(-5.0, 5.0))
        amp_a = ModeAmplitude(random_pi_minus(rng)[0])
        amp_b = ModeAmplitude(random_pi_minus(rng)[0])
        lhs, rhs = mass_pairing_identity(
            amp_a, ModeParams(float(k2), float(k3), u, m),
            amp_b, ModeParams(float(k2), float(k3), u, mp), pot, s)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.time() - start
    ok = worst <= 1e-10
    report(4, "mass-pairing-identity", ok, f"max rel gap {worst:.1e} <= 1e-10",
           10.0, elapsed)
    assert ok and elapsed < 10.0


def test_criterion_5_mass_oscillation():
    start = time.time()
    pot = HarmonicPotential(0.2, 1.0)
    epsilons = (0.025, 0.0125, 0.00625, 0.003125)
    fam = grid_family(np.random.default_rng(5), n_masses=41, u_grid=(-0.1, -0.05, 9),
                      k_grid=(-0.4, 0.4, 5))
    result = mass_oscillation_check(fam, fam, pot, epsilons=epsilons)

    fam_lo = replace(fam, eta=smooth_bump(fam.masses, 0.8, 0.88))
    fam_hi = replace(fam, eta=smooth_bump(fam.masses, 1.12, 1.2))
    null = mass_oscillation_check(fam_lo, fam_hi, pot, epsilons=epsilons)
    scale = abs(result.lhs)
    null_lhs = abs(null.lhs) / scale
    null_rhs = abs(null.rhs) / scale
    elapsed = time.time() - start
    ok = result.relative_gap <= 1e-4 and null_lhs <= 1e-12 and null_rhs <= 1e-12
    report(5, "mass-oscillation", ok,
           f"gap {result.relative_gap:.2e} <= 1e-4, null lhs/rhs "
           f"{null_lhs:.1e}/{null_rhs:.1e} <= 1e-12", 2.0, elapsed)
    assert ok and elapsed < 2.0


def test_criterion_6_kernel_consistency():
    start = time.time()
    rng = np.random.default_rng(6)
    pot = HarmonicPotential(0.2, 1.0)
    worst_consistency = 0.0
    worst_adjoint = 0.0
    coincidence_exact = True
    for _ in range(50):
        mode = ModeParams(float(rng.normal(0, 0.7)), float(rng.normal(0, 0.7)),
                          -float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
                          float(rng.uniform(0.5, 1.5)))
        s, s_tilde = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
        wave = wave_slice(mode, pot, s, s_tilde)
        p = fp_kernel_momentum(mode, wave)
        k = causal_fundamental_momentum(mode, wave)
        scale = np.max(np.abs(p))
        worst_consistency = max(
            worst_consistency,
            np.max(np.abs(p - (-signature_sign(mode.u)) * k)) / scale)
        q = fp_kernel_momentum(mode, wave_slice(mode, pot, s_tilde, s))  # fresh, not mirrored
        worst_adjoint = max(worst_adjoint, np.max(np.abs(spin_adjoint(p) - q)) / scale)
        if complex(fp_scalar_a(mode, pot, s, s)) != 1.0 / (2.0 * np.pi) ** 4 + 0.0j:
            coincidence_exact = False
    elapsed = time.time() - start
    ok = worst_consistency <= 1e-12 and worst_adjoint <= 1e-12 and coincidence_exact
    report(6, "kernel-consistency", ok,
           f"vs causal {worst_consistency:.1e} <= 1e-12, adjoint {worst_adjoint:.1e} "
           f"<= 1e-12, a(s,s) exact {coincidence_exact}", 5.0, elapsed)
    assert ok and elapsed < 5.0


def test_criterion_7_sidebands():
    start = time.time()
    lam, omega = 0.2, 1.0
    mode = ModeParams(0.3, 0.0, -0.5, 1.0)
    pot = HarmonicPotential(lam, omega)
    v0 = harmonic_carrier(mode, lam, omega)
    carrier_ok = v0 == pytest.approx(-0.555, abs=1e-15)

    n_an, v_an, c_an = harmonic_sidebands_analytic(mode, lam, omega, 12)
    sum_sq = sum(abs(c) ** 2 for c in c_an)

    per = 64
    ds = (2.0 * np.pi / omega) / per
    s = ds * np.arange(200 * per)
    zeta = transverse_phase(pot, mode.k2, mode.k3, 0.0, s) + mode.m ** 2 * s
    values = np.exp(-1j * zeta / (4.0 * mode.u))
    span = s[-1] - s[0]
    window = GaussianWindow(center=0.5 * span, width=span / 14.0)
    n_fft, v_fft, c_fft = spectrum_fft(s, values, window, omega, v0, 3)
    bin_width = 2.0 * np.pi / span
    at = n_fft + 12  # each FFT line's index in the analytic arrays
    worst_amp = np.max(np.abs(c_fft - c_an[at]) / np.abs(c_an[at]))
    worst_pos = np.max(np.abs(v_fft - v_an[at]))

    n_zero, v_zero, c_zero = harmonic_sidebands_analytic(mode, 0.0, omega, 5)
    collapse_ok = (
        abs(c_zero[5] - 1.0) < 1e-14 and n_zero[5] == 0
        and np.all(np.abs(c_zero[n_zero != 0]) < 1e-14)
        and v_zero[5] == pytest.approx((mode.k2 ** 2 + mode.m ** 2) / (4.0 * mode.u), rel=1e-14)
    )
    elapsed = time.time() - start
    ok = (carrier_ok and abs(1.0 - sum_sq) <= 1e-10 and worst_amp <= 1e-4
          and worst_pos < bin_width and collapse_ok)
    report(7, "sidebands", ok,
           f"v0={v0}, amp gap {worst_amp:.1e} <= 1e-4, pos {worst_pos:.1e} < bin "
           f"{bin_width:.1e}, 1-sum|c|^2 {abs(1 - sum_sq):.1e} <= 1e-10, "
           f"lambda=0 collapse {collapse_ok}", 5.0, elapsed)
    assert ok and elapsed < 5.0


def test_criterion_8_frequency_asymmetry():
    start = time.time()
    mode = ModeParams(0.3, 0.0, -0.5, 1.0)
    pot = HarmonicPotential(0.2, 1.0)
    window = GaussianWindow(center=0.0, width=0.155)

    v_fit = np.geomspace(5.0, 50.0, 25)
    f_fit = windowed_phase_transform(mode, pot, window, v_fit)
    order, _ = decay_order_fit(v_fit, np.abs(f_fit))

    v_dense = np.arange(-60.0, 59.95, 0.05)
    f_dense = windowed_phase_transform(mode, pot, window, v_dense)
    plancherel_err = abs(transform_l2(v_dense, f_dense) - plancherel_reference(window)) \
        / plancherel_reference(window)
    elapsed = time.time() - start
    ok = order >= 6.0 and plancherel_err <= 1e-6
    report(8, "frequency-asymmetry", ok,
           f"fit order {order:.1f} >= 6 on v in [5,50], plancherel "
           f"{plancherel_err:.1e} <= 1e-6", 10.0, elapsed)
    assert ok and elapsed < 10.0


def test_criterion_9_null_decay_scan():
    start = time.time()
    rng = np.random.default_rng(9)
    n = 160
    u = np.linspace(-2.0, -0.2, n)
    chi0 = np.tile(random_pi_minus(rng)[0], (n, 1))
    weights = np.exp(-np.square((u + 1.1) / 0.04) / 2.0).astype(complex)
    packet = WavePacket(m=1.0, u=u, k2=np.full(n, 0.3), k3=np.zeros(n),
                        chi0=chi0, weights=weights,
                        quad_weights=np.full(n, u[1] - u[0]))
    l_grid = np.geomspace(20.0, 200.0, 40)
    l_both = np.concatenate([l_grid, -l_grid])
    orders = {}
    for name, pot in (("zero", ZeroPotential()), ("harmonic", HarmonicPotential(0.2, 1.0))):
        orders[name] = null_decay_scan(packet, pot, [-5.0, 0.0, 5.0], l_both)

    single = WavePacket(m=1.0, u=np.array([-0.5]), k2=np.array([0.3]),
                        k3=np.array([0.0]), chi0=chi0[:1],
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([1.0]))
    flagged = null_decay_scan(single, ZeroPotential(), [0.0], l_both).non_decaying
    elapsed = time.time() - start
    min_order = min(r.min_order for r in orders.values())
    ok = min_order >= 4.0 and flagged
    report(9, "null-decay-scan", ok,
           f"min fitted order {min_order:.1f} >= 4 over s in {{-5,0,5}}, "
           f"single-mode flagged {flagged}", 10.0, elapsed)
    assert ok and elapsed < 10.0


def test_criterion_10_determinism(tmp_path):
    from test_cli import small_configs

    start = time.time()
    all_identical = True
    detail = []
    for scenario, cfg in sorted(small_configs().items()):
        cfg["scenario"] = scenario
        cfg_path = tmp_path / f"{scenario}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{scenario}-{run}"
            code = cli.main([scenario, "--config", str(cfg_path), "--out", str(out)])
            assert code == cli.EXIT_PASS, f"{scenario} failed in run {run}"
            outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        identical = outs[0] == outs[1] and len(outs[0]) >= 1
        all_identical = all_identical and identical
        detail.append(f"{scenario}:{'=' if identical else '!='}")
    elapsed = time.time() - start
    report(10, "determinism", all_identical, " ".join(detail), 30.0, elapsed)
    assert all_identical and elapsed < 30.0
