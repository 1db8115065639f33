"""Scenario runner: exit codes, artifacts, determinism across worker counts."""

import json

import numpy as np
import pytest

from volkovfp import cli


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sidebands_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": "sidebands",
        "amplitude": 0.2,
        "frequency": 1.0,
        "k2": 0.3,
        "k3": 0.0,
        "u": -0.5,
        "m": 1.0,
        "n_max": 8,
        "n_compare": 3,
        "periods": 60,
        "samples_per_period": 32,
        "amplitude_tolerance": 1e-4,
        "sum_sq_tolerance": 1e-10,
    }
    cfg.update(overrides)
    return cfg


def test_sidebands_scenario_passes(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config())
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["identity"]
    assert (out / "sidebands_analytic.csv").exists()
    first_line = (out / "sidebands_analytic.csv").read_text().splitlines()[0]
    assert first_line.startswith("# config_sha256=")


def test_missing_key_is_config_error(tmp_path):
    cfg = sidebands_config()
    del cfg["frequency"]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    # no partial outputs on config errors
    assert not (out / "summary.json").exists()
    assert not (out / "sidebands_analytic.csv").exists()


def test_wrong_schema_version_rejected(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(schema_version=2))
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG


def test_scenario_mismatch_rejected(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(scenario="mass-pairing"))
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [
    {"u": 0.0}, {"m": -1.0}, {"frequency": 0.0}, {"amplitude": float("nan")},
], ids=["zero-u", "negative-m", "zero-frequency", "nan-amplitude"])
def test_bad_sidebands_mode_or_wave_rejected(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(**override))
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_assertion_failure_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json",
                            sidebands_config(amplitude_tolerance=1e-17))
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_domain_error_exit_code(tmp_path):
    # tabulated profile too narrow for the sampled evaluation points
    s = np.linspace(-0.5, 0.5, 9)
    cfg = {
        "schema_version": 1,
        "scenario": "dirac-residual",
        "seed": 5,
        "n_modes": 5,
        "tolerance": 1e-8,
        "potential": {"kind": "tabulated", "s": s.tolist(),
                      "a2": (0.1 * np.cos(s)).tolist(), "a3": np.zeros(9).tolist()},
    }
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main(["dirac-residual", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DOMAIN


def test_nyquist_violation_is_domain_error(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json",
                            sidebands_config(samples_per_period=2))
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DOMAIN


def small_configs():
    """One fast config per scenario, for determinism sweeps."""
    harmonic = {"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0}
    return {
        "dirac-residual": {
            "schema_version": 1, "seed": 11, "potential": harmonic,
            "n_modes": 70, "tolerance": 1e-10,
        },
        "null-product-invariance": {
            "schema_version": 1, "seed": 12, "potential": harmonic,
            "n_packets": 4, "nodes_per_packet": 8,
            "s_values": [-5.0, 0.0, 5.0], "tolerance": 1e-10,
        },
        "mass-pairing": {
            "schema_version": 1, "seed": 13, "potential": harmonic,
            "n_draws": 40, "tolerance": 1e-10,
        },
        "mass-oscillation": {
            "schema_version": 1, "seed": 14, "potential": harmonic,
            "mass_interval": [0.8, 1.2], "n_masses": 9,
            "u_grid": [-0.1, -0.05, 3], "k2_grid": [-0.2, 0.2, 2],
            "k3_grid": [-0.2, 0.2, 2], "epsilons": [0.1, 0.05, 0.025],
            "tolerance": 5e-2,
        },
        "decay-scan": {
            "schema_version": 1, "seed": 15, "potential": harmonic,
            "u_grid": [-2.0, -0.2, 80], "weight": {"center": -1.1, "sigma": 0.04},
            "k2": 0.3, "k3": 0.0, "m": 1.0,
            "l_range": [20.0, 200.0], "n_l": 12, "s_values": [0.0],
            "order_min": 4.0,
        },
        "fp-kernel-export": {
            "schema_version": 1, "seed": 16, "potential": harmonic,
            "u_values": [-0.5, -1.0], "k2_values": [0.3], "k3_values": [0.0],
            "m": 1.0, "s_values": [0.0, 1.1], "s_tilde_values": [-0.7, 0.4],
            "tolerance": 1e-12,
        },
        "sidebands": sidebands_config(),
        "wavefront-probe": {
            "schema_version": 1, "seed": 18, "potential": harmonic,
            "k2": 0.3, "k3": 0.0, "u": -0.5, "m": 1.0,
            "window": {"kind": "gaussian", "center": 0.0, "width": 0.155},
            "v_fit": [5.0, 50.0, 12], "order_min": 6.0,
            "plancherel": {"v_max": 60.0, "dv": 0.2, "tolerance": 1e-6},
        },
    }


def _csv_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


@pytest.mark.parametrize("scenario", sorted(small_configs()))
def test_scenario_passes_and_is_deterministic(tmp_path, scenario):
    cfg = small_configs()[scenario]
    cfg["scenario"] = scenario
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out1 = tmp_path / "run1"
    out8 = tmp_path / "run8"
    code1 = cli.main([scenario, "--config", cfg_path, "--out", str(out1),
                      "--workers", "1"])
    code8 = cli.main([scenario, "--config", cfg_path, "--out", str(out8),
                      "--workers", "8"])
    assert code1 == cli.EXIT_PASS
    assert code8 == cli.EXIT_PASS
    bytes1 = _csv_bytes(out1)
    bytes8 = _csv_bytes(out8)
    assert bytes1.keys() == bytes8.keys() and len(bytes1) >= 1
    for name in bytes1:
        assert bytes1[name] == bytes8[name], f"{scenario}:{name} differs across workers"


def test_summaries_name_the_identity_under_test(tmp_path):
    for scenario, (_, identity) in cli._SCENARIOS.items():
        assert identity.strip()


def test_mass_oscillation_with_disjoint_null(tmp_path):
    cfg = small_configs()["mass-oscillation"]
    cfg.update({
        "scenario": "mass-oscillation",
        "n_masses": 21,
        "tolerance": 1e-2,
        "disjoint_null_check": True,
        "null_tolerance": 1e-3,
        "disjoint_support_low": [0.8, 0.88],
        "disjoint_support_high": [1.12, 1.2],
    })
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert {"relative_gap", "null_lhs_over_diagonal", "null_rhs_over_diagonal"} <= names


@pytest.mark.parametrize("override", [
    {"n_masses": 1},
    {"epsilons": [0.1, 0.1, 0.05]},
    {"epsilons": []},
    {"epsilons": [0.1, 0.0]},
    {"epsilons": [0.1, -0.05]},
    {"mass_interval": [1.2, 0.8]},
], ids=["one-mass", "repeated-epsilon", "no-epsilons", "zero-epsilon",
        "negative-epsilon", "reversed-interval"])
def test_bad_mass_oscillation_config_is_config_error(tmp_path, capsys, override):
    cfg = small_configs()["mass-oscillation"]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("scenario, key", [
    ("dirac-residual", "n_modes"),
    ("null-product-invariance", "n_packets"),
    ("null-product-invariance", "nodes_per_packet"),
    ("mass-pairing", "n_draws"),
])
def test_zero_draws_is_config_error(tmp_path, scenario, key):
    cfg = small_configs()[scenario]
    cfg[key] = 0
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main([scenario, "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("scenario", ["null-product-invariance", "mass-pairing"])
def test_nan_amplitude_is_config_error(tmp_path, scenario):
    cfg = small_configs()[scenario]
    cfg["potential"] = {"kind": "harmonic", "amplitude": float("nan"), "frequency": 1.0}
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main([scenario, "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_measurement_fails_with_strict_json_summary(tmp_path):
    # u this close to 0 overflows the kernel phase: every kernel entry is NaN
    cfg = small_configs()["fp-kernel-export"]
    cfg["u_values"] = [-1e-320]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["fp-kernel-export", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["spin_adjoint_symmetry"]["measured"] is None
    assert checks["spin_adjoint_symmetry"]["passed"] is False
    assert summary["passed"] is False


def test_checks_fail_on_non_finite_measurements():
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert not cli._leq("x", bad, 1.0).passed
        assert not cli._geq("x", bad, -1.0).passed
    assert np.isnan(cli._worst([1.0, float("nan"), 2.0]))
    assert cli._worst([]) == 0.0
