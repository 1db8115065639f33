"""Scenario runner: exit codes, artifacts, determinism run to run."""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkovfp import cli
from volkovfp.modes import ModeParams, smooth_bump
from volkovfp.potential import (HarmonicPotential, PlaneWavePotential, PulsePotential,
                                TabulatedPotential, ZeroPotential)
from volkovfp.projector import fp_kernel_momentum, mass_oscillation_check, wave_slice
from volkovfp.spectral import (GaussianWindow, HannWindow, harmonic_sidebands_analytic,
                               windowed_phase_transform)


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


@pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe{}", b"[1]"],
                         ids=["directory", "truncated", "not-utf8", "not-an-object"])
def test_unreadable_config_is_config_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    if content is None:
        cfg_path.mkdir()
    else:
        cfg_path.write_bytes(content)
    out = tmp_path / "o"
    assert cli.main(["sidebands", "--config", str(cfg_path), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


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
    {"periods": 0}, {"samples_per_period": 0},
    {"n_max": -1}, {"n_max": 0}, {"n_compare": 20}, {"n_compare": -1},
    {"tolerence": 1e-4}, {"n_max": True}, {"periods": 1, "samples_per_period": 1},
], ids=["zero-u", "negative-m", "zero-frequency", "nan-amplitude", "zero-periods",
        "zero-samples-per-period", "negative-n-max", "n-max-below-n-compare",
        "n-compare-above-n-max", "negative-n-compare", "unknown-key", "boolean-n-max",
        "one-sample-grid"])
def test_bad_sidebands_mode_or_wave_rejected(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(**override))
    out = tmp_path / "o"
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("override", [{"k2": 0.0, "k3": 0.0}, {"amplitude": 0.0}],
                         ids=["on-axis-mode", "zero-amplitude"])
def test_sidebands_with_vanishing_lines_pass(tmp_path, override):
    """J_n(0) = 0 makes some analytic lines exactly 0: those lines are held
    to an absolute amplitude gap and have no position to compare."""
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(**override))
    out = tmp_path / "out"
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
    checks = {c["name"]: c for c in json.loads((out / "summary.json").read_text())["checks"]}
    assert checks["max_amplitude_relative_gap"]["measured"] <= 1e-4
    assert checks["max_position_offset_bins"]["measured"] <= 1.0


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
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main([scenario, "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
        runs.append(_csv_bytes(out))
    assert runs[0].keys() == runs[1].keys() and len(runs[0]) >= 1
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], f"{scenario}:{name} differs run to run"


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


DISJOINT_NULL = {"null_tolerance": 1e-3, "disjoint_support_low": [0.8, 0.88],
                 "disjoint_support_high": [1.12, 1.2]}


@pytest.mark.parametrize("override", [
    {"n_masses": 1},
    {"epsilons": [0.1, 0.1, 0.05]},
    {"epsilons": []},
    {"epsilons": [0.1, 0.0]},
    {"epsilons": [0.1, -0.05]},
    {"mass_interval": [1.2, 0.8]},
    {"disjoint_null_check": True, "null_tolerance": 1e-3,
     "disjoint_support_low": [0.8], "disjoint_support_high": [1.12, 1.2]},
    {"disjoint_null_chek": True, **DISJOINT_NULL},
    {"disjoint_null_check": "no", **DISJOINT_NULL},
    {"disjoint_null_check": True},
    {"epsilons": [1e-300, 2e-300]},
    {"disjoint_null_check": True, **DISJOINT_NULL, "disjoint_support_low": [0.7, 0.9]},
], ids=["one-mass", "repeated-epsilon", "no-epsilons", "zero-epsilon",
        "negative-epsilon", "reversed-interval", "one-number-disjoint-support",
        "misspelled-null-check", "text-null-check", "null-check-without-supports",
        "vanishing-epsilons", "disjoint-support-past-interval"])
def test_bad_mass_oscillation_config_is_config_error(tmp_path, capsys, override):
    cfg = small_configs()["mass-oscillation"]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_subnormal_epsilon_is_config_error_without_warning(tmp_path, capsys):
    cfg = small_configs()["mass-oscillation"]
    cfg["epsilons"] = [5e-324, 1e-300]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("scenario, override", [
    ("decay-scan", {"k2": float("nan")}),
    ("decay-scan", {"m": 0.0}),
    ("decay-scan", {"u_grid": [-2.0, -0.2, 2.5]}),
    ("decay-scan", {"u_grid": [-2.0, -0.2, "x"]}),
    ("decay-scan", {"l_range": [0.0, 10.0]}),
    ("decay-scan", {"l_range": [5.0]}),
    ("decay-scan", {"n_l": 7}),
    ("decay-scan", {"weight": {"center": -1.1, "sigma": 0.0}}),
    ("fp-kernel-export", {"m": 0.0}),
    ("fp-kernel-export", {"k2_values": [float("nan")]}),
    ("fp-kernel-export", {"s_tilde_values": ["a"]}),
    ("fp-kernel-export", {"s_values": [10 ** 400]}),
    ("null-product-invariance", {"s_values": [float("nan")]}),
    ("fp-kernel-export", {"tolerance": 10 ** 400}),
    ("dirac-residual", {"seed": -1}),
    ("mass-pairing", {"seed": -1}),
    ("null-product-invariance", {"seed": -1}),
    ("decay-scan", {"seed": -1}),
    ("mass-oscillation", {"seed": -1}),
    ("decay-scan", {"weight": {"center": -1.1, "sigma": 0.04, "sigmaa": 0.04}}),
    ("dirac-residual", {"potential": {"kind": "harmonic", "amplitude": 0.2,
                                      "frequency": 1.0, "width": 3.0}}),
    ("mass-pairing", {"potential": {"kind": "harmonic", "amplitude": "0.2",
                                    "frequency": 1.0}}),
    ("null-product-invariance", {"potential": {"kind": "harmonic", "amplitude": True,
                                               "frequency": 1.0}}),
    ("fp-kernel-export", {"schema_version": True}),
], ids=["decay-nan-k2", "decay-zero-m", "decay-fractional-u-count", "decay-text-u-count",
        "decay-zero-l", "decay-one-number-l-range", "decay-few-l", "decay-zero-sigma",
        "kernel-zero-m", "kernel-nan-k2", "kernel-text-s-tilde", "kernel-huge-s",
        "null-product-nan-s", "kernel-huge-tolerance", "dirac-negative-seed",
        "pairing-negative-seed", "null-product-negative-seed", "decay-negative-seed",
        "oscillation-negative-seed", "decay-unknown-weight-key", "dirac-stray-potential-width",
        "pairing-text-amplitude", "null-product-boolean-amplitude",
        "kernel-boolean-schema-version"])
def test_bad_grid_or_mode_is_config_error(tmp_path, capsys, scenario, override):
    cfg = small_configs()[scenario]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main([scenario, "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


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


@pytest.mark.parametrize("override", [
    {"v_fit": [5.0, 50.0]},
    {"v_fit": [5.0, 50.0, 4]},
    {"v_fit": [-5.0, 50.0, 25]},
    {"v_fit": [50.0, 5.0, 25]},
    {"v_fit": [5.0, 50.0, 12.5]},
    {"plancherel": {"v_max": 60.0, "dv": 0.0, "tolerance": 1e-6}},
    {"plancherel": {"v_max": 60.0, "dv": 80.0, "tolerance": 1e-6}},
    {"plancherel": {"v_max": -1.0, "dv": 0.2, "tolerance": 1e-6}},
    {"u": 0.0},
    {"window": {"kind": "boxcar"}},
    {"window": {"kind": "gaussian", "center": 0.0, "width": float("nan")}},
    {"window": {"kind": "hann", "lo": 1.0, "hi": -1.0}},
    {"asymmetry_report": {"u": 0.0}},
    {"k2": float("nan")},
    {"asymmetry_report": {"u": True}},
    {"asymmetry_report": [1]},
    {"plancherel": {"v_max": 60.0, "dv": 0.2, "tolerance": 1e-6, "dV": 0.2}},
    {"potential": {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0}},
    {"potential": {"kind": "harmonic", "amplitude": 10 ** 400, "frequency": 1.0}},
    {"potential": {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": ["0", 0, 0, 0]}},
    {"potential": {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": [0] * 4, "a3": True}},
    {"potential": ["harmonic", 0.2, 1.0]},
    {"window": {"kind": "hann", "lo": -4.0, "hi": float("inf")}},
    {"window": {"kind": "gaussian", "center": 0.0, "width": 0.155, "lo": 1.0}},
], ids=["two-element-v-fit", "too-few-fit-points", "negative-v-fit", "reversed-v-fit",
        "fractional-fit-count", "zero-dv", "dv-above-v-max", "negative-v-max", "zero-u",
        "unknown-window", "nan-gaussian-width", "empty-hann-support", "zero-u-asymmetry",
        "nan-k2", "boolean-u-asymmetry", "list-asymmetry-report", "unknown-plancherel-key",
        "pulse-without-width", "huge-amplitude", "text-sample", "boolean-a3",
        "list-potential", "infinite-hann-end", "gaussian-with-hann-field"])
def test_bad_wavefront_probe_config_is_config_error(tmp_path, capsys, override):
    cfg = small_configs()["wavefront-probe"]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["wavefront-probe", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_wavefront_probe_summary_reports_its_quadrature(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", small_configs()["wavefront-probe"])
    out = tmp_path / "out"
    assert cli.main(["wavefront-probe", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["transform_error_estimate"] <= 1e-12
    assert set(summary["s_nodes"]) == {"fit", "plancherel"}
    assert all(n > 0 and n % 32 == 0 for n in summary["s_nodes"].values())
    header = (out / "wavefront_dense.csv").read_text().splitlines()[1]
    assert header == "v,re_F,im_F"


def test_workers_option_is_gone(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", small_configs()["dirac-residual"])
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["dirac-residual", "--config", cfg_path, "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, path, value, code", [
    ("wavefront-probe", ("m",), 1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("u",), -1e-300, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("window", "width"), 1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("plancherel", "dv"), 1e-300, cli.EXIT_CONFIG),
    ("sidebands", ("k2",), 1e200, cli.EXIT_DOMAIN),
    ("sidebands", ("frequency",), 1e200, cli.EXIT_CONFIG),
    ("decay-scan", ("weight", "sigma"), 1e-300, cli.EXIT_CONFIG),
    ("decay-scan", ("weight", "center"), 1e200, cli.EXIT_CONFIG),
    ("decay-scan", ("weight", "center"), -1e200, cli.EXIT_CONFIG),
    ("wavefront-probe", ("k2",), 1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("k3",), -1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("potential", "amplitude"), 1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("asymmetry_report",), {"k2": -1e200}, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("window", "width"), 1e-300, cli.EXIT_CONFIG),
    ("sidebands", ("frequency",), -1e200, cli.EXIT_CONFIG),
    ("sidebands", ("frequency",), 1e-300, cli.EXIT_DOMAIN),
    ("sidebands", ("k2",), 1e6, cli.EXIT_DOMAIN),
    ("sidebands", ("k2",), 1e9, cli.EXIT_DOMAIN),
    ("sidebands", ("k2",), 1e12, cli.EXIT_DOMAIN),
    ("sidebands", ("u",), -1e-300, cli.EXIT_DOMAIN),
    ("sidebands", ("amplitude",), 1e200, cli.EXIT_DOMAIN),
    ("wavefront-probe", ("potential",),
     {"kind": "pulse", "amplitude": 0.5, "frequency": 1e308, "width": 1.0}, cli.EXIT_CONFIG),
    ("wavefront-probe", ("potential",),
     {"kind": "pulse", "amplitude": 0.5, "frequency": 1e200, "width": 1e200}, cli.EXIT_CONFIG),
    ("dirac-residual", ("potential",),
     {"kind": "pulse", "amplitude": 0.5, "frequency": 1e-10, "width": 1e301}, cli.EXIT_CONFIG),
    ("dirac-residual", ("potential",),
     {"kind": "pulse", "amplitude": 0.5, "frequency": 0.0, "width": 1.7e308}, cli.EXIT_CONFIG),
], ids=["wavefront-huge-m", "wavefront-tiny-u", "wavefront-huge-window", "wavefront-tiny-dv",
        "sidebands-huge-k2", "sidebands-huge-frequency", "decay-tiny-sigma",
        "decay-huge-center", "decay-huge-negative-center", "wavefront-huge-k2",
        "wavefront-huge-negative-k3", "wavefront-huge-amplitude", "wavefront-asymmetry-huge-k2",
        "wavefront-tiny-window", "sidebands-huge-negative-frequency", "sidebands-tiny-frequency",
        "sidebands-k2-1e6", "sidebands-k2-1e9", "sidebands-k2-1e12", "sidebands-tiny-u",
        "sidebands-huge-amplitude", "wavefront-pulse-huge-frequency",
        "wavefront-pulse-huge-frequency-width", "dirac-pulse-huge-width",
        "dirac-pulse-huge-width-zero-frequency"])
@pytest.mark.filterwarnings("error")
def test_extreme_value_exits_without_traceback_or_files(tmp_path, capsys, scenario, path,
                                                        value, code):
    """A value the library refuses exits 2 and an overflow exits 3, with one
    error line, nothing written and, with warnings raised as errors, no
    numpy warning, within seconds: each case once ended in a traceback, in
    a NaN window and exit 1, printed a RuntimeWarning (an overflow, or 0/0
    in the Gaussian window) before its error line, or (a sideband k2 of
    1e9 or 1e12) ran a Bessel recurrence for minutes or out of memory."""
    cfg = small_configs()[scenario]
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main([scenario, "--config", cfg_path, "--out", str(out)]) == code
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    prefix = "config error:" if code == cli.EXIT_CONFIG else "numerical domain error:"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("width", [1e200, 1e300])
@pytest.mark.filterwarnings("error")
def test_wide_pulse_runs_every_per_mode_scenario(tmp_path, width):
    """A pulse wider than about 1.34e154 is accepted, and every per-mode
    scenario runs on it: each once exited 3, as the pulse field raised
    OverflowError on width ** 2."""
    for scenario in ("dirac-residual", "null-product-invariance", "mass-pairing", "decay-scan",
                     "fp-kernel-export"):
        cfg = small_configs()[scenario]
        cfg["potential"] = {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0, "width": width}
        out = tmp_path / scenario
        cfg_path = write_config(tmp_path, f"{scenario}.json", cfg)
        assert cli.main([scenario, "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
        assert (out / "summary.json").exists()


_GRID_KEYS = [("mass-oscillation", "u_grid"), ("mass-oscillation", "k2_grid"),
              ("mass-oscillation", "k3_grid"), ("decay-scan", "u_grid"),
              ("wavefront-probe", "v_fit")]


def test_grid_keys_are_the_listed_ones():
    parsed = [(scenario, name) for scenario, (keys, _) in cli.CONFIG_TABLES.items()
              for name, key in keys.items() if key.kind is cli._grid]
    assert sorted(parsed) == sorted(_GRID_KEYS)


# Count and list keys that size no allocation of their own: the seed, the
# two-number intervals, and n_compare, which the rules bound by n_max.
_UNBUDGETED_KEYS = {"seed", "mass_interval", "l_range", "disjoint_support_low",
                    "disjoint_support_high", "n_compare"}


def test_every_count_and_list_key_has_a_size_budget():
    """Every integer or list key of every scenario is named in a _budget
    rule, has a key rule naming _MAX_GRID_POINTS or is one of the few
    keys that size nothing."""
    cap = f"at most {cli._MAX_GRID_POINTS}"
    unbounded = []
    for scenario, (keys, rules) in cli.CONFIG_TABLES.items():
        budgets = " ".join(rule for _, rule in rules if rule.endswith(cap))
        for name, key in keys.items():
            if key.kind not in (cli._integer, cli.numbers, cli._grid) or name in _UNBUDGETED_KEYS:
                continue
            named = re.search(rf"\b{name}\b", budgets)
            if not named and str(cli._MAX_GRID_POINTS) not in key.rule:
                unbounded.append(f"{scenario}.{name}")
    assert unbounded == []


@pytest.mark.parametrize("count", [1e200, -1e200, 2.0 ** 63])
@pytest.mark.parametrize("scenario, key", _GRID_KEYS, ids=lambda v: v)
def test_grid_count_past_an_index_is_config_error(tmp_path, capsys, scenario, key, count):
    """An integral grid count that fits no index exits 2 naming its key (a
    count of 1e200 once overflowed the grid allocation and exited 3)."""
    cfg = small_configs()[scenario]
    cfg[key] = [*cfg[key][:2], count]
    out = tmp_path / "out"
    code = cli.main([scenario, "--config", write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: config.{key} must be [lo, hi, n] with an integer n of index size\n"
    assert not out.exists()


_FAMILY = "n_masses x u_grid x k2_grid x k3_grid"
_WEIGHT_TABLE = "u_grid x epsilons x n_masses^2"


@pytest.mark.parametrize("scenario, override, named", [
    ("mass-oscillation", {"n_masses": 2 ** 20}, _FAMILY),
    ("mass-oscillation", {"u_grid": [-0.1, -0.05, 1e18]}, _FAMILY),
    ("mass-oscillation", {"k2_grid": [-0.2, 0.2, 2 ** 18]}, _FAMILY),
    ("mass-oscillation", {"k3_grid": [-0.2, 0.2, 2 ** 18]}, _FAMILY),
    ("mass-oscillation", {"n_masses": 600}, _WEIGHT_TABLE),
    ("mass-oscillation", {"n_masses": 300, "epsilons": [0.1 / 2 ** i for i in range(12)]},
     _WEIGHT_TABLE),
    ("wavefront-probe", {"plancherel": {"v_max": 60.0, "dv": 1e-4, "tolerance": 1e-6}},
     "2 v_max / dv + 1"),
    ("wavefront-probe", {"v_fit": [5.0, 50.0, 2 ** 20 + 1]}, "config.v_fit"),
    ("decay-scan", {"u_grid": [-2.0, -0.2, 2 ** 20 + 1]}, "config.u_grid"),
    ("dirac-residual", {"n_modes": 10 ** 12}, "n_modes"),
    ("mass-pairing", {"n_draws": 10 ** 12}, "n_draws"),
    ("null-product-invariance", {"n_packets": 2 ** 11, "nodes_per_packet": 2 ** 10},
     "n_packets x nodes_per_packet"),
    ("null-product-invariance", {"n_packets": 2 ** 10, "nodes_per_packet": 2 ** 7,
                                 "s_values": [0.0] * 8}, "(s_values + 1) x n_packets"),
    ("sidebands", {"n_max": 504}, "(2 n_max + 1) x (2 n_max + 33)"),
    ("sidebands", {"periods": 10 ** 12}, "periods x samples_per_period"),
    ("decay-scan", {"n_l": 2 ** 20 // 160 + 1}, "2 n_l x u_grid"),
    ("decay-scan", {"s_values": [0.0] * (2 ** 20 // 80 + 1)}, "s_values x u_grid"),
    ("fp-kernel-export", {"u_values": [-0.5] * 2 ** 10, "k2_values": [0.3] * 2 ** 10},
     "u_values x k2_values x k3_values x s_values x s_tilde_values"),
], ids=["n_masses", "u_grid", "k2_grid", "k3_grid", "weight-table-n_masses",
        "weight-table-epsilons", "plancherel", "v_fit", "decay-u_grid", "n_modes", "n_draws",
        "packet-nodes", "packet-surfaces", "sidebands-n_max", "sidebands-samples",
        "decay-l-kernel", "decay-s-table", "kernel-export-product"])
def test_grid_past_the_point_cap_is_refused_before_allocating(tmp_path, capsys, monkeypatch,
                                                              scenario, override, named):
    """A config-sized grid or count of more than _MAX_GRID_POINTS points exits
    2 naming its keys, writes nothing and allocates nothing: the runner is
    never reached (a mass-oscillation u_grid count of 1e18 once ended in a
    MemoryError traceback, an n_modes or periods of 1e12 in exit 1)."""
    def never_run(cfg):
        raise AssertionError("the runner was reached")

    monkeypatch.setitem(cli._SCENARIOS, scenario, (never_run, cli._SCENARIOS[scenario][1]))
    cfg = small_configs()[scenario]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main([scenario, "--config", cfg_path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err and f"{cli._MAX_GRID_POINTS}" in err
    assert not out.exists()
    assert peak < 2 ** 20, peak


@pytest.mark.filterwarnings("error")
def test_overflowing_tabulated_table_is_config_error_without_warning(tmp_path, capsys):
    """A table whose spline arithmetic overflows exits 2 with one error line
    naming s and writes nothing; its build once printed scipy's
    RuntimeWarnings first."""
    cfg = small_configs()["dirac-residual"]
    cfg["potential"] = {"kind": "tabulated", "s": [-1e308, 0.0, 1e308, 1.7e308],
                        "a2": [0.1, 0.2, 0.0, 0.3]}
    out = tmp_path / "out"
    code = cli.main(["dirac-residual", "--config", write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config.potential: tabulated s ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["k2_grid", "k3_grid"])
@pytest.mark.parametrize("end", [1e200, -1e200])
def test_overflowed_mass_oscillation_gap_is_inf_without_warning(tmp_path, key, end):
    """A transverse grid out to 1e200 overflows the disjoint pairing's gap,
    which no check reads: the run passes under -W error and the gap is inf."""
    cfg = json.loads((ROOT / "configs" / "mass_oscillation.json").read_text())
    lo, hi, n = cfg[key]
    cfg[key] = [lo, end, n] if end > 0 else [end, hi, n]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "volkovfp.cli", "mass-oscillation",
         "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert (done.returncode, done.stderr) == (cli.EXIT_PASS, "")
    valid = cli.validate_config("mass-oscillation", cfg)
    fam = cli._grid_family(valid)
    fam_lo, fam_hi = (dataclasses.replace(fam, eta=smooth_bump(fam.masses, *valid[support]))
                      for support in ("disjoint_support_low", "disjoint_support_high"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        null = mass_oscillation_check(fam_lo, fam_hi, valid["potential"], valid["epsilons"])
    assert null.relative_gap == np.inf


def test_overflow_line_names_scenario_and_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(k2=1e200))
    out = tmp_path / "out"
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("numerical domain error: sidebands: OverflowError: ")
    assert err.count("\n") == 1
    assert not out.exists()


TOLERANCE_KEYS = {"tolerance", "amplitude_tolerance", "sum_sq_tolerance", "null_tolerance"}
ROOT = Path(__file__).resolve().parent.parent


def _paths(value, prefix=()):
    """Path to every value inside a config: object keys and list elements."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A small config with one key dropped, misspelled or added, or one value
    retyped or overwritten.  Numbers become NaN, +-Infinity, 0, -1, +-1e200
    or +-1e-300, and 1e308 goes only into tolerances.  An extreme value
    must be refused before it is allocated: a count or grid extent of
    1e200 exits 2 or 3 like any other."""
    scenario = draw(st.sampled_from(sorted(small_configs())))
    cfg = small_configs()[scenario]
    *parents, last = draw(st.sampled_from(list(_paths(cfg))))
    holder = cfg
    for key in parents:
        holder = holder[key]
    value = holder[last]
    edits = ["text", True, None, [value], {"value": value}]
    if isinstance(last, str):
        edits += ["drop", "misspell", "add"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        edits += [float("nan"), float("inf"), float("-inf"), 0, -1,
                  1e200, -1e200, 1e-300, -1e-300]
        edits += [1e308] if last in TOLERANCE_KEYS else []
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del holder[last]
    elif edit == "misspell":
        holder[last[:-1] + "_"] = holder.pop(last)
    elif edit == "add":
        holder["unexpected_key"] = 1.0
    else:
        holder[last] = str(value) if edit == "text" else edit
    return scenario, cfg


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_config_never_raises(case):
    """Any one-key mutation of a valid config ends in exit 0-3 without a
    traceback, and exit 1 only with the checks that ran in summary.json."""
    scenario, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(Path(tmp), "cfg.json", cfg)
        out = Path(tmp) / "out"
        code = cli.main([scenario, "--config", cfg_path, "--out", str(out)])
        assert code in (cli.EXIT_PASS, cli.EXIT_ASSERTION, cli.EXIT_CONFIG, cli.EXIT_DOMAIN)
        if code in (cli.EXIT_PASS, cli.EXIT_ASSERTION):
            summary = json.loads((out / "summary.json").read_text())
            assert summary["checks"] and summary["passed"] == (code == cli.EXIT_PASS)
        else:
            assert not out.exists() or not any(out.iterdir())


def _workload_configs():
    """(label, scenario, config) of every perfbench workload item that is a
    scenario config, at both sizes; perfbench/workloads.py is standard
    library only and is loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for item in workloads.generate(workload, seed=1, size=size):
                if item["kind"] == "scenario":
                    yield f"{workload}/{size}/{item['label']}", item["scenario"], item["config"]


def test_shipped_and_benchmark_configs_validate():
    """The schema accepts every shipped config and every benchmark workload
    config, so a stricter table cannot fail the benchmark's runs."""
    shipped = [(p.name, json.loads(p.read_text())) for p in sorted((ROOT / "configs").glob("*.json"))]
    cases = [(name, cfg["scenario"], cfg) for name, cfg in shipped] + list(_workload_configs())
    assert len(shipped) == len(cli.CONFIG_TABLES) == 8
    for label, scenario, cfg in cases:
        valid = cli.validate_config(scenario, cfg)
        assert valid["scenario"] == scenario, label


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shipped_and_smoke_benchmark_runs_raise_no_runtime_warning(tmp_path):
    """Every shipped config and every smoke-size benchmark scenario config
    runs and passes with each RuntimeWarning raised as an error."""
    shipped = [(p.stem, json.loads(p.read_text())) for p in sorted((ROOT / "configs").glob("*.json"))]
    runs = [(name, cfg["scenario"], cfg) for name, cfg in shipped]
    runs += [run for run in _workload_configs() if "/smoke/" in run[0]]
    assert len(runs) == 8 + 19
    for label, scenario, cfg in runs:
        assert cli.run_scenario(scenario, cfg, tmp_path / label)["passed"], label


# Domain checks per run: one per field or moments call, on every profile kind.
_DOMAIN_CHECKS = {"dirac-residual": 2, "null-product-invariance": 1, "mass-pairing": 2,
                  "decay-scan": 2, "fp-kernel-export": 3}


def test_domain_checks_per_run_are_the_same_for_every_profile_kind(monkeypatch, tmp_path):
    """Each per-mode benchmark run, on a harmonic, a pulse or a tabulated
    profile, checks the profile's domain the same number of times."""
    checked = []
    for cls in (PlaneWavePotential, TabulatedPotential):
        def spy(self, s, original=vars(cls)["check_domain"]):
            checked.append(s)
            return original(self, s)

        monkeypatch.setattr(cls, "check_domain", spy)
    runs = [run for run in _workload_configs() if "/smoke/" in run[0] and run[1] in _DOMAIN_CHECKS]
    assert len(runs) == 3 * len(_DOMAIN_CHECKS)
    for label, scenario, cfg in runs:
        checked.clear()
        cli.run_scenario(scenario, cfg, tmp_path / label)
        assert len(checked) == _DOMAIN_CHECKS[scenario], label


_TAB_S = np.linspace(-2.0, 2.0, 9)
_TAB_A2 = np.linspace(0.0, 0.8, 9)


@pytest.mark.parametrize("key, desc, value", [
    ("potential", {"kind": "zero"}, ZeroPotential()),
    ("potential", {"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0},
     HarmonicPotential(0.2, 1.0)),
    ("potential", {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0, "width": 3.0},
     PulsePotential(0.5, 1.0, 3.0)),
    ("potential", {"kind": "tabulated", "s": _TAB_S.tolist(), "a2": _TAB_A2.tolist(),
                   "a3": [0.1] * 9}, TabulatedPotential(_TAB_S, _TAB_A2, np.full(9, 0.1))),
    ("window", {"kind": "gaussian", "center": 0.0, "width": 0.155}, GaussianWindow(0.0, 0.155)),
    ("window", {"kind": "hann", "lo": -4.0, "hi": 4.0}, HannWindow(-4.0, 4.0)),
], ids=["zero", "harmonic", "pulse", "tabulated", "gaussian", "hann"])
def test_library_descriptors_are_config_descriptors(key, desc, value):
    """The key tables build from a descriptor the object its constructor builds."""
    cfg = small_configs()["wavefront-probe"]
    cfg[key] = desc
    built = cli.validate_config("wavefront-probe", cfg)[key]
    assert type(built) is type(value)
    if dataclasses.is_dataclass(value):
        assert built == value
    else:
        assert all(map(np.array_equal, built.field(_TAB_S), value.field(_TAB_S)))


# Run in a fresh interpreter: this process has already imported scipy.  With
# "block", a meta-path finder makes every scipy import raise ImportError, as
# on an install of the runtime dependencies alone.
_SCIPY_PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "block":
    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")
    sys.meta_path.insert(0, NoScipy())
from volkovfp import cli
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for path in sys.argv[3:]:
        scenario = json.loads(Path(path).read_text())["scenario"]
        codes.append(cli.main([scenario, "--config", path, "--out", str(Path(tmp) / Path(path).stem)]))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _probe(configs, mode="allow"):
    """Exit codes of the configs run through cli.main in a fresh
    interpreter, and the modules it had loaded at the end."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src, mode, *configs],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], result["modules"]


_SHIPPED = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))]


def _scipy_modules(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_shipped_runs_import_no_scipy():
    """Every shipped config, sidebands included, passes through the CLI
    without loading any scipy module."""
    assert len(_SHIPPED) == 8
    codes, loaded = _probe(_SHIPPED)
    assert codes == [cli.EXIT_PASS] * 8
    assert "volkovfp.cli" in loaded and "volkovfp.spectral" in loaded
    assert _scipy_modules(loaded) == []


def test_shipped_runs_pass_where_scipy_cannot_be_imported():
    """The runtime dependencies are numpy alone: with every scipy import
    made to fail, all 8 shipped configs still exit 0."""
    codes, loaded = _probe(_SHIPPED, "block")
    assert codes == [cli.EXIT_PASS] * 8
    assert _scipy_modules(loaded) == []


_PER_MODE = ("dirac-residual", "null-product-invariance", "mass-pairing", "decay-scan",
             "fp-kernel-export")


_UNEVEN_S = np.sort(np.concatenate([[-6.0, 6.0], np.random.default_rng(2).uniform(-6.0, 6.0, 30)]))


@pytest.mark.parametrize("profile", [
    {"kind": "tabulated", "s": _UNEVEN_S.tolist(), "a2": (0.3 * np.cos(_UNEVEN_S)).tolist(),
     "a3": (0.1 * np.sin(2.0 * _UNEVEN_S)).tolist()},
    {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0, "width": 3.0},
], ids=["tabulated", "pulse"])
def test_per_mode_runs_import_no_scipy(tmp_path, profile):
    """The five per-mode scenarios on a tabulated profile (a3 != 0, uneven
    knots) or a pulse run through the CLI without loading any scipy module."""
    configs = []
    for scenario in _PER_MODE:
        cfg = {**small_configs()[scenario], "scenario": scenario, "potential": profile}
        configs.append(write_config(tmp_path, f"{scenario}.json", cfg))
    codes, loaded = _probe(configs)
    assert codes == [cli.EXIT_PASS] * len(_PER_MODE)
    assert "volkovfp.potential" in loaded
    assert _scipy_modules(loaded) == []


def test_library_imports_no_scipy():
    """No module of the package imports scipy, at module level or inside a
    function: numpy is its one runtime dependency."""
    package = Path(cli.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert "spectral.py" in {path.name for path in modules}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name


def _fmt_cell(x) -> str:
    """Per-cell CSV formatting that _write_csv's column formats must reproduce."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _columns(rows) -> list[list]:
    return [list(column) for column in zip(*rows)]


def test_csv_row_format_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 1e-310, 1e308, 0.1, float("nan"), float("inf"), float("-inf")]
    rows = [("case", i, np.int64(-i), bool(i % 2), x, np.float64(-x))
            for i, x in enumerate([*specials, *rng.normal(size=20) * 10.0 ** rng.integers(-9, 9, 20)])]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a", "b", "c", "d", "e", "f"], _columns(rows), "c")
    expected = ["# c", "a,b,c,d,e,f", *(",".join(map(_fmt_cell, row)) for row in rows)]
    assert path.read_text() == "\n".join(expected) + "\n"
    cli._write_csv(path, ["a"], [[]], "c")
    assert path.read_text() == "# c\na\n"


def _per_row_csv(header, columns, comment) -> bytes:
    """The artifact as the per-row writer first wrote it: one % format per
    row, set by the first row's cell types (text %s, integers %d, other
    numbers %.17g)."""
    rows = list(zip(*(np.asarray(c).tolist() for c in columns)))
    lines = [f"# {comment}\n{','.join(header)}\n"]
    if rows:
        fmt = ",".join("%s" if isinstance(c, str) else "%d" if isinstance(c, (int, np.integer))
                       else "%.17g" for c in rows[0]) + "\n"
        lines += [fmt % row for row in rows]
    return "".join(lines).encode()


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_csvs_match_the_per_row_writer(tmp_path, python_cells, config):
    """Every CSV of every shipped config, byte for byte what the per-row %
    writer makes of the same table; only its text cells reach Python's %."""
    cfg = json.loads(config.read_text())
    runner = cli._SCENARIOS[cfg["scenario"]][0]
    tables = runner(cli.validate_config(cfg["scenario"], cfg)).tables
    assert tables
    for name, (header, columns) in tables.items():
        cli._write_csv(tmp_path / name, header, columns, "c")
        assert (tmp_path / name).read_bytes() == _per_row_csv(header, columns, "c"), name
        texts = [v for c in columns for v in np.asarray(c).tolist() if isinstance(v, str)]
        assert python_cells == texts, name
        python_cells.clear()


def test_batched_pi_minus_projection_matches_rows():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    batched = cli._unit_pi_minus(raw)
    for row, out in zip(raw, batched):
        assert np.array_equal(cli._unit_pi_minus(row[None, :])[0], out)


def _reference_draw_modes(rng, n):
    """The mode draws one Generator call per number, as first written."""
    draws = []
    for _ in range(n):
        u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
        k2 = float(rng.normal(0.0, 0.7))
        k3 = float(rng.normal(0.0, 0.7))
        m = float(rng.uniform(0.5, 1.5))
        point = rng.uniform(-3.0, 3.0, size=4)
        raw = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        draws.append((u, k2, k3, m, point, raw[0]))
    *columns, raw = (np.array(column) for column in zip(*draws))
    return [*columns, cli._unit_pi_minus(raw)]


def _reference_draw_pairs(rng, n):
    """The mass-pairing draws one Generator call per number, as first written."""
    draws = []
    for _ in range(n):
        k2 = float(rng.normal(0.0, 0.7))
        k3 = float(rng.normal(0.0, 0.7))
        u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
        m = float(rng.uniform(0.6, 1.4))
        mp = float(rng.uniform(0.6, 1.4))
        s = float(rng.uniform(-5.0, 5.0))
        raw_a = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        raw_b = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        draws.append((k2, k3, u, m, mp, s, raw_a[0], raw_b[0]))
    *columns, raw_a, raw_b = (np.array(column) for column in zip(*draws))
    return [*columns, cli._unit_pi_minus(raw_a), cli._unit_pi_minus(raw_b)]


@pytest.mark.parametrize("n", [1, 2, 3, 257])
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("draw, reference", [(cli._draw_modes, _reference_draw_modes),
                                             (cli._draw_pairs, _reference_draw_pairs)],
                         ids=["modes", "pairs"])
def test_draws_follow_the_per_number_stream(draw, reference, seed, n):
    """Bit-equal columns, and the generator left in the same state: an odd
    number of sign draws leaves half a 64-bit word buffered (has_uint32),
    which the next draw of the stream reads."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    columns, expected = draw(rng, n), reference(ref_rng, n)
    assert len(columns) == len(expected)
    for column, want in zip(columns, expected):
        assert column.shape == want.shape and np.array_equal(column, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(2**62) == ref_rng.integers(2**62)


def _reference_draw_packets(rng, n_packets, n_nodes):
    """The null-product draws one Generator call per number, in the order
    the per-packet loop first read them: psi's log |u|, k2, k3, spinors
    (real then imaginary), weights (real then imaginary) and quadrature
    weights, then phi's spinors and weights."""
    def numbers(draw, *args, shape=(n_nodes,)):
        return np.array([draw(*args) for _ in range(int(np.prod(shape)))]).reshape(shape)

    def amplitudes():
        re, im = (numbers(rng.normal, shape=(n_nodes, 4)) for _ in range(2))
        weights = numbers(rng.normal)
        return cli._unit_pi_minus(re + 1j * im), weights + 1j * numbers(rng.normal)

    packets = []
    for _ in range(n_packets):
        u = -np.exp(numbers(rng.uniform, np.log(0.1), np.log(2.0)))
        u += np.linspace(0.0, 1e-9, n_nodes)
        k2, k3 = numbers(rng.normal, 0.0, 0.5), numbers(rng.normal, 0.0, 0.5)
        chi_psi, w_psi = amplitudes()
        qw = numbers(rng.uniform, 0.1, 1.0)
        packets.append((u, k2, k3, qw, chi_psi, w_psi, *amplitudes()))
    return [np.array(column) for column in zip(*packets)]


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (150, 10)], ids=str)
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_packet_draws_follow_the_per_number_stream(seed, shape):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    columns, expected = cli._draw_packets(rng, *shape), _reference_draw_packets(ref_rng, *shape)
    assert len(columns) == len(expected) == 8
    for column, want in zip(columns, expected):
        assert column.shape == want.shape and np.array_equal(column, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_packets", [1, 5, 40])
def test_null_product_makes_one_product_call(tmp_path, monkeypatch, n_packets):
    """All packets and surfaces go through one null_scalar_product call, on
    one batch of psi and one of phi."""
    calls = {"product": 0, "packet": 0}
    product, post_init = cli.null_scalar_product, cli.WavePacket.__post_init__

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_post_init(self):
        calls["packet"] += 1
        post_init(self)

    monkeypatch.setattr(cli, "null_scalar_product", counted_product)
    monkeypatch.setattr(cli.WavePacket, "__post_init__", counted_post_init)
    cfg = {**small_configs()["null-product-invariance"], "n_packets": n_packets}
    summary = cli.run_scenario("null-product-invariance", cfg, tmp_path)
    assert summary["passed"]
    assert calls == {"product": 1, "packet": 2}
    rows = (tmp_path / "null_product.csv").read_text().splitlines()[2:]
    assert len(rows) == n_packets * len(cfg["s_values"])


def _closed_form_configs():
    """The five per-mode scenarios on one harmonic profile, at small sizes."""
    harmonic = {"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0}
    return {
        "dirac-residual": {"seed": 21, "n_modes": 40, "tolerance": 1e-10},
        "null-product-invariance": {"seed": 22, "n_packets": 3, "nodes_per_packet": 4,
                                    "s_values": [-10.0, 0.0, 10.0], "tolerance": 1e-10},
        "mass-pairing": {"seed": 23, "n_draws": 21, "tolerance": 1e-10},
        "decay-scan": {"seed": 24, "u_grid": [-1.4, -0.8, 40],
                       "weight": {"center": -1.1, "sigma": 0.06},
                       "k2": 0.3, "k3": 0.0, "m": 1.0, "l_range": [20.0, 200.0],
                       "n_l": 40, "s_values": [-2.0, 2.0], "order_min": 4.0},
        "fp-kernel-export": {"seed": 25, "u_values": [-2.0], "k2_values": [-0.3],
                             "k3_values": [0.0], "m": 1.0, "s_values": [-2.0, 1.3],
                             "s_tilde_values": [-0.7, 2.1], "tolerance": 1e-12},
    }, harmonic


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_per_mode_scenarios_are_byte_identical_run_to_run(tmp_path):
    configs, harmonic = _closed_form_configs()
    trees = []
    for run in ("a", "b"):
        for scenario, cfg in configs.items():
            summary = cli.run_scenario(
                scenario, {"schema_version": 1, "scenario": scenario, "potential": harmonic,
                           **cfg}, tmp_path / run / scenario)
            assert summary["passed"], (scenario, summary["checks"])
        trees.append(_tree_bytes(tmp_path / run))
    assert len(trees[0]) == 2 * len(configs)  # one CSV and summary.json each
    assert trees[0] == trees[1]


def test_csv_writers_match_per_row_formatting(tmp_path):
    """_write_csv writes columns (the wavefront files pass v, re F and im F)
    byte for byte as a per-row f-string writer does."""
    specials = [0.0, -0.0, 1e-310, -5e-324, 1e308, 0.1, np.nan, np.inf, -np.inf]
    v = np.array(specials + list(np.random.default_rng(4).normal(size=12) * 1e5))
    f = np.empty(v.size, dtype=complex)
    f.real, f.imag = v[::-1], -v
    path = tmp_path / "t.csv"
    header = ["v", "re_F", "im_F"]
    cli._write_csv(path, header, [v, f.real, f.imag], "c")
    rows = ["# c", "v,re_F,im_F"] + [f"{a:.17g},{b.real:.17g},{b.imag:.17g}" for a, b in zip(v, f)]
    assert path.read_text() == "\n".join(rows) + "\n"
    cli._write_csv(path, header, [[], [], []], "c")
    assert path.read_text() == "# c\nv,re_F,im_F\n"

    # spectral-line rows: the line index n is a %d column
    amps = [complex(1e-310, np.nan), complex(-0.0, np.inf), 0.5 - 0.25j]
    lines = [(n, -0.0 if n else 1e308, a.real, a.imag, abs(a)) for n, a in enumerate(amps, -1)]
    cli._write_csv(path, ["n", "v_n", "re_amp", "im_amp", "abs_amp"], _columns(lines), "c")
    rows = ["# c", "n,v_n,re_amp,im_amp,abs_amp"] + [
        f"{n},{v:.17g},{re:.17g},{im:.17g},{mag:.17g}" for n, v, re, im, mag in lines]
    assert path.read_text() == "\n".join(rows) + "\n"


def _run(tmp_path, scenario, cfg) -> Path:
    out = tmp_path / scenario
    assert cli.main([scenario, "--config", write_config(tmp_path, f"{scenario}.json", cfg),
                     "--out", str(out)]) == cli.EXIT_PASS
    return out


def test_csv_exports(tmp_path):
    """The sideband and wavefront files: comment line, header, and one row
    per line or v sample holding exactly the library's values."""
    cfg = sidebands_config()
    out = _run(tmp_path, "sidebands", cfg)
    comment = f"# config_sha256={cli._config_hash(cfg)}"
    mode = ModeParams(cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
    expected = [comment, "n,v_n,re_amp,im_amp,abs_amp"]
    for n, v, amp in zip(*(column.tolist() for column in harmonic_sidebands_analytic(
            mode, cfg["amplitude"], cfg["frequency"], cfg["n_max"]))):
        expected.append(f"{n},{v:.17g},{amp.real:.17g},{amp.imag:.17g},{abs(amp):.17g}")
    assert (out / "sidebands_analytic.csv").read_text() == "\n".join(expected) + "\n"
    fft = (out / "sidebands_fft.csv").read_text().splitlines()
    assert fft[:2] == expected[:2] and len(fft) == 2 + 2 * cfg["n_compare"] + 1
    assert [int(row.split(",")[0]) for row in fft[2:]] == list(range(-3, 4))

    cfg = small_configs()["wavefront-probe"]
    out = _run(tmp_path, "wavefront-probe", cfg)
    pot = HarmonicPotential(0.2, 1.0)
    mode = ModeParams(cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
    v_fit = np.geomspace(*cfg["v_fit"])
    f_fit = windowed_phase_transform(mode, pot, GaussianWindow(0.0, 0.155), v_fit)
    lines = (out / "wavefront_fit.csv").read_text().splitlines()
    assert lines[:2] == [f"# config_sha256={cli._config_hash(cfg)}", "v,re_F,im_F"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert np.array_equal(rows, np.column_stack([v_fit, f_fit.real, f_fit.imag]))
    dense = (out / "wavefront_dense.csv").read_text().splitlines()
    assert dense[:2] == lines[:2] and len(dense) == 2 + 601


def test_kernel_csv_export(tmp_path):
    cfg = small_configs()["fp-kernel-export"]
    lines = (_run(tmp_path, "fp-kernel-export", cfg) / "fp_kernel.csv").read_text().splitlines()
    assert lines[0] == f"# config_sha256={cli._config_hash(cfg)}"
    header = lines[1].split(",")
    assert header[:5] == ["u", "k2", "k3", "s", "s_tilde"]
    assert header[5:9] == ["re_00", "im_00", "re_01", "im_01"] and len(header) == 5 + 32
    assert len(lines) == 2 + 2 * 2 * 2


def test_kernel_csv_rows_match_per_cell_formatting(tmp_path):
    """The kernel columns print exactly what a %.17g f-string per cell does."""
    specials = [0.0, -0.0, 1e-310, -5e-324, 1e308, 0.1, np.nan, np.inf, -np.inf]
    value = np.empty((len(specials), 4, 4), dtype=complex)
    value.real = np.random.default_rng(5).normal(size=value.shape) * 1e3
    value.imag = np.array(specials)[:, None, None]
    value.real[:, 1] = -np.array(specials)[:, None]
    mode = ModeParams(k2=np.nan_to_num(specials, posinf=2.0, neginf=-2.0), k3=-0.0, u=-1e-310, m=1.0)
    one = ModeParams(k2=0.3, k3=-0.1, u=-0.5, m=1.0)
    pot = HarmonicPotential(0.2, 1.0)
    columns = [np.concatenate(pair) for pair in zip(
        cli._kernel_columns(mode, np.array(specials), np.inf, value),
        cli._kernel_columns(one, 0.1, -0.2,
                            fp_kernel_momentum(one, wave_slice(one, pot, 0.1, -0.2))))]
    rows = list(zip(*columns))
    assert len(rows) == len(specials) + 1 and len(columns) == 37
    path = tmp_path / "kernel.csv"
    cli._write_csv(path, cli._KERNEL_HEADER, columns, "c")
    expected = ["# c", ",".join(cli._KERNEL_HEADER)] + [
        ",".join(f"{cell:.17g}" for cell in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert {"nan", "inf", "-inf", "-0", "-4.9406564584124654e-324"} <= set(",".join(expected).split(","))


def test_batched_kernel_csv_rows_follow_the_batch(tmp_path):
    """fp_kernel.csv runs mode-major, (u, k2, k3) then s then s~, and each row
    holds the kernel of that one mode at that one (s, s~)."""
    cfg = small_configs()["fp-kernel-export"]
    cfg["k2_values"] = [0.3, -0.1]
    path = _run(tmp_path, "fp-kernel-export", cfg) / "fp_kernel.csv"
    rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[2:]]
    order = [(u, k2, k3, s, st) for u in cfg["u_values"] for k2 in cfg["k2_values"]
             for k3 in cfg["k3_values"] for s in cfg["s_values"] for st in cfg["s_tilde_values"]]
    assert len(rows) == len(order) == 16
    pot = HarmonicPotential(0.2, 1.0)
    for row, (u, k2, k3, s, st) in zip(rows, order):
        assert row[:5] == [u, k2, k3, s, st]
        mode = ModeParams(k2, k3, u, cfg["m"])
        single = fp_kernel_momentum(mode, wave_slice(mode, pot, s, st))
        assert np.max(np.abs(np.array(row[5::2]) + 1j * np.array(row[6::2])
                             - single.ravel())) <= 1e-13


_WRITERS = {"open", "write_text", "write_bytes"}


def test_only_cli_writes_files():
    """No library module imports csv or calls open, write_text or
    write_bytes: every artifact is written by cli."""
    package = Path(cli.__file__).resolve().parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "cli.py")
    assert len(modules) == 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "csv" for alias in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "csv", where
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called not in _WRITERS, f"{where} calls {called}"
