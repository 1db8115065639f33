"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They run every workload at smoke size, traced and untraced, through the
same entry point the benchmark uses, plus unit checks of the gate and
the tracer.  They live outside `tests/`, so the library's own suite does
not pay for them.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    """Final JSON line and child record of every smoke run."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            run_dir = run.RUNS / f"{workload}-seed{SEED}-trace{trace}-smoke"
            out[workload, trace] = (
                json.loads(proc.stdout.strip().splitlines()[-1]),
                json.loads((run_dir / "child.json").read_text()),
            )
    return out


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(n) for n in names), names


def test_reported_metrics_match_benchmark_json(smoke):
    for (workload, trace), (line, _) in smoke.items():
        declared = BENCH["per_layer" if trace else "end_to_end"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}, (workload, trace)


def test_smoke_instances_pass_every_check(smoke):
    for (workload, trace), (line, _) in smoke.items():
        assert line["attempted"] > 0
        assert line["failed"] == 0 and line["correct"], (workload, trace)
        if not trace:
            assert line["metrics"]["pass_ratio"]["value"] == 1.0


def test_traced_and_untraced_passes_agree(smoke):
    for workload in workloads.WORKLOADS:
        passes = smoke[workload, 1][1]["passes"]
        assert [p["traced"] for p in passes[:3]] == [False, True, False]
        reference = passes[0]["items"]
        for p in passes[1:]:
            for item, ref in zip(p["items"], reference):
                assert item["digest"] == ref["digest"], (workload, item["label"])
                assert [c["measured"] for c in item["checks"]] == \
                    [c["measured"] for c in ref["checks"]]


def test_self_time_within_traced_wall(smoke):
    for workload in workloads.WORKLOADS:
        layers = smoke[workload, 1][1]["layers"]
        assert 0.0 < layers["trace.self_sum_s"][0] <= layers["trace.wall_s"][0]
        assert layers["trace.span_count"][0] > 0


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from volkovfp import modes, potential

    def surface():
        owners = [__import__(f"volkovfp.{m}", fromlist=["_"]) for m in tracer.MODULES]
        owners += [getattr(potential, c) for c in tracer.PROFILE_CLASSES] + [modes.WavePacket]
        return {(id(o), name): obj for o in owners for name, obj in vars(o).items()}

    before = surface()
    t = tracer.Tracer()
    t.install()
    try:
        assert getattr(modes.transverse_phase, tracer.WRAPPED_FLAG, False)
        assert getattr(potential.PulsePotential.a2, tracer.WRAPPED_FLAG, False)
        potential.transverse_phase(potential.HarmonicPotential(0.2, 1.0), 0.1, 0.0, 0.0, 1.0)
        assert t.span_count() == 1
    finally:
        t.restore()
    after = surface()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.leftovers() == []


def test_generator_is_seeded_and_sizes_do_not_depend_on_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
        assert a == workloads.generate(workload, 1)

        def strip(items):
            out = json.loads(json.dumps(items))
            for item in out:
                item["config"].pop("seed", None)
                for key in ("spinors_re", "spinors_im"):
                    item["config"].pop(key, None)
            return out

        assert strip(a) == strip(b)


def _result(checks, digest="d", error=None):
    return {"label": "x", "error": error, "checks": checks, "digest": digest}


def test_gate_counts_non_finite_pass_and_raising_scenarios_as_failures():
    plan = [{"label": "x", "expected_checks": 2}]
    ok = {"name": "a", "measured": 1e-12, "tolerance": 1e-10, "passed": True}
    nan_pass = {"name": "b", "measured": math.nan, "tolerance": 1e-10, "passed": True}
    verdict = run.gate(plan, {"passes": [{"items": [_result([ok, nan_pass])]}]})
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)
    assert verdict["min_margin_digits"] == -run.MARGIN_CAP

    raised = run.gate(plan, {"passes": [{"items": [_result([], None, "ValueError: x")]}]})
    assert (raised["attempted"], raised["failed"]) == (2, 2)

    ok2 = dict(ok, name="c")
    drift = run.gate(plan, {"passes": [{"items": [_result([ok, ok2], "d1")]},
                                       {"items": [_result([ok, ok2], "d2")]}]})
    assert (drift["attempted"], drift["failed"]) == (5, 1)


def test_margin_digits():
    leq = {"name": "relative_gap", "measured": 1e-4, "tolerance": 1e-2, "passed": True}
    geq = {"name": "positive_tail_decay_order", "measured": 12.0, "tolerance": 6.0,
           "passed": True}
    assert run.margin_digits(leq) == pytest.approx(2.0)
    assert run.margin_digits(geq) == pytest.approx(math.log10(2.0))
    assert run.margin_digits(dict(leq, measured=0.0)) == run.MARGIN_CAP


def test_exits_nonzero_without_the_program():
    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    try:
        proc = _bench("mass-oscillation", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
