"""volkovfp benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; volkovfp is imported from
`src/`.  This process generates the workload's configs from the seed
(it never imports volkovfp), times several fresh set-up processes, and
spawns one fresh child process that runs the passes (`child.py`).  It
then applies the correctness gate and prints every metric by name and
unit, the machine record, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Outputs go to `.perfbench-runs/` in the checkout.  Exit status is 0 when
a result was printed (correct or not), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, set-up included
SETUP_SAMPLES = {"full": 3, "smoke": 2}
MARGIN_CAP = 16.0
# Checks asserting measured >= bound; every other check asserts measured <= tolerance.
GEQ_CHECKS = {"positive_tail_decay_order", "min_fitted_decay_order"}


class RunError(RuntimeError):
    """The benchmark could not produce a result."""


def margin_digits(check: dict) -> float:
    """log10(tolerance/measured) for <= checks, log10(measured/bound) for >=,
    capped at +-16; a non-finite measurement is the worst margin."""
    measured, bound = check["measured"], check["tolerance"]
    if not (isinstance(measured, (int, float)) and math.isfinite(measured)):
        return -MARGIN_CAP
    if check["name"] in GEQ_CHECKS:
        num, den = measured, bound
    else:
        num, den = bound, measured
    if den <= 0:
        value = MARGIN_CAP if num > 0 else -MARGIN_CAP
    elif num <= 0:
        value = -MARGIN_CAP
    else:
        value = math.log10(num / den)
    return max(-MARGIN_CAP, min(MARGIN_CAP, value))


def check_failed(check: dict) -> bool:
    measured = check["measured"]
    finite = isinstance(measured, (int, float)) and math.isfinite(measured)
    return not (check["passed"] and finite)


def gate(items: list[dict], result: dict) -> dict:
    """Count attempted and failed checks over every pass; drop no failure.

    Per pass and item: each expected check (all of them if the item
    raised, and any that went missing), and from the second pass on one
    check that the item's output bytes and check values equal the first
    pass's.  In traced runs the tracer's own checks count too.
    """
    attempted = failed = 0
    margins = []
    failures = []
    passes = result["passes"]
    first = {it["label"]: it for it in passes[0]["items"]}
    for p, run in enumerate(passes):
        for entry, item in zip(items, run["items"]):
            expected = entry["expected_checks"]
            checks = [] if item["error"] else item["checks"]
            n = max(expected, len(checks))
            attempted += n
            bad = [c for c in checks if check_failed(c)]
            failed += len(bad) + (n - len(checks))
            if item["error"] or len(checks) < expected:
                failures.append(f"pass {p} {item['label']}: "
                                f"{item['error'] or 'missing checks'}")
            failures += [f"pass {p} {item['label']}: {c['name']} measured={c['measured']!r} "
                         f"tolerance={c['tolerance']!r}" for c in bad]
            margins += [margin_digits(c) for c in checks]
            if p > 0:
                ref = first[item["label"]]
                same = (item["digest"] is not None and item["digest"] == ref["digest"]
                        and [c["measured"] for c in item["checks"]]
                        == [c["measured"] for c in ref["checks"]])
                attempted += 1
                if not same:
                    failed += 1
                    failures.append(f"pass {p} {item['label']}: output differs from pass 0")
    for check in result.get("harness_checks", []):
        attempted += 1
        if not check["passed"]:
            failed += 1
            failures.append(f"{check['name']}: {check['detail']}")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "min_margin_digits": min(margins) if margins else -MARGIN_CAP}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "VOLKOV_FP_WORKERS": "1", "PYTHONHASHSEED": "0"})
    return env


def _spawn(args: list[str], result_path: Path, timeout: float) -> tuple[float, dict]:
    """Run child.py to completion; return its spawn time and result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path), *args]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return spawned, json.loads(result_path.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (ROOT / "src" / "volkovfp" / "__init__.py").is_file():
        raise RunError(f"no volkovfp sources under {ROOT / 'src'}")
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}-{size}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    t0 = time.perf_counter()
    items = workloads.generate(workload, seed, size)
    plan_path = workloads.write_plan(items, run_dir / "configs")
    generate_s = time.perf_counter() - t0

    setups = []
    for k in range(SETUP_SAMPLES[size] - 1):
        spawned, res = _spawn(["--plan", str(plan_path), "--setup-only"],
                              run_dir / f"setup{k}.json", deadline - time.perf_counter())
        setups.append(res["ready"] - spawned)
    spawned, result = _spawn(["--plan", str(plan_path), "--seconds", str(seconds),
                              "--trace", str(int(trace))],
                             run_dir / "child.json", deadline - time.perf_counter())
    setups.append(result["ready"] - spawned)

    verdict = gate(items, result)
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        walls = [p["wall_s"] for p in result["passes"]]
        cpus = [p["cpu_s"] for p in result["passes"]]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": generate_s + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "pass_ratio": {"value": 1.0 - verdict["failed"] / verdict["attempted"],
                           "unit": "1"},
            "min_margin_digits": {"value": verdict["min_margin_digits"], "unit": "digits"},
        }

    machine = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **result["libraries"],
        "threads_within_nproc": (result["libraries"]["process_threads"] or 0) <= os.cpu_count(),
        "workers": 1,
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "passes": len(result["passes"]),
        "setup_samples_s": setups,
    }
    record = {"machine": machine, "verdict": verdict, "metrics": metrics,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced")}
                         for p in result["passes"]]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="volkovfp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke: tiny instances for the benchmark's self-tests")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    verdict = record["verdict"]
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for failure in verdict["failures"]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {verdict['failed'] / verdict['attempted']:.6g} "
          f"({verdict['failed']} of {verdict['attempted']} checks failed)")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": verdict["failed"] == 0,
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
