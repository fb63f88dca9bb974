#!/usr/bin/env python3
"""bwalloc benchmark: run one workload for a fixed time and report metrics.

Usage:
    python3 perfbench/run.py --workload figures --seed 1 --seconds 34 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), so the library's
caches start cold as they do for a command-line user. Repetitions are started
while the next one is expected to finish within ``--seconds``; the metrics
are medians over them. The outputs of the first repetition are then checked
(``checks.py``), and every repetition must have produced the same outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced repetitions and reports the per-layer metrics of the traced ones,
plus the tracing overhead (median traced minus median plain wall time).

Standard output: a line with the machine fingerprint and every repetition's
figures, a line listing failed checks, then the result object as the last
line. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from library import ROOT, require_library  # noqa: E402

#: Longest a single repetition may take before the run is abandoned.
REP_TIMEOUT_S = 150.0

#: Per-repetition figures printed with the fingerprint.
REP_FIELDS = ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "calibration_s", "rows")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
    }


def run_rep(args, index: int, traced: bool, tmp: Path) -> dict:
    workdir = tmp / f"rep{index}"
    out = tmp / f"rep{index}.json"
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    if traced:
        cmd.append("--trace")
    spawned = monotonic()
    cmd += ["--spawned", repr(spawned)]
    # subprocess.run waits for the child, and kills and reaps it on timeout
    done = subprocess.run(cmd, cwd=ROOT, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: repetition {index} exited with {done.returncode}")
    with open(out) as handle:
        record = json.load(handle)
    record["traced"] = traced
    record["workdir"] = str(workdir)
    record["duration_s"] = monotonic() - spawned
    return record


def run_reps(args, tmp: Path) -> list[dict]:
    """Plain (and with --trace 1, alternately traced) repetitions while the
    next one is expected to end within --seconds; at least one of each."""
    start = monotonic()
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, len(reps), traced, tmp))
        kinds_done = {r["traced"] for r in reps}
        if args.trace and kinds_done != {False, True}:
            continue
        next_traced = bool(args.trace) and len(reps) % 2 == 1
        same = [r["duration_s"] for r in reps if r["traced"] == next_traced]
        if monotonic() - start + statistics.median(same) > args.seconds:
            return reps


def end_to_end(plain: list[dict]) -> dict:
    values = {
        key: statistics.median(r[key] for r in plain)
        for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
    }
    values["rows_per_s"] = statistics.median(r["rows"] / r["wall_s"] for r in plain)
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer(plain: list[dict], traced: list[dict], error_rate: float) -> dict:
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - plain_wall
    values["simulate.realizations_per_s"] = plain[0]["realizations"] / plain_wall
    values["checks.error_rate"] = error_rate
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    require_library()
    import checks
    import workloads

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        reps = run_reps(args, Path(tmp))
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]

        jobs = workloads.build(args.workload, args.seed)
        results = checks.verify(jobs, plain[0]["outputs"], plain[0]["workdir"])
        results.append(checks.identical([r["digest"] for r in reps]))
        for r in reps:
            for err in r["errors"]:
                results.append(checks.Check(err.split(":", 1)[0], False, True, err))

    failed = [c for c in results if not c.ok]
    correct = not any(c.integrity for c in failed)
    error_rate = len(failed) / len(results)
    if args.trace:
        metrics = per_layer(plain, traced, error_rate)
    else:
        metrics = end_to_end(plain)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": fingerprint(plain[0]["versions"]),
        "repetitions": [{key: r[key] for key in REP_FIELDS} for r in reps],
        "error_rate": {"value": error_rate, "unit": "ratio"},
        "realizations": plain[0]["realizations"],
    }
    if traced:
        # calls, wall, self and busy seconds per function, first traced repetition
        detail["spans"] = traced[0]["spans"]
    print(json.dumps(detail))
    print(json.dumps({"failed_checks": [[c.name, c.detail] for c in failed]}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
