"""One repetition of a workload, in the fresh interpreter run.py starts.

Set-up is measured from the parent's spawn time to the end of building the
inputs; the timed section is the workload's jobs only. A calibration loop
runs between the two, so that host speed at the time of the repetition is on
record; it never rescales a metric. With ``--trace`` the layer modules are
wrapped by the span tracer after set-up, and the CSVs are read back through
``read_csv_config`` after the timed section, still traced.

Writes one JSON record to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - start


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _digest(outputs, workdir: str) -> str:
    h = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode())
    for out in outputs:
        if out and "path" in out:
            with open(os.path.join(workdir, out["path"]), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from library import require_library

    require_library()
    import bwalloc.experiments as experiments
    import layers
    import workloads
    from tracer import Tracer

    jobs = workloads.build(args.workload, args.seed)
    setup_s = monotonic() - args.spawned
    calib_s = calibrate()

    tracer = None
    if args.trace:
        tracer = Tracer(hooks=layers.make_hooks())
        modules = {name: importlib.import_module(f"bwalloc.{name}") for name in layers.LAYERS}
        library = [m for name, m in sys.modules.items() if name.split(".")[0] == "bwalloc"]
        tracer.install(modules, library)

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    outputs, errors = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for job in jobs:
        try:
            outputs.append(workloads.run_job(job))
        except Exception:  # a failed job is reported and counted, not fatal
            outputs.append(None)
            errors.append(f"{job.label}: {traceback.format_exc()}")
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calib_s,
        "rows": sum(len(o["rows"]) for o in outputs if o and "rows" in o),
        "realizations": sum(job.realizations for job in jobs),
        "versions": _versions(),
        "errors": errors,
        "outputs": outputs,
    }
    if tracer is not None:
        for out in outputs:
            if out and "path" in out:
                experiments.read_csv_config(out["path"])
        tracer.uninstall()
        record["layers"] = layers.layer_metrics(tracer)
        record["spans"] = {
            name: [st.calls, st.wall_s, st.self_s, st.busy_s] for name, st in tracer.stats.items()
        }
    record["digest"] = _digest(outputs, ".")
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
