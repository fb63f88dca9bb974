"""Per-layer metrics derived from a traced repetition.

``make_hooks`` returns the span hooks that count what plain call totals do
not show (truncated throughput integrals, beta fallbacks, interferer counts);
``layer_metrics`` turns a finished tracer into the ``<layer>.<metric>``
values listed in ``catalog.PER_LAYER``.
"""

from __future__ import annotations

import threading

from catalog import LAYERS


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def make_hooks():
    seen_profiles = set()
    seen_lock = threading.Lock()

    def throughput_k(counters, frame, args, kwargs, result):
        if result is not None:
            counters["throughput.results"] += 1
            counters["throughput.truncated"] += bool(result.truncated)

    def overlap_pmf(counters, frame, args, kwargs, result):
        parent = frame.parent
        if parent is not None and parent.name == "metrics.success_prob_k":
            counters["overlap_pmf.in_success_prob"] += 1

    def gilpelaez(counters, frame, args, kwargs, result):
        # the radial profile is cached per (net, ba, k, theta); the first
        # call for a key pays for building it
        key = tuple(
            _arg(args, kwargs, i, name) for i, name in enumerate(("net", "ba", "k", "theta"))
        )
        with seen_lock:
            first = key not in seen_profiles
            seen_profiles.add(key)
        if first:
            counters["gilpelaez.first_calls"] += 1
            counters["gilpelaez.first_wall"] += frame.end - frame.start

    def meta_ccdf_beta(counters, frame, args, kwargs, result):
        parent = frame.parent
        if parent is not None and parent.name == "metadist.meta_ccdf":
            parent.tag("beta")

    def meta_ccdf(counters, frame, args, kwargs, result):
        if _arg(args, kwargs, 5, "method", "gilpelaez") == "auto":
            counters["meta_auto.calls"] += 1
            counters["meta_auto.beta"] += bool(frame.tags and "beta" in frame.tags)

    def sample_realization(counters, frame, args, kwargs, result):
        if result is not None:
            counters["interferers"] += result.n_interferers

    def estimate_throughput(counters, frame, args, kwargs, result):
        if result is not None:
            counters["throughput_est.samples"] += result.n_samples
            counters["throughput_est.capped"] += result.n_capped

    def write_csv(counters, frame, args, kwargs, result):
        counters["csv_rows"] += len(_arg(args, kwargs, 2, "rows", ()))

    return {
        "metrics.shannon_throughput_k": throughput_k,
        "allocation.overlap_pmf": overlap_pmf,
        "metadist.meta_ccdf_gilpelaez": gilpelaez,
        "metadist.meta_ccdf_beta": meta_ccdf_beta,
        "metadist.meta_ccdf": meta_ccdf,
        "simulate.sample_realization": sample_realization,
        "simulate.estimate_throughput": estimate_throughput,
        "experiments.write_csv": write_csv,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric that one traced repetition determines (the
    run adds ``trace.overhead_s``, ``simulate.realizations_per_s`` and
    ``checks.error_rate``)."""
    out: dict[str, float] = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        st = totals.get(layer)
        calls = st.calls if st else 0
        self_s = st.self_s if st else 0.0
        busy_s = st.busy_s if st else 0.0
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.busy_s"] = busy_s
        out[f"{layer}.wait_s"] = self_s - busy_s

    stats, c = tracer.stats, tracer.counters

    def calls(name):
        st = stats.get(name)
        return st.calls if st else 0

    def mean_wall(name, scale):
        st = stats.get(name)
        return scale * _ratio(st.wall_s, st.calls) if st else 0.0

    out["metrics.success_prob_k.calls"] = calls("metrics.success_prob_k")
    out["metrics.success_prob_k.mean_us"] = mean_wall("metrics.success_prob_k", 1e6)
    out["metrics.throughput_k.calls"] = calls("metrics.shannon_throughput_k")
    out["metrics.throughput_k.mean_ms"] = mean_wall("metrics.shannon_throughput_k", 1e3)
    out["metrics.throughput.truncated_ratio"] = _ratio(
        c["throughput.truncated"], c["throughput.results"]
    )
    out["allocation.overlap_pmf.calls"] = calls("allocation.overlap_pmf")
    out["allocation.overlap_pmf.per_success_prob"] = _ratio(
        c["overlap_pmf.in_success_prob"], calls("metrics.success_prob_k")
    )
    out["metadist.gilpelaez.calls"] = calls("metadist.meta_ccdf_gilpelaez")
    out["metadist.gilpelaez.mean_ms"] = mean_wall("metadist.meta_ccdf_gilpelaez", 1e3)
    out["metadist.gilpelaez.first_ms"] = 1e3 * _ratio(
        c["gilpelaez.first_wall"], c["gilpelaez.first_calls"]
    )
    out["metadist.moment.calls"] = calls("metadist.moment_b_k")
    out["metadist.beta_fallback_ratio"] = _ratio(c["meta_auto.beta"], c["meta_auto.calls"])
    realizations = calls("simulate.sample_realization")
    out["simulate.realizations"] = realizations
    out["simulate.sample_us"] = mean_wall("simulate.sample_realization", 1e6)
    out["simulate.sir_us"] = mean_wall("simulate.sir_of_realization", 1e6)
    out["simulate.interferers_per_realization"] = _ratio(c["interferers"], realizations)
    out["simulate.conditional_us"] = mean_wall("simulate.conditional_success_prob", 1e6)
    out["simulate.capped_ratio"] = _ratio(
        c["throughput_est.capped"], c["throughput_est.samples"]
    )
    out["experiments.rows"] = c["csv_rows"]
    out["experiments.write_csv.mean_ms"] = mean_wall("experiments.write_csv", 1e3)
    out["experiments.read_csv_config.mean_ms"] = mean_wall("experiments.read_csv_config", 1e3)
    out["experiments.pool_concurrency"] = tracer.pool_concurrency()
    out["trace.spans"] = tracer.spans
    return out
