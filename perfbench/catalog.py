"""Names, units and expected effects of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``tests/test_catalog.py`` keeps
the two in step. Each per-layer metric names its *target*: the end-to-end
metric and workload it should move when the layer gets faster or slower.
BENCHMARK.json has no field for that, so it lives here.
"""

from __future__ import annotations

LAYERS = ("allocation", "metrics", "metadist", "meanmodel", "simulate", "experiments")

WORKLOADS = {
    "figures": (
        "the nine shipped presets fig1-fig9, the repo's main traffic; the fig3 "
        "Gil-Pelaez inversion dominates and simulate is never called"
    ),
    "wide_band": (
        "64 chunks, seeded 16-type mix, both modes: success sweeps and "
        "mix-averaged throughput, few costly metrics/allocation calls"
    ),
    "monte_carlo": (
        "simulate verb curves and the cross-check estimators at n 3 and 10, "
        "both modes; closed forms are only computed by the untimed checks"
    ),
}

# name -> (unit, better, bound). Run medians of the timings drift by 10-20%
# between runs on a shared 2-CPU host, so they get the widest bound allowed.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "rows_per_s": ("1/s", "higher", 0.25),
}

_SWEEP_LAYERS = "wall_s, cpu_s, rows_per_s on wide_band most, figures less; monte_carlo none"

_LAYER_TARGETS = {
    "allocation": _SWEEP_LAYERS,
    "metrics": _SWEEP_LAYERS,
    "metadist": "wall_s on figures only",
    "meanmodel": "none: expected near zero on every workload",
    "simulate": "wall_s and rows_per_s on monte_carlo only",
    "experiments": "cpu_s on figures and wide_band",
}


def _layer_entries():
    out = {}
    for layer in LAYERS:
        target = _LAYER_TARGETS[layer]
        out[f"{layer}.calls"] = ("count", "lower", target)
        out[f"{layer}.self_s"] = ("s", "lower", target)
        out[f"{layer}.busy_s"] = ("s", "lower", target)
        out[f"{layer}.wait_s"] = ("s", "lower", target)
    return out


_WIDE = "wall_s on wide_band"
_FIGS = "wall_s on figures"
_MC = "rows_per_s and wall_s on monte_carlo"
_POOL = "cpu_s on figures and wide_band"

# name -> (unit, better, target)
PER_LAYER = {
    **_layer_entries(),
    "metrics.success_prob_k.calls": ("count", "lower", _WIDE),
    "metrics.success_prob_k.mean_us": ("us", "lower", _WIDE),
    "metrics.throughput_k.calls": ("count", "lower", _WIDE),
    "metrics.throughput_k.mean_ms": ("ms", "lower", _WIDE),
    "metrics.throughput.truncated_ratio": ("ratio", "lower", _WIDE),
    "allocation.overlap_pmf.calls": ("count", "lower", _WIDE),
    "allocation.overlap_pmf.per_success_prob": ("count", "lower", _WIDE),
    "metadist.gilpelaez.calls": ("count", "lower", _FIGS),
    "metadist.gilpelaez.mean_ms": ("ms", "lower", _FIGS),
    "metadist.gilpelaez.first_ms": ("ms", "lower", _FIGS),
    "metadist.moment.calls": ("count", "lower", _FIGS),
    "metadist.beta_fallback_ratio": ("ratio", "lower", _FIGS),
    "simulate.realizations": ("count", "lower", _MC),
    "simulate.realizations_per_s": ("1/s", "higher", _MC),
    "simulate.sample_us": ("us", "lower", _MC),
    "simulate.sir_us": ("us", "lower", _MC),
    "simulate.interferers_per_realization": ("count", "lower", _MC),
    "simulate.conditional_us": ("us", "lower", _MC),
    "simulate.capped_ratio": ("ratio", "lower", _MC),
    "experiments.rows": ("count", "higher", _POOL),
    "experiments.write_csv.mean_ms": ("ms", "lower", _POOL),
    "experiments.read_csv_config.mean_ms": ("ms", "lower", _POOL),
    "experiments.pool_concurrency": ("ratio", "lower", _POOL),
    "checks.error_rate": ("ratio", "lower", "correctness on every workload, not speed"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
    "trace.spans": ("count", "lower", "none: cost of tracing itself"),
}
