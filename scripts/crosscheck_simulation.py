#!/usr/bin/env python3
"""Side-by-side table of closed-form metrics and Monte Carlo estimates.

Rows cover each type and the mix (the typical type drawn per realization),
in both allocation modes.

Usage:
    python scripts/crosscheck_simulation.py --realizations 10000 --seed 1
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from bwalloc.experiments import db_to_linear, default_bandwidth, default_network
from bwalloc.meanmodel import mean_interference_k, mean_interference_overall
from bwalloc.metadist import meta_ccdf_gilpelaez
from bwalloc.metrics import (
    shannon_throughput_k,
    shannon_throughput_overall,
    success_prob_k,
    success_prob_overall,
)
from bwalloc.params import AllocationMode
from bwalloc.simulate import (
    SimConfig,
    estimate_mean_interference,
    estimate_meta_distribution,
    estimate_throughput,
    success_prob_curve,
)


LINE = "{:<34} {:>10} {:>10} {:>8} {:>6}"


def _row(label: str, ana: float, est) -> None:
    # no hits or all hits give a zero standard error, and no z-score
    z = f"{(est.value - ana) / est.std_error:+.2f}" if est.std_error > 0.0 else "n/a"
    print(LINE.format(label, f"{ana:.4f}", f"{est.value:.4f}", f"{est.std_error:.4f}", z))


def _table(net, ba, sim) -> None:
    """Print every row for one bandwidth configuration."""
    # k = None draws the typical type from the mix, against the mix averages
    types = (1, 2, 3, None)
    theta_dbs = (-10.0, 0.0, 10.0)
    thetas = [db_to_linear(db) for db in theta_dbs]
    for k in types:
        curve = success_prob_curve(net, ba, sim, k, thetas)
        for est, theta, db in zip(curve, thetas, theta_dbs):
            if k is None:
                _row(f"P(SIR > {db:+.0f} dB), mix", success_prob_overall(net, ba, theta), est)
            else:
                _row(f"P(SIR > {db:+.0f} dB), type {k}", success_prob_k(net, ba, k, theta), est)

    theta = db_to_linear(-5.0)
    for k in (1, 2, 3):
        ana = meta_ccdf_gilpelaez(net, ba, k, theta, 0.6)
        (est,) = estimate_meta_distribution(net, ba, sim, k, theta, [0.6])
        _row(f"reliability >= 0.6 at -5 dB, type {k}", ana, est)

    for k in types:
        est = estimate_throughput(net, ba, sim, k)
        if k is None:
            _row("throughput (bit/s), mix", shannon_throughput_overall(net, ba).value, est)
        else:
            _row(f"throughput (bit/s), type {k}", shannon_throughput_k(net, ba, k).value, est)

    for k in types:
        est = estimate_mean_interference(net, ba, sim, k)
        if k is None:
            _row("mean interference power, mix", mean_interference_overall(net, ba), est)
        else:
            _row(f"mean interference power, type {k}", mean_interference_k(net, ba, k), est)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--realizations", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    net = default_network()
    sim = SimConfig(n_realizations=args.realizations, seed=args.seed)
    for mode in AllocationMode:
        print(f"\n{mode.value} allocation")
        print(LINE.format("metric", "analytic", "simulated", "se", "z"))
        _table(net, replace(default_bandwidth(), mode=mode), sim)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
