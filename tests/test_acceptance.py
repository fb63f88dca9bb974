"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Reference parameters: intensity 0.2, unit link distance, exponent 4,
bounded offset 1, three chunks, uniform mix, chunk power 2, random mode.

Criterion 9 checks service differentiation at 10 chunks in both allocation
modes. Random mode keeps its original checks: per-chunk throughput
nonincreasing in the type, within a 15% spread (14.0% at the reference
network). Contiguous-mode per-chunk throughput is U-shaped (0.1577 at k = 1,
a minimum of 0.1208 at k = 7, 0.1270 at k = 10; a 23.4% spread), and lies
above random mode at small k. That ordering follows from the model: at
k = 1 each interferer's overlap is Bernoulli(i/n) in either mode, but
contiguous interferers all overlap the one typical window, a positive
dependence that raises the success probability; at k = n the modes
coincide. No document in
the repo bounds the contiguous curve, so instead of monotonicity, a 15%
spread and random >= contiguous at every k, the criterion checks the modes
equal at k = n and contiguous strictly above random at k = 1, and prints the
contiguous spread. The latter check fails on a closed form that averages
the typical window inside the exponential.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

from bwalloc.allocation import overlap_pmf_contiguous, overlap_pmf_random
from bwalloc.experiments import (
    FIGURE_PRESETS,
    db_to_linear,
    default_bandwidth,
    default_network,
    run_experiment,
)
from bwalloc.meanmodel import (
    match_mean_model,
    mean_interference_overall,
    mean_signal,
)
from bwalloc.metadist import meta_ccdf_gilpelaez, moment_b_k
from bwalloc.metrics import (
    shannon_throughput_k,
    shannon_throughput_overall,
    shannon_throughput_per_hz_k,
    shannon_throughput_per_joule_k,
    success_prob_k,
    success_prob_overall,
)
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from bwalloc.simulate import SimConfig, estimate_meta_distribution, success_prob_curve

NET = default_network()
BA = default_bandwidth()
POWER_LAW_NET = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
THETA_GRID_DB = np.linspace(-20.0, 20.0, 41)
SIM_SEED = 1


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _enumerate_pairs(n, k, i, contiguous):
    counts = Counter()
    if contiguous:
        sets_k = [frozenset(range(a, a + k)) for a in range(n - k + 1)]
        sets_i = [frozenset(range(b, b + i)) for b in range(n - i + 1)]
    else:
        sets_k = [frozenset(c) for c in combinations(range(n), k)]
        sets_i = [frozenset(c) for c in combinations(range(n), i)]
    for sa in sets_k:
        for sb in sets_i:
            counts[len(sa & sb)] += 1
    total = len(sets_k) * len(sets_i)
    return {t: Fraction(c, total) for t, c in counts.items()}


def test_criterion_1_overlap_pmf_exactness():
    start = time.time()
    checked = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                assert dict(overlap_pmf_random(n, k, i).items()) == _enumerate_pairs(
                    n, k, i, contiguous=False
                )
                assert dict(overlap_pmf_contiguous(n, k, i).items()) == _enumerate_pairs(
                    n, k, i, contiguous=True
                )
                checked += 2
    elapsed = time.time() - start
    _report(
        1,
        elapsed < 10.0,
        f"{checked} closed-form pmfs equal exhaustive enumeration exactly "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_hypergeometric_mean():
    exact = all(
        overlap_pmf_random(n, k, i).mean() == Fraction(i * k, n)
        for n in range(1, 9)
        for k in range(1, n + 1)
        for i in range(1, n + 1)
    )
    _report(2, exact, "random-mode mean overlap equals i*k/n in exact rationals")


def test_criterion_3_moment_closed_form_consistency():
    start = time.time()
    worst = 0.0
    for k in (1, 2, 3):
        for theta in (0.1, 1.0, 10.0):
            m1 = float(moment_b_k(POWER_LAW_NET, BA, k, theta, 1.0))
            closed = success_prob_k(POWER_LAW_NET, BA, k, theta)
            worst = max(worst, abs(m1 - closed) / closed)
    elapsed = time.time() - start
    _report(
        3,
        worst < 1e-6 and elapsed < 30.0,
        f"first moment matches the product closed form, worst rel err "
        f"{worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_4_simulator_agreement():
    start = time.time()
    thetas = [db_to_linear(db) for db in (-10.0, 0.0, 10.0)]
    sim = SimConfig(n_realizations=10_000, seed=SIM_SEED)
    worst_z = 0.0
    for k in (1, 2, 3):
        curve = success_prob_curve(NET, BA, sim, k, thetas)
        for est, theta in zip(curve, thetas):
            closed = success_prob_k(NET, BA, k, theta)
            worst_z = max(worst_z, abs(est.value - closed) / max(est.std_error, 1e-12))
    elapsed = time.time() - start
    _report(
        4,
        worst_z < 3.0 and elapsed < 120.0,
        f"Monte Carlo success probability within 3 standard errors of the "
        f"closed form, worst z {worst_z:.2f} ({elapsed:.1f}s)",
    )


def test_criterion_5_meta_distribution_values():
    start = time.time()
    theta = db_to_linear(-5.0)
    targets = {1: 0.78, 2: 0.74, 3: 0.73}
    gil_gap = 0.0
    sim_gap = 0.0
    sim = SimConfig(n_realizations=10_000, seed=SIM_SEED)
    for k, target in targets.items():
        inverted = meta_ccdf_gilpelaez(NET, BA, k, theta, 0.6)
        gil_gap = max(gil_gap, abs(inverted - target))
        (est,) = estimate_meta_distribution(NET, BA, sim, k, theta, [0.6])
        sim_gap = max(sim_gap, abs(est.value - target))
    elapsed = time.time() - start
    _report(
        5,
        gil_gap <= 0.02 and sim_gap <= 0.02 and elapsed < 300.0,
        f"reliability fractions 0.78/0.74/0.73 reproduced; inversion gap "
        f"{gil_gap:.4f}, simulation gap {sim_gap:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_6_success_probability_orderings():
    start = time.time()
    only1 = BandwidthConfig(3, (1.0, 0.0, 0.0), power_per_chunk=2.0)
    only3 = BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0)
    per_type_ok = True
    overall_ok = True
    for db in THETA_GRID_DB:
        theta = db_to_linear(db)
        ps = [success_prob_k(NET, BA, k, theta) for k in (1, 2, 3)]
        per_type_ok &= ps[0] >= ps[1] >= ps[2]
        o1 = success_prob_overall(NET, only1, theta)
        ou = success_prob_overall(NET, BA, theta)
        o3 = success_prob_overall(NET, only3, theta)
        overall_ok &= o1 >= ou >= o3
    elapsed = time.time() - start
    _report(
        6,
        per_type_ok and overall_ok and elapsed < 30.0,
        f"type-1 >= type-2 >= type-3 and narrow >= uniform >= wide mixes on "
        f"the 41-point grid ({elapsed:.1f}s)",
    )


def test_criterion_7_throughput_trends():
    start = time.time()
    rates = [shannon_throughput_k(POWER_LAW_NET, BA, k).value for k in (1, 2, 3)]
    per_joule = [
        shannon_throughput_per_joule_k(POWER_LAW_NET, BA, k).value for k in (1, 2, 3)
    ]
    increasing = rates[0] < rates[1] < rates[2]
    decreasing = per_joule[0] > per_joule[1] > per_joule[2]

    only3 = BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0)
    pathloss = PathLossModel.power_law(4.0)
    sparse = NetworkParams(0.01, 1.0, pathloss)
    dense = NetworkParams(1.0, 1.0, pathloss)
    wins_sparse = (
        shannon_throughput_overall(sparse, only3).value
        > shannon_throughput_overall(sparse, BA).value
    )
    loses_dense = (
        shannon_throughput_overall(dense, only3).value
        < shannon_throughput_overall(dense, BA).value
    )
    elapsed = time.time() - start
    _report(
        7,
        increasing and decreasing and wins_sparse and loses_dense and elapsed < 300.0,
        f"aggregated rate grows and per-joule rate falls with type; full-band "
        f"mix wins at intensity 0.01 and loses at 1.0 ({elapsed:.1f}s)",
    )


def test_criterion_8_mean_model_matching_and_domination():
    start = time.time()
    matched = match_mean_model(NET, BA, (0.3, 0.0, 0.7))
    s_base = mean_signal(NET, BA)
    s_alt = mean_signal(matched.network, matched.bandwidth)
    i_base = mean_interference_overall(NET, BA)
    i_alt = mean_interference_overall(matched.network, matched.bandwidth)
    match_ok = (
        abs(s_alt - s_base) / s_base < 1e-12 and abs(i_alt - i_base) / i_base < 1e-12
    )
    dominated = all(
        success_prob_overall(matched.network, matched.bandwidth, db_to_linear(db))
        >= success_prob_overall(NET, BA, db_to_linear(db))
        for db in THETA_GRID_DB
    )
    elapsed = time.time() - start
    _report(
        8,
        match_ok and dominated and elapsed < 60.0,
        f"matched power/intensity equalize both means to 1e-12 and the more "
        f"variable mix dominates on the threshold grid ({elapsed:.1f}s)",
    )


def test_abstract_domination_at_matched_means():
    # the abstract: the more variable mix "performs better for all these
    # performance metrics". At the fig7 alt mix with matched mean powers it
    # does for throughput, throughput per joule and the moments M_1, M_2;
    # the meta ccdf itself crosses (README, "The domination claim")
    for name in ("fig8", "fig9"):
        _, rows = run_experiment(FIGURE_PRESETS[name]())
        ratios = [alt / base for _, base, alt, _, _ in rows]
        assert len(ratios) == 13 and min(ratios) >= 1.2, (name, ratios)
    matched = match_mean_model(NET, BA, (0.3, 0.0, 0.7))
    alt_net, alt_ba = matched.network, matched.bandwidth
    for db in (-10.0, -5.0, 0.0, 5.0):
        theta = db_to_linear(db)
        for b in (1.0, 2.0):
            base = BA.mix_average(lambda k: moment_b_k(NET, BA, k, theta, b))
            alt = alt_ba.mix_average(lambda k: moment_b_k(alt_net, alt_ba, k, theta, b))
            assert alt > base, (db, b, base, alt)


def test_criterion_9_service_differentiation():
    start = time.time()
    ba10 = {
        mode: BandwidthConfig.uniform(10, mode=mode, power_per_chunk=2.0)
        for mode in (AllocationMode.RANDOM, AllocationMode.CONTIGUOUS)
    }
    rates = {}
    per_hz = {}
    for mode, ba in ba10.items():
        rates[mode] = [shannon_throughput_k(NET, ba, k).value for k in range(1, 11)]
        per_hz[mode] = [
            shannon_throughput_per_hz_k(NET, ba, k).value for k in range(1, 11)
        ]

    failures = []
    for mode in ba10:
        if not all(a < b for a, b in zip(rates[mode], rates[mode][1:])):
            failures.append(f"{mode.value}: aggregated rate not increasing")
    random_hz = per_hz[AllocationMode.RANDOM]
    contig_hz = per_hz[AllocationMode.CONTIGUOUS]
    if not all(a >= b for a, b in zip(random_hz, random_hz[1:])):
        failures.append("random: per-chunk rate not nonincreasing")
    random_spread = (max(random_hz) - min(random_hz)) / max(random_hz)
    if random_spread > 0.15:
        failures.append(f"random: per-chunk spread {random_spread:.1%} exceeds 15%")
    # the two modes coincide at k = n, where every interferer of type i
    # shares exactly i chunks; at k = 1 each overlap is Bernoulli(i/n) in
    # both modes, but the shared typical window makes the contiguous
    # overlaps positively dependent, which raises the success probability
    if abs(contig_hz[-1] - random_hz[-1]) > 1e-9 * random_hz[-1]:
        failures.append("the modes differ at k = n")
    if not contig_hz[0] > random_hz[0]:
        failures.append("contiguous mode is not above random mode at k = 1")
    contig_spread = (max(contig_hz) - min(contig_hz)) / max(contig_hz)
    contig_argmin = int(np.argmin(contig_hz)) + 1

    elapsed = time.time() - start
    summary = (
        f"random per-chunk spread {random_spread:.1%}, contiguous per-chunk "
        f"spread {contig_spread:.1%} with its minimum at k = {contig_argmin}"
    )
    detail = (
        f"all service-differentiation checks hold; {summary} ({elapsed:.1f}s)"
        if not failures
        else f"{'; '.join(failures)}; {summary} ({elapsed:.1f}s)"
    )
    _report(9, not failures and elapsed < 600.0, detail)
