"""Monte Carlo engine tests.

Statistical checks run against the closed forms at pinned seeds; the
agreement thresholds are 3 standard errors unless noted.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bwalloc.errors import ConfigError, DomainError
from bwalloc.meanmodel import mean_interference_k, mean_interference_overall
from bwalloc.metadist import meta_ccdf_gilpelaez
from bwalloc.metrics import (
    shannon_throughput_k,
    shannon_throughput_overall,
    success_prob_k,
    success_prob_overall,
)
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from bwalloc.simulate import (
    ConditionalMode,
    EstimateWithCI,
    NetworkRealization,
    SimConfig,
    conditional_success_prob,
    estimate_mean_interference,
    estimate_meta_distribution,
    estimate_success_prob,
    estimate_throughput,
    realization_rng,
    sample_realization,
    sir_of_realization,
    success_prob_curve,
)

BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)


def _manual_realization(positions, overlaps, fading, k, h0, n_chunks=3):
    """Build a realization with hand-picked occupancies for algebra checks."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = positions.shape[0]
    occupancy = np.zeros((n, n_chunks), dtype=bool)
    typical = np.zeros(n_chunks, dtype=bool)
    typical[:k] = True
    for j, t in enumerate(overlaps):
        occupancy[j, :t] = True  # first t chunks overlap the typical set
    return NetworkRealization(
        positions=positions,
        types=np.asarray([max(t, 1) for t in overlaps], dtype=np.int64),
        occupancy=occupancy,
        fading=np.asarray(fading, dtype=float),
        typical_type=k,
        typical_occupancy=typical,
        typical_fading=h0,
        link_distance=1.0,
        window_radius=50.0,
    )


# ---------------------------------------------------------------------------
# sampling


def test_determinism_same_seed():
    sim = SimConfig(n_realizations=200, seed=11)
    a = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    b = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    assert a == b


def test_realizations_differ_across_indices():
    sim = SimConfig(seed=3)
    r0 = sample_realization(BOUNDED, UNIFORM3, sim, 1, realization_rng(3, 0))
    r1 = sample_realization(BOUNDED, UNIFORM3, sim, 1, realization_rng(3, 1))
    assert r0.n_interferers != r1.n_interferers or not np.array_equal(r0.positions, r1.positions)


def test_interferer_count_is_poisson():
    sim = SimConfig(seed=5, window_radius=20.0)
    mean_target = 0.2 * math.pi * 20.0**2
    counts = [
        sample_realization(BOUNDED, UNIFORM3, sim, 1, realization_rng(5, i)).n_interferers
        for i in range(3000)
    ]
    se = math.sqrt(mean_target / len(counts))
    assert abs(np.mean(counts) - mean_target) < 3 * se


def test_sampled_type_frequencies_match_mix():
    ba = BandwidthConfig(3, (0.5, 0.2, 0.3))
    sim = SimConfig(seed=17, window_radius=15.0)
    counter = Counter()
    for i in range(400):
        real = sample_realization(BOUNDED, ba, sim, 1, realization_rng(17, i))
        counter.update(real.types.tolist())
    total = sum(counter.values())
    res = stats.chisquare(
        [counter[1], counter[2], counter[3]],
        [0.5 * total, 0.2 * total, 0.3 * total],
    )
    assert res.pvalue > 0.01


def test_occupancy_matches_types_and_mode():
    sim = SimConfig(seed=23)
    real = sample_realization(BOUNDED, UNIFORM3, sim, 2, realization_rng(23, 0))
    assert np.array_equal(real.occupancy.sum(axis=1), real.types)
    assert real.typical_occupancy.sum() == 2
    contiguous = BandwidthConfig.uniform(4, mode=AllocationMode.CONTIGUOUS)
    real_c = sample_realization(BOUNDED, contiguous, sim, 2, realization_rng(23, 1))
    for row, t in zip(real_c.occupancy, real_c.types):
        idx = np.flatnonzero(row)
        assert idx.size == t and np.all(np.diff(idx) == 1)


def test_near_empty_network():
    tiny = NetworkParams(1e-9, 1.0, PathLossModel.bounded(4.0, 1.0))
    sim = SimConfig(seed=1)
    real = sample_realization(tiny, UNIFORM3, sim, 1, realization_rng(1, 0))
    assert real.n_interferers == 0
    assert sir_of_realization(real, tiny) == math.inf


def test_window_validation():
    sim = SimConfig(seed=1, window_radius=5.0)
    with pytest.raises(DomainError):
        sample_realization(BOUNDED, UNIFORM3, sim, 1, realization_rng(1, 0))


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_realizations=0)
    with pytest.raises(ConfigError):
        SimConfig(seed=-1)
    with pytest.raises(ConfigError):
        SimConfig(seed=2**64)
    with pytest.raises(ConfigError):
        SimConfig(window_radius=-2.0)
    with pytest.raises(ConfigError):
        SimConfig(conditional_mode="psychic")
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigError):
            SimConfig(n_fading_draws=bad)
    with pytest.raises(ConfigError):
        EstimateWithCI(0.5, -1.0, 10)


# ---------------------------------------------------------------------------
# SIR algebra


def test_sir_zero_interferers_is_infinite():
    real = _manual_realization(np.empty((0, 2)), [], [], k=2, h0=1.0)
    assert sir_of_realization(real, BOUNDED) == math.inf


def test_sir_disjoint_chunks_is_infinite():
    real = _manual_realization([(2.0, 0.0)], [0], [1.0], k=1, h0=1.0)
    assert sir_of_realization(real, BOUNDED) == math.inf


def test_sir_single_full_overlap_cancels_type():
    # unit fading, overlap t = k: SIR reduces to l(R) / l(d)
    d = 3.0
    real = _manual_realization([(d, 0.0)], [2], [1.0], k=2, h0=1.0)
    expected = (1.0 / 2.0) / (1.0 / (1.0 + d**4))
    assert sir_of_realization(real, BOUNDED) == pytest.approx(expected / 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# conditional success probability


def test_conditional_empty_pattern_is_one():
    real = _manual_realization(np.empty((0, 2)), [], [], k=1, h0=1.0)
    assert conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0) == 1.0


def test_conditional_single_interferer_hand_formula():
    d, theta, k = 2.0, 1.0, 1
    real = _manual_realization([(d, 0.0)], [1], [1.0], k=k, h0=1.0)
    got = conditional_success_prob(real, BOUNDED, UNIFORM3, k, theta)
    ratio = (1.0 / (1.0 + d**4)) / 0.5
    expected = 0.0
    from bwalloc.allocation import overlap_pmf_random

    for i in (1, 2, 3):
        for t, mass in overlap_pmf_random(3, k, i).items():
            expected += (1 / 3) * float(mass) / (1.0 + theta * (t / k) * ratio)
    assert got == pytest.approx(expected, rel=1e-12)


def test_conditional_modes_agree():
    sim = SimConfig(seed=29, window_radius=25.0)
    rng = realization_rng(29, 4)
    real = sample_realization(BOUNDED, UNIFORM3, sim, 2, rng)
    closed = conditional_success_prob(real, BOUNDED, UNIFORM3, 2, 1.0)
    n_draws = 4000
    empirical = conditional_success_prob(
        real,
        BOUNDED,
        UNIFORM3,
        2,
        1.0,
        mode=ConditionalMode.FULLY_EMPIRICAL,
        n_fading_draws=n_draws,
        rng=np.random.default_rng(555),
    )
    se = math.sqrt(closed * (1 - closed) / n_draws)
    assert abs(empirical - closed) < 3 * se


def test_conditional_tower_property():
    # averaging the conditional values over patterns recovers the success
    # probability
    sim = SimConfig(seed=31)
    n_real = 3000
    vals = np.empty(n_real)
    for idx in range(n_real):
        rng = realization_rng(31, idx)
        real = sample_realization(BOUNDED, UNIFORM3, sim, 1, rng)
        vals[idx] = conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0)
    se = vals.std(ddof=1) / math.sqrt(n_real)
    assert abs(vals.mean() - success_prob_k(BOUNDED, UNIFORM3, 1, 1.0)) < 3 * se


def test_conditional_requires_rng_for_empirical():
    real = _manual_realization([(2.0, 0.0)], [1], [1.0], k=1, h0=1.0)
    with pytest.raises(DomainError):
        conditional_success_prob(
            real, BOUNDED, UNIFORM3, 1, 1.0, mode=ConditionalMode.FULLY_EMPIRICAL
        )
    # the meta-distribution domain: theta must be finite and > 0
    for theta in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            conditional_success_prob(real, BOUNDED, UNIFORM3, 1, theta)
    with pytest.raises(DomainError):
        conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0, mode="psychic")
    for draws in (0, -3, 2.5, True):
        with pytest.raises(DomainError):
            conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0, n_fading_draws=draws)
    # a mode given by its value selects the same route as the enum member
    closed = conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0)
    by_value = conditional_success_prob(
        real, BOUNDED, UNIFORM3, 1, 1.0, mode="closed_form_given_phi",
        rng=np.random.default_rng(0),
    )
    assert by_value == closed


# ---------------------------------------------------------------------------
# estimators vs closed forms


def test_estimate_success_prob_tiny_threshold():
    sim = SimConfig(n_realizations=300, seed=37)
    est = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1e-9)
    assert est.value > 0.999


def test_estimate_success_prob_matches_closed_form():
    sim = SimConfig(n_realizations=4000, seed=41)
    for k in (1, 3):
        curve = success_prob_curve(BOUNDED, UNIFORM3, sim, k, [0.1, 1.0])
        for est, theta in zip(curve, [0.1, 1.0]):
            ana = success_prob_k(BOUNDED, UNIFORM3, k, theta)
            assert abs(est.value - ana) < 3 * max(est.std_error, 1e-4)


def test_success_prob_curve_contiguous_matches_closed_form():
    # the simulator draws one typical window per network and every
    # interferer overlaps that window, so the closed form must average over
    # the window outside the exponential; the gap is widest at k = 1, +10 dB
    ba = BandwidthConfig.uniform(10, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    sim = SimConfig(n_realizations=6000, seed=7)
    thetas = [1.0, 10.0]
    for k in (1, 3):
        curve = success_prob_curve(BOUNDED, ba, sim, k, thetas)
        for est, theta in zip(curve, thetas):
            ana = success_prob_k(BOUNDED, ba, k, theta)
            assert abs(est.value - ana) < 3 * est.std_error


def test_estimate_success_prob_overall():
    sim = SimConfig(n_realizations=4000, seed=43)
    est = estimate_success_prob(BOUNDED, UNIFORM3, sim, None, 1.0)
    ana = success_prob_overall(BOUNDED, UNIFORM3, 1.0)
    assert abs(est.value - ana) < 3 * est.std_error


def test_meta_estimate_reliability_zero_is_one():
    sim = SimConfig(n_realizations=200, seed=47)
    (est,) = estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 1, 1.0, [0.0])
    assert est.value == 1.0


def test_meta_estimate_tracks_inversion():
    sim = SimConfig(n_realizations=10_000, seed=53)
    xs = np.linspace(0.1, 0.9, 9)
    ests = estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 2, 1.0, xs)
    ks_gap = max(
        abs(est.value - meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 2, 1.0, float(x)))
        for est, x in zip(ests, xs)
    )
    assert ks_gap <= 0.02


def test_meta_estimate_empirical_mode_agrees():
    # a small window is fine here: truncation moves both conditioning modes
    # identically, and only their agreement is under test
    sim_closed = SimConfig(n_realizations=300, seed=59, window_radius=15.0)
    sim_emp = SimConfig(
        n_realizations=300,
        seed=59,
        window_radius=15.0,
        conditional_mode=ConditionalMode.FULLY_EMPIRICAL,
        n_fading_draws=1000,
    )
    x = 0.5
    (a,) = estimate_meta_distribution(BOUNDED, UNIFORM3, sim_closed, 1, 1.0, [x])
    (b,) = estimate_meta_distribution(BOUNDED, UNIFORM3, sim_emp, 1, 1.0, [x])
    joint_se = math.sqrt(a.std_error**2 + b.std_error**2)
    assert abs(a.value - b.value) < 3 * max(joint_se, 0.01)


def test_estimate_throughput_matches_integral():
    sim = SimConfig(n_realizations=4000, seed=61)
    for k in (1, 3):
        est = estimate_throughput(BOUNDED, UNIFORM3, sim, k)
        ana = shannon_throughput_k(BOUNDED, UNIFORM3, k).value
        assert abs(est.value - ana) < 3 * est.std_error
        assert est.n_capped == 0  # dense enough that silence never happens


def test_estimate_throughput_mixed_type_matches_overall():
    sim = SimConfig(n_realizations=4000, seed=83)
    est = estimate_throughput(BOUNDED, UNIFORM3, sim, None)
    ana = shannon_throughput_overall(BOUNDED, UNIFORM3).value
    assert abs(est.value - ana) < 3 * est.std_error


def test_estimate_throughput_caps_infinite_sir():
    tiny = NetworkParams(1e-6, 1.0, PathLossModel.bounded(4.0, 1.0))
    sim = SimConfig(n_realizations=50, seed=67, window_radius=10.0)
    est = estimate_throughput(tiny, UNIFORM3, sim, 1)
    assert est.n_capped == 50
    assert est.value == pytest.approx((1 / 3) * math.log2(1.0 + 1e9), rel=1e-9)


def test_estimate_mean_interference_matches_formula():
    sim = SimConfig(n_realizations=4000, seed=71)
    for k in (1, 2):
        est = estimate_mean_interference(BOUNDED, UNIFORM3, sim, k)
        ana = mean_interference_k(BOUNDED, UNIFORM3, k)
        assert abs(est.value - ana) < 3 * est.std_error


def test_estimate_mean_interference_mixed_type_matches_overall():
    sim = SimConfig(n_realizations=4000, seed=89)
    est = estimate_mean_interference(BOUNDED, UNIFORM3, sim, None)
    ana = mean_interference_overall(BOUNDED, UNIFORM3)
    assert abs(est.value - ana) < 3 * est.std_error


def test_estimate_mean_interference_contiguous_matches_formula():
    # means are linear in the overlap, so the window-averaged law is exact
    ba = BandwidthConfig.uniform(10, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    sim = SimConfig(n_realizations=4000, seed=97)
    for k in (1, 3):
        est = estimate_mean_interference(BOUNDED, ba, sim, k)
        ana = mean_interference_k(BOUNDED, ba, k)
        assert abs(est.value - ana) < 3 * est.std_error


def test_estimate_mean_interference_type_ratio():
    sim = SimConfig(n_realizations=4000, seed=73)
    e1 = estimate_mean_interference(BOUNDED, UNIFORM3, sim, 1)
    e2 = estimate_mean_interference(BOUNDED, UNIFORM3, sim, 2)
    ratio = e2.value / e1.value
    se = ratio * math.sqrt(
        (e1.std_error / e1.value) ** 2 + (e2.std_error / e2.value) ** 2
    )
    assert abs(ratio - 2.0) < 3 * se


def test_window_insensitivity():
    base = SimConfig(n_realizations=2000, seed=79)
    wide = SimConfig(n_realizations=2000, seed=79, window_radius=100.0)
    a = estimate_success_prob(BOUNDED, UNIFORM3, base, 1, 1.0)
    b = estimate_success_prob(BOUNDED, UNIFORM3, wide, 1, 1.0)
    assert abs(a.value - b.value) < max(a.std_error, b.std_error)


def test_estimate_interval():
    est = EstimateWithCI(0.5, 0.01, 100)
    assert est.interval(2.0) == (0.48, 0.52)
