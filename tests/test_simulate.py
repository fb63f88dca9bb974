"""Monte Carlo engine tests.

Statistical checks run against the closed forms at pinned seeds; the
agreement thresholds are 3 standard errors unless noted.
"""

import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from itertools import accumulate

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from bwalloc import simulate
from bwalloc.allocation import (
    _overlap_law,
    _sample_overlaps,
    _type_law,
    _window_overlap_table,
    _window_starts,
    overlap_pmf,
    window_overlap_table,
    overlap_pmf_random,
    sample_type,
)
from bwalloc.errors import ConfigError, DomainError
from bwalloc.experiments import (
    ExperimentSpec,
    Metric,
    SweepSpec,
    SweepVariable,
    db_to_linear,
    run_experiment,
)
from bwalloc.meanmodel import mean_interference_k, mean_interference_overall
from bwalloc.metadist import meta_ccdf_gilpelaez
from bwalloc.metrics import (
    shannon_throughput_k,
    shannon_throughput_overall,
    success_prob_k,
    success_prob_overall,
)
from bwalloc.params import (
    MAX_CHUNKS,
    AllocationMode,
    BandwidthConfig,
    NetworkParams,
    PathLossModel,
)
from bwalloc.simulate import (
    ConditionalMode,
    EstimateWithCI,
    NetworkRealization,
    SimConfig,
    _interference,
    _realizations,
    _received,
    _sir,
    conditional_success_prob,
    estimate_mean_interference,
    estimate_meta_distribution,
    estimate_success_prob,
    estimate_throughput,
    realization_rng,
    success_prob_curve,
)

from reference_sampler import sample_realization

BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)
CONTIGUOUS10 = BandwidthConfig.uniform(10, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)


def _manual_realization(distances, overlaps, fading, k, h0):
    """Build a realization with hand-picked shared-chunk counts for algebra
    checks; the typical window starts at chunk 0."""
    return NetworkRealization(
        distance=np.asarray(distances, dtype=float),
        overlap=np.asarray(overlaps, dtype=np.int64),
        fading=np.asarray(fading, dtype=float),
        typical_type=k,
        typical_fading=h0,
        typical_start=0,
    )


def _forget_pass():
    """Drop the kept pass, so that the next estimator runs its loop."""
    simulate._kept.cache_clear()


def _forget_laws():
    """Empty the cached laws that the realization loop reads."""
    for law in (_type_law, _overlap_law, _window_overlap_table):
        law.cache_clear()


def _sir_of(real, net):
    signal = real.typical_type * real.typical_fading * net.signal_attenuation()
    attenuation = net.pathloss.attenuation(real.distance)
    return float(_sir(signal, _interference(real.overlap, real.fading, attenuation)))


# ---------------------------------------------------------------------------
# sampling


def test_determinism_same_seed():
    sim = SimConfig(n_realizations=200, seed=11)
    a = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    _forget_pass()
    b = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    assert a == b


def test_realizations_differ_across_indices():
    sim = SimConfig(n_realizations=2, seed=3)
    r0, r1 = [real for _, real in _realizations(BOUNDED, UNIFORM3, sim, 1)]
    assert r0.distance.size != r1.distance.size or not np.array_equal(r0.distance, r1.distance)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2**32])
def test_realization_rng_is_default_rng_of_the_pair(seed, index):
    rng, expected = realization_rng(seed, index), np.random.default_rng([seed, index])
    assert rng.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(rng.random(8), expected.random(8))


@pytest.mark.parametrize("m", [0, 1, 17, 1000])
def test_an_exponential_block_is_the_stream_of_shorter_draws(m):
    # one _marks draw serves several typical types: type k's interferer
    # fading and typical fading are the first m_k + 1 values of one block
    block = np.random.default_rng(31).exponential(1.0, m + 5)
    rng = np.random.default_rng(31)
    assert np.array_equal(block[:m], rng.exponential(1.0, m))
    assert block[m] == rng.exponential(1.0)


def test_interferer_count_is_poisson():
    # the loop draws the count first whenever the typical type is given
    sim = SimConfig(n_realizations=3000, seed=5, window_radius=20.0)
    mean_target = 0.2 * math.pi * 20.0**2
    counts = [real.distance.size for _, real in _realizations(BOUNDED, UNIFORM3, sim, 1)]
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
    sim = SimConfig(n_realizations=1, seed=1)
    ((_, real),) = _realizations(tiny, UNIFORM3, sim, 1)
    assert real.distance.size == 0
    assert _sir_of(real, tiny) == math.inf


def test_window_validation():
    sim = SimConfig(seed=1, window_radius=5.0)
    with pytest.raises(DomainError):
        success_prob_curve(BOUNDED, UNIFORM3, sim, 1, [1.0])


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
        EstimateWithCI(0.5, -1.0, 10)


# ---------------------------------------------------------------------------
# the realization loop's overlap draw


def _within_4_se(freq: float, p: float, draws: int) -> bool:
    # a mass of 0 or 1 must be hit exactly
    return abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws) + 1e-12


@pytest.mark.parametrize("n", [3, 10])
def test_random_overlap_draw_follows_the_pair_law(n):
    # every interferer type against k = 1 and k = n, drawn in a
    # (networks, interferers) block as the fully-empirical route draws it
    ba = BandwidthConfig.uniform(n)
    rng = np.random.default_rng(100 + n)
    draws = 20_000
    for k in (1, n):
        for i in range(1, n + 1):
            types = np.full((draws // 50, 50), i)
            t = _sample_overlaps(ba, k, types, rng.random(types.shape), 0)
            freq = np.bincount(t.ravel(), minlength=k + 1) / draws
            pmf = overlap_pmf(ba, k, i)
            for t_value in range(k + 1):
                assert _within_4_se(freq[t_value], float(pmf.mass(t_value)), draws), (k, i)


@pytest.mark.parametrize("k", [1, 17, 32, 64])
def test_overlap_cdf_widest_band(k):
    # the cumulative counts exceed 2**53 at n = 64; each entry must still be
    # the exact cumulative pair law, rounded
    cdf, _ = _overlap_law(MAX_CHUNKS, k)
    assert cdf.shape == (MAX_CHUNKS, k)
    for i in range(1, MAX_CHUNKS + 1):
        pmf = overlap_pmf_random(MAX_CHUNKS, k, i)
        exact = [float(c) for c in accumulate(pmf.mass(t) for t in range(k))]
        np.testing.assert_allclose(cdf[i - 1], exact, rtol=0, atol=1e-15)


def _window_law_given_start(n: int, k: int, i: int, s: int) -> dict[int, float]:
    """Overlap of a type-i window with the typical window starting at s,
    counted over the interferer's equally likely starts."""
    typical = set(range(s, s + k))
    counts = Counter(len(typical & set(range(u, u + i))) for u in range(n - i + 1))
    return {t: c / (n - i + 1) for t, c in counts.items()}


@pytest.mark.parametrize("n", [3, 10])
def test_contiguous_overlap_draw_conditions_on_the_typical_window(n):
    # two interferers of one network overlap the same typical window, so the
    # joint law of their counts is the mean over the typical start s of the
    # product of the window-count laws given s; type n - 1 makes that law
    # depend on s, which separates it from independent windows
    ba = BandwidthConfig.uniform(n, mode=AllocationMode.CONTIGUOUS)
    rng = np.random.default_rng(200 + n)
    networks = 20_000
    for k in (1, n):
        starts = range(n - k + 1)
        for i, j in sorted({(n - 1, n - 1), (1, n - 1), (2, n)}):
            typical = _window_starts(n, np.full((networks, 1), k), rng.random((networks, 1)))
            types = np.tile([i, j], (networks, 1))
            t = _sample_overlaps(ba, k, types, rng.random(types.shape), typical)
            observed = Counter(zip(t[:, 0].tolist(), t[:, 1].tolist()))
            expected = defaultdict(float)
            for s in starts:
                law_i = _window_law_given_start(n, k, i, s)
                law_j = _window_law_given_start(n, k, j, s)
                for a, p_a in law_i.items():
                    for b, p_b in law_j.items():
                        expected[(a, b)] += p_a * p_b / len(starts)
            for cell in set(expected) | set(observed):
                freq = observed[cell] / networks
                assert _within_4_se(freq, expected[cell], networks), (k, i, j, cell)


@pytest.mark.parametrize("k", [2, None])
def test_loop_distances_match_the_reference_sampler(k):
    ba = BandwidthConfig(3, (0.5, 0.2, 0.3), mode=AllocationMode.CONTIGUOUS)
    sim = SimConfig(n_realizations=30, seed=13, window_radius=20.0)
    for idx, (_, real) in enumerate(_realizations(BOUNDED, ba, sim, k)):
        k_typ = real.typical_type
        rng = realization_rng(13, idx)
        if k is None:
            assert sample_type(ba, rng) == k_typ
        ref = sample_realization(BOUNDED, ba, sim, k_typ, rng)
        np.testing.assert_allclose(real.distance, ref.distances(), rtol=1e-12, atol=0.0)
        # only interferers sharing a chunk draw fading
        assert np.array_equal(real.fading > 0.0, real.overlap > 0)
        assert real.overlap.max(initial=0) <= k_typ


# ---------------------------------------------------------------------------
# SIR algebra


def test_sir_zero_interferers_is_infinite():
    real = _manual_realization([], [], [], k=2, h0=1.0)
    assert _sir_of(real, BOUNDED) == math.inf


def test_sir_disjoint_chunks_is_infinite():
    real = _manual_realization([2.0], [0], [1.0], k=1, h0=1.0)
    assert _sir_of(real, BOUNDED) == math.inf


def test_sir_single_full_overlap_cancels_type():
    # unit fading, overlap t = k: SIR reduces to l(R) / l(d)
    d = 3.0
    real = _manual_realization([d], [2], [1.0], k=2, h0=1.0)
    expected = (1.0 / 2.0) / (1.0 / (1.0 + d**4))
    assert _sir_of(real, BOUNDED) == pytest.approx(expected / 1.0, rel=1e-12)


def test_an_interferer_sharing_no_chunk_adds_zero_at_distance_zero():
    # rng.random can return 0.0, where the power law's attenuation is inf
    attenuation = PathLossModel.power_law(4.0).attenuation(np.array([0.0, 1.0]))
    assert attenuation[0] == math.inf
    assert _interference(np.array([0, 1]), np.array([0.0, 0.5]), attenuation) == 0.5
    assert _interference(np.array([1, 1]), np.array([0.2, 0.5]), attenuation) == math.inf
    overlap, fading = np.array([[0, 1], [0, 0]]), np.array([[0.0, 0.5], [0.0, 0.0]])
    assert _interference(overlap, fading, attenuation).tolist() == [0.5, 0.0]
    # finite terms sum as the plain product does
    rng = np.random.default_rng(3)
    overlap = rng.integers(0, 3, (4, 100))
    fading = np.where(overlap > 0, rng.exponential(1.0, overlap.shape), 0.0)
    attenuation = BOUNDED.pathloss.attenuation(50.0 * rng.random(100))
    plain = (overlap * fading * attenuation).sum(axis=-1)
    assert np.array_equal(_interference(overlap, fading, attenuation), plain)


def test_attenuation_guards_only_the_power_law_origin():
    # only c0 = 0 divides by zero, at r = 0, which gives inf with no warning
    r = np.array([0.0, 0.5, 3.0])
    with np.errstate(divide="raise"):
        assert PathLossModel.power_law(4.0).attenuation(r).tolist() == [math.inf, 16.0, 1 / 81]
        assert PathLossModel.power_law(4.0).attenuation(0.0) == math.inf
        bounded = PathLossModel.bounded(4.0, 1.0).attenuation(r)
    assert bounded.tolist() == (1.0 / (1.0 + r**4.0)).tolist()


# ---------------------------------------------------------------------------
# conditional success probability


def test_conditional_empty_pattern_is_one():
    real = _manual_realization([], [], [], k=1, h0=1.0)
    assert conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0) == 1.0
    # the fully-empirical route draws nothing for it
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    mode = ConditionalMode.FULLY_EMPIRICAL
    assert conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0, mode=mode, rng=rng) == 1.0
    assert rng.bit_generator.state == state


def test_empty_threshold_and_reliability_grids_are_rejected():
    sim = SimConfig(n_realizations=1)
    with pytest.raises(DomainError, match="thetas must be nonempty"):
        success_prob_curve(BOUNDED, UNIFORM3, sim, 1, [])
    with pytest.raises(DomainError, match="x_grid must be nonempty"):
        estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 1, 1.0, [])


def test_conditional_single_interferer_hand_formula():
    d, theta, k = 2.0, 1.0, 1
    real = _manual_realization([d], [1], [1.0], k=k, h0=1.0)
    got = conditional_success_prob(real, BOUNDED, UNIFORM3, k, theta)
    ratio = (1.0 / (1.0 + d**4)) / 0.5
    expected = 0.0
    from bwalloc.allocation import overlap_pmf_random

    for i in (1, 2, 3):
        for t, mass in overlap_pmf_random(3, k, i).items():
            expected += (1 / 3) * float(mass) / (1.0 + theta * (t / k) * ratio)
    assert got == pytest.approx(expected, rel=1e-12)


def test_conditional_closed_form_reads_the_typical_window():
    # one type-2 interferer against a type-1 typical user in contiguous mode:
    # the factor depends on which chunk the typical user holds
    d, theta = 2.0, 1.0
    ba = BandwidthConfig.uniform(3, mode=AllocationMode.CONTIGUOUS)
    ratio = (1.0 / (1.0 + d**4)) / 0.5
    values = []
    for s in range(3):
        real = replace(_manual_realization([d], [1], [1.0], k=1, h0=1.0), typical_start=s)
        expected = sum(
            (1 / 3) * mass / (1.0 + theta * t * ratio)
            for i in (1, 2, 3)
            for t, mass in _window_law_given_start(3, 1, i, s).items()
        )
        values.append(conditional_success_prob(real, BOUNDED, ba, 1, theta))
        assert values[-1] == pytest.approx(expected, rel=1e-12)
    assert values[0] == values[2] != values[1]


def test_conditional_modes_agree():
    # the fifth network of the loop, at realization_rng(29, 4)
    sim = SimConfig(n_realizations=5, seed=29, window_radius=25.0)
    *_, (_, real) = _realizations(BOUNDED, UNIFORM3, sim, 2)
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
    sim = SimConfig(n_realizations=3000, seed=31)
    n_real = sim.n_realizations
    vals = np.array(
        [
            conditional_success_prob(real, BOUNDED, UNIFORM3, 1, 1.0)
            for _, real in _realizations(BOUNDED, UNIFORM3, sim, 1)
        ]
    )
    se = vals.std(ddof=1) / math.sqrt(n_real)
    assert abs(vals.mean() - success_prob_k(BOUNDED, UNIFORM3, 1, 1.0)) < 3 * se


def test_conditional_tower_property_contiguous():
    # the loop carries the typical window start, so averaging the closed
    # route over its networks recovers the success probability; a closed
    # route that averaged the window inside the product gives about 0.095
    sim = SimConfig(n_realizations=2000, seed=31)
    vals = np.array(
        [
            conditional_success_prob(real, BOUNDED, CONTIGUOUS10, 1, 10.0)
            for _, real in _realizations(BOUNDED, CONTIGUOUS10, sim, 1)
        ]
    )
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - success_prob_k(BOUNDED, CONTIGUOUS10, 1, 10.0)) < 3 * se


def test_conditional_requires_rng_for_empirical():
    real = _manual_realization([2.0], [1], [1.0], k=1, h0=1.0)
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


# The simulator samples interferers in a disk of DEFAULT_WINDOW_FACTOR link
# distances, and the interference from beyond it is not negligible for
# alpha <= 3: the simulator matches the closed form restricted to the disk,
# not success_prob_k (ROADMAP item 6).
_DISK_SIM = SimConfig(5000, seed=11)


def _bounded(alpha):
    return NetworkParams(0.2, 1.0, PathLossModel.bounded(alpha, 1.0))


def _disk_success(net, ba, k, theta, radius):
    """P(SIR > theta) with the interferers restricted to the disk of
    ``radius``: exp(-2 pi lambda int_0^radius sum_t q_t s_t / (1 + s_t) r dr),
    with s_t = theta (t / k) l(r) / l(link distance)."""
    q = window_overlap_table(ba, k)[0]
    ratio = np.arange(q.size) / k

    def integrand(r):
        s = theta * ratio * net.pathloss.attenuation(r) / net.signal_attenuation()
        return float(np.sum(q * s / (1.0 + s))) * r

    value, _ = integrate.quad(integrand, 0.0, radius, limit=200)
    return math.exp(-2.0 * math.pi * net.intensity * value)


@pytest.mark.parametrize("alpha", [2.5, 3.0])
def test_success_estimate_matches_the_disk_closed_form(alpha):
    net = _bounded(alpha)
    est = estimate_success_prob(net, UNIFORM3, _DISK_SIM, 1, 1.0)
    radius = simulate.DEFAULT_WINDOW_FACTOR * net.link_distance
    assert abs(est.value - _disk_success(net, UNIFORM3, 1, 1.0, radius)) < 3 * est.std_error


@pytest.mark.xfail(
    strict=True,
    reason="the disk of 50 link distances drops the far interference, which at "
    "alpha = 2.5 lifts the success probability from 0.0564 to 0.0906, z = +8.7 "
    "(ROADMAP item 6)",
)
def test_success_estimate_matches_the_closed_form_at_small_alpha():
    net = _bounded(2.5)
    est = estimate_success_prob(net, UNIFORM3, _DISK_SIM, 1, 1.0)
    assert abs(est.value - success_prob_k(net, UNIFORM3, 1, 1.0)) < 3 * est.std_error


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
    sim = SimConfig(n_realizations=300, seed=59, window_radius=15.0)
    empirical = dict(mode=ConditionalMode.FULLY_EMPIRICAL, n_fading_draws=1000)
    x = 0.5
    (a,) = estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 1, 1.0, [x])
    (b,) = estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 1, 1.0, [x], **empirical)
    joint_se = math.sqrt(a.std_error**2 + b.std_error**2)
    assert abs(a.value - b.value) < 3 * max(joint_se, 0.01)


def test_meta_estimate_empirical_mode_agrees_contiguous():
    # both routes hold the typical window fixed; at n = 10, k = 1, +10 dB
    # the window moves the conditional success probability the most
    sim = SimConfig(n_realizations=300, seed=59, window_radius=15.0)
    empirical = dict(mode=ConditionalMode.FULLY_EMPIRICAL, n_fading_draws=1000)
    x = 0.05
    (a,) = estimate_meta_distribution(BOUNDED, CONTIGUOUS10, sim, 1, 10.0, [x])
    (b,) = estimate_meta_distribution(BOUNDED, CONTIGUOUS10, sim, 1, 10.0, [x], **empirical)
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


# ---------------------------------------------------------------------------
# the stream, pinned: exact estimates at a fixed seed, so that a change to
# how the loop draws cannot pass unnoticed as long as its statistics hold

_PIN_MIX = (0.3, 0.0, 0.1, 0.2, 0.0, 0.0, 0.15, 0.0, 0.05, 0.2)
_PIN_SIM = SimConfig(n_realizations=30, seed=7)
_PIN_X = np.linspace(0.05, 0.95, 19)

#: (mode, k): success hits at theta = 0.1, 1, 10; throughput and mean
#: interference (value, std_error); meta-distribution hits at theta = 1
#: over _PIN_X
_PINNED = {
    (AllocationMode.RANDOM, 3): (
        [27, 16, 2],
        (0.4022020360569916, 0.0659336255407932),
        (2.062790393496646, 0.561581325303406),
        [30, 30, 29, 28, 28, 25, 24, 20, 18, 17, 14, 11, 8, 5, 2, 1, 0, 0, 0],
    ),
    (AllocationMode.RANDOM, None): (
        [24, 13, 2],
        (0.5610827117708167, 0.1437849631239095),
        (3.5814261957288887, 0.7826036753974229),
        [30, 30, 30, 28, 28, 27, 25, 22, 19, 17, 13, 11, 10, 6, 3, 1, 0, 0, 0],
    ),
    (AllocationMode.CONTIGUOUS, 3): (
        [28, 16, 4],
        (0.5099836951113815, 0.083210190279545),
        (1.4667081447828807, 0.2866719832446133),
        [30, 30, 29, 28, 26, 25, 23, 20, 19, 17, 13, 9, 5, 5, 2, 1, 0, 0, 0],
    ),
    (AllocationMode.CONTIGUOUS, None): (
        [27, 15, 3],
        (0.5937282689370373, 0.12290177322957867),
        (2.5741028498727445, 0.6168743446464429),
        [30, 30, 28, 28, 28, 27, 24, 22, 20, 17, 16, 11, 9, 8, 5, 1, 0, 0, 0],
    ),
}


@pytest.mark.parametrize("mode", list(AllocationMode))
@pytest.mark.parametrize("k", [3, None])
def test_estimates_are_pinned(mode, k):
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    success, throughput, interference, meta = _PINNED[(mode, k)]
    n = _PIN_SIM.n_realizations
    curve = success_prob_curve(BOUNDED, ba, _PIN_SIM, k, [0.1, 1.0, 10.0])
    assert [e.value for e in curve] == [c / n for c in success]
    est = estimate_throughput(BOUNDED, ba, _PIN_SIM, k)
    assert (est.value, est.std_error) == throughput
    est = estimate_mean_interference(BOUNDED, ba, _PIN_SIM, k)
    assert (est.value, est.std_error) == interference
    ccdf = estimate_meta_distribution(BOUNDED, ba, _PIN_SIM, k, 1.0, _PIN_X)
    assert [e.value for e in ccdf] == [c / n for c in meta]


@pytest.mark.parametrize(
    "mode, start, shared, empirical, closed_form",
    [
        (AllocationMode.RANDOM, 0, 5659, 0.712, 0.7104630146840778),
        (AllocationMode.CONTIGUOUS, 3, 5929, 0.685, 0.6992859260076356),
    ],
)
def test_conditional_values_are_pinned(mode, start, shared, empirical, closed_form):
    # the first network of the mix-typed loop, then the fully-empirical
    # route's redraws from its generator
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    rng, real = next(_realizations(BOUNDED, ba, _PIN_SIM, None))
    assert (real.typical_type, real.typical_start, int(real.overlap.sum())) == (7, start, shared)
    value = conditional_success_prob(
        real, BOUNDED, ba, 7, 1.0, ConditionalMode.FULLY_EMPIRICAL, 1000, rng
    )
    assert value == empirical
    assert conditional_success_prob(real, BOUNDED, ba, 7, 1.0) == closed_form


@pytest.mark.parametrize("mode", list(AllocationMode))
@pytest.mark.parametrize("types", [list(range(1, 11)), [None]], ids=["fixed", "mix"])
def test_received_rows_are_the_realization_loops(mode, types):
    # one pass serves every fixed type; each row is its entry's own loop
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    typical, signal, interference = _received(BOUNDED, ba, _PIN_SIM, types)
    typical = np.broadcast_to(typical, signal.shape)
    attenuation = BOUNDED.pathloss.attenuation
    for row, k in enumerate(types):
        for idx, (_, real) in enumerate(_realizations(BOUNDED, ba, _PIN_SIM, k)):
            k_typ = real.typical_type
            assert typical[row, idx] == k_typ
            assert signal[row, idx] == k_typ * real.typical_fading * BOUNDED.signal_attenuation()
            expected = _interference(real.overlap, real.fading, attenuation(real.distance))
            assert interference[row, idx] == expected


@pytest.mark.parametrize("mode", list(AllocationMode))
@pytest.mark.parametrize("pinned_mix", [True, False], ids=["pin-mix", "uniform3"])
def test_simulate_table_type_columns_are_the_separate_curves(mode, pinned_mix):
    if pinned_mix:
        ba = BandwidthConfig(10, _PIN_MIX, mode)
    else:
        ba = BandwidthConfig.uniform(3, mode=mode)
    spec = ExperimentSpec(
        Metric.SIMULATE,
        SweepSpec(SweepVariable.THETA_DB, -10.0, 10.0, 5),
        network=BOUNDED,
        bandwidth=ba,
        sim=_PIN_SIM,
    )
    header, rows = run_experiment(spec)
    columns = dict(zip(header, map(list, zip(*rows))))
    thetas = [db_to_linear(db) for db in columns["theta_db"]]
    for k in [*range(1, ba.n_chunks + 1), None]:
        name = "overall" if k is None else f"type_{k}"
        _forget_pass()
        curve = success_prob_curve(BOUNDED, ba, _PIN_SIM, k, thetas)
        assert columns[f"sim_ps_{name}"] == [estimate.value for estimate in curve]
        assert columns[f"se_{name}"] == [estimate.std_error for estimate in curve]


class _Drawn(Exception):
    pass


def _refuse(name):
    def draw(*args):
        raise _Drawn(name)

    return draw


@pytest.mark.parametrize("mode", list(AllocationMode))
@pytest.mark.parametrize("k", [3, None])
def test_closed_form_meta_route_draws_no_marks(monkeypatch, mode, k):
    for name in ("_marks", "_sample_overlaps"):
        monkeypatch.setattr(simulate, name, _refuse(name))
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    n = _PIN_SIM.n_realizations
    ccdf = estimate_meta_distribution(BOUNDED, ba, _PIN_SIM, k, 1.0, _PIN_X)
    assert [e.value for e in ccdf] == [c / n for c in _PINNED[(mode, k)][3]]
    empirical = ConditionalMode.FULLY_EMPIRICAL
    with pytest.raises(_Drawn, match="_marks"):
        estimate_meta_distribution(BOUNDED, ba, _PIN_SIM, k, 1.0, _PIN_X, empirical, 10)


def test_closed_form_meta_route_reads_the_signal_attenuation_once(monkeypatch):
    calls = []
    signal_attenuation = NetworkParams.signal_attenuation

    def counted(net):
        calls.append(None)
        return signal_attenuation(net)

    monkeypatch.setattr(NetworkParams, "signal_attenuation", counted)
    estimate_meta_distribution(BOUNDED, UNIFORM3, _PIN_SIM, None, 1.0, _PIN_X)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the loop forked across processes: the same arrays as the serial loop, and
# no worker left behind


def _fan_out(monkeypatch, cpus=2):
    """Fork every loop across ``cpus`` processes, which share 8 blocks
    (6 with 3 processes) of _PIN_SIM's 30 networks, and count the forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(simulate, "_BLOCK_WORK", 1)
    monkeypatch.setattr(simulate, "_MAX_BLOCKS", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _every_route(ba, k, cold_laws=False):
    """Each route's output, as arrays or estimates, in a list; with
    ``cold_laws``, each route starts with empty law caches."""
    empirical = ConditionalMode.FULLY_EMPIRICAL
    routes = [
        lambda: _received(BOUNDED, ba, _PIN_SIM, list(range(1, ba.n_chunks + 1))),
        lambda: success_prob_curve(BOUNDED, ba, _PIN_SIM, k, [0.1, 1.0, 10.0]),
        lambda: estimate_throughput(BOUNDED, ba, _PIN_SIM, k),
        lambda: estimate_mean_interference(BOUNDED, ba, _PIN_SIM, k),
        lambda: estimate_meta_distribution(BOUNDED, ba, _PIN_SIM, k, 1.0, _PIN_X),
        lambda: estimate_meta_distribution(BOUNDED, ba, _PIN_SIM, k, 1.0, _PIN_X, empirical, 20),
    ]
    outputs = []
    for route in routes:
        _forget_pass()
        if cold_laws:
            _forget_laws()
        outputs.append(route())
        assert _no_children()
    return outputs


@pytest.mark.parametrize("mode", list(AllocationMode))
@pytest.mark.parametrize("k", [3, None])
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_routes_are_the_serial_loop(monkeypatch, mode, k, cpus):
    # also with cold law caches, where each process builds the laws that
    # its blocks read
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    serial = _every_route(ba, k)
    forks = _fan_out(monkeypatch, cpus)
    for cold_laws in (False, True):
        forks.clear()
        received, *estimates = _every_route(ba, k, cold_laws)
        assert len(forks) == (cpus - 1) * len(serial)
        assert all(map(np.array_equal, received, serial[0]))
        assert estimates == serial[1:]


@pytest.mark.parametrize("mode", list(AllocationMode))
def test_forked_simulate_table_is_the_serial_table(monkeypatch, mode):
    spec = ExperimentSpec(
        Metric.SIMULATE,
        SweepSpec(SweepVariable.THETA_DB, -10.0, 10.0, 5),
        network=BOUNDED,
        bandwidth=BandwidthConfig(10, _PIN_MIX, mode),
        sim=_PIN_SIM,
    )
    serial = run_experiment(spec)
    forks = _fan_out(monkeypatch)
    _forget_pass()
    assert run_experiment(spec) == serial
    assert forks and _no_children()


class _WorkerFailed(Exception):
    pass


def _patch_rng(monkeypatch, caller=None, worker=None):
    """Make realization_rng call ``caller()`` in the calling process and
    ``worker()`` in a forked worker before it draws; None draws at once."""
    make, home = simulate.realization_rng, os.getpid()

    def rng(seed, index):
        hook = caller if os.getpid() == home else worker
        if hook is not None:
            hook()
        return make(seed, index)

    monkeypatch.setattr(simulate, "realization_rng", rng)


def _raise(exc):
    def hook():
        raise exc

    return hook


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    _fan_out(monkeypatch)
    _patch_rng(monkeypatch, worker=_raise(_WorkerFailed("in a worker")))
    with pytest.raises(_WorkerFailed, match="in a worker"):
        success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, 1, [1.0])
    assert _no_children()


def test_a_worker_exception_that_cannot_be_sent_still_fails(monkeypatch):
    class Local(Exception):  # pickle cannot name a local class
        pass

    _fan_out(monkeypatch)
    _patch_rng(monkeypatch, worker=_raise(Local()))
    with pytest.raises(ChildProcessError, match="without a result"):
        estimate_mean_interference(BOUNDED, UNIFORM3, _PIN_SIM, 1)
    assert _no_children()


def test_an_interrupted_caller_kills_its_workers(monkeypatch):
    # the worker would sleep for a minute; the caller's interrupt kills it
    _fan_out(monkeypatch)
    _patch_rng(monkeypatch, caller=_raise(KeyboardInterrupt()), worker=lambda: time.sleep(60.0))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        estimate_throughput(BOUNDED, UNIFORM3, _PIN_SIM, 1)
    assert time.monotonic() - start < 30.0
    assert _no_children()


def _refuse_fork(monkeypatch):
    monkeypatch.setattr(simulate, "_BLOCK_WORK", 1)
    monkeypatch.setattr(os, "fork", _refuse("fork"))


def test_one_usable_cpu_stays_serial(monkeypatch):
    expected = success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, None, [1.0])
    _forget_pass()
    _refuse_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, None, [1.0]) == expected


def test_a_second_python_thread_keeps_the_loop_serial(monkeypatch):
    expected = success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, None, [1.0])
    _forget_pass()
    _refuse_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, None, [1.0]) == expected
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_no_fork_stays_serial(monkeypatch):
    expected = estimate_throughput(BOUNDED, UNIFORM3, _PIN_SIM, 2)
    _forget_pass()
    monkeypatch.setattr(simulate, "_BLOCK_WORK", 1)
    monkeypatch.delattr(os, "fork")
    assert estimate_throughput(BOUNDED, UNIFORM3, _PIN_SIM, 2) == expected


def test_small_loops_stay_serial(monkeypatch):
    # 100 realizations of the reference network are about 157,000
    # interferers, under two blocks' worth of work; 8000 are 25 blocks
    monkeypatch.setattr(os, "fork", _refuse("fork"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    sim = SimConfig(n_realizations=100, seed=3)
    estimate_throughput(BOUNDED, UNIFORM3, sim, None)
    estimate_meta_distribution(BOUNDED, UNIFORM3, sim, 2, 1.0, [0.5])
    with pytest.raises(_Drawn, match="fork"):
        estimate_throughput(BOUNDED, UNIFORM3, replace(sim, n_realizations=8000), None)


# ---------------------------------------------------------------------------
# the kept pass: estimators that read the networks of the last pass draw
# nothing, and give what a cold call gives


def _count_passes(monkeypatch):
    """Record the types of each pass that _received runs."""
    passes = []
    run = simulate._pass

    def counted(net, ba, sim, types):
        passes.append(types)
        return run(net, ba, sim, types)

    monkeypatch.setattr(simulate, "_pass", counted)
    return passes


def _statistics(ba, k, sim=_PIN_SIM):
    """The success curve, throughput and mean interference of type k."""
    return (
        success_prob_curve(BOUNDED, ba, sim, k, [0.1, 1.0, 10.0]),
        estimate_throughput(BOUNDED, ba, sim, k),
        estimate_mean_interference(BOUNDED, ba, sim, k),
    )


@pytest.mark.parametrize("mode", list(AllocationMode))
def test_a_simulate_table_serves_every_later_statistic(monkeypatch, mode):
    ba = BandwidthConfig(10, _PIN_MIX, mode)
    types = [*range(1, 11), None]
    cold = {}
    for k in types:
        _forget_pass()
        cold[k] = _statistics(ba, k)
    _forget_pass()
    spec = ExperimentSpec(
        Metric.SIMULATE,
        SweepSpec(SweepVariable.THETA_DB, -10.0, 10.0, 5),
        network=BOUNDED,
        bandwidth=ba,
        sim=_PIN_SIM,
    )
    run_experiment(spec)
    monkeypatch.setattr(simulate, "_networks", _refuse("_networks"))
    for k in types:
        assert _statistics(ba, k) == cold[k]


def test_a_partly_held_request_runs_the_missing_types_only(monkeypatch):
    ba = BandwidthConfig(10, _PIN_MIX, AllocationMode.CONTIGUOUS)
    asked = [3, 2, 1, 4, 2]
    cold = _received(BOUNDED, ba, _PIN_SIM, asked)
    _forget_pass()
    _received(BOUNDED, ba, _PIN_SIM, [1, 3])
    passes = _count_passes(monkeypatch)
    warm = _received(BOUNDED, ba, _PIN_SIM, asked)
    assert passes == [[2, 4]]
    assert all(map(np.array_equal, warm, cold))
    assert [a.shape for a in warm] == [(5, 1), (5, 30), (5, 30)]
    _received(BOUNDED, ba, _PIN_SIM, [None])
    assert passes == [[2, 4], [None]]
    _received(BOUNDED, ba, _PIN_SIM, [4, 1])
    _received(BOUNDED, ba, _PIN_SIM, [None])
    assert len(passes) == 2


_RANDOM10 = BandwidthConfig(10, _PIN_MIX)


@pytest.mark.parametrize(
    "net, ba, sim",
    [
        (BOUNDED, _RANDOM10, replace(_PIN_SIM, seed=8)),
        (BOUNDED, _RANDOM10, replace(_PIN_SIM, n_realizations=31)),
        (BOUNDED, _RANDOM10, replace(_PIN_SIM, window_radius=40.0)),
        (BOUNDED, BandwidthConfig.uniform(10), _PIN_SIM),
        (BOUNDED, replace(_RANDOM10, mode=AllocationMode.CONTIGUOUS), _PIN_SIM),
        (replace(BOUNDED, intensity=0.3), _RANDOM10, _PIN_SIM),
        (replace(BOUNDED, pathloss=PathLossModel.power_law(4.0)), _RANDOM10, _PIN_SIM),
    ],
    ids=["seed", "realizations", "window", "mix", "mode", "intensity", "pathloss"],
)
def test_another_group_recomputes(monkeypatch, net, ba, sim):
    _forget_pass()
    cold = estimate_throughput(net, ba, sim, 3)
    _forget_pass()
    estimate_throughput(BOUNDED, _RANDOM10, _PIN_SIM, 3)
    passes = _count_passes(monkeypatch)
    assert estimate_throughput(net, ba, sim, 3) == cold
    assert passes == [[3]]


def _held(net, ba, sim):
    """The rows that the kept pass holds for the (net, ba, sim) group; it
    must be the group held."""
    hits = simulate._kept.cache_info().hits
    rows = simulate._kept(net, ba, sim)
    assert simulate._kept.cache_info().hits == hits + 1
    return rows


def test_only_one_group_is_held(monkeypatch):
    other = replace(_PIN_SIM, seed=8)
    _received(BOUNDED, _RANDOM10, _PIN_SIM, [1, 2])
    _received(BOUNDED, _RANDOM10, other, [1])
    assert simulate._kept.cache_info().currsize == 1
    assert list(_held(BOUNDED, _RANDOM10, other)) == [1]
    passes = _count_passes(monkeypatch)
    _received(BOUNDED, _RANDOM10, _PIN_SIM, [1, 2])
    assert passes == [[1, 2]]


def test_a_returned_array_is_a_copy():
    cold = [a.copy() for a in _received(BOUNDED, UNIFORM3, _PIN_SIM, [1, 3])]
    for array in _received(BOUNDED, UNIFORM3, _PIN_SIM, [1, 3]):
        array[...] = 0
    assert all(map(np.array_equal, _received(BOUNDED, UNIFORM3, _PIN_SIM, [1, 3]), cold))
    for rows in _held(BOUNDED, UNIFORM3, _PIN_SIM).values():
        assert not any(row.flags.writeable for row in rows)


def test_a_failed_pass_stores_nothing(monkeypatch):
    _received(BOUNDED, UNIFORM3, _PIN_SIM, [1])
    held = _held(BOUNDED, UNIFORM3, _PIN_SIM)
    rows = held[1]
    _fan_out(monkeypatch)
    _patch_rng(monkeypatch, worker=_raise(_WorkerFailed("in a worker")))
    with pytest.raises(_WorkerFailed):
        estimate_throughput(BOUNDED, UNIFORM3, _PIN_SIM, 2)
    assert _held(BOUNDED, UNIFORM3, _PIN_SIM) is held
    assert list(held) == [1] and held[1] is rows
    with pytest.raises(_WorkerFailed):
        estimate_throughput(BOUNDED, CONTIGUOUS10, _PIN_SIM, 2)
    assert simulate._kept.cache_info().currsize == 1
    assert _held(BOUNDED, CONTIGUOUS10, _PIN_SIM) == {}
    assert _no_children()


def test_an_interrupted_pass_stores_nothing(monkeypatch):
    _patch_rng(monkeypatch, caller=_raise(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        success_prob_curve(BOUNDED, UNIFORM3, _PIN_SIM, None, [1.0])
    assert simulate._kept.cache_info().currsize == 1
    assert _held(BOUNDED, UNIFORM3, _PIN_SIM) == {}


def test_threads_sharing_the_kept_pass_get_cold_results():
    # each call reads the rows it computed or found, never a half-made group
    sims = [SimConfig(n_realizations=5, seed=seed) for seed in (1, 2)]
    requests = [(sim, types) for sim in sims for types in ([1], [2], [3, 1], [None])]
    cold = {}
    for sim, types in requests:
        _forget_pass()
        cold[sim, tuple(types)] = _received(BOUNDED, UNIFORM3, sim, types)
    mismatches = []

    def work(offset):
        for j in range(40):
            sim, types = requests[(offset + j) % len(requests)]
            try:
                got = _received(BOUNDED, UNIFORM3, sim, types)
            except Exception as exc:  # reported by the assertion below
                mismatches.append(exc)
                continue
            if not all(map(np.array_equal, got, cold[sim, tuple(types)])):
                mismatches.append((sim, types))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
