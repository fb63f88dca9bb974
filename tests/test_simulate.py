"""Monte Carlo engine tests.

Statistical checks run against the closed forms at pinned seeds; the
agreement thresholds are 3 standard errors unless noted.
"""

import math
from collections import Counter, defaultdict
from itertools import accumulate

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bwalloc.allocation import (
    _overlap_law,
    _sample_overlaps,
    _window_starts,
    overlap_pmf,
    overlap_pmf_random,
    sample_type,
)
from bwalloc.errors import ConfigError, DomainError
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
    _realizations,
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


def _sir_of(real, net):
    return _sir(real, net, net.signal_attenuation())


# ---------------------------------------------------------------------------
# sampling


def test_determinism_same_seed():
    sim = SimConfig(n_realizations=200, seed=11)
    a = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    b = estimate_success_prob(BOUNDED, UNIFORM3, sim, 1, 1.0)
    assert a == b


def test_realizations_differ_across_indices():
    sim = SimConfig(n_realizations=2, seed=3)
    r0, r1 = [real for _, real in _realizations(BOUNDED, UNIFORM3, sim, 1)]
    assert r0.distance.size != r1.distance.size or not np.array_equal(r0.distance, r1.distance)


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
        SimConfig(conditional_mode="psychic")
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigError):
            SimConfig(n_fading_draws=bad)
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


def test_meta_estimate_empirical_mode_agrees_contiguous():
    # both routes hold the typical window fixed; at n = 10, k = 1, +10 dB
    # the window moves the conditional success probability the most
    common = dict(n_realizations=300, seed=59, window_radius=15.0)
    sim_emp = SimConfig(
        **common, conditional_mode=ConditionalMode.FULLY_EMPIRICAL, n_fading_draws=1000
    )
    x = 0.05
    (a,) = estimate_meta_distribution(BOUNDED, CONTIGUOUS10, SimConfig(**common), 1, 10.0, [x])
    (b,) = estimate_meta_distribution(BOUNDED, CONTIGUOUS10, sim_emp, 1, 10.0, [x])
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
