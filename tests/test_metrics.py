"""Closed-form metric tests.

Oracles: hand-evaluated expressions frozen below, an independently written
integrand driven through mpmath quadrature, and a small direct Monte Carlo
of the single-interferer-type SIR.
"""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwalloc.errors import DomainError
from bwalloc.metrics import (
    bounded_interference_constant,
    interference_constant,
    shannon_throughput_k,
    shannon_throughput_overall,
    shannon_throughput_per_hz_k,
    shannon_throughput_per_joule_k,
    shannon_throughput_per_joule_overall,
    success_prob_k,
    success_prob_ki,
    success_prob_overall,
)
from bwalloc.allocation import overlap_pmf_random
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel

POWER_LAW = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)


# ---------------------------------------------------------------------------
# interference constants


def test_interference_constant_quarter_power():
    # Gamma(3/2) * Gamma(1/2) = pi / 2
    assert interference_constant(POWER_LAW) == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_interference_constant_scales_with_link_distance():
    big = NetworkParams(0.2, 2.0, PathLossModel.power_law(4.0))
    assert interference_constant(big) == pytest.approx(4 * math.pi**2 / 2, rel=1e-12)


def test_interference_constant_small_delta_limit():
    net = NetworkParams(0.2, 1.0, PathLossModel.power_law(1e6))
    assert interference_constant(net) == pytest.approx(math.pi, rel=1e-4)


def test_interference_constant_rejects_bounded():
    with pytest.raises(DomainError):
        interference_constant(BOUNDED)


def test_bounded_interference_constant():
    # lambda * pi * (c0 + R^alpha) * Gamma(3/2) * Gamma(1/2)
    expected = 0.2 * math.pi * 2.0 * (math.pi / 2)
    assert bounded_interference_constant(BOUNDED) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        bounded_interference_constant(POWER_LAW)


# ---------------------------------------------------------------------------
# success probability


def test_success_prob_ki_zero_threshold():
    assert success_prob_ki(POWER_LAW, UNIFORM3, 1, 1, 0.0) == 1.0
    assert success_prob_ki(POWER_LAW, UNIFORM3, 2, 3, 1e-300) == pytest.approx(1.0)


def test_success_prob_ki_zero_mass_interferer_type():
    ba = BandwidthConfig(3, (0.3, 0.0, 0.7))
    assert success_prob_ki(POWER_LAW, ba, 1, 2, 1.0) == 1.0


def test_success_prob_ki_hand_value_power_law():
    # k = i = 1: overlap is 1 with probability 1/3, and (t/k)^delta sums to 1/3
    expected = math.exp(-0.2 * (1 / 3) * (math.pi**2 / 2) * (1 / 3))
    assert success_prob_ki(POWER_LAW, UNIFORM3, 1, 1, 1.0) == pytest.approx(expected, rel=1e-12)


def test_success_prob_ki_monte_carlo_cross_check():
    # direct simulation of S / I_{k,i} with only type-i interferers present
    k, i, theta = 1, 1, 1.0
    lam_i = 0.2 * (1 / 3)
    pmf = overlap_pmf_random(3, k, i)
    support = np.array(pmf.support)
    masses = np.array([float(m) for _, m in pmf.items()])
    rng = np.random.default_rng(7)
    n_real, radius = 20_000, 40.0
    hits = 0
    for _ in range(n_real):
        n = rng.poisson(lam_i * math.pi * radius**2)
        r = radius * np.sqrt(rng.random(n))
        t = rng.choice(support, size=n, p=masses)
        h = rng.exponential(1.0, n)
        interference = np.sum(t * h * r**-4.0)
        s = k * rng.exponential(1.0) * 1.0
        if interference == 0.0 or s / interference > theta:
            hits += 1
    est = hits / n_real
    se = math.sqrt(est * (1 - est) / n_real)
    assert abs(est - success_prob_ki(POWER_LAW, UNIFORM3, k, i, theta)) < 3 * se


def test_success_prob_k_is_product_over_interferer_types():
    for net in (POWER_LAW, BOUNDED):
        for theta in (0.1, 1.0, 10.0):
            prod = math.prod(
                success_prob_ki(net, UNIFORM3, 2, i, theta) for i in (1, 2, 3)
            )
            assert success_prob_k(net, UNIFORM3, 2, theta) == pytest.approx(prod, rel=1e-12)


def _chunk_sets(n, k, contiguous):
    if contiguous:
        return [frozenset(range(a, a + k)) for a in range(n - k + 1)]
    return [frozenset(c) for c in combinations(range(n), k)]


def _brute_force_success_prob(net, ba, k, theta):
    """Average over every typical chunk set of the product over interferer
    types, each factor enumerated over every interferer chunk set; the
    exponent per overlap t is the Rayleigh Laplace transform of a typed PPP
    with interference weight t/k."""
    pl = net.pathloss
    delta = 2.0 / pl.alpha
    gammas = math.gamma(1 + delta) * math.gamma(1 - delta)
    if pl.is_bounded:
        scale = pl.c0 + net.link_distance**pl.alpha

        def exponent(w):
            return net.intensity * math.pi * scale * gammas * theta * w * (
                theta * w * scale + pl.c0
            ) ** (delta - 1)

    else:

        def exponent(w):
            return net.intensity * math.pi * net.link_distance**2 * gammas * (theta * w) ** delta

    contiguous = ba.mode is AllocationMode.CONTIGUOUS
    typical_sets = _chunk_sets(ba.n_chunks, k, contiguous)
    total = 0.0
    for sa in typical_sets:
        acc = 0.0
        for i, p_i in enumerate(ba.type_probs, start=1):
            sets_i = _chunk_sets(ba.n_chunks, i, contiguous)
            for sb in sets_i:
                t = len(sa & sb)
                if t:
                    acc += p_i * exponent(t / k) / len(sets_i)
        total += math.exp(-acc)
    return total / len(typical_sets)


@pytest.mark.parametrize("mode", [AllocationMode.RANDOM, AllocationMode.CONTIGUOUS])
@pytest.mark.parametrize("net", [POWER_LAW, BOUNDED], ids=["power_law", "bounded"])
def test_success_prob_k_matches_brute_force_over_chunk_sets(mode, net):
    # in contiguous mode every interferer overlaps the same typical window,
    # so the success probability averages over that window outside the
    # exponential; the brute force does exactly that
    for n in range(1, 7):
        ba = BandwidthConfig(n, tuple(np.arange(1, n + 1) / (n * (n + 1) / 2)), mode)
        for k in range(1, n + 1):
            for theta in (0.1, 1.0, 10.0):
                assert success_prob_k(net, ba, k, theta) == pytest.approx(
                    _brute_force_success_prob(net, ba, k, theta), rel=1e-12
                )


def test_success_prob_ki_contiguous_averages_over_typical_window():
    ba = BandwidthConfig.uniform(4, mode=AllocationMode.CONTIGUOUS)
    single = BandwidthConfig.single_type(4, 2, mode=AllocationMode.CONTIGUOUS)
    thin = NetworkParams(0.2 / 4, 1.0, BOUNDED.pathloss)
    for theta in (0.1, 1.0, 10.0):
        # type-2 interferers alone, at intensity 0.2 / 4, are a thinned
        # network of type-2 users
        assert success_prob_ki(BOUNDED, ba, 1, 2, theta) == pytest.approx(
            _brute_force_success_prob(thin, single, 1, theta), rel=1e-12
        )


def test_success_prob_k_single_chunk_band():
    ba = BandwidthConfig(1, (1.0,))
    for theta in (0.5, 2.0):
        assert success_prob_k(POWER_LAW, ba, 1, theta) == pytest.approx(
            success_prob_ki(POWER_LAW, ba, 1, 1, theta), rel=1e-15
        )


def test_success_prob_overall_degenerate_mix():
    ba = BandwidthConfig(3, (1.0, 0.0, 0.0))
    for theta in (0.1, 1.0):
        assert success_prob_overall(BOUNDED, ba, theta) == pytest.approx(
            success_prob_k(BOUNDED, ba, 1, theta), rel=1e-15
        )


def test_success_prob_overall_mixture_bounds():
    for theta in (0.1, 1.0, 10.0):
        per_type = [success_prob_k(BOUNDED, UNIFORM3, k, theta) for k in (1, 2, 3)]
        overall = success_prob_overall(BOUNDED, UNIFORM3, theta)
        assert min(per_type) <= overall <= max(per_type)


def test_per_type_ordering_on_threshold_grid():
    thetas = 10 ** (np.linspace(-20, 20, 41) / 10)
    for theta in thetas:
        ps = [success_prob_k(BOUNDED, UNIFORM3, k, theta) for k in (1, 2, 3)]
        assert ps[0] >= ps[1] >= ps[2]


def test_overall_ordering_across_type_mixes():
    all_type1 = BandwidthConfig(3, (1.0, 0.0, 0.0))
    all_type3 = BandwidthConfig(3, (0.0, 0.0, 1.0))
    thetas = 10 ** (np.linspace(-20, 20, 41) / 10)
    for theta in thetas:
        hi = success_prob_overall(BOUNDED, all_type1, theta)
        mid = success_prob_overall(BOUNDED, UNIFORM3, theta)
        lo = success_prob_overall(BOUNDED, all_type3, theta)
        assert hi >= mid >= lo


def test_bounded_converges_to_power_law():
    nearly = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1e-8))
    for theta_db in np.linspace(-10, 10, 9):
        theta = 10 ** (theta_db / 10)
        for k in (1, 2, 3):
            gap = abs(
                success_prob_k(nearly, UNIFORM3, k, theta)
                - success_prob_k(POWER_LAW, UNIFORM3, k, theta)
            )
            assert gap < 1e-4


@given(
    theta=st.floats(min_value=1e-2, max_value=1e2),
    factor=st.floats(min_value=1.1, max_value=10.0),
    k=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_success_prob_decreasing_in_theta(theta, factor, k):
    lo = success_prob_k(BOUNDED, UNIFORM3, k, theta * factor)
    hi = success_prob_k(BOUNDED, UNIFORM3, k, theta)
    assert 0.0 <= lo < hi <= 1.0


@given(
    lam=st.floats(min_value=1e-2, max_value=5.0),
    factor=st.floats(min_value=1.1, max_value=10.0),
    k=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_success_prob_decreasing_in_intensity(lam, factor, k):
    pl = PathLossModel.bounded(4.0, 1.0)
    sparse = NetworkParams(lam, 1.0, pl)
    dense = NetworkParams(lam * factor, 1.0, pl)
    assert success_prob_k(dense, UNIFORM3, k, 1.0) < success_prob_k(sparse, UNIFORM3, k, 1.0)


def test_success_prob_domain_errors():
    with pytest.raises(DomainError):
        success_prob_k(BOUNDED, UNIFORM3, 0, 1.0)
    with pytest.raises(DomainError):
        success_prob_k(BOUNDED, UNIFORM3, 4, 1.0)
    with pytest.raises(DomainError):
        success_prob_ki(BOUNDED, UNIFORM3, 1, 5, 1.0)
    with pytest.raises(DomainError):
        success_prob_k(BOUNDED, UNIFORM3, 1, -1.0)
    with pytest.raises(DomainError):
        success_prob_overall(BOUNDED, UNIFORM3, math.nan)


# ---------------------------------------------------------------------------
# Shannon throughput


def _oracle_rate_integral_bounded(k: int) -> float:
    """Independent evaluation of the type-k rate integral at the defaults
    (lambda=0.2, R=1, alpha=4, c0=1, uniform mix of 3), via mpmath."""
    lam, c0, alpha, r_link = 0.2, 1.0, 4.0, 1.0
    delta = 2.0 / alpha
    scale = c0 + r_link**alpha
    cb = lam * math.pi * scale * math.gamma(1 + delta) * math.gamma(1 - delta)

    def ps(theta):
        total = 0.0
        for i in (1, 2, 3):
            acc = 0.0
            for t, mass in overlap_pmf_random(3, k, i).items():
                if t == 0:
                    continue
                acc += float(mass) * (t / k) * ((theta * t / k) * scale + c0) ** (delta - 1)
            total += (1 / 3) * cb * theta * acc
        return math.exp(-total)

    return float(mpmath.quad(lambda y: ps(2.0**float(y) - 1.0), [0, 1, 4, 16, 64]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_throughput_matches_independent_quadrature(k):
    oracle = (k / 3) * _oracle_rate_integral_bounded(k)
    result = shannon_throughput_k(BOUNDED, UNIFORM3, k)
    assert result.value == pytest.approx(oracle, rel=1e-7)
    assert not result.truncated
    assert result.tail_bound < 1e-9


def test_throughput_per_joule_ratio():
    for k in (1, 2, 3):
        agg = shannon_throughput_k(BOUNDED, UNIFORM3, k)
        per_j = shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, k)
        assert agg.value / per_j.value == pytest.approx(k * UNIFORM3.power_per_chunk, rel=1e-12)


def test_throughput_per_hz_is_per_joule_times_power():
    for k in (1, 2, 3):
        per_j = shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, k)
        per_hz = shannon_throughput_per_hz_k(BOUNDED, UNIFORM3, k)
        assert per_hz.value == pytest.approx(per_j.value * 2.0, rel=1e-12)


def test_throughput_full_band_has_unit_bandwidth_factor():
    ba = BandwidthConfig(1, (1.0,))
    res = shannon_throughput_k(BOUNDED, ba, 1)

    def ps(y):
        return success_prob_k(BOUNDED, ba, 1, 2.0**y - 1.0)

    oracle = float(mpmath.quad(lambda y: ps(float(y)), [0, 1, 4, 16, 64]))
    assert res.value == pytest.approx(oracle, rel=1e-7)


def test_per_type_throughput_ordering_at_defaults():
    r1 = shannon_throughput_k(BOUNDED, UNIFORM3, 1).value
    r2 = shannon_throughput_k(BOUNDED, UNIFORM3, 2).value
    r3 = shannon_throughput_k(BOUNDED, UNIFORM3, 3).value
    assert r3 > r2 > r1
    j1 = shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, 1).value
    j2 = shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, 2).value
    j3 = shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, 3).value
    assert j1 > j2 > j3


def test_throughput_vanishing_interference_is_flagged():
    near_zero = NetworkParams(1e-80, 1.0, PathLossModel.bounded(4.0, 1.0))
    res = shannon_throughput_k(near_zero, UNIFORM3, 1)
    assert res.truncated
    assert math.isinf(res.tail_bound)
    assert res.value > 100.0  # lower bound on a diverging integral


def test_overall_throughput_degenerate_and_bounds():
    all3 = BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0)
    assert shannon_throughput_overall(BOUNDED, all3).value == pytest.approx(
        shannon_throughput_k(BOUNDED, all3, 3).value, rel=1e-12
    )
    per_type = [shannon_throughput_k(BOUNDED, UNIFORM3, k).value for k in (1, 2, 3)]
    overall = shannon_throughput_overall(BOUNDED, UNIFORM3).value
    assert min(per_type) <= overall <= max(per_type)
    per_j = [shannon_throughput_per_joule_k(BOUNDED, UNIFORM3, k).value for k in (1, 2, 3)]
    overall_j = shannon_throughput_per_joule_overall(BOUNDED, UNIFORM3).value
    assert min(per_j) <= overall_j <= max(per_j)


@pytest.mark.parametrize("net", [BOUNDED, POWER_LAW], ids=["bounded", "power_law"])
def test_overall_throughput_is_mix_average_of_views(net):
    ba = BandwidthConfig(4, (0.5, 0.0, 0.2, 0.3), power_per_chunk=3.0)
    for overall, view in (
        (shannon_throughput_overall, shannon_throughput_k),
        (shannon_throughput_per_joule_overall, shannon_throughput_per_joule_k),
    ):
        res = overall(net, ba)
        parts = {k: view(net, ba, k) for k in (1, 3, 4)}
        expected = math.fsum(ba.type_probs[k - 1] * r.value for k, r in parts.items())
        tail = math.fsum(ba.type_probs[k - 1] * r.tail_bound for k, r in parts.items())
        assert res.value == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert res.tail_bound == pytest.approx(tail, rel=1e-15, abs=0.0)
        assert res.y_max == max(r.y_max for r in parts.values())
        assert res.truncated == any(r.truncated for r in parts.values())


def test_overall_throughput_crossover_power_law():
    # full-band-only mix wins in sparse networks, loses in dense ones
    all3 = BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0)
    pl = PathLossModel.power_law(4.0)
    sparse = NetworkParams(0.01, 1.0, pl)
    dense = NetworkParams(1.0, 1.0, pl)
    assert (
        shannon_throughput_overall(sparse, all3).value
        > shannon_throughput_overall(sparse, UNIFORM3).value
    )
    assert (
        shannon_throughput_overall(dense, all3).value
        < shannon_throughput_overall(dense, UNIFORM3).value
    )
