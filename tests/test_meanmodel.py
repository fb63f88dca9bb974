"""Mean-power calibration tests.

The pinned intensity ratio below was derived by evaluating the matching
formulas in exact rational arithmetic (see test_matched_intensity_pinned).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwalloc.allocation import overlap_pmf, overlap_pmf_contiguous, overlap_pmf_random
from bwalloc.errors import ConfigError, DomainError
from bwalloc.meanmodel import (
    match_mean_model,
    matched_intensity,
    matched_power,
    mean_interference_k,
    mean_interference_overall,
    mean_signal,
    msmir_k,
)
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel

BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
POWER_LAW = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)
ALT_PROBS = (0.3, 0.0, 0.7)


def test_mean_signal_hand_value():
    ba = BandwidthConfig(3, (1.0, 0.0, 0.0), power_per_chunk=2.0)
    # P = 2, l(R) = 1/2, mean type 1
    assert mean_signal(BOUNDED, ba) == pytest.approx(1.0, rel=1e-12)


def test_mean_signal_linear_in_power():
    double = BandwidthConfig(3, UNIFORM3.type_probs, power_per_chunk=4.0)
    assert mean_signal(BOUNDED, double) == pytest.approx(2 * mean_signal(BOUNDED, UNIFORM3))


def test_mean_signal_uniform_mean_type():
    # mean type of the uniform mix over 3 is 2
    assert mean_signal(BOUNDED, UNIFORM3) == pytest.approx(2 * 2.0 * 0.5, rel=1e-12)


def test_matched_power_identity():
    assert matched_power(UNIFORM3, UNIFORM3.type_probs) == pytest.approx(2.0, rel=1e-15)


def test_matched_power_hand_value():
    # mean types 2 and 2.4 give P' = 5P/6
    assert matched_power(UNIFORM3, ALT_PROBS) == pytest.approx(2.0 * 5 / 6, rel=1e-12)


def test_matched_power_preserves_mean_signal():
    p_alt = matched_power(UNIFORM3, ALT_PROBS)
    alt = BandwidthConfig(3, ALT_PROBS, power_per_chunk=p_alt)
    assert mean_signal(BOUNDED, alt) == pytest.approx(mean_signal(BOUNDED, UNIFORM3), rel=1e-12)


def test_mean_interference_scales_linearly_with_type():
    # random allocation: mix-averaged mean overlap is proportional to k
    i1 = mean_interference_k(BOUNDED, UNIFORM3, 1)
    for k in (2, 3):
        assert mean_interference_k(BOUNDED, UNIFORM3, k) == pytest.approx(k * i1, rel=1e-12)


def test_mean_interference_single_interferer_type():
    # only type-1 interferers: mean overlap with a type-k user is k/n
    ba = BandwidthConfig(3, (1.0, 0.0, 0.0), power_per_chunk=2.0)
    delta = 0.5
    prefactor = 0.2 * math.pi * delta * 1.0 ** (delta - 1) * math.gamma(delta) * math.gamma(1 - delta)
    for k in (1, 2, 3):
        expected = prefactor * 2.0 * (k / 3)
        assert mean_interference_k(BOUNDED, ba, k) == pytest.approx(expected, rel=1e-12)


def test_mean_interference_linear_in_intensity():
    double = NetworkParams(0.4, 1.0, PathLossModel.bounded(4.0, 1.0))
    assert mean_interference_k(double, UNIFORM3, 2) == pytest.approx(
        2 * mean_interference_k(BOUNDED, UNIFORM3, 2), rel=1e-12
    )


def test_mean_interference_rejects_power_law():
    with pytest.raises(DomainError):
        mean_interference_k(POWER_LAW, UNIFORM3, 1)
    with pytest.raises(DomainError):
        mean_interference_overall(POWER_LAW, UNIFORM3)


def test_mean_interference_overall_closed_form_random_mode():
    # random mode: overall mean is prefactor * P * (sum_k k p_k)(sum_i i p_i)/n
    delta = 0.5
    prefactor = 0.2 * math.pi * delta * math.gamma(delta) * math.gamma(1 - delta)
    expected = prefactor * 2.0 * (2.0 * 2.0 / 3.0)
    assert mean_interference_overall(BOUNDED, UNIFORM3) == pytest.approx(expected, rel=1e-12)


def test_mean_interference_overall_degenerate_mix():
    ba = BandwidthConfig(3, (0.0, 1.0, 0.0), power_per_chunk=2.0)
    assert mean_interference_overall(BOUNDED, ba) == pytest.approx(
        mean_interference_k(BOUNDED, ba, 2), rel=1e-15
    )


def test_matched_intensity_identity():
    lam = matched_intensity(BOUNDED, UNIFORM3, UNIFORM3.type_probs, 2.0)
    assert lam == pytest.approx(0.2, rel=1e-15)


def test_matched_intensity_pinned():
    """Exact-rational evaluation of the matching ratio for the headline pair.

    Base: uniform over 3 with P = 2. Alt: (3/10, 0, 7/10).
    Double sum S(q) = sum_k q_k sum_i q_i (i k / 3): S(p) = 4/3, S(p') = 48/25.
    P' = 5/6 P, so lambda' = lambda * (4/3) / ((5/6)(48/25)) = (5/6) lambda.
    """
    s_base = Fraction(0)
    s_alt = Fraction(0)
    alt = (Fraction(3, 10), Fraction(0), Fraction(7, 10))
    uni = (Fraction(1, 3),) * 3
    for k in (1, 2, 3):
        for i in (1, 2, 3):
            m = overlap_pmf_random(3, k, i).mean()
            s_base += uni[k - 1] * uni[i - 1] * m
            s_alt += alt[k - 1] * alt[i - 1] * m
    assert s_base == Fraction(4, 3)
    assert s_alt == Fraction(48, 25)
    p_alt = Fraction(2) * Fraction(2) / Fraction(12, 5)
    lam_expected = Fraction(1, 5) * Fraction(2) * s_base / (p_alt * s_alt)
    assert lam_expected == Fraction(1, 6)

    got = matched_intensity(BOUNDED, UNIFORM3, ALT_PROBS, matched_power(UNIFORM3, ALT_PROBS))
    assert got == pytest.approx(float(lam_expected), rel=1e-12)


def test_matched_intensity_preserves_mean_interference():
    matched = match_mean_model(BOUNDED, UNIFORM3, ALT_PROBS)
    base = mean_interference_overall(BOUNDED, UNIFORM3)
    alt = mean_interference_overall(matched.network, matched.bandwidth)
    assert abs(alt - base) / base < 1e-12
    base_s = mean_signal(BOUNDED, UNIFORM3)
    alt_s = mean_signal(matched.network, matched.bandwidth)
    assert abs(alt_s - base_s) / base_s < 1e-12


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    alt_weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    mode=st.sampled_from([AllocationMode.RANDOM, AllocationMode.CONTIGUOUS]),
)
@settings(max_examples=50, deadline=None)
def test_matching_round_trip_property(weights, alt_weights, mode):
    probs = tuple(w / math.fsum(weights) for w in weights)
    alt_probs = tuple(w / math.fsum(alt_weights) for w in alt_weights)
    base_ba = BandwidthConfig(3, probs, mode=mode, power_per_chunk=2.0)
    matched = match_mean_model(BOUNDED, base_ba, alt_probs)
    s0, s1 = mean_signal(BOUNDED, base_ba), mean_signal(matched.network, matched.bandwidth)
    i0 = mean_interference_overall(BOUNDED, base_ba)
    i1 = mean_interference_overall(matched.network, matched.bandwidth)
    assert abs(s1 - s0) / s0 < 1e-12
    assert abs(i1 - i0) / i0 < 1e-12


def test_msmir_type_independent_random_mode():
    vals = [msmir_k(BOUNDED, UNIFORM3, k) for k in (1, 2, 3)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(vals[0], rel=1e-12)


def test_msmir_independent_of_power():
    other = BandwidthConfig(3, UNIFORM3.type_probs, power_per_chunk=7.0)
    assert msmir_k(BOUNDED, other, 2) == pytest.approx(msmir_k(BOUNDED, UNIFORM3, 2), rel=1e-12)


def test_msmir_contiguous_reported_not_equal():
    ba = BandwidthConfig.uniform(3, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    vals = [msmir_k(BOUNDED, ba, k) for k in (1, 2, 3)]
    # near-equal but not exactly equal: windows bias the overlap mean
    assert all(v > 0 for v in vals)
    assert max(vals) / min(vals) < 1.25
    oracle = [
        k
        * 0.5
        / (
            0.2 * math.pi * 0.5 * math.gamma(0.5) * math.gamma(0.5)
            * sum(float(overlap_pmf(ba, k, i).mean()) / 3 for i in (1, 2, 3))
        )
        for k in (1, 2, 3)
    ]
    for got, exp in zip(vals, oracle):
        assert got == pytest.approx(exp, rel=1e-12)



@pytest.mark.parametrize("n", [3, 10])
def test_contiguous_mix_sums_match_exact_oracle(n):
    """Overall mean interference and the matched intensity in contiguous
    mode, against S(q) = sum_k q_k sum_i q_i E[overlap | k, i] evaluated in
    exact rationals from the per-pair laws."""
    ba = BandwidthConfig.uniform(n, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    alt_probs = (0.3,) + (0.0,) * (n - 2) + (0.7,)
    uni = [Fraction(1, n)] * n
    alt = [Fraction(3, 10)] + [Fraction(0)] * (n - 2) + [Fraction(7, 10)]

    def mix_sum(q):
        return sum(
            q[k - 1] * q[i - 1] * overlap_pmf_contiguous(n, k, i).mean()
            for k in range(1, n + 1)
            for i in range(1, n + 1)
        )

    campbell = 0.2 * math.pi * 0.5 * math.gamma(0.5) ** 2
    got = mean_interference_overall(BOUNDED, ba)
    assert got == pytest.approx(campbell * 2.0 * float(mix_sum(uni)), rel=1e-13)
    expected = Fraction(1, 5) * 2 * mix_sum(uni) / (Fraction(3, 2) * mix_sum(alt))
    got = matched_intensity(BOUNDED, ba, alt_probs, 1.5)
    assert got == pytest.approx(float(expected), rel=1e-13)

def test_alt_mix_validation():
    with pytest.raises(DomainError):
        matched_power(UNIFORM3, (0.5, 0.5))
    with pytest.raises(ConfigError):
        matched_power(UNIFORM3, (0.5, 0.2, 0.1))
    with pytest.raises(DomainError):
        matched_intensity(BOUNDED, UNIFORM3, ALT_PROBS, 0.0)
