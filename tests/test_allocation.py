"""Chunk-combinatorics tests.

The oracle here is exhaustive enumeration of all chunk-set pairs, kept
deliberately independent of the closed forms it checks.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bwalloc.allocation import (
    OverlapPmf,
    overlap_pmf,
    overlap_pmf_contiguous,
    overlap_pmf_random,
    sample_chunk_set,
    sample_type,
    type_averaged_overlap,
    window_overlap_table,
)
from bwalloc.errors import ConfigError, DomainError
from bwalloc.params import AllocationMode, BandwidthConfig


# ---------------------------------------------------------------------------
# enumeration oracles


def enumerate_random(n, k, i):
    counts = Counter()
    for a in combinations(range(n), k):
        sa = set(a)
        for b in combinations(range(n), i):
            counts[len(sa & set(b))] += 1
    total = sum(counts.values())
    return {t: Fraction(c, total) for t, c in counts.items()}


def enumerate_contiguous(n, k, i):
    counts = Counter()
    for a in range(n - k + 1):
        sa = set(range(a, a + k))
        for b in range(n - i + 1):
            counts[len(sa & set(range(b, b + i)))] += 1
    total = sum(counts.values())
    return {t: Fraction(c, total) for t, c in counts.items()}


def _types_up_to(n_max):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                yield n, k, i


# ---------------------------------------------------------------------------
# closed form vs enumeration (exact rational equality)


@pytest.mark.parametrize("n", range(1, 9))
def test_random_pmf_matches_enumeration(n):
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            pmf = overlap_pmf_random(n, k, i)
            assert dict(pmf.items()) == enumerate_random(n, k, i)


@pytest.mark.parametrize("n", range(1, 9))
def test_contiguous_pmf_matches_enumeration(n):
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            pmf = overlap_pmf_contiguous(n, k, i)
            assert dict(pmf.items()) == enumerate_contiguous(n, k, i)


def test_random_examples():
    assert overlap_pmf_random(3, 3, 2).as_floats() == {2: 1.0}
    pmf = overlap_pmf_random(3, 2, 2)
    assert pmf.mass(1) == Fraction(2, 3) and pmf.mass(2) == Fraction(1, 3)
    pmf = overlap_pmf_random(4, 2, 2)
    assert dict(pmf.items()) == {0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(1, 6)}


def test_contiguous_examples():
    pmf = overlap_pmf_contiguous(3, 2, 2)
    assert dict(pmf.items()) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    pmf = overlap_pmf_contiguous(4, 2, 2)
    assert dict(pmf.items()) == {0: Fraction(2, 9), 1: Fraction(4, 9), 2: Fraction(1, 3)}
    assert overlap_pmf_contiguous(5, 5, 3).as_floats() == {3: 1.0}


def test_mean_overlap_hypergeometric():
    # random-mode mean is i*k/n, exactly, for every shape
    for n, k, i in _types_up_to(8):
        assert overlap_pmf_random(n, k, i).mean() == Fraction(i * k, n)


def test_mean_overlap_point_mass():
    pmf = OverlapPmf(3, 3, 2, (2,), (Fraction(1),))
    assert pmf.mean() == 2


def test_symmetry_in_types():
    for n, k, i in _types_up_to(8):
        assert dict(overlap_pmf_random(n, k, i).items()) == dict(
            overlap_pmf_random(n, i, k).items()
        )
        assert dict(overlap_pmf_contiguous(n, k, i).items()) == dict(
            overlap_pmf_contiguous(n, i, k).items()
        )


@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=n),
            st.integers(min_value=1, max_value=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_pmf_properties_any_size(nki):
    n, k, i = nki
    for pmf in (overlap_pmf_random(n, k, i), overlap_pmf_contiguous(n, k, i)):
        assert sum(pmf.probs) == 1
        assert all(p > 0 for p in pmf.probs)
        assert pmf.support[0] == max(0, k + i - n)
        assert pmf.support[-1] == min(k, i)
    assert overlap_pmf_random(n, k, i).mean() == Fraction(i * k, n)


def test_domain_errors():
    with pytest.raises(DomainError):
        overlap_pmf_random(3, 0, 1)
    with pytest.raises(DomainError):
        overlap_pmf_random(3, 1, 4)
    with pytest.raises(DomainError):
        overlap_pmf_contiguous(3, -1, 2)
    with pytest.raises(DomainError):
        overlap_pmf_random(65, 1, 1)  # beyond the exact-arithmetic cap
    with pytest.raises(DomainError):
        overlap_pmf_random(3, 1.5, 1)


def test_overlap_pmf_rejects_bad_support():
    with pytest.raises(DomainError):
        OverlapPmf(3, 2, 2, (0, 1, 2), (Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(DomainError):
        OverlapPmf(3, 2, 2, (1, 2), (Fraction(3, 4), Fraction(3, 4)))


def test_type_averaged_overlap_collapses_mix():
    config = BandwidthConfig.uniform(3)
    q = type_averaged_overlap(config, 2)
    expected = np.zeros(3)
    for i in (1, 2, 3):
        for t, m in overlap_pmf_random(3, 2, i).items():
            expected[t] += float(m) / 3
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_window_overlap_table_rows_are_conditional_laws():
    # contiguous mode: row s is the overlap law against a typical window
    # starting at s, enumerated over the interferer's windows
    n, k = 6, 2
    config = BandwidthConfig(n, (0.1, 0.2, 0.0, 0.3, 0.0, 0.4), AllocationMode.CONTIGUOUS)
    table = window_overlap_table(config, k)
    assert table.shape == (n - k + 1, k + 1)
    for s in range(n - k + 1):
        typical = set(range(s, s + k))
        expected = np.zeros(k + 1)
        for i, p_i in enumerate(config.type_probs, start=1):
            for b in range(n - i + 1):
                expected[len(typical & set(range(b, b + i)))] += p_i / (n - i + 1)
        np.testing.assert_allclose(table[s], expected, rtol=0, atol=1e-15)
    assert not table.flags.writeable


@pytest.mark.parametrize("mode", [AllocationMode.RANDOM, AllocationMode.CONTIGUOUS])
def test_window_overlap_table_averages_to_marginal(mode):
    config = BandwidthConfig(5, (0.1, 0.3, 0.2, 0.0, 0.4), mode)
    for k in range(1, 6):
        table = window_overlap_table(config, k)
        assert table.shape[0] == (1 if mode is AllocationMode.RANDOM else 6 - k)
        # reference from the exact per-pair laws, not from the table
        marginal = np.zeros(k + 1)
        for i, p_i in enumerate(config.type_probs, start=1):
            for t, mass in overlap_pmf(config, k, i).items():
                marginal[t] += p_i * float(mass)
        np.testing.assert_allclose(table.mean(axis=0), marginal, rtol=0, atol=1e-15)


def test_window_overlap_table_domain_errors():
    config = BandwidthConfig.uniform(3, mode=AllocationMode.CONTIGUOUS)
    with pytest.raises(DomainError):
        window_overlap_table(config, 4)
    with pytest.raises(DomainError):
        window_overlap_table(config, 0)


# ---------------------------------------------------------------------------
# samplers


def test_sample_chunk_set_single_window():
    config = BandwidthConfig.uniform(3, mode=AllocationMode.CONTIGUOUS)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_chunk_set(config, 3, rng) == (1, 2, 3)


def test_sample_chunk_set_random_uniform_over_subsets():
    config = BandwidthConfig.uniform(3)
    rng = np.random.default_rng(1234)
    counts = Counter(sample_chunk_set(config, 2, rng) for _ in range(100_000))
    assert set(counts) == {(1, 2), (1, 3), (2, 3)}
    res = stats.chisquare(list(counts.values()))
    assert res.pvalue > 0.01


def test_sample_chunk_set_contiguous_uniform_over_windows():
    config = BandwidthConfig.uniform(5, mode=AllocationMode.CONTIGUOUS)
    rng = np.random.default_rng(99)
    counts = Counter(sample_chunk_set(config, 2, rng) for _ in range(100_000))
    assert set(counts) == {(1, 2), (2, 3), (3, 4), (4, 5)}
    res = stats.chisquare(list(counts.values()))
    assert res.pvalue > 0.01


def test_sample_type_degenerate():
    rng = np.random.default_rng(7)
    config = BandwidthConfig(3, (1.0, 0.0, 0.0))
    assert all(sample_type(config, rng) == 1 for _ in range(100))


def test_sample_type_never_returns_zero_mass_type():
    rng = np.random.default_rng(8)
    config = BandwidthConfig(3, (0.3, 0.0, 0.7))
    draws = [sample_type(config, rng) for _ in range(20_000)]
    assert 2 not in draws
    assert set(draws) == {1, 3}


def test_sample_type_chisquare_uniform():
    rng = np.random.default_rng(42)
    config = BandwidthConfig.uniform(3)
    counts = Counter(sample_type(config, rng) for _ in range(100_000))
    res = stats.chisquare([counts[1], counts[2], counts[3]])
    assert res.pvalue > 0.01


@pytest.mark.parametrize("mode", [AllocationMode.RANDOM, AllocationMode.CONTIGUOUS])
def test_empirical_overlap_matches_pmf(mode):
    # overlap histogram from paired chunk-set draws vs the closed form
    config = BandwidthConfig.uniform(4, mode=mode)
    rng = np.random.default_rng(2024)
    k, i = 2, 3
    pmf = overlap_pmf(config, k, i)
    n_draws = 100_000
    counts = Counter()
    for _ in range(n_draws):
        a = set(sample_chunk_set(config, k, rng))
        b = set(sample_chunk_set(config, i, rng))
        counts[len(a & b)] += 1
    observed = [counts.get(t, 0) for t, _ in pmf.items()]
    expected = [float(m) * n_draws for _, m in pmf.items()]
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.01


def test_sampler_domain_errors():
    config = BandwidthConfig.uniform(3)
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_chunk_set(config, 0, rng)
    with pytest.raises(DomainError):
        sample_chunk_set(config, 4, rng)


def test_bandwidth_config_validation():
    with pytest.raises(ConfigError):
        BandwidthConfig(3, (0.5, 0.5))
    with pytest.raises(ConfigError):
        BandwidthConfig(3, (0.5, 0.6, 0.1))
    with pytest.raises(ConfigError):
        BandwidthConfig(3, (0.5, -0.1, 0.6))
    with pytest.raises(ConfigError):
        BandwidthConfig(0, ())
    with pytest.raises(ConfigError):
        BandwidthConfig(3, (1 / 3, 1 / 3, 1 / 3), power_per_chunk=0.0)
    with pytest.raises(ConfigError):
        BandwidthConfig(3, (1 / 3, 1 / 3, 1 / 3), mode="diagonal")
