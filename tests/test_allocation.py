"""Chunk-combinatorics tests.

The oracle here is exhaustive enumeration of all chunk-set pairs, kept
deliberately independent of the closed forms it checks.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bwalloc.allocation import (
    _PASCAL,
    _TABLE_BUCKETS,
    OverlapPmf,
    _inverse_cdf,
    _overlap_counts,
    _overlap_law,
    _type_law,
    overlap_pmf,
    overlap_pmf_contiguous,
    overlap_pmf_random,
    sample_type,
    window_overlap_table,
)
from bwalloc.errors import ConfigError, DomainError
from bwalloc.params import MAX_CHUNKS, AllocationMode, BandwidthConfig

from reference_sampler import sample_chunk_set


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


def test_overlap_pmf_rejects_bad_masses():
    with pytest.raises(DomainError, match="equal length"):
        OverlapPmf(3, 1, 1, (0, 1), (Fraction(1),))
    with pytest.raises(DomainError, match="nonnegative"):
        OverlapPmf(3, 1, 1, (0, 1), (Fraction(3, 2), Fraction(-1, 2)))


def test_window_overlap_row_mean_collapses_mix():
    config = BandwidthConfig.uniform(3)
    q = window_overlap_table(config, 2).mean(axis=0)
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


@pytest.mark.parametrize("k", [1, 17, 32, 64])
def test_window_overlap_table_widest_band(k):
    # comb(64, 32) exceeds 2**53, so the counts are rounded on their way to
    # floats; the table must still match the exact sum of the per-pair laws
    types = range(1, MAX_CHUNKS + 1, 4)
    probs = np.zeros(MAX_CHUNKS)
    probs[np.array(types) - 1] = np.random.default_rng(12).dirichlet(np.ones(len(types)))
    config = BandwidthConfig(MAX_CHUNKS, tuple(probs))
    exact = [Fraction(0)] * (k + 1)
    for i in types:
        for t, mass in overlap_pmf_random(MAX_CHUNKS, k, i).items():
            exact[t] += Fraction(config.type_probs[i - 1]) * mass
    table = window_overlap_table(config, k)
    assert table.shape == (1, k + 1)
    np.testing.assert_allclose(table[0], [float(e) for e in exact], rtol=0, atol=1e-15)


def test_pascal_table_is_exact():
    assert _PASCAL.dtype == np.int64
    assert int(_PASCAL[64, 32]) == math.comb(64, 32)


@pytest.mark.parametrize("n", range(1, 9))
def test_random_overlap_counts_enumerate_chunk_subsets(n):
    for k in range(1, n + 1):
        counts, totals = _overlap_counts(n, k, range(1, n + 1), AllocationMode.RANDOM)
        assert counts.shape == (n, 1, k + 1)
        typical = set(range(k))
        for i in range(1, n + 1):
            found = Counter(len(typical & set(c)) for c in combinations(range(n), i))
            assert totals[i - 1] == sum(found.values())
            assert counts[i - 1, 0].tolist() == [found[t] for t in range(k + 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_contiguous_overlap_counts_enumerate_window_pairs(n):
    for k in range(1, n + 1):
        counts, totals = _overlap_counts(n, k, range(1, n + 1), AllocationMode.CONTIGUOUS)
        assert counts.shape == (n, n - k + 1, k + 1)
        for i in range(1, n + 1):
            expected = np.zeros((n - k + 1, k + 1), dtype=np.int64)
            for s in range(n - k + 1):
                for u in range(n - i + 1):
                    expected[s, len(set(range(s, s + k)) & set(range(u, u + i)))] += 1
            assert totals[i - 1] == n - i + 1
            np.testing.assert_array_equal(counts[i - 1], expected)


def _per_type_table(config: BandwidthConfig, k: int) -> np.ndarray:
    """window_overlap_table accumulated one interferer type at a time, from
    math.comb in random mode and from the window intersections in
    contiguous mode."""
    n, table = config.n_chunks, 0.0
    for i, p_i in enumerate(config.type_probs, start=1):
        if p_i > 0.0:
            if config.mode is AllocationMode.RANDOM:
                counts, total = np.zeros((1, k + 1), dtype=np.int64), math.comb(n, i)
                for t in range(min(k, i) + 1):
                    counts[0, t] = math.comb(k, t) * math.comb(n - k, i - t)
            else:
                s, u = np.arange(n - k + 1)[:, None], np.arange(n - i + 1)
                shared = np.maximum(0, np.minimum(s + k, u + i) - np.maximum(s, u))
                counts, total = (shared[:, :, None] == np.arange(k + 1)).sum(axis=1), n - i + 1
            table += counts * (p_i / total)
    return table


@pytest.mark.parametrize("mode", [AllocationMode.RANDOM, AllocationMode.CONTIGUOUS])
def test_window_overlap_table_is_the_per_type_accumulation(mode):
    # a 16-type mix over the widest band, one type drawn from each block of
    # 4 consecutive types; the table must equal the per-type sum bit for bit
    rng = np.random.default_rng(0)
    probs = np.zeros(MAX_CHUNKS)
    probs[[4 * j + int(rng.integers(4)) for j in range(16)]] = rng.dirichlet(np.ones(16))
    config = BandwidthConfig(MAX_CHUNKS, tuple(float(p) for p in probs), mode)
    for k in range(1, MAX_CHUNKS + 1):
        table, expected = window_overlap_table(config, k), _per_type_table(config, k)
        assert table.shape == expected.shape and table.tobytes() == expected.tobytes(), k


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


class _FixedUniforms:
    """Stands in for a generator whose ``random`` always returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_sample_type_skips_trailing_zero_mass_types_near_one():
    # the mix sums to 1 - 1e-13, inside PROB_TOL; a uniform just below 1
    # lies past the cumulative sum but must still draw a positive-mass type
    config = BandwidthConfig(3, (0.5, 0.5 - 1e-13, 0.0))
    rng = _FixedUniforms(1.0 - 1e-14)
    assert sample_type(config, rng) == 2
    assert sample_type(config, rng, 4).tolist() == [2, 2, 2, 2]
    assert sample_type(config, _FixedUniforms(0.25)) == 1


def test_sample_type_chisquare_uniform():
    rng = np.random.default_rng(42)
    config = BandwidthConfig.uniform(3)
    counts = Counter(sample_type(config, rng) for _ in range(100_000))
    res = stats.chisquare([counts[1], counts[2], counts[3]])
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# bucket tables of the samplers' inverse CDFs


def _mix64_with_zeros() -> BandwidthConfig:
    weights = np.arange(1, 65, dtype=float)
    weights[::3] = 0.0
    return BandwidthConfig(64, tuple(weights / weights.sum()))


_TYPE_MIXES = {
    **{f"uniform{n}": BandwidthConfig.uniform(n) for n in (1, 3, 10, 64)},
    "mix64_with_zeros": _mix64_with_zeros(),
    "prob_tol": BandwidthConfig(3, (0.5, 0.5 - 1e-13, 0.0)),
}


def _assert_table_exact(cdf: np.ndarray, table: np.ndarray) -> None:
    # searchsorted is monotone in u, so agreeing at both ends of a bucket
    # covers every double in it
    m = _TABLE_BUCKETS
    assert table.shape == (m,) and table.dtype == np.int8
    lo = np.arange(m) / m
    hi = np.nextafter(np.arange(1, m + 1) / m, 0.0)
    searched = table >= 0
    for end in (lo, hi):
        np.testing.assert_array_equal(
            np.searchsorted(cdf, end[searched], side="right"), table[searched]
        )
    # every -1 bucket holds a CDF value strictly inside it
    assert np.count_nonzero(~searched) <= cdf.size
    for j in np.flatnonzero(~searched):
        assert np.any((cdf > lo[j]) & (cdf <= hi[j])), j


@pytest.mark.parametrize("name", sorted(_TYPE_MIXES))
def test_type_bucket_table_is_exact(name):
    config = _TYPE_MIXES[name]
    _assert_table_exact(*_type_law(config))


@pytest.mark.parametrize("n", range(1, 11))
def test_overlap_bucket_tables_are_exact(n):
    for k in range(1, n + 1):
        cdf, table = _overlap_law(n, k)
        assert table.shape == (n, _TABLE_BUCKETS)
        for i in range(n):
            _assert_table_exact(cdf[i], table[i])


def test_bucket_fallback_draws_match_the_search():
    # uniforms at and just below every CDF value inside (0, 1) fall into
    # the -1 buckets, so each of them is searched
    config = BandwidthConfig.uniform(3)
    cdf, table = _type_law(config)
    u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
    assert np.all(table[(u * _TABLE_BUCKETS).astype(np.intp)] == -1)
    np.testing.assert_array_equal(
        sample_type(config, _FixedUniforms(u), u.shape), np.searchsorted(cdf, u, "right") + 1
    )
    # the same for the overlap rows, one per interferer type
    cdf, table = _overlap_law(10, 4)
    row, col = np.nonzero((cdf > 0.0) & (cdf < 1.0))
    row, u = np.tile(row, 2), np.concatenate([cdf[row, col], np.nextafter(cdf[row, col], 0.0)])
    assert np.any(table[row, (u * _TABLE_BUCKETS).astype(np.intp)] == -1)
    expected = [np.searchsorted(cdf[r], v, "right") for r, v in zip(row, u)]
    np.testing.assert_array_equal(_inverse_cdf(cdf, table, u, row), expected)


def test_sample_type_block_matches_the_search():
    config = _TYPE_MIXES["mix64_with_zeros"]
    types = sample_type(config, np.random.default_rng(3), (50, 40))
    u = np.random.default_rng(3).random((50, 40))
    assert types.shape == (50, 40) and types.dtype == np.int64
    np.testing.assert_array_equal(types, np.searchsorted(_type_law(config)[0], u, "right") + 1)


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
