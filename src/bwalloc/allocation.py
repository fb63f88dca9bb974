"""Chunk-selection combinatorics.

Closed-form distributions of the number of chunks shared between the typical
user (type k) and an interferer (type i), for both allocation modes, plus the
samplers the Monte Carlo engine builds on. The per-pair masses are exact
rationals, so their normalization and means are checked without drift. The
law against an interferer of random type is collapsed once per (mix, k) into
a cached float table, ``window_overlap_table``, which every closed form
reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import MAX_CHUNKS, AllocationMode, BandwidthConfig

_SUM_TOL = Fraction(1, 10**12)


def _check_type(n_chunks: int, value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not 1 <= value <= n_chunks:
        raise DomainError(f"{name} must be in [1, {n_chunks}], got {value}")
    return value


def _check_n_chunks(n_chunks: int) -> int:
    if isinstance(n_chunks, bool) or not isinstance(n_chunks, (int, np.integer)):
        raise DomainError(f"n_chunks must be an integer, got {n_chunks!r}")
    n_chunks = int(n_chunks)
    if not 1 <= n_chunks <= MAX_CHUNKS:
        raise DomainError(f"n_chunks must be in [1, {MAX_CHUNKS}], got {n_chunks}")
    return n_chunks


@dataclass(frozen=True)
class OverlapPmf:
    """Distribution of the shared-chunk count between two users.

    ``support`` runs exactly from max(0, k + i - n) to min(k, i), where k is
    the typical user's type and i the interferer's; every t in between gets
    positive mass in both allocation modes.
    """

    n_chunks: int
    typical_type: int
    interferer_type: int
    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        k, i, n = self.typical_type, self.interferer_type, self.n_chunks
        lo, hi = max(0, k + i - n), min(k, i)
        if self.support != tuple(range(lo, hi + 1)):
            raise DomainError(
                f"support must be {lo}..{hi} for (n={n}, k={k}, i={i}), got {self.support}"
            )
        if len(self.probs) != len(self.support):
            raise DomainError("probs and support must have equal length")
        probs = tuple(Fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p < 0 for p in probs):
            raise DomainError("overlap masses must be nonnegative")
        if abs(sum(probs) - 1) > _SUM_TOL:
            raise DomainError(f"overlap masses must sum to 1, got {float(sum(probs))!r}")

    def items(self):
        return zip(self.support, self.probs)

    def mass(self, t: int) -> Fraction:
        if t in self.support:
            return self.probs[t - self.support[0]]
        return Fraction(0)

    def mean(self) -> Fraction:
        return sum((t * p for t, p in self.items()), Fraction(0))

    def as_floats(self) -> dict[int, float]:
        return {t: float(p) for t, p in self.items()}


@lru_cache(maxsize=None)
def _random_overlap(n: int, k: int, i: int) -> OverlapPmf:
    lo, hi = max(0, k + i - n), min(k, i)
    denom = math.comb(n, i)
    probs = tuple(
        Fraction(math.comb(k, t) * math.comb(n - k, i - t), denom)
        for t in range(lo, hi + 1)
    )
    return OverlapPmf(n, k, i, tuple(range(lo, hi + 1)), probs)


def _contiguous_mass(n: int, k: int, i: int, t: int) -> Fraction:
    # Window-count ratios; the t = 0 and t = min(k, i) boundary cases have
    # their own counts and must not fall through to the interior formula.
    if t == k and k <= i:
        return Fraction(i - k + 1, n - k + 1)
    if t == i and k > i:
        return Fraction(k - i + 1, n - i + 1)
    if t == 0:
        if n >= k + i:
            return Fraction((n - k - i + 1) * (n - k - i + 2), (n - k + 1) * (n - i + 1))
        return Fraction(0)
    if n >= k + i - t:
        return Fraction(2 * (n + t - k - i + 1), (n - k + 1) * (n - i + 1))
    return Fraction(0)


@lru_cache(maxsize=None)
def _contiguous_overlap(n: int, k: int, i: int) -> OverlapPmf:
    lo, hi = max(0, k + i - n), min(k, i)
    support = []
    probs = []
    for t in range(lo, hi + 1):
        mass = _contiguous_mass(n, k, i, t)
        if mass == 0:
            continue
        support.append(t)
        probs.append(mass)
    return OverlapPmf(n, k, i, tuple(support), tuple(probs))


def overlap_pmf_random(n_chunks: int, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution when both users draw arbitrary subsets.

    This is the hypergeometric law: the typical user's k chunks are a fixed
    reference set and the interferer samples i chunks without replacement.
    """
    n_chunks = _check_n_chunks(n_chunks)
    k = _check_type(n_chunks, k, "k")
    i = _check_type(n_chunks, i, "i")
    return _random_overlap(n_chunks, k, i)


def overlap_pmf_contiguous(n_chunks: int, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution when both users draw consecutive windows.

    This is the marginal law, averaged over the typical user's window as
    well as the interferer's. It is exact for means (the mean overlap and
    everything linear in it, such as the mean interference). It is not exact
    inside a success probability: every interferer overlaps the same typical
    window, so their overlaps are dependent. ``window_overlap_table`` keeps
    the typical window as a condition.
    """
    n_chunks = _check_n_chunks(n_chunks)
    k = _check_type(n_chunks, k, "k")
    i = _check_type(n_chunks, i, "i")
    return _contiguous_overlap(n_chunks, k, i)


def overlap_pmf(config: BandwidthConfig, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution for the configured allocation mode."""
    if config.mode is AllocationMode.RANDOM:
        return overlap_pmf_random(config.n_chunks, k, i)
    return overlap_pmf_contiguous(config.n_chunks, k, i)


def type_averaged_overlap(config: BandwidthConfig, k: int) -> np.ndarray:
    """Overlap distribution against an interferer of random type.

    Entry t of the returned array is sum_i p_i * P(overlap = t | types k, i),
    for t = 0..k. This collapsed form is what the conditional-success product
    and the moment integrands consume.

    Like ``overlap_pmf``, it is averaged over the typical user's chunk set:
    it is the mean of the rows of ``window_overlap_table``. In random mode
    that average changes nothing. In contiguous mode it is exact for means
    but not for success probabilities, which average over the typical
    window outside the exponential.
    """
    return window_overlap_table(config, k).mean(axis=0)


def window_overlap_table(config: BandwidthConfig, k: int) -> np.ndarray:
    """Overlap law given the typical user's chunk set, one row per set.

    Row s, entry t is sum_i p_i * P(overlap = t | typical chunk set s,
    types k, i), for t = 0..k. Interferers draw their chunks independently
    given the typical set, so a success probability is a mean over the
    (equally likely) rows of a product over interferers.

    In contiguous mode the rows are the n - k + 1 window starts of the
    typical user. In random mode the hypergeometric law does not depend on
    which k chunks the typical user holds, so there is one row, equal to
    ``type_averaged_overlap``. The mean of the rows is the marginal law in
    both modes. The returned array is cached and read-only.
    """
    k = _check_type(config.n_chunks, k, "k")
    return _window_overlap_table(config, k)


@lru_cache(maxsize=None)
def _window_overlap_table(config: BandwidthConfig, k: int) -> np.ndarray:
    n = config.n_chunks
    contiguous = config.mode is AllocationMode.CONTIGUOUS
    starts = np.arange(n - k + 1 if contiguous else 1)[:, None]
    table = np.zeros((starts.size, k + 1))
    for i, p_i in enumerate(config.type_probs, start=1):
        if p_i == 0.0:
            continue
        if contiguous:
            # count, for each typical window start s, the interferer window
            # starts u giving each overlap t; every u is equally likely
            u = np.arange(n - i + 1)[None, :]
            t = np.maximum(0, np.minimum(starts + k, u + i) - np.maximum(starts, u))
            counts = np.bincount((starts * (k + 1) + t).ravel(), minlength=table.size)
            table += counts.reshape(table.shape) * (p_i / (n - i + 1))
        else:
            for t, mass in _random_overlap(n, k, i).items():
                table[0, t] += p_i * float(mass)
    table.flags.writeable = False
    return table


def sample_chunk_set(
    config: BandwidthConfig, k: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw the chunk set of a type-k user; 1-based sorted indices."""
    k = _check_type(config.n_chunks, k, "k")
    n = config.n_chunks
    if config.mode is AllocationMode.RANDOM:
        chosen = rng.choice(n, size=k, replace=False)
        return tuple(sorted(int(c) + 1 for c in chosen))
    start = int(rng.integers(0, n - k + 1))
    return tuple(range(start + 1, start + k + 1))


def sample_type(
    config: BandwidthConfig, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
) -> int | np.ndarray:
    """Draw user types from the configured mix (inverse CDF).

    ``size`` follows numpy's convention: ``None`` draws one type and returns
    an int, anything else returns an integer array of that shape. Either way
    each type consumes one ``rng.random`` double.
    """
    cum = np.cumsum(config.type_probs)
    idx = np.searchsorted(cum, rng.random(size), side="right")
    types = np.minimum(idx, config.n_chunks - 1) + 1
    return int(types) if size is None else types
