"""Chunk-selection combinatorics.

Closed-form distributions of the number of chunks shared between the typical
user (type k) and an interferer (type i), for both allocation modes, plus
every draw of the chunk model that the Monte Carlo engine makes: types,
window starts and shared-chunk counts, each from given uniforms. Each mode's
law is stated once, as integer counts of interferer chunk sets per typical
chunk set, for many interferer types in one array pass
(``_overlap_counts``). The rest reads those counts: the exact rational
pmfs, whose normalization and means are checked without drift; the law
against an interferer of random type, collapsed once per (mix, k) into the
cached float table ``window_overlap_table`` that every closed form reads;
and the cached random-mode pair law (``_overlap_law``) that the overlap
draw inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import MAX_CHUNKS, AllocationMode, BandwidthConfig, _check_int

_SUM_TOL = Fraction(1, 10**12)


def _check_type(n_chunks: int, value: int, name: str) -> int:
    """A user type, an integer in [1, n_chunks]."""
    return _check_int(value, name, 1, n_chunks, error=DomainError)


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


#: C(a, b) for a, b = 0..MAX_CHUNKS (0 for b > a), exact in int64: C(64, 32) < 2^63.
_PASCAL = np.array(
    [[math.comb(a, b) for b in range(MAX_CHUNKS + 1)] for a in range(MAX_CHUNKS + 1)], np.int64
)


def _overlap_counts(n: int, k: int, types, mode: AllocationMode) -> tuple[np.ndarray, np.ndarray]:
    """Integer counts of the overlap law between a type-k typical user and
    an interferer of each type in the integer array ``types``, all at once:
    entry (j, s, t) counts the chunk sets of type ``types[j]`` that share t
    chunks with typical chunk set s, out of ``totals[j]`` equally likely
    ones; the rows s are those of ``window_overlap_table``. Not cached: its
    repeated readers cache what they build from it.
    """
    i = np.asarray(types)[:, None, None]
    if mode is AllocationMode.CONTIGUOUS:
        # the type-i windows u = 0..n-i sharing >= t chunks with window s
        # are those with s + t - i <= u <= s + k - t, for 1 <= t <= min(k, i)
        # (all of them for t = 0, none for t > min(k, i)); the counts are
        # the differences in t. Every term is at most n + 1, so int16
        i = i.astype(np.int16)
        s, t = np.arange(n - k + 1, dtype=np.int16)[:, None], np.arange(k + 2, dtype=np.int16)
        totals = n + 1 - i
        at_least = np.minimum(s + (k + 1) - t, totals) - np.maximum(s + t - i, 0)
        at_least = np.where(t <= np.minimum(k, i), at_least, 0)
        at_least[..., 0] = totals[..., 0]
        counts = at_least[..., :-1] - at_least[..., 1:]
    else:
        # C(k, t) C(n - k, i - t); a negative i - t wraps to a column past
        # n - k, which holds 0
        t = np.arange(k + 1)
        counts, totals = _PASCAL[k, t] * _PASCAL[n - k, i - t], _PASCAL[n, i]
    return counts, totals.ravel()


def _overlap_pmf(n_chunks: int, k: int, i: int, mode: AllocationMode) -> OverlapPmf:
    n_chunks = _check_int(n_chunks, "n_chunks", 1, MAX_CHUNKS, error=DomainError)
    k = _check_type(n_chunks, k, "k")
    i = _check_type(n_chunks, i, "i")
    (counts,), (total,) = _overlap_counts(n_chunks, k, [i], mode)
    lo, hi = max(0, k + i - n_chunks), min(k, i)
    denom = counts.shape[0] * int(total)
    probs = tuple(Fraction(c, denom) for c in counts[:, lo : hi + 1].sum(axis=0).tolist())
    return OverlapPmf(n_chunks, k, i, tuple(range(lo, hi + 1)), probs)


def overlap_pmf_random(n_chunks: int, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution when both users draw arbitrary subsets.

    This is the hypergeometric law: the typical user's k chunks are a fixed
    reference set and the interferer samples i chunks without replacement.
    """
    return _overlap_pmf(n_chunks, k, i, AllocationMode.RANDOM)


def overlap_pmf_contiguous(n_chunks: int, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution when both users draw consecutive windows.

    This is the marginal law, averaged over the typical user's window as
    well as the interferer's. Every interferer overlaps the same typical
    window, so the closed forms read ``window_overlap_table``, which keeps
    that window as a condition.
    """
    return _overlap_pmf(n_chunks, k, i, AllocationMode.CONTIGUOUS)


def overlap_pmf(config: BandwidthConfig, k: int, i: int) -> OverlapPmf:
    """Shared-chunk distribution for the configured allocation mode."""
    return _overlap_pmf(config.n_chunks, k, i, config.mode)


def window_overlap_table(config: BandwidthConfig, k: int) -> np.ndarray:
    """Overlap law given the typical user's chunk set, one row per set.

    Row s, entry t is sum_i p_i * P(overlap = t | typical chunk set s,
    types k, i), for t = 0..k. Interferers draw their chunks independently
    given the typical set, so a success probability is a mean over the
    (equally likely) rows of a product over interferers.

    In contiguous mode the rows are the n - k + 1 window starts of the
    typical user. In random mode the hypergeometric law does not depend on
    which k chunks the typical user holds, so there is one row. The mean of
    the rows is the marginal law in both modes. The returned array is cached
    and read-only.
    """
    k = _check_type(config.n_chunks, k, "k")
    return _window_overlap_table(config, k)


@lru_cache(maxsize=None)
def _window_overlap_table(config: BandwidthConfig, k: int) -> np.ndarray:
    # one p_i / total_i-weighted layer per type in the mix, summed in order
    used = np.flatnonzero(config.type_probs)
    counts, totals = _overlap_counts(config.n_chunks, k, used + 1, config.mode)
    table = (counts * (np.array(config.type_probs)[used] / totals)[:, None, None]).sum(axis=0)
    table.flags.writeable = False
    return table


#: Buckets of every inverse-CDF guide table; a power of two, so that u * M
#: is exact and below M for every double u < 1.
_TABLE_BUCKETS = 2**12


def _bucket_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of each nondecreasing CDF row of ``cdf`` (Chen & Asau,
    1974; Devroye 1986, III.2), one int8 row of ``_TABLE_BUCKETS`` entries.

    Bucket j covers [j/M, (j+1)/M). When no CDF value lies strictly inside
    it, searchsorted(cdf, u, "right") is the same for every u in it, and the
    entry holds that value; otherwise the entry is -1 and ``_inverse_cdf``
    searches. At most one bucket per CDF value is -1.
    """
    edges = np.arange(_TABLE_BUCKETS + 1) / _TABLE_BUCKETS
    table = np.empty(cdf.shape[:-1] + (_TABLE_BUCKETS,), dtype=np.int8)
    for row, entries in zip(cdf.reshape(-1, cdf.shape[-1]), table.reshape(-1, _TABLE_BUCKETS)):
        below = np.searchsorted(row, edges[:-1], side="right")
        inside = np.searchsorted(row, edges[1:], side="left") - below
        entries[:] = np.where(inside > 0, -1, below)
    table.flags.writeable = False
    return table


def _inverse_cdf(cdf: np.ndarray, table: np.ndarray, u: np.ndarray, row=None) -> np.ndarray:
    """searchsorted(cdf, u, "right") for each uniform in the array ``u``, as
    an int64 array of its shape, read from the ``_bucket_table`` of ``cdf``.
    A 2-D ``cdf`` holds one CDF per row, and ``row`` picks one for each
    uniform. Only uniforms that fall into a -1 bucket are searched, by
    counting the CDF values at or below them.
    """
    bucket = (u * _TABLE_BUCKETS).astype(np.intp)
    if row is not None:
        # the rows of the table laid end to end
        bucket += row * _TABLE_BUCKETS
    out = table.ravel()[bucket].astype(np.int64)
    miss = out < 0
    if miss.any():
        rows = cdf if row is None else cdf[row[miss]]
        out[miss] = (rows <= u[miss][:, None]).sum(axis=-1)
    return out


def sample_type(
    config: BandwidthConfig, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
) -> int | np.ndarray:
    """Draw user types from the configured mix (inverse CDF).

    ``size`` follows numpy's convention: ``None`` draws one type and returns
    an int, anything else returns an integer array of that shape. Either way
    each type consumes one ``rng.random`` double, and the mix's cached
    bucket table (``_types_of``) inverts it to the type that a binary search
    of the cumulative mix would give.
    """
    types = _types_of(config, rng.random(1 if size is None else size))
    return int(types[0]) if size is None else types


def _types_of(config: BandwidthConfig, u: np.ndarray) -> np.ndarray:
    """The type that each uniform in ``u`` draws from the mix."""
    return _inverse_cdf(*_type_law(config), u) + 1


@lru_cache(maxsize=None)
def _type_law(config: BandwidthConfig) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative mix and its bucket table."""
    cdf = np.cumsum(config.type_probs)
    # the mix may sum to 1 only within PROB_TOL; a uniform in [0, 1) must
    # still never reach a type past the last one with positive weight
    cdf[np.flatnonzero(config.type_probs)[-1]:] = 1.0
    cdf.flags.writeable = False
    return cdf, _bucket_table(cdf)


@lru_cache(maxsize=None)
def _overlap_law(n_chunks: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Random mode: the cumulative pair law and its bucket table. Entry
    (i - 1, t) is P(overlap <= t) between a type-k typical user and a type-i
    interferer, for t < k: the cumulative integer counts of
    ``_overlap_counts`` over their total, divided once. The column t = k
    would be 1."""
    counts, totals = _overlap_counts(n_chunks, k, range(1, n_chunks + 1), AllocationMode.RANDOM)
    cdf = np.cumsum(counts[:, 0, :k], axis=-1) / totals[:, None]
    cdf.flags.writeable = False
    return cdf, _bucket_table(cdf)


def _window_starts(n_chunks: int, types, u) -> np.ndarray:
    """0-based start of a uniformly placed window for each user, from one
    uniform each."""
    return (u * (n_chunks - types + 1)).astype(np.int64)


def _typical_start(config: BandwidthConfig, k: int, u_start) -> int:
    """The window start that ``u_start`` places a type-k typical user at;
    0 in random mode, where ``u_start`` is None."""
    return 0 if u_start is None else int(_window_starts(config.n_chunks, k, u_start))


def _sample_overlaps(
    config: BandwidthConfig, k: int, types: np.ndarray, u: np.ndarray, typical
) -> np.ndarray:
    """Shared-chunk count of each interferer with a type-k typical user,
    from one uniform each (``u``, the shape of ``types``).

    The last axis of ``types`` runs over the interferers of one network;
    leading axes index independent networks. Random mode inverts each pair's
    exact law through the row of the interferer's type in ``_overlap_law``.
    Contiguous mode places every interferer's window and intersects it with
    the typical window, which starts at ``typical``: one start, or one per
    network (shape ``types.shape[:-1] + (1,)``).
    """
    n_chunks = config.n_chunks
    if config.mode is AllocationMode.RANDOM:
        return _inverse_cdf(*_overlap_law(n_chunks, k), u, types - 1)
    starts = _window_starts(n_chunks, types, u)
    return np.maximum(0, np.minimum(typical + k, starts + types) - np.maximum(typical, starts))
