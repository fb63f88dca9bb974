"""Monte Carlo cross-validator.

Samples the typed Poisson bipolar network inside a finite disk around the
typical receiver and estimates every analytic metric empirically: success
probability from the realized SIR, the conditional-success distribution from
per-pattern averages, throughput from the realized rate, and the mean
interference directly.

Every estimator is a statistic over one realization loop. SIR depends on an
interferer's chunk set only through the number of chunks it shares with the
typical user, so the loop draws those counts directly (``allocation`` turns
uniforms into types, window starts and counts) and never builds chunk sets
or positions. This module fixes the order: realization idx draws everything
from ``realization_rng(seed, idx)``, the typical type (only when it is drawn
from the mix), the interferer count, their distances, their types, the
typical window start (contiguous mode only), their shared-chunk counts, the
fading of the interferers that share a chunk, the typical fading, then what
the statistic draws itself. Estimates are therefore bit-reproducible and
independent of any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .allocation import (
    _check_type,
    _sample_overlaps,
    _types_of,
    _window_starts,
    sample_type,
    window_overlap_table,
)
from .errors import ConfigError, DomainError
from .metadist import _check_theta, _check_x, _interference_discount
from .metrics import _check_theta as _success_theta
from .params import (
    AllocationMode,
    BandwidthConfig,
    NetworkParams,
    _check_enum,
    _check_int,
    _check_real,
)

#: Realized SIR used in place of an infinite one (zero interference) when
#: averaging rates; the capped fraction is reported alongside the estimate.
SIR_CAP = 1e9

#: Default simulation disk radius, in units of the link distance.
DEFAULT_WINDOW_FACTOR = 50.0
_MIN_WINDOW_FACTOR = 10.0


class ConditionalMode(str, Enum):
    """How per-pattern success probabilities are computed."""

    CLOSED_FORM_GIVEN_PHI = "closed_form_given_phi"  # average fading/chunks analytically
    FULLY_EMPIRICAL = "fully_empirical"              # redraw fading/chunks and count


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.

    ``window_radius`` is the simulation disk radius around the receiver;
    ``None`` selects 50 link distances, and anything below 10 link distances
    is rejected at sampling time since truncation would no longer be
    negligible against statistical noise.
    """

    n_realizations: int = 10_000
    seed: int = 0
    window_radius: float | None = None
    n_fading_draws: int = 1_000
    conditional_mode: ConditionalMode = ConditionalMode.CLOSED_FORM_GIVEN_PHI

    def __post_init__(self) -> None:
        for name in ("n_realizations", "n_fading_draws"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0, 2**64 - 1))
        if self.window_radius is not None:
            radius = _check_real(self.window_radius, "window_radius", 0.0)
            object.__setattr__(self, "window_radius", radius)
        mode = _check_enum(self.conditional_mode, ConditionalMode)
        object.__setattr__(self, "conditional_mode", mode)


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int
    n_capped: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ConfigError("std_error must be >= 0")

    def interval(self, n_sigma: float = 3.0) -> tuple[float, float]:
        half = n_sigma * self.std_error
        return (self.value - half, self.value + half)


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled network as the estimators read it: each interferer's
    distance from the typical receiver and shared-chunk count with the
    typical user, its fading, which is 0 where the count is 0, the typical
    user's type and fading, and its window start (0 in random mode)."""

    distance: np.ndarray
    overlap: np.ndarray
    fading: np.ndarray
    typical_type: int
    typical_fading: float
    typical_start: int


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one realization; the (seed, index) pair is the entire
    entropy, which is what makes parallel fan-out deterministic."""
    return np.random.default_rng([seed, index])


def _window(net: NetworkParams, sim: SimConfig) -> float:
    radius = sim.window_radius
    if radius is None:
        return DEFAULT_WINDOW_FACTOR * net.link_distance
    if radius < _MIN_WINDOW_FACTOR * net.link_distance:
        raise DomainError(
            f"window_radius must be at least {_MIN_WINDOW_FACTOR} link distances"
        )
    return radius


def _fading_where_shared(overlaps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean fading of every interferer that shares a chunk with the
    typical user; the others interfere with nothing and get 0."""
    fading = np.zeros(overlaps.shape)
    shared = overlaps > 0
    fading[shared] = rng.exponential(1.0, np.count_nonzero(shared))
    return fading


def _interference(real: NetworkRealization, net: NetworkParams) -> float:
    """Interference at the typical receiver, in units of the per-chunk power."""
    attenuation = net.pathloss.attenuation(real.distance)
    return float((real.overlap * real.fading * attenuation).sum())


def _sir(real: NetworkRealization, net: NetworkParams, signal_attenuation: float) -> float:
    interference = _interference(real, net)
    signal = real.typical_type * real.typical_fading * signal_attenuation
    if interference == 0.0:
        return math.inf
    return signal / interference


def conditional_success_prob(
    real: NetworkRealization,
    net: NetworkParams,
    ba: BandwidthConfig,
    k: int,
    theta: float,
    mode: ConditionalMode = ConditionalMode.CLOSED_FORM_GIVEN_PHI,
    n_fading_draws: int = 1_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Success probability given the interferer positions.

    Both routes hold the distances and the typical window (``typical_start``
    in contiguous mode) fixed. The closed-form route averages fading and the
    interferers' chunk draws exactly, yielding a product of per-interferer
    factors over the window's row of ``window_overlap_table``. The empirical
    route redraws the interferers' types, shared-chunk counts and fading.
    """
    k = _check_type(ba.n_chunks, k, "k")
    theta = _check_theta(theta)
    mode = _check_enum(mode, ConditionalMode, error=DomainError)
    n_fading_draws = _check_int(n_fading_draws, "n_fading_draws", 1, error=DomainError)
    dist = real.distance
    start = real.typical_start if ba.mode is AllocationMode.CONTIGUOUS else 0
    if mode is ConditionalMode.CLOSED_FORM_GIVEN_PHI:
        if dist.size == 0:
            return 1.0
        q = window_overlap_table(ba, k)[start]
        return float(np.prod(1.0 - _interference_discount(net, k, theta, dist, q)))

    if rng is None:
        raise DomainError("fully-empirical conditioning needs a randomness source")
    n = dist.size
    if n == 0:
        return 1.0
    attenuation = np.asarray(net.pathloss.attenuation(dist), dtype=float)
    signal_scale = k * net.signal_attenuation()
    hits = 0
    done = 0
    # draws are processed in blocks to bound the (block, n) workspace
    block = max(1, 250_000 // n)
    while done < n_fading_draws:
        m = min(block, n_fading_draws - done)
        # the types' uniforms, then the overlaps'
        u = rng.random((2, m, n))
        t_x = _sample_overlaps(ba, k, _types_of(ba, u[0]), u[1], start)
        h = _fading_where_shared(t_x, rng)
        h0 = rng.exponential(1.0, m)
        interference = (t_x * h * attenuation[None, :]).sum(axis=1)
        sir = np.where(
            interference > 0.0, signal_scale * h0 / np.maximum(interference, 1e-300), math.inf
        )
        hits += int(np.count_nonzero(sir > theta))
        done += m
    return hits / n_fading_draws


def _realizations(net: NetworkParams, ba: BandwidthConfig, sim: SimConfig, k: int | None):
    """Yield (generator, sampled network) for every index of ``sim``; a
    statistic may keep drawing from the generator. The distances are
    uniform in the disk, drawn as radius * sqrt(U); no angles are drawn.
    After the interferer count, the uniforms of the distances, the types,
    the typical window (contiguous mode only) and the overlaps are one
    ``rng.random`` block, which is the stream that separate calls draw."""
    if k is not None:
        k = _check_type(ba.n_chunks, k, "k")
    radius = _window(net, sim)
    mean_count = net.intensity * math.pi * radius * radius
    random = ba.mode is AllocationMode.RANDOM
    # random mode has one overlap-table row and draws no typical window
    window = 0 if random else 1
    for idx in range(sim.n_realizations):
        rng = realization_rng(sim.seed, idx)
        k_typ = sample_type(ba, rng) if k is None else k
        count = int(rng.poisson(mean_count))
        u = rng.random(3 * count + window)
        distance = radius * np.sqrt(u[:count])
        types = _types_of(ba, u[count : 2 * count])
        start = 0 if random else int(_window_starts(ba.n_chunks, k_typ, u[2 * count]))
        overlap = _sample_overlaps(ba, k_typ, types, u[2 * count + window :], start)
        fading = _fading_where_shared(overlap, rng)
        typical_fading = float(rng.exponential(1.0))
        yield rng, NetworkRealization(distance, overlap, fading, k_typ, typical_fading, start)


def _binomial_estimate(hits: int, n: int) -> EstimateWithCI:
    p = hits / n
    return EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def _mean_estimate(values: np.ndarray, n_capped: int = 0) -> EstimateWithCI:
    n = values.size
    std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimateWithCI(float(values.mean()), std_error, n, n_capped)


def success_prob_curve(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
    thetas,
) -> list[EstimateWithCI]:
    """Empirical P(SIR > theta) on a threshold grid, sharing one realization
    set across all thresholds (common random numbers). ``k = None`` draws the
    typical type from the mix per realization."""
    thetas = np.array([_success_theta(theta) for theta in thetas], dtype=float)
    if thetas.size == 0:
        raise DomainError("thetas must be nonempty")
    signal_attenuation = net.signal_attenuation()
    hits = np.zeros(thetas.size, dtype=np.int64)
    for _, real in _realizations(net, ba, sim, k):
        hits += _sir(real, net, signal_attenuation) > thetas
    return [_binomial_estimate(int(h), sim.n_realizations) for h in hits]


def estimate_success_prob(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
    theta: float,
) -> EstimateWithCI:
    """Empirical P(SIR > theta) with a binomial standard error."""
    return success_prob_curve(net, ba, sim, k, [theta])[0]


def estimate_meta_distribution(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
    theta: float,
    x_grid,
) -> list[EstimateWithCI]:
    """Empirical ccdf of the conditional success probability on ``x_grid``."""
    x_grid = np.array([_check_x(x) for x in x_grid], dtype=float)
    if x_grid.size == 0:
        raise DomainError("x_grid must be nonempty")
    counts = np.zeros(x_grid.size, dtype=np.int64)
    for rng, real in _realizations(net, ba, sim, k):
        value = conditional_success_prob(
            real,
            net,
            ba,
            real.typical_type,
            theta,
            mode=sim.conditional_mode,
            n_fading_draws=sim.n_fading_draws,
            rng=rng,
        )
        counts += value > x_grid
    return [_binomial_estimate(int(c), sim.n_realizations) for c in counts]


def estimate_throughput(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
) -> EstimateWithCI:
    """Empirical Shannon throughput (k/n) * log2(1 + SIR); infinite-SIR
    realizations are capped at SIR_CAP and counted in ``n_capped``."""
    signal_attenuation = net.signal_attenuation()
    values = np.empty(sim.n_realizations)
    n_capped = 0
    for idx, (_, real) in enumerate(_realizations(net, ba, sim, k)):
        sir = _sir(real, net, signal_attenuation)
        if not math.isfinite(sir) or sir > SIR_CAP:
            sir = SIR_CAP
            n_capped += 1
        values[idx] = (real.typical_type / ba.n_chunks) * math.log2(1.0 + sir)
    return _mean_estimate(values, n_capped)


def estimate_mean_interference(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
) -> EstimateWithCI:
    """Empirical mean interference power at a type-k receiver, with the
    per-chunk power reinstated."""
    values = np.array(
        [_interference(real, net) for _, real in _realizations(net, ba, sim, k)]
    )
    return _mean_estimate(ba.power_per_chunk * values)
