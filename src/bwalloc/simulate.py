"""Monte Carlo cross-validator.

Samples the typed Poisson bipolar network inside a finite disk around the
typical receiver and estimates every analytic metric empirically: success
probability from the realized SIR, the conditional-success distribution from
per-pattern averages, throughput from the realized rate, and the mean
interference directly.

Every estimator is a statistic over one realization loop. Realization idx
draws everything from ``realization_rng(seed, idx)``, in a fixed order: the
typical type (only when it is drawn from the mix), the network, then what the
statistic draws itself. Estimates are therefore bit-reproducible and
independent of any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .allocation import _check_type, sample_chunk_set, sample_type, type_averaged_overlap
from .errors import ConfigError, DomainError
from .metadist import _check_theta, _interference_discount
from .params import AllocationMode, BandwidthConfig, NetworkParams

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


def _check_count(value, name: str, error: type[Exception]) -> int:
    """A positive integer (bools rejected), raising ``error`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    return int(value)


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
            object.__setattr__(self, name, _check_count(getattr(self, name), name, ConfigError))
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigError("seed must be an integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.window_radius is not None:
            radius = float(self.window_radius)
            object.__setattr__(self, "window_radius", radius)
            if not math.isfinite(radius) or radius <= 0.0:
                raise ConfigError("window_radius must be finite and > 0")
        try:
            object.__setattr__(
                self, "conditional_mode", ConditionalMode(self.conditional_mode)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
    """One sampled interferer pattern plus the typical link.

    The typical transmitter sits at (R, 0); the receiver is the origin.
    ``occupancy`` is the boolean interferer-by-chunk matrix.
    """

    positions: np.ndarray
    types: np.ndarray
    occupancy: np.ndarray
    fading: np.ndarray
    typical_type: int
    typical_occupancy: np.ndarray
    typical_fading: float
    link_distance: float
    window_radius: float

    @property
    def n_interferers(self) -> int:
        return self.positions.shape[0]

    def distances(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    def overlaps(self) -> np.ndarray:
        """Shared-chunk count of each interferer with the typical user."""
        return self.occupancy[:, self.typical_occupancy].sum(axis=1)


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


def _window_starts(n_chunks: int, types: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """0-based start of a uniformly placed window for each entry of ``types``."""
    return (rng.random(types.shape) * (n_chunks - types + 1)).astype(np.int64)


def _sample_occupancy(
    ba: BandwidthConfig, types: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = types.shape[0]
    n_chunks = ba.n_chunks
    if ba.mode is AllocationMode.RANDOM:
        # rank trick: a uniform random matrix argsorted per row gives a
        # uniform random permutation; keeping ranks below the type yields a
        # uniform k-subset
        order = np.argsort(rng.random((n, n_chunks)), axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(
            ranks, order, np.broadcast_to(np.arange(n_chunks), (n, n_chunks)).copy(), axis=1
        )
        return ranks < types[:, None]
    starts = _window_starts(n_chunks, types, rng)
    cols = np.arange(n_chunks)
    return (cols >= starts[:, None]) & (cols < (starts + types)[:, None])


def sample_realization(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k_typical: int,
    rng: np.random.Generator,
) -> NetworkRealization:
    """Draw one network: Poisson interferer count in the window disk, uniform
    positions, independent types, chunk sets, and unit-mean fading. The
    typical link is added on top, never drawn from the interferer process."""
    k_typical = _check_type(ba.n_chunks, k_typical, "k_typical")
    radius = _window(net, sim)
    n = int(rng.poisson(net.intensity * math.pi * radius * radius))
    rr = radius * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    positions = np.column_stack((rr * np.cos(ang), rr * np.sin(ang)))
    types = sample_type(ba, rng, n)
    occupancy = _sample_occupancy(ba, types, rng)
    fading = rng.exponential(1.0, n)
    typical_occupancy = np.zeros(ba.n_chunks, dtype=bool)
    typical_occupancy[np.array(sample_chunk_set(ba, k_typical, rng)) - 1] = True
    typical_fading = float(rng.exponential(1.0))
    return NetworkRealization(
        positions=positions,
        types=types,
        occupancy=occupancy,
        fading=fading,
        typical_type=k_typical,
        typical_occupancy=typical_occupancy,
        typical_fading=typical_fading,
        link_distance=net.link_distance,
        window_radius=radius,
    )


def _interference(real: NetworkRealization, net: NetworkParams) -> float:
    """Interference at the typical receiver, in units of the per-chunk power."""
    attenuation = net.pathloss.attenuation(real.distances())
    return float(np.sum(real.overlaps() * real.fading * attenuation))


def sir_of_realization(real: NetworkRealization, net: NetworkParams) -> float:
    """Realized SIR of the typical link; infinite when nothing interferes on
    the typical user's chunks."""
    interference = _interference(real, net)
    signal = real.typical_type * real.typical_fading * net.signal_attenuation()
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

    The closed-form route averages fading and everyone's chunk draws exactly,
    yielding a product of per-interferer factors that depends on the pattern
    only through distances. The empirical route redraws types, chunk sets,
    and fading with positions held fixed.

    The closed-form route uses ``type_averaged_overlap``, the overlap law
    averaged over the typical user's chunk set. In contiguous mode that
    treats the interferers' overlaps as independent, although they share the
    typical window, so it is an approximation there; the empirical route
    draws one typical window per fading draw.
    """
    k = _check_type(ba.n_chunks, k, "k")
    theta = _check_theta(theta)
    try:
        mode = ConditionalMode(mode)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    n_fading_draws = _check_count(n_fading_draws, "n_fading_draws", DomainError)
    dist = real.distances()
    if mode is ConditionalMode.CLOSED_FORM_GIVEN_PHI:
        if dist.size == 0:
            return 1.0
        q = type_averaged_overlap(ba, k)
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
    # draws are processed in blocks to bound the (block, n, chunks) workspace
    block = max(1, int(2_000_000 // max(n * ba.n_chunks, 1)))
    while done < n_fading_draws:
        m = min(block, n_fading_draws - done)
        types = sample_type(ba, rng, (m, n))
        typical_types = np.full(m, k, dtype=np.int64)
        if ba.mode is AllocationMode.RANDOM:
            occ = _sample_occupancy(ba, types.ravel(), rng).reshape(m, n, ba.n_chunks)
            typ = _sample_occupancy(ba, typical_types, rng)
            t_x = (occ & typ[:, None, :]).sum(axis=2)
        else:
            starts = _window_starts(ba.n_chunks, types, rng)
            typ_starts = _window_starts(ba.n_chunks, typical_types, rng)
            lo = np.maximum(starts, typ_starts[:, None])
            hi = np.minimum(starts + types, (typ_starts + k)[:, None])
            t_x = np.maximum(0, hi - lo)
        h = rng.exponential(1.0, (m, n))
        h0 = rng.exponential(1.0, m)
        interference = (t_x * h * attenuation[None, :]).sum(axis=1)
        sir = np.where(
            interference > 0.0, signal_scale * h0 / np.maximum(interference, 1e-300), math.inf
        )
        hits += int(np.count_nonzero(sir > theta))
        done += m
    return hits / n_fading_draws


def _realizations(net: NetworkParams, ba: BandwidthConfig, sim: SimConfig, k: int | None):
    """Yield (generator, typical type, realization) for every index of
    ``sim``; a statistic may keep drawing from the generator."""
    if k is not None:
        k = _check_type(ba.n_chunks, k, "k")
    for idx in range(sim.n_realizations):
        rng = realization_rng(sim.seed, idx)
        k_typ = sample_type(ba, rng) if k is None else k
        yield rng, k_typ, sample_realization(net, ba, sim, k_typ, rng)


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
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0:
        raise DomainError("thetas must be nonempty")
    if np.any(~np.isfinite(thetas)) or np.any(thetas < 0.0):
        raise DomainError("thetas must be finite and >= 0")
    hits = np.zeros(thetas.size, dtype=np.int64)
    for _, _, real in _realizations(net, ba, sim, k):
        hits += sir_of_realization(real, net) > thetas
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
    x_grid = np.asarray(list(x_grid), dtype=float)
    if x_grid.size == 0:
        raise DomainError("x_grid must be nonempty")
    if np.any(~np.isfinite(x_grid)) or np.any(x_grid < 0.0) or np.any(x_grid > 1.0):
        raise DomainError("x_grid values must lie in [0, 1]")
    counts = np.zeros(x_grid.size, dtype=np.int64)
    for rng, k_typ, real in _realizations(net, ba, sim, k):
        value = conditional_success_prob(
            real,
            net,
            ba,
            k_typ,
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
    values = np.empty(sim.n_realizations)
    n_capped = 0
    for idx, (_, k_typ, real) in enumerate(_realizations(net, ba, sim, k)):
        sir = sir_of_realization(real, net)
        if not math.isfinite(sir) or sir > SIR_CAP:
            sir = SIR_CAP
            n_capped += 1
        values[idx] = (k_typ / ba.n_chunks) * math.log2(1.0 + sir)
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
        [_interference(real, net) for _, _, real in _realizations(net, ba, sim, k)]
    )
    return _mean_estimate(ba.power_per_chunk * values)
