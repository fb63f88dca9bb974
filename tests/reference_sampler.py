"""Reference network sampler, the tests' oracle for the realization loop.

It draws what the model describes: uniform positions in the simulation disk,
independent types, whole chunk sets (the boolean interferer-by-chunk
occupancy matrix) and fading for every interferer. The estimators sample
only what SIR reads (``bwalloc.simulate._realizations``); the tests check
that loop against this sampler. Its stream starts like the loop's at the
same (seed, idx): the interferer count, then the radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bwalloc.allocation import _check_type, _window_starts, sample_type
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams
from bwalloc.simulate import SimConfig, _window


@dataclass(frozen=True)
class OccupancyRealization:
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

    def distances(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


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
    starts = _window_starts(n_chunks, types, rng.random(types.shape))
    cols = np.arange(n_chunks)
    return (cols >= starts[:, None]) & (cols < (starts + types)[:, None])


def sample_realization(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k_typical: int,
    rng: np.random.Generator,
) -> OccupancyRealization:
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
    return OccupancyRealization(
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
