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

Each route stops after the last draw that it reads. The draws before the
marks are one helper (``_networks``). The closed-form conditional route
reads the distances, the typical type and the typical window, so it turns no
uniform into a type or an overlap and draws no fading. The loop statistics
stop after the typical fading, and only the fully-empirical route draws on.
A fixed typical type draws nothing, so every fixed type sees the same draws
up to the overlaps; and numpy's exponential draws are one stream
(``exponential(1, M)[:m]``, then element m, are ``exponential(1, m)``, then
``exponential(1)``). So one pass serves every fixed type: type k's m_k
interferers that share a chunk and its typical fading read the first
m_k + 1 values of one draw. The overall and mix curves keep their own pass,
since their stream starts with the type draw.

Estimators that share a seed and a type argument see the same networks, so
the success, throughput and interference statistics read one kept pass
(``_received``): the rows of the last pass are held in ``_kept``, a
one-entry ``lru_cache`` keyed on (network, bandwidth, ``SimConfig``) that
holds a dict by typical type (a fixed type, or the mix). Only one group is
held, and a call computes only the types it does not hold. So after a
simulate table, the throughput and interference estimators at any of its
types draw nothing.

Every route that draws marks does so through one marks draw (``_marks``),
and shares one interference sum and one SIR rule, which the loop statistics
apply once over all networks and the empirical route once per block of
redraws. ``SimConfig`` holds only what the loop reads.

Every loop runs through one helper (``_in_blocks``), which splits the
indices 0..n-1 into B contiguous blocks in index order (block j holds
floor(j n / B) up to floor((j + 1) n / B)). Each block carries at least
``_BLOCK_WORK`` of work (realizations x mean interferer count x typical
types served, or x redraws per network on the fully-empirical route), B is
at most ``_MAX_BLOCKS`` and a multiple of the number of processes W, and W
is at most the CPUs of the process's affinity mask.
The caller and W - 1 workers made with ``os.fork`` take blocks one at a
time until none is left, and the blocks' arrays are joined in index order.
Nothing is built before the fork: each process builds the cached laws that
its blocks read. Since each network's draws depend on (seed, index) alone,
no output depends on B, W or which process ran which block. The loop stays
serial below two blocks of work, with one usable CPU, without ``os.fork``
or ``os.sched_getaffinity`` and while another Python thread runs.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from signal import SIGKILL
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .allocation import _check_type, _sample_overlaps, _types_of, _typical_start, sample_type
from .errors import ConfigError, DomainError
from .metadist import _check_theta, _check_x, _conditional_success
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

#: Least work that each block of a forked realization loop carries, in
#: interferers: realizations x mean interferer count x typical types served;
#: and the most blocks, each handed out as one byte through a pipe.
_BLOCK_WORK = 500_000
_MAX_BLOCKS = 256


class ConditionalMode(str, Enum):
    """How per-pattern success probabilities are computed."""

    CLOSED_FORM_GIVEN_PHI = "closed_form_given_phi"  # average fading/chunks analytically
    FULLY_EMPIRICAL = "fully_empirical"              # redraw fading/chunks and count


@dataclass(frozen=True)
class SimConfig:
    """What the realization loop reads: how many networks, the seed of
    their streams and the disk they are sampled in.

    ``window_radius`` is the simulation disk radius around the receiver;
    ``None`` selects 50 link distances, and anything below 10 link distances
    is rejected at sampling time. Truncation to a larger disk is not
    negligible either for alpha <= 3: the estimates then follow the closed
    form restricted to the disk, not the closed forms over the plane
    (README, "Simulation disk").
    """

    n_realizations: int = 10_000
    seed: int = 0
    window_radius: float | None = None

    def __post_init__(self) -> None:
        n = _check_int(self.n_realizations, "n_realizations", 1)
        object.__setattr__(self, "n_realizations", n)
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0, 2**64 - 1))
        if self.window_radius is not None:
            radius = _check_real(self.window_radius, "window_radius", 0.0)
            object.__setattr__(self, "window_radius", radius)


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
    entropy, which is what makes parallel fan-out deterministic. It is
    ``default_rng([seed, index])``, seeded with the uint32 words that
    ``SeedSequence`` would split the pair into, which skips its conversion
    of the list."""
    words = np.array(_words(seed) + _words(index), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(words))


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first,
    and at least one."""
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _window(net: NetworkParams, sim: SimConfig) -> float:
    radius = sim.window_radius
    if radius is None:
        return DEFAULT_WINDOW_FACTOR * net.link_distance
    if radius < _MIN_WINDOW_FACTOR * net.link_distance:
        raise DomainError(
            f"window_radius must be at least {_MIN_WINDOW_FACTOR} link distances"
        )
    return radius


def _marks(ba: BandwidthConfig, typical, u_types, u_overlaps, rng, after: int = 1):
    """The interferers' shared-chunk counts and fading, and the draws after
    them, for each (type, window start) of a typical user in ``typical``:
    three lists.

    The types invert ``u_types`` and the counts ``u_overlaps``; the last
    axis runs over the interferers of one network. The m_k interferers that
    share a chunk with type k take, in order, the first m_k values of one
    unit-mean exponential draw of max_k m_k + ``after`` values, and the
    others, which interfere with nothing, get 0; the values from m_k on are
    type k's own draws after its marks. numpy's exponential draws are one
    stream, so each type sees what a draw of m_k values, then ``after``
    more, would give it alone.
    """
    interferer_types = _types_of(ba, u_types)
    overlaps = [
        _sample_overlaps(ba, k, interferer_types, u_overlaps, start) for k, start in typical
    ]
    counts = [np.count_nonzero(overlap) for overlap in overlaps]
    draws = rng.exponential(1.0, max(counts) + after)
    fadings = [np.zeros(overlap.shape) for overlap in overlaps]
    for fading, overlap in zip(fadings, overlaps):
        np.place(fading, overlap > 0, draws)
    return overlaps, fadings, [draws[m:] for m in counts]


def _interference(overlap, fading, attenuation):
    """Interference at the typical receiver, in units of the per-chunk
    power, summed over the interferers on the last axis. An interferer that
    shares no chunk adds exactly 0, also at infinite attenuation (distance 0
    under the power law)."""
    terms = overlap * fading
    with np.errstate(invalid="ignore"):
        terms *= attenuation
    # the terms are >= 0 or nan, which only 0 * inf makes: fmax maps it to 0
    return np.fmax(terms, 0.0, out=terms).sum(axis=-1)


def _sir(signal, interference):
    """signal / interference, and inf where no interferer shares a chunk."""
    out = np.full(np.shape(interference), math.inf)
    return np.divide(signal, interference, out=out, where=interference > 0.0)


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
    interferers' chunk draws exactly (``metadist._conditional_success``). The
    empirical route redraws the interferers' types, shared-chunk counts and
    fading.
    """
    k = _check_type(ba.n_chunks, k, "k")
    theta = _check_theta(theta)
    mode = _check_enum(mode, ConditionalMode, error=DomainError)
    n_fading_draws = _check_int(n_fading_draws, "n_fading_draws", 1, error=DomainError)
    if mode is ConditionalMode.FULLY_EMPIRICAL and rng is None:
        raise DomainError("fully-empirical conditioning needs a randomness source")
    dist = real.distance
    if dist.size == 0:
        return 1.0
    start = real.typical_start if ba.mode is AllocationMode.CONTIGUOUS else 0
    if mode is ConditionalMode.CLOSED_FORM_GIVEN_PHI:
        return _conditional_success(net, ba, k, theta, dist, start, net.signal_attenuation())

    attenuation = net.pathloss.attenuation(dist)
    signal_scale = k * net.signal_attenuation()
    hits = 0
    # draws are processed in blocks to bound the (block, n) workspace
    block = max(1, 250_000 // dist.size)
    for done in range(0, n_fading_draws, block):
        m = min(block, n_fading_draws - done)
        # the types' uniforms, then the overlaps'
        u = rng.random((2, m, dist.size))
        # each redraw's typical fading follows the marks
        (overlap,), (fading,), (h0,) = _marks(ba, [(k, start)], u[0], u[1], rng, m)
        signal = signal_scale * h0
        hits += np.count_nonzero(_sir(signal, _interference(overlap, fading, attenuation)) > theta)
    return hits / n_fading_draws


def _networks(
    net: NetworkParams, ba: BandwidthConfig, sim: SimConfig, k: int | None, lo: int, hi: int
):
    """Yield, for every index of ``sim`` in [lo, hi), what a network draws
    before its marks: (generator, typical type, distances, the typical
    window's uniform, the types' uniforms, the overlaps' uniforms).

    The typical type is drawn from the mix only when ``k`` is None, so
    every fixed type sees the same draws; a fixed ``k`` is checked by the
    caller. The distances are uniform in the disk, drawn as radius *
    sqrt(U); no angles are drawn. After the interferer count, the uniforms
    of the distances, the types, the typical window (contiguous mode only;
    None in random mode) and the overlaps are one ``rng.random`` block,
    which is the stream that separate calls draw.
    """
    radius = _window(net, sim)
    mean_count = net.intensity * math.pi * radius * radius
    random = ba.mode is AllocationMode.RANDOM
    # random mode has one overlap-table row and draws no typical window
    window = 0 if random else 1
    for idx in range(lo, hi):
        rng = realization_rng(sim.seed, idx)
        k_typ = sample_type(ba, rng) if k is None else k
        count = int(rng.poisson(mean_count))
        u = rng.random(3 * count + window)
        u_start = None if random else u[2 * count]
        yield (
            rng, k_typ, radius * np.sqrt(u[:count]), u_start,
            u[count : 2 * count], u[2 * count + window :],
        )


def _realizations(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
    lo: int = 0,
    hi: int | None = None,
):
    """Yield (generator, sampled network) for every index of ``sim`` in
    [lo, hi) (by default all of them): the draws of ``_networks``, then the
    marks and the typical fading; a statistic may keep drawing from the
    generator."""
    hi = sim.n_realizations if hi is None else hi
    for rng, k_typ, distance, u_start, u_types, u_overlaps in _networks(net, ba, sim, k, lo, hi):
        start = _typical_start(ba, k_typ, u_start)
        (overlap,), (fading,), (after,) = _marks(ba, [(k_typ, start)], u_types, u_overlaps, rng)
        yield rng, NetworkRealization(distance, overlap, fading, k_typ, float(after[0]), start)


@lru_cache(maxsize=1)
def _kept(net: NetworkParams, ba: BandwidthConfig, sim: SimConfig) -> dict:
    """The rows kept for the (net, ba, sim) group, by entry of ``types`` (as
    ``_received`` reads the list): that entry's read-only (typical, signal,
    interference) rows. Only the latest group is held."""
    return {}


def _received(net: NetworkParams, ba: BandwidthConfig, sim: SimConfig, types: list):
    """The typical types, signals and interferences of the loop's networks,
    in units of the per-chunk power: three (entry of ``types``, network)
    arrays, each row what ``_realizations`` gives for its entry. ``types``
    lists fixed types, or is [None], which draws each network's typical type
    from the mix.

    Each row depends only on (net, ba, sim, entry), so the rows of the
    latest (net, ba, sim) group are kept in ``_kept``, and a call computes
    only the entries that it does not hold, in one pass. A new group drops
    the old one, and a pass that raises stores nothing. The arrays returned
    are fresh copies."""
    if types != [None]:
        types = [_check_type(ba.n_chunks, k, "k") for k in types]
    held = _kept(net, ba, sim)
    missing = [entry for entry in dict.fromkeys(types) if entry not in held]
    if missing:
        held.update(_pass(net, ba, sim, missing))
    return tuple(np.stack(rows) for rows in zip(*(held[entry] for entry in types)))


def _pass(net: NetworkParams, ba: BandwidthConfig, sim: SimConfig, types: list) -> dict:
    """One pass over the loop's networks for ``types`` (as ``_received``
    reads the list), by entry: its read-only (typical, signal, interference)
    rows. Fixed types take their marks from one ``_marks`` call per network."""
    mix = types == [None]
    attenuation = net.pathloss.attenuation

    def block(lo, hi):
        # the networks' typical types, and (entry, network) fading and interference
        drawn = np.empty(hi - lo, dtype=np.int64)
        fading = np.empty((len(types), hi - lo))
        interference = np.empty_like(fading)
        for idx, (rng, k_typ, distance, u_start, u_types, u_overlaps) in enumerate(
            _networks(net, ba, sim, types[0], lo, hi)
        ):
            drawn[idx] = k_typ
            users = [(k, _typical_start(ba, k, u_start)) for k in ([k_typ] if mix else types)]
            marks = _marks(ba, users, u_types, u_overlaps, rng)
            gain = attenuation(distance)
            for j, (overlap, shared_fading, after) in enumerate(zip(*marks)):
                interference[j, idx] = _interference(overlap, shared_fading, gain)
                fading[j, idx] = after[0]
        return drawn, fading, interference

    drawn, fading, interference = _in_blocks(net, sim, len(types), block)
    typical = drawn[None, :] if mix else np.array(types)[:, None]
    arrays = typical, typical * fading * net.signal_attenuation(), interference
    for array in arrays:
        array.setflags(write=False)
    return dict(zip(types, zip(*arrays)))


def _workers(blocks: int) -> int:
    """How many processes share ``blocks`` blocks: as many as the usable
    CPUs and the blocks allow. One (the loop stays serial) below two
    blocks, where ``os.fork`` or ``os.sched_getaffinity`` is missing, and
    while another Python thread runs, since a forked worker holds only the
    forking thread."""
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if blocks < 2 or not forkable or threading.active_count() > 1:
        return 1
    return min(blocks, len(os.sched_getaffinity(0)))


def _in_blocks(net: NetworkParams, sim: SimConfig, repeats: int, block):
    """``block(lo, hi)`` over contiguous blocks of ``range(sim.n_realizations)``,
    joined in index order: ``block`` returns a tuple of arrays whose last
    axis runs over the networks lo..hi-1, and each array of the result is
    its blocks' concatenation along that axis.

    The work is realizations x mean interferer count x ``repeats`` (the
    typical types that a pass serves, or the fully-empirical route's redraws
    per network), and each block carries at least ``_BLOCK_WORK`` of it.
    When the loop is split, workers made with ``os.fork`` join the caller,
    and each process takes the next block from a pipe until none is left,
    so a process on a slower CPU takes fewer; each builds the cached laws
    that its blocks read, as the serial loop does. A worker sends its
    blocks, or its exception, through a pipe and exits without returning;
    the caller re-raises a worker's exception, and kills and reaps every
    worker on its way out. Each network's draws depend only on (seed,
    index), so the result is the serial loop's, bit for bit.
    """
    n = sim.n_realizations
    radius = _window(net, sim)
    work = n * repeats * net.intensity * math.pi * radius * radius
    blocks = min(n, int(work // _BLOCK_WORK), _MAX_BLOCKS)
    workers = _workers(blocks)
    if workers == 1:
        return block(0, n)
    # whole rounds, so that processes of equal speed finish together
    blocks -= blocks % workers
    bounds = [n * j // blocks for j in range(blocks + 1)]
    queue, write = os.pipe()

    def take():
        # (index, arrays) of each block that this process takes from the queue
        taken = []
        while token := os.read(queue, 1):
            j = token[0]
            taken.append((j, block(bounds[j], bounds[j + 1])))
        return taken

    pids, readers = [], []
    try:
        with os.fdopen(write, "wb") as tokens:
            tokens.write(bytes(range(blocks)))
        for _ in range(workers - 1):
            read, write = os.pipe()
            readers.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(take, write)
                pids.append(pid)
            finally:
                os.close(write)
        parts = take()
        for reader in readers:
            parts += _worker_result(reader)
    finally:
        for pid in pids:
            os.kill(pid, SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
        os.close(queue)
    parts.sort(key=lambda part: part[0])
    return tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*(a for _, a in parts)))


def _worker(run, write: int):
    """A forked worker's whole life: call ``run()``, send (True, result) or
    (False, exception) through the pipe end ``write`` and exit the process.
    It never returns into the caller's stack."""
    try:
        try:
            result = True, run()
        except BaseException as exc:  # the caller re-raises it
            result = False, exc
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _worker_result(reader):
    """What a worker sent through ``reader``: its arrays, or its exception
    raised here."""
    data = reader.read()
    if not data:
        raise ChildProcessError("a Monte Carlo worker exited without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _binomial_estimate(hits: int, n: int) -> EstimateWithCI:
    p = hits / n
    return EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def _mean_estimate(values: np.ndarray, n_capped: int = 0) -> EstimateWithCI:
    n = values.size
    std_error = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimateWithCI(float(values.mean()), std_error, n, n_capped)


def _success_curves(net, ba, sim, types: list, thetas) -> list[list[EstimateWithCI]]:
    """``success_prob_curve`` of each entry of ``types`` (as ``_received``
    reads it), from one pass."""
    thetas = np.array([_success_theta(theta) for theta in thetas], dtype=float)
    if thetas.size == 0:
        raise DomainError("thetas must be nonempty")
    _, signal, interference = _received(net, ba, sim, types)
    return [
        [_binomial_estimate(int(h), sim.n_realizations)
         for h in np.count_nonzero(sir[:, None] > thetas, axis=0)]
        for sir in _sir(signal, interference)
    ]


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
    return _success_curves(net, ba, sim, [k], thetas)[0]


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
    mode: ConditionalMode = ConditionalMode.CLOSED_FORM_GIVEN_PHI,
    n_fading_draws: int = 1_000,
) -> list[EstimateWithCI]:
    """Empirical ccdf of the conditional success probability on ``x_grid``,
    by the ``conditional_success_prob`` route ``mode``. The closed-form
    route reads only each network's distances, typical type and typical
    window, so it draws no marks; the empirical route redraws
    ``n_fading_draws`` times from each network's generator."""
    x_grid = np.array([_check_x(x) for x in x_grid], dtype=float)
    if x_grid.size == 0:
        raise DomainError("x_grid must be nonempty")
    theta = _check_theta(theta)
    mode = _check_enum(mode, ConditionalMode, error=DomainError)
    n_fading_draws = _check_int(n_fading_draws, "n_fading_draws", 1, error=DomainError)
    if k is not None:
        k = _check_type(ba.n_chunks, k, "k")
    closed_form = mode is ConditionalMode.CLOSED_FORM_GIVEN_PHI
    signal = net.signal_attenuation()

    def block(lo, hi):
        if closed_form:
            conditional = (
                _conditional_success(
                    net, ba, k_typ, theta, distance, _typical_start(ba, k_typ, u_start), signal
                )
                for _, k_typ, distance, u_start, _, _ in _networks(net, ba, sim, k, lo, hi)
            )
        else:
            conditional = (
                conditional_success_prob(
                    real, net, ba, real.typical_type, theta, mode, n_fading_draws, rng
                )
                for rng, real in _realizations(net, ba, sim, k, lo, hi)
            )
        return (np.fromiter(conditional, float, hi - lo),)

    repeats = 1 if closed_form else n_fading_draws
    (values,) = _in_blocks(net, sim, repeats, block)
    counts = np.count_nonzero(values[:, None] > x_grid, axis=0)
    return [_binomial_estimate(int(c), sim.n_realizations) for c in counts]


def estimate_throughput(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
) -> EstimateWithCI:
    """Empirical Shannon throughput (k/n) * log2(1 + SIR); infinite-SIR
    realizations are capped at SIR_CAP and counted in ``n_capped``."""
    types, signal, interference = (row[0] for row in _received(net, ba, sim, [k]))
    sir = _sir(signal, interference)
    # math.log2: numpy's vectorized log2 rounds about 1 in 1000 values differently
    rate = np.array([math.log2(1.0 + s) for s in np.minimum(sir, SIR_CAP)])
    return _mean_estimate((types / ba.n_chunks) * rate, int(np.count_nonzero(sir > SIR_CAP)))


def estimate_mean_interference(
    net: NetworkParams,
    ba: BandwidthConfig,
    sim: SimConfig,
    k: int | None,
) -> EstimateWithCI:
    """Empirical mean interference power at a type-k receiver, with the
    per-chunk power reinstated."""
    _, _, interference = _received(net, ba, sim, [k])
    return _mean_estimate(ba.power_per_chunk * interference[0])
