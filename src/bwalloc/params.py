"""Parameter records for the network, path loss, and bandwidth allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

#: Largest supported number of chunks. Random-mode overlap counts are int64
#: arrays, which hold comb(n, n // 2) only up to n = 66.
MAX_CHUNKS = 64

#: Tolerance on sum(type_probs) == 1.
PROB_TOL = 1e-12


class AllocationMode(str, Enum):
    """How a type-k user picks its k chunks out of the n available."""

    RANDOM = "random"          # any k-subset, uniformly
    CONTIGUOUS = "contiguous"  # a consecutive window of k chunks, uniformly


@dataclass(frozen=True)
class BandwidthConfig:
    """Division of the (unit-width) band into chunks and the user-type mix.

    A user of type k occupies k of the ``n_chunks`` equal-width chunks,
    selected uniformly at random according to ``mode``. Users choose type i
    independently with probability ``type_probs[i-1]``. Each occupied chunk
    is driven with spectral power density ``power_per_chunk`` (J/s/Hz).
    """

    n_chunks: int
    type_probs: tuple[float, ...]
    mode: AllocationMode = AllocationMode.RANDOM
    power_per_chunk: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.n_chunks, bool) or not isinstance(self.n_chunks, (int, np.integer)):
            raise ConfigError("n_chunks must be an integer")
        object.__setattr__(self, "n_chunks", int(self.n_chunks))
        if not 1 <= self.n_chunks <= MAX_CHUNKS:
            raise ConfigError(
                f"n_chunks must be in [1, {MAX_CHUNKS}], got {self.n_chunks}"
            )
        probs = tuple(float(p) for p in self.type_probs)
        object.__setattr__(self, "type_probs", probs)
        if len(probs) != self.n_chunks:
            raise ConfigError(
                f"type_probs has {len(probs)} entries, expected n_chunks = {self.n_chunks}"
            )
        if any(not math.isfinite(p) or p < 0.0 for p in probs):
            raise ConfigError("type_probs must be finite and nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ConfigError(f"type_probs must sum to 1, got {total!r}")
        try:
            object.__setattr__(self, "mode", AllocationMode(self.mode))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        power = float(self.power_per_chunk)
        object.__setattr__(self, "power_per_chunk", power)
        if not math.isfinite(power) or power <= 0.0:
            raise ConfigError("power_per_chunk must be finite and positive")

    @classmethod
    def uniform(
        cls,
        n_chunks: int,
        mode: AllocationMode = AllocationMode.RANDOM,
        power_per_chunk: float = 1.0,
    ) -> "BandwidthConfig":
        """All user types equally likely."""
        return cls(n_chunks, (1.0 / n_chunks,) * n_chunks, mode, power_per_chunk)

    @classmethod
    def single_type(
        cls,
        n_chunks: int,
        k: int,
        mode: AllocationMode = AllocationMode.RANDOM,
        power_per_chunk: float = 1.0,
    ) -> "BandwidthConfig":
        """Every user is of type k (degenerate type mix)."""
        if not 1 <= k <= n_chunks:
            raise ConfigError(f"k must be in [1, {n_chunks}], got {k}")
        probs = [0.0] * n_chunks
        probs[k - 1] = 1.0
        return cls(n_chunks, tuple(probs), mode, power_per_chunk)

    def mix_average(self, per_type) -> float:
        """sum_k p_k * per_type(k) over the types in the mix; ``per_type`` is
        never evaluated at a type with p_k = 0."""
        return math.fsum(
            p_k * per_type(k) for k, p_k in enumerate(self.type_probs, start=1) if p_k > 0.0
        )

    def mean_type(self) -> float:
        """Average number of occupied chunks, sum_k k * p_k."""
        return self.mix_average(lambda k: k)


@dataclass(frozen=True)
class PathLossModel:
    """Distance attenuation 1 / (c0 + r^alpha).

    ``c0 = 0`` is the pure power law r^-alpha (singular at the origin);
    ``c0 > 0`` keeps the attenuation bounded everywhere. ``alpha`` must
    exceed 2 or the planar interference integrals diverge.
    """

    alpha: float
    c0: float = 0.0

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        c0 = float(self.c0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c0", c0)
        if not math.isfinite(alpha) or alpha <= 2.0:
            raise ConfigError(f"alpha must be finite and > 2, got {alpha}")
        if not math.isfinite(c0) or c0 < 0.0:
            raise ConfigError(f"c0 must be finite and >= 0, got {c0}")

    @classmethod
    def power_law(cls, alpha: float) -> "PathLossModel":
        return cls(alpha, 0.0)

    @classmethod
    def bounded(cls, alpha: float, c0: float) -> "PathLossModel":
        if c0 <= 0.0:
            raise ConfigError("bounded path loss requires c0 > 0")
        return cls(alpha, c0)

    @property
    def is_bounded(self) -> bool:
        return self.c0 > 0.0

    @property
    def delta(self) -> float:
        """Planar stability exponent 2 / alpha, in (0, 1)."""
        return 2.0 / self.alpha

    def attenuation(self, r):
        """Evaluate the attenuation at distance(s) ``r``; inf at r = 0 for
        the pure power law."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = 1.0 / (self.c0 + r**self.alpha)
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class NetworkParams:
    """Poisson bipolar deployment: transmitter intensity, link distance, path loss."""

    intensity: float
    link_distance: float
    pathloss: PathLossModel

    def __post_init__(self) -> None:
        intensity = float(self.intensity)
        distance = float(self.link_distance)
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "link_distance", distance)
        if not math.isfinite(intensity) or intensity <= 0.0:
            raise ConfigError(f"intensity must be finite and > 0, got {intensity}")
        if not math.isfinite(distance) or distance <= 0.0:
            raise ConfigError(f"link_distance must be finite and > 0, got {distance}")
        if not isinstance(self.pathloss, PathLossModel):
            raise ConfigError("pathloss must be a PathLossModel")

    def signal_attenuation(self) -> float:
        """Attenuation over the intended link."""
        return self.pathloss.attenuation(self.link_distance)
