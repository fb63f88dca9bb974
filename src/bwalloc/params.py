"""Parameter records for the network, path loss, and bandwidth allocation."""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

#: Largest supported number of chunks. Random-mode overlap counts are int64
#: arrays, which hold comb(n, n // 2) only up to n = 66.
MAX_CHUNKS = 64

#: Tolerance on sum(type_probs) == 1.
PROB_TOL = 1e-12


# Each input rule is written once, below. Records and config text raise
# ConfigError (the default); library functions pass error=DomainError.


def _check_int(value, name: str, lo: int, hi=math.inf, *, error=ConfigError) -> int:
    """The integer ``value`` in [lo, hi] as an int; a bool, a non-integer or
    a value out of range raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        rule = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise error(f"{name} must be {rule}, got {value}")
    return value


def _check_real(
    value, name: str, lo=-math.inf, hi=math.inf, *, closed=False, error=ConfigError
) -> float:
    """``value`` as a finite float above ``lo`` (or at it, when ``closed``)
    and at most ``hi``; anything else raises ``error``."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a real number, got {value!r}") from None
    if not (math.isfinite(value) and lo <= value <= hi and (closed or value > lo)):
        span = f"{'[' if closed else '('}{lo:g}, {hi:g}{')' if hi == math.inf else ']'}"
        raise error(f"{name} must be finite and in {span}, got {value!r}")
    return value


def _check_mix(probs, name: str, *, error=ConfigError) -> tuple[float, ...]:
    """A type mix: entries that ``_check_real`` keeps at or above 0, summing
    to 1 within ``PROB_TOL``; anything else raises ``error``."""
    probs = tuple(_check_real(p, name, 0.0, closed=True, error=error) for p in probs)
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise error(f"{name} must sum to 1, got {total!r}")
    return probs


def _check_enum(value, enum: type[Enum], *, error=ConfigError) -> Enum:
    """The member of ``enum`` that ``value`` names; raises ``error`` if none does."""
    try:
        return enum(value)
    except ValueError as exc:
        raise error(str(exc)) from None


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
        n = _check_int(self.n_chunks, "n_chunks", 1, MAX_CHUNKS)
        object.__setattr__(self, "n_chunks", n)
        probs = _check_mix(self.type_probs, "type_probs")
        object.__setattr__(self, "type_probs", probs)
        if len(probs) != n:
            raise ConfigError(f"type_probs has {len(probs)} entries, expected n_chunks = {n}")
        object.__setattr__(self, "mode", _check_enum(self.mode, AllocationMode))
        power = _check_real(self.power_per_chunk, "power_per_chunk", 0.0)
        object.__setattr__(self, "power_per_chunk", power)

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
        k = _check_int(k, "k", 1, n_chunks)
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
        object.__setattr__(self, "alpha", _check_real(self.alpha, "alpha", 2.0))
        object.__setattr__(self, "c0", _check_real(self.c0, "c0", 0.0, closed=True))

    @classmethod
    def power_law(cls, alpha: float) -> "PathLossModel":
        return cls(alpha, 0.0)

    @classmethod
    def bounded(cls, alpha: float, c0: float) -> "PathLossModel":
        return cls(alpha, _check_real(c0, "bounded path loss c0", 0.0))

    @property
    def is_bounded(self) -> bool:
        return self.c0 > 0.0

    @property
    def delta(self) -> float:
        """Planar stability exponent 2 / alpha, in (0, 1)."""
        return 2.0 / self.alpha

    def attenuation(self, r):
        """Evaluate the attenuation at distance(s) ``r``; inf at r = 0 for
        the pure power law, the only case that divides by zero."""
        r = np.asarray(r, dtype=float)
        guard = nullcontext() if self.c0 > 0.0 else np.errstate(divide="ignore")
        with guard:
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
        for name in ("intensity", "link_distance"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, 0.0))
        if not isinstance(self.pathloss, PathLossModel):
            raise ConfigError("pathloss must be a PathLossModel")

    def signal_attenuation(self) -> float:
        """Attenuation over the intended link."""
        return self.pathloss.attenuation(self.link_distance)
