"""Mean-power calibration between two type mixes.

Two networks with different type mixes are compared fairly by matching both
the mean received signal power (through the per-chunk power) and the mean
interference power (through the deployment intensity). Also computes the
mean signal to mean interference ratio, which random allocation makes
type-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as _gamma

from .allocation import _check_type, type_averaged_overlap
from .errors import DomainError
from .params import BandwidthConfig, NetworkParams


def mean_signal(net: NetworkParams, ba: BandwidthConfig) -> float:
    """Mean received signal power over the link, averaged over the type mix:
    P * l(R) * sum_k k p_k."""
    return ba.power_per_chunk * net.signal_attenuation() * ba.mean_type()


def matched_power(ba: BandwidthConfig, alt_probs) -> float:
    """Per-chunk power P' that gives an alternative mix the same mean signal
    power: P * (sum_k k p_k) / (sum_k k p'_k)."""
    alt = _coerce_alt(ba, alt_probs)
    return ba.power_per_chunk * ba.mean_type() / alt.mean_type()


def _campbell_prefactor(net: NetworkParams) -> float:
    pl = net.pathloss
    if not pl.is_bounded:
        raise DomainError(
            "mean interference requires the bounded path loss (c0 > 0); "
            "it diverges under the pure power law"
        )
    d = pl.delta
    return (
        net.intensity
        * math.pi
        * d
        * pl.c0 ** (d - 1.0)
        * float(_gamma(d) * _gamma(1.0 - d))
    )


def _mean_overlap(ba: BandwidthConfig, k: int) -> float:
    """Mean shared-chunk count of a type-k user against an interferer of
    random type: sum_t t q_t."""
    return float(np.arange(k + 1) @ type_averaged_overlap(ba, k))


def _mix_mean_overlap(ba: BandwidthConfig) -> float:
    """Mean shared-chunk count with the typical user's type drawn from the
    mix as well."""
    return ba.mix_average(lambda k: _mean_overlap(ba, k))


def mean_interference_k(net: NetworkParams, ba: BandwidthConfig, k: int) -> float:
    """Mean interference power at a type-k receiver (Campbell average of the
    typed shot noise); proportional to the mix-averaged mean overlap."""
    k = _check_type(ba.n_chunks, k, "k")
    return _campbell_prefactor(net) * ba.power_per_chunk * _mean_overlap(ba, k)


def mean_interference_overall(net: NetworkParams, ba: BandwidthConfig) -> float:
    """Mean interference power averaged over the typical user's type."""
    return _campbell_prefactor(net) * ba.power_per_chunk * _mix_mean_overlap(ba)


def matched_intensity(
    net: NetworkParams, ba: BandwidthConfig, alt_probs, alt_power: float
) -> float:
    """Intensity lambda' that gives the alternative mix (with power P') the
    same overall mean interference as the base network."""
    alt = _coerce_alt(ba, alt_probs)
    alt_power = float(alt_power)
    if not math.isfinite(alt_power) or alt_power <= 0.0:
        raise DomainError(f"alt_power must be finite and > 0, got {alt_power}")
    base_sum = _mix_mean_overlap(ba)
    alt_sum = _mix_mean_overlap(alt)
    if alt_sum <= 0.0:
        raise DomainError("alternative mix carries no interference to match")
    return net.intensity * ba.power_per_chunk * base_sum / (alt_power * alt_sum)


def msmir_k(net: NetworkParams, ba: BandwidthConfig, k: int) -> float:
    """Mean signal to mean interference ratio of a type-k user; independent
    of the chunk power, and of the type under random allocation."""
    k = _check_type(ba.n_chunks, k, "k")
    signal = k * ba.power_per_chunk * net.signal_attenuation()
    return signal / mean_interference_k(net, ba, k)


@dataclass(frozen=True)
class MatchedNetwork:
    """Alternative-mix network calibrated to the base mean powers."""

    network: NetworkParams
    bandwidth: BandwidthConfig

    @property
    def power(self) -> float:
        return self.bandwidth.power_per_chunk

    @property
    def intensity(self) -> float:
        return self.network.intensity


def match_mean_model(net: NetworkParams, ba: BandwidthConfig, alt_probs) -> MatchedNetwork:
    """Calibrate an alternative type mix to the base network's mean signal
    and mean interference powers; chunk count and mode are shared."""
    power = matched_power(ba, alt_probs)
    intensity = matched_intensity(net, ba, alt_probs, power)
    alt_ba = replace(ba, type_probs=alt_probs, power_per_chunk=power)
    alt_net = replace(net, intensity=intensity)
    return MatchedNetwork(alt_net, alt_ba)


def _coerce_alt(ba: BandwidthConfig, alt_probs) -> BandwidthConfig:
    """Validate an alternative mix against the shared chunk count."""
    probs = tuple(float(p) for p in alt_probs)
    if len(probs) != ba.n_chunks:
        raise DomainError(
            f"alternative mix has {len(probs)} entries, expected {ba.n_chunks}"
        )
    return replace(ba, type_probs=probs)
