"""Closed-form link metrics.

Success probability of the typical link under Rayleigh fading and typed
Poisson interference, for the pure power-law and the bounded attenuation,
plus Shannon throughput obtained by integrating the success probability over
rate thresholds.

Each type k has one rate integral I_k = int_0^inf P(log2(1 + SIR) > y) dy,
computed once per (network, bandwidth, k) and cached. Every throughput is a
scaling of it: the type-k rate I_k * k / n, the rate per chunk I_k / n and
the rate per joule I_k / (n * P); the overall values average these views
over the type mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

from .allocation import _check_type, window_overlap_table
from .errors import DomainError, IntegrationError
from .params import BandwidthConfig, NetworkParams

#: Throughput integrand below this level is treated as converged.
_INTEGRAND_FLOOR = 1e-10
#: Hard cap on the rate-threshold integration range (b/s/Hz); reached only
#: for vanishing interference, where the integral diverges.
_Y_CAP = 512.0
_ABS_TOL = 1e-8


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0.0:
        raise DomainError(f"theta must be finite and >= 0, got {theta}")
    return theta


def interference_constant(net: NetworkParams) -> float:
    """Geometry factor of the success-probability exponent under the pure
    power law: pi * R^2 * Gamma(1 + delta) * Gamma(1 - delta)."""
    pl = net.pathloss
    if pl.is_bounded:
        raise DomainError("interference_constant requires the power-law model (c0 = 0)")
    d = pl.delta
    return math.pi * net.link_distance**2 * float(_gamma(1 + d) * _gamma(1 - d))


def bounded_interference_constant(net: NetworkParams) -> float:
    """Bounded-attenuation analogue, with the intensity folded in:
    lambda * pi * (c0 + R^alpha) * Gamma(1 + delta) * Gamma(1 - delta)."""
    pl = net.pathloss
    if not pl.is_bounded:
        raise DomainError("bounded_interference_constant requires c0 > 0")
    d = pl.delta
    scale = pl.c0 + net.link_distance**pl.alpha
    return net.intensity * math.pi * scale * float(_gamma(1 + d) * _gamma(1 - d))


@lru_cache(maxsize=None)
def _overlap_rows(ba: BandwidthConfig, k: int):
    """Rows t = 1..k of ``window_overlap_table`` (disjoint chunk sets do not
    interfere) and the interference weights t / k."""
    table = window_overlap_table(ba, k)
    return np.ascontiguousarray(table[:, 1:]), np.arange(1, k + 1) / k


def success_prob_ki(
    net: NetworkParams, ba: BandwidthConfig, k: int, i: int, theta: float
) -> float:
    """P(SIR > theta) for a type-k typical link against type-i interferers only.

    The type-i interferers form a network of intensity lambda * p_i in which
    every user has type i. In contiguous mode the per-type factors share the
    typical user's window, so ``success_prob_k`` is their product only in
    random mode.
    """
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    i = _check_type(ba.n_chunks, i, "i")
    p_i = ba.type_probs[i - 1]
    if p_i == 0.0:
        return 1.0
    thinned = replace(net, intensity=net.intensity * p_i)
    only_i = BandwidthConfig.single_type(ba.n_chunks, i, ba.mode, ba.power_per_chunk)
    return success_prob_k(thinned, only_i, k, theta)


def success_prob_k(net: NetworkParams, ba: BandwidthConfig, k: int, theta: float) -> float:
    """P(SIR > theta) for a type-k typical link.

    Given the typical user's chunk set, the typed interferer processes are
    independent and their factors multiply. In random mode the overlap law
    does not depend on that set; in contiguous mode the product is averaged
    over the typical user's window starts.
    """
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    rows, ratio = _overlap_rows(ba, k)
    pl = net.pathloss
    d = pl.delta
    if pl.is_bounded:
        scale = pl.c0 + net.link_distance**pl.alpha
        weight = ratio * ((theta * ratio) * scale + pl.c0) ** (d - 1.0)
        exponents = bounded_interference_constant(net) * theta * (rows @ weight)
    else:
        weight = ratio**d
        exponents = net.intensity * interference_constant(net) * theta**d * (rows @ weight)
    # one exponent per equally likely typical chunk set
    return float(np.exp(-exponents).sum()) / exponents.size


def success_prob_overall(net: NetworkParams, ba: BandwidthConfig, theta: float) -> float:
    """P(SIR > theta) with the typical user's type averaged over the mix."""
    theta = _check_theta(theta)
    return ba.mix_average(lambda k: success_prob_k(net, ba, k, theta))


@dataclass(frozen=True)
class ThroughputResult:
    """Shannon-throughput value with the quadrature truncation record.

    ``tail_bound`` estimates the mass of the rate integral beyond ``y_max``;
    ``truncated`` flags that the integrand had not decayed below the floor
    when the hard cap was reached (vanishing interference), in which case the
    value is a lower bound and ``tail_bound`` is infinite.
    """

    value: float
    tail_bound: float
    y_max: float
    truncated: bool


def _rate_ccdf_integral(net: NetworkParams, ba: BandwidthConfig, k: int) -> ThroughputResult:
    """I_k, the integral over y of P(log2(1 + SIR) > y) for a type-k link;
    every throughput is a fixed multiple of it. Cached per (net, ba, k)."""
    return _rate_ccdf_quad(net, ba, _check_type(ba.n_chunks, k, "k"))


@lru_cache(maxsize=None)
def _rate_ccdf_quad(net: NetworkParams, ba: BandwidthConfig, k: int) -> ThroughputResult:
    def integrand(y: float) -> float:
        return success_prob_k(net, ba, k, 2.0**y - 1.0)

    y_max = 8.0
    while integrand(y_max) > _INTEGRAND_FLOOR and y_max < _Y_CAP:
        y_max = min(2.0 * y_max, _Y_CAP)
    f_end = integrand(y_max)
    truncated = f_end > _INTEGRAND_FLOOR

    out = integrate.quad(integrand, 0.0, y_max, epsabs=_ABS_TOL, limit=200, full_output=1)
    if len(out) > 3:
        raise IntegrationError(f"throughput quadrature failed: {out[3]}")
    value = out[0]

    if truncated:
        tail = math.inf
    elif f_end <= 0.0:
        tail = 0.0
    else:
        # integrand ~ exp(-c * 2^(delta y)) beyond y_max, so the remaining
        # mass is at most f(y_max) / (delta ln 2 * -ln f(y_max))
        s = -math.log(f_end)
        tail = f_end / (net.pathloss.delta * math.log(2.0) * max(s, 1.0))
    return ThroughputResult(value, tail, y_max, truncated)


def _scaled(result: ThroughputResult, factor: float) -> ThroughputResult:
    return ThroughputResult(
        factor * result.value, factor * result.tail_bound, result.y_max, result.truncated
    )


def shannon_throughput_k(net: NetworkParams, ba: BandwidthConfig, k: int) -> ThroughputResult:
    """Ergodic rate of a type-k link over its k/n slice of the unit band
    (bit/s): I_k * k / n."""
    return _scaled(_rate_ccdf_integral(net, ba, k), k / ba.n_chunks)


def shannon_throughput_per_joule_k(
    net: NetworkParams, ba: BandwidthConfig, k: int
) -> ThroughputResult:
    """Type-k throughput normalized by the spent power k * P (bit/J):
    I_k / (n * P)."""
    return _scaled(_rate_ccdf_integral(net, ba, k), 1.0 / (ba.n_chunks * ba.power_per_chunk))


def shannon_throughput_per_hz_k(
    net: NetworkParams, ba: BandwidthConfig, k: int
) -> ThroughputResult:
    """Type-k throughput normalized by the occupied bandwidth, counted in
    chunks: I_k / n."""
    return _scaled(_rate_ccdf_integral(net, ba, k), 1.0 / ba.n_chunks)


def _mix_view(net: NetworkParams, ba: BandwidthConfig, view) -> ThroughputResult:
    """A per-type throughput view with the typical user's type averaged over
    the mix: values and tail bounds weighted, the widest y_max, and
    truncated if any type is."""
    mixed = [
        _rate_ccdf_integral(net, ba, k)
        for k in range(1, ba.n_chunks + 1)
        if ba.type_probs[k - 1] > 0.0
    ]
    return ThroughputResult(
        ba.mix_average(lambda k: view(net, ba, k).value),
        ba.mix_average(lambda k: view(net, ba, k).tail_bound),
        max(r.y_max for r in mixed),
        any(r.truncated for r in mixed),
    )


def shannon_throughput_overall(net: NetworkParams, ba: BandwidthConfig) -> ThroughputResult:
    """Throughput with the typical user's type averaged over the mix."""
    return _mix_view(net, ba, shannon_throughput_k)


def shannon_throughput_per_joule_overall(
    net: NetworkParams, ba: BandwidthConfig
) -> ThroughputResult:
    """Mix-averaged throughput per joule."""
    return _mix_view(net, ba, shannon_throughput_per_joule_k)
