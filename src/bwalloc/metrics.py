"""Closed-form link metrics.

Success probability of the typical link under Rayleigh fading and typed
Poisson interference, for the pure power-law and the bounded attenuation,
plus Shannon throughput obtained by integrating the success probability over
rate thresholds.

Each type k has one rate integral I_k = int_0^inf P(log2(1 + SIR) > y) dy,
computed once per (network, bandwidth, k) and cached. It runs on the
trapezoid rule in ln(2^y - 1), its step halved until two levels agree.
Every throughput is a scaling of it: the type-k rate I_k * k / n, the rate
per chunk I_k / n and the rate per joule I_k / (n * P); the overall values
average these views over the type mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .allocation import _check_type, window_overlap_table
from .errors import DomainError, IntegrationError
from .params import BandwidthConfig, NetworkParams, _check_real

#: Throughput integrand below this level is treated as converged.
_INTEGRAND_FLOOR = 1e-10
#: Hard cap on the rate-threshold integration range (b/s/Hz); reached only
#: for vanishing interference, where the integral diverges.
_Y_CAP = 512.0
#: The rate integral's error budget, max(_ABS_TOL, _REL_TOL * I_k); the SIR
#: threshold it starts from (the thresholds below are worth at most this
#: much); and the most halvings of its unit starting step.
_ABS_TOL = 1e-8
_REL_TOL = 1e-10
_THETA_MIN = 1e-13
_MAX_HALVINGS = 10


def _check_theta(theta: float) -> float:
    """An SIR threshold of a success probability, finite and >= 0: the rate
    integral starts at theta = 0."""
    return _check_real(theta, "theta", 0.0, closed=True, error=DomainError)


def _gamma_reflection(d: float) -> float:
    """Gamma(1 + d) * Gamma(1 - d) = pi d / sin(pi d) for d in (0, 1), which
    is also d * Gamma(d) * Gamma(1 - d). The sine takes the nearer of d and
    1 - d, so it keeps its accuracy as d approaches 1."""
    return math.pi * d / math.sin(math.pi * min(d, 1.0 - d))


def interference_constant(net: NetworkParams) -> float:
    """Geometry factor of the success-probability exponent under the pure
    power law: pi * R^2 * Gamma(1 + delta) * Gamma(1 - delta)."""
    pl = net.pathloss
    if pl.is_bounded:
        raise DomainError("interference_constant requires the power-law model (c0 = 0)")
    return math.pi * net.link_distance**2 * _gamma_reflection(pl.delta)


def bounded_interference_constant(net: NetworkParams) -> float:
    """Bounded-attenuation analogue, with the intensity folded in:
    lambda * pi * (c0 + R^alpha) * Gamma(1 + delta) * Gamma(1 - delta)."""
    pl = net.pathloss
    if not pl.is_bounded:
        raise DomainError("bounded_interference_constant requires c0 > 0")
    scale = pl.c0 + net.link_distance**pl.alpha
    return net.intensity * math.pi * scale * _gamma_reflection(pl.delta)


@lru_cache(maxsize=None)
def _weighted_rows(ba: BandwidthConfig, k: int) -> np.ndarray:
    """Rows t = 1..k of ``window_overlap_table`` (disjoint chunk sets do not
    interfere), each entry times its interference weight t / k."""
    return window_overlap_table(ba, k)[:, 1:] * (np.arange(1, k + 1) / k)


@lru_cache(maxsize=None)
def _log_success(net: NetworkParams, ba: BandwidthConfig, k: int):
    """Map from a column of thresholds to the (theta x row) matrix of log
    P(SIR > theta | typical chunk set), each entry from its own threshold
    alone; the theta-free terms are computed once per (net, ba, k)."""
    pl, ratio = net.pathloss, np.arange(1, k + 1) / k
    d = pl.delta
    if pl.is_bounded:
        rows, c0, minus_b = _weighted_rows(ba, k), pl.c0, -bounded_interference_constant(net)
        spread = ratio * (c0 + net.link_distance**pl.alpha)
        return lambda column: (
            minus_b * column * np.einsum("st,qt->qs", rows, (column * spread + c0) ** (d - 1.0))
        )
    loads = np.ascontiguousarray(window_overlap_table(ba, k)[:, 1:]) @ ratio**d
    minus_c = -net.intensity * interference_constant(net)
    return lambda column: minus_c * column**d * loads


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
    return float(_success_probs(net, ba, k, np.array([theta]))[0])


def _success_probs(net: NetworkParams, ba: BandwidthConfig, k: int, thetas: np.ndarray):
    """``success_prob_k`` at each threshold of a 1-D array (checked k,
    thresholds >= 0). Each threshold's row of ``_log_success`` and its sum
    over the (equally likely) typical chunk sets are computed on their own,
    so entry j is the scalar call at thetas[j] bit for bit."""
    logs = _log_success(net, ba, k)(thetas[:, None])
    return np.exp(logs).sum(axis=-1) / logs.shape[-1]


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
    def integrand(y):
        return success_prob_k(net, ba, k, 2.0**y - 1.0)

    y_max = 8.0
    while (f_end := integrand(y_max)) > _INTEGRAND_FLOOR and y_max < _Y_CAP:
        y_max = min(2.0 * y_max, _Y_CAP)
    truncated = f_end > _INTEGRAND_FLOOR

    # with theta = 2^y - 1 = e^v, I_k ln 2 is the integral over v of
    # P(SIR > e^v) / (1 + e^-v), analytic in |Im v| < min(pi, pi alpha / 4)
    # and decaying at both ends, so the trapezoid rule converges
    # geometrically as its step halves. Each level adds the midpoints of the
    # one before; total is the trapezoid sum with the ends at half weight
    def v_integrand(v):
        return _success_probs(net, ba, k, np.exp(v)) / (1.0 + np.exp(-v))

    lo, hi = math.log(_THETA_MIN), math.log(2.0**y_max - 1.0)
    n = math.ceil(hi - lo)
    h = (hi - lo) / n
    f = v_integrand(np.linspace(lo, hi, n + 1))
    total = f.sum() - 0.5 * (f[0] + f[-1])
    for _ in range(_MAX_HALVINGS):
        coarse = h * total
        h *= 0.5
        total += v_integrand(lo + h * np.arange(1, 2 * n, 2)).sum()
        n *= 2
        if abs(h * total - coarse) <= max(math.log(2.0) * _ABS_TOL, _REL_TOL * h * total):
            break
    else:
        raise IntegrationError(
            f"throughput quadrature did not converge: levels {h * total:.12g} and {coarse:.12g} "
            f"still differ after {_MAX_HALVINGS} halvings of the step"
        )
    value = float(h * total) / math.log(2.0)

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
    per_type = {k: view(net, ba, k) for k, p_k in enumerate(ba.type_probs, start=1) if p_k > 0.0}
    return ThroughputResult(
        ba.mix_average(lambda k: per_type[k].value),
        ba.mix_average(lambda k: per_type[k].tail_bound),
        max(r.y_max for r in per_type.values()),
        any(r.truncated for r in per_type.values()),
    )


def shannon_throughput_overall(net: NetworkParams, ba: BandwidthConfig) -> ThroughputResult:
    """Throughput with the typical user's type averaged over the mix."""
    return _mix_view(net, ba, shannon_throughput_k)


def shannon_throughput_per_joule_overall(
    net: NetworkParams, ba: BandwidthConfig
) -> ThroughputResult:
    """Mix-averaged throughput per joule."""
    return _mix_view(net, ba, shannon_throughput_per_joule_k)
