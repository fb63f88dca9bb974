"""Distribution of the conditional success probability over point patterns.

Given the interferer positions, the success probability of a type-k link
(averaged over fading and everyone's chunk draws) is a product over
interferers. Its moments of any complex order come out of the planar
probability generating functional as a single radial integral; inverting the
imaginary-order moments recovers the full distribution, and matching two
real moments to a beta law gives a cheap approximation.

The inversion (Gil-Pelaez) integrates Im(e^{-ju ln x} M(ju))/u over u >= 0 on
a grid that is built once per (network, allocation, k, theta) and shared by
every reliability threshold x. The grid is a composite Gauss-Legendre rule on
u panels of fixed width. It extends panel by panel until |M(ju)| stays below
a fixed cutoff on a whole panel; the cutoff does not depend on x. Each value
is computed on two levels, with n and 2n nodes per panel, and once more with
4n nodes where those disagree (small x oscillates faster, at rate |ln x|).
When the two finest levels still disagree, or when |M(ju)| has not fallen
below the cutoff by a hard cap on u, the inversion raises
``OscillatoryIntegrationError`` and names the gap or the tail size, and
``meta_ccdf(method="auto")`` falls back to the beta fit.

The per-interferer factor uses ``type_averaged_overlap``, the overlap law
averaged over the typical user's chunk set. In random mode that is exact. In
contiguous mode every interferer overlaps the same typical window, so the
moments here are the window-averaged approximation: unlike
``metrics.success_prob_k``, they do not condition on the typical window.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import betainc as _betainc

from .allocation import _check_type, type_averaged_overlap
from .errors import DomainError, IntegrationError, OscillatoryIntegrationError
from .params import BandwidthConfig, NetworkParams

#: Inversion grid: width of the u panels, Gauss-Legendre nodes per panel on
#: the coarsest level, the |M(ju)| below which a panel ends the grid, the hard
#: cap on u, and the largest gap between two levels that a value may show.
_PANEL_WIDTH = 2.0
_PANEL_NODES = 8
_TAIL_CUTOFF = 1e-6
_U_CAP = 1e4
_LEVEL_TOL = 1e-8
_N_LEVELS = 3

#: Moments are evaluated in (u x radial node) blocks of at most this many
#: entries, and the coarsest level grows this many panels at a time.
_BLOCK_ENTRIES = 1 << 17
_PANELS_PER_STEP = 32

#: Variance below this is treated as a degenerate (point-mass) distribution.
_DEGENERATE_VAR = 1e-14


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or not 0.0 <= x <= 1.0:
        raise DomainError(f"reliability threshold x must be in [0, 1], got {x}")
    return x


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0.0:
        raise DomainError(f"theta must be finite and > 0, got {theta}")
    return theta


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _interference_discount(net, k, theta, r, q):
    """h(r) = sum_{t>=1} q_t (1 - 1/(1 + theta (t/k) l(r)/l(R))), in [0, 1).

    The per-interferer factor of the conditional success probability is
    1 - h(r). Writing it through the discount keeps the far tail structurally
    exact: rounding in the overlap weights must not leave a constant residue
    in log(1 - h), where the compactified radial weights would amplify it.
    """
    ts = np.arange(1, k + 1, dtype=float)
    ratio = np.atleast_1d(
        np.asarray(net.pathloss.attenuation(r), dtype=float) / net.signal_attenuation()
    )
    scaled = theta * (ts / k)[:, None] * ratio[None, :]
    # 1 - 1/(1+s) stays exact at s = inf (power law toward the origin)
    frac = 1.0 - 1.0 / (1.0 + scaled)
    return (q[1:, None] * frac).sum(axis=0)


class _RadialProfile:
    """Gauss-Legendre discretization of the moment exponent's radial integral.

    The half-line is compactified with r = R tan(v); nodes are doubled until
    the exponent stabilizes on real and imaginary probe orders, so one grid
    serves every moment order requested afterwards. The profile also holds
    the inversion's u grid, built level by level on first use.
    """

    _PROBES = (1.0, 7.0j, 31.0j)

    def __init__(self, net: NetworkParams, ba: BandwidthConfig, k: int, theta: float):
        self.prefactor = 2.0 * math.pi * net.intensity
        r_link = net.link_distance
        q = type_averaged_overlap(ba, k)
        self._levels = [None] * _N_LEVELS
        self._tail = math.inf
        prev = None
        for n_nodes in (256, 512, 1024, 2048, 4096):
            nodes, weights = _gauss_legendre(n_nodes)
            v = (nodes + 1.0) * (math.pi / 4.0)
            w = weights * (math.pi / 4.0)
            r = r_link * np.tan(v)
            jac = r_link / np.cos(v) ** 2
            discount = _interference_discount(net, k, theta, r, q)
            with np.errstate(divide="ignore"):
                self._log_factor = np.log1p(-discount)
            if not np.all(np.isfinite(self._log_factor)):
                # a discount of exactly 1 (power law, q_0 = 0) recurs on every
                # finer rung, whose inner node only moves closer to the origin
                break
            self._weight = w * r * jac
            probes = np.array([self.log_moment(b) for b in self._PROBES])
            if prev is not None and np.all(np.abs(probes - prev) < 5e-8 * (1 + np.abs(probes))):
                return
            prev = probes
        # only complex orders use the profile, so this is a failure of the
        # inversion and meta_ccdf(method="auto") may fall back to beta
        raise OscillatoryIntegrationError(
            "radial moment integral did not converge on the node ladder"
        )

    def log_moment(self, b: complex) -> complex:
        """Exponent of the order-b moment."""
        if b == 0:
            return 0.0
        return -self.prefactor * np.sum((1.0 - np.exp(b * self._log_factor)) * self._weight)

    def moment(self, b: complex) -> complex:
        return np.exp(self.log_moment(b))

    def _moment_polar(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|M(ju)| and arg M(ju) at the real orders u, one bounded block of
        (u x radial node) entries at a time."""
        amp = np.empty(u.size)
        arg = np.empty(u.size)
        rows = max(1, _BLOCK_ENTRIES // self._log_factor.size)
        for lo in range(0, u.size, rows):
            half = np.multiply.outer(u[lo : lo + rows], 0.5 * self._log_factor)
            s = np.sin(half)
            c = np.cos(half, out=half)
            # 1 - cos(t) = 2 sin(t/2)^2 and sin(t) = 2 sin(t/2) cos(t/2): no
            # cancellation on the far tail, where t is tiny
            c *= s
            s *= s
            amp[lo : lo + rows] = np.exp(-2.0 * self.prefactor * (s @ self._weight))
            arg[lo : lo + rows] = 2.0 * self.prefactor * (c @ self._weight)
        return amp, arg

    def _inversion_level(self, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes u, weights w |M(ju)| / u and phases arg M(ju) of the
        composite rule with _PANEL_NODES * 2**level nodes on each u panel,
        built on first use. Level 0 fixes the panels, so it is built first;
        finer levels reuse them.
        """
        if self._levels[level] is None:
            n = _PANEL_NODES << level
            if level == 0:
                u, w, amp, arg = self._grow_coarsest(n)
            else:
                u, w = _panel_rule(n, 0, self._n_panels)
                amp, arg = self._moment_polar(u)
            self._levels[level] = (u, w * amp / u, arg)
        return self._levels[level]

    def _grow_coarsest(self, n: int) -> list[np.ndarray]:
        """u, w, |M(ju)| and arg M(ju) of the n-point rule on panels added
        until a whole panel has |M(ju)| below _TAIL_CUTOFF, or up to _U_CAP.
        Records the panel count and the largest |M(ju)| on the last panel."""
        n_cap = int(_U_CAP / _PANEL_WIDTH)
        parts = []
        for first in range(0, n_cap, _PANELS_PER_STEP):
            rule = _panel_rule(n, first, min(_PANELS_PER_STEP, n_cap - first))
            polar = self._moment_polar(rule[0])
            peaks = polar[0].reshape(-1, n).max(axis=1)
            below = np.flatnonzero(peaks < _TAIL_CUTOFF)
            used = int(below[0]) + 1 if below.size else peaks.size
            parts.append([a[: n * used] for a in (*rule, *polar)])
            if below.size:
                break
        self._n_panels = first + used
        self._tail = float(peaks[used - 1])
        return [np.concatenate(a) for a in zip(*parts)]

    def ccdf(self, x: float) -> float:
        """Gil-Pelaez inversion at x in (0, 1), checked between grid levels."""
        ln_x = math.log(x)
        prev = None
        for level in range(_N_LEVELS):
            u, coef, arg = self._inversion_level(level)
            if self._tail >= _TAIL_CUTOFF:
                raise OscillatoryIntegrationError(
                    f"inversion grid reached u = {_U_CAP:g} with |M(ju)| still "
                    f"{self._tail:.3g} on its last panel"
                )
            # Im(e^{-ju ln x} M(ju)) = |M(ju)| sin(arg M(ju) - u ln x)
            value = 0.5 + float(coef @ np.sin(arg - u * ln_x)) / math.pi
            if prev is not None:
                gap = abs(value - prev)
                if gap <= _LEVEL_TOL:
                    return min(1.0, max(0.0, value))
            prev = value
        raise OscillatoryIntegrationError(
            f"inversion at x = {x:g}: the two finest grid levels differ by {gap:.3g}"
        )


def _panel_rule(n: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each of the
    u panels first, ..., first + count - 1."""
    nodes, weights = _gauss_legendre(n)
    half = 0.5 * _PANEL_WIDTH
    lo = _PANEL_WIDTH * np.arange(first, first + count, dtype=float)
    u = (lo[:, None] + half * (nodes + 1.0)[None, :]).ravel()
    return u, np.tile(half * weights, count)


@lru_cache(maxsize=64)
def _profile(net: NetworkParams, ba: BandwidthConfig, k: int, theta: float) -> _RadialProfile:
    # parameter records are frozen, so one converged grid serves all the
    # moment orders and reliability thresholds evaluated against it
    return _RadialProfile(net, ba, k, theta)


def moment_b_k(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float, b: complex
) -> complex:
    """Order-b moment of the conditional success probability of a type-k link.

    Real orders are integrated adaptively on the compactified half-line;
    complex orders go through the converged radial grid, which tolerates the
    oscillation that defeats generic adaptive rules. Returns a float for real
    orders and a complex number otherwise. In contiguous mode the overlap law
    is averaged over the typical window (see the module docstring), so the
    first moment lies at or below ``success_prob_k`` there.
    """
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    b = complex(b)
    if b == 0:
        return 1.0
    if b.imag != 0.0:
        return complex(_profile(net, ba, k, theta).moment(b))

    b_real = b.real
    r_link = net.link_distance
    q = type_averaged_overlap(ba, k)

    def integrand(v: float) -> float:
        r = r_link * math.tan(v)
        jac = r_link / math.cos(v) ** 2
        h = float(_interference_discount(net, k, theta, r, q)[0])
        # 1 - (1 - h)^b without cancellation on the far tail
        return -math.expm1(b_real * math.log1p(-h)) * r * jac

    out = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-12, limit=200, full_output=1)
    if len(out) > 3:
        raise IntegrationError(f"moment quadrature failed: {out[3]}")
    return float(np.exp(-2.0 * math.pi * net.intensity * out[0]))


def meta_ccdf_gilpelaez(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float, x: float
) -> float:
    """P(conditional success probability > x) by inversion of the
    imaginary-order moments: 1/2 + (1/pi) int_0^inf Im(e^{-ju ln x} M_ju)/u du.

    The integral runs on the profile's cached u grid (see the module
    docstring), so every x after the first costs one dot product per level.
    Raises ``OscillatoryIntegrationError`` when |M(ju)| has not fallen below
    the tail cutoff by the cap on u, or when the two finest levels still
    differ by more than the tolerance.
    """
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    x = _check_x(x)
    if x == 0.0:
        return 1.0
    if x == 1.0:
        return 0.0
    return _profile(net, ba, k, theta).ccdf(x)


def beta_shape_parameters(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float
) -> tuple[float, float]:
    """Shape pair of the beta law matching the first two moments of the
    conditional success probability. Raises on degenerate variance."""
    m1 = float(moment_b_k(net, ba, k, theta, 1.0))
    m2 = float(moment_b_k(net, ba, k, theta, 2.0))
    var = m2 - m1 * m1
    if var < _DEGENERATE_VAR:
        raise DomainError("conditional success probability is degenerate; no beta fit")
    spread = m1 * (1.0 - m1) / var - 1.0
    if spread <= 0.0:
        raise DomainError("moment pair is inconsistent with a beta law")
    return m1 * spread, (1.0 - m1) * spread


def meta_ccdf_beta(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float, x: float
) -> float:
    """Beta approximation of the conditional-success ccdf via two-moment
    matching; degenerates gracefully to a step at the mean."""
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    x = _check_x(x)
    try:
        a, b = beta_shape_parameters(net, ba, k, theta)
    except DomainError:
        m1 = float(moment_b_k(net, ba, k, theta, 1.0))
        return 1.0 if x < m1 else 0.0
    return float(1.0 - _betainc(a, b, x))


def meta_ccdf(
    net: NetworkParams,
    ba: BandwidthConfig,
    k: int,
    theta: float,
    x: float,
    method: str = "gilpelaez",
) -> float:
    """Per-type ccdf with method selection: "gilpelaez", "beta", or "auto"
    (inversion with beta fallback on oscillatory failure)."""
    if method == "gilpelaez":
        return meta_ccdf_gilpelaez(net, ba, k, theta, x)
    if method == "beta":
        return meta_ccdf_beta(net, ba, k, theta, x)
    if method == "auto":
        try:
            return meta_ccdf_gilpelaez(net, ba, k, theta, x)
        except OscillatoryIntegrationError:
            return meta_ccdf_beta(net, ba, k, theta, x)
    raise DomainError(f"unknown method {method!r}")


def meta_ccdf_overall(
    net: NetworkParams,
    ba: BandwidthConfig,
    theta: float,
    x: float,
    method: str = "gilpelaez",
) -> float:
    """Ccdf with the typical user's type averaged over the mix."""
    theta = _check_theta(theta)
    x = _check_x(x)
    return ba.mix_average(lambda k: meta_ccdf(net, ba, k, theta, x, method=method))
