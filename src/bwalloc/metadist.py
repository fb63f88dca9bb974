"""Distribution of the conditional success probability over point patterns.

Given the interferer positions, the success probability of a type-k link
(averaged over fading and everyone's chunk draws) is a product over
interferers; ``_conditional_success`` evaluates it for one sampled network,
for the simulator's closed-form conditional route. Its moments of any complex
order come out of the planar probability generating functional as a single
radial integral; inverting the imaginary-order moments recovers the full
distribution, and matching two real moments to a beta law gives a cheap
approximation.

The inversion (Gil-Pelaez) integrates Im(e^{-ju ln x} M(ju))/u over u >= 0 by
the trapezoid rule, on a u grid built once per (network, allocation, k, theta)
and shared by every reliability threshold x. The coarsest level extends block
by block until |M(ju)| stays below a fixed cutoff on a whole block. Each finer
level halves the step and adds only the midpoints. The rule of step h errs
only by the mass of |ln P_s - ln x| >= 2 pi / h (Davies, Biometrika 1973), so
a value is accepted once two consecutive levels agree. When the last halving
still disagrees, or when |M(ju)| has not fallen below the cutoff by a hard
cap on u, the inversion raises ``OscillatoryIntegrationError`` and names the
gap or the tail size, and ``meta_ccdf(method="auto")`` falls back to beta.

Moments of every order, real (the beta fit) or imaginary (the inversion), come
from one radial profile: Gauss-Legendre rules in log r out to R (or to where
the strongest interferer's SIR term falls to 1) and on a power map of the far
tail, plus an exact origin-disk term. It is doubled from 256 nodes until two
rungs agree on probe orders, and the coarser of the two is kept, since the
finer one has just confirmed it. All Gauss-Legendre nodes come from Newton's
method on the Legendre recurrence, with no eigensolver. A moment at u = a + b,
with a the start of u's block, reuses the block start's terms, so sin and cos
run once per block start and once per block offset rather than once per u. The
sums over radial nodes that combine them are real matrix-vector products, two
per block offset. These still wake OpenBLAS's worker threads: on a 2-CPU host,
fig3 took 34-85 ms of CPU for 29-50 ms of wall, and CPU equalled wall with one
BLAS thread. One matrix-matrix product per chunk of block starts instead raised
the ``figures`` benchmark's CPU time from 0.086 to 0.100 s at the same wall
time (0.051 against 0.050 s, medians of 10 pairs), so the products stay per
offset.

Given the typical user's chunk set, the per-interferer factor reads one row
of ``window_overlap_table``. Each distinct row gets its own radial profile,
and every moment and ccdf is the mean over the equally likely rows: one row
in random mode, one per typical window start in contiguous mode.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .allocation import _check_type, window_overlap_table
from .errors import DomainError, IntegrationError, OscillatoryIntegrationError
from .params import BandwidthConfig, NetworkParams, _check_real

#: Inversion grid: the trapezoid step in u on the coarsest level, the nodes
#: per block (the coarsest level also grows this many blocks at a time), the
#: |M(ju)| below which a block ends the grid, the hard cap on u, the largest
#: gap between two levels that a value may show, and the most halvings.
_U_STEP = math.pi / 10
_U_BLOCK = 32
_TAIL_CUTOFF = 1e-6
_U_CAP = 1e4
_LEVEL_TOL = 1e-8
_MAX_HALVINGS = 4

#: Gauss-Legendre roots: the most Newton steps, and the step size below which
#: a root counts as settled (a step this small leaves an error far below one
#: ulp, since Newton converges quadratically from Tricomi's guesses).
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-14

#: The moment kernel takes block starts in chunks of at most a quarter of
#: this many (start x radial node) entries.
_BLOCK_ENTRIES = 1 << 17

#: Radial profile: nodes of each rung of the ladder, the probe gap relative to
#: 1 + |log M| at which two rungs agree, (eps / min(R, r_s))^alpha for the
#: origin disk r < eps, and the share of each rung's nodes on the far tail.
_RUNGS = (256, 512, 1024, 2048, 4096)
_RUNG_TOL = 1e-12
_ORIGIN_RATIO = 1e-12
_TAIL_SHARE = 4

#: Variance below this is treated as a degenerate (point-mass) distribution.
_DEGENERATE_VAR = 1e-14

#: Beta fit: relative step at which the incomplete-beta continued fraction
#: stops, and the most terms it may take.
_BETA_CF_TOL = 1e-15
_BETA_CF_TERMS = 10_000
#: Both beta shapes at least this large take the Stirling front factor.
_STIRLING_SHAPE = 30.0


def _check_x(x: float) -> float:
    """A reliability threshold, in [0, 1]."""
    return _check_real(x, "reliability threshold x", 0.0, 1.0, closed=True, error=DomainError)


def _check_theta(theta: float) -> float:
    """An SIR threshold of the conditional success probability, finite and > 0."""
    return _check_real(theta, "theta", 0.0, error=DomainError)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence finds the non-negative roots
    of P_n from Tricomi's guesses (1 - (n - 1) / (8 n^3)) cos(pi (4i - 1) /
    (4n + 2)), written as a sine so that the middle root of an odd n starts,
    and stays, at exactly 0; the negative half is their mirror image. The
    weights are 2 / ((1 - x)(1 + x) P_n'(x)^2) at the converged roots, times
    1 + 2x (P_n / P_n') / (1 - x^2), their first-order change over one more
    Newton step: a weight's sensitivity to its node, 2x / (1 - x^2), peaks at
    the ends. Raises ``IntegrationError`` when a root has not settled within
    _NEWTON_STEPS.
    """
    j = np.arange(1 - n % 2, n, 2, dtype=float)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.sin(math.pi * j / (2 * n + 1))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise IntegrationError(
            f"{n}-point Gauss-Legendre roots did not settle in {_NEWTON_STEPS} Newton steps"
        )
    p, dp = _legendre(n, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_minus_x2)
    nodes = np.concatenate([-x[::-1], x[n % 2 :]])
    weights = np.concatenate([w[::-1], w[n % 2 :]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _interference_discount(scaled, q):
    """h(r) = sum_{t>=1} q_t s_t / (1 + s_t), in [0, 1], from the scales
    ``scaled`` = s_t(r) of ``_sir_scales``.

    The per-interferer factor of the conditional success probability is
    1 - h(r). Writing it through the discount keeps the far tail structurally
    exact: rounding in the overlap weights must not leave a constant residue
    in log(1 - h), where the far tail's radial weights would amplify it.
    """
    # s / (1 + s) keeps its relative accuracy where s is tiny; it is 1 at
    # s = inf (power law toward the origin)
    frac = np.divide(scaled, 1.0 + scaled, out=np.ones_like(scaled), where=np.isfinite(scaled))
    return (q[1:, None] * frac).sum(axis=0)


def _sir_scales(net, k, theta, r, signal):
    """s_t(r) = theta (t/k) l(r)/l(R), one row per overlap t = 1..k, where
    ``signal`` is l(R), ``net.signal_attenuation()``."""
    ts = np.arange(1, k + 1, dtype=float)
    ratio = np.atleast_1d(np.asarray(net.pathloss.attenuation(r), dtype=float) / signal)
    return theta * (ts / k)[:, None] * ratio[None, :]


def _conditional_success(net, ba, k, theta, distance, start, signal) -> float:
    """Success probability of a type-k link given its interferers'
    distances and its window start: a product of per-interferer factors
    over the window's row of ``window_overlap_table``; 1 with no
    interferers. ``signal`` is ``net.signal_attenuation()``."""
    q = window_overlap_table(ba, k)[start]
    scaled = _sir_scales(net, k, theta, distance, signal)
    return float(np.prod(1.0 - _interference_discount(scaled, q)))


def _log_survival(net, k, theta, r, q):
    """log(1 - h(r)) at finite attenuations: log1p(-h) where h <= 1/2, else
    log(q_0 + sum_t q_t / (1 + s_t)), which keeps a small 1 - h's digits."""
    scaled = _sir_scales(net, k, theta, r, net.signal_attenuation())
    h = _interference_discount(scaled, q)
    survival = q[0] + (q[1:, None] / (1.0 + scaled)).sum(axis=0)
    return np.where(h <= 0.5, np.log1p(-np.minimum(h, 0.5)), np.log(survival))


class _RadialProfile:
    """Gauss-Legendre discretization of the moment exponent's radial integral
    int_0^inf (1 - (1 - h)^b) r dr for one overlap law ``q`` (a row of
    ``window_overlap_table``).

    The strongest interferer's s_k = theta l(r) / l(R) falls to 1 at r_s,
    where imaginary orders oscillate. Three quarters of each rung's nodes sit
    evenly in log r from eps to r_1 = max(R, r_s); the rest sit on the far
    tail r = r_1 s^(-p), s in (0, 1], whose integrand ~ s^(p (alpha - 2) - 1)
    stays bounded at s = 0. ``_disk`` integrates r < eps exactly, with
    (eps / min(R, r_s))^alpha = _ORIGIN_RATIO. Nodes are doubled until the
    exponent stabilizes on real and imaginary probe orders, so one grid
    serves every moment order requested afterwards. The profile also holds
    the inversion's u grid, built level by level on first use.
    """

    _PROBES = (1.0, 7.0j, 31.0j)

    def __init__(self, net: NetworkParams, k: int, theta: float, q: np.ndarray):
        self.prefactor = 2.0 * math.pi * net.intensity
        r_link, alpha = net.link_distance, net.pathloss.alpha
        self._levels = []
        cross = theta / net.signal_attenuation() - net.pathloss.c0
        r_s = cross ** (1.0 / alpha) if cross > 0.0 else r_link
        # the tail integrand's second power, s^(p (2 alpha - 2) - 1), sets the
        # rule's accuracy: p = 1 / (alpha - 2) puts it >= 2 while alpha <= 4, and
        # p = 2 / (alpha - 2) above 3 (near alpha = 2, r^2 would overflow)
        p = (1.0 if alpha <= 4.0 else 2.0) / (alpha - 2.0)
        r_1, eps = max(r_link, r_s), min(r_link, r_s) * _ORIGIN_RATIO ** (1.0 / alpha)
        self._eps2, span = eps * eps, math.log(eps / r_1)
        self._disk_log = float(_log_survival(net, k, theta, eps, q)[0])
        self._disk_power = alpha if net.pathloss.c0 == 0.0 and q[0] == 0.0 else 0.0
        prev = None
        for n_nodes in _RUNGS:
            s_near, w_near = _interval_rule(n_nodes - n_nodes // _TAIL_SHARE)
            s_far, w_far = _interval_rule(n_nodes // _TAIL_SHARE)
            near, far = r_1 * np.exp(span * s_near), r_1 * s_far**-p
            self._log_factor = _log_survival(net, k, theta, np.concatenate([near, far]), q)
            self._weight = np.concatenate([-span * w_near * near**2, p * w_far * far**2 / s_far])
            probes = np.array([self.log_moment(b) for b in self._PROBES])
            tol = _RUNG_TOL * (1 + np.abs(probes))
            if prev is not None and np.all(np.abs(probes - prev[0]) <= tol):
                # rung n confirms rung n / 2, which is then kept: it is
                # accurate already and costs half as much per moment
                self._log_factor, self._weight = prev[1]
                break
            prev = probes, (self._log_factor, self._weight)
        else:
            # real orders read the profile too, so the beta fit cannot stand in
            raise IntegrationError("radial moment integral did not converge on the node ladder")
        # E[ln P_s], the exponent's slope at b = 0, for the inversion's u = 0 node
        disk_slope = self._eps2 * (self._disk_log - self._disk_power / 2) / 2
        self._mean_log = self.prefactor * (self._log_factor @ self._weight + disk_slope)

    def log_moment(self, b: complex) -> complex:
        """Exponent of the order-b moment."""
        # 1 - exp(b L) without cancellation on the far tail, where L is tiny
        weighted = np.sum(np.expm1(b * self._log_factor) * self._weight)
        return self.prefactor * (weighted - self._disk(b))

    def moment(self, b: complex) -> complex:
        return np.exp(self.log_moment(b))

    def _disk(self, b):
        """int_0^eps (1 - (1 - h)^b) r dr = eps^2 / 2 - (1 - h(eps))^b eps^2 / (c b + 2),
        exact for 1 - h ~ r^c: c = alpha under the power law with q_0 = 0, else
        c = 0, as 1 - h is then flat on the disk to about _ORIGIN_RATIO."""
        return self._eps2 * (0.5 - np.exp(b * self._disk_log) / (self._disk_power * b + 2.0))

    def _polar_grid(
        self, starts: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """|M(ju)| and arg M(ju) at u = a + b for every block start a (rows)
        and offset b (columns).

        M(ju) = exp(-prefactor (G(u) + D(ju))) with the disk term D (see
        ``_disk``) and G(u) = sum_r w_r (1 - e^{j u L_r}). As
        G(a + b) = G(a) + sum_r w_r e^{j a L_r} (1 - e^{j b L_r}), sin and cos
        run on (starts + offsets) x R entries instead of on every (u x R)
        entry. Each 1 - e^{jx} takes the half-angle form
        2 sin(x/2)^2 - 2j sin(x/2) cos(x/2), which does not cancel on the far
        tail, where x is tiny. The sums over r are real matrix-vector
        products, two per offset on a chunk of starts, which cost less CPU
        time than one matrix-matrix product per chunk (module docstring).
        """
        weight = self._weight
        half_angle = 0.5 * self._log_factor
        # w_r (1 - e^{j b L_r}) for every offset b
        d_re, d_im = _half_angle_products(np.multiply.outer(offsets, half_angle))
        d_re *= 2.0 * weight
        d_im *= -2.0 * weight
        g_re = np.empty((starts.size, offsets.size))
        g_im = np.empty((starts.size, offsets.size))
        rows = max(1, _BLOCK_ENTRIES // (4 * weight.size))
        for lo in range(0, starts.size, rows):
            chunk = slice(lo, lo + rows)
            rot = _half_angle_products(np.multiply.outer(starts[chunk], half_angle))
            g_re[chunk] = 2.0 * (rot[0] @ weight)[:, None]
            g_im[chunk] = -2.0 * (rot[1] @ weight)[:, None]
            # e^{j a L} = 1 - 2 sin(aL/2)^2 + 2j sin(aL/2) cos(aL/2)
            rot[0] *= -2.0
            rot[0] += 1.0
            rot[1] *= 2.0
            n_rows = rot.shape[1]
            rot = rot.reshape(2 * n_rows, -1)
            for i in range(offsets.size):
                # rows: [Re e^{jaL}; Im e^{jaL}] against Re and Im of w (1 - e^{jbL})
                re = rot @ d_re[i]
                im = rot @ d_im[i]
                g_re[chunk, i] += re[:n_rows] - im[n_rows:]
                g_im[chunk, i] += im[:n_rows] + re[n_rows:]
        disk = self._disk(1j * np.add.outer(starts, offsets))
        return np.exp(-self.prefactor * (g_re + disk.real)), -self.prefactor * (g_im + disk.imag)

    def _inversion_level(self, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes u > 0, coefficients |M(ju)| / u and phases arg M(ju) that the
        trapezoid rule of step _U_STEP / 2**level adds to the coarser levels,
        built on first use: the multiples of _U_STEP on level 0, which fixes
        the blocks (a, a + _U_BLOCK * _U_STEP], and the odd multiples of the
        step on each finer level.
        """
        for new in range(len(self._levels), level + 1):
            if new == 0:
                offsets = _U_STEP * np.arange(1, _U_BLOCK + 1)
                amp, arg = self._grow_coarsest(offsets)
            else:
                offsets = _U_STEP / 2**new * np.arange(1, _U_BLOCK << new, 2)
                amp, arg = self._polar_grid(self._starts, offsets)
            u = np.add.outer(self._starts, offsets).ravel()
            self._levels.append((u, amp.ravel() / u, arg.ravel()))
        return self._levels[level]

    def _grow_coarsest(self, offsets: np.ndarray) -> list[np.ndarray]:
        """|M(ju)| and arg M(ju), one row per block of _U_BLOCK nodes, on
        blocks added until a whole block has |M(ju)| below _TAIL_CUTOFF, or
        up to _U_CAP. Records the block starts and the largest |M(ju)| on the
        last block."""
        width = _U_BLOCK * _U_STEP
        starts = width * np.arange(math.ceil(_U_CAP / width), dtype=float)
        parts = []
        for first in range(0, starts.size, _U_BLOCK):
            amp, arg = self._polar_grid(starts[first : first + _U_BLOCK], offsets)
            peaks = amp.max(axis=1)
            below = np.flatnonzero(peaks < _TAIL_CUTOFF)
            used = int(below[0]) + 1 if below.size else peaks.size
            parts.append((amp[:used], arg[:used]))
            if below.size:
                break
        self._starts = starts[: first + used]
        self._tail = float(peaks[used - 1])
        return [np.concatenate(a) for a in zip(*parts)]

    def ccdf(self, x: float) -> float:
        """Gil-Pelaez inversion at x in (0, 1), checked between consecutive
        halvings of the step. With Z = ln P_s - ln x, the node u = 0 takes
        half weight with the integrand's limit there, E[Z]."""
        ln_x = math.log(x)
        total = 0.5 * (self._mean_log - ln_x)
        value = None
        for level in range(_MAX_HALVINGS + 1):
            u, coef, arg = self._inversion_level(level)
            if self._tail >= _TAIL_CUTOFF:
                raise OscillatoryIntegrationError(
                    f"inversion grid reached u = {_U_CAP:g} with |M(ju)| still "
                    f"{self._tail:.3g} on its last block"
                )
            # Im(e^{-ju ln x} M(ju)) = |M(ju)| sin(arg M(ju) - u ln x)
            total += float(coef @ np.sin(arg - u * ln_x))
            prev, value = value, 0.5 + _U_STEP / 2**level * total / math.pi
            if prev is not None and abs(value - prev) <= _LEVEL_TOL:
                return min(1.0, max(0.0, value))
        raise OscillatoryIntegrationError(
            f"inversion at x = {x:g}: the two finest grid levels differ by {abs(value - prev):.3g}"
        )


def _half_angle_products(x: np.ndarray) -> np.ndarray:
    """sin(x)^2 and sin(x) cos(x), stacked on a new first axis."""
    out = np.empty((2, *x.shape))
    np.sin(x, out=out[0])
    np.cos(x, out=out[1])
    out[1] *= out[0]
    out[0] *= out[0]
    return out


def _interval_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on (0, 1)."""
    nodes, weights = _gauss_legendre(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


@lru_cache(maxsize=64)
def _profiles(net: NetworkParams, ba: BandwidthConfig, k: int, theta: float) -> tuple:
    # records are frozen, so one grid per distinct overlap-table row (windows
    # s and n - k - s share one) serves every moment order and threshold x
    rows, index = np.unique(window_overlap_table(ba, k), axis=0, return_inverse=True)
    built = [_RadialProfile(net, k, theta, q) for q in rows]
    return tuple(built[i] for i in index.ravel())


def moment_b_k(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float, b: complex
) -> complex:
    """Order-b moment of the conditional success probability of a type-k link.

    Every order reads the radial profiles, and the moment is the mean over
    the rows of ``window_overlap_table``: a float for real orders and a
    complex number otherwise.
    """
    theta = _check_theta(theta)
    k = _check_type(ba.n_chunks, k, "k")
    b = complex(b)
    mean = np.mean([p.moment(b if b.imag else b.real) for p in _profiles(net, ba, k, theta)])
    return complex(mean) if b.imag else float(mean)


def meta_ccdf_gilpelaez(
    net: NetworkParams, ba: BandwidthConfig, k: int, theta: float, x: float
) -> float:
    """P(conditional success probability > x) by inversion of the
    imaginary-order moments: 1/2 + (1/pi) int_0^inf Im(e^{-ju ln x} M_ju)/u du.

    The integral runs on each profile's cached u grid (see the module
    docstring), so every x after the first costs one dot product per level
    and overlap-table row; the ccdf is the mean over the rows.
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
    return float(np.mean([p.ccdf(x) for p in _profiles(net, ba, k, theta)]))


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
    return 1.0 - _regularized_beta(a, b, x)


def _regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, by its continued
    fraction (modified Lentz). The fraction converges fast for
    x < (a + 1) / (a + b + 2); above that, I_x(a, b) = 1 - I_{1-x}(b, a)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _regularized_beta(b, a, 1.0 - x)
    tiny = 1e-300

    def step(c: float, d: float, coef: float) -> tuple[float, float]:
        d = 1.0 + coef * d
        c = 1.0 + coef / c
        return (c if abs(c) > tiny else tiny), 1.0 / (d if abs(d) > tiny else tiny)

    c = 1.0
    # 1 - (a + b) x / (a + 1), without its cancellation near the switch
    d = (a * (1.0 - x) + 1.0 - b * x) / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, _BETA_CF_TERMS):
        c, d = step(c, d, m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)))
        frac *= d * c
        c, d = step(c, d, -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)))
        frac *= d * c
        if abs(d * c - 1.0) < _BETA_CF_TOL:
            return math.exp(_log_beta_front(a, b, x)) * frac / a
    raise IntegrationError(
        f"incomplete beta I_x(a, b) at a = {a:g}, b = {b:g}, x = {x:g}: continued "
        f"fraction did not settle in {_BETA_CF_TERMS} terms"
    )


def _log_beta_front(a: float, b: float, x: float) -> float:
    """log(x^a (1 - x)^b / B(a, b)).

    Below ``_STIRLING_SHAPE`` the log-gamma terms are summed as they are.
    Above it they grow like a log a and cancel. With one shape s below it
    and the other, L, above, lgamma(L + s) - lgamma(L) takes its Stirling
    form (L - 1/2) log1p(s / L) + s log(L + s) - s plus the series'
    corrections. With both above, Stirling's series is expanded around the
    mode x0 = a / (a + b): a log(x / x0) + b log((1 - x) / (1 - x0))
    + log(ab / (2 pi (a + b))) / 2 plus the corrections.
    """
    small, large = min(a, b), max(a, b)
    if small < _STIRLING_SHAPE:
        log_x = a * math.log(x) + b * math.log1p(-x)
        if large < _STIRLING_SHAPE:
            return log_x + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        rise = (
            (large - 0.5) * math.log1p(small / large)
            + small * math.log(large + small)
            - small
            + _stirling_correction(large + small)
            - _stirling_correction(large)
        )
        return log_x + rise - math.lgamma(small)
    n = a + b
    x0 = a / n
    d = x - x0
    return (
        a * _log_ratio(x, x0, d)
        + b * _log_ratio(1.0 - x, 1.0 - x0, -d)
        + 0.5 * math.log(a * b / (2.0 * math.pi * n))
        + _stirling_correction(n)
        - _stirling_correction(a)
        - _stirling_correction(b)
    )


def _log_ratio(y: float, y0: float, dy: float) -> float:
    """log(y / y0) given dy = y - y0: log1p(dy / y0) near y0, where dy is
    exact and the rounding of y0 cancels between the two terms of
    ``_log_beta_front``; the plain ratio further out, where dy has lost y's
    low digits."""
    return math.log1p(dy / y0) if abs(dy) < 0.5 * y0 else math.log(y / y0)


def _stirling_correction(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), to four terms;
    the first omitted term is below 1e-16 for z >= ``_STIRLING_SHAPE``."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def meta_ccdf(
    net: NetworkParams,
    ba: BandwidthConfig,
    k: int,
    theta: float,
    x: float,
    method: str = "gilpelaez",
) -> float:
    """Per-type ccdf with method selection: "gilpelaez", "beta", or "auto"
    (inversion, with the beta fit where the trapezoid ladder in u fails; a
    radial profile that does not converge raises for every method)."""
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
