"""Moment and distribution-inversion tests.

Two independent routes meet here: the product-form closed expressions from
the metrics module and the radial moment integral. Their agreement at order 1
is the central cross-validation. mpmath tanh-sinh quadrature provides a third
opinion on the moment integral itself.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from bwalloc import metadist
from bwalloc.allocation import overlap_pmf_random, window_overlap_table
from bwalloc.cli import main
from bwalloc.errors import DomainError, IntegrationError, OscillatoryIntegrationError
from bwalloc.experiments import FIGURE_PRESETS
from bwalloc.metadist import (
    beta_shape_parameters,
    meta_ccdf,
    meta_ccdf_beta,
    meta_ccdf_gilpelaez,
    meta_ccdf_overall,
    moment_b_k,
)
from bwalloc.metrics import success_prob_k
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from bwalloc.simulate import SimConfig, estimate_meta_distribution

BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
POWER_LAW = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
BOUNDED_ALPHA25 = NetworkParams(0.2, 1.0, PathLossModel.bounded(2.5, 1.0))
BOUNDED_ALPHA28 = NetworkParams(0.2, 1.0, PathLossModel.bounded(2.8, 1.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)
CONTIGUOUS3 = BandwidthConfig.uniform(3, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)

THETA_MINUS5DB = 10 ** (-5 / 10)


def test_zeroth_moment_is_one():
    assert moment_b_k(BOUNDED, UNIFORM3, 1, 1.0, 0.0) == 1.0
    assert moment_b_k(POWER_LAW, UNIFORM3, 2, 0.3, 0) == 1.0


@pytest.mark.parametrize(
    "n, k", [(3, 1), (3, 3), (10, 1), (10, 4), (10, 10)], ids=lambda v: str(v)
)
def test_first_moment_equals_closed_form_contiguous(n, k):
    # each typical window start has its own profile, so M_1 is the mean of
    # the rows' moments, exactly as success_prob_k averages the rows
    ba = BandwidthConfig.uniform(n, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    for theta_db in (-5.0, 0.0, 10.0):
        theta = 10 ** (theta_db / 10)
        m1 = moment_b_k(BOUNDED, ba, k, theta, 1.0)
        assert abs(m1 - success_prob_k(BOUNDED, ba, k, theta)) <= 1e-10, theta_db


def test_mirror_rows_share_one_profile(monkeypatch):
    # contiguous rows s and n - k - s are equal, so the 10 typical windows of
    # n = 10, k = 1 need only 5 radial profiles
    built = []

    class CountingProfile(metadist._RadialProfile):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(metadist, "_RadialProfile", CountingProfile)
    ba = BandwidthConfig.uniform(10, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0)
    profiles = metadist._profiles.__wrapped__(BOUNDED, ba, 1, THETA_MINUS5DB)
    assert len(built) == 5 and len(profiles) == 10
    assert all(profiles[s] is profiles[9 - s] for s in range(10))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
def test_first_moment_equals_closed_form_power_law(k, theta):
    m1 = moment_b_k(POWER_LAW, UNIFORM3, k, theta, 1.0)
    closed = success_prob_k(POWER_LAW, UNIFORM3, k, theta)
    assert abs(m1 - closed) / closed < 1e-6


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("theta", [0.316, 1.0])
def test_first_moment_equals_closed_form_bounded(k, theta):
    m1 = moment_b_k(BOUNDED, UNIFORM3, k, theta, 1.0)
    closed = success_prob_k(BOUNDED, UNIFORM3, k, theta)
    assert abs(m1 - closed) / closed < 1e-6


@pytest.mark.parametrize("net", [BOUNDED, POWER_LAW], ids=["bounded", "power-law"])
@pytest.mark.parametrize("mode", list(AllocationMode), ids=lambda m: m.value)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_profile_first_moment_equals_closed_form(net, mode, k):
    # the profile's 1 - (1 - h)^b must not cancel on the far tail, where
    # log(1 - h) is tiny; computed as 1 - exp(b log(1 - h)), M_1 missed the
    # closed form by up to 2e-9
    ba = BandwidthConfig.uniform(5, mode=mode, power_per_chunk=2.0)
    profiles = metadist._profiles(net, ba, k, THETA_MINUS5DB)
    m1 = np.mean([p.moment(1.0) for p in profiles])
    assert abs(m1 - success_prob_k(net, ba, k, THETA_MINUS5DB)) <= 1e-14


def _oracle_moment(net, k, theta, b, q=None):
    """Moment integral evaluated with mpmath, written from scratch, for the
    overlap law ``q`` (default: uniform mix of three chunks, random mode).

    High working precision keeps the 1 - (...)**b cancellation on the far
    tail from polluting the tanh-sinh rule.
    """
    c0, alpha, r_link, lam = net.pathloss.c0, net.pathloss.alpha, net.link_distance, net.intensity
    if q is None:
        q = [0.0] * (k + 1)
        for i in (1, 2, 3):
            for t, mass in overlap_pmf_random(3, k, i).items():
                q[t] += float(mass) / 3.0

    with mpmath.workdps(50):

        def ell(r):
            return 1.0 / (c0 + r**alpha)

        l0 = ell(mpmath.mpf(r_link))

        def inner(r):
            # 1 - (1 - h)^b with h = sum_t q_t * c_t s / (1 + c_t s), written
            # so the far tail decays to an exact zero instead of a rounding
            # residue that would break the infinite integral
            s = ell(r) / l0
            h = mpmath.mpf(0)
            for t in range(1, k + 1):
                c_t = theta * mpmath.mpf(t) / k
                h += q[t] * c_t * s / (1 + c_t * s)
            return -mpmath.expm1(b * mpmath.log1p(-h))

        val = mpmath.quad(lambda r: inner(r) * r, [0, 1, 5, 25, mpmath.inf])
        return complex(mpmath.exp(-2 * mpmath.pi * lam * val))


@pytest.mark.parametrize("b", [1.0, 2.0, 0.5])
def test_real_moments_match_mpmath_oracle(b):
    oracle = _oracle_moment(BOUNDED, 2, 1.0, b).real
    got = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, b)
    assert got == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("u", [0.5, 3.0, 11.0])
def test_complex_moments_match_mpmath_oracle(u):
    oracle = _oracle_moment(BOUNDED, 2, 1.0, 1j * u)
    got = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, 1j * u)
    assert abs(got - oracle) < 1e-7


def _window_laws(n, k):
    """Overlap law against a uniform-mix interferer for each typical window
    start, enumerated over the interferer's windows."""
    laws = []
    for s in range(n - k + 1):
        typical = set(range(s, s + k))
        q = [0.0] * (k + 1)
        for i in range(1, n + 1):
            for u in range(n - i + 1):
                q[len(typical & set(range(u, u + i)))] += 1.0 / (n * (n - i + 1))
        laws.append(q)
    return laws


@pytest.mark.parametrize("b", [2.0, 4.0j])
def test_contiguous_moments_match_window_oracle(b):
    # M_b given the point pattern is a mean over the typical window starts;
    # at n = 3, k = 1 the middle chunk's law differs from the edge chunks'
    oracle = np.mean([_oracle_moment(BOUNDED, 1, 1.0, b, q) for q in _window_laws(3, 1)])
    got = moment_b_k(BOUNDED, CONTIGUOUS3, 1, 1.0, b)
    assert abs(got - oracle) < 1e-7


def test_real_moment_at_zero_q0_power_law():
    # k = n: every interferer shares a chunk (q_0 = 0), so under the power
    # law the discount reaches 1 toward the origin
    net = NetworkParams(0.01, 1.0, PathLossModel.power_law(6.0))
    m1 = moment_b_k(net, UNIFORM3, 3, 0.1, 1.0)
    assert abs(m1 - 0.98502601985164) < 1e-12
    assert abs(m1 - success_prob_k(net, UNIFORM3, 3, 0.1)) < 1e-12


@pytest.mark.parametrize("alpha", [4.0, 6.0])
def test_real_moments_at_zero_q0_match_oracle(alpha):
    net = NetworkParams(0.2, 1.0, PathLossModel.power_law(alpha))
    m1 = moment_b_k(net, UNIFORM3, 3, 1.0, 1.0)
    assert abs(m1 - success_prob_k(net, UNIFORM3, 3, 1.0)) < 1e-12
    assert m1 == pytest.approx(_oracle_moment(net, 3, 1.0, 1.0).real, rel=1e-10)
    m2 = moment_b_k(net, UNIFORM3, 3, 1.0, 2.0)
    assert m2 == pytest.approx(_oracle_moment(net, 3, 1.0, 2.0).real, rel=1e-10)


@pytest.mark.parametrize("c0", [0.0, 1.0], ids=["power-law", "bounded"])
def test_real_moments_converge_at_alpha_near_two(c0):
    # the far tail's integrand falls like r^(1 - alpha): r = R s^(-p) with
    # p = 1 / (alpha - 2) keeps it bounded in s
    for intensity in (0.001, 0.2, 5.0):
        net = NetworkParams(intensity, 1.0, PathLossModel(2.05, c0))
        m1 = moment_b_k(net, UNIFORM3, 1, 1.0, 1.0)
        assert abs(m1 - success_prob_k(net, UNIFORM3, 1, 1.0)) <= 1e-12 * m1, intensity
        assert m1 * m1 <= moment_b_k(net, UNIFORM3, 1, 1.0, 2.0) <= m1, intensity


@pytest.mark.parametrize("c0", [0.0, 1.0], ids=["power-law", "bounded"])
@pytest.mark.parametrize("alpha", [2.05, 2.2, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0])
def test_real_moments_on_the_domain_grid(alpha, c0):
    # M_1 is the closed form, and M_2 in [M_1^2, M_1] (variance >= 0 and
    # values in [0, 1]) at every point of the grid
    random, contiguous = AllocationMode.RANDOM, AllocationMode.CONTIGUOUS
    links = ((3, 1, random), (3, 3, random), (5, 2, contiguous), (5, 5, contiguous))
    for intensity, theta in itertools.product((0.001, 0.2, 5.0), (0.1, 1.0, 10.0)):
        net = NetworkParams(intensity, 1.0, PathLossModel(alpha, c0))
        for n, k, mode in links:
            ba = BandwidthConfig.uniform(n, mode=mode, power_per_chunk=2.0)
            point = (intensity, theta, n, k, mode.value)
            m1 = moment_b_k(net, ba, k, theta, 1.0)
            assert abs(m1 - success_prob_k(net, ba, k, theta)) <= 1e-10 * m1, point
            assert m1 * m1 <= moment_b_k(net, ba, k, theta, 2.0) <= m1, point


@pytest.mark.parametrize(
    "alpha, c0, k",
    [(4.0, 0.0, 3), (12.0, 0.0, 3), (4.0, 0.0, 1), (12.0, 1.0, 3)],
    ids=[
        "power-law-alpha4-k3",
        "power-law-alpha12-k3",
        "power-law-alpha4-k1",
        "bounded-alpha12-k3",
    ],
)
def test_origin_disk_term_does_not_depend_on_the_disk(monkeypatch, alpha, c0, k):
    # the disk r < eps adds an exact term: 1 - h ~ r^alpha there under the
    # power law with q_0 = 0 (k = n), and 1 - h is flat otherwise; so moving
    # the disk's edge from _ORIGIN_RATIO = 1e-12 to 1e-24 leaves every moment
    # in place
    net = NetworkParams(0.2, 1.0, PathLossModel(alpha, c0))
    q = window_overlap_table(UNIFORM3, k)[0]
    wide = metadist._RadialProfile(net, k, 1.0, q)
    monkeypatch.setattr(metadist, "_ORIGIN_RATIO", 1e-24)
    narrow = metadist._RadialProfile(net, k, 1.0, q)
    for b in (2.0, 3j, 7j):
        assert abs(wide.moment(b) - narrow.moment(b)) <= 1e-13, b


def test_moment_inequalities():
    m1 = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, 1.0)
    m2 = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, 2.0)
    m3 = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, 3.0)
    assert m1 * m1 <= m2 <= m1  # variance >= 0 and values in [0, 1]
    assert m3 <= m2 <= m1
    assert m3 >= 0.0


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moment_b_k(BOUNDED, UNIFORM3, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        moment_b_k(BOUNDED, UNIFORM3, 1, 0.0, 1.0)
    with pytest.raises(DomainError):
        moment_b_k(BOUNDED, UNIFORM3, 1, -2.0, 1.0)


# ---------------------------------------------------------------------------
# inversion


def test_gilpelaez_endpoints():
    assert meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 1, 1.0, 0.0) == 1.0
    assert meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 1, 1.0, 1.0) == 0.0


def test_gilpelaez_reported_reliability_values():
    # reliability 0.6 at -5 dB for the three types
    expected = {1: 0.78, 2: 0.74, 3: 0.73}
    for k, target in expected.items():
        got = meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, k, THETA_MINUS5DB, 0.6)
        assert abs(got - target) <= 0.02


def test_gilpelaez_nonincreasing_and_bounded():
    xs = np.linspace(0.02, 0.98, 25)
    vals = [meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 2, 1.0, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))


def test_gilpelaez_matches_empirical_cdf_of_conditional_probability():
    # direct Monte Carlo over point patterns, independent of the simulator
    # module: conditional success probability as a product over interferers
    rng = np.random.default_rng(31415)
    k, theta = 1, 1.0
    q = [0.0] * (k + 1)
    for i in (1, 2, 3):
        for t, mass in overlap_pmf_random(3, k, i).items():
            q[t] += float(mass) / 3.0
    q = np.array(q)
    ts = np.arange(k + 1)
    radius, n_real = 60.0, 4000
    vals = np.empty(n_real)
    for j in range(n_real):
        n = rng.poisson(0.2 * math.pi * radius**2)
        r = radius * np.sqrt(rng.random(n))
        ratio = (1.0 / (1.0 + r**4)) / 0.5
        factors = (q[None, :] / (1.0 + theta * (ts[None, :] / k) * ratio[:, None])).sum(axis=1)
        vals[j] = np.prod(factors)
    for x in (0.3, 0.5, 0.7, 0.9):
        emp = float(np.mean(vals > x))
        se = math.sqrt(max(emp * (1 - emp), 1e-6) / n_real)
        ana = meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, k, theta, x)
        assert abs(emp - ana) < 3.5 * se


@pytest.mark.parametrize(
    "net, theta, k",
    [
        (BOUNDED, THETA_MINUS5DB, 1),
        (BOUNDED, 1.0, 2),
        (POWER_LAW, 1.0, 1),
        (BOUNDED_ALPHA25, 1.0, 1),
        (BOUNDED_ALPHA28, 1.0, 1),
        (POWER_LAW, 1.0, 3),
    ],
    ids=[
        "bounded--5dB-k1",
        "bounded-0dB-k2",
        "power-law-0dB-k1",
        "bounded-alpha2.5-0dB-k1",
        "bounded-alpha2.8-0dB-k1",
        "power-law-0dB-k3",
    ],
)
def test_gilpelaez_reproduces_real_moments_and_is_nonincreasing(net, theta, k):
    # int_0^1 P(Ps > x) dx = E[Ps] and int_0^1 2x P(Ps > x) dx = E[Ps^2],
    # on a 100-point Gauss-Legendre rule over x in (0, 1)
    nodes, weights = np.polynomial.legendre.leggauss(100)
    xs, ws = 0.5 * (nodes + 1.0), 0.5 * weights
    ccdf = np.array([meta_ccdf_gilpelaez(net, UNIFORM3, k, theta, x) for x in xs])
    assert abs(ws @ ccdf - moment_b_k(net, UNIFORM3, k, theta, 1.0)) < 5e-7
    assert abs(ws @ (2.0 * xs * ccdf) - moment_b_k(net, UNIFORM3, k, theta, 2.0)) < 5e-7
    assert np.all(np.diff(ccdf) <= 1e-7)


def _per_entry_polar(profile, u):
    """|M(ju)| and arg M(ju) with sin and cos on every (u x radial node)
    entry, one bounded block at a time: the oracle of the block-factored
    kernel."""
    amp = np.empty(u.size)
    arg = np.empty(u.size)
    rows = max(1, metadist._BLOCK_ENTRIES // profile._log_factor.size)
    for lo in range(0, u.size, rows):
        half = np.multiply.outer(u[lo : lo + rows], 0.5 * profile._log_factor)
        s = np.sin(half)
        c = np.cos(half, out=half)
        c *= s
        s *= s
        amp[lo : lo + rows] = np.exp(-2.0 * profile.prefactor * (s @ profile._weight))
        arg[lo : lo + rows] = 2.0 * profile.prefactor * (c @ profile._weight)
    disk = profile._disk(1j * u)
    return amp * np.exp(-profile.prefactor * disk.real), arg - profile.prefactor * disk.imag


def _assert_polar_close(profile, u, amp, arg):
    ref_amp, ref_arg = _per_entry_polar(profile, u)
    assert np.max(np.abs(amp / ref_amp - 1.0)) <= 1e-13
    assert np.max(np.abs(arg - ref_arg) / (1.0 + np.abs(ref_arg))) <= 1e-13


@pytest.mark.parametrize(
    "net, theta, k",
    [
        (BOUNDED, THETA_MINUS5DB, 1),
        (BOUNDED, THETA_MINUS5DB, 2),
        (BOUNDED, THETA_MINUS5DB, 3),
        (POWER_LAW, 1.0, 1),
    ],
    ids=["fig3-k1", "fig3-k2", "fig3-k3", "power-law-0dB-k1"],
)
def test_panel_kernel_matches_per_entry_kernel(net, theta, k):
    (profile,) = metadist._profiles(net, UNIFORM3, k, theta)
    nodes = []
    for level in range(metadist._MAX_HALVINGS + 1):
        u, coef, arg = profile._inversion_level(level)
        _assert_polar_close(profile, u, coef * u, arg)
        # levels 0..l together hold every positive multiple of the step,
        # each node once
        nodes = np.sort(np.concatenate([nodes, u]))
        step = metadist._U_STEP / 2**level
        assert np.allclose(nodes, step * np.arange(1, nodes.size + 1), rtol=1e-14, atol=0.0)
    # any u >= 0, not only grid nodes: 40 block starts against the offset 0
    # and random offsets within a block
    width = metadist._U_BLOCK * metadist._U_STEP
    starts = width * np.arange(40.0)
    offsets = np.append(0.0, np.random.default_rng(3).uniform(0.0, width, 200))
    amp, arg = profile._polar_grid(starts, offsets)
    u = np.add.outer(starts, offsets).ravel()
    _assert_polar_close(profile, u, amp.ravel(), arg.ravel())


def test_fig3_profiles_keep_the_coarser_agreeing_rung(monkeypatch):
    # rung 512 (384 nodes on [eps, R], 128 on the far tail) confirms rung
    # 256 (192 and 64), which the profile then keeps
    sizes = []
    rule = metadist._gauss_legendre
    monkeypatch.setattr(metadist, "_gauss_legendre", lambda n: sizes.append(n) or rule(n))
    spec = FIGURE_PRESETS["fig3"]()
    theta = 10 ** (spec.theta_db / 10)
    for k in (1, 2, 3):
        sizes.clear()
        (profile,) = metadist._profiles.__wrapped__(spec.network, spec.bandwidth, k, theta)
        assert sizes == [192, 64, 384, 128]
        assert profile._log_factor.size == profile._weight.size == 256


def test_gilpelaez_reports_truncation_and_auto_falls_back_to_beta():
    # so sparse that |M(ju)| is still about 0.63 at the cap on u
    sparse = NetworkParams(1e-3, 1.0, PathLossModel.bounded(4.0, 1.0))
    for x in (0.5, 0.9):
        with pytest.raises(OscillatoryIntegrationError, match="still"):
            meta_ccdf_gilpelaez(sparse, UNIFORM3, 1, 1.0, x)
        assert meta_ccdf(sparse, UNIFORM3, 1, 1.0, x, method="auto") == meta_ccdf_beta(
            sparse, UNIFORM3, 1, 1.0, x
        )


def test_gilpelaez_reports_unresolved_oscillation():
    # Z = ln P_s - ln x >= 345 lies beyond 2 pi / h = 320 even on the finest
    # level, so every level aliases
    with pytest.raises(OscillatoryIntegrationError, match="differ by"):
        meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 2, 1.0, 1e-150)
    assert meta_ccdf(BOUNDED, UNIFORM3, 2, 1.0, 1e-150, method="auto") == meta_ccdf_beta(
        BOUNDED, UNIFORM3, 2, 1.0, 1e-150
    )
    # Z <= 27.6 is resolved after one halving (2 pi / h = 40)
    assert meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 2, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "net, k",
    [(BOUNDED, 2), (POWER_LAW, 1), (POWER_LAW, 3)],
    ids=["bounded-k2", "power-law-k1", "power-law-k3-q0-zero"],
)
def test_inversion_u0_limit_is_the_exponent_slope(net, k):
    # the u = 0 node of the trapezoid rule reads E[ln P_s] = d log M / db at
    # b = 0, here against a central difference of the real-order exponent
    (profile,) = metadist._profiles(net, UNIFORM3, k, 1.0)
    assert profile._disk_power == (4.0 if k == 3 and net is POWER_LAW else 0.0)
    step = 1e-5
    slope = (profile.log_moment(step) - profile.log_moment(-step)) / (2.0 * step)
    assert profile._mean_log == pytest.approx(slope.real, rel=1e-8)


def test_gilpelaez_inverts_power_law_alpha6_at_high_reliability():
    # the power law with q_0 = 0 at alpha = 6 must pass the level check up
    # to high reliability: otherwise "auto" prints the beta fit, 0.1237 at
    # x = 0.99 against a simulated 0.03
    net = NetworkParams(0.2, 1.0, PathLossModel.power_law(6.0))
    xs = (0.5, 0.95, 0.99)
    sim = SimConfig(n_realizations=4000, seed=3)
    for x, est in zip(xs, estimate_meta_distribution(net, UNIFORM3, sim, 3, 1.0, xs)):
        value = meta_ccdf_gilpelaez(net, UNIFORM3, 3, 1.0, x)
        assert meta_ccdf(net, UNIFORM3, 3, 1.0, x, method="auto") == value
        assert abs(value - est.value) <= 3.5 * est.std_error, x


@pytest.mark.parametrize(
    "net, k, expected, tol",
    [(BOUNDED_ALPHA28, 1, 2.41e-4, 1e-6), (POWER_LAW, 3, 0.4836, 1e-4)],
    ids=["bounded-alpha2.8-k1", "power-law-k3-q0-zero"],
)
def test_auto_inverts_near_alpha_two_and_at_zero_q0(net, k, expected, tol):
    # the far tail near alpha = 2 and the origin at q_0 = 0 (k = n under the
    # power law, 1 - h ~ r^alpha) both converge on the radial ladder
    value = meta_ccdf_gilpelaez(net, UNIFORM3, k, 1.0, 0.5)
    assert value == pytest.approx(expected, abs=tol)
    assert meta_ccdf(net, UNIFORM3, k, 1.0, 0.5, method="auto") == value


def test_node_ladder_failure_raises_integration_error(monkeypatch, tmp_path):
    # the beta fit reads the same radial profile, so it cannot stand in for
    # a ladder that never settles; one rung has no partner to confirm it.
    # Failed builds are not cached, so the cache stays clean.
    assert meta_ccdf_beta(POWER_LAW, UNIFORM3, 3, 1.0, 0.5) == pytest.approx(0.44201, abs=1e-5)
    monkeypatch.setattr(metadist, "_RUNGS", (256,))
    metadist._profiles.cache_clear()
    with pytest.raises(IntegrationError, match="node ladder") as failure:
        meta_ccdf(POWER_LAW, UNIFORM3, 3, 1.0, 0.5, method="auto")
    assert not isinstance(failure.value, OscillatoryIntegrationError)
    assert main(["meta-dist", "--out", str(tmp_path / "meta.csv")]) == 2


def test_beta_endpoints_and_mean():
    assert meta_ccdf_beta(BOUNDED, UNIFORM3, 1, 1.0, 0.0) == 1.0
    assert meta_ccdf_beta(BOUNDED, UNIFORM3, 1, 1.0, 1.0) == 0.0
    a, b = beta_shape_parameters(BOUNDED, UNIFORM3, 2, 1.0)
    m1 = moment_b_k(BOUNDED, UNIFORM3, 2, 1.0, 1.0)
    assert a / (a + b) == pytest.approx(m1, rel=1e-9)


def test_beta_tracks_gilpelaez():
    # ten-point reliability grid from 0.05 to 0.95
    xs = np.linspace(0.05, 0.95, 10)
    for k in (1, 2, 3):
        gaps = [
            abs(
                meta_ccdf_beta(BOUNDED, UNIFORM3, k, THETA_MINUS5DB, x)
                - meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, k, THETA_MINUS5DB, x)
            )
            for x in xs
        ]
        assert max(gaps) <= 0.03


def test_beta_tracks_gilpelaez_dense_grid():
    xs = np.linspace(0.05, 0.95, 19)
    gaps = [
        abs(
            meta_ccdf_beta(BOUNDED, UNIFORM3, 3, THETA_MINUS5DB, x)
            - meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 3, THETA_MINUS5DB, x)
        )
        for x in xs
    ]
    assert max(gaps) <= 0.035


def test_degenerate_variance_steps_at_mean():
    # vanishing intensity concentrates the conditional probability at 1
    sparse = NetworkParams(1e-16, 1.0, PathLossModel.bounded(4.0, 1.0))
    assert meta_ccdf_beta(sparse, UNIFORM3, 1, 1.0, 0.5) == 1.0
    assert meta_ccdf_beta(sparse, UNIFORM3, 1, 1.0, 0.999999) == 1.0


def test_meta_ccdf_method_dispatch():
    val_g = meta_ccdf(BOUNDED, UNIFORM3, 1, 1.0, 0.5, method="gilpelaez")
    val_b = meta_ccdf(BOUNDED, UNIFORM3, 1, 1.0, 0.5, method="beta")
    val_a = meta_ccdf(BOUNDED, UNIFORM3, 1, 1.0, 0.5, method="auto")
    assert val_a == val_g
    assert abs(val_b - val_g) < 0.05
    with pytest.raises(DomainError):
        meta_ccdf(BOUNDED, UNIFORM3, 1, 1.0, 0.5, method="cauchy")


def test_overall_ccdf_degenerate_mix_and_bounds():
    only1 = BandwidthConfig(3, (1.0, 0.0, 0.0))
    assert meta_ccdf_overall(BOUNDED, only1, 1.0, 0.5) == pytest.approx(
        meta_ccdf_gilpelaez(BOUNDED, only1, 1, 1.0, 0.5), rel=1e-12
    )
    per_type = [meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, k, 1.0, 0.5) for k in (1, 2, 3)]
    overall = meta_ccdf_overall(BOUNDED, UNIFORM3, 1.0, 0.5)
    assert min(per_type) <= overall <= max(per_type)


def test_overall_ccdf_ordering_across_mixes():
    # same ordering as the overall success probability
    only1 = BandwidthConfig(3, (1.0, 0.0, 0.0))
    only3 = BandwidthConfig(3, (0.0, 0.0, 1.0))
    for x in (0.3, 0.6, 0.9):
        hi = meta_ccdf_overall(BOUNDED, only1, 1.0, x)
        mid = meta_ccdf_overall(BOUNDED, UNIFORM3, 1.0, x)
        lo = meta_ccdf_overall(BOUNDED, only3, 1.0, x)
        assert hi >= mid >= lo


def test_power_law_inversion_smoke():
    # the inversion also runs under the singular attenuation; agreement with
    # the beta fit is loose by nature
    val = meta_ccdf_gilpelaez(POWER_LAW, UNIFORM3, 1, 1.0, 0.5)
    approx = meta_ccdf_beta(POWER_LAW, UNIFORM3, 1, 1.0, 0.5)
    assert 0.0 <= val <= 1.0
    assert abs(val - approx) < 0.05
