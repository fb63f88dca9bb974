"""Moment and distribution-inversion tests.

Two independent routes meet here: the product-form closed expressions from
the metrics module and the radial moment integral. Their agreement at order 1
is the central cross-validation. mpmath tanh-sinh quadrature provides a third
opinion on the moment integral itself.
"""

import math

import mpmath
import numpy as np
import pytest

from bwalloc.allocation import overlap_pmf_random
from bwalloc.errors import DomainError, OscillatoryIntegrationError
from bwalloc.metadist import (
    beta_shape_parameters,
    meta_ccdf,
    meta_ccdf_beta,
    meta_ccdf_gilpelaez,
    meta_ccdf_overall,
    moment_b_k,
)
from bwalloc.metrics import success_prob_k
from bwalloc.params import BandwidthConfig, NetworkParams, PathLossModel

BOUNDED = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
POWER_LAW = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
UNIFORM3 = BandwidthConfig.uniform(3, power_per_chunk=2.0)

THETA_MINUS5DB = 10 ** (-5 / 10)


def test_zeroth_moment_is_one():
    assert moment_b_k(BOUNDED, UNIFORM3, 1, 1.0, 0.0) == 1.0
    assert moment_b_k(POWER_LAW, UNIFORM3, 2, 0.3, 0) == 1.0


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


def _oracle_moment(net, k, theta, b):
    """Moment integral evaluated with mpmath, written from scratch.

    High working precision keeps the 1 - (...)**b cancellation on the far
    tail from polluting the tanh-sinh rule.
    """
    c0, alpha, r_link, lam = net.pathloss.c0, net.pathloss.alpha, net.link_distance, net.intensity
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
    [(BOUNDED, THETA_MINUS5DB, 1), (BOUNDED, 1.0, 2), (POWER_LAW, 1.0, 1)],
    ids=["bounded--5dB-k1", "bounded-0dB-k2", "power-law-0dB-k1"],
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
    # |ln x| = 27.6 oscillates faster than the finest level resolves
    with pytest.raises(OscillatoryIntegrationError, match="differ by"):
        meta_ccdf_gilpelaez(BOUNDED, UNIFORM3, 2, 1.0, 1e-12)
    assert meta_ccdf(BOUNDED, UNIFORM3, 2, 1.0, 1e-12, method="auto") == meta_ccdf_beta(
        BOUNDED, UNIFORM3, 2, 1.0, 1e-12
    )


def test_node_ladder_failure_falls_back_to_beta():
    # power law with k = n: no interferer misses the typical chunks (q_0 = 0),
    # log(1 - h) is -inf at the origin and the imaginary probes never settle
    with pytest.raises(OscillatoryIntegrationError, match="node ladder"):
        meta_ccdf_gilpelaez(POWER_LAW, UNIFORM3, 3, 1.0, 0.5)
    assert meta_ccdf(POWER_LAW, UNIFORM3, 3, 1.0, 0.5, method="auto") == meta_ccdf_beta(
        POWER_LAW, UNIFORM3, 3, 1.0, 0.5
    )
    assert meta_ccdf_beta(POWER_LAW, UNIFORM3, 3, 1.0, 0.5) == pytest.approx(0.44201, abs=1e-5)


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
