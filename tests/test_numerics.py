"""The library's own numerical rules against independent oracles.

The library computes its gamma products, its adaptive integrals and the
incomplete beta function with numpy and the standard library alone; scipy and
mpmath appear here only as references.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from bwalloc import metadist, metrics
from bwalloc.cli import main
from bwalloc.errors import IntegrationError
from bwalloc.experiments import FIGURE_NAMES, FIGURE_PRESETS, default_network, run_experiment
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel

ROOT = Path(__file__).resolve().parents[1]
MODES = (AllocationMode.RANDOM, AllocationMode.CONTIGUOUS)


# ---------------------------------------------------------------------------
# gamma products


def test_gamma_reflection_matches_gamma_products():
    for d in np.linspace(0.0, 1.0, 201)[1:-1]:
        d = float(d)
        got = metrics._gamma_reflection(d)
        assert got == pytest.approx(math.gamma(1.0 + d) * math.gamma(1.0 - d), rel=1e-15), d
        assert got == pytest.approx(d * math.gamma(d) * math.gamma(1.0 - d), rel=1e-15), d


# ---------------------------------------------------------------------------
# regularized incomplete beta


def _beta_oracle(a, b, x):
    """I_x(a, b) at 30 digits through the all-positive series
    x^a (1-x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x), taken on the side of
    the mean where it converges."""
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        swap = x > a / (a + b)
        if swap:
            a, b, x = b, a, 1 - x
        log_front = a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a * mpmath.beta(a, b))
        front = mpmath.exp(log_front)
        value = front * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**6)
        return float(1 - value if swap else value)


BETA_SHAPES = (0.05, 0.3, 1.0, 2.5, 10.0, 70.0, 500.0, 5000.0)
BETA_XS = (1e-9, 1e-4, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-4, 1 - 1e-9)


@pytest.mark.parametrize("a", BETA_SHAPES)
def test_regularized_beta_matches_mpmath(a):
    for b, x in itertools.product(BETA_SHAPES, BETA_XS):
        got = metadist._regularized_beta(a, b, x)
        assert abs(got - _beta_oracle(a, b, x)) <= 1e-10, (a, b, x)


@pytest.mark.parametrize("a, b", [(1e5, 1e5), (1e7, 1e7), (1e6, 2e5)])
def test_regularized_beta_at_large_shapes(a, b):
    # log-gamma terms of size a log a cancel in the front factor here; within
    # three standard deviations of the mode the value is far from 0 and 1
    mode = a / (a + b)
    sd = math.sqrt(a * b / (a + b) ** 3)
    for z in (-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0):
        x = mode + z * sd
        got = metadist._regularized_beta(a, b, x)
        assert abs(got - special.betainc(a, b, x)) <= 1e-12, (a, b, z)


@pytest.mark.parametrize(
    "a, b, x, bound", [(9.28e6, 15.05, 0.999998, 1e-10), (5.5, 5.54e6, 7.2e-7, 1e-12)]
)
def test_regularized_beta_with_one_large_shape(a, b, x, bound):
    # one shape above _STIRLING_SHAPE and one below: lgamma(a + b) and the
    # larger lgamma cancel, so their difference takes its own Stirling form
    with mpmath.workdps(40):
        p, q, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        front = float(p * mpmath.log(z) + q * mpmath.log1p(-z) - mpmath.log(mpmath.beta(p, q)))
    assert abs(metadist._log_beta_front(a, b, x) - front) <= 1e-12
    # the first point lies just below the continued fraction's switch at
    # x = (a + 1) / (a + b + 2), where x near 1 costs the fraction digits
    assert abs(metadist._regularized_beta(a, b, x) - special.betainc(a, b, x)) <= bound


def test_regularized_beta_endpoints_and_symmetry():
    assert metadist._regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert metadist._regularized_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) = x and I_x(a, 1) = x^a
    assert metadist._regularized_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert metadist._regularized_beta(2.5, 1.0, 0.4) == pytest.approx(0.4**2.5, abs=1e-15)
    for x in (0.1, 0.5, 0.9):
        lower = metadist._regularized_beta(3.0, 0.7, x)
        assert lower + metadist._regularized_beta(0.7, 3.0, 1 - x) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# rate integral against an adaptive Gauss-Kronrod reference


def _quad_reference(net, ba, k):
    """I_k by scipy's QUADPACK on the same range [0, y_max]."""
    y_max = metrics._rate_ccdf_integral(net, ba, k).y_max
    value, _ = integrate.quad(
        lambda y: metrics.success_prob_k(net, ba, k, 2.0**y - 1.0),
        0.0,
        y_max,
        epsabs=1e-8,
        limit=200,
    )
    return value


@pytest.mark.parametrize(
    "pathloss",
    [PathLossModel.bounded(a, 1.0) for a in (3.0, 4.0, 5.0)]
    + [PathLossModel.power_law(a) for a in (3.0, 4.0, 5.0)],
    ids=lambda pl: f"alpha{pl.alpha:g}_c0{pl.c0:g}",
)
@pytest.mark.parametrize("intensity", [0.01, 0.2, 1.0])
def test_rate_integral_matches_quadpack(pathloss, intensity):
    net = NetworkParams(intensity, 1.0, pathloss)
    for mode, k in itertools.product(MODES, (1, 3, 10)):
        ba = BandwidthConfig.uniform(10, mode=mode)
        got = metrics._rate_ccdf_integral(net, ba, k).value
        assert abs(got - _quad_reference(net, ba, k)) <= 1e-8, (mode, k)


def test_rate_integral_matches_quadpack_wide_band():
    # 64 chunks, 16 nonzero types (one per block of 4), both modes, two
    # intensities: 64 integrals
    rng = np.random.default_rng(0)
    probs = np.zeros(64)
    types = [4 * j + int(rng.integers(4)) for j in range(16)]
    probs[types] = rng.dirichlet(np.ones(16))
    for mode, intensity in itertools.product(MODES, (0.2, 1.0)):
        ba = BandwidthConfig(64, tuple(float(p) for p in probs), mode, 2.0)
        net = NetworkParams(intensity, default_network().link_distance, default_network().pathloss)
        for k in types:
            got = metrics._rate_ccdf_integral(net, ba, k + 1).value
            assert abs(got - _quad_reference(net, ba, k + 1)) <= 1e-8, (mode, intensity, k + 1)


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes


@pytest.mark.parametrize("n", [1, 2, 3, 8, 10, 20, 32, 100])
def test_gauss_legendre_matches_leggauss(n):
    nodes, weights = metadist._gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 2e-16
    # absolute error: leggauss's own end weights are off by up to 2e-12
    # relative at n = 100
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert abs(weights.sum() - 2.0) <= 1e-15
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n, rel", [(256, 1e-12), (512, 1e-12), (4096, 1e-11)])
def test_gauss_legendre_integrates_its_highest_even_power(n, rel):
    # x^(2n - 2) puts its mass on the end nodes, whose weights are the
    # hardest to get right
    nodes, weights = metadist._gauss_legendre(n)
    exact = 2.0 / (2 * n - 1)
    assert abs(weights @ nodes ** (2 * n - 2) - exact) <= rel * exact


@pytest.mark.parametrize("n, rel", [(512, 1e-12), (4096, 1e-11)])
def test_gauss_legendre_end_weight_matches_mpmath(n, rel):
    # the end weight is the most sensitive to its node's rounding; the
    # reference root comes from Newton's method at 40 digits
    nodes, weights = metadist._gauss_legendre(n)
    with mpmath.workdps(40):
        x = mpmath.mpf(float(nodes[-1]))
        for _ in range(3):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            x -= p / dp
        weight = 2 / ((1 - x * x) * dp * dp)
        assert abs(nodes[-1] - x) <= 1e-16
        assert abs(weights[-1] / weight - 1) <= rel


def test_gauss_legendre_refuses_unsettled_roots(monkeypatch):
    monkeypatch.setattr(metadist, "_NEWTON_STEPS", 1)
    with pytest.raises(IntegrationError, match="did not settle in 1 Newton steps"):
        metadist._gauss_legendre.__wrapped__(64)


def test_regularized_beta_refuses_an_unsettled_fraction(monkeypatch):
    monkeypatch.setattr(metadist, "_BETA_CF_TERMS", 2)
    with pytest.raises(IntegrationError, match="did not settle in 2 terms"):
        metadist._regularized_beta(5.0, 5.0, 0.3)


def test_no_eigensolver_behind_any_preset(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the library called an eigensolver")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    metadist._gauss_legendre.cache_clear()
    metadist._profiles.cache_clear()
    for name in FIGURE_NAMES:
        header, rows = run_experiment(FIGURE_PRESETS[name]())
        assert rows, name


# ---------------------------------------------------------------------------
# the halving cap


def test_halving_cap_raises_integration_error(monkeypatch, tmp_path):
    # at lambda = 0.001 the ladder needs two halvings, and so does the
    # CLI's throughput sweep there
    monkeypatch.setattr(metrics, "_MAX_HALVINGS", 1)
    metrics._rate_ccdf_quad.cache_clear()
    net = NetworkParams(0.001, 1.0, PathLossModel.bounded(4.0, 1.0))
    ba = BandwidthConfig.uniform(3)
    with pytest.raises(IntegrationError, match="throughput quadrature did not converge"):
        metrics.shannon_throughput_k(net, ba, 1)
    # the CLI reports a numerical failure with exit code 2
    assert main(["throughput", "--sweep", "0.001:0.002:2", "--out", str(tmp_path / "t.csv")]) == 2
    metrics._rate_ccdf_quad.cache_clear()


# ---------------------------------------------------------------------------
# the library imports no scipy

_NO_SCIPY_RUN = """
import sys
import bwalloc
import bwalloc.cli
from bwalloc import default_bandwidth, default_network, matched_intensity, meta_ccdf, run_figure
run_figure("fig4", "fig4.csv")
run_figure("fig3", "fig3.csv")
net, ba = default_network(), default_bandwidth()
meta_ccdf(net, ba, 1, 1.0, 0.5, method="beta")
matched_intensity(net, ba, (0.5, 0.0, 0.5) + (0.0,) * (ba.n_chunks - 3), 1.0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_library_loads_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
