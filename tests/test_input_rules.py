"""Every input rule, checked at every entry point that holds it.

Each rule is one table of (entry point, call with the bad value, error
class): records and config text raise ``ConfigError``, library functions
``DomainError``. Every entry point meets the same bad values: the ones
that break the rule's type (bool, non-integer, nan, infinities, a
non-numeric string, None) and the first value past each end of its range.
"""

import math

import pytest

from bwalloc.allocation import overlap_pmf, overlap_pmf_random
from bwalloc.errors import ConfigError, DomainError
from bwalloc.experiments import ExperimentSpec, Metric, SweepSpec, SweepVariable
from bwalloc.meanmodel import match_mean_model, matched_intensity, matched_power
from bwalloc.metadist import meta_ccdf, moment_b_k
from bwalloc.metrics import success_prob_k, success_prob_overall
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from bwalloc.simulate import (
    SimConfig,
    conditional_success_prob,
    _realizations,
    estimate_meta_distribution,
    success_prob_curve,
)

NET = NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))
BA = BandwidthConfig.uniform(3)
SIM = SimConfig(n_realizations=1)
((_, REAL),) = _realizations(NET, BA, SIM, 1)
THETA_SWEEP = SweepSpec(SweepVariable.THETA_DB, -10.0, 10.0, 5)
X_SWEEP = SweepSpec(SweepVariable.X, 0.1, 0.9, 5)

NAN, INF = math.nan, math.inf
NON_INTEGERS = [True, False, 2.0, 1.5, NAN, INF, -INF, "x", None]
NON_REALS = [NAN, INF, -INF, "x", None]


def _cases(entries, bad):
    """One case (call, error, value) per entry point and bad value: the
    shared bad values plus the entry's own range ends; ids name both."""
    return [
        pytest.param(call, error, value, id=f"{name}-{value!r}")
        for name, call, error, ends in entries
        for value in [*bad, *ends]
    ]


#: a type in [1, n], a chunk count in [1, 64], and the positive counts
INTEGER_RULE = [
    ("BandwidthConfig.n_chunks", lambda v: BandwidthConfig(v, (1.0,)), ConfigError, [0, 65]),
    ("single_type.k", lambda v: BandwidthConfig.single_type(3, v), ConfigError, [0, 4]),
    ("SimConfig.n_realizations", lambda v: SimConfig(n_realizations=v), ConfigError, [0]),
    ("SimConfig.n_fading_draws", lambda v: SimConfig(n_fading_draws=v), ConfigError, [0]),
    ("SimConfig.seed", lambda v: SimConfig(seed=v), ConfigError, [-1, 2**64]),
    ("SweepSpec.points", lambda v: SweepSpec(SweepVariable.THETA_DB, 0, 1, v), ConfigError, [0]),
    ("overlap_pmf_random.n", lambda v: overlap_pmf_random(v, 1, 1), DomainError, [0, 65]),
    ("overlap_pmf.k", lambda v: overlap_pmf(BA, v, 1), DomainError, [0, 4]),
    ("overlap_pmf.i", lambda v: overlap_pmf(BA, 1, v), DomainError, [0, 4]),
    ("success_prob_k.k", lambda v: success_prob_k(NET, BA, v, 1.0), DomainError, [0, 4]),
    ("moment_b_k.k", lambda v: moment_b_k(NET, BA, v, 1.0, 1.0), DomainError, [0, 4]),
    ("meta_ccdf.k", lambda v: meta_ccdf(NET, BA, v, 1.0, 0.5), DomainError, [0, 4]),
    (
        "conditional_success_prob.k",
        lambda v: conditional_success_prob(REAL, NET, BA, v, 1.0),
        DomainError,
        [0, 4],
    ),
    (
        "conditional_success_prob.n_fading_draws",
        lambda v: conditional_success_prob(REAL, NET, BA, 1, 1.0, n_fading_draws=v),
        DomainError,
        [0],
    ),
]

#: k = None draws the typical type from the mix, so it is not a bad value here
INTEGER_RULE_SIMULATED_K = [
    ("success_prob_curve.k", lambda v: success_prob_curve(NET, BA, SIM, v, [1.0]), DomainError),
    (
        "estimate_meta_distribution.k",
        lambda v: estimate_meta_distribution(NET, BA, SIM, v, 1.0, [0.5]),
        DomainError,
    ),
]


@pytest.mark.parametrize(
    "call, error, value",
    _cases(INTEGER_RULE, NON_INTEGERS)
    + _cases([(*entry, [0, 4]) for entry in INTEGER_RULE_SIMULATED_K], NON_INTEGERS[:-1]),
)
def test_integer_rule(call, error, value):
    with pytest.raises(error):
        call(value)


#: finite reals above a bound (positive, alpha > 2) or at it (c0, type_probs)
REAL_RULE = [
    ("NetworkParams.intensity", lambda v: NetworkParams(v, 1, NET.pathloss), ConfigError, [0.0]),
    (
        "NetworkParams.link_distance",
        lambda v: NetworkParams(1, v, NET.pathloss),
        ConfigError,
        [0.0],
    ),
    ("PathLossModel.alpha", lambda v: PathLossModel(v), ConfigError, [2.0]),
    ("PathLossModel.c0", lambda v: PathLossModel(4.0, v), ConfigError, [-1e-9]),
    ("PathLossModel.bounded.c0", lambda v: PathLossModel.bounded(4.0, v), ConfigError, [0.0]),
    (
        "BandwidthConfig.power_per_chunk",
        lambda v: BandwidthConfig(1, (1.0,), AllocationMode.RANDOM, v),
        ConfigError,
        [0.0],
    ),
    ("BandwidthConfig.type_probs", lambda v: BandwidthConfig(2, (1.0, v)), ConfigError, [-1e-9]),
    ("SweepSpec.start", lambda v: SweepSpec(SweepVariable.THETA_DB, v, 1.0, 5), ConfigError, []),
    ("SweepSpec.stop", lambda v: SweepSpec(SweepVariable.THETA_DB, 0.0, v, 5), ConfigError, []),
    (
        "matched_intensity.alt_power",
        lambda v: matched_intensity(NET, BA, BA.type_probs, v),
        DomainError,
        [0.0],
    ),
    # an alternative mix is a record field or a function argument; 0.6
    # makes it sum to 1.6
    (
        "ExperimentSpec.alt_type_probs",
        lambda v: ExperimentSpec(Metric.SUCCESS_PROB, THETA_SWEEP, alt_type_probs=(0.5, v, 0.5)),
        ConfigError,
        [-1e-9, 0.6],
    ),
    (
        "matched_power.alt_probs",
        lambda v: matched_power(BA, (0.5, v, 0.5)),
        DomainError,
        [-1e-9, 0.6],
    ),
    (
        "matched_intensity.alt_probs",
        lambda v: matched_intensity(NET, BA, (0.5, v, 0.5), 1.0),
        DomainError,
        [-1e-9, 0.6],
    ),
    (
        "match_mean_model.alt_probs",
        lambda v: match_mean_model(NET, BA, (0.5, v, 0.5)),
        DomainError,
        [-1e-9, 0.6],
    ),
]

#: None means "not set" (the default window), so it is not a bad value here
REAL_RULE_OPTIONAL = [
    ("SimConfig.window_radius", lambda v: SimConfig(window_radius=v), ConfigError, [0.0]),
    (
        "ExperimentSpec.theta_db",
        lambda v: ExperimentSpec(Metric.META_DIST, X_SWEEP, theta_db=v),
        ConfigError,
        [],
    ),
]

#: theta >= 0 for success probabilities, whose rate integral starts at 0
THETA_SUCCESS_RULE = [
    ("success_prob_k.theta", lambda v: success_prob_k(NET, BA, 1, v), DomainError, [-1e-9]),
    ("success_prob_overall.theta", lambda v: success_prob_overall(NET, BA, v), DomainError, [-1]),
    (
        "success_prob_curve.thetas",
        lambda v: success_prob_curve(NET, BA, SIM, 1, [1.0, v]),
        DomainError,
        [-1e-9],
    ),
]

#: theta > 0 for the conditional-success distribution
THETA_META_RULE = [
    ("moment_b_k.theta", lambda v: moment_b_k(NET, BA, 1, v, 1.0), DomainError, [0.0]),
    ("meta_ccdf.theta", lambda v: meta_ccdf(NET, BA, 1, v, 0.5), DomainError, [0.0]),
    ("meta_ccdf_beta.theta", lambda v: meta_ccdf(NET, BA, 1, v, 0.5, "beta"), DomainError, [0.0]),
    (
        "conditional_success_prob.theta",
        lambda v: conditional_success_prob(REAL, NET, BA, 1, v),
        DomainError,
        [0.0],
    ),
    (
        "estimate_meta_distribution.theta",
        lambda v: estimate_meta_distribution(NET, BA, SIM, 1, v, [0.5]),
        DomainError,
        [0.0],
    ),
]

#: a reliability threshold x in [0, 1]
X_RULE = [
    ("meta_ccdf.x", lambda v: meta_ccdf(NET, BA, 1, 1.0, v), DomainError, [-1e-9, 1 + 1e-9]),
    ("meta_ccdf_beta.x", lambda v: meta_ccdf(NET, BA, 1, 1, v, "beta"), DomainError, [-1e-9, 1.1]),
    (
        "estimate_meta_distribution.x_grid",
        lambda v: estimate_meta_distribution(NET, BA, SIM, 1, 1.0, [0.5, v]),
        DomainError,
        [-1e-9, 1 + 1e-9],
    ),
]


@pytest.mark.parametrize(
    "call, error, value",
    _cases(REAL_RULE + THETA_SUCCESS_RULE + THETA_META_RULE + X_RULE, NON_REALS)
    + _cases(REAL_RULE_OPTIONAL, NON_REALS[:-1]),
)
def test_real_rule(call, error, value):
    with pytest.raises(error):
        call(value)


ENUM_RULE = [
    ("BandwidthConfig.mode", lambda v: BandwidthConfig(1, (1.0,), v), ConfigError, []),
    ("SimConfig.conditional_mode", lambda v: SimConfig(conditional_mode=v), ConfigError, []),
    ("SweepSpec.variable", lambda v: SweepSpec(v, 0.0, 1.0, 5), ConfigError, []),
    ("ExperimentSpec.metric", lambda v: ExperimentSpec(v, THETA_SWEEP), ConfigError, []),
    (
        "conditional_success_prob.mode",
        lambda v: conditional_success_prob(REAL, NET, BA, 1, 1.0, mode=v),
        DomainError,
        [],
    ),
]


@pytest.mark.parametrize("call, error, value", _cases(ENUM_RULE, ["bogus", "", None, 1, "RANDOM"]))
def test_enum_rule(call, error, value):
    with pytest.raises(error):
        call(value)


def test_the_checkers_keep_valid_inputs():
    assert BandwidthConfig.single_type(3, 2).type_probs == (0.0, 1.0, 0.0)
    assert NetworkParams("0.5", 2, NET.pathloss).intensity == 0.5
    assert PathLossModel(4, 0).c0 == 0.0
    assert SimConfig(seed=2**64 - 1, conditional_mode="fully_empirical").seed == 2**64 - 1
    assert success_prob_k(NET, BA, 1, 0.0) == 1.0
    assert meta_ccdf(NET, BA, 1, 1.0, 1.0) == 0.0
    assert ExperimentSpec("meta_dist", X_SWEEP, theta_db=0).theta_db == 0.0


@pytest.mark.parametrize("k", [2.0, 1.5, True])
def test_single_type_rejects_a_non_integer_type(k):
    with pytest.raises(ConfigError):
        BandwidthConfig.single_type(3, k)


@pytest.mark.parametrize("pathloss", [None, 4.0, (4.0, 1.0)])
def test_network_params_rejects_a_pathloss_that_is_not_a_model(pathloss):
    with pytest.raises(ConfigError, match="PathLossModel"):
        NetworkParams(1.0, 1.0, pathloss)
