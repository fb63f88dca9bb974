import bwalloc.experiments as experiments

import workloads


def _shape(job):
    if job.spec is None:
        return (job.label, job.kind)
    spec = job.spec
    return (
        job.label,
        job.kind,
        spec.metric,
        spec.sweep.variable,
        spec.sweep.points,
        spec.bandwidth.n_chunks,
        spec.bandwidth.mode,
        sum(p > 0 for p in spec.bandwidth.type_probs),
    )


def test_seed_zero_runs_the_shipped_presets():
    jobs = workloads.build("figures", 0)
    assert [j.label for j in jobs] == list(experiments.FIGURE_NAMES)
    for job in jobs:
        if job.kind == "csv":
            assert job.spec == experiments.FIGURE_PRESETS[job.label]()
        else:
            assert job.label not in experiments.FIGURE_PRESETS


def test_other_seeds_change_values_not_shapes():
    for name in workloads._BUILDERS:
        base = workloads.build(name, 1)
        assert workloads.build(name, 1) == base
        other = workloads.build(name, 2)
        assert [_shape(j) for j in other] == [_shape(j) for j in base]
        assert other != base


def test_wide_mix():
    probs = workloads.wide_mix(3)
    assert len(probs) == 64
    assert sum(p > 0 for p in probs) == workloads.WIDE_TYPES
    assert abs(sum(probs) - 1.0) < 1e-12


def test_monte_carlo_seed_reaches_the_simulator():
    jobs = workloads.build("monte_carlo", 7)
    sims = [j.spec.sim if j.kind == "csv" else j.sim for j in jobs]
    assert {s.seed for s in sims} == {7}
    assert sum(j.realizations for j in jobs) == 13_400
