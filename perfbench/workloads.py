"""Seeded inputs and timed jobs of each workload.

``build`` turns (workload, seed) into a list of jobs; it is part of set-up.
``run_job`` performs one job through the library's public entry points and
returns a JSON-ready record of its outputs, which ``checks`` verifies after
the timed section. Library functions are looked up on their modules at call
time, so that a tracer installed after ``build`` sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import bwalloc.experiments as experiments
import bwalloc.metrics as metrics
import bwalloc.simulate as simulate
from bwalloc.params import MAX_CHUNKS, AllocationMode, BandwidthConfig, NetworkParams

MODES = (AllocationMode.RANDOM, AllocationMode.CONTIGUOUS)

#: wide_band: nonzero types in the mix, one drawn from each block of
#: MAX_CHUNKS // WIDE_TYPES consecutive types, and the intensities at which
#: mix-averaged throughput is evaluated.
WIDE_TYPES = 16
WIDE_INTENSITIES = (0.2, 1.0)

#: monte_carlo: realizations per simulate-verb curve, per cross-check
#: estimator call, and for the contiguous-mode probe curve. The probe is
#: sized so that the known closed-form gap at n = 10, k = 1, +10 dB
#: (0.094 against about 0.118) lies near 7 standard errors from the
#: simulator, beyond the checks' bound at every seed.
SIM_VERB_REALIZATIONS = 100
CROSSCHECK_REALIZATIONS = 100
PROBE_REALIZATIONS = 8_000
SIM_VERB_SWEEP = (-10.0, 10.0, 5)
PROBE_THETA_DB = (-10.0, 0.0, 10.0)
META_THETA_DB = -5.0
META_X = (0.6,)


@dataclass(frozen=True)
class Job:
    """One user-facing call. ``kind`` selects how ``run_job`` performs it:

    * ``csv``: ``run_and_write(spec, label + ".csv")``
    * ``figure``: ``run_figure(label, label + ".csv")``
    * ``throughput``: mix-averaged throughput and throughput per joule of
      ``bandwidth`` at each intensity of ``intensities``
    * ``estimate``: one simulate estimator (``estimator``) at ``bandwidth``
    """

    label: str
    kind: str
    spec: object = None
    bandwidth: BandwidthConfig | None = None
    intensities: tuple = ()
    estimator: str = ""
    k: int | None = None
    sim: simulate.SimConfig | None = None
    theta_db: tuple = ()
    x: tuple = ()

    @property
    def realizations(self) -> int:
        if self.kind == "estimate":
            return self.sim.n_realizations
        if self.kind == "csv" and self.spec.metric is experiments.Metric.SIMULATE:
            curves = self.spec.bandwidth.n_chunks + 1
            return curves * self.spec.sim.n_realizations
        return 0


# ---------------------------------------------------------------------------
# input generation


def _scale(rng, value: float, spread: float) -> float:
    return float(value * rng.uniform(1.0 - spread, 1.0 + spread))


def _jitter_mix(rng, probs) -> tuple[float, ...]:
    # nonzero entries move by up to 20%; zeros stay zero, so the shape holds
    weights = np.array(probs) * rng.uniform(0.8, 1.2, len(probs))
    weights /= weights.sum()
    return tuple(float(w) for w in weights)


def _jitter_preset(spec, rng):
    """Same sweep sizes, chunk counts and modes; other values moved."""
    net, ba, sweep = spec.network, spec.bandwidth, spec.sweep
    network = NetworkParams(_scale(rng, net.intensity, 0.1), net.link_distance, net.pathloss)
    bandwidth = BandwidthConfig(
        ba.n_chunks, _jitter_mix(rng, ba.type_probs), ba.mode, _scale(rng, ba.power_per_chunk, 0.1)
    )
    var = sweep.variable
    if var is experiments.SweepVariable.THETA_DB:
        start, stop = sweep.start + rng.uniform(-1, 1), sweep.stop + rng.uniform(-1, 1)
    elif var is experiments.SweepVariable.LAMBDA:
        start, stop = _scale(rng, sweep.start, 0.1), _scale(rng, sweep.stop, 0.1)
    elif var is experiments.SweepVariable.X:
        start, stop = sweep.start + rng.uniform(-0.01, 0.01), sweep.stop + rng.uniform(-0.01, 0.01)
    else:
        start, stop = sweep.start, sweep.stop
    changes = dict(
        network=network,
        bandwidth=bandwidth,
        sweep=replace(sweep, start=float(start), stop=float(stop)),
    )
    if spec.theta_db is not None:
        changes["theta_db"] = float(spec.theta_db + rng.uniform(-1, 1))
    if spec.alt_type_probs is not None:
        changes["alt_type_probs"] = _jitter_mix(rng, spec.alt_type_probs)
    return replace(spec, **changes)


def _figures(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for name in experiments.FIGURE_NAMES:
        if name not in experiments.FIGURE_PRESETS:
            # fig2 and fig5 are built inside run_figure and take no inputs
            jobs.append(Job(name, "figure"))
            continue
        spec = experiments.FIGURE_PRESETS[name]()
        if seed != 0:
            spec = _jitter_preset(spec, rng)
        jobs.append(Job(name, "csv", spec=spec))
    return jobs


def wide_mix(seed: int) -> tuple[float, ...]:
    """Seeded mix over MAX_CHUNKS types with WIDE_TYPES nonzero entries."""
    rng = np.random.default_rng(seed)
    block = MAX_CHUNKS // WIDE_TYPES
    types = [j * block + int(rng.integers(block)) for j in range(WIDE_TYPES)]
    probs = np.zeros(MAX_CHUNKS)
    probs[types] = rng.dirichlet(np.ones(WIDE_TYPES))
    return tuple(float(p) for p in probs)


def _wide_band(seed: int) -> list[Job]:
    probs = wide_mix(seed)
    jobs = []
    for mode in MODES:
        ba = BandwidthConfig(MAX_CHUNKS, probs, mode, 2.0)
        spec = experiments.ExperimentSpec(
            experiments.Metric.SUCCESS_PROB,
            experiments.SweepSpec(experiments.SweepVariable.THETA_DB, -20.0, 20.0, 41),
            bandwidth=ba,
        )
        jobs.append(Job(f"success_{mode.value}", "csv", spec=spec))
        jobs.append(
            Job(
                f"throughput_{mode.value}",
                "throughput",
                bandwidth=ba,
                intensities=WIDE_INTENSITIES,
            )
        )
    return jobs


def _monte_carlo(seed: int) -> list[Job]:
    if not 0 <= seed < 2**64:
        raise ValueError("monte_carlo seeds must fit in 64 unsigned bits")
    verb_sim = simulate.SimConfig(n_realizations=SIM_VERB_REALIZATIONS, seed=seed)
    cross_sim = simulate.SimConfig(n_realizations=CROSSCHECK_REALIZATIONS, seed=seed)
    start, stop, points = SIM_VERB_SWEEP
    jobs = []
    for n in (3, 10):
        for mode in MODES:
            ba = BandwidthConfig.uniform(n, mode=mode, power_per_chunk=2.0)
            tag = f"n{n}_{mode.value}"
            spec = experiments.ExperimentSpec(
                experiments.Metric.SIMULATE,
                experiments.SweepSpec(experiments.SweepVariable.THETA_DB, start, stop, points),
                bandwidth=ba,
                sim=verb_sim,
            )
            jobs.append(Job(f"simulate_{tag}", "csv", spec=spec))
            for k in (1, n):
                common = dict(kind="estimate", bandwidth=ba, k=k, sim=cross_sim)
                jobs.append(
                    Job(
                        f"meta_{tag}_k{k}",
                        estimator="estimate_meta_distribution",
                        theta_db=(META_THETA_DB,),
                        x=META_X,
                        **common,
                    )
                )
                for name, estimator in (
                    ("throughput", "estimate_throughput"),
                    ("interference", "estimate_mean_interference"),
                ):
                    jobs.append(Job(f"{name}_{tag}_k{k}", estimator=estimator, **common))
    jobs.append(
        Job(
            "probe_n10_contiguous_k1",
            "estimate",
            bandwidth=BandwidthConfig.uniform(
                10, mode=AllocationMode.CONTIGUOUS, power_per_chunk=2.0
            ),
            estimator="success_prob_curve",
            k=1,
            sim=simulate.SimConfig(n_realizations=PROBE_REALIZATIONS, seed=seed),
            theta_db=PROBE_THETA_DB,
        )
    )
    return jobs


_BUILDERS = {"figures": _figures, "wide_band": _wide_band, "monte_carlo": _monte_carlo}


def build(workload: str, seed: int) -> list[Job]:
    return _BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# timed jobs


def _estimate(job: Job):
    net = experiments.default_network()
    ba, sim = job.bandwidth, job.sim
    if job.estimator == "success_prob_curve":
        thetas = [experiments.db_to_linear(db) for db in job.theta_db]
        return simulate.success_prob_curve(net, ba, sim, job.k, thetas)
    if job.estimator == "estimate_meta_distribution":
        theta = experiments.db_to_linear(job.theta_db[0])
        return simulate.estimate_meta_distribution(net, ba, sim, job.k, theta, job.x)
    if job.estimator == "estimate_throughput":
        return [simulate.estimate_throughput(net, ba, sim, job.k)]
    if job.estimator == "estimate_mean_interference":
        return [simulate.estimate_mean_interference(net, ba, sim, job.k)]
    raise ValueError(f"unknown estimator {job.estimator!r}")


def run_job(job: Job) -> dict:
    """Perform one job; paths are relative to the current directory."""
    if job.kind in ("csv", "figure"):
        path = f"{job.label}.csv"
        if job.kind == "csv":
            header, rows, _ = experiments.run_and_write(job.spec, path)
        else:
            header, rows, _ = experiments.run_figure(job.label, path)
        rows = [[float(v) for v in r] for r in rows]
        return {"path": path, "header": list(header), "rows": rows}
    if job.kind == "throughput":
        rows = []
        for lam in job.intensities:
            net = NetworkParams(lam, 1.0, experiments.default_network().pathloss)
            rate = metrics.shannon_throughput_overall(net, job.bandwidth)
            per_joule = metrics.shannon_throughput_per_joule_overall(net, job.bandwidth)
            rows.append([lam, rate.value, per_joule.value, rate.tail_bound, float(rate.truncated)])
        header = ["lambda", "rate_overall", "rate_per_joule_overall", "tail_bound", "truncated"]
        return {"header": header, "rows": rows}
    if job.kind == "estimate":
        estimates = _estimate(job)
        return {
            "estimates": [[e.value, e.std_error, e.n_samples, e.n_capped] for e in estimates]
        }
    raise ValueError(f"unknown job kind {job.kind!r}")
