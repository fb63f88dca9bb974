"""Experiment sweeps and CSV emission.

An experiment is a metric, a sweep over one variable, and the parameter
records. Resolved configs are rendered in a line-oriented key/value format
with sections (see ``render_config``); every CSV starts with that text as
comment lines, so a result file re-parses to the exact experiment that
produced it.

Thresholds cross this layer in dB; the library itself works on linear scale.
"""

from __future__ import annotations

import math
import os
import tempfile
from configparser import ConfigParser
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .meanmodel import match_mean_model
from .metadist import meta_ccdf
from .metrics import (
    shannon_throughput_k,
    shannon_throughput_overall,
    shannon_throughput_per_hz_k,
    shannon_throughput_per_joule_k,
    shannon_throughput_per_joule_overall,
    success_prob_k,
    success_prob_overall,
)
from .params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from .simulate import SimConfig, success_prob_curve


def db_to_linear(theta_db: float) -> float:
    return 10.0 ** (theta_db / 10.0)


def default_network() -> NetworkParams:
    """Reference deployment: intensity 0.2, unit link, bounded attenuation
    with exponent 4 and offset 1."""
    return NetworkParams(0.2, 1.0, PathLossModel.bounded(4.0, 1.0))


def default_bandwidth(mode: AllocationMode = AllocationMode.RANDOM) -> BandwidthConfig:
    """Reference allocation: three chunks, uniform mix, chunk power 2."""
    return BandwidthConfig.uniform(3, mode=mode, power_per_chunk=2.0)


class Metric(str, Enum):
    SUCCESS_PROB = "success_prob"
    META_DIST = "meta_dist"
    THROUGHPUT = "throughput"
    THROUGHPUT_PER_JOULE = "throughput_per_joule"
    MEAN_MODEL = "mean_model"
    SIMULATE = "simulate"


class SweepVariable(str, Enum):
    THETA_DB = "theta_db"
    X = "x"
    LAMBDA = "lambda"
    K = "k"


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVariable
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "variable", SweepVariable(self.variable))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise ConfigError("sweep points must be an integer")
        object.__setattr__(self, "points", int(self.points))
        if self.points < 1:
            raise ConfigError("sweep must contain at least one point")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ConfigError("log sweeps need positive endpoints")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep endpoints must be finite")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


_MEAN_MODEL_METRICS = ("success_prob", "throughput", "throughput_per_joule")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one sweep run."""

    metric: Metric
    sweep: SweepSpec
    network: NetworkParams = field(default_factory=default_network)
    bandwidth: BandwidthConfig = field(default_factory=default_bandwidth)
    sim: SimConfig = field(default_factory=SimConfig)
    theta_db: float | None = None
    alt_type_probs: tuple[float, ...] | None = None
    mean_model_metric: str = "success_prob"
    compare_modes: bool = False
    output: str | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "metric", Metric(self.metric))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.theta_db is not None:
            object.__setattr__(self, "theta_db", float(self.theta_db))
        if self.alt_type_probs is not None:
            object.__setattr__(
                self, "alt_type_probs", tuple(float(p) for p in self.alt_type_probs)
            )
        if self.mean_model_metric not in _MEAN_MODEL_METRICS:
            raise ConfigError(
                f"mean_model_metric must be one of {_MEAN_MODEL_METRICS}"
            )
        var = self.sweep.variable
        metric = self.metric
        if metric is Metric.META_DIST:
            if var is not SweepVariable.X:
                raise ConfigError("meta_dist sweeps the reliability threshold x")
            if self.theta_db is None:
                raise ConfigError("meta_dist needs theta_db")
        elif metric in (Metric.SUCCESS_PROB, Metric.SIMULATE):
            if var is not SweepVariable.THETA_DB:
                raise ConfigError(f"{metric.value} sweeps theta_db")
        elif metric in (Metric.THROUGHPUT, Metric.THROUGHPUT_PER_JOULE):
            if var not in (SweepVariable.LAMBDA, SweepVariable.K):
                raise ConfigError(f"{metric.value} sweeps lambda or k")
        elif metric is Metric.MEAN_MODEL:
            if self.alt_type_probs is None:
                raise ConfigError("mean_model needs alt_type_probs")
            if len(self.alt_type_probs) != self.bandwidth.n_chunks:
                raise ConfigError("alt_type_probs must match n_chunks")
            if self.mean_model_metric == "success_prob":
                if var is not SweepVariable.THETA_DB:
                    raise ConfigError("mean_model success_prob sweeps theta_db")
            elif var is not SweepVariable.LAMBDA:
                raise ConfigError("mean_model throughput sweeps lambda")
        if self.compare_modes and var is not SweepVariable.K:
            raise ConfigError("compare_modes applies only to k sweeps")


# ---------------------------------------------------------------------------
# config text rendering / parsing


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(spec: ExperimentSpec) -> str:
    """Resolved experiment as section-structured key/value lines."""
    cp = ConfigParser(interpolation=None)
    cp["network"] = {
        "intensity": _fmt(spec.network.intensity),
        "link_distance": _fmt(spec.network.link_distance),
        "alpha": _fmt(spec.network.pathloss.alpha),
        "c0": _fmt(spec.network.pathloss.c0),
    }
    cp["bandwidth"] = {
        "n_chunks": _fmt(spec.bandwidth.n_chunks),
        "type_probs": ", ".join(repr(p) for p in spec.bandwidth.type_probs),
        "mode": spec.bandwidth.mode.value,
        "power_per_chunk": _fmt(spec.bandwidth.power_per_chunk),
    }
    cp["sim"] = {
        "n_realizations": _fmt(spec.sim.n_realizations),
        "seed": _fmt(spec.sim.seed),
        "window_radius": _fmt(spec.sim.window_radius),
        "n_fading_draws": _fmt(spec.sim.n_fading_draws),
        "conditional_mode": spec.sim.conditional_mode.value,
    }
    cp["experiment"] = {
        "metric": spec.metric.value,
        "sweep_variable": spec.sweep.variable.value,
        "sweep_start": _fmt(spec.sweep.start),
        "sweep_stop": _fmt(spec.sweep.stop),
        "sweep_points": _fmt(spec.sweep.points),
        "sweep_scale": spec.sweep.scale,
        "theta_db": _fmt(spec.theta_db),
        "alt_type_probs": (
            "none"
            if spec.alt_type_probs is None
            else ", ".join(repr(p) for p in spec.alt_type_probs)
        ),
        "mean_model_metric": spec.mean_model_metric,
        "compare_modes": _fmt(spec.compare_modes),
        "output": _fmt(spec.output),
    }
    lines = []
    for section in cp.sections():
        lines.append(f"[{section}]")
        for key, value in cp[section].items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _parse_probs(text: str) -> tuple[float, ...]:
    from fractions import Fraction

    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    out = []
    for piece in items:
        try:
            out.append(float(piece) if "/" not in piece else float(Fraction(piece)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad probability entry {piece!r}: {exc}") from None
    return tuple(out)


def _opt(text: str) -> str | None:
    return None if text.strip().lower() == "none" else text.strip()


def parse_config(text: str, base: ExperimentSpec | None = None) -> ExperimentSpec:
    """Parse the key/value format back into a spec.

    Sections may be omitted when ``base`` supplies them; an [experiment]
    section is required unless ``base`` is given.
    """
    cp = ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except Exception as exc:
        raise ConfigError(f"unparseable config: {exc}") from None

    require_experiment = base is None
    if base is None:
        base = ExperimentSpec(
            Metric.SUCCESS_PROB, SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41)
        )
    network, bandwidth, sim = base.network, base.bandwidth, base.sim

    section = "network"
    try:
        if cp.has_section("network"):
            sec = cp["network"]
            alpha = sec.getfloat("alpha", network.pathloss.alpha)
            c0 = sec.getfloat("c0", network.pathloss.c0)
            network = NetworkParams(
                sec.getfloat("intensity", network.intensity),
                sec.getfloat("link_distance", network.link_distance),
                PathLossModel(alpha, c0),
            )
        section = "bandwidth"
        if cp.has_section("bandwidth"):
            sec = cp["bandwidth"]
            n_chunks = sec.getint("n_chunks", bandwidth.n_chunks)
            probs = (
                _parse_probs(sec["type_probs"])
                if "type_probs" in sec
                else bandwidth.type_probs
            )
            bandwidth = BandwidthConfig(
                n_chunks,
                probs,
                sec.get("mode", bandwidth.mode.value),
                sec.getfloat("power_per_chunk", bandwidth.power_per_chunk),
            )
        section = "sim"
        if cp.has_section("sim"):
            sec = cp["sim"]
            window_text = sec.get("window_radius", _fmt(sim.window_radius))
            window = _opt(window_text)
            sim = SimConfig(
                sec.getint("n_realizations", sim.n_realizations),
                sec.getint("seed", sim.seed),
                None if window is None else float(window),
                sec.getint("n_fading_draws", sim.n_fading_draws),
                sec.get("conditional_mode", sim.conditional_mode.value),
            )
        section = "experiment"
        if cp.has_section("experiment"):
            sec = cp["experiment"]
            sweep = SweepSpec(
                sec.get("sweep_variable", base.sweep.variable.value),
                sec.getfloat("sweep_start", base.sweep.start),
                sec.getfloat("sweep_stop", base.sweep.stop),
                sec.getint("sweep_points", base.sweep.points),
                sec.get("sweep_scale", base.sweep.scale),
            )
            theta_db = _opt(sec.get("theta_db", _fmt(base.theta_db)))
            alt_text = _opt(sec.get("alt_type_probs", "none"))
            output = _opt(sec.get("output", _fmt(base.output)))
            return ExperimentSpec(
                metric=sec.get("metric", base.metric.value),
                sweep=sweep,
                network=network,
                bandwidth=bandwidth,
                sim=sim,
                theta_db=None if theta_db is None else float(theta_db),
                alt_type_probs=None if alt_text is None else _parse_probs(alt_text),
                mean_model_metric=sec.get("mean_model_metric", base.mean_model_metric),
                compare_modes=sec.getboolean("compare_modes", base.compare_modes),
                output=output,
            )
        if require_experiment:
            raise ConfigError("section missing")
        return replace(base, network=network, bandwidth=bandwidth, sim=sim)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None
    except Exception as exc:
        raise ConfigError(f"[{section}] invalid value: {exc}") from None


# ---------------------------------------------------------------------------
# sweep evaluation


def _type_range(ba: BandwidthConfig) -> range:
    return range(1, ba.n_chunks + 1)


def _success_table(spec: ExperimentSpec):
    net, ba = spec.network, spec.bandwidth
    header = ["theta_db"] + [f"ps_type_{k}" for k in _type_range(ba)] + ["ps_overall"]

    def row(theta_db: float):
        theta = db_to_linear(theta_db)
        per_type = [success_prob_k(net, ba, k, theta) for k in _type_range(ba)]
        return [theta_db, *per_type, success_prob_overall(net, ba, theta)]

    return header, [row(v) for v in spec.sweep.values()]


def _meta_table(spec: ExperimentSpec):
    net, ba = spec.network, spec.bandwidth
    theta = db_to_linear(spec.theta_db)
    header = (
        ["x", "theta_db"]
        + [f"meta_type_{k}" for k in _type_range(ba)]
        + ["meta_overall"]
    )

    def row(x: float):
        per_type = [meta_ccdf(net, ba, k, theta, x, method="auto") for k in _type_range(ba)]
        overall = ba.mix_average(lambda k: per_type[k - 1])
        return [x, spec.theta_db, *per_type, overall]

    return header, [row(v) for v in spec.sweep.values()]


def _throughput_lambda_table(spec: ExperimentSpec, per_joule_only: bool):
    ba = spec.bandwidth
    types = list(_type_range(ba))
    rate_cols = [f"rate_type_{k}" for k in types] + ["rate_overall"]
    joule_cols = [f"rate_per_joule_type_{k}" for k in types] + ["rate_per_joule_overall"]
    header = ["lambda"] + (joule_cols if per_joule_only else rate_cols + joule_cols)

    def row(lam: float):
        net = replace(spec.network, intensity=lam)
        rates = [shannon_throughput_k(net, ba, k).value for k in types]
        rates.append(shannon_throughput_overall(net, ba).value)
        joules = [shannon_throughput_per_joule_k(net, ba, k).value for k in types]
        joules.append(shannon_throughput_per_joule_overall(net, ba).value)
        if per_joule_only:
            return [lam, *joules]
        return [lam, *rates, *joules]

    return header, [row(v) for v in spec.sweep.values()]


def _throughput_type_table(spec: ExperimentSpec):
    net, ba = spec.network, spec.bandwidth
    ks = sorted({int(round(v)) for v in spec.sweep.values()})
    if any(not 1 <= k <= ba.n_chunks for k in ks):
        raise ConfigError("k sweep leaves [1, n_chunks]")
    if spec.compare_modes:
        header = [
            "k",
            "rate_random",
            "rate_contiguous",
            "rate_per_hz_random",
            "rate_per_hz_contiguous",
        ]
        random_ba = replace(ba, mode=AllocationMode.RANDOM)
        contig_ba = replace(ba, mode=AllocationMode.CONTIGUOUS)

        def row(k: int):
            return [
                float(k),
                shannon_throughput_k(net, random_ba, k).value,
                shannon_throughput_k(net, contig_ba, k).value,
                shannon_throughput_per_hz_k(net, random_ba, k).value,
                shannon_throughput_per_hz_k(net, contig_ba, k).value,
            ]

    else:
        header = ["k", "rate", "rate_per_hz", "rate_per_joule"]

        def row(k: int):
            return [
                float(k),
                shannon_throughput_k(net, ba, k).value,
                shannon_throughput_per_hz_k(net, ba, k).value,
                shannon_throughput_per_joule_k(net, ba, k).value,
            ]

    return header, [row(k) for k in ks]


def _mean_model_table(spec: ExperimentSpec):
    net, ba = spec.network, spec.bandwidth
    matched = match_mean_model(net, ba, spec.alt_type_probs)
    alt_ba = matched.bandwidth
    intensity_ratio = matched.intensity / net.intensity

    if spec.mean_model_metric == "success_prob":
        header = ["theta_db", "ps_base", "ps_alt", "matched_power", "matched_intensity"]

        def row(theta_db: float):
            theta = db_to_linear(theta_db)
            return [
                theta_db,
                success_prob_overall(net, ba, theta),
                success_prob_overall(matched.network, alt_ba, theta),
                matched.power,
                matched.intensity,
            ]

    else:
        per_joule = spec.mean_model_metric == "throughput_per_joule"
        value_name = "rate_per_joule" if per_joule else "rate"
        header = [
            "lambda",
            f"{value_name}_base",
            f"{value_name}_alt",
            "matched_power",
            "matched_intensity",
        ]

        def row(lam: float):
            base_net = replace(net, intensity=lam)
            alt_net = replace(net, intensity=lam * intensity_ratio)
            if per_joule:
                base_val = shannon_throughput_per_joule_overall(base_net, ba).value
                alt_val = shannon_throughput_per_joule_overall(alt_net, alt_ba).value
            else:
                base_val = shannon_throughput_overall(base_net, ba).value
                alt_val = shannon_throughput_overall(alt_net, alt_ba).value
            return [lam, base_val, alt_val, matched.power, lam * intensity_ratio]

    return header, [row(v) for v in spec.sweep.values()]


def _simulate_table(spec: ExperimentSpec):
    net, ba, sim = spec.network, spec.bandwidth, spec.sim
    theta_dbs = list(spec.sweep.values())
    thetas = [db_to_linear(db) for db in theta_dbs]
    header = ["theta_db"]
    for k in _type_range(ba):
        header += [f"sim_ps_type_{k}", f"se_type_{k}"]
    header += ["sim_ps_overall", "se_overall"]

    columns = []
    for k in _type_range(ba):
        columns.append(success_prob_curve(net, ba, sim, k, thetas))
    columns.append(success_prob_curve(net, ba, sim, None, thetas))

    rows = []
    for j, theta_db in enumerate(theta_dbs):
        row = [theta_db]
        for series in columns:
            row += [series[j].value, series[j].std_error]
        rows.append(row)
    return header, rows


def run_experiment(spec: ExperimentSpec):
    """Evaluate the sweep; returns (header, rows)."""
    if spec.metric is Metric.SUCCESS_PROB:
        return _success_table(spec)
    if spec.metric is Metric.META_DIST:
        return _meta_table(spec)
    if spec.metric is Metric.THROUGHPUT:
        if spec.sweep.variable is SweepVariable.K:
            return _throughput_type_table(spec)
        return _throughput_lambda_table(spec, per_joule_only=False)
    if spec.metric is Metric.THROUGHPUT_PER_JOULE:
        if spec.sweep.variable is SweepVariable.K:
            return _throughput_type_table(spec)
        return _throughput_lambda_table(spec, per_joule_only=True)
    if spec.metric is Metric.MEAN_MODEL:
        return _mean_model_table(spec)
    if spec.metric is Metric.SIMULATE:
        return _simulate_table(spec)
    raise ConfigError(f"unsupported metric {spec.metric}")


# ---------------------------------------------------------------------------
# CSV emission


def write_csv(spec: ExperimentSpec, header, rows, path: str) -> None:
    """Emit comment-echoed config, one header line, then the data rows.

    Output is written to a temp file and moved into place so a failure never
    leaves a partial result behind.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            for line in render_config(spec).splitlines():
                handle.write(f"# {line}\n" if line else "#\n")
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(float(v)) for v in row) + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def read_csv_config(path: str) -> ExperimentSpec:
    """Recover the experiment spec from a result file's comment header."""
    lines = []
    with open(path) as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            lines.append(line[1:].strip())
    return parse_config("\n".join(lines))


def run_and_write(spec: ExperimentSpec, path: str | None = None):
    """Run the sweep and emit its CSV; returns (header, rows, path)."""
    out = path or spec.output or f"{spec.metric.value}.csv"
    resolved = replace(spec, output=out)
    header, rows = run_experiment(resolved)
    write_csv(resolved, header, rows, out)
    return header, rows, out


# ---------------------------------------------------------------------------
# figure presets


def _preset_fig1() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.SUCCESS_PROB, SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41)
    )


def _preset_fig3() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.META_DIST,
        SweepSpec(SweepVariable.X, 0.05, 0.95, 19),
        theta_db=-5.0,
    )


def _preset_fig4() -> ExperimentSpec:
    # lambda-sweep throughput figures use the pure power law; the bounded
    # reference model never produces the sparse/dense ranking flip
    return ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 13, scale="log"),
        network=NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0)),
    )


def _preset_fig6() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.K, 1, 10, 10),
        bandwidth=BandwidthConfig.uniform(10, power_per_chunk=2.0),
        compare_modes=True,
    )


def _preset_fig7() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.MEAN_MODEL,
        SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41),
        alt_type_probs=(0.3, 0.0, 0.7),
    )


def _preset_fig8() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.MEAN_MODEL,
        SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 13, scale="log"),
        alt_type_probs=(0.3, 0.0, 0.7),
        mean_model_metric="throughput",
    )


def _preset_fig9() -> ExperimentSpec:
    return ExperimentSpec(
        Metric.MEAN_MODEL,
        SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 13, scale="log"),
        alt_type_probs=(0.3, 0.0, 0.7),
        mean_model_metric="throughput_per_joule",
    )


def _run_fig2():
    sweep = SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41)
    net = default_network()
    mixes = {
        "ps_only_type_1": BandwidthConfig(3, (1.0, 0.0, 0.0), power_per_chunk=2.0),
        "ps_uniform": default_bandwidth(),
        "ps_only_type_3": BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0),
    }
    header = ["theta_db"] + list(mixes)
    rows = [
        [db, *(success_prob_overall(net, ba, db_to_linear(db)) for ba in mixes.values())]
        for db in sweep.values()
    ]
    spec = ExperimentSpec(Metric.SUCCESS_PROB, sweep)
    return spec, header, rows


def _run_fig5():
    sweep = SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 13, scale="log")
    network = NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0))
    mixes = {
        "only_type_1": BandwidthConfig(3, (1.0, 0.0, 0.0), power_per_chunk=2.0),
        "uniform": default_bandwidth(),
        "only_type_3": BandwidthConfig(3, (0.0, 0.0, 1.0), power_per_chunk=2.0),
    }
    header = (
        ["lambda"]
        + [f"rate_{name}" for name in mixes]
        + [f"rate_per_joule_{name}" for name in mixes]
    )
    rows = []
    for lam in sweep.values():
        net = replace(network, intensity=lam)
        rates = [shannon_throughput_overall(net, ba).value for ba in mixes.values()]
        joules = [
            shannon_throughput_per_joule_overall(net, ba).value for ba in mixes.values()
        ]
        rows.append([lam, *rates, *joules])
    spec = ExperimentSpec(Metric.THROUGHPUT, sweep, network=network)
    return spec, header, rows


FIGURE_PRESETS = {
    "fig1": _preset_fig1,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "fig9": _preset_fig9,
}

_SPECIAL_FIGURES = {"fig2": _run_fig2, "fig5": _run_fig5}

FIGURE_NAMES = tuple(sorted([*FIGURE_PRESETS, *_SPECIAL_FIGURES]))


def run_figure(name: str, out_path: str | None = None):
    """Run one preset and emit its CSV; returns (header, rows, path)."""
    if name in FIGURE_PRESETS:
        spec = FIGURE_PRESETS[name]()
        return run_and_write(spec, out_path or f"{name}.csv")
    if name in _SPECIAL_FIGURES:
        spec, header, rows = _SPECIAL_FIGURES[name]()
        out = out_path or f"{name}.csv"
        write_csv(replace(spec, output=out), header, rows, out)
        return header, rows, out
    raise ConfigError(f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
