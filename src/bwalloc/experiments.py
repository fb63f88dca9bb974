"""Experiment sweeps and CSV emission.

An experiment is a metric, a sweep over one variable, and the parameter
records. Resolved configs are rendered in a line-oriented key/value format
with sections (see ``render_config``); every CSV starts with that text as
comment lines, so a result file re-parses to the exact experiment that
produced it.

A table is a list of named columns over the sweep, and ``_TABLES`` picks it by
metric and sweep variable. A closed-form table supplies ``column(ba, k)``, type
k's values over the whole sweep on bandwidth ``ba``, computed once per
(bandwidth, type); an overall or ``compare_mixes`` series is ``ba.mix_average``
of those columns at each point.

Thresholds cross this layer in dB; the library itself works on linear scale.
"""

from __future__ import annotations

import configparser
import os
import tempfile
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from operator import attrgetter

import numpy as np

from .allocation import _check_type
from .errors import ConfigError
from .meanmodel import match_mean_model
from .metadist import meta_ccdf
from .metrics import (
    _check_theta,
    _success_probs,
    shannon_throughput_k,
    shannon_throughput_per_hz_k,
    shannon_throughput_per_joule_k,
)
from .params import (
    AllocationMode,
    BandwidthConfig,
    NetworkParams,
    PathLossModel,
    _check_enum,
    _check_int,
    _check_mix,
    _check_real,
)
from .simulate import SimConfig, _success_curves, success_prob_curve


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
        object.__setattr__(self, "variable", _check_enum(self.variable, SweepVariable))
        for name in ("start", "stop"):
            object.__setattr__(self, name, _check_real(getattr(self, name), f"sweep {name}"))
        object.__setattr__(self, "points", _check_int(self.points, "sweep points", 1))
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ConfigError("log sweeps need positive endpoints")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


#: Each mean-model metric: the variable that it sweeps, its column prefix,
#: and the per-type throughput view that it reads (None: the success
#: probability, one column over the thresholds).
_MEAN_MODEL_METRICS = {
    "success_prob": (SweepVariable.THETA_DB, "ps", None),
    "throughput": (SweepVariable.LAMBDA, "rate", shannon_throughput_k),
    "throughput_per_joule": (
        SweepVariable.LAMBDA, "rate_per_joule", shannon_throughput_per_joule_k
    ),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one sweep run.

    ``compare_mixes`` replaces the per-type and overall columns of the
    success, throughput-versus-intensity and simulate tables with one
    mix-averaged column per listed type mix, each evaluated on
    ``bandwidth`` with its ``type_probs`` swapped for the mix. Columns are
    named ``uniform``, ``only_type_k`` for a single-type mix and ``mix_j``
    (1-based position) otherwise. ``compare_modes`` likewise puts the
    random and contiguous modes side by side on k sweeps.
    """

    metric: Metric
    sweep: SweepSpec
    network: NetworkParams = field(default_factory=default_network)
    bandwidth: BandwidthConfig = field(default_factory=default_bandwidth)
    sim: SimConfig = field(default_factory=SimConfig)
    theta_db: float | None = None
    alt_type_probs: tuple[float, ...] | None = None
    mean_model_metric: str = "success_prob"
    compare_modes: bool = False
    compare_mixes: tuple[tuple[float, ...], ...] | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", _check_enum(self.metric, Metric))
        if self.theta_db is not None:
            object.__setattr__(self, "theta_db", _check_real(self.theta_db, "theta_db"))
        if self.alt_type_probs is not None:
            probs = _check_mix(self.alt_type_probs, "alt_type_probs")
            object.__setattr__(self, "alt_type_probs", probs)
        if self.mean_model_metric not in _MEAN_MODEL_METRICS:
            raise ConfigError(
                f"mean_model_metric must be one of {tuple(_MEAN_MODEL_METRICS)}"
            )
        var = self.sweep.variable
        metric = self.metric
        tables = _TABLES[metric]
        if var not in tables:
            raise ConfigError(f"{metric.value} sweeps {' or '.join(v.value for v in tables)}")
        if metric is Metric.META_DIST and self.theta_db is None:
            raise ConfigError("meta_dist needs theta_db")
        if metric is Metric.THROUGHPUT and var is SweepVariable.K:
            n = self.bandwidth.n_chunks
            for v in self.sweep.values():
                if abs(v - round(v)) > 1e-9 or not 1 <= round(v) <= n:
                    raise ConfigError(f"k sweep value {v:g} is not a type in [1, {n}]")
        if metric is Metric.MEAN_MODEL:
            if self.alt_type_probs is None:
                raise ConfigError("mean_model needs alt_type_probs")
            if len(self.alt_type_probs) != self.bandwidth.n_chunks:
                raise ConfigError("alt_type_probs must match n_chunks")
            if var is not _MEAN_MODEL_METRICS[self.mean_model_metric][0]:
                raise ConfigError("mean_model success_prob sweeps theta_db, throughput lambda")
        if self.compare_modes and var is not SweepVariable.K:
            raise ConfigError("compare_modes applies only to k sweeps")
        if self.compare_mixes is not None:
            if metric in (Metric.META_DIST, Metric.MEAN_MODEL) or var is SweepVariable.K:
                raise ConfigError(
                    "compare_mixes applies to success_prob, simulate and lambda sweeps"
                )
            try:
                mixes = tuple(
                    replace(self.bandwidth, type_probs=mix).type_probs
                    for mix in self.compare_mixes
                )
            except ConfigError as exc:
                raise ConfigError(f"compare_mixes: {exc}") from None
            if not mixes or len(set(mixes)) != len(mixes):
                raise ConfigError("compare_mixes needs one or more distinct mixes")
            object.__setattr__(self, "compare_mixes", mixes)


# ---------------------------------------------------------------------------
# config text rendering / parsing


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        # a type mix is comma separated, a list of mixes semicolon separated
        nested = bool(value) and isinstance(value[0], tuple)
        return ("; " if nested else ", ").join(map(_fmt, value))
    return str(value)


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


def _parse_mixes(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_probs(mix) for mix in text.split(";"))


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {text!r}") from None


def _or_none(parse):
    """``parse``, except that the text ``none`` reads as None."""
    return lambda text: None if text.lower() == "none" else parse(text)


#: Every config key, in rendering order: (section, key) -> (attribute path of
#: its value in an ExperimentSpec, parser of its text).
_KEYS = {
    ("network", "intensity"): ("network.intensity", float),
    ("network", "link_distance"): ("network.link_distance", float),
    ("network", "alpha"): ("network.pathloss.alpha", float),
    ("network", "c0"): ("network.pathloss.c0", float),
    ("bandwidth", "n_chunks"): ("bandwidth.n_chunks", int),
    ("bandwidth", "type_probs"): ("bandwidth.type_probs", _parse_probs),
    ("bandwidth", "mode"): ("bandwidth.mode", str),
    ("bandwidth", "power_per_chunk"): ("bandwidth.power_per_chunk", float),
    ("sim", "n_realizations"): ("sim.n_realizations", int),
    ("sim", "seed"): ("sim.seed", int),
    ("sim", "window_radius"): ("sim.window_radius", _or_none(float)),
    ("experiment", "metric"): ("metric", str),
    ("experiment", "sweep_variable"): ("sweep.variable", str),
    ("experiment", "sweep_start"): ("sweep.start", float),
    ("experiment", "sweep_stop"): ("sweep.stop", float),
    ("experiment", "sweep_points"): ("sweep.points", int),
    ("experiment", "sweep_scale"): ("sweep.scale", str),
    ("experiment", "theta_db"): ("theta_db", _or_none(float)),
    ("experiment", "alt_type_probs"): ("alt_type_probs", _or_none(_parse_probs)),
    ("experiment", "mean_model_metric"): ("mean_model_metric", str),
    ("experiment", "compare_modes"): ("compare_modes", _parse_bool),
    ("experiment", "compare_mixes"): ("compare_mixes", _or_none(_parse_mixes)),
    ("experiment", "output"): ("output", _or_none(str)),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))


def _spec_values(spec: ExperimentSpec) -> dict:
    """{(section, key): value} for every config key."""
    return {key: attrgetter(path)(spec) for key, (path, _) in _KEYS.items()}


def _build_spec(*layers: dict) -> ExperimentSpec:
    """The spec that {(section, key): value} layers give, later layers winning.

    A key no layer sets keeps the value of the reference experiment (fig1).
    """
    sections = {section: {} for section in _SECTIONS}
    for values in (_spec_values(_reference_experiment()), *layers):
        for (section, key), value in values.items():
            sections[section][key] = value
    net, exp = sections["network"], sections["experiment"]
    section = "network"
    try:
        network = NetworkParams(
            net.pop("intensity"), net.pop("link_distance"), PathLossModel(**net)
        )
        section = "bandwidth"
        bandwidth = BandwidthConfig(**sections["bandwidth"])
        section = "sim"
        sim = SimConfig(**sections["sim"])
        section = "experiment"
        fields = ("variable", "start", "stop", "points", "scale")
        sweep = SweepSpec(*(exp.pop(f"sweep_{name}") for name in fields))
        return ExperimentSpec(sweep=sweep, network=network, bandwidth=bandwidth, sim=sim, **exp)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def render_config(spec: ExperimentSpec) -> str:
    """Resolved experiment as section-structured key/value lines."""
    lines, previous = [], None
    for (section, key), value in _spec_values(spec).items():
        if section != previous:
            lines += ["", f"[{section}]"]
            previous = section
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines[1:]) + "\n"


def _config_layer(text: str) -> dict:
    """{(section, key): value} for every key that a config text sets; an
    unknown section or key is an error."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")
    layer = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in cp.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            try:
                layer[section, key] = _KEYS[section, key][1](text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return layer


def parse_config(text: str, base: ExperimentSpec | None = None) -> ExperimentSpec:
    """Parse the key/value format back into a spec.

    A key the text omits keeps its value in ``base``. Without ``base`` the
    text must set an [experiment] key, and omitted keys take the reference
    defaults.
    """
    layer = _config_layer(text)
    if base is None and not any(section == "experiment" for section, _ in layer):
        raise ConfigError("[experiment] section missing")
    return _build_spec({} if base is None else _spec_values(base), layer)


# ---------------------------------------------------------------------------
# sweep evaluation


def _mix_name(mix: tuple[float, ...], j: int) -> str:
    if len(set(mix)) == 1:
        return "uniform"
    nonzero = [k for k, p in enumerate(mix, start=1) if p > 0.0]
    return f"only_type_{nonzero[0]}" if len(nonzero) == 1 else f"mix_{j}"


def _cells(spec: ExperimentSpec):
    """(name, bandwidth, type) of each series of a success, lambda or
    simulate table; type None is the average over the bandwidth's type mix."""
    ba = spec.bandwidth
    if spec.compare_mixes is None:
        return [(f"type_{k}", ba, k) for k in range(1, ba.n_chunks + 1)] + [("overall", ba, None)]
    return [
        (_mix_name(mix, j), replace(ba, type_probs=mix), None)
        for j, mix in enumerate(spec.compare_mixes, start=1)
    ]


def _columns(value, points):
    """column(ba, k): ``value(ba, k, p)`` at each sweep point p, computed
    once per (bandwidth, type)."""
    return cache(lambda ba, k: [value(ba, k, p) for p in points])


def _mix_column(ba: BandwidthConfig, column, points: int) -> list:
    """``ba.mix_average`` of the type columns ``column(ba, k)`` at each of
    the sweep's points; ``column`` is read once per point, so it comes
    cached from ``_columns``."""
    return [ba.mix_average(lambda k: column(ba, k)[j]) for j in range(points)]


def _series(spec: ExperimentSpec, prefix: str, column):
    """(prefix + name, values) of each series of ``_cells``: a type's
    column, or the average of the columns over a mix."""
    points = spec.sweep.points
    return [
        (prefix + name, column(ba, k) if k is not None else _mix_column(ba, column, points))
        for name, ba, k in _cells(spec)
    ]


def _table(*columns):
    """(header, rows) of (name, values) columns."""
    return [name for name, _ in columns], [list(row) for row in zip(*(v for _, v in columns))]


def _success_columns(net: NetworkParams, thetas):
    """column(ba, k): ``success_prob_k`` on ``net`` at every threshold, in one call."""
    thetas = np.array([_check_theta(theta) for theta in thetas])
    return cache(
        lambda ba, k: _success_probs(net, ba, _check_type(ba.n_chunks, k, "k"), thetas).tolist()
    )


def _success_table(spec: ExperimentSpec):
    theta_dbs = spec.sweep.values()
    column = _success_columns(spec.network, [db_to_linear(v) for v in theta_dbs])
    return _table(("theta_db", theta_dbs), *_series(spec, "ps_", column))


def _meta_table(spec: ExperimentSpec):
    net, xs = spec.network, spec.sweep.values()
    theta = db_to_linear(spec.theta_db)
    column = _columns(lambda ba, k, x: meta_ccdf(net, ba, k, theta, x, method="auto"), xs)
    return _table(
        ("x", xs), ("theta_db", [spec.theta_db] * len(xs)), *_series(spec, "meta_", column)
    )


def _view_columns(view, nets):
    """column(ba, k): the throughput ``view(net, ba, k)`` on each network."""
    return _columns(lambda ba, k, net: view(net, ba, k).value, nets)


def _throughput_lambda_table(spec: ExperimentSpec):
    lams = spec.sweep.values()
    nets = [replace(spec.network, intensity=lam) for lam in lams]
    return _table(
        ("lambda", lams),
        *_series(spec, "rate_", _view_columns(shannon_throughput_k, nets)),
        *_series(spec, "rate_per_joule_", _view_columns(shannon_throughput_per_joule_k, nets)),
    )


def _throughput_type_table(spec: ExperimentSpec):
    net, ba = spec.network, spec.bandwidth
    ks = [int(round(v)) for v in spec.sweep.values()]
    views = [("rate", shannon_throughput_k), ("rate_per_hz", shannon_throughput_per_hz_k)]
    if spec.compare_modes:
        cells = [
            (f"{name}_{mode.value}", view, replace(ba, mode=mode))
            for name, view in views
            for mode in AllocationMode
        ]
    else:
        views.append(("rate_per_joule", shannon_throughput_per_joule_k))
        cells = [(name, view, ba) for name, view in views]
    return _table(
        ("k", [float(k) for k in ks]),
        *[(name, [view(net, cell_ba, k).value for k in ks]) for name, view, cell_ba in cells],
    )


def _mean_model_table(spec: ExperimentSpec):
    net, ba, values, points = spec.network, spec.bandwidth, spec.sweep.values(), spec.sweep.points
    matched = match_mean_model(net, ba, spec.alt_type_probs)
    _, value_name, view = _MEAN_MODEL_METRICS[spec.mean_model_metric]
    if view is None:
        alt_intensities = [matched.intensity] * points
        thetas = [db_to_linear(v) for v in values]
        base, alt = (_success_columns(side, thetas) for side in (net, matched.network))
    else:
        ratio = matched.intensity / net.intensity
        alt_intensities = [lam * ratio for lam in values]
        base, alt = (
            _view_columns(view, [replace(net, intensity=lam) for lam in intensities])
            for intensities in (values, alt_intensities)
        )
    return _table(
        (spec.sweep.variable.value, values),
        (f"{value_name}_base", _mix_column(ba, base, points)),
        (f"{value_name}_alt", _mix_column(matched.bandwidth, alt, points)),
        ("matched_power", [matched.power] * points),
        ("matched_intensity", alt_intensities),
    )


def _simulate_table(spec: ExperimentSpec):
    """Like the success table, but each series is a ``success_prob_curve``:
    the per-type series come from one pass over the networks, and an
    overall series draws the typical user's type per realization."""
    net, sim, theta_dbs = spec.network, spec.sim, spec.sweep.values()
    thetas = [db_to_linear(db) for db in theta_dbs]
    cells = _cells(spec)
    # the fixed-type cells all read spec.bandwidth
    fixed = [k for _, _, k in cells if k is not None]
    curves = iter(_success_curves(net, spec.bandwidth, sim, fixed, thetas) if fixed else [])
    columns = [("theta_db", theta_dbs)]
    for name, ba, k in cells:
        curve = success_prob_curve(net, ba, sim, k, thetas) if k is None else next(curves)
        columns.append((f"sim_ps_{name}", [estimate.value for estimate in curve]))
        columns.append((f"se_{name}", [estimate.std_error for estimate in curve]))
    return _table(*columns)


#: The table of each metric, by the variable that it sweeps.
_TABLES = {
    Metric.SUCCESS_PROB: {SweepVariable.THETA_DB: _success_table},
    Metric.META_DIST: {SweepVariable.X: _meta_table},
    Metric.THROUGHPUT: {
        SweepVariable.LAMBDA: _throughput_lambda_table,
        SweepVariable.K: _throughput_type_table,
    },
    Metric.MEAN_MODEL: {
        SweepVariable.THETA_DB: _mean_model_table,
        SweepVariable.LAMBDA: _mean_model_table,
    },
    Metric.SIMULATE: {SweepVariable.THETA_DB: _simulate_table},
}


def run_experiment(spec: ExperimentSpec):
    """Evaluate the sweep; returns (header, rows)."""
    return _TABLES[spec.metric][spec.sweep.variable](spec)


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
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
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


# all users on one chunk, the uniform mix, and all users on the full band
_NARROW_UNIFORM_WIDE = ((1.0, 0.0, 0.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 1.0))


def _reference_experiment() -> ExperimentSpec:
    """fig1: every record at its reference default."""
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


FIGURE_PRESETS = {
    "fig1": _reference_experiment,
    "fig2": lambda: replace(_reference_experiment(), compare_mixes=_NARROW_UNIFORM_WIDE),
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": lambda: replace(_preset_fig4(), compare_mixes=_NARROW_UNIFORM_WIDE),
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "fig9": _preset_fig9,
}

FIGURE_NAMES = tuple(sorted(FIGURE_PRESETS))


def run_figure(name: str, out_path: str | None = None):
    """Run one preset and emit its CSV; returns (header, rows, path)."""
    if name not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
    return run_and_write(FIGURE_PRESETS[name](), out_path or f"{name}.csv")
