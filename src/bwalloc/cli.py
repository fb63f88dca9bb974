"""Command-line front end.

Verbs map one-to-one onto experiment metrics, plus ``figure`` for the
preset sweeps. Exit codes: 0 success, 1 validation error, 2 numerical
failure. Thresholds are taken in dB, as in config files; the experiment
table builders convert them to linear (``experiments.db_to_linear``).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DomainError, IntegrationError
from .experiments import (
    FIGURE_NAMES,
    ExperimentSpec,
    Metric,
    SweepVariable,
    _build_spec,
    _config_layer,
    _parse_probs,
    default_bandwidth,
    run_and_write,
    run_figure,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so exit codes keep their meaning
    def error(self, message):
        raise ConfigError(message)


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must look like start:stop:points, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}: {exc}") from None


#: each verb's metric, the variable it sweeps unless told otherwise, and
#: its help line
_VERBS = {
    "success-prob": (Metric.SUCCESS_PROB, SweepVariable.THETA_DB,
                     "per-type and overall success probability vs threshold"),
    "meta-dist": (Metric.META_DIST, SweepVariable.X,
                  "reliability distribution vs target reliability"),
    "throughput": (Metric.THROUGHPUT, SweepVariable.LAMBDA,
                   "Shannon throughput vs intensity or type"),
    "mean-model": (Metric.MEAN_MODEL, SweepVariable.THETA_DB,
                   "mean-calibrated comparison of two type mixes"),
    "simulate": (Metric.SIMULATE, SweepVariable.THETA_DB,
                 "Monte Carlo success probability vs threshold"),
}

#: default start, stop, points and scale of a sweep over each variable; a k
#: sweep defaults to every type of the resolved chunk count
_DEFAULT_SWEEPS = {
    SweepVariable.THETA_DB: (-20.0, 20.0, 41, "linear"),
    SweepVariable.X: (0.05, 0.95, 19, "linear"),
    SweepVariable.LAMBDA: (0.01, 1.0, 13, "log"),
}
_DEFAULT_SIMULATE_SWEEP = (-10.0, 10.0, 5, "linear")

#: meta-dist threshold when neither --theta-db nor the config file sets one
_DEFAULT_META_THETA_DB = -5.0

_VARIABLE = ("experiment", "sweep_variable")
_RANGE = [("experiment", f"sweep_{name}") for name in ("start", "stop", "points", "scale")]
_MEAN_MODEL_METRIC = ("experiment", "mean_model_metric")
_ALT_PROBS = ("experiment", "alt_type_probs")

#: the config key that each flag sets (``--sweep`` sets start, stop and points)
_FLAG_KEYS = {
    "out": ("experiment", "output"),
    "seed": ("sim", "seed"),
    "mode": ("bandwidth", "mode"),
    "realizations": ("sim", "n_realizations"),
    "scale": ("experiment", "sweep_scale"),
    "sweep_var": _VARIABLE,
    "theta_db": ("experiment", "theta_db"),
    "alt_probs": _ALT_PROBS,
    "metric": _MEAN_MODEL_METRIC,
    "compare_modes": ("experiment", "compare_modes"),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file applied before flag overrides")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--seed", type=int, help="simulation seed (64-bit)")
    sub.add_argument("--mode", choices=["random", "contiguous"], help="allocation mode")
    sub.add_argument("--realizations", type=int, help="Monte Carlo realization count")
    sub.add_argument(
        "--sweep",
        help="sweep range as start:stop:points (write --sweep=-20:20:41 "
        "when the range starts negative)",
    )
    sub.add_argument(
        "--scale", choices=["linear", "log"], help="sweep spacing (default per verb)"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="bwalloc", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb, (_, _, blurb) in _VERBS.items():
        sub = subs.add_parser(verb, help=blurb)
        _add_common(sub)
        if verb == "meta-dist":
            sub.add_argument(
                "--theta-db", type=float,
                help=f"SIR threshold (dB, default {_DEFAULT_META_THETA_DB:g})",
            )
        if verb == "throughput":
            sub.add_argument(
                "--sweep-var", choices=["lambda", "k"],
                help="sweep the intensity or the user type",
            )
            sub.add_argument(
                "--compare-modes", action="store_true", default=None,
                help="k sweeps only: random and contiguous columns side by side",
            )
        if verb == "mean-model":
            sub.add_argument(
                "--alt-probs", required=True,
                help="alternative type mix, comma separated",
            )
            sub.add_argument(
                "--metric",
                choices=["success-prob", "throughput", "throughput-per-joule"],
                help="which overall metric to overlay (default success-prob)",
            )

    fig = subs.add_parser("figure", help="run a preset sweep")
    fig.add_argument("name", choices=list(FIGURE_NAMES))
    fig.add_argument("--out", help="output CSV path")
    return parser


def _flag_layer(args) -> dict:
    """The config keys set by the verb and by the flags actually given."""
    metric = _VERBS[args.verb][0]
    layer = {("experiment", "metric"): metric}
    for dest, key in _FLAG_KEYS.items():
        if getattr(args, dest, None) is not None:
            layer[key] = getattr(args, dest)
    if args.sweep:
        # zip stops before the scale, which --sweep leaves alone
        layer.update(zip(_RANGE, _parse_sweep(args.sweep)))
    if _ALT_PROBS in layer:
        layer[_ALT_PROBS] = _parse_probs(layer[_ALT_PROBS])
    if _MEAN_MODEL_METRIC in layer:
        layer[_MEAN_MODEL_METRIC] = layer[_MEAN_MODEL_METRIC].replace("-", "_")
    return layer


def _verb_defaults(verb: str, given: dict) -> dict:
    """The verb's defaults; the sweep range follows the sweep variable (and,
    for k, the chunk count) that the config file and the flags (``given``)
    resolve to."""
    metric, variable, _ = _VERBS[verb]
    mean_model_metric = given.get(_MEAN_MODEL_METRIC, "success_prob")
    if metric is Metric.MEAN_MODEL and mean_model_metric != "success_prob":
        variable = SweepVariable.LAMBDA
    variable = given.get(_VARIABLE, variable)
    if metric is Metric.SIMULATE and variable == SweepVariable.THETA_DB:
        sweep = _DEFAULT_SIMULATE_SWEEP
    elif variable == SweepVariable.K:
        n = given.get(("bandwidth", "n_chunks"), default_bandwidth().n_chunks)
        sweep = (1.0, float(n), n, "linear")
    else:
        sweep = _DEFAULT_SWEEPS.get(variable, ())
    defaults = {_VARIABLE: variable, **dict(zip(_RANGE, sweep))}
    if metric is Metric.META_DIST:
        defaults["experiment", "theta_db"] = _DEFAULT_META_THETA_DB
    return defaults


def _spec_from_args(args) -> ExperimentSpec:
    """Key by key, the verb's defaults, then the config file, then the flags
    actually given."""
    given = {}
    if args.config:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        given = _config_layer(text)
    given.update(_flag_layer(args))
    return _build_spec(_verb_defaults(args.verb, given), given)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "figure":
            _, rows, path = run_figure(args.name, args.out)
        else:
            spec = _spec_from_args(args)
            _, rows, path = run_and_write(spec, spec.output)
        print(f"wrote {len(rows)} rows to {path}")
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
