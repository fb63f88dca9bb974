"""Command-line front end.

Verbs map one-to-one onto experiment metrics, plus ``figure`` for the
preset sweeps. Exit codes: 0 success, 1 validation error, 2 numerical
failure. Thresholds are taken in dB here and converted once, at this layer.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DomainError, IntegrationError
from .experiments import (
    FIGURE_NAMES,
    ExperimentSpec,
    Metric,
    SweepSpec,
    SweepVariable,
    default_bandwidth,
    default_network,
    parse_config,
    run_and_write,
    run_figure,
)
from .simulate import SimConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so exit codes keep their meaning
    def error(self, message):
        raise ConfigError(message)


def _parse_sweep(text: str, variable: SweepVariable, scale: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must look like start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}: {exc}") from None
    return SweepSpec(variable, start, stop, points, scale)


_DEFAULT_SWEEPS = {
    Metric.SUCCESS_PROB: ("-20:20:41", SweepVariable.THETA_DB, "linear"),
    Metric.META_DIST: ("0.05:0.95:19", SweepVariable.X, "linear"),
    Metric.THROUGHPUT: ("0.01:1:13", SweepVariable.LAMBDA, "log"),
    Metric.THROUGHPUT_PER_JOULE: ("0.01:1:13", SweepVariable.LAMBDA, "log"),
    Metric.MEAN_MODEL: ("-20:20:41", SweepVariable.THETA_DB, "linear"),
    Metric.SIMULATE: ("-10:10:5", SweepVariable.THETA_DB, "linear"),
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

    names = {
        "success-prob": "per-type and overall success probability vs threshold",
        "meta-dist": "reliability distribution vs target reliability",
        "throughput": "Shannon throughput vs intensity or type",
        "mean-model": "mean-calibrated comparison of two type mixes",
        "simulate": "Monte Carlo success probability vs threshold",
    }
    for verb, blurb in names.items():
        sub = subs.add_parser(verb, help=blurb)
        _add_common(sub)
        if verb == "meta-dist":
            sub.add_argument("--theta-db", type=float, default=-5.0, help="SIR threshold (dB)")
        if verb == "throughput":
            sub.add_argument(
                "--sweep-var", choices=["lambda", "k"], default="lambda",
                help="sweep the intensity or the user type",
            )
            sub.add_argument(
                "--per-joule", action="store_true", help="emit only per-joule columns"
            )
            sub.add_argument(
                "--compare-modes", action="store_true",
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
                default="success-prob",
                help="which overall metric to overlay",
            )

    fig = subs.add_parser("figure", help="run a preset sweep")
    fig.add_argument("name", choices=list(FIGURE_NAMES))
    fig.add_argument("--out", help="output CSV path")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    verb_metric = {
        "success-prob": Metric.SUCCESS_PROB,
        "meta-dist": Metric.META_DIST,
        "throughput": Metric.THROUGHPUT,
        "mean-model": Metric.MEAN_MODEL,
        "simulate": Metric.SIMULATE,
    }
    metric = verb_metric[args.verb]
    if metric is Metric.THROUGHPUT and getattr(args, "per_joule", False):
        metric = Metric.THROUGHPUT_PER_JOULE

    sweep_text, variable, scale = _DEFAULT_SWEEPS[metric]
    if metric in (Metric.THROUGHPUT, Metric.THROUGHPUT_PER_JOULE):
        if getattr(args, "sweep_var", "lambda") == "k":
            variable, sweep_text, scale = SweepVariable.K, "1:3:3", "linear"
    mm_metric = getattr(args, "metric", "success-prob").replace("-", "_")
    if metric is Metric.MEAN_MODEL and mm_metric != "success_prob":
        variable, sweep_text, scale = SweepVariable.LAMBDA, "0.01:1:13", "log"
    if args.scale:
        scale = args.scale
    sweep = _parse_sweep(args.sweep or sweep_text, variable, scale)

    base = ExperimentSpec(
        metric,
        sweep,
        network=default_network(),
        bandwidth=default_bandwidth(),
        sim=SimConfig(),
        theta_db=getattr(args, "theta_db", None),
        alt_type_probs=(
            tuple(float(p) for p in args.alt_probs.split(","))
            if getattr(args, "alt_probs", None)
            else None
        ),
        mean_model_metric=mm_metric,
        compare_modes=getattr(args, "compare_modes", False),
        output=args.out,
    )
    if args.config:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        parsed = parse_config(text, base=base)
        base = replace(
            parsed,
            metric=metric,
            sweep=sweep if args.sweep else parsed.sweep,
            output=args.out or parsed.output,
        )

    overrides = {}
    if args.mode:
        overrides["bandwidth"] = replace(base.bandwidth, mode=args.mode)
    sim_overrides = {}
    if args.seed is not None:
        sim_overrides["seed"] = args.seed
    if args.realizations is not None:
        sim_overrides["n_realizations"] = args.realizations
    if sim_overrides:
        overrides["sim"] = replace(base.sim, **sim_overrides)
    return replace(base, **overrides) if overrides else base


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
