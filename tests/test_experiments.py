"""Experiment runner, config round-trip, CSV format, and CLI tests."""

import os
import re
from configparser import ConfigParser
from pathlib import Path

import numpy as np
import pytest

from bwalloc import experiments, metrics
from bwalloc.cli import _spec_from_args, build_parser, main
from bwalloc.errors import ConfigError
from bwalloc.experiments import (
    FIGURE_PRESETS,
    ExperimentSpec,
    Metric,
    SweepSpec,
    SweepVariable,
    db_to_linear,
    default_bandwidth,
    default_network,
    parse_config,
    read_csv_config,
    render_config,
    run_and_write,
    run_experiment,
    run_figure,
)
from bwalloc.metadist import meta_ccdf_overall
from bwalloc.metrics import success_prob_k, success_prob_overall
from bwalloc.params import AllocationMode, BandwidthConfig, NetworkParams, PathLossModel
from bwalloc.simulate import SimConfig


def _spec(**kw):
    defaults = dict(
        metric=Metric.SUCCESS_PROB,
        sweep=SweepSpec(SweepVariable.THETA_DB, -10.0, 10.0, 5),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-5.0) == pytest.approx(10 ** (-0.5))


def test_sweep_values_linear_and_log():
    lin = SweepSpec(SweepVariable.THETA_DB, -10, 10, 5)
    np.testing.assert_allclose(lin.values(), [-10, -5, 0, 5, 10])
    log = SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 3, scale="log")
    np.testing.assert_allclose(log.values(), [0.01, 0.1, 1.0])


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepSpec(SweepVariable.THETA_DB, 0, 1, 0)
    with pytest.raises(ConfigError):
        SweepSpec(SweepVariable.LAMBDA, -1, 1, 5, scale="log")
    with pytest.raises(ConfigError):
        SweepSpec(SweepVariable.LAMBDA, 0.1, 1, 5, scale="cubic")
    with pytest.raises(ConfigError):
        SweepSpec("frequency", 0, 1, 5)


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(metric=Metric.META_DIST)  # wrong sweep variable
    with pytest.raises(ConfigError):
        ExperimentSpec(Metric.META_DIST, SweepSpec(SweepVariable.X, 0.1, 0.9, 5))
    with pytest.raises(ConfigError):
        _spec(metric=Metric.MEAN_MODEL)  # missing alternative mix
    with pytest.raises(ConfigError):
        _spec(compare_modes=True)
    with pytest.raises(ConfigError):
        _spec(metric="coverage")
    for theta_db in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ExperimentSpec(
                Metric.META_DIST, SweepSpec(SweepVariable.X, 0.1, 0.9, 5), theta_db=theta_db
            )
        with pytest.raises(ConfigError):
            _spec(theta_db=theta_db)
    # k sweeps must hit every type exactly once per point, inside [1, n]
    k_sweep = dict(metric=Metric.THROUGHPUT)
    with pytest.raises(ConfigError):
        _spec(**k_sweep, sweep=SweepSpec(SweepVariable.K, 1, 3, 5))
    with pytest.raises(ConfigError):
        _spec(**k_sweep, sweep=SweepSpec(SweepVariable.K, 0, 3, 4))
    with pytest.raises(ConfigError):
        _spec(**k_sweep, sweep=SweepSpec(SweepVariable.K, 1, 4, 4))
    # compare_mixes: each mix is a valid mix for the bandwidth, and only
    # the success, simulate and intensity-sweep tables take it
    mix = ((1.0, 0.0, 0.0),)
    with pytest.raises(ConfigError):
        _spec(compare_mixes=((0.5, 0.5),))
    with pytest.raises(ConfigError):
        _spec(compare_mixes=((0.5, 0.5, 0.5),))
    with pytest.raises(ConfigError):
        _spec(compare_mixes=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ConfigError):
        _spec(compare_mixes=())
    with pytest.raises(ConfigError):
        ExperimentSpec(
            Metric.META_DIST,
            SweepSpec(SweepVariable.X, 0.1, 0.9, 5),
            theta_db=-5.0,
            compare_mixes=mix,
        )
    with pytest.raises(ConfigError):
        _spec(
            metric=Metric.MEAN_MODEL,
            alt_type_probs=(0.3, 0.0, 0.7),
            compare_mixes=mix,
        )
    with pytest.raises(ConfigError):
        _spec(**k_sweep, sweep=SweepSpec(SweepVariable.K, 1, 3, 3), compare_mixes=mix)
    # mean_model: one of three metrics, each with its sweep variable
    # (success_prob theta_db, the throughputs lambda)
    mean_model = dict(metric=Metric.MEAN_MODEL, alt_type_probs=(0.3, 0.0, 0.7))
    lam = SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 3)
    with pytest.raises(ConfigError, match="mean_model_metric must be one of"):
        _spec(**mean_model, mean_model_metric="coverage")
    with pytest.raises(ConfigError, match="success_prob sweeps theta_db"):
        _spec(**mean_model, mean_model_metric="throughput")
    with pytest.raises(ConfigError, match="success_prob sweeps theta_db"):
        _spec(**mean_model, sweep=lam)


def test_success_prob_rows_match_library():
    header, rows = run_experiment(_spec())
    assert header == ["theta_db", "ps_type_1", "ps_type_2", "ps_type_3", "ps_overall"]
    net, ba = default_network(), default_bandwidth()
    for row in rows:
        theta = db_to_linear(row[0])
        assert row[1:4] == [success_prob_k(net, ba, k, theta) for k in (1, 2, 3)]
        assert row[4] == success_prob_overall(net, ba, theta)


def test_meta_overall_column_matches_library():
    spec = ExperimentSpec(
        Metric.META_DIST, SweepSpec(SweepVariable.X, 0.2, 0.8, 3), theta_db=-5.0
    )
    header, rows = run_experiment(spec)
    assert header[-1] == "meta_overall"
    net, ba, theta = spec.network, spec.bandwidth, db_to_linear(-5.0)
    for row in rows:
        assert row[-1] == meta_ccdf_overall(net, ba, theta, row[0], method="auto")


@pytest.mark.parametrize("mixes", [None, ((0.0, 1.0, 0.0), (0.2, 0.3, 0.5))])
def test_lambda_overall_columns_match_library(mixes):
    spec = ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.LAMBDA, 0.05, 1.0, 3, scale="log"),
        network=NetworkParams(0.2, 1.0, PathLossModel.power_law(4.0)),
        compare_mixes=mixes,
    )
    header, rows = run_experiment(spec)
    if mixes is None:
        bands = {"overall": spec.bandwidth}
    else:
        bands = {
            name: BandwidthConfig(3, mix, power_per_chunk=2.0)
            for name, mix in zip(("only_type_2", "mix_2"), mixes)
        }
    for row in rows:
        net = NetworkParams(row[0], 1.0, spec.network.pathloss)
        for name, ba in bands.items():
            rate = row[header.index(f"rate_{name}")]
            per_joule = row[header.index(f"rate_per_joule_{name}")]
            assert rate == metrics.shannon_throughput_overall(net, ba).value
            assert per_joule == metrics.shannon_throughput_per_joule_overall(net, ba).value


def _count_calls(monkeypatch, name):
    """Count the calls of metrics.<name> through every module that binds it."""
    calls = []
    original = getattr(metrics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (metrics, experiments):
        monkeypatch.setattr(module, name, counted)
    return calls


def test_success_table_computes_each_type_column_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_success_probs")
    _, rows = run_experiment(_spec(sweep=SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41)))
    assert len(rows) == 41
    # one array call per type over the whole sweep; the overall column
    # reuses them
    assert [len(thetas) for *_, thetas in calls] == [41] * 3


@pytest.mark.parametrize("mode", [AllocationMode.RANDOM, AllocationMode.CONTIGUOUS])
@pytest.mark.parametrize("c0", [0.0, 1.0], ids=["power_law", "bounded"])
def test_success_table_cells_are_the_scalar_calls(mode, c0):
    spec = _spec(
        sweep=SweepSpec(SweepVariable.THETA_DB, -20.0, 20.0, 41),
        network=NetworkParams(0.2, 1.0, PathLossModel(4.0, c0)),
        bandwidth=BandwidthConfig.uniform(10, mode=mode),
    )
    header, rows = run_experiment(spec)
    for k in range(1, 11):
        column = header.index(f"ps_type_{k}")
        for row in rows:
            theta = db_to_linear(row[0])
            assert row[column] == success_prob_k(spec.network, spec.bandwidth, k, theta)


def test_lambda_table_computes_each_type_column_once(monkeypatch):
    rates = _count_calls(monkeypatch, "shannon_throughput_k")
    per_joule = _count_calls(monkeypatch, "shannon_throughput_per_joule_k")
    spec = ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.LAMBDA, 0.1, 1.0, 4, scale="log"),
        bandwidth=BandwidthConfig.uniform(4, power_per_chunk=2.0),
    )
    run_experiment(spec)
    assert len(rates) == len(per_joule) == 4 * 4


def test_meta_rows():
    spec = ExperimentSpec(
        Metric.META_DIST, SweepSpec(SweepVariable.X, 0.2, 0.8, 3), theta_db=-5.0
    )
    header, rows = run_experiment(spec)
    assert header[:2] == ["x", "theta_db"]
    assert len(rows) == 3
    # ccdf decreases along the x sweep
    assert rows[0][2] >= rows[1][2] >= rows[2][2]


def test_throughput_lambda_rows():
    spec = ExperimentSpec(
        Metric.THROUGHPUT, SweepSpec(SweepVariable.LAMBDA, 0.1, 1.0, 3, scale="log")
    )
    header, rows = run_experiment(spec)
    assert header[0] == "lambda"
    assert "rate_type_1" in header and "rate_per_joule_overall" in header
    # throughput decreases with intensity
    assert rows[0][1] > rows[-1][1]


def test_compare_mixes_columns_follow_the_mixes():
    mixes = ((0.0, 1.0, 0.0), (0.2, 0.3, 0.5))
    header, rows = run_experiment(_spec(compare_mixes=mixes))
    assert header == ["theta_db", "ps_only_type_2", "ps_mix_2"]
    net = default_network()
    for row in rows:
        theta = db_to_linear(row[0])
        for value, mix in zip(row[1:], mixes):
            ba = BandwidthConfig(3, mix, power_per_chunk=2.0)
            assert value == success_prob_overall(net, ba, theta)
    sim = ExperimentSpec(
        Metric.SIMULATE,
        SweepSpec(SweepVariable.THETA_DB, 0.0, 0.0, 1),
        sim=SimConfig(n_realizations=50, seed=3),
        compare_mixes=mixes,
    )
    header, rows = run_experiment(sim)
    assert header == [
        "theta_db", "sim_ps_only_type_2", "se_only_type_2", "sim_ps_mix_2", "se_mix_2"
    ]


def test_throughput_k_rows_one_per_sweep_value():
    spec = ExperimentSpec(Metric.THROUGHPUT, SweepSpec(SweepVariable.K, 3, 1, 3))
    _, rows = run_experiment(spec)
    assert [row[0] for row in rows] == [3.0, 2.0, 1.0]


def test_throughput_k_rows_compare_modes():
    spec = ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.K, 1, 4, 4),
        bandwidth=BandwidthConfig.uniform(4, power_per_chunk=2.0),
        compare_modes=True,
    )
    header, rows = run_experiment(spec)
    assert header == [
        "k",
        "rate_random",
        "rate_contiguous",
        "rate_per_hz_random",
        "rate_per_hz_contiguous",
    ]
    assert [row[0] for row in rows] == [1.0, 2.0, 3.0, 4.0]


def test_mean_model_rows_have_matched_columns():
    spec = _spec(metric=Metric.MEAN_MODEL, alt_type_probs=(0.3, 0.0, 0.7))
    header, rows = run_experiment(spec)
    assert header == ["theta_db", "ps_base", "ps_alt", "matched_power", "matched_intensity"]
    for row in rows:
        assert row[3] == pytest.approx(2.0 * 5 / 6, rel=1e-12)
        assert row[4] == pytest.approx(0.2 * 5 / 6, rel=1e-12)


def test_mean_model_identity_mix_gives_identical_curves():
    spec = _spec(metric=Metric.MEAN_MODEL, alt_type_probs=(1 / 3, 1 / 3, 1 / 3))
    _, rows = run_experiment(spec)
    for row in rows:
        assert row[1] == pytest.approx(row[2], rel=1e-9)


def test_simulate_rows():
    spec = ExperimentSpec(
        Metric.SIMULATE,
        SweepSpec(SweepVariable.THETA_DB, -5.0, 5.0, 2),
        sim=SimConfig(n_realizations=300, seed=7),
    )
    header, rows = run_experiment(spec)
    assert header[0] == "theta_db"
    assert "sim_ps_type_1" in header and "se_overall" in header
    for row in rows:
        assert 0.0 <= row[1] <= 1.0


# ---------------------------------------------------------------------------
# config round trip


def test_config_round_trip_exact():
    spec = ExperimentSpec(
        Metric.MEAN_MODEL,
        SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 7, scale="log"),
        network=NetworkParams(0.37, 1.5, PathLossModel.bounded(3.7, 0.9)),
        bandwidth=BandwidthConfig(4, (0.1, 0.2, 0.3, 0.4), AllocationMode.CONTIGUOUS, 1.7),
        sim=SimConfig(n_realizations=123, seed=99, window_radius=31.0),
        alt_type_probs=(0.25, 0.25, 0.25, 0.25),
        mean_model_metric="throughput",
        output="somewhere.csv",
    )
    assert parse_config(render_config(spec)) == spec
    mixes = ExperimentSpec(
        Metric.THROUGHPUT,
        SweepSpec(SweepVariable.LAMBDA, 0.05, 0.5, 3, scale="log"),
        compare_mixes=((1.0, 0.0, 0.0), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.6, 0.3)),
    )
    assert parse_config(render_config(mixes)) == mixes


FIG6_CONFIG = """\
[network]
intensity = 0.2
link_distance = 1.0
alpha = 4.0
c0 = 1.0

[bandwidth]
n_chunks = 10
type_probs = 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1
mode = random
power_per_chunk = 2.0

[sim]
n_realizations = 10000
seed = 0
window_radius = none
n_fading_draws = 1000
conditional_mode = closed_form_given_phi

[experiment]
metric = throughput
sweep_variable = k
sweep_start = 1.0
sweep_stop = 10.0
sweep_points = 10
sweep_scale = linear
theta_db = none
alt_type_probs = none
mean_model_metric = success_prob
compare_modes = true
compare_mixes = none
output = none
"""


def test_rendered_config_text_is_pinned():
    assert render_config(FIGURE_PRESETS["fig6"]()) == FIG6_CONFIG


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_every_preset_round_trips_through_the_config_text(name):
    spec = FIGURE_PRESETS[name]()
    assert parse_config(render_config(spec)) == spec


def test_unknown_section_or_key_is_an_error(tmp_path):
    for text, name in [
        ("[sim]\nseeed = 3\n", "seeed"),
        ("[netwrok]\nintensity = 9\n", "netwrok"),
        ("[experiment]\nmetric = success_prob\n\n[sim]\nseeed = 3\n", "seeed"),
        ("[DEFAULT]\nseed = 3\n\n[experiment]\nmetric = success_prob\n", "DEFAULT"),
    ]:
        with pytest.raises(ConfigError, match=name):
            parse_config(text)
        with pytest.raises(ConfigError, match=name):
            parse_config(text, base=_spec())
        csv = tmp_path / "typo.csv"
        csv.write_text("".join(f"# {line}\n" for line in text.splitlines()) + "a,b\n1,2\n")
        with pytest.raises(ConfigError, match=name):
            read_csv_config(str(csv))
        ini = tmp_path / "typo.ini"
        ini.write_text(text)
        out = tmp_path / "never.csv"
        assert main(["success-prob", "--config", str(ini), "--out", str(out)]) == 1
        assert not out.exists()


def test_compare_modes_accepts_every_boolean_spelling():
    base = "[experiment]\nmetric = throughput\nsweep_variable = k\nsweep_start = 1\n"
    base += "sweep_stop = 3\nsweep_points = 3\ncompare_modes = "
    for word, value in ConfigParser.BOOLEAN_STATES.items():
        for spelling in (word, word.upper(), word.capitalize()):
            assert parse_config(base + spelling + "\n").compare_modes is value
    with pytest.raises(ConfigError):
        parse_config(base + "maybe\n")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    spec = parse_config(block)
    assert spec.bandwidth.type_probs == (1 / 3, 1 / 3, 1 / 3)
    assert spec.network.pathloss.c0 == 1.0
    assert spec.compare_mixes[1] == (1 / 3, 1 / 3, 1 / 3)


def test_config_round_trip_through_csv(tmp_path):
    spec = _spec(sweep=SweepSpec(SweepVariable.THETA_DB, -6.0, 6.0, 4))
    out = tmp_path / "run.csv"
    header, rows, path = run_and_write(spec, str(out))
    assert os.path.exists(path)
    recovered = read_csv_config(path)
    assert recovered == ExperimentSpec(
        spec.metric, spec.sweep, spec.network, spec.bandwidth, spec.sim, output=str(out)
    )


def test_csv_layout(tmp_path):
    out = tmp_path / "table.csv"
    header, rows, path = run_and_write(_spec(), str(out))
    lines = out.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert comments and data[0] == ",".join(header)
    assert len(data) == 1 + len(rows)
    first = [float(v) for v in data[1].split(",")]
    assert first == pytest.approx(rows[0])


def test_partial_csv_removed_on_failure(tmp_path, monkeypatch):
    out = tmp_path / "broken.csv"
    spec = _spec()
    header, rows = run_experiment(spec)

    import bwalloc.experiments as exp

    def boom(spec):
        raise RuntimeError("midway")

    monkeypatch.setattr(exp, "render_config", boom)
    with pytest.raises(RuntimeError):
        exp.write_csv(spec, header, rows, str(out))
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("[network]\nintensity = banana\n")
    with pytest.raises(ConfigError):
        parse_config("not a config at all [")
    with pytest.raises(ConfigError):
        parse_config("[bandwidth]\ntype_probs = 0.5, oops\n")
    # without a base spec the experiment cannot be defaulted
    with pytest.raises(ConfigError):
        parse_config("[network]\nintensity = 0.3\n")
    bare = tmp_path / "bare.csv"
    bare.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_csv_config(str(bare))


# ---------------------------------------------------------------------------
# figure presets (smoke level; the full runs live in the acceptance suite)


def test_figure_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    header, rows, _ = run_figure("fig1", str(out))
    assert len(rows) == 41
    ps1 = [row[1] for row in rows]
    assert all(a >= b for a, b in zip(ps1, ps1[1:]))  # decreasing in threshold


def test_figure_fig2(tmp_path):
    out = tmp_path / "fig2.csv"
    header, rows, _ = run_figure("fig2", str(out))
    assert header == ["theta_db", "ps_only_type_1", "ps_uniform", "ps_only_type_3"]
    for row in rows:
        assert row[1] >= row[2] >= row[3]


def test_figure_fig5_header(tmp_path):
    header, _, _ = run_figure("fig5", str(tmp_path / "fig5.csv"))
    assert header == [
        "lambda",
        "rate_only_type_1",
        "rate_uniform",
        "rate_only_type_3",
        "rate_per_joule_only_type_1",
        "rate_per_joule_uniform",
        "rate_per_joule_only_type_3",
    ]


def test_figure_fig4_computes_each_rate_integral_once(tmp_path):
    # 13 intensities x 3 types; every throughput column reads the same integrals
    metrics._rate_ccdf_quad.cache_clear()
    run_figure("fig4", str(tmp_path / "fig4.csv"))
    assert metrics._rate_ccdf_quad.cache_info().misses == 39


def test_figure_unknown():
    with pytest.raises(ConfigError):
        run_figure("fig10")


def test_all_figure_presets_complete(tmp_path):
    from bwalloc.experiments import FIGURE_NAMES

    for name in FIGURE_NAMES:
        header, rows, path = run_figure(name, str(tmp_path / f"{name}.csv"))
        assert rows and os.path.exists(path)
        assert len(header) == len(rows[0])
        # the echoed config re-runs to the same table
        assert run_experiment(read_csv_config(path)) == (header, rows), name


# ---------------------------------------------------------------------------
# CLI


def test_cli_success_prob(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["success-prob", "--sweep=-4:4:3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote 3 rows" in capsys.readouterr().out


def test_cli_mode_override(tmp_path):
    out = tmp_path / "contig.csv"
    assert main(["success-prob", "--sweep", "0:0:1", "--mode", "contiguous", "--out", str(out)]) == 0
    spec = read_csv_config(str(out))
    assert spec.bandwidth.mode is AllocationMode.CONTIGUOUS


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[network]\nintensity = 0.5\n\n[bandwidth]\nn_chunks = 2\ntype_probs = 1/2, 1/2\n"
    )
    out = tmp_path / "cfg.csv"
    assert main(["success-prob", "--sweep", "0:0:1", "--config", str(cfg), "--out", str(out)]) == 0
    spec = read_csv_config(str(out))
    assert spec.network.intensity == 0.5
    assert spec.bandwidth.n_chunks == 2


def test_cli_flags_win_over_config(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nsweep_points = 1\n")
    out = tmp_path / "mm.csv"
    code = main(
        ["mean-model", "--alt-probs", "0.3,0,0.7", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    assert read_csv_config(str(out)).alt_type_probs == (0.3, 0.0, 0.7)

    cfg.write_text("[experiment]\ntheta_db = 3.0\n")
    meta = ["meta-dist", "--sweep", "0.5:0.5:1", "--config", str(cfg), "--out", str(out)]
    assert main(meta + ["--theta-db", "-5"]) == 0
    assert read_csv_config(str(out)).theta_db == -5.0
    # without the flag the file's value holds; with neither, -5 dB
    assert main(meta) == 0
    assert read_csv_config(str(out)).theta_db == 3.0
    cfg.write_text("[experiment]\n")
    assert main(meta) == 0
    assert read_csv_config(str(out)).theta_db == -5.0

    cfg.write_text("[experiment]\nsweep_scale = linear\n")
    assert main(["throughput", "--scale", "log", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv_config(str(out)).sweep.scale == "log"


def test_cli_sweep_flag_keeps_the_file_scale_and_variable(tmp_path):
    # --sweep sets start, stop and points; the scale and the variable the
    # file sets still hold
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "t.csv"
    cfg.write_text("[experiment]\nsweep_scale = linear\n")
    flags = ["--config", str(cfg), "--out", str(out)]
    assert main(["throughput", "--sweep", "0.01:1:3", *flags]) == 0
    spec = read_csv_config(str(out))
    assert spec.sweep == SweepSpec(SweepVariable.LAMBDA, 0.01, 1.0, 3, "linear")

    cfg.write_text("[experiment]\nsweep_variable = k\n")
    assert main(["throughput", "--sweep", "1:2:2", *flags]) == 0
    spec = read_csv_config(str(out))
    assert spec.sweep == SweepSpec(SweepVariable.K, 1.0, 2.0, 2, "linear")
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header.startswith("k,rate")


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("bwalloc ")]
    assert len(lines) >= 7
    return lines


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_parse(line, tmp_path):
    # each line once without its optional [...] parts and once with them
    for text in (re.sub(r"\s*\[[^\]]*\]", "", line), line.replace("[", "").replace("]", "")):
        argv = text.split()[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out.csv")
        else:
            argv += ["--out", str(tmp_path / "out.csv")]
        args = build_parser().parse_args(argv)
        if args.verb != "figure":
            assert _spec_from_args(args).output == str(tmp_path / "out.csv"), text


def test_cli_mean_model(tmp_path):
    out = tmp_path / "mm.csv"
    code = main(
        ["mean-model", "--alt-probs", "0.3,0,0.7", "--sweep=-2:2:3", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "matched_power" in text and "matched_intensity" in text


def test_cli_alt_probs_accept_fractions(tmp_path):
    out = tmp_path / "mm.csv"
    code = main(
        ["mean-model", "--alt-probs", "1/3,1/3,1/3", "--sweep", "0:0:1", "--out", str(out)]
    )
    assert code == 0
    assert read_csv_config(str(out)).alt_type_probs == (1 / 3, 1 / 3, 1 / 3)


def test_cli_simulate(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "--sweep",
            "0:0:1",
            "--realizations",
            "200",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    spec = read_csv_config(str(out))
    assert spec.sim.n_realizations == 200 and spec.sim.seed == 5


def test_cli_validation_exit_code(tmp_path, capsys):
    assert main(["success-prob", "--sweep", "nonsense"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["success-prob", "--sweep", "0:1:0"]) == 1
    assert main(["mean-model", "--alt-probs", "0.5,0.5"]) == 1  # wrong length
    assert main(["mean-model", "--alt-probs", "0.3,x,0.7"]) == 1
    assert main(["throughput", "--per-joule"]) == 1  # removed flag
    assert main(["throughput", "--sweep-var", "k", "--sweep", "1:3:5"]) == 1
    assert main(["figure"]) == 1  # missing name
    assert main(["success-prob", "--sweep", "a:b:3"]) == 1
    assert "bad sweep 'a:b:3'" in capsys.readouterr().err
    for config in (tmp_path / "missing.ini", tmp_path):
        assert main(["success-prob", "--config", str(config)]) == 1
        assert "cannot read config" in capsys.readouterr().err


def test_cli_figure_writes_the_preset(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 41 rows to {out}\n"
    # the same file as the library call's, but for the echoed output path
    _, _, path = run_figure("fig1", str(tmp_path / "library.csv"))
    lines = [out.read_text().splitlines(), Path(path).read_text().splitlines()]
    changed = [a for a, b in zip(*lines) if a != b]
    assert len(lines[0]) == len(lines[1]) and changed == [f"# output = {out}"]


def test_cli_throughput_k_sweep(tmp_path):
    out = tmp_path / "k.csv"
    code = main(
        ["throughput", "--sweep-var", "k", "--sweep", "1:3:3", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("k,rate")


@pytest.mark.parametrize("n", [2, 5])
def test_cli_k_sweep_defaults_to_every_type(tmp_path, capsys, n):
    cfg = tmp_path / "k.ini"
    probs = ", ".join([f"1/{n}"] * n)
    cfg.write_text(f"[bandwidth]\nn_chunks = {n}\ntype_probs = {probs}\n")
    out = tmp_path / "k.csv"
    flags = ["--sweep-var", "k", "--config", str(cfg), "--out", str(out)]
    assert main(["throughput", *flags]) == 0
    assert f"wrote {n} rows" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [float(r.split(",")[0]) for r in rows] == list(range(1, n + 1))
    # an explicit range past the last type names the value plainly
    assert main(["throughput", *flags, "--sweep", "1:3:3"]) == (1 if n == 2 else 0)
    if n == 2:
        err = capsys.readouterr().err
        assert "k sweep value 3 is not a type in [1, 2]" in err
