"""Experiment runner, config round-trip, CSV format, and CLI tests."""

import os

import numpy as np
import pytest

from bwalloc import metrics
from bwalloc.cli import main
from bwalloc.errors import ConfigError
from bwalloc.experiments import (
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


def test_success_prob_rows_match_library():
    header, rows = run_experiment(_spec())
    assert header == ["theta_db", "ps_type_1", "ps_type_2", "ps_type_3", "ps_overall"]
    net, ba = default_network(), default_bandwidth()
    for row in rows:
        theta = db_to_linear(row[0])
        assert row[1] == pytest.approx(success_prob_k(net, ba, 1, theta), rel=1e-12)
        assert row[4] == pytest.approx(success_prob_overall(net, ba, theta), rel=1e-12)


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


def test_figure_fig4_computes_each_rate_integral_once(tmp_path, monkeypatch):
    # 13 intensities x 3 types; every throughput column reads the same integrals
    calls = 0
    quad = metrics.integrate.quad

    def counting_quad(*args, **kwargs):
        nonlocal calls
        calls += 1
        return quad(*args, **kwargs)

    metrics._rate_ccdf_quad.cache_clear()
    monkeypatch.setattr(metrics.integrate, "quad", counting_quad)
    run_figure("fig4", str(tmp_path / "fig4.csv"))
    assert calls == 39


def test_figure_unknown():
    with pytest.raises(ConfigError):
        run_figure("fig10")


def test_all_figure_presets_complete(tmp_path):
    from bwalloc.experiments import FIGURE_NAMES

    for name in FIGURE_NAMES:
        header, rows, path = run_figure(name, str(tmp_path / f"{name}.csv"))
        assert rows and os.path.exists(path)
        assert len(header) == len(rows[0])


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


def test_cli_mean_model(tmp_path):
    out = tmp_path / "mm.csv"
    code = main(
        ["mean-model", "--alt-probs", "0.3,0,0.7", "--sweep=-2:2:3", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "matched_power" in text and "matched_intensity" in text


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
    assert main(["figure"]) == 1  # missing name


def test_cli_throughput_k_sweep(tmp_path):
    out = tmp_path / "k.csv"
    code = main(
        ["throughput", "--sweep-var", "k", "--sweep", "1:3:3", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("k,rate")
