import math

import bwalloc.experiments as experiments
import pytest

import checks
from workloads import Job


def _small_spec():
    sweep = experiments.SweepSpec(experiments.SweepVariable.THETA_DB, -5.0, 5.0, 3)
    return experiments.ExperimentSpec(experiments.Metric.SUCCESS_PROB, sweep)


def _write(tmp_path, spec):
    path = str(tmp_path / "small.csv")
    header, rows, _ = experiments.run_and_write(spec, path)
    return path, list(header), [[float(v) for v in r] for r in rows]


HEADER = ["theta_db", "ps_type_1", "ps_overall", "rate_type_1", "se_overall"]
GOOD = [[-5.0, 0.9, 0.8, 1.2, 0.01], [0.0, 0.7, 0.6, 1.1, 0.02]]


def test_clean_rows_pass():
    results = checks.check_rows("t", HEADER, GOOD, expected_rows=2)
    assert all(c.ok for c in results)
    assert [c.integrity for c in results] == [True, True, True, False]


@pytest.mark.parametrize(
    "column, value",
    [(1, 1.0 + 1e-9), (2, -0.1), (1, math.nan), (3, 0.0), (3, math.inf), (4, -1e-3)],
)
def test_out_of_range_value_fails(column, value):
    rows = [list(GOOD[0]), list(GOOD[1])]
    rows[1][column] = value
    row0, row1, _ = checks.check_rows("t", HEADER, rows)
    assert row0.ok and not row1.ok and row1.integrity


def test_mix_average_may_exceed_one_by_rounding():
    rows = [[-5.0, 1.0, 1.0 + 2e-16, 1.2, 0.01]]
    assert all(c.ok for c in checks.check_rows("t", HEADER, rows))


def test_rising_probability_fails_the_contract():
    rows = [list(GOOD[0]), list(GOOD[1])]
    rows[1][2] = 0.8 + 2 * checks.MONOTONE_TOL
    *_, rising = checks.check_rows("t", HEADER, rows)
    assert not rising.ok and not rising.integrity
    rows[1][2] = 0.8 + 0.5 * checks.MONOTONE_TOL
    assert all(c.ok for c in checks.check_rows("t", HEADER, rows))


def test_wrong_row_count_fails():
    (count, *_) = checks.check_rows("t", HEADER, GOOD, expected_rows=3)
    assert not count.ok and count.integrity


def test_csv_body_and_round_trip(tmp_path):
    path, header, rows = _write(tmp_path, _small_spec())
    assert checks.check_csv_body("t", path, header, rows).ok
    assert checks.check_csv_roundtrip("t", path).ok


def test_corrupted_csv_is_flagged(tmp_path):
    path, header, rows = _write(tmp_path, _small_spec())
    with open(path) as handle:
        lines = handle.read().splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) * 0.5)
    lines[-1] = ",".join(last)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    body = checks.check_csv_body("t", path, header, rows)
    trip = checks.check_csv_roundtrip("t", path)
    assert not body.ok and body.integrity
    assert not trip.ok and not trip.integrity


def test_csv_whose_config_does_not_describe_the_data_fails_round_trip(tmp_path):
    # the same defect as fig2/fig5: the body comes from another experiment
    path, _, _ = _write(tmp_path, _small_spec())
    other = experiments.ExperimentSpec(
        experiments.Metric.SUCCESS_PROB,
        experiments.SweepSpec(experiments.SweepVariable.THETA_DB, -4.0, 5.0, 3),
    )
    header, rows = experiments.run_experiment(other)
    experiments.write_csv(_small_spec(), header, rows, path)
    assert not checks.check_csv_roundtrip("t", path).ok


def test_agreement_bound():
    assert checks.agreement("a", 0.5 + 4.0 * 0.01, 0.5, 0.01).ok
    miss = checks.agreement("a", 0.5 + 5.0 * 0.01, 0.5, 0.01)
    assert not miss.ok and not miss.integrity
    assert not checks.agreement("a", math.nan, 0.5, 0.01).ok


def test_binomial_se_is_floored():
    assert checks.binomial_se(0.5, 100) == pytest.approx(0.05)
    assert checks.binomial_se(1.0, 100) == pytest.approx(0.01)


def test_failed_job_and_differing_repetitions_are_integrity_failures(tmp_path):
    (ran,) = checks.verify([Job("x", "csv", spec=_small_spec())], [None], str(tmp_path))
    assert not ran.ok and ran.integrity
    assert checks.identical(["a", "a"]).ok
    differ = checks.identical(["a", "b"])
    assert not differ.ok and differ.integrity


def test_verify_counts_a_corrupted_value(tmp_path):
    spec = _small_spec()
    header, rows, _ = experiments.run_and_write(spec, str(tmp_path / "small.csv"))
    output = {"path": "small.csv", "header": list(header), "rows": [list(r) for r in rows]}
    clean = checks.verify([Job("small", "csv", spec=spec)], [output], str(tmp_path))
    assert all(c.ok for c in clean)
    output["rows"][0][1] = 1.5
    dirty = checks.verify([Job("small", "csv", spec=spec)], [output], str(tmp_path))
    failed = [c.name for c in dirty if not c.ok]
    assert failed == ["small: row 0", "small: csv body"]
