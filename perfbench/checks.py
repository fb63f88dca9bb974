"""Output checks, run after the timed section.

Every check is one checked operation; the run reports how many were
attempted and how many failed. Checks come in two kinds:

* integrity checks (``integrity=True``): each job finished, every sweep
  value is finite and in range, each table has its expected row count, each
  CSV body holds exactly the returned rows, and every repetition produced
  the same outputs. A failure means the timed work did not produce a usable
  result, and the run reports ``correct: false``;
* contract checks: success probabilities and ccdfs do not increase along
  the sweep, each CSV re-parses, through ``read_csv_config``, to an
  experiment that reproduces its header and rows, and closed-form values
  agree with the simulator at spot points. These are the library's stated
  claims. Known violations (the fig2 and fig5 CSVs, the contiguous-mode gap
  at +10 dB) fail here on every run and are counted, not exempted.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import bwalloc.experiments as experiments
import bwalloc.meanmodel as meanmodel
import bwalloc.metadist as metadist
import bwalloc.metrics as metrics
from bwalloc.params import PROB_TOL

#: Agreement bound between closed form and simulator, in standard errors.
#: With about 180 spot points per run, a correct program exceeds it in
#: fewer than one run in a thousand (two-sided normal tail 6.8e-6 a point).
Z_MAX = 4.5

#: Slack allowed when a probability column should not increase.
MONOTONE_TOL = 1e-9

#: A mix may sum to 1 within PROB_TOL, so a mix-averaged probability may
#: exceed 1 by that much.
PROB_MAX = 1.0 + PROB_TOL


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    integrity: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# sweep rows


def _column_rule(name: str):
    """(low, high, low_inclusive, nonincreasing) for a column name."""
    if name.startswith(("ps_", "meta_", "sim_ps_")):
        return 0.0, PROB_MAX, True, True
    if name.startswith("se_") or name == "tail_bound":
        return 0.0, math.inf, True, False
    if name.startswith("rate") or name in ("lambda", "matched_power", "matched_intensity"):
        return 0.0, math.inf, False, False
    if name == "truncated":
        return 0.0, 0.0, True, False
    return -math.inf, math.inf, True, False


def check_rows(label: str, header, rows, expected_rows: int | None = None) -> list[Check]:
    """Per row, an integrity check that every value is finite and in range
    and, from the second row on, a contract check that no probability column
    rose; plus an integrity check on the row count when it is known."""
    rules = [_column_rule(h) for h in header]
    monotone = [j for j, rule in enumerate(rules) if rule[3]]
    out = []
    if expected_rows is not None:
        out.append(
            Check(
                f"{label}: row count",
                len(rows) == expected_rows,
                True,
                f"{len(rows)} rows, expected {expected_rows}",
            )
        )
    prev = None
    for i, row in enumerate(rows):
        problems = []
        if len(row) != len(header):
            problems.append(f"{len(row)} values for {len(header)} columns")
        for (low, high, low_inclusive, _), name, value in zip(rules, header, row):
            if not math.isfinite(value):
                problems.append(f"{name}={value!r} not finite")
                continue
            below = value < low if low_inclusive else value <= low
            if below or value > high:
                problems.append(f"{name}={value!r} out of range")
        out.append(Check(f"{label}: row {i}", not problems, True, "; ".join(problems)))
        if prev is not None and monotone:
            rises = [
                f"{header[j]} rises from {prev[j]!r} to {row[j]!r}"
                for j in monotone
                if row[j] > prev[j] + MONOTONE_TOL
            ]
            out.append(Check(f"{label}: row {i} monotone", not rises, False, "; ".join(rises)))
        prev = row
    return out


# ---------------------------------------------------------------------------
# CSV files


def read_csv_body(path: str):
    """Header and float rows of a result file, skipping the comment block."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, rows


def check_csv_body(label: str, path: str, header, rows) -> Check:
    """Integrity: the file holds exactly the header and rows returned."""
    try:
        file_header, file_rows = read_csv_body(path)
    except (OSError, ValueError) as exc:
        return Check(f"{label}: csv body", False, True, f"unreadable: {exc}")
    ok = file_header == list(header) and file_rows == [list(r) for r in rows]
    return Check(f"{label}: csv body", ok, True, "" if ok else "file differs from returned rows")


def check_csv_roundtrip(label: str, path: str) -> Check:
    """Contract: re-running the experiment that ``read_csv_config`` recovers
    from the file reproduces the file's header and rows exactly."""
    file_header, file_rows = read_csv_body(path)
    try:
        spec = experiments.read_csv_config(path)
        header, rows = experiments.run_experiment(spec)
    except Exception as exc:  # any failure to reproduce is this check's finding
        return Check(f"{label}: csv round trip", False, False, f"{type(exc).__name__}: {exc}")
    rows = [[float(v) for v in r] for r in rows]
    if list(header) != file_header:
        return Check(
            f"{label}: csv round trip", False, False, f"header {list(header)} != {file_header}"
        )
    if rows != file_rows:
        return Check(f"{label}: csv round trip", False, False, "rows differ")
    return Check(f"{label}: csv round trip", True, False)


# ---------------------------------------------------------------------------
# closed form against simulator


def agreement(name: str, simulated: float, closed: float, std_error: float) -> Check:
    z = abs(simulated - closed) / max(std_error, 1e-300)
    ok = math.isfinite(simulated) and z <= Z_MAX
    detail = f"simulated {simulated:.6g}, closed form {closed:.6g}, z {z:.2f}"
    return Check(name, ok, False, detail)


def binomial_se(p: float, n: int) -> float:
    """Standard error of a proportion over n draws under the closed-form p;
    floored at 1/n so that p near 0 or 1 cannot make a single draw decisive."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def identical(digests) -> Check:
    ok = len(set(digests)) == 1
    return Check(
        "repetitions identical", ok, True, "" if ok else f"{len(set(digests))} distinct outputs"
    )


def _simulate_agreement(job, result) -> list[Check]:
    """Every point of a simulate-verb table against the closed form."""
    spec = job.spec
    net, ba, n = spec.network, spec.bandwidth, spec.sim.n_realizations
    header = result["header"]
    out = []
    for row in result["rows"]:
        theta_db = row[0]
        theta = experiments.db_to_linear(theta_db)
        for j, name in enumerate(header):
            if not name.startswith("sim_ps_"):
                continue
            series = name[len("sim_ps_"):]
            if series == "overall":
                closed = metrics.success_prob_overall(net, ba, theta)
            else:
                closed = metrics.success_prob_k(net, ba, int(series.rsplit("_", 1)[1]), theta)
            out.append(
                agreement(
                    f"{job.label}: {name} at {theta_db:+.1f} dB",
                    row[j],
                    closed,
                    binomial_se(closed, n),
                )
            )
    return out


def _estimate_agreement(job, result) -> list[Check]:
    net, ba, k = experiments.default_network(), job.bandwidth, job.k
    estimates = result["estimates"]
    out = []
    if job.estimator == "success_prob_curve":
        for theta_db, (value, _, n, _) in zip(job.theta_db, estimates):
            closed = metrics.success_prob_k(net, ba, k, experiments.db_to_linear(theta_db))
            out.append(
                agreement(
                    f"{job.label}: P(SIR > {theta_db:+.1f} dB)",
                    value,
                    closed,
                    binomial_se(closed, n),
                )
            )
    elif job.estimator == "estimate_meta_distribution":
        theta = experiments.db_to_linear(job.theta_db[0])
        for x, (value, _, n, _) in zip(job.x, estimates):
            closed = metadist.meta_ccdf_gilpelaez(net, ba, k, theta, x)
            se = binomial_se(closed, n)
            out.append(agreement(f"{job.label}: ccdf at x={x}", value, closed, se))
    else:
        ((value, std_error, _, _),) = estimates
        if job.estimator == "estimate_throughput":
            closed = metrics.shannon_throughput_k(net, ba, k).value
        else:
            closed = meanmodel.mean_interference_k(net, ba, k)
        out.append(agreement(f"{job.label}: mean", value, closed, std_error))
    return out


def verify(jobs, outputs, workdir: str) -> list[Check]:
    """All checks on one repetition's outputs; CSV paths are relative to
    ``workdir``."""
    out = []
    for job, result in zip(jobs, outputs):
        if result is None:
            out.append(Check(f"{job.label}: ran", False, True, "the job raised"))
            continue
        if job.kind == "throughput":
            out += check_rows(job.label, result["header"], result["rows"], len(job.intensities))
        elif job.kind == "estimate":
            out += _estimate_agreement(job, result)
        else:
            expected = None
            if job.kind == "csv" and job.spec.sweep.variable is not experiments.SweepVariable.K:
                expected = job.spec.sweep.points
            out += check_rows(job.label, result["header"], result["rows"], expected)
            path = os.path.join(workdir, result["path"])
            out.append(check_csv_body(job.label, path, result["header"], result["rows"]))
            out.append(check_csv_roundtrip(job.label, path))
            if job.kind == "csv" and job.spec.metric is experiments.Metric.SIMULATE:
                out += _simulate_agreement(job, result)
    return out
