"""Smoke tests of the two scripts, each run as its own process."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_figures_writes_the_chosen_presets(tmp_path):
    out = _run("run_figures.py", "--outdir", str(tmp_path), "--only", "fig1", "fig6")
    for name, rows in (("fig1", 41), ("fig6", 10)):
        assert f"{name}: {rows} rows -> " in out
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert len(data) == 1 + rows  # the header, then one line per sweep point


def test_crosscheck_prints_every_row_in_both_modes():
    out = _run("crosscheck_simulation.py", "--realizations", "50", "--seed", "1")
    # per mode: 12 success rows (3 thresholds for types 1-3 and the mix),
    # 3 reliability rows, 4 throughput rows and 4 mean-interference rows
    rows = [line for line in out.splitlines() if re.search(r"([+-]\d+\.\d\d|n/a)$", line)]
    assert len(rows) == 2 * 23
    assert "random allocation" in out and "contiguous allocation" in out
    # a zero standard error prints n/a, never a huge z-score
    z_scores = [float(row.split()[-1]) for row in rows if not row.endswith("n/a")]
    assert all(abs(z) <= 1e3 for z in z_scores)


def test_crosscheck_output_is_pinned():
    # the table at a fixed seed, as the script printed it when recorded;
    # any change to a closed form or to the simulator's stream shows here
    out = _run("crosscheck_simulation.py", "--realizations", "200", "--seed", "1")
    assert out == (ROOT / "tests" / "data" / "crosscheck_seed1_200.txt").read_text()
