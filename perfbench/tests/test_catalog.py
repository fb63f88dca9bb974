import json
import re
from pathlib import Path

import catalog
import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_benchmark_json_matches_catalog():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"]: w["why"] for w in bench["workloads"]} == catalog.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    } == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in catalog.PER_LAYER.items()
    }


def test_benchmark_json_shape():
    bench = _bench()
    names = [m["name"] for m in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert bench["paths"] == ["perfbench"]


def test_layer_metrics_cover_the_catalog():
    run_level = {"trace.overhead_s", "simulate.realizations_per_s", "checks.error_rate"}
    derived = set(layers.layer_metrics(Tracer()))
    assert derived | run_level == set(catalog.PER_LAYER)
    assert not derived & run_level
