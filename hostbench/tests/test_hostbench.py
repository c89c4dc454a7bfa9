"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest hostbench/tests -q

They use reduced passes (two small Table II graphs, one Spark app) so
they finish in about a minute.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from workloads import WORKLOADS, reset_process_caches  # noqa: E402

SMALL_GRAPHS = ("list-small", "graph-sparse")
SMALL_APP = "terasort"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _reduced(name, seed=0):
    workload = WORKLOADS[name](seed, graphs=SMALL_GRAPHS)
    reset_process_caches()
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def micro_sw():
    return _reduced("micro-sw")


def test_names_use_allowed_characters():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert names and len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_perturbed_golden_makes_op_fail_rate_positive(micro_sw, tmp_path, monkeypatch):
    passes = [run.run_pass(micro_sw.ops())]
    attempted, failed = run.score(micro_sw, passes)
    assert attempted == 2 * 3 * len(SMALL_GRAPHS) and failed == 0

    with open(run.golden_path("micro-sw"), encoding="utf-8") as handle:
        golden = json.load(handle)
    op = "micro-sw/graph-sparse/kryo/serialize"
    golden["ops"][op]["time_ns"] += 1.0
    (tmp_path / "micro-sw.json").write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_DIR", str(tmp_path))
    attempted, failed = run.score(micro_sw, passes)
    assert failed == 1
    assert failed / attempted > 0


def test_non_default_seed_replays_against_first_pass():
    workload = _reduced("micro-sw", seed=7)
    ops = workload.ops()
    passes = [run.run_pass(ops), run.run_pass(ops)]
    assert run.score(workload, passes) == (2 * len(ops), 0)
    golden_ops = json.load(open(run.golden_path("micro-sw"), encoding="utf-8"))["ops"]
    first = passes[0].results[0]
    assert run.normalized(first.outputs) != golden_ops[first.name]


@pytest.mark.parametrize("name", ["micro-sw", "micro-cereal", "spark-apps"])
def test_traced_pass_covers_the_layers(name, micro_sw, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path))
    workload = micro_sw if name == "micro-sw" else _reduced(name)
    ops = [op for op in workload.ops() if name != "spark-apps" or f"/{SMALL_APP}/" in op[0]]
    passes, metrics = run.per_layer(workload, ops)
    values = {key: value for key, (value, _unit) in metrics.items()}
    assert values["layers.coverage"] >= 0.95
    assert values["bench.self_s"] > 0
    assert run.score(workload, passes)[1] == 0
    if name == "micro-sw":
        assert values["memory.dram.self_s"] == 0
        assert all(values[k] == 0 for k in values
                   if k.startswith("cereal.") and k.endswith(".self_s"))
        assert values["memory.trace.records"] > 0
    elif name == "micro-cereal":
        assert values["cpu.cache.self_s"] == 0
        assert values["memory.trace.self_s"] == 0
        assert values["memory.dram.accesses"] > 0
    else:
        assert values["spark.apps.self_s"] > 0
        assert values["spark.engine.self_s"] > 0
        assert values["spark.sd_calls"] > 0
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert set(metrics) | {"op_fail_rate"} == set(units)
    assert all(unit == units[key] for key, (_value, unit) in metrics.items())
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert any(e.get("cat") == "formats.ser" for e in trace["traceEvents"])


def test_profiler_restores_every_method():
    from layers import LAYER_CLASSES, LAYER_TABLES, LayerProfiler
    import importlib

    def snapshot():
        methods = {
            (cls_name, attr): value
            for _, module, classes in LAYER_CLASSES
            for cls_name in classes
            for attr, value in vars(getattr(importlib.import_module(module), cls_name)).items()
        }
        methods.update(
            ((table_name, key), fn)
            for _, module, table_name in LAYER_TABLES
            for key, fn in getattr(importlib.import_module(module), table_name).items()
        )
        return methods

    before = snapshot()
    profiler = LayerProfiler()
    profiler.install()
    assert snapshot() != before
    profiler.uninstall()
    assert snapshot() == before
