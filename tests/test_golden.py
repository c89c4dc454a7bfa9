"""The golden checker (``benchmarks/_golden.py``) on stores in ``tmp_path``: it
must fail on every kind of difference and never pass on nothing."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_golden", Path(__file__).resolve().parents[1] / "benchmarks" / "_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

STORED = {"graph": {"pair": [1, 2.5], "count": 3}, "other": {"count": 7}}


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", str(tmp_path / "golden"))
    monkeypatch.setattr(golden, "ACTUAL_DIR", str(tmp_path / "actual"))
    monkeypatch.setattr(golden, "HOSTBENCH_GOLDEN_DIR", str(tmp_path / "hostbench"))
    for name, suite in (("golden/fig.json", {"ops": STORED}),
                        ("hostbench/micro.json", {"ops": {"op": {"cycles": 4, "instructions": 6}}})):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(json.dumps(suite))
    return tmp_path


def test_equal_entry_passes_and_a_tuple_equals_its_list(store):
    golden.check("fig", {"graph": {"pair": (1, 2.5), "count": 3}})
    assert golden.verify("fig", {"other": {"count": 7}}) == ""
    golden.check_hostbench("micro", {"op": {"ipc": 1.5, "cycles": 4}})
    assert not (store / "actual" / "micro.json").exists()


@pytest.mark.parametrize("suite, actual, line", [
    ("fig", {"graph": {"pair": (1, 2.5), "count": 4}}, "fig graph: count: 4 != 3"),
    ("fig", {"graph": {"count": 3}}, "fig graph: pair: '<missing>' != [1, 2.5]"),
    ("fig", {"graph": {"pair": [1, 2.5], "count": 3, "new": 0.5}},
     "fig graph: new: 0.5 != '<missing>'"),
    ("fig", {"graph3": {"count": 3}}, "fig graph3: no golden entry"),
    ("nope", {"graph": {"count": 3}}, "nope: no golden file"),
    ("fig", {}, "fig: no entry measured"),
    ("fig", {"graph": {}}, "fig graph: no key measured"),
], ids=["changed", "missing-key", "extra-key", "missing-entry", "missing-file",
        "no-entry", "no-key"])
def test_difference_fails_and_writes_the_measured_entry(store, suite, actual, line):
    with pytest.raises(AssertionError) as error:
        golden.check(suite, actual)
    assert line in str(error.value)
    assert f"measured entries written to {store / 'actual' / suite}.json" in str(error.value)
    written = json.loads((store / "actual" / f"{suite}.json").read_text())["ops"]
    assert written == dict(STORED if suite == "fig" else {}, **json.loads(json.dumps(actual)))


def test_every_difference_is_listed_and_writes_accumulate(store):
    with pytest.raises(AssertionError) as error:
        golden.check("fig", {"graph": {"pair": [1, 2.0], "count": 4}})
    assert str(error.value).count(" != ") == 2
    with pytest.raises(AssertionError):
        golden.check("fig", {"other": {"count": 9}})
    written = json.loads((store / "actual" / "fig.json").read_text())["ops"]
    assert written == {"graph": {"pair": [1, 2.0], "count": 4}, "other": {"count": 9}}


@pytest.mark.parametrize("actual, line", [
    ({"op": {"ipc": 1.25}}, "micro op: ipc: 1.25 != 1.5"),
    ({"op": {"time": 10.0}}, "micro op: time: 10.0 != '<missing>'"),
    ({"op2": {"cycles": 4}}, "micro op2: no golden entry"),
])
def test_hostbench_differences_fail(store, actual, line):
    with pytest.raises(AssertionError, match=line):
        golden.check_hostbench("micro", actual)


@pytest.mark.parametrize("coverage, count, failed, status", [
    (0.99, 5, 0, 0), (0.5, 5, 0, 1), (0.99, 6, 0, 1), (0.99, 5, 1, 1),
])
def test_traced_main(store, monkeypatch, coverage, count, failed, status):
    pinned = {name: 5 for name in golden.TRACED_METRICS}
    (store / "golden" / "traced.json").write_text(json.dumps({"ops": {"micro-sw": pinned}}))
    metrics = {name: {"value": count} for name in golden.TRACED_METRICS}
    metrics["layers.coverage"] = {"value": coverage}
    line = json.dumps({"correct": True, "failed": failed, "metrics": metrics})
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{line}\n"))
    assert golden.main(["micro-sw"]) == status
