"""One store and one checker for every exact pin of the paper suite and CI.

Pins live in ``benchmarks/golden/<suite>.json`` as ``{"suite": ...,
"ops": {<entry>: {<key>: <value>}}}``, hostbench's golden shape.
:func:`check` compares after a JSON round trip and lists every differing
key as ``actual != expected``. Each call writes the stored suite with the
measured entries in place to the gitignored
``benchmarks/results/golden-actual/<suite>.json``; an intended update is
a copy of that file over the stored one. :func:`check_hostbench` reads
``hostbench/golden/<workload>.json`` and never writes or copies it. As a
script it checks a traced hostbench pass read from stdin::

    python3 hostbench/run.py --workload micro-sw --seconds 0 --trace 1 \\
        | python3 benchmarks/_golden.py micro-sw
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(_HERE, "golden")
ACTUAL_DIR = os.path.join(_HERE, "results", "golden-actual")
HOSTBENCH_GOLDEN_DIR = os.path.join(os.path.dirname(_HERE), "hostbench", "golden")

#: A traced pass's heap + stream trace records and replayed cache lines
#: (software S/D), and its MAI blocks and DRAM accesses (accelerator).
TRACED_METRICS = (
    "memory.trace.records", "cpu.cache.lines", "cereal.mai.blocks", "memory.dram.accesses"
)
#: Share of a traced pass's host time that the layer wrappers must see.
COVERAGE_FLOOR = 0.95

_MISSING = "<missing>"


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _differences(suite: str, actual: Dict, expected: Dict) -> List[str]:
    if not actual:
        return [f"{suite}: no entry measured"]
    lines = []
    for entry, values in sorted(actual.items()):
        if not values:
            lines.append(f"{suite} {entry}: no key measured")
        elif entry not in expected:
            lines.append(f"{suite} {entry}: no golden entry")
        else:
            want = expected[entry]
            lines.extend(
                f"{suite} {entry}: {key}: {values.get(key, _MISSING)!r} != "
                f"{want.get(key, _MISSING)!r}"
                for key in sorted(set(values) | set(want))
                if values.get(key, _MISSING) != want.get(key, _MISSING)
            )
    return lines


def verify(suite: str, actual: Dict[str, Dict], expected: Optional[Dict] = None) -> str:
    """``""`` when every measured entry equals its golden, else one line
    per difference. ``expected`` defaults to the stored suite, and then
    the measured entries are also written to ``golden-actual``."""
    actual = json.loads(json.dumps(actual))
    if expected is not None:
        return "\n".join(_differences(suite, actual, expected))
    path = os.path.join(GOLDEN_DIR, f"{suite}.json")
    written = os.path.join(ACTUAL_DIR, f"{suite}.json")
    stored = _load(path) if os.path.exists(path) else None
    lines = (_differences(suite, actual, stored["ops"]) if stored
             else [f"{suite}: no golden file {path}"])
    document = _load(written) if os.path.exists(written) else stored
    document = document or {"suite": suite, "ops": {}}
    document["ops"].update(actual)
    os.makedirs(ACTUAL_DIR, exist_ok=True)
    with open(written, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if lines:
        lines.append(f"measured entries written to {written}")
    return "\n".join(lines)


def check(suite: str, actual: Dict[str, Dict], expected: Optional[Dict] = None) -> None:
    """Raise :class:`AssertionError` listing every difference :func:`verify` finds."""
    message = verify(suite, actual, expected)
    if message:
        raise AssertionError(message)


def check_hostbench(workload: str, actual: Dict[str, Dict]) -> None:
    """Check measured ops against hostbench's golden ops of the same names;
    ``ipc`` is the golden's ``instructions / cycles``."""
    golden = _load(os.path.join(HOSTBENCH_GOLDEN_DIR, f"{workload}.json"))["ops"]
    expected = {}
    for entry, values in actual.items():
        if entry in golden:
            op = dict(golden[entry])
            if "cycles" in op:
                op["ipc"] = op["instructions"] / op["cycles"]
            expected[entry] = {key: op[key] for key in values if key in op}
    check(workload, actual, expected)


def main(argv: List[str]) -> int:
    """Check one traced hostbench result line read from stdin."""
    (workload,) = argv
    result = json.loads([line for line in sys.stdin if line.strip()][-1])
    metrics = result["metrics"]
    coverage = metrics["layers.coverage"]["value"]
    problems = [verify("traced", {
        workload: {name: metrics[name]["value"] for name in TRACED_METRICS}
    })]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{workload}: correct {result['correct']}, failed {result['failed']}")
    if coverage < COVERAGE_FLOOR:
        problems.append(f"{workload}: layers.coverage {coverage} < {COVERAGE_FLOOR}")
    message = "\n".join(problem for problem in problems if problem)
    print(message or f"{workload} traced: coverage {coverage:.4f}, counts as pinned")
    return 1 if message else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
