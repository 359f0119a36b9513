"""Smoke check of the whole benchmark: declarations, names, quick runs.

Run with ``python3 -m pytest fleetbench/check_suite.py -q`` from the
repository root (under a minute). The quick runs use two instances per
SKU and one batch, untraced and traced.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spec

ROOT = Path(__file__).resolve().parent.parent
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_what_spec_declares():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_declarations_follow_the_format():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["workloads"]) == 4
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    for m in spec.PER_LAYER:
        for metric, workload in m.moves:
            assert metric in {e.name for e in spec.END_TO_END}
            assert workload in spec.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    printed = "\n".join(lines[:-1])
    for workload in spec.WORKLOAD_NAMES:
        for m in declared:
            got = result["metrics"][f"{workload}.{m.name}"]
            assert got["unit"] == m.unit
            assert isinstance(got["value"], (int, float))
            assert re.search(rf"^\s+{re.escape(m.name)}\s+\S+\s+{re.escape(m.unit)}\s", printed, re.M)
    assert len(result["metrics"]) == len(declared) * len(spec.WORKLOAD_NAMES)
