"""Same seed → same outputs and work counts; another seed → other outputs.

Run with ``python3 -m pytest fleetbench/check_determinism.py -q`` from the
repository root (about a minute). Each run is traced, so it also checks
that the traced batch produced the untraced batch's output digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "ratio")


def _run(seed: int) -> dict[str, dict]:
    proc = subprocess.run(
        [
            sys.executable, "fleetbench/run.py", "--quick", "--trace", "1",
            "--seed", str(seed),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    reports = {}
    for workload in spec.WORKLOAD_NAMES:
        path = ROOT / ".fleetbench" / "results" / f"{workload}-seed{seed}-trace1.json"
        reports[workload] = json.loads(path.read_text())
    return reports


def _counts(report: dict) -> dict[str, float]:
    return {
        name: m["value"]
        for name, m in report["metrics"].items()
        if m["unit"] in EXACT_UNITS and name != "telemetry.overhead_ratio"
    }


def test_seed_fixes_outputs_and_counts():
    first, again, other = _run(31), _run(31), _run(32)
    for workload in spec.WORKLOAD_NAMES:
        assert first[workload]["correct"], first[workload]["problems"]
        assert first[workload]["digests"] == again[workload]["digests"], workload
        assert _counts(first[workload]) == _counts(again[workload]), workload
        assert first[workload]["digests"] != other[workload]["digests"], workload
