"""Self-time attribution and wrapper hygiene of ``layers.py``.

Run with ``python3 -m pytest fleetbench/check_selftime.py -q`` from the
repository root.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from layers import (
    Recorder,
    attribute,
    patched_attributes,
    self_intervals,
    self_times,
    split_by_ops,
    traced,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _tree(*spans):
    """``(id, parent, name, start, end)`` tuples with ``None`` roots."""
    return list(spans)


def test_nested_children_are_subtracted_once():
    spans = _tree(
        (0, None, "root", 0, 10),
        (1, 0, "child", 2, 5),
        (2, 1, "grandchild", 3, 4),
    )
    assert self_times(spans) == {0: 7, 1: 2, 2: 1}
    assert self_intervals(spans)[0] == [(0, 2), (5, 10)]


def test_overlapping_children_subtract_their_union():
    spans = _tree(
        (0, None, "root", 0, 10),
        (1, 0, "a", 1, 4),
        (2, 0, "b", 3, 6),
        (3, 0, "c", 5, 6),
    )
    assert self_times(spans)[0] == 5
    assert self_intervals(spans)[0] == [(0, 1), (6, 10)]


def test_children_outside_the_parent_are_clipped():
    spans = _tree((0, None, "root", 0, 10), (1, 0, "late", 8, 12), (2, 0, "early", -3, 1))
    assert self_times(spans)[0] == 7


def test_same_layer_recursion_is_not_counted_twice():
    # FaultyMachine.execute → SimulatedMachine.execute → CacheSystem call.
    spans = _tree(
        (0, None, "sim.execute", 0, 10),
        (1, 0, "sim.execute", 1, 9),
        (2, 1, "cache.coherence", 2, 5),
    )
    selfs = self_times(spans)
    assert selfs == {0: 2, 1: 5, 2: 3}
    assert selfs[0] + selfs[1] == 7  # the layer's exclusive time
    assert sum(selfs.values()) == 10  # equals the outermost span


def test_split_by_ops():
    assert split_by_ops([(0, 10)], [0, 4, 8]) == {0: 4, 1: 4, 2: 2}
    assert split_by_ops([(-2, 1), (6, 7)], [0, 5]) == {0: 3, 1: 1}
    assert split_by_ops([(2, 3)], [5]) == {0: 1}


def _recorder(spans, op_starts=()):
    rec = Recorder()
    for sid, parent, name, start, end in spans:
        assert sid == len(rec.starts)
        rec.name_ids.append(rec.name_id(name))
        rec.parents.append(-1 if parent is None else parent)
        rec.starts.append(start)
        rec.ends.append(end)
    for i, start in enumerate(op_starts):
        rec.op_keys.append(i)
        rec.op_starts.append(start)
        rec.op_counts.append(Counter())
    return rec


def test_attribute_splits_long_spans_across_operations():
    ns = 1_000_000_000
    rec = _recorder(
        [
            (0, None, "survey", 0, 100 * ns),
            (1, 0, "survey.slot", 10 * ns, 40 * ns),
            (2, 1, "sim.execute", 12 * ns, 20 * ns),
            (3, 2, "sim.execute", 13 * ns, 19 * ns),
            (4, 0, "survey.slot", 50 * ns, 90 * ns),
            (5, 4, "ilp.highs", 60 * ns, 70 * ns),
        ],
        op_starts=[10 * ns, 50 * ns],
    )
    out = attribute(rec)
    first, second = out["ops"]
    # survey self: [0,10)+[40,50) → op 0 (20 s); [90,100) → op 1 (10 s);
    # plus the slots' own self time (22 s and 30 s).
    assert first["self_s"]["survey.self_s"] == pytest.approx(20 + 22)
    assert second["self_s"]["survey.self_s"] == pytest.approx(10 + 30)
    assert first["self_s"]["sim.execute.self_s"] == pytest.approx(8)
    assert first["counts"]["sim.execute.calls"] == 1
    assert second["counts"]["ilp.solves"] == 1
    assert out["span_totals_s"]["sim.execute"] == pytest.approx(8)


def test_wrappers_record_the_recursive_case_and_are_restored():
    from repro.faults import FaultSpec, inject_faults
    from repro.sim.snapshot import machine_from_snapshot
    from repro.sim.threads import EvictionSweep

    before = patched_attributes()
    machine = machine_from_snapshot("8259CL", 3, 3)
    faulty = inject_faults(machine, FaultSpec(seed=1, preempt_rate=1.0))
    lines = tuple(machine.sample_lines_in_l2_set(0, 4))
    rec = Recorder()
    with pytest.raises(RuntimeError, match="boom"):
        with traced(rec):
            rec.mark_op("op")
            faulty.execute(EvictionSweep(0, lines, 2))
            raise RuntimeError("boom")
    after = patched_attributes()
    assert [name for name, _ in before] == [name for name, _ in after]
    for (name, obj_before), (_, obj_after) in zip(before, after):
        assert obj_before is obj_after, f"{name} was not restored"

    spans = rec.spans()
    executes = [s for s in spans if s[2] == "sim.execute"]
    assert len(executes) == 2
    outer, inner = executes
    assert inner[1] == outer[0]  # SimulatedMachine.execute runs inside FaultyMachine.execute
    names = {s[2] for s in spans}
    assert {"cache.coherence", "mesh.noise_inject"} <= names
    out = attribute(rec)
    assert out["ops"][0]["counts"]["sim.execute.calls"] == 1
    layer_total = sum(out["ops"][0]["self_s"].values())
    assert layer_total == pytest.approx((outer[4] - outer[3]) / 1e9)
