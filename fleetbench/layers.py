"""Per-layer tracing from outside the product, and self-time attribution.

A traced batch replaces the public functions listed in :data:`PATCHES` with
timing wrappers, at the attribute the caller actually resolves (for
example ``repro.core.pipeline.build_eviction_sets``, which the pipeline
imported by name, not ``repro.core.cha_mapping.build_eviction_sets``). No
product file changes; :func:`traced` restores every attribute on exit.

Spans are kept in flat arrays while the batch runs and attributed once it
ends. A span's *self time* is its duration minus the part of it that its
child spans cover; the union of the children is taken, so overlapping
children are not subtracted twice, and a child of the same layer (a
``FaultyMachine.execute`` delegating to ``SimulatedMachine.execute``) is an
ordinary child. Self time is then split across *operations* (one mapped
instance, one placement round) at the moments each operation started, so a
long-lived span such as ``SurveyService.run`` charges its orchestration to
the operations it was orchestrating.
"""

from __future__ import annotations

import bisect
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterable

#: Span name → the self-time metric (without its .p50/.p90 suffix).
SELF_METRIC = {
    "sim.execute": "sim.execute.self_s",
    "cache.coherence": "cache.coherence.self_s",
    "mesh.noise_inject": "mesh.noise_inject.self_s",
    "uncore.readback": "uncore.readback.self_s",
    "core.cha_mapping.home_discovery": "core.cha_mapping.home_discovery.self_s",
    "core.cha_mapping.colocation": "core.cha_mapping.colocation.self_s",
    "core.probes": "core.probes.self_s",
    "core.pipeline": "core.pipeline.self_s",
    "core.reconstruct.model_build": "core.reconstruct.model_build.self_s",
    "core.reconstruct": "core.reconstruct.self_s",
    "ilp.lower": "ilp.lower.self_s",
    "ilp.highs": "ilp.highs.self_s",
    "store.append": "store.append.self_s",
    "store.load": "store.load.self_s",
    "survey": "survey.self_s",
    "survey.slot": "survey.self_s",
    "placement.model_build": "placement.model_build.self_s",
    "placement": "placement.self_s",
    "placement.fleet": "placement.self_s",
}

#: Layers of the simulated hardware; on a real machine this is probe time.
#: Their spans are too numerous to write one JSONL line each, so the span
#: file rolls them up per enclosing span instead.
SIMULATOR_SPANS = ("sim.execute", "cache.coherence", "mesh.noise_inject", "uncore.readback")

#: Product telemetry counters → per-layer count metrics.
PRODUCT_COUNTS = {
    "pmon_reads_total": "uncore.pmon_reads",
    "colocation_tests_total": "core.cha_mapping.colocation_tests",
    "probes_total": "core.probes.probes",
    "probe_votes_total": "core.probes.votes",
    "ilp_refinement_cuts_total": "core.reconstruct.refinement_cuts",
    "observations_shed_total": "core.reconstruct.observations_shed",
    "placement_solves_total": "placement.ilp_solves",
    # Numerators and denominators of the cache hit ratios.
    "evset_cache_hits_total": "evset.hits",
    "evset_cache_misses_total": "evset.misses",
    "phase_cache_hits_total": "phase.hits",
    "phase_cache_misses_total": "phase.misses",
    "pattern_cache_hits_total": "pattern.hits",
    "pattern_cache_misses_total": "pattern.misses",
    "pattern_cache_rejected_total": "pattern.rejected",
}

#: Ratio metric → (numerator counts, denominator counts).
RATIO_PARTS = {
    "core.cha_mapping.evset_cache_hit_ratio": (("evset.hits",), ("evset.hits", "evset.misses")),
    "core.probes.phase_cache_hit_ratio": (("phase.hits",), ("phase.hits", "phase.misses")),
    "core.reconstruct.pattern_cache_hit_ratio": (
        ("pattern.hits",),
        ("pattern.hits", "pattern.misses", "pattern.rejected"),
    ),
}


class Recorder:
    """Flat, append-only span storage for one single-threaded batch.

    Times are ``perf_counter_ns`` readings. Operations are marked with
    :meth:`mark_op`; counts go to the operation open at the time.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("h")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.op_keys: list[Any] = []
        self.op_starts: list[int] = []
        self.op_counts: list[Counter] = []
        self._pre_counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def mark_op(self, key: Any) -> bool:
        """Start operation ``key``; False when it is already the open one."""
        if self.op_keys and self.op_keys[-1] == key:
            return False
        self.op_keys.append(key)
        self.op_starts.append(time.perf_counter_ns())
        self.op_counts.append(Counter())
        return True

    def count(self, name: str, value: float = 1) -> None:
        (self.op_counts[-1] if self.op_counts else self._pre_counts)[name] += value

    def add_product_counters(self, counters: Iterable[dict]) -> None:
        """Fold one product ``TelemetrySnapshot``'s counters into the open op."""
        for rec in counters:
            name = rec["name"]
            if name == "retries_total":
                self.count(f"survey.stage_retries.{rec['labels']['stage']}", rec["value"])
            elif name in PRODUCT_COUNTS:
                self.count(PRODUCT_COUNTS[name], rec["value"])

    def spans(self) -> list[tuple[int, int, str, int, int]]:
        """``(span_id, parent_id, name, start_ns, end_ns)`` for every span."""
        names = self.names
        return [
            (i, self.parents[i], names[self.name_ids[i]], self.starts[i], self.ends[i])
            for i in range(len(self.starts))
        ]


class NullRecorder:
    """Stands in for :class:`Recorder` in untraced batches."""

    @contextmanager
    def span(self, name: str):
        yield

    def mark_op(self, key: Any) -> bool:
        return True


# -- wrapped calls -------------------------------------------------------------------
def _on_map_one(rec: Recorder, args, kwargs) -> None:
    job = args[0] if args else kwargs["job"]
    if not rec.mark_op((job.sku.name, job.index)):
        rec.count("survey.slot_retries")


def _after_map_one(rec: Recorder, result) -> None:
    telemetry = result.get("telemetry") if isinstance(result, dict) else None
    if telemetry:
        rec.add_product_counters(telemetry.get("counters", ()))


def _on_solve(rec: Recorder, args, kwargs) -> None:
    model = args[1] if len(args) > 1 else kwargs["model"]
    rec.count("ilp.rows", len(model.constraints))
    rec.count("ilp.cols", len(model.variables))


Hook = Callable[[Recorder, tuple, dict], None]

#: (module, attribute path, span name, before-hook, after-hook).
PATCHES: tuple[tuple[str, str, str, Hook | None, Callable | None], ...] = (
    ("repro.sim.machine", "SimulatedMachine.execute", "sim.execute", None, None),
    ("repro.sim.machine", "SimulatedMachine.idle_window", "sim.execute", None, None),
    ("repro.faults.machine", "FaultyMachine.execute", "sim.execute", None, None),
    ("repro.cache.coherence", "CacheSystem.sweep_evictions", "cache.coherence", None, None),
    ("repro.cache.coherence", "CacheSystem.contended_write", "cache.coherence", None, None),
    ("repro.cache.coherence", "CacheSystem.producer_consumer", "cache.coherence", None, None),
    ("repro.mesh.noc", "Mesh.inject_background_keyed", "mesh.noise_inject", None, None),
    ("repro.mesh.noc", "Mesh.inject_background_values", "mesh.noise_inject", None, None),
    ("repro.uncore.session", "UncorePmonSession.read_counter_block", "uncore.readback", None, None),
    ("repro.uncore.session", "UncorePmonSession.read_counter", "uncore.readback", None, None),
    ("repro.survey.runner", "map_cpu", "core.pipeline", None, None),
    ("repro.core.pipeline", "build_eviction_sets", "core.cha_mapping.home_discovery", None, None),
    ("repro.core.pipeline", "map_os_to_cha", "core.cha_mapping.colocation", None, None),
    ("repro.core.pipeline", "collect_observations_with_confidence", "core.probes", None, None),
    ("repro.core.pipeline", "collect_observations_voted", "core.probes", None, None),
    ("repro.core.pipeline", "reconstruct_map", "core.reconstruct", None, None),
    ("repro.core.pipeline", "reconstruct_with_degradation", "core.reconstruct", None, None),
    ("repro.core.reconstruct", "reconstruct_map", "core.reconstruct", None, None),
    ("repro.core.reconstruct", "build_layout_model", "core.reconstruct.model_build", None, None),
    ("repro.ilp.scipy_backend", "ScipyMilpSolver.solve", "ilp.highs", _on_solve, None),
    ("repro.ilp.model", "Model.to_coo", "ilp.lower", None, None),
    ("repro.store.segments", "JsonlLog.append", "store.append", None, None),
    ("repro.placement.fleet", "load_fleet_maps", "store.load", None, None),
    ("repro.survey.service", "SurveyService.run", "survey", None, None),
    ("repro.survey.runner", "SurveyRunner.survey_slots", "survey", None, None),
    ("repro.survey.runner", "_map_one", "survey.slot", _on_map_one, _after_map_one),
    ("repro.placement.fleet", "place_pairs", "placement", None, None),
    ("repro.placement.fleet", "schedule_jobs", "placement", None, None),
    ("repro.placement.solve", "build_pair_model", "placement.model_build", None, None),
    ("repro.placement.solve", "build_schedule_model", "placement.model_build", None, None),
)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(fn, rec: Recorder, name_id: int, before: Hook | None, after):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


@contextmanager
def traced(rec: Recorder, patches=PATCHES):
    """Install every wrapper for the duration of the block, then restore.

    Originals are read from the owner's own ``__dict__`` so a restored
    class attribute is the very object that was there before.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, path, name, before, after in patches:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, rec, rec.name_id(name), before, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def patched_attributes(patches=PATCHES) -> list[tuple[str, Any]]:
    """``(dotted name, current object)`` of every patch target."""
    out = []
    for module, path, _, _, _ in patches:
        owner, attr = _resolve(module, path)
        out.append((f"{module}.{path}", vars(owner)[attr]))
    return out


# -- attribution ---------------------------------------------------------------------
def self_intervals(spans) -> dict[int, list[tuple[float, float]]]:
    """Each span's self intervals: its extent minus the union of its children.

    ``spans`` is a list of ``(span_id, parent_id, name, start, end)`` with
    ``parent_id`` −1 or ``None`` for roots. Children may overlap each other
    or stick out of their parent; only the part inside the parent is
    subtracted, and only once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None and parent >= 0:
            children[parent].append((start, end))
    out: dict[int, list[tuple[float, float]]] = {}
    for sid, _, _, start, end in spans:
        cursor = start
        pieces: list[tuple[float, float]] = []
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= cursor:
                continue
            if c_start > cursor:
                pieces.append((cursor, c_start))
            cursor = c_end
        if cursor < end:
            pieces.append((cursor, end))
        out[sid] = pieces
    return out


def self_times(spans) -> dict[int, float]:
    """Span id → self time (same units as the span times)."""
    return {sid: sum(b - a for a, b in pieces) for sid, pieces in self_intervals(spans).items()}


def split_by_ops(intervals, op_starts) -> dict[int, float]:
    """Spread intervals over operations that start at ``op_starts`` (sorted).

    Time before the first operation belongs to the first one.
    """
    out: dict[int, float] = defaultdict(float)
    for a, b in intervals:
        op = max(bisect.bisect_right(op_starts, a) - 1, 0)
        while a < b:
            nxt = op_starts[op + 1] if op + 1 < len(op_starts) else b
            cut = min(b, nxt) if nxt > a else b
            out[op] += cut - a
            a = cut
            op += 1
    return dict(out)


def attribute(rec: Recorder) -> dict[str, Any]:
    """Per-operation self times and counts of one traced batch."""
    spans = rec.spans()
    op_starts = rec.op_starts or [spans[0][3] if spans else 0]
    self_s = [defaultdict(float) for _ in op_starts]
    counts = [Counter(c) for c in rec.op_counts] or [Counter()]
    counts[0].update(rec._pre_counts)
    totals: dict[str, float] = defaultdict(float)
    intervals = self_intervals(spans)
    for sid, parent, name, start, end in spans:
        pieces = intervals[sid]
        metric = SELF_METRIC[name]
        op = max(bisect.bisect_right(op_starts, start) - 1, 0)
        if op + 1 == len(op_starts) or end <= op_starts[op + 1]:
            # The common case: the whole span lies inside one operation.
            self_s[op][metric] += sum(b - a for a, b in pieces) / 1e9
        else:
            for piece_op, ns in split_by_ops(pieces, op_starts).items():
                self_s[piece_op][metric] += ns / 1e9
        if parent < 0 or spans[parent][2] != name:
            totals[name] += (end - start) / 1e9
            if name == "sim.execute":
                counts[op]["sim.execute.calls"] += 1
            elif name == "ilp.highs":
                counts[op]["ilp.solves"] += 1
            elif name == "store.append":
                counts[op]["store.appends"] += 1
    return {
        "ops": [
            {"self_s": dict(s), "counts": dict(c)} for s, c in zip(self_s, counts)
        ],
        "span_totals_s": dict(totals),
    }


def write_spans_jsonl(rec: Recorder, path, batch: int, workload: str) -> None:
    """Append one batch's spans to ``path``.

    Every span gets one line, except the simulator spans, which are rolled
    up into one line per (enclosing coarse span, span name).
    """
    spans = rec.spans()
    if not spans:
        return
    t0 = spans[0][3]
    selfs = self_times(spans)
    op_starts = rec.op_starts
    coarse_parent: dict[int, int] = {}
    names = {sid: name for sid, _, name, _, _ in spans}
    rollup: dict[tuple[int, str], list[float]] = {}
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, name, start, end in spans:
            anchor = coarse_parent.get(parent, parent) if parent >= 0 else -1
            if name in SIMULATOR_SPANS:
                coarse_parent[sid] = anchor
                entry = rollup.setdefault((anchor, name), [0, 0.0])
                if parent < 0 or names[parent] != name:
                    entry[0] += 1
                entry[1] += selfs[sid] / 1e9
                continue
            fh.write(
                json.dumps(
                    {
                        "kind": "span",
                        "workload": workload,
                        "batch": batch,
                        "op": max(bisect.bisect_right(op_starts, start) - 1, 0),
                        "span_id": sid,
                        "parent_id": parent if parent >= 0 else None,
                        "name": name,
                        "start_s": (start - t0) / 1e9,
                        "duration_s": (end - start) / 1e9,
                        "self_s": selfs[sid] / 1e9,
                    }
                )
                + "\n"
            )
        for (anchor, name), (calls, self_total) in sorted(rollup.items()):
            fh.write(
                json.dumps(
                    {
                        "kind": "rollup",
                        "workload": workload,
                        "batch": batch,
                        "parent_id": anchor if anchor >= 0 else None,
                        "name": name,
                        "calls": calls,
                        "self_s": self_total,
                    }
                )
                + "\n"
            )
