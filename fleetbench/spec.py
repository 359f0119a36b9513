"""What the fleet benchmark runs and reports: workloads, seeds and metrics.

This module is the single source of every name ``BENCHMARK.json`` lists.
It also holds what that file's fixed format has no room for: each
workload's size, the held-out seed, and for each per-layer metric the layer
it measures and the (end-to-end metric, workload) pairs it should move.
``python3 fleetbench/spec.py`` prints the ``BENCHMARK.json`` implied here.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

#: Seed of a plain ``run.py`` invocation.
DEFAULT_SEED = 2022
#: Seed kept out of development: a claimed gain must also hold on it.
HELD_OUT_SEED = 7

#: Root seed of the template fleet whose disable-pattern structure every
#: survey batch repeats with its own, seed-derived instances: the number of
#: distinct patterns (``survey-skx``, ``survey-chaos``) or the pattern
#: sequence itself (``survey-icx``).
TEMPLATE_SEED = 2

#: Length of one measured run, in seconds.
RUN_SECONDS = 26

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass(frozen=True)
class Workload:
    """One seeded input set; a run repeats fresh-process batches of it."""

    name: str
    why: str
    #: What one operation is (the unit of ``ops_per_min``/``op_p50_s``).
    op: str
    skus: tuple[str, ...]
    #: Instances per SKU in one batch (survey) or in the fixture store (place).
    size: int
    #: The same for ``--quick`` smoke runs.
    quick_size: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="survey-skx",
        why=(
            "cold durable survey of distinct 8124M/8175M/8259CL instances: "
            "simulator and PMON readback dominate, store fsync and ILP pattern "
            "reuse ride along"
        ),
        op="one instance mapped and stored",
        skus=("8124M", "8175M", "8259CL"),
        size=10,
        quick_size=2,
    ),
    Workload(
        name="survey-icx",
        why=(
            "cold survey of distinct Ice Lake 6354 instances in a fixed mix of new "
            "and repeated disable patterns: ILP solves dominate, with a long tail"
        ),
        op="one instance mapped",
        skus=("6354",),
        size=8,
        quick_size=2,
    ),
    Workload(
        name="survey-chaos",
        why=(
            "in-memory resilient survey with recoverable injected faults and "
            "doubled co-tenant noise: retries, voting and re-dispatch bypass the "
            "replay caches"
        ),
        op="one fleet slot mapped, retries included",
        skus=("8259CL",),
        size=21,
        quick_size=6,
    ),
    Workload(
        name="place-fleet",
        why=(
            "pair, 3-pair and job-schedule placement over a surveyed segment "
            "store: placement ILPs and model building, no simulator work"
        ),
        op="one round of the three place_over_fleet calls",
        skus=("8259CL",),
        size=3,
        quick_size=2,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
#: Every surveyed SKU, each with its own throughput metric.
SKUS = ("8124M", "8175M", "8259CL", "6354")


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")


def batch_seed(seed: int, workload_name: str, batch: int) -> int:
    """Root seed of one batch: distinct per batch, stable across processes."""
    digest = hashlib.sha256(f"{seed}/{workload_name}/{batch}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics only: the worsening of the median, as a share of
    #: the parent's median, before a change counts as a regression.
    bound: float | None = None
    #: Per-layer metrics only: the product layer (module) measured.
    layer: str | None = None
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: tuple[tuple[str, str], ...] = ()


END_TO_END: tuple[Metric, ...] = (
    Metric("ops_per_min", "1/min", "higher", bound=0.25),
    Metric("op_p50_s", "s", "lower", bound=0.25),
    Metric("op_p90_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.05),
)

_SKX, _ICX, _CHAOS, _PLACE = WORKLOAD_NAMES


def _m(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


#: Self-time metrics: span name(s) → (metric base, layer, moves). Reported
#: as the p50 and p90 over operations of the per-operation self time.
SELF_TIMES: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("sim.execute.self_s", "sim", _m("ops_per_min", _SKX, _CHAOS)),
    ("cache.coherence.self_s", "cache", _m("ops_per_min", _SKX, _CHAOS)),
    ("mesh.noise_inject.self_s", "mesh", _m("ops_per_min", _CHAOS, _SKX)),
    ("uncore.readback.self_s", "uncore", _m("ops_per_min", _SKX)),
    ("core.cha_mapping.home_discovery.self_s", "core.cha_mapping", _m("op_p50_s", _SKX)),
    ("core.cha_mapping.colocation.self_s", "core.cha_mapping", _m("op_p50_s", _SKX)),
    ("core.probes.self_s", "core.probes", _m("op_p50_s", _SKX)),
    ("core.pipeline.self_s", "core.pipeline", _m("op_p50_s", _SKX)),
    ("core.reconstruct.model_build.self_s", "core.reconstruct", _m("op_p90_s", _ICX)),
    ("core.reconstruct.self_s", "core.reconstruct", _m("op_p90_s", _ICX)),
    ("ilp.lower.self_s", "ilp", _m("op_p90_s", _ICX) + _m("op_p50_s", _PLACE)),
    ("ilp.highs.self_s", "ilp", _m("op_p90_s", _ICX) + _m("op_p50_s", _PLACE)),
    ("store.append.self_s", "store", _m("ops_per_min", _SKX)),
    ("store.load.self_s", "store", _m("op_p50_s", _PLACE)),
    ("survey.self_s", "survey", _m("ops_per_min", _SKX, _ICX, _CHAOS)),
    ("placement.model_build.self_s", "placement", _m("op_p50_s", _PLACE)),
    ("placement.self_s", "placement", _m("op_p50_s", _PLACE)),
)

#: Work counts, reported as the mean per operation.
COUNTS: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("sim.execute.calls", "sim", _m("ops_per_min", _SKX, _CHAOS)),
    ("uncore.pmon_reads", "uncore", _m("ops_per_min", _SKX)),
    ("core.cha_mapping.colocation_tests", "core.cha_mapping", _m("op_p50_s", _SKX)),
    ("core.probes.probes", "core.probes", _m("op_p50_s", _SKX)),
    ("core.probes.votes", "core.probes", _m("ops_per_min", _CHAOS)),
    ("core.reconstruct.refinement_cuts", "core.reconstruct", _m("op_p90_s", _ICX)),
    ("core.reconstruct.observations_shed", "core.reconstruct", _m("ops_per_min", _CHAOS)),
    ("ilp.solves", "ilp", _m("op_p90_s", _ICX) + _m("op_p50_s", _PLACE)),
    ("ilp.rows", "ilp", _m("op_p90_s", _ICX) + _m("op_p50_s", _PLACE)),
    ("ilp.cols", "ilp", _m("op_p90_s", _ICX) + _m("op_p50_s", _PLACE)),
    ("store.appends", "store", _m("ops_per_min", _SKX)),
    ("placement.ilp_solves", "placement", _m("op_p50_s", _PLACE)),
    ("survey.slot_retries", "survey", _m("ops_per_min", _CHAOS)),
    ("survey.stage_retries.cha_mapping", "survey", _m("ops_per_min", _CHAOS)),
    ("survey.stage_retries.probe", "survey", _m("ops_per_min", _CHAOS)),
    ("survey.stage_retries.solve", "survey", _m("ops_per_min", _CHAOS)),
)

#: Useful outcomes over attempts, pooled over the run (0 when never tried).
RATIOS: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("core.cha_mapping.evset_cache_hit_ratio", "core.cha_mapping", _m("op_p50_s", _SKX)),
    ("core.probes.phase_cache_hit_ratio", "core.probes", _m("op_p50_s", _SKX)),
    ("core.reconstruct.pattern_cache_hit_ratio", "core.reconstruct", _m("op_p90_s", _ICX)),
)

#: Wall time of each placement call kind, median over rounds.
PLACE_KINDS = ("pairs", "kpairs", "jobs")


def _per_layer() -> tuple[Metric, ...]:
    out: list[Metric] = []
    for base, layer, moves in SELF_TIMES:
        for q in ("p50", "p90"):
            out.append(Metric(f"{base}.{q}", "s", "lower", layer=layer, moves=moves))
    for name, layer, moves in COUNTS:
        out.append(Metric(name, "count", "lower", layer=layer, moves=moves))
    for name, layer, moves in RATIOS:
        out.append(Metric(name, "ratio", "higher", layer=layer, moves=moves))
    for kind in PLACE_KINDS:
        out.append(
            Metric(
                f"placement.solve_s.{kind}", "s", "lower", layer="placement",
                moves=_m("op_p50_s", _PLACE),
            )
        )
    for sku in SKUS:
        out.append(
            Metric(
                f"survey.instances_per_min.{sku}", "1/min", "higher", layer="survey",
                moves=_m("ops_per_min", _ICX if sku == "6354" else _SKX),
            )
        )
    out.append(Metric("telemetry.overhead_ratio", "ratio", "lower", layer="telemetry"))
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "fleetbench/run.py"],
        "paths": ["fleetbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
