"""One fresh-process batch of a fleet-benchmark workload.

``run.py`` starts ``python3 fleetbench/worker.py '<job json>'`` for every
batch, so the product's process-local caches (eviction-set, phase and ILP
pattern caches, machine snapshots) start cold, as in a new survey worker.
The worker sets up (imports, fixture), notes when it became ready, runs the
timed calls, checks the outputs outside the timed region, and prints one
JSON object as the last line of standard output.

Job roles: ``fixture`` surveys the store that ``place-fleet`` places over;
``batch`` runs one batch of a workload, traced when ``trace`` is set.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import spec
from layers import NullRecorder, Recorder, attribute, traced, write_spans_jsonl

#: Co-tenant jobs of the schedule problem (``repro-map place --jobs web:3,db:2,batch:1``).
JOBS = (("web", 3), ("db", 2), ("batch", 1))
#: The three placement calls of one ``place-fleet`` round.
PLACE_CALLS = (("pairs", {"n_pairs": 1}), ("kpairs", {"n_pairs": 3}), ("jobs", {"jobs": JOBS}))
#: Give up matching the template after this many candidate roots or slots.
MAX_CANDIDATES = 20_000


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def chaos_faults(n_slots: int, seed: int) -> dict:
    """Recoverable, deterministic fault plan over every third slot.

    Transient MSR read errors (three slots in seven, because only they land
    in the probe stage often enough to force voted re-measurement), the
    preset first-attempt corruption and worker crash (recovered by slot
    re-dispatch), preemption and co-tenant noise bursts. Every in-run kind
    has a budget of two faults, below ``RetryPolicy.max_attempts``, so each
    stage recovers; no permanent fault is planned.
    """
    from repro.faults import FaultSpec

    def msr_errors(seed):
        return FaultSpec(seed=seed, msr_read_error_rate=0.001, max_faults=2)

    def preempt(seed):
        return FaultSpec(seed=seed, preempt_rate=0.002, preempt_fraction=0.9, max_faults=2)

    def noise_burst(seed):
        return FaultSpec(
            seed=seed, noise_burst_rate=0.002, noise_burst_flows=512,
            noise_burst_lines=16, max_faults=2,
        )

    makers = (
        msr_errors,
        FaultSpec.flaky_first_attempt,
        msr_errors,
        FaultSpec.crash_once,
        msr_errors,
        preempt,
        noise_burst,
    )
    return {
        slot: makers[k % len(makers)](seed=(seed + slot) & 0x7FFFFFFF)
        for k, slot in enumerate(range(0, n_slots, 3))
    }


class Batch:
    """Outcome of one batch, as plain data for ``run.py``."""

    def __init__(self) -> None:
        self.ready = 0.0
        #: Seconds spent choosing inputs before ``ready`` (not product set-up).
        self.plan_s = 0.0
        self.timed_s = 0.0
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""
        self.per_sku: dict[str, list[float]] = {}
        self.place_s: dict[str, float] = {}
        self.fixture_s = 0.0

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


# -- survey workloads ----------------------------------------------------------------
def _survey_outcomes(out: Batch, outcomes, sku: str) -> None:
    for o in outcomes:
        out.attempted += 1
        if o.failed:
            out.failed += 1
            out.problems.append(f"{sku} slot {o.index} failed: {o.error}: {o.error_message}")
            continue
        out.op_s.append(o.timings.total_seconds)
        out.check(o.matches_truth is True, f"{sku} slot {o.index}: map differs from ground truth")


# -- input selection -----------------------------------------------------------------
# A slot's mapping cost is set mostly by its disable pattern: a pattern seen
# earlier in the same process is an ILP pattern-cache hit, a new one is a
# cold solve (0.6–2.4 s on a 6354, depending on the pattern). Batches are
# therefore chosen to repeat the template fleet's pattern structure, so the
# work per batch does not depend on the seed or on how many batches a run
# fits, while PPINs, noise streams and machines still come from the seed.
def _pattern(sku_name: str, root: int, slot: int):
    from repro.platform.fleet import instance_seed
    from repro.platform.instance import CpuInstance
    from repro.platform.skus import SKU_CATALOG

    sku = SKU_CATALOG[sku_name]
    p = CpuInstance.generate(sku, instance_seed(root, sku, slot)).pattern
    return p.disabled_slots, p.llc_only_slots


def _distinct_patterns(sku_name: str, root: int, size: int) -> int:
    return len({_pattern(sku_name, root, slot) for slot in range(size)})


def matched_root(sku_name: str, size: int, seed: int) -> int:
    """The first root seed derived from ``seed`` whose first ``size`` slots
    hold as many distinct disable patterns as the template fleet's."""
    target = _distinct_patterns(sku_name, spec.TEMPLATE_SEED, size)
    for k in range(MAX_CANDIDATES):
        root = spec.batch_seed(seed, sku_name, k)
        if _distinct_patterns(sku_name, root, size) == target:
            return root
    raise RuntimeError(f"no {sku_name} fleet of {size} with {target} distinct patterns")


def template_slots(sku_name: str, size: int, root: int) -> list[int]:
    """Distinct slots of the ``root`` fleet whose disable patterns repeat, slot
    for slot, those of the template fleet's first ``size`` slots."""
    unused: dict = defaultdict(list)
    slots: list[int] = []
    scanned = 0
    for wanted in [_pattern(sku_name, spec.TEMPLATE_SEED, i) for i in range(size)]:
        while not unused[wanted]:
            if scanned == MAX_CANDIDATES:
                raise RuntimeError(f"no {sku_name} slot repeats a template pattern")
            unused[_pattern(sku_name, root, scanned)].append(scanned)
            scanned += 1
        slots.append(unused[wanted].pop(0))
    return slots


def slots_batch(job: dict, rec, trace: bool) -> Batch:
    """``survey-icx`` and ``survey-chaos``: ``SurveyRunner.survey_slots``.

    It is the call ``SurveyService`` makes for its shard, and the one entry
    point that takes the slots themselves.
    """
    from repro.core.pipeline import MappingConfig, RetryPolicy
    from repro.sim.workload import NoiseConfig
    from repro.store.serialization import canonical_record
    from repro.survey.runner import SurveyRunner
    from repro.telemetry.tracer import Tracer

    (sku,) = spec.workload(job["workload"]).skus
    planned = time.monotonic()
    if job["workload"] == "survey-chaos":
        root = matched_root(sku, job["size"], job["seed"])
        slots = list(range(job["size"]))
        options = {
            "config": MappingConfig(retry=RetryPolicy()),
            "noise": NoiseConfig(mesh_flows_per_op=16),
            "faults": chaos_faults(job["size"], job["seed"]),
        }
    else:
        root = job["seed"]
        slots = template_slots(sku, job["size"], root)
        options = {}
    out = Batch()
    out.plan_s = time.monotonic() - planned
    runner = SurveyRunner(
        workers=1, root_seed=root, keep_going=True,
        tracer=Tracer() if trace else None, **options,
    )
    raws: list[dict] = []
    with traced(rec) if trace else nullcontext():
        out.ready = time.monotonic()
        started = time.perf_counter()
        report = runner.survey_slots(sku, slots, raw_sink=raws.append)
        out.timed_s = time.perf_counter() - started
    out.per_sku[sku] = [len(slots), out.timed_s]
    _survey_outcomes(out, report.outcomes, sku)
    out.digest = _digest(
        {
            str(raw["index"]): raw["error"] if raw.get("failed") else canonical_record(raw["record"])
            for raw in raws
        }
    )
    return out


def service_batch(job: dict, rec, trace: bool) -> Batch:
    """``survey-skx``: one durable ``SurveyService`` shard per SKU."""
    from repro.store.segments import SegmentStore
    from repro.survey.runner import SurveyRunner
    from repro.survey.service import SurveyService
    from repro.telemetry.tracer import Tracer

    out = Batch()
    planned = time.monotonic()
    roots = {sku: matched_root(sku, job["size"], job["seed"]) for sku in spec.workload(job["workload"]).skus}
    out.plan_s = time.monotonic() - planned
    services = [
        (
            sku,
            SurveyService(
                Path(job["work_dir"]) / sku,
                runner=SurveyRunner(
                    workers=1, root_seed=root, keep_going=True,
                    tracer=Tracer() if trace else None,
                ),
            ),
        )
        for sku, root in roots.items()
    ]
    with traced(rec) if trace else nullcontext():
        out.ready = time.monotonic()
        reports = []
        for sku, service in services:
            started = time.perf_counter()
            reports.append(service.run(sku, job["size"]))
            wall = time.perf_counter() - started
            out.timed_s += wall
            out.per_sku[sku] = [job["size"], wall]

    stored = {}
    for (sku, service), shard in zip(services, reports):
        _survey_outcomes(out, shard.report.outcomes, sku)
        out.check(shard.state == "completed", f"{sku} shard ended {shard.state}")
        with SegmentStore(service.shard_dir, mode="read") as store:
            stored[sku] = store.records()
        out.check(
            len(stored[sku]) == job["size"] - shard.report.n_failed,
            f"{sku} store holds {len(stored[sku])} maps for {job['size']} slots",
        )
    out.digest = _digest(stored)
    return out


# -- placement -----------------------------------------------------------------------
def place_fixture(job: dict) -> Batch:
    """Survey the store ``place-fleet`` reads (untimed by the benchmark)."""
    from repro.survey.runner import SurveyRunner
    from repro.survey.service import SurveyService

    (sku,) = spec.workload(job["workload"]).skus
    out = Batch()
    out.ready = time.monotonic()
    started = time.perf_counter()
    shard = SurveyService(
        job["store"], runner=SurveyRunner(workers=1, root_seed=job["seed"], keep_going=True)
    ).run(sku, job["size"])
    out.fixture_s = time.perf_counter() - started
    _survey_outcomes(out, shard.report.outcomes, sku)
    return out


def _check_placements(out: Batch, kind: str, fleet, maps) -> None:
    from repro.placement.problem import JobSchedule, JobSpec, PairSelection
    from repro.placement.reference import brute_force_pairs

    out.check(not fleet.infeasible, f"{kind}: infeasible on {len(fleet.infeasible)} instances")
    out.check(len(fleet.results) == len(maps), f"{kind}: {len(fleet.results)} results for {len(maps)} maps")
    for ppin, result in fleet.results:
        where = f"{kind} on {ppin:#x}"
        if kind == "pairs":
            reference = brute_force_pairs(PairSelection(core_map=maps[ppin], n_pairs=1))
            out.check(result.verdict() == reference.verdict(), f"{where}: differs from brute force")
        elif kind == "kpairs":
            cores = [c for p in result.pairs for c in (p.sender, p.receiver)]
            out.check(len(result.pairs) == 3, f"{where}: {len(result.pairs)} pairs")
            out.check(len(set(cores)) == len(cores), f"{where}: pairs share a core")
            out.check(
                result.objective_value == sum(p.benefit for p in result.pairs),
                f"{where}: objective is not the summed benefit",
            )
        else:
            problem = JobSchedule(core_map=maps[ppin], jobs=tuple(JobSpec(*j) for j in JOBS))
            assignment = {a.job: a.os_core for a in result.assignment}
            out.check(len(set(assignment.values())) == len(JOBS), f"{where}: jobs share a core")
            out.check(
                problem.evaluate(assignment)
                == (result.objective_value, result.max_link_load, result.total_weighted_hops),
                f"{where}: reported objective does not match the assignment",
            )


def place_batch(job: dict, rec, trace: bool) -> Batch:
    from repro.placement import fleet as fleet_module
    from repro.placement.fleet import load_fleet_maps
    from repro.telemetry.tracer import Tracer

    store = job["store"]
    out = Batch()
    fleets = {}
    with traced(rec) if trace else nullcontext():
        out.ready = time.monotonic()
        rec.mark_op(("round", job["batch"]))
        for kind, kwargs in PLACE_CALLS:
            tracer = Tracer() if trace else None
            started = time.perf_counter()
            with rec.span("placement.fleet"):
                fleets[kind] = fleet_module.place_over_fleet(store, tracer=tracer, **kwargs)
            out.place_s[kind] = time.perf_counter() - started
            if tracer is not None:
                rec.add_product_counters(tracer.snapshot().counters)
    out.timed_s = sum(out.place_s.values())
    out.op_s.append(out.timed_s)

    maps = load_fleet_maps(store)
    for kind, fleet in fleets.items():
        out.attempted += fleet.n_instances
        out.failed += len(fleet.infeasible)
        _check_placements(out, kind, fleet, maps)
    out.digest = _digest(
        {
            kind: [[f"{ppin:#x}", result.verdict().decode()] for ppin, result in fleet.results]
            for kind, fleet in fleets.items()
        }
    )
    return out


RUNNERS = {
    "survey-skx": service_batch,
    "survey-icx": slots_batch,
    "survey-chaos": slots_batch,
    "place-fleet": place_batch,
}


def main(job: dict) -> dict:
    import numpy
    import scipy

    trace_data = None
    if job["role"] == "fixture":
        out = place_fixture(job)
    else:
        trace = bool(job["trace"])
        rec = Recorder() if trace else NullRecorder()
        out = RUNNERS[job["workload"]](job, rec, trace)
        if trace:
            trace_data = attribute(rec)
            write_spans_jsonl(rec, job["spans_path"], job["batch"], job["workload"])
    return {
        "ready": out.ready,
        "plan_s": out.plan_s,
        "timed_s": out.timed_s,
        "op_s": out.op_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "digest": out.digest,
        "per_sku": out.per_sku,
        "place_s": out.place_s,
        "fixture_s": out.fixture_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace_data,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
