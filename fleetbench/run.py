"""Fleet benchmark: cold surveys of distinct instances, and placement.

Run from the repository root::

    python3 fleetbench/run.py --workload survey-skx --seed 2022 --seconds 24 --trace 0

Each measured batch is a fresh single-threaded worker process
(``worker.py``, ``workers=1``), so the product's process-local caches start
cold. Batches of one workload use consecutive batch seeds derived from
``--seed``; batches keep starting until the run has measured about
``--seconds``. Several workloads (``--workload all`` or a comma list) run
their batches round-robin, so a slow spell on a shared host is spread over
all of them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
batch twice, untraced and then traced, checks that both produce identical
output digests, and reports the per-layer metrics (see ``spec.py`` and
``README.md``). Every metric is printed by name with its unit; the last
line of standard output is one JSON object for the caller. Results go to
``.fleetbench/results/``. The exit code is 1 when an output is wrong or an
operation failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from layers import RATIO_PARTS, SELF_METRIC, SIMULATOR_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".fleetbench"
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring a wrong output)."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread per worker: the timed region is single-threaded by design.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict) -> dict:
    """Run one worker to completion; add its setup time and wall time."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} worker exceeded {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{job['workload']} worker exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned - result["plan_s"]
    result["wall_s"] = time.monotonic() - spawned
    return result


# -- statistics ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summary(value: float, samples: list[float], what: str) -> dict:
    q1, med, q3 = quartiles(samples) if samples else (0.0, 0.0, 0.0)
    return {"value": value, "median": med, "q1": q1, "q3": q3, "n": len(samples), "of": what}


# -- one workload --------------------------------------------------------------------
class WorkloadRun:
    """The batches of one workload within one invocation."""

    def __init__(self, name: str, args, work: Path, results: Path):
        self.w = spec.workload(name)
        self.args = args
        self.size = self.w.quick_size if args.quick else self.w.size
        self.work = work / name
        self.spans_path = results / f"{name}-seed{args.seed}.spans.jsonl"
        self.store: str | None = None
        self.fixture: dict | None = None
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.cycle_s: list[float] = []
        self.problems: list[str] = []

    def prepare(self) -> None:
        if self.args.trace:
            self.spans_path.unlink(missing_ok=True)
        if self.w.name == "place-fleet":
            self.store = str(self.work / "store")
            self.fixture = spawn(
                {
                    "role": "fixture",
                    "workload": self.w.name,
                    "seed": spec.batch_seed(self.args.seed, "place-fleet/fixture", 0),
                    "size": self.size,
                    "store": self.store,
                }
            )
            self.problems += [f"fixture: {p}" for p in self.fixture["problems"]]

    def _job(self, batch: int, trace: bool) -> dict:
        return {
            "role": "batch",
            "workload": self.w.name,
            "batch": batch,
            "seed": spec.batch_seed(self.args.seed, self.w.name, batch),
            "size": self.size,
            "trace": trace,
            "work_dir": str(self.work / f"b{batch}-{'t' if trace else 'u'}"),
            "store": self.store,
            "spans_path": str(self.spans_path),
        }

    def step(self) -> None:
        batch = len(self.untraced)
        started = time.monotonic()
        plain = spawn(self._job(batch, trace=False))
        self.untraced.append(plain)
        self.problems += [f"batch {batch}: {p}" for p in plain["problems"]]
        if self.args.trace:
            traced = spawn(self._job(batch, trace=True))
            self.traced.append(traced)
            self.problems += [f"batch {batch} traced: {p}" for p in traced["problems"]]
            if traced["digest"] != plain["digest"]:
                self.problems.append(f"batch {batch}: traced output digest differs from untraced")
        for suffix in ("u", "t"):
            shutil.rmtree(self.work / f"b{batch}-{suffix}", ignore_errors=True)
        self.cycle_s.append(time.monotonic() - started)

    def done(self) -> bool:
        if self.args.quick:
            return True
        # Start another batch while it is expected to end nearer to
        # --seconds than stopping now would.
        spent = sum(self.cycle_s)
        return spent + statistics.fmean(self.cycle_s) / 2 > self.args.seconds

    # -- metrics -------------------------------------------------------------------
    def end_to_end(self) -> dict[str, dict]:
        ops = [s for b in self.untraced for s in b["op_s"]]
        timed = sum(b["timed_s"] for b in self.untraced)
        rates = [len(b["op_s"]) * 60.0 / b["timed_s"] for b in self.untraced if b["timed_s"] > 0]
        setups = [b["setup_s"] for b in self.untraced]
        rss = [b["rss_mb"] for b in self.untraced]
        return {
            "ops_per_min": summary(len(ops) * 60.0 / timed if timed else 0.0, rates, "batches"),
            "op_p50_s": summary(statistics.median(ops) if ops else 0.0, ops, "ops"),
            "op_p90_s": summary(p90(ops) if ops else 0.0, ops, "ops"),
            "setup_s": summary(statistics.median(setups), setups, "workers"),
            "peak_rss_mb": summary(statistics.median(rss), rss, "workers"),
        }

    def per_layer(self) -> dict[str, dict]:
        ops = [op for b in self.traced for op in b["trace"]["ops"]]
        out: dict[str, dict] = {}
        for base, _, _ in spec.SELF_TIMES:
            values = [op["self_s"].get(base, 0.0) for op in ops]
            out[f"{base}.p50"] = summary(statistics.median(values), values, "ops")
            out[f"{base}.p90"] = summary(p90(values), values, "ops")
        for name, _, _ in spec.COUNTS:
            values = [op["counts"].get(name, 0) for op in ops]
            out[name] = summary(statistics.fmean(values), values, "ops")
        totals: dict[str, float] = {}
        for op in ops:
            for key, value in op["counts"].items():
                totals[key] = totals.get(key, 0) + value
        for name, _, _ in spec.RATIOS:
            num, den = RATIO_PARTS[name]
            hits = sum(totals.get(k, 0) for k in num)
            tries = sum(totals.get(k, 0) for k in den)
            out[name] = summary(hits / tries if tries else 0.0, [], f"{int(tries)} lookups")
        for kind in spec.PLACE_KINDS:
            walls = [b["place_s"][kind] for b in self.untraced if kind in b["place_s"]]
            out[f"placement.solve_s.{kind}"] = summary(
                statistics.median(walls) if walls else 0.0, walls, "rounds"
            )
        for sku in spec.SKUS:
            runs = [b["per_sku"][sku] for b in self.untraced if sku in b["per_sku"]]
            n, wall = sum(r[0] for r in runs), sum(r[1] for r in runs)
            rates = [r[0] * 60.0 / r[1] for r in runs]
            out[f"survey.instances_per_min.{sku}"] = summary(
                n * 60.0 / wall if wall else 0.0, rates, "batches"
            )
        plain = sum(b["timed_s"] for b in self.untraced)
        traced = sum(b["timed_s"] for b in self.traced)
        out["telemetry.overhead_ratio"] = summary(
            traced / plain - 1.0 if plain else 0.0,
            [t["timed_s"] / u["timed_s"] - 1.0 for u, t in zip(self.untraced, self.traced)],
            "batch pairs",
        )
        return out

    def shares(self) -> dict[str, float | None]:
        """Simulator and ILP self time as shares of the ``map_cpu`` span time."""
        pipeline = sum(b["trace"]["span_totals_s"].get("core.pipeline", 0.0) for b in self.traced)
        ops = [op for b in self.traced for op in b["trace"]["ops"]]

        def total(metrics):
            return sum(op["self_s"].get(m, 0.0) for op in ops for m in metrics)

        simulator = total([SELF_METRIC[s] for s in SIMULATOR_SPANS])
        ilp = total(["ilp.lower.self_s", "ilp.highs.self_s"])
        if not pipeline:
            return {"simulator_of_map_cpu": None, "ilp_of_map_cpu": None, "map_cpu_s": 0.0}
        return {
            "simulator_of_map_cpu": simulator / pipeline,
            "ilp_of_map_cpu": ilp / pipeline,
            "map_cpu_s": pipeline,
        }

    def report(self) -> dict:
        batches = self.untraced + self.traced
        metrics = self.per_layer() if self.args.trace else self.end_to_end()
        declared = spec.PER_LAYER if self.args.trace else spec.END_TO_END
        return {
            "workload": self.w.name,
            "op": self.w.op,
            "size": self.size,
            "batches": len(self.untraced),
            "attempted": sum(b["attempted"] for b in batches),
            "failed": sum(b["failed"] for b in batches),
            "problems": self.problems,
            "correct": not self.problems,
            "digests": [b["digest"] for b in self.untraced],
            "fixture_s": self.fixture["fixture_s"] if self.fixture else None,
            "shares": self.shares() if self.args.trace else None,
            "metrics": {
                m.name: {"unit": m.unit, "better": m.better, **metrics[m.name]} for m in declared
            },
            "batch_detail": [
                {k: v for k, v in b.items() if k not in ("trace", "op_s")} for b in batches
            ],
        }


# -- entry point -------------------------------------------------------------------
def _print_report(report: dict) -> None:
    print(f"== {report['workload']}: {report['batches']} batches, op = {report['op']}")
    for name, m in report["metrics"].items():
        spread = (
            f"median {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] (n={m['n']} {m['of']})"
            if m["n"]
            else f"({m['of']})"
        )
        print(f"  {name:<46} {m['value']:>13.6g} {m['unit']:<6} {spread}")
    if report["fixture_s"] is not None:
        print(f"  fixture survey (untimed): {report['fixture_s']:.3f} s")
    if report["shares"] and report["shares"]["map_cpu_s"]:
        s = report["shares"]
        print(
            f"  of map_cpu time: simulator {s['simulator_of_map_cpu']:.1%}, "
            f"ilp {s['ilp_of_map_cpu']:.1%}"
        )
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", default="all",
        help=f"one of {', '.join(spec.WORKLOAD_NAMES)}, a comma list, or 'all'",
    )
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="smallest sizes, one batch per workload")
    args = p.parse_args(argv)
    names = spec.WORKLOAD_NAMES if args.workload == "all" else tuple(args.workload.split(","))
    for name in names:
        spec.workload(name)
    return args, names


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no product sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / str(os.getpid())
    load_start = os.getloadavg()
    runs = [WorkloadRun(name, args, work, results) for name in names]
    try:
        for run in runs:
            run.prepare()
        active = list(runs)
        while active:
            for run in list(active):
                run.step()
                if run.done():
                    active.remove(run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = runs[0].untraced[0]["versions"]
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **first,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    reports = [run.report() for run in runs]
    for report in reports:
        _print_report(report)
        path = results / f"{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(
            json.dumps({"seed": args.seed, "trace": args.trace, "host": host, **report}, indent=1)
        )
    print(f"host: {host}")

    single = len(reports) == 1
    line = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): {"value": m["value"], "unit": m["unit"]}
            for r in reports
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
