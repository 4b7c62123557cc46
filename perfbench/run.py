"""Benchmark of the altspectra CLI, end to end and per module.

    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

A closed loop: one client sends the workload's jobs one after another, each
job one CLI call in a fresh interpreter (``job.py``).  After one full round
it keeps sending them in turn, skipping a job whose longest time so far
would end it after ``--seconds``, until none fits.  Each job's ``--seed``
and ``--block`` come from the workload seed, so every repeat of a job is
the same CLI call.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` runs every job untraced and then traced, reports
the per-layer metrics from the traced jobs and checks that tracing changed
nothing: byte-identical stdout, the same ``alternating_images`` cache
counts, counters that repeat exactly, and self times that add up to the
job time.

Every job is checked: it must exit 0 and its ``verify`` report must have
``overall`` true.  The last stdout line is one JSON object;
``perfbench/out/`` receives the full record, with the environment, and the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from math import factorial
from operator import itemgetter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> (family, verb, n) per job, in the order the client sends them.
WORKLOADS = {
    "verify-n7": (("AG", "verify", 7), ("EAG", "verify", 7), ("CAG", "verify", 7)),
    "verify-n8": (("AG", "verify", 8), ("EAG", "verify", 8), ("CAG", "verify", 8)),
}
SETUP_PROBES = 5  # import-only interpreters per run, on top of the jobs
JOB_TIMEOUT_S = 100
# One BLAS thread: on a few shared cores, a BLAS call split over every core
# waits for the most contended one.
BLAS_THREADS = "1"
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Job:
    family: str
    verb: str
    n: int
    argv: tuple[str, ...]


def make_jobs(specs, key: str) -> list[Job]:
    """Jobs for ``(family, verb, n)`` specs; ``key`` seeds their --seed and --block."""
    rng = random.Random(key)
    return [
        Job(
            family,
            verb,
            n,
            (
                verb, "--family", family, "--n", str(n),
                "--seed", str(rng.randrange(2**31)),
                "--block", str(rng.randint(1, n)),
                "--format", "json",
            ),
        )
        for family, verb, n in specs
    ]


def workload_jobs(name: str, seed: int) -> list[Job]:
    return make_jobs(WORKLOADS[name], f"{name}/{seed}")


def run_child(mode: str, argv=()) -> dict:
    """Start ``job.py`` and return its record; ``setup`` is the time from
    launching the interpreter to ``altspectra.cli`` being imported."""
    launched = time.perf_counter()
    crashed = {"setup": 0.0, "code": None, "stdout": "", "stderr": "", "rss_mb": 0.0,
               "lru_calls": None, "lru_misses": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(SRC), mode, *argv],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
        record = json.loads(proc.stdout.splitlines()[-1])
    except subprocess.TimeoutExpired:
        return crashed | {"seconds": time.perf_counter() - launched, "code": "timeout"}
    except (IndexError, ValueError):
        return crashed | {"seconds": time.perf_counter() - launched, "code": proc.returncode,
                          "stderr": proc.stderr[-2000:]}
    record["setup"] = record.pop("ready") - launched
    if mode != "probe":
        record["seconds"] = record.pop("end") - record.pop("start")
        record["rss_mb"] = record.pop("maxrss_kb") / 1024.0
        record["stderr"] = proc.stderr[-2000:]
    return record


def job_failure(job: Job, record: dict) -> str | None:
    """Why the job's result is wrong, or None when it is right."""
    if record["code"] != 0:
        return f"exit code {record['code']}"
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return "report is not JSON"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("family") != job.family or report.get("n") != job.n:
        return "report is for another graph"
    if report.get("overall") is not True or not report.get("checks"):
        return "verification failed"
    return None


def self_seconds(record: dict) -> float:
    return sum(v for k, v in record["layers"].items() if k.endswith(".s"))


def counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if not k.endswith(".s")}


@dataclass
class Run:
    jobs: list[Job]
    trace: bool
    setups: list[float] = field(default_factory=list)
    plain: list[list[dict]] = field(default_factory=list)  # per job, one record per repeat
    traced: list[list[dict]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.plain + self.traced)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


def measure(jobs: list[Job], seconds: float, trace: bool, corrupt=None) -> Run:
    """Run every job once, then keep sending jobs in turn, skipping any job
    whose longest time so far would end it after ``seconds``, until none fits.

    ``corrupt(job, record)``, when given, may alter a job's record before it
    is checked; the self-check uses it to show failures are counted.
    """
    run = Run(jobs, trace, plain=[[] for _ in jobs], traced=[[] for _ in jobs])
    run.setups = [run_child("probe")["setup"] for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    cost = [0.0] * len(jobs)

    def send(index: int) -> None:
        job, sent = jobs[index], time.perf_counter()
        for mode in modes:
            record = run_child(mode, job.argv)
            if corrupt is not None:
                corrupt(job, record)
            why = job_failure(job, record)
            if why:
                run.failures.append(f"{mode} {' '.join(job.argv)}: {why} {record.get('stderr', '')}")
            run.setups.append(record["setup"])
            (run.traced if mode == "traced" else run.plain)[index].append(record)
        cost[index] = max(cost[index], time.perf_counter() - sent)

    began = time.perf_counter()
    for index in range(len(jobs)):
        send(index)
    while True:
        sent_any = False
        for index in range(len(jobs)):
            if time.perf_counter() - began + cost[index] <= seconds:
                send(index)
                sent_any = True
        if not sent_any:
            break
    if trace:
        run.problems = trace_problems(run)
    return run


def trace_problems(run: Run) -> list[str]:
    """Ways in which the traced jobs disagree with the untraced ones."""
    problems = []
    for job, plain, traced in zip(run.jobs, run.plain, run.traced):
        label = " ".join(job.argv)
        if any("layers" not in t for t in traced):
            return [f"{label}: a traced job left no trace"]
        for p, t in zip(plain, traced):
            if t["stdout"] != p["stdout"]:
                problems.append(f"{label}: traced stdout differs from untraced stdout")
            lru = (t["layers"].get("perm.alternating_images.calls", 0),
                   t["layers"].get("perm.alternating_images.misses", 0))
            if not lru == (t["lru_calls"], t["lru_misses"]) == (p["lru_calls"], p["lru_misses"]):
                problems.append(f"{label}: alternating_images calls/misses {lru} traced, "
                                f"{(p['lru_calls'], p['lru_misses'])} in the lru cache")
        if any(counts(t) != counts(traced[0]) for t in traced):
            problems.append(f"{label}: counters differ between repeats of one seed")
    overhead = trace_overhead(run)
    unaccounted = unaccounted_seconds(run)
    if not 0.0 <= unaccounted <= max(overhead, 0.0) + 1e-3:
        problems.append(f"self times leave {unaccounted:.6f} s of the traced job time "
                        f"unaccounted, tracing overhead is {overhead:.6f} s")
    return problems


def median_sum(groups, value) -> float:
    return sum(statistics.median(value(r) for r in group) for group in groups)


def trace_overhead(run: Run) -> float:
    """Traced wall time minus untraced wall time."""
    seconds = itemgetter("seconds")
    return median_sum(run.traced, seconds) - median_sum(run.plain, seconds)


def unaccounted_seconds(run: Run) -> float:
    return median_sum(run.traced, lambda r: r["seconds"] - self_seconds(r))


def end_to_end(run: Run) -> dict:
    metrics = {
        f"{job.family}_s": statistics.median(r["seconds"] for r in records)
        for job, records in zip(run.jobs, run.plain)
    }
    metrics["wall_s"] = sum(metrics.values())
    metrics["setup_s"] = len(run.jobs) * statistics.median(run.setups)
    metrics["peak_rss_mb"] = max(r["rss_mb"] for records in run.plain for r in records)
    return metrics


def per_layer(run: Run, names) -> dict:
    """Per-layer metrics summed over the workload's jobs; a time is each
    job's median over its traced repeats, a count is exact."""
    total = Counter()
    for traced in run.traced:
        keys = set().union(*(r["layers"] for r in traced))
        for key in keys:
            if key.endswith(".s"):
                total[key] += statistics.median(r["layers"].get(key, 0.0) for r in traced)
            else:
                total[key] += traced[0]["layers"].get(key, 0)
        for key in set().union(*(r["check_seconds"] for r in traced)):
            total[key] += statistics.median(r["check_seconds"].get(key, 0.0) for r in traced)
    solves = total["spectra.lambda2_iterative.calls"]
    total["spectra.lambda2_iterative.reuse"] = (
        total["spectra.lambda2_iterative.distinct"] / solves if solves else 0.0)
    total["spectra.lambda2_iterative.matvecs_per_solve"] = (
        total["cayley.matvec.in_solves"] / solves if solves else 0.0)
    total["cli.stdout_bytes"] = sum(len(records[0]["stdout"].encode()) for records in run.plain)
    total["trace.overhead_s"] = trace_overhead(run)
    total["trace.unaccounted_s"] = unaccounted_seconds(run)
    return {name: total.get(name, 0) for name in names}


def environment(jobs: list[Job], seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {}
    from altspectra.spectra import predicted

    largest = max(factorial(j.n) // 2 * predicted(j.family, j.n)[0] * 4 for j in jobs)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "largest_neighbor_array_mb": largest / 2**20,
        "jobs": [" ".join(j.argv) for j in jobs],
    }


def report(workload: str, seed: int, run: Run, spec: dict) -> dict:
    """Print the human-readable summary, write the record, return metrics."""
    kind = "per_layer" if run.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = per_layer(run, units) if run.trace else end_to_end(run)
    env = environment(run.jobs, seed)
    print(f"# {workload}: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "jobs"))
    for line in env["jobs"]:
        print(f"#   job: {line}")
    sent = ", ".join(f"{job.family} x{len(records)}" for job, records in zip(run.jobs, run.plain))
    print(f"# {workload}: {run.attempted} jobs ({sent}), {len(run.failures)} failed, "
          f"fail_ratio {run.fail_ratio}")
    for why in run.failures + run.problems:
        print(f"# FAIL {why}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(run.trace)}"
    samples = [
        {key: r.get(key) for key in ("setup", "seconds", "cpu", "code", "rss_mb")}
        | {"mode": mode, "argv": " ".join(job.argv)}
        for mode, groups in (("plain", run.plain), ("traced", run.traced))
        for job, records in zip(run.jobs, groups)
        for r in records
    ]
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload, "environment": env,
        "attempted": run.attempted, "failed": len(run.failures), "fail_ratio": run.fail_ratio,
        "failures": run.failures, "problems": run.problems,
        "metrics": metrics, "samples": samples,
    }, indent=1))
    if run.trace:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for job, records in zip(run.jobs, run.traced):
                for k, r in enumerate(records):
                    for name, start, end, parent in r["spans"]:
                        fh.write(json.dumps({"job": f"{job.family}-{job.n}#{k}", "name": name,
                                             "start": start, "end": end, "parent": parent}) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "altspectra" / "cli.py").is_file():
        print(f"error: no altspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {w: measure(workload_jobs(w, args.seed), args.seconds, bool(args.trace)) for w in names}
    metrics = {}
    for workload, run in runs.items():
        values = report(workload, args.seed, run, spec)
        metrics.update(values if len(names) == 1 else {f"{workload}.{k}": v for k, v in values.items()})
    print(json.dumps({
        "correct": all(r.correct for r in runs.values()),
        "attempted": sum(r.attempted for r in runs.values()),
        "failed": sum(len(r.failures) for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
