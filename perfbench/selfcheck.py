"""Self-check of the benchmark's correctness gate.

Runs one round of small jobs (n = 5) through ``run.measure``, each time
corrupting one job's result in a different way, and checks that the
corrupted job is counted as failed and the run as incorrect.  The same jobs
left alone must pass, a traced job whose stdout differs from the untraced
one must make the run incorrect, and two traced runs of the same jobs must
give the same counts.

    python3 perfbench/selfcheck.py    # exits 0 when the gate holds
"""

import json
import sys

import run

JOBS = run.make_jobs((("AG", "verify", 5), ("EAG", "verify", 5), ("CAG", "verify", 5)), "selfcheck")


def _edit_report(record: dict, **changes) -> None:
    report = json.loads(record["stdout"])
    report.update({k: v(report) for k, v in changes.items()})
    record["stdout"] = json.dumps(report)


CORRUPTIONS = {
    # name: (family of the job to corrupt, edit of its record)
    "report says overall false": ("AG", lambda r: _edit_report(r, overall=lambda _: False)),
    "report without checks": ("EAG", lambda r: _edit_report(r, checks=lambda _: [])),
    "report for another n": ("CAG", lambda r: _edit_report(r, n=lambda rep: rep["n"] + 1)),
    "nonzero exit": ("AG", lambda r: r.update(code=1)),
    "truncated stdout": ("EAG", lambda r: r.update(stdout=r["stdout"][: len(r["stdout"]) // 2])),
}


def corrupt_first(family: str, edit):
    done = []

    def corrupt(job, record):
        if job.family == family and not done:
            done.append(job)
            edit(record)

    return corrupt


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    clean = run.measure(JOBS, 0, trace=False)
    if not clean.correct or clean.failures:
        problems.append(f"untouched jobs failed: {clean.failures}")
    for name, (family, edit) in CORRUPTIONS.items():
        result = run.measure(JOBS, 0, trace=False, corrupt=corrupt_first(family, edit))
        print(f"{name}: fail_ratio {result.fail_ratio}, correct {result.correct}")
        if result.correct or result.fail_ratio != 1 / len(JOBS):
            problems.append(f"{name}: expected 1 failed job of {len(JOBS)}, got {result.failures}")

    def respace_traced(job, record):
        if "layers" in record and job.family == "CAG":
            record["stdout"] = json.dumps(json.loads(record["stdout"]), indent=1)

    traced = run.measure(JOBS, 0, trace=True, corrupt=respace_traced)
    print(f"traced stdout differs: problems {traced.problems}, correct {traced.correct}")
    if traced.correct or traced.failures:
        problems.append("a traced report that differs from the untraced one went unnoticed")
    again = run.measure(JOBS, 0, trace=True)
    first, second = ([run.counts(r) for records in m.traced for r in records] for m in (traced, again))
    print(f"counts of two traced runs equal: {first == second}")
    if first != second or not again.correct:
        problems.append("counts differ between two traced runs with one seed")
    for why in problems:
        print(f"SELF-CHECK FAILED: {why}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
