"""revlab benchmark: CLI job throughput on seeded workloads.

    python3 perfbench/run.py --workload circuit-enum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program under test is `src/revlab`.
With `--trace 0` one client runs the workload's job list in a closed loop,
each job as a fresh `python -m revlab` child and then in-process through
`revlab.cli.main(argv)`, and reports the end-to-end metrics. With `--trace 1` it runs the list in-process once untraced and once
with spans around each module's public functions, and reports the per-layer
metrics and the tracing overhead. Every job's output is checked. The last
line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import Checker
from jobs import ChildRunner, closed_loop, run_inprocess
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Job, generate

SETUP_EVERY = 4
IMPORTTIME_RUNS = 5
TAIL_BEYOND = 10
SETUP_JOB = Job("classify", ["classify", "--logical-reversible", "--format", "text"])
WORK_DIR = ".perfbench_work"


class Tally:
    """Counts attempted and failed jobs and keeps the first few reasons."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: Job, outcome) -> bool:
        self.attempted += 1
        problem = self.checker.check(job, outcome.code, outcome.out, outcome.err)
        if problem:
            self._fail(f"{' '.join(job.argv)}: {problem}")
        return problem is None

    def finish(self) -> None:
        for problem in self.checker.finish():
            self._fail(problem)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest whole percentile with TAIL_BEYOND samples beyond it in one
    pass over the job list. It depends on the list only, so it stays the
    same however many passes a run makes."""
    return max(0, math.floor(100 * (jobs_per_pass - TAIL_BEYOND) / jobs_per_pass))


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def import_revlab(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("revlab.cli")


def run_end_to_end(jobs: list[Job], runner: ChildRunner, src: Path, seconds: int, tally: Tally, notes: list[str]):
    """Each job runs as a child and then in-process, and a bare invocation
    runs before every SETUP_EVERY-th job, so that the three measurements see
    the same machine conditions over the whole run."""
    cli = import_revlab(src)
    runner.run(SETUP_JOB.argv)  # compiles bytecode and warms the file cache
    setup, walls, cpus, lib_walls = [], [], [], []
    peak, ok, lib_ok = 0.0, 0, 0
    for index, job in enumerate(closed_loop(jobs, seconds)):
        if index % SETUP_EVERY == 0:
            bare = runner.run(SETUP_JOB.argv)
            tally.record(SETUP_JOB, bare)
            setup.append(bare.wall_s)
        child = runner.run(job.argv)
        ok += tally.record(job, child)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        peak = max(peak, child.maxrss_mb)
        lib = run_inprocess(cli.main, job.argv)
        lib_ok += tally.record(job, lib)
        lib_walls.append(lib.wall_s)

    pct = tail_percentile(len(jobs))
    notes.append(f"{len(walls) // len(jobs)} pass(es), {len(walls)} child and {len(lib_walls)} in-process "
                 f"samples; setup_s is the median of {len(setup)} bare invocations")
    notes.append(f"job_tail_s is p{pct} of {len(walls)} samples "
                 f"({len(walls) - math.ceil(pct / 100 * len(walls))} beyond it)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (ok / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (nearest_rank(walls, pct), "s"),
        "job_cpu_s": (statistics.fmean(cpus), "s"),
        "peak_rss_mb": (peak, "MB"),
        "lib_jobs_per_s": (lib_ok / sum(lib_walls), "1/s"),
    }


def import_times(src: Path, env: dict) -> tuple[float, float]:
    """Median cumulative import time of revlab and of numpy within it, from
    `python -X importtime`."""
    revlab_s, numpy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import revlab"],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if match:
                cumulative.setdefault(match.group(2), int(match.group(1)))
        revlab_s.append(cumulative["revlab"] / 1e6)
        numpy_s.append(cumulative["numpy"] / 1e6)
    return statistics.median(revlab_s), statistics.median(numpy_s)


def run_traced(jobs: list[Job], probes: list[Job], runner: ChildRunner, src: Path, work: Path, tally: Tally, notes: list[str]):
    runner.run(SETUP_JOB.argv)  # compiles bytecode
    import_s, numpy_s = import_times(src, runner.env)
    cli = import_revlab(src)

    # each job runs untraced and then traced, so that both runs see the same
    # machine conditions and the same warm process state
    tracer = Tracer()
    untraced, traced, validate_s, stdout_bytes = 0.0, 0.0, 0.0, 0
    for index, job in enumerate(jobs + probes):
        if index < len(jobs):
            outcome = run_inprocess(cli.main, job.argv)
            tally.record(job, outcome)
            untraced += outcome.wall_s
        tracer.start_job(index)
        tracer.install()
        try:
            outcome = run_inprocess(cli.main, job.argv)  # the traced main
        finally:
            tracer.uninstall()
        tally.record(job, outcome)
        stdout_bytes += len(outcome.out.encode())
        if index < len(jobs):
            traced += outcome.wall_s
        table = tracer.largest_table
        if table is not None:
            start = time.perf_counter()
            type(table)(table.in_width, table.out_width, table.rows)
            validate_s += time.perf_counter() - start
    tracer.write(work / "spans.jsonl")

    notes.append(f"traced pass: {len(jobs)} jobs and {len(probes)} layer probes, {len(tracer.spans)} spans; "
                 f"in-process {untraced:.3f} s untraced, {traced:.3f} s traced")
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.import_numpy_s": (numpy_s, "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "tables.TruthTable.validate_s": (validate_s, "s"),
    }
    metrics.update(layer_metrics(tracer.spans))
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def run_record(root: Path) -> list[str]:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "revlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return [
        f"commit {commit}, src/revlab sha256 {digest.hexdigest()[:16]}",
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}",
        f"python {platform.python_version()}, numpy {numpy_version}, "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
    ]


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    src = root / "src"
    work = Path(WORK_DIR) / workload
    shutil.rmtree(work, ignore_errors=True)
    jobs, probes = generate(workload, seed, work / "inputs")
    tally = Tally(Checker(seed))
    notes = [f"workload {workload}, seed {seed}, trace {int(trace)}, {len(jobs)} jobs per pass"]
    with ChildRunner(src, work) as runner:
        if trace:
            metrics = run_traced(jobs, probes, runner, src, work, tally, notes)
        else:
            metrics = run_end_to_end(jobs, runner, src, seconds, tally, notes)
    tally.finish()
    notes.append(f"fail_frac {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} jobs)")
    notes += [f"FAILED {reason}" for reason in tally.reasons]
    return metrics, tally, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="time budget of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # With its default of one thread per core, OpenBLAS starts worker threads
    # at import whose spin-waiting makes every child's start-up time depend on
    # whether the host is running the second core at that moment. The
    # quantum layer's 2x2 and 4x4 products gain nothing from them.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = Path.cwd()
    if not (root / "src" / "revlab" / "__init__.py").is_file():
        print("run.py: no src/revlab here; run from the root of a revlab checkout", file=sys.stderr)
        return 2

    for line in run_record(root):
        print(f"# {line}")
    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    metrics, attempted, failed = {}, 0, 0
    for workload, trace in runs:
        found, tally, notes = run_workload(root, workload, args.seed, args.seconds, trace)
        for line in notes:
            print(f"# {line}")
        for name, (value, unit) in found.items():
            print(f"{workload} {name} {value} {unit}")
            key = f"{workload}:{name}" if args.workload == "all" else name
            metrics[key] = {"value": value, "unit": unit}
        attempted += tally.attempted
        failed += tally.failed
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
