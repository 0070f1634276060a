"""Running jobs: as fresh `python -m revlab` children, one at a time, or
in-process through `revlab.cli.main(argv)`.

A child's wall time, CPU time and max-RSS come from `os.wait4` on that one
child. `RUSAGE_CHILDREN` would not do: it keeps the maximum over every child
ever reaped, so one workload's peak would leak into the next. A child's
max-RSS also counts the memory of the process that spawned it, so children
are spawned by a small server process (this file run as a script) that stays
small while the benchmark itself holds inputs and runs in-process jobs. Each
child gets a timeout and an address-space limit of its own, so a runaway job
counts as failed instead of exhausting the machine's memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import select
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

JOB_TIMEOUT_S = 30.0
CHILD_ADDRESS_SPACE = 3 << 30


@dataclass(frozen=True)
class Outcome:
    """What one run of one job gave. code is None when the job timed out."""

    code: int | None
    out: str
    err: str
    wall_s: float
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def _spawn(argv: list[str], stdout: str, stderr: str) -> dict:
    """Run `python -m revlab argv` to completion and account for it."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "revlab", *argv],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            preexec_fn=_limit_child,
        )
        timed_out = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]:
                # the child is not reaped yet, so its pid cannot be reused
                proc.kill()
                timed_out = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": None if timed_out else proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def _serve() -> None:
    """Spawner loop: one JSON request per stdin line, one JSON reply per
    stdout line; ends when stdin closes."""
    for line in sys.stdin:
        request = json.loads(line)
        reply = _spawn(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class ChildRunner:
    """Runs revlab argv lists as `python -m revlab` children from the current
    directory, with `src` on their import path and their output sent to files
    in `workdir`. Use it as a context manager: it owns the spawner process."""

    def __init__(self, src: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        self.env = env
        self.stdout = workdir / "child.out"
        self.stderr = workdir / "child.err"
        self._spawner = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def __enter__(self) -> ChildRunner:
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, argv: list[str]) -> Outcome:
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"the spawner process exited with code {self._spawner.wait()}")
        reply = json.loads(line)
        return Outcome(
            code=reply["code"],
            out=self.stdout.read_text(),
            err=self.stderr.read_text(),
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            maxrss_mb=reply["maxrss_mb"],
        )


def run_inprocess(main, argv: list[str]) -> Outcome:
    """Call revlab's CLI entry point with stdout and stderr captured. An
    exception that escapes it is written to the captured stderr as the
    traceback the CLI would have printed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed job, not a crashed benchmark
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return Outcome(code=code, out=out.getvalue(), err=err.getvalue(), wall_s=wall)


def closed_loop(jobs: list, budget_s: float):
    """Yield the jobs of whole passes over the list, one at a time, while the
    next pass is expected to end within `budget_s`; at least one pass. The
    caller runs each job before asking for the next, so the loop is closed."""
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        yield from jobs
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget_s:
            return


if __name__ == "__main__":
    _serve()
