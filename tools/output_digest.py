"""Digest of everything the CLI prints on one benchmark workload.

    python3 tools/output_digest.py --workload quantum-branch --seeds 1 2 3 4 5 [--src DIR]

Writes each seed's job and probe inputs with `perfbench/workloads.generate`,
under a temporary directory and named relative to it, runs every job
in-process through `revlab.cli.main` from the `src` directory given (default:
this checkout's), and prints the job count, a sha256 prefix over every exit
code, stdout and stderr, and the in-process wall time. Two checkouts give the
same digest exactly when their CLI prints the same bytes, wherever they live.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, generate  # noqa: E402


def run(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is output too, minus its paths
            return ["raised", out.getvalue(), type(exc).__name__]
    return [code, out.getvalue(), err.getvalue()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from revlab.cli import main as cli_main

    digest, count, wall = hashlib.sha256(), 0, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for seed in args.seeds:
            jobs, probes = generate(args.workload, seed, Path(f"seed{seed}"))
            for job in jobs + probes:
                start = time.perf_counter()
                outcome = run(cli_main, job.argv)
                wall += time.perf_counter() - start
                digest.update(json.dumps(outcome).encode() + b"\n")
                count += 1
    print(f"{args.workload} seeds {' '.join(map(str, args.seeds))}: {count} jobs, "
          f"digest {digest.hexdigest()[:16]}, {wall:.2f} s in-process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
