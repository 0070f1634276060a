"""Facts about one `src` tree, and a digest of everything its CLI prints.

    python3 tools/output_digest.py [--workload W] [--seeds N ...] [--src DIR]

In one process, from the `src` given (default: this checkout's), prints its
line total, the modules that import numpy, the `tracemalloc` peaks of a
1024-branch `quantum` run and a 16-bit table `invert` per format, and per workload (default: each, at its
SEEDS) the job count, a sha256 prefix over every job's exit code, stdout and
stderr, and the in-process time. Inputs are generated under a temporary
directory and named relative to it, so two checkouts print the same digest
lines exactly when their CLI prints the same bytes, wherever they live.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import generate  # noqa: E402

SEEDS = {"circuit-enum": range(1, 11), "table-io": range(1, 4), "quantum-branch": range(1, 11)}
# H on 10 qubits, then RX and MEASURE on each: 1024 branches, the walk's largest
# state; its walk pops 2047 rows of 2^10 amplitudes, one row under the cap
WIDE = "".join(f"H {q}\n" for q in range(10)) + "".join(f"RX 1.1 {q}\nMEASURE {q}\n" for q in range(10))
# a seeded 16-bit permutation, the widest table, written here so that every
# src reads the same bytes
PERM16 = random.Random(16).sample(range(1 << 16), 1 << 16)
TABLE16 = "table 16 16\n" + "".join(f"{x:016b} -> {y:016b}\n" for x, y in enumerate(PERM16))


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
    parser.add_argument("--workload", choices=SEEDS)
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from revlab.cli import main as cli_main

    modules = {path.stem: path.read_text() for path in sorted(src.glob("revlab/*.py"))}
    print("lines:", sum(text.count("\n") for text in modules.values()))
    print("numpy:", *(name for name, text in modules.items() if re.search("^import numpy", text, re.M)))

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("wide.qp").write_text(WIDE)
        Path("perm16.tbl").write_text(TABLE16)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli_main(["classify", "--logical-reversible"])  # builds the cached parser untraced, so each peak is its run's alone
        for label, argv in (("quantum, 1024 branches", ["quantum", "wide.qp"]), ("table, 16-bit invert", ["invert", "perm16.tbl"])):
            for fmt in ("text", "json"):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    tracemalloc.start()
                    cli_main([*argv, "--format", fmt])
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                print(f"{label}, {fmt}: tracemalloc peak {peak / 2**20:.3f} MB")

        for workload in [args.workload] if args.workload else SEEDS:
            seeds = args.seeds or SEEDS[workload]
            digest, count, wall = hashlib.sha256(), 0, 0.0
            for seed in seeds:
                jobs, probes = generate(workload, seed, Path(f"seed{seed}"))
                for job in jobs + probes:
                    start = time.perf_counter()
                    outcome = run(cli_main, job.argv)
                    wall += time.perf_counter() - start
                    digest.update(json.dumps(outcome).encode() + b"\n")
                    count += 1
            print(f"{workload} seeds {' '.join(map(str, seeds))}: {count} jobs, "
                  f"digest {digest.hexdigest()[:16]}, {wall:.2f} s in-process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
