"""Seeded input generator for the three benchmark workloads.

Each workload is a fixed list of job shapes (verb, sizes, flags, output
format). The seed only chooses the contents of the files (gate placement,
table permutations, angles) and the order of the jobs, so every seed costs
about the same and the throughput figures of different seeds are comparable.
The program under test sees only the files written here and its argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GATE_ARITY = {"NOT": 1, "CNOT": 2, "TOF": 3, "FRED": 3}
TECH_TEXT = (
    "# 0.8 um aluminium process, 3.3 V rail\n"
    "T = 300\n"
    "rho = 2.65e-8\n"
    "wire_length = 3.0e-5\n"
    "wire_cross_section = 0.8e-5\n"
    "V = 3.3\n"
    "f = 5e8\n"
)


@dataclass(frozen=True)
class Netlist:
    width: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    ancillas: dict[int, int]
    garbage: tuple[int, ...]
    fredkin_only: bool

    @property
    def free_lines(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if i not in self.ancillas)

    def text(self) -> str:
        out = [f"lines {self.width}"]
        out += [f"ancilla {line} {bit}" for line, bit in sorted(self.ancillas.items())]
        out += [f"garbage {line}" for line in self.garbage]
        out += [" ".join([kind, *map(str, lines)]) for kind, lines in self.gates]
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Table:
    in_width: int
    out_width: int
    rows: tuple[int, ...]
    bijective: bool

    def text(self) -> str:
        n, m = self.in_width, self.out_width
        body = "".join(f"{x:0{n}b} -> {y:0{m}b}\n" for x, y in enumerate(self.rows))
        return f"table {n} {m}\n{body}"


@dataclass(frozen=True)
class Program:
    key: str
    qubits: int
    lines: tuple[str, ...]
    measurements: int

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class Job:
    """One CLI invocation: revlab's argv, the exit code it must give, and what
    the checker needs to know about its input."""

    kind: str
    argv: list[str]
    expect_code: int = 0
    data: object = None
    extra: dict = field(default_factory=dict)

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def random_netlist(
    rng: random.Random,
    width: int,
    n_gates: int,
    ancillas: int = 0,
    garbage: int = 0,
    fredkin_only: bool = False,
) -> Netlist:
    kinds = ("FRED",) if fredkin_only else tuple(GATE_ARITY)
    gates = []
    for i in range(n_gates):
        # cycle the kinds so every netlist uses each of them in equal share
        kind = kinds[i % len(kinds)]
        gates.append((kind, tuple(rng.sample(range(width), GATE_ARITY[kind]))))
    rng.shuffle(gates)
    anc_lines = rng.sample(range(width), ancillas)
    return Netlist(
        width=width,
        gates=tuple(gates),
        ancillas={line: rng.randrange(2) for line in anc_lines},
        garbage=tuple(sorted(rng.sample(range(width), garbage))),
        fredkin_only=fredkin_only,
    )


def random_word(rng: random.Random, width: int) -> str:
    return format(rng.randrange(1 << width), f"0{width}b") if width else ""


def permutation_table(rng: random.Random, n: int) -> Table:
    rows = list(range(1 << n))
    rng.shuffle(rows)
    return Table(n, n, tuple(rows), True)


def conservative_table(rng: random.Random, n: int) -> Table:
    """A bijection that permutes words only within each Hamming-weight class."""
    classes: dict[int, list[int]] = {}
    for x in range(1 << n):
        classes.setdefault(x.bit_count(), []).append(x)
    rows = [0] * (1 << n)
    for members in classes.values():
        images = members[:]
        rng.shuffle(images)
        for x, y in zip(members, images):
            rows[x] = y
    return Table(n, n, tuple(rows), True)


def collapsing_table(rng: random.Random, n: int) -> Table:
    """A permutation with one output repeated, so the table is not bijective."""
    rows = list(permutation_table(rng, n).rows)
    a, b = rng.sample(range(1 << n), 2)
    rows[a] = rows[b]
    return Table(n, n, tuple(rows), False)


def random_program(
    rng: random.Random, key: str, qubits: int, n_gates: int, mids: int, ends: int
) -> Program:
    """Random RX/H/IZZ/T program with `mids` measurements spread evenly over
    its last third and `ends` measurements after the last gate.

    The program opens with H on every qubit, each measured qubit is distinct,
    gets a random-angle RX just before its MEASURE and is left alone after it.
    So each measurement splits its branch in two and each branch keeps
    2**(unmeasured qubits) amplitudes: the work and the output size are the
    same for every seed.
    """
    measured = rng.sample(range(qubits), mids + ends)
    live = list(range(qubits))
    mid_at = {n_gates - (n_gates // 3) * (i + 1) // (mids + 1) for i in range(mids)}
    lines = [f"H {q}" for q in range(qubits)]
    gate_kinds = ("RX", "H", "IZZ", "T")
    for i in range(n_gates):
        if i in mid_at:
            q = measured.pop()
            live.remove(q)
            lines.append(f"RX {rng.uniform(0.3, 2.8)!r} {q}")
            lines.append(f"MEASURE {q}")
            continue
        kind = gate_kinds[i % len(gate_kinds)]
        if kind == "RX":
            lines.append(f"RX {rng.uniform(0.0, 2 * math.pi)!r} {rng.choice(live)}")
        elif kind == "IZZ":
            a, b = rng.sample(live, 2)
            lines.append(f"IZZ {rng.uniform(0.0, 2 * math.pi)!r} {a} {b}")
        else:
            lines.append(f"{kind} {rng.choice(live)}")
    for q in measured:
        lines.append(f"RX {rng.uniform(0.3, 2.8)!r} {q}")
        lines.append(f"MEASURE {q}")
    return Program(key, qubits, tuple(lines), mids + ends)


class Writer:
    """Writes input files under one directory and hands back their paths."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:03d}-{stem}"
        path.write_text(text)
        return str(path)


def _fmt(i: int) -> str:
    return "json" if i % 2 else "text"


# --- circuit-enum ----------------------------------------------------------

# (width, gates, ancillas, garbage, fredkin_only)
_SIM_SHAPES = [
    (12, 50, 0, 0, False), (13, 100, 1, 1, False), (14, 150, 0, 0, True),
    (15, 200, 2, 1, False), (16, 50, 0, 0, False), (16, 200, 4, 2, False),
    (12, 200, 0, 0, True), (13, 150, 0, 0, False), (14, 50, 3, 0, False),
    (15, 100, 0, 0, True), (16, 150, 0, 3, False), (12, 100, 2, 2, False),
    (16, 100, 5, 0, True),
]
_INVERT_SHAPES = [(12, 200, 0, 0, False), (14, 150, 2, 1, False), (15, 100, 0, 0, True), (16, 50, 4, 2, False)]
_CHECK_SHAPES = [
    (16, 50, 4, 2, False), (14, 100, 2, 1, False), (12, 200, 0, 0, False),
    (13, 100, 1, 0, False), (12, 100, 0, 0, True), (15, 150, 4, 0, False),
    (16, 200, 5, 3, False), (15, 100, 4, 1, False),
]
# (width, gates, ancillas, garbage, fredkin_only, flags); run_ledger enumerates
# 2**width rows whatever the ancillas, so these stay at 12-13 lines. The 17
# sim and invert jobs cost little beyond start-up; five check and energy jobs
# of about 2**12 x 50 gate evaluations come next, so job_tail_s (the 20th of
# 30) falls inside a run of similar jobs.
_ENERGY_SHAPES = [
    (12, 50, 0, 0, False, ["--tech", "TECH", "--instruction-bits", "4"]),
    (12, 100, 0, 0, False, ["--closed", "--reconfig-units", "2", "--instruction-bits", "2"]),
    (13, 50, 1, 1, False, ["--cyclic-tag", "--instruction-bits", "8", "--ideal-wires"]),
    (12, 50, 0, 0, True, ["--tech", "TECH", "--recovered-fraction", "0.5"]),
    (12, 50, 2, 1, False, ["--tech", "TECH", "--temp", "77", "--freq", "2e9"]),
]


def circuit_enum(rng: random.Random, w: Writer) -> list[Job]:
    jobs: list[Job] = []
    tech = w.write("tech.txt", TECH_TEXT)
    for i, (width, gates, anc, garb, fred) in enumerate(_SIM_SHAPES):
        net = random_netlist(rng, width, gates, anc, garb, fred)
        path = w.write("sim.net", net.text())
        word = random_word(rng, len(net.free_lines))
        jobs.append(Job("sim_net", ["sim", path, "--input", word, "--format", _fmt(i)], 0, net, {"input": word}))
    for i, (width, gates, anc, garb, fred) in enumerate(_INVERT_SHAPES):
        net = random_netlist(rng, width, gates, anc, garb, fred)
        path = w.write("invert.net", net.text())
        jobs.append(Job("invert_net", ["invert", path, "--format", _fmt(i)], 0, net))
    for i, (width, gates, anc, garb, fred) in enumerate(_CHECK_SHAPES):
        net = random_netlist(rng, width, gates, anc, garb, fred)
        path = w.write("check.net", net.text())
        # a table with fewer free inputs than lines is never reversible
        jobs.append(Job("check_net", ["check", path, "--format", _fmt(i)], 1 if anc else 0, net))
    for i, (width, gates, anc, garb, fred, flags) in enumerate(_ENERGY_SHAPES):
        net = random_netlist(rng, width, gates, anc, garb, fred)
        path = w.write("energy.net", net.text())
        word = random_word(rng, len(net.free_lines))
        argv = ["energy", path, "--input", word, *[tech if f == "TECH" else f for f in flags]]
        jobs.append(Job("energy", argv + ["--format", _fmt(i)], 0, net, {"input": word, "flags": flags}))
    rng.shuffle(jobs)
    return jobs


# --- table-io ---------------------------------------------------------------

def table_io(rng: random.Random, w: Writer) -> list[Job]:
    """Job costs rise with table width; the shapes are chosen so that the
    eight dual-rail jobs straddle the median and the 15-bit jobs follow them,
    which keeps job_p50_s and job_tail_s inside runs of similar jobs."""
    perm, cons, nonbij = permutation_table, conservative_table, collapsing_table
    shapes = [
        # 12-14 bits, below the median
        ("check", 12, perm), ("check", 12, cons), ("check", 13, nonbij), ("check", 14, nonbij),
        ("invert", 12, perm), ("invert", 12, nonbij), ("invert", 13, perm), ("invert", 14, nonbij),
        ("sim", 12, perm), ("sim", 13, perm), ("sim", 14, perm),
        # eight 8-bit dual-rail bases, 65 536 output rows each
        *[("dualrail", 8, perm)] * 8,
        # 15 and 16 bits, above it
        ("check", 15, cons), ("check", 15, perm), ("sim", 15, perm), ("sim", 15, perm),
        ("check", 16, perm), ("check", 16, perm), ("invert", 15, perm), ("invert", 16, perm),
        ("invert", 16, perm), ("sim", 16, perm), ("sim", 16, perm),
    ]
    jobs: list[Job] = []
    for i, (verb, bits, make) in enumerate(shapes):
        table = make(rng, bits)
        path = w.write(f"{verb}.tbl", table.text())
        argv = [verb, path, "--format", _fmt(i)]
        extra = {}
        if verb == "sim":
            extra["input"] = random_word(rng, bits)
            argv[2:2] = ["--input", extra["input"]]
        # a non-bijective table exits 1 from check and from invert
        jobs.append(Job(f"{verb}_tbl" if verb != "dualrail" else verb, argv, 0 if table.bijective else 1, table, extra))
    rng.shuffle(jobs)
    return jobs


# --- quantum-branch --------------------------------------------------------

# (qubits, gates, mid-program measurements, final measurements)
_PROGRAM_SHAPES = [
    (10, 500, 0, 0), (10, 300, 2, 8), (10, 300, 3, 3), (8, 200, 0, 8),
    (10, 100, 0, 10), (9, 400, 4, 2), (8, 100, 0, 0), (9, 250, 2, 0),
    (10, 200, 0, 5), (8, 500, 1, 4), (9, 150, 0, 9), (10, 400, 5, 0),
    (8, 300, 3, 5), (10, 150, 0, 0), (9, 350, 1, 1), (10, 250, 4, 6),
]


def quantum_branch(rng: random.Random, w: Writer) -> list[Job]:
    jobs: list[Job] = []
    for i, (qubits, gates, mids, ends) in enumerate(_PROGRAM_SHAPES):
        prog = random_program(rng, f"p{i:02d}", qubits, gates, mids, ends)
        path = w.write("prog.q", prog.text())
        jobs.append(Job("quantum", ["quantum", path, "--format", _fmt(i)], 0, prog))
        sample = ["quantum", path, "--sample", str(rng.randrange(1 << 30)), "--format", _fmt(i + 1)]
        jobs.append(Job("quantum_sample", sample, 0, prog))
    rng.shuffle(jobs)
    return jobs


# --- probes ----------------------------------------------------------------

def probes(rng: random.Random, w: Writer) -> list[Job]:
    """One tiny job per verb, run only in the traced pass, so that every layer
    has a span on every workload."""
    table = permutation_table(rng, 3)
    tbl = w.write("probe.tbl", table.text())
    net = random_netlist(rng, 4, 8, ancillas=1, garbage=1)
    nt = w.write("probe.net", net.text())
    tech = w.write("probe-tech.txt", TECH_TEXT)
    prog = random_program(rng, "probe", 2, 6, 1, 1)
    pq = w.write("probe.q", prog.text())
    word3, word_net = random_word(rng, 3), random_word(rng, len(net.free_lines))
    return [
        Job("check_tbl", ["check", tbl, "--format", "text"], 0, table),
        Job("invert_tbl", ["invert", tbl, "--format", "json"], 0, table),
        Job("dualrail", ["dualrail", tbl, "--format", "text"], 0, table),
        Job("sim_tbl", ["sim", tbl, "--input", word3, "--format", "json"], 0, table, {"input": word3}),
        Job("check_net", ["check", nt, "--format", "json"], 1, net),
        Job("sim_net", ["sim", nt, "--input", word_net, "--format", "text"], 0, net, {"input": word_net}),
        Job("invert_net", ["invert", nt, "--format", "text"], 0, net),
        Job("energy", ["energy", nt, "--input", word_net, "--tech", tech, "--format", "json"], 0, net,
            {"input": word_net, "flags": ["--tech", "TECH"]}),
        Job("quantum", ["quantum", pq, "--format", "text"], 0, prog),
        Job("quantum_sample", ["quantum", pq, "--sample", "7", "--format", "json"], 0, prog),
    ]


WORKLOADS = {
    "circuit-enum": circuit_enum,
    "table-io": table_io,
    "quantum-branch": quantum_branch,
}


def generate(workload: str, seed: int, root: Path) -> tuple[list[Job], list[Job]]:
    """Write the inputs of one workload under `root`; return its job list and
    the probe jobs of the traced pass."""
    rng = random.Random(f"{workload}:{seed}")
    writer = Writer(root)
    jobs = WORKLOADS[workload](rng, writer)
    return jobs, probes(random.Random(f"probe:{seed}"), writer)
