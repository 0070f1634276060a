"""Output checker behind `failed` and `fail_frac`.

Every job must exit with the code its input implies and print no traceback.
Its output is then checked against properties known from how the input was
built, so the checker holds on any seed:

* a netlist without ancillas is reversible, a Fredkin-only one conservative;
* each `sim` word matches the four-gate reference evaluator below;
* dual-rail codeword rows keep weight n;
* each ledger meets its bound, and its INPUT_SET bits equal the width;
* branch probabilities sum to at most 1, and each sampled path is one of the
  enumerated branches with the same probability.
"""

from __future__ import annotations

import json
import random

from workloads import Job, Netlist, Program, Table

SAMPLED_WORDS = 64
# text output rounds probabilities to six decimals
PROB_TOL = 1e-6


def reference_eval(net: Netlist, word: int) -> tuple[int, list[int]]:
    """Run the gates on a full-width word, bit by bit. Returns the output word
    and the number of bits each gate flipped."""
    bits = [(word >> (net.width - 1 - i)) & 1 for i in range(net.width)]
    flips = []
    for kind, lines in net.gates:
        before = bits[:]
        if kind == "NOT":
            bits[lines[0]] ^= 1
        elif kind == "CNOT":
            bits[lines[1]] ^= bits[lines[0]]
        elif kind == "TOF":
            bits[lines[2]] ^= bits[lines[0]] & bits[lines[1]]
        elif bits[lines[0]]:
            bits[lines[1]], bits[lines[2]] = bits[lines[2]], bits[lines[1]]
        flips.append(sum(a != b for a, b in zip(before, bits)))
    return int("".join(map(str, bits)) or "0", 2), flips


def load_word(net: Netlist, free_bits: str) -> int:
    bits = [0] * net.width
    for line, bit in net.ancillas.items():
        bits[line] = bit
    for line, ch in zip(net.free_lines, free_bits):
        bits[line] = int(ch)
    return int("".join(map(str, bits)) or "0", 2)


def gates_change_weight(net: Netlist, seed: int) -> bool:
    """True when some sampled full-width word changes Hamming weight, which
    proves the bare gate list is not conservative. False proves nothing."""
    rng = random.Random(seed)
    for _ in range(SAMPLED_WORDS):
        word = rng.randrange(1 << net.width)
        if reference_eval(net, word)[0].bit_count() != word.bit_count():
            return True
    return False


def _rows_from_table_text(text: str, in_w: int, out_w: int) -> list[int]:
    lines = text.splitlines()
    if not lines or lines[0] != f"table {in_w} {out_w}":
        raise ValueError(f"bad table header {lines[:1]!r}")
    rows = [0] * (1 << in_w)
    for i, line in enumerate(lines[1:]):
        src, dst = line.split(" -> ")
        if int(src, 2) != i:
            raise ValueError(f"row {i} is out of order")
        rows[i] = int(dst, 2)
    if len(lines) - 1 != len(rows):
        raise ValueError(f"{len(lines) - 1} rows, expected {len(rows)}")
    return rows


def _ledger(job: Job, out: str) -> tuple[list[tuple[str, int]], bool, bool]:
    """Entries as (stage, bits), bound met, observable."""
    if job.fmt == "json":
        doc = json.loads(out)
        entries = [(e["stage"], e["bits"]) for e in doc["entries"]]
        return entries, doc["bound"]["met"], doc["observable"]
    entries, met, observable = [], None, None
    for line in out.splitlines():
        if line.startswith("bound met: "):
            met = line == "bound met: yes"
        elif line.startswith("observable: "):
            observable = line == "observable: yes"
        elif "bits=" in line:
            stage, bits = line.split()[:2]
            entries.append((stage, int(bits[len("bits="):])))
    return entries, met, observable


def _branches(job: Job, out: str) -> tuple[list[tuple[str, float]], int, float]:
    """Branches as (outcome string, probability), the dissipation bit count,
    and the probability tolerance the output's precision allows."""
    if job.fmt == "json":
        doc = json.loads(out)
        branches = [("".join(map(str, b["outcomes"])), b["probability"]) for b in doc["branches"]]
        return branches, doc["measurement"]["bits"], 1e-9
    branches, bits = [], 0
    for line in out.splitlines():
        if line.startswith("outcome "):
            history, prob = line.split()[1:3]
            branches.append(("" if history == "-" else history, float(prob[len("p="):])))
        elif line.startswith("measurement dissipation: "):
            bits = int(line.split()[2])
    return branches, bits, 5e-7


class Checker:
    """Checks each job as it finishes; `finish` runs the checks that need the
    results of several jobs (sampled paths against enumerated branches)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.enumerated: dict[str, dict[str, float]] = {}
        self.sampled: list[tuple[Program, str, float]] = []
        self._conservative_gates: dict[int, bool] = {}

    def check(self, job: Job, code: int | None, out: str, err: str) -> str | None:
        """None when the job is right, else the reason it failed."""
        if code is None:
            return "timed out"
        if "Traceback" in err:
            return "traceback on stderr"
        if code != job.expect_code:
            return f"exit code {code}, expected {job.expect_code}: {err.strip()[:200]}"
        try:
            return getattr(self, "_" + job.kind)(job, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def finish(self) -> list[str]:
        problems = []
        for prog, outcome, prob in self.sampled:
            branches = self.enumerated.get(prog.key)
            if branches is None:
                continue
            if outcome not in branches:
                problems.append(f"{prog.key}: sampled path {outcome!r} is not an enumerated branch")
            elif abs(branches[outcome] - prob) > PROB_TOL:
                problems.append(f"{prog.key}: sampled p={prob} but branch has p={branches[outcome]}")
        return problems

    # --- netlists ---------------------------------------------------------

    def _weight_changes(self, net: Netlist) -> bool:
        key = id(net)
        if key not in self._conservative_gates:
            self._conservative_gates[key] = gates_change_weight(net, self.seed)
        return self._conservative_gates[key]

    def _check_net(self, job: Job, out: str, err: str) -> str | None:
        net: Netlist = job.data
        if net.ancillas:
            want = {"reversible": False, "conservative": False}
        else:
            want = {"reversible": True}
            if net.fredkin_only:
                want["conservative"] = True
            elif self._weight_changes(net):
                want["conservative"] = False
        got = _verdicts(job, out)
        wrong = {k: v for k, v in want.items() if got.get(k) != v}
        return f"verdicts {got}, expected {want}" if wrong else None

    def _sim_net(self, job: Job, out: str, err: str) -> str | None:
        net: Netlist = job.data
        word, _ = reference_eval(net, load_word(net, job.extra["input"]))
        want = format(word, f"0{net.width}b") if net.width else ""
        got = json.loads(out)["output"] if job.fmt == "json" else out.rstrip("\n")
        return None if got == want else f"sim gave {got!r}, reference {want!r}"

    def _invert_net(self, job: Job, out: str, err: str) -> str | None:
        net: Netlist = job.data
        want = f"lines {net.width}\n" + "".join(
            " ".join([kind, *map(str, lines)]) + "\n" for kind, lines in reversed(net.gates)
        )
        got = json.loads(out)["inverse"] if job.fmt == "json" else out
        return None if got == want else "inverse netlist is not the reversed gate list"

    def _energy(self, job: Job, out: str, err: str) -> str | None:
        net: Netlist = job.data
        flags = job.extra["flags"]
        entries, met, observable = _ledger(job, out)
        stages = [stage for stage, _ in entries]
        if met is not True:
            return "bound not met"
        input_bits = [bits for stage, bits in entries if stage == "INPUT_SET"]
        if input_bits != [net.width]:
            return f"INPUT_SET bits {input_bits}, width {net.width}"
        closed = "--closed" in flags
        if observable == closed:
            return f"observable={observable} for a {'closed' if closed else 'open'} run"
        if closed and "OUTPUT_READ" in stages:
            return "closed run reads outputs"
        compute = [bits for stage, bits in entries if stage == "COMPUTE"]
        if net.fredkin_only and compute:
            return "conservative netlist has COMPUTE entries"
        if closed and compute:
            return "closed run has COMPUTE entries"
        if not closed and "--recovered-fraction" not in flags and self._weight_changes(net):
            _, flips = reference_eval(net, load_word(net, job.extra["input"]))
            want = [f for f in flips if f]
            if compute != want:
                return f"COMPUTE bits {compute}, reference flips {want}"
        i_r = int(flags[flags.index("--instruction-bits") + 1]) if "--instruction-bits" in flags else 0
        control = stages.count("CONTROL")
        want_control = 0 if not i_r else 1 if "--cyclic-tag" in flags else len(net.gates)
        if control != want_control:
            return f"{control} CONTROL entries, expected {want_control}"
        return None

    # --- tables -----------------------------------------------------------

    def _check_tbl(self, job: Job, out: str, err: str) -> str | None:
        table: Table = job.data
        conservative = table.bijective and all(
            x.bit_count() == y.bit_count() for x, y in enumerate(table.rows)
        )
        want = {"reversible": table.bijective, "conservative": conservative}
        got = _verdicts(job, out)
        return None if got == want else f"verdicts {got}, expected {want}"

    def _invert_tbl(self, job: Job, out: str, err: str) -> str | None:
        table: Table = job.data
        if not table.bijective:
            return None if not out and "not bijective" in err else "non-bijective table was inverted"
        text = json.loads(out)["inverse"] if job.fmt == "json" else out
        inverse = _rows_from_table_text(text, table.out_width, table.in_width)
        if any(inverse[y] != x for x, y in enumerate(table.rows)):
            return "inverse table does not undo the table"
        return None

    def _dualrail(self, job: Job, out: str, err: str) -> str | None:
        table: Table = job.data
        n = table.in_width
        if job.fmt == "json":
            doc = json.loads(out)
            if (doc["rail_width"], doc["in_width"], doc["out_width"]) != (n, 2 * n, 2 * n):
                return "wrong dual-rail widths"
            rows = doc["rows"]
        else:
            rows = _rows_from_table_text(out, 2 * n, 2 * n)
        mask = (1 << n) - 1
        if len(rows) != 1 << (2 * n) or len(set(rows)) != len(rows):
            return "embedding is not a bijection on 2n bits"
        for x, y in enumerate(table.rows):
            got = rows[x << n | (~x & mask)]
            if got != (y << n | (~y & mask)) or got.bit_count() != n:
                return f"codeword of {x} maps to {got:0{2 * n}b}"
        return None

    def _sim_tbl(self, job: Job, out: str, err: str) -> str | None:
        table: Table = job.data
        word = job.extra["input"]
        want = format(table.rows[int(word, 2)], f"0{table.out_width}b")
        got = json.loads(out)["output"] if job.fmt == "json" else out.rstrip("\n")
        return None if got == want else f"sim gave {got!r}, table says {want!r}"

    # --- quantum ----------------------------------------------------------

    def _quantum(self, job: Job, out: str, err: str) -> str | None:
        prog: Program = job.data
        branches, bits, tol = _branches(job, out)
        if bits != prog.measurements:
            return f"dissipation for {bits} bits, program measures {prog.measurements}"
        if not branches or any(len(o) != prog.measurements for o, _ in branches):
            return "branch outcome strings do not match the measurement count"
        mass = sum(p for _, p in branches)
        slack = tol * len(branches) + 1e-9
        if not 1.0 - 1e-6 - slack <= mass <= 1.0 + slack:
            return f"branch probabilities sum to {mass}"
        known = self.enumerated.setdefault(prog.key, {})
        for outcome, p in branches:
            known.setdefault(outcome, p)
        return None

    def _quantum_sample(self, job: Job, out: str, err: str) -> str | None:
        prog: Program = job.data
        branches, bits, _ = _branches(job, out)
        if len(branches) != 1:
            return f"sampled run printed {len(branches)} branches"
        outcome, p = branches[0]
        if bits != prog.measurements or len(outcome) != prog.measurements:
            return "sampled path does not record every measurement"
        self.sampled.append((prog, outcome, p))
        return None

    def _classify(self, job: Job, out: str, err: str) -> str | None:
        return None if out == "level: SLR\n" else f"classify gave {out!r}"


def _verdicts(job: Job, out: str) -> dict:
    if job.fmt == "json":
        return json.loads(out)
    parts = dict(item.split(": ") for item in out.strip().split(", "))
    return {k: v == "yes" for k, v in parts.items()}
