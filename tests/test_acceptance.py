"""End-to-end acceptance checks, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they print. Every frozen number here is recomputed from independent
arithmetic inside the test body, not read back from the library. The
README's library example and its command-line examples also run as written.
"""

import dataclasses
import itertools
import math
import random
import re
import shlex
import time
from pathlib import Path

import numpy as np

from revlab import (
    BitWord,
    BoundInput,
    Circuit,
    ControlStyle,
    EnergyParams,
    Environment,
    FREDKIN,
    Gate,
    GateKind,
    InconsistentProfile,
    Level,
    NotUnitary,
    Stage,
    SystemProfile,
    TruthTable,
    apply,
    apply_gate,
    break_even_frequency,
    check_bound,
    classify,
    cpu_power,
    dual_rail_codeword,
    dual_rail_embed,
    gate_matrix,
    inverse,
    is_conservative,
    is_reversible,
    is_unitary,
    landauer_per_bit,
    lower_bound,
    matching_bound,
    permutation_matrix,
    run_ledger,
    simulate,
    to_truth_table,
    wire_dissipation_per_cycle,
    wire_resistance,
)
from revlab.cli import main

_DURATIONS: dict[int, float] = {}


def _verdict(num: int, description: str, elapsed: float, failures: list[str]) -> None:
    _DURATIONS[num] = elapsed
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} ({elapsed * 1000:.1f} ms) {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_published_tables_classify_as_labeled():
    cases = (
        ("controlled flip", TruthTable(2, 2, (0, 1, 3, 2)), True, False),
        ("lossy overwrite", TruthTable(2, 2, (1, 3, 3, 0)), False, False),
        ("wire swap", TruthTable(2, 2, (0, 2, 1, 3)), True, True),
        ("value rotation", TruthTable(2, 2, (3, 2, 0, 1)), True, False),
    )
    failures = []
    start = time.perf_counter()
    for name, table, want_rev, want_cons in cases:
        if is_reversible(table) is not want_rev:
            failures.append(f"{name}: reversibility should be {want_rev}")
        if is_conservative(table) is not want_cons:
            failures.append(f"{name}: conservativity should be {want_cons}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1e-3:
        failures.append(f"runtime {elapsed * 1e3:.3f} ms exceeds 1 ms")
    _verdict(1, "published truth tables classify as labeled, under 1 ms", elapsed, failures)


def test_criterion_2_gate_set_correctness():
    failures = []
    start = time.perf_counter()
    for kind in GateKind:
        for width in range(kind.arity, 7):
            for lines in itertools.permutations(range(width), kind.arity):
                gate = Gate(kind, lines)
                bad = next(
                    (
                        value
                        for value in range(1 << width)
                        if apply_gate(gate, apply_gate(gate, BitWord(width, value)))
                        != BitWord(width, value)
                    ),
                    None,
                )
                if bad is not None:
                    failures.append(f"{kind.value}{lines} width {width} not self-inverse at {bad}")
    rng = random.Random(2024)
    for _ in range(200):
        width = rng.randint(3, 6)
        gates = tuple(
            FREDKIN(*rng.sample(range(width), 3)) for _ in range(rng.randint(1, 10))
        )
        if not is_conservative(to_truth_table(Circuit(width, gates))):
            failures.append("controlled-swap-only circuit was not conservative")
            break
    for _ in range(1000):
        width = rng.randint(3, 6)
        gates = []
        while len(gates) < 10:
            kind = rng.choice(list(GateKind))
            if kind.arity <= width:
                gates.append(Gate(kind, tuple(rng.sample(range(width), kind.arity))))
        if not is_reversible(to_truth_table(Circuit(width, tuple(gates)))):
            failures.append("random 10-gate circuit was not reversible")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _verdict(
        2,
        "gates self-invert exhaustively; swap-only circuits conservative;"
        " 1000 random circuits reversible, under 5 s",
        elapsed,
        failures,
    )


def test_criterion_3_dual_rail_embedding():
    failures = []
    start = time.perf_counter()
    rng = random.Random(303)
    for trial in range(200):
        n = rng.randint(1, 4)
        rows = list(range(1 << n))
        rng.shuffle(rows)
        base = TruthTable(n, n, tuple(rows))
        embedded = dual_rail_embed(base)
        if not is_reversible(embedded):
            failures.append(f"trial {trial}: embedding not bijective on the 2n-bit space")
            break
        weight_bad = next(
            (
                x
                for x in range(1 << n)
                if embedded(dual_rail_codeword(x, n)).bit_count() != n
            ),
            None,
        )
        if weight_bad is not None:
            failures.append(f"trial {trial}: codeword {weight_bad} changed weight")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 10 s")
    _verdict(
        3,
        "200 random reversible functions embed reversibly and weight-preserving,"
        " under 10 s",
        elapsed,
        failures,
    )


def test_criterion_4_quantum_layer():
    failures = []
    start = time.perf_counter()
    rng = random.Random(404)
    thetas = [0.0, math.pi / 4, math.pi / 2, math.pi, 2 * math.pi]
    thetas += [rng.uniform(-8.0, 8.0) for _ in range(20)]
    for theta in thetas:
        for name in ("RX", "IZZ"):
            if not is_unitary(gate_matrix(name, theta), tol=1e-10):
                failures.append(f"{name}({theta}) failed the unitarity tolerance")
    for name in ("H", "T"):
        if not is_unitary(gate_matrix(name), tol=1e-10):
            failures.append(f"{name} failed the unitarity tolerance")

    for trial in range(40):
        n = rng.randint(1, 6)
        name = rng.choice(["RX", "H", "IZZ", "T"])
        k = 2 if name == "IZZ" else 1
        if n < k:
            continue
        raw = np.array(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
        )
        state = raw / np.linalg.norm(raw)
        theta = rng.uniform(-6.0, 6.0) if name in ("RX", "IZZ") else None
        matrix = gate_matrix(name, theta)
        targets = tuple(rng.sample(range(n), k))
        back = apply(inverse(matrix), apply(matrix, state, targets), targets)
        if float(np.max(np.abs(back - state))) >= 1e-9:
            failures.append(f"trial {trial}: inverse application did not round-trip")

    try:
        inverse(np.diag([1.0, 0.0]))
        failures.append("measurement projector was accepted by inverse")
    except NotUnitary:
        pass

    for trial in range(10):
        width = rng.randint(1, 5)
        gates = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(list(GateKind))
            if kind.arity <= width:
                gates.append(Gate(kind, tuple(rng.sample(range(width), kind.arity))))
        circuit = Circuit(width, tuple(gates))
        unitary = permutation_matrix(to_truth_table(circuit))
        for x in range(1 << width):
            basis = np.zeros(1 << width, dtype=complex)
            basis[x] = 1.0
            want = simulate(circuit, BitWord(width, x)).value
            if float(np.max(np.abs(unitary @ basis - np.eye(1 << width)[want]))) > 1e-12:
                failures.append(f"trial {trial}: lifted unitary disagrees with simulator")
                break
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "gate matrices unitary, inverses round-trip, projector rejected,"
        " lifted permutations match the simulator",
        elapsed,
        failures,
    )


def test_criterion_5_energy_constants():
    failures = []
    start = time.perf_counter()
    rounded = EnergyParams(ln2=0.693)
    independent = 1.38e-23 * 293.15 * 0.693
    per_bit = landauer_per_bit(rounded)
    if abs(per_bit - independent) / independent >= 1e-4:
        failures.append("per-bit floor differs from independent arithmetic")
    if abs(per_bit - 2.8035e-21) / 2.8035e-21 >= 1e-4:
        failures.append("per-bit floor differs from the published figure")
    r_dc = wire_resistance(EnergyParams())
    r_independent = 1.678e-8 * 2.4e-5 / 1.2e-5
    if abs(r_dc - r_independent) / r_independent >= 1e-6:
        failures.append("wire resistance differs from independent arithmetic")
    if abs(r_dc - 3.356e-8) / 3.356e-8 >= 1e-6:
        failures.append("wire resistance differs from the published figure")
    split = cpu_power(EnergyParams(), ideal=False, p_sc=2.5e-3, p_leak=1.1e-3)
    if split.p_cpu != split.p_dyn + split.p_sc + split.p_leak:
        failures.append("power split sum identity is not exact")
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "per-bit floor 2.8035e-21 J, wire resistance 3.356e-8 ohm,"
        " power split sums exactly",
        elapsed,
        failures,
    )


def test_criterion_6_run_lower_bound():
    failures = []
    start = time.perf_counter()
    rounded = EnergyParams(ln2=0.693)
    worked = lower_bound(BoundInput(8, 8, 8, 8), rounded)
    independent = (8 + 8 + 8 + 8) * 1.38e-23 * 293.15 * 0.693
    if abs(worked - independent) / independent >= 1e-4:
        failures.append("worked-case bound differs from independent recomputation")
    if abs(worked - 8.97e-20) / 8.97e-20 >= 1e-3:
        failures.append("worked-case bound differs from the published figure")

    rng = random.Random(606)
    makers = {GateKind.NOT: 1, GateKind.CNOT: 2, GateKind.TOFFOLI: 3, GateKind.FREDKIN: 3}
    accepted = 0
    while accepted < 100:
        width = rng.randint(2, 6)
        gates = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(list(makers))
            if makers[kind] <= width:
                gates.append(Gate(kind, tuple(rng.sample(range(width), makers[kind]))))
        if not gates:
            continue
        circuit = Circuit(width, tuple(gates))
        profile = SystemProfile(
            instruction_bits=rng.randint(1, 8),
            recovered_fraction=rng.uniform(0.0, 0.9),
            ideal_transmission=rng.choice([True, False]),
            control_style=rng.choice(list(ControlStyle)),
        )
        word = BitWord(width, rng.randrange(1 << width))
        ledger = run_ledger(circuit, word, profile, rounded)
        present = {entry.stage for entry in ledger.entries}
        needed = {Stage.INPUT_SET, Stage.OUTPUT_READ, Stage.CONTROL, Stage.COMPUTE}
        if not needed <= present:
            continue
        accepted += 1
        if not check_bound(ledger, matching_bound(ledger), rounded):
            failures.append(f"pair {accepted}: ledger total fell below its own bound")
            break
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "worked-case bound 8.97e-20 J; 100 all-stage random runs meet their bound",
        elapsed,
        failures,
    )


def _bisect_break_even(params: EnergyParams) -> float:
    target = landauer_per_bit(params)

    def loss(f: float) -> float:
        return wire_dissipation_per_cycle(dataclasses.replace(params, f=f))

    lo, hi = 1e-30, 1.0
    while loss(hi) < target:
        hi *= 2.0
        if hi > 1e40:
            return math.inf
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if loss(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_criterion_7_break_even_frequency():
    failures = []
    start = time.perf_counter()
    rng = random.Random(707)
    for trial in range(100):
        params = EnergyParams(
            T=rng.uniform(1.0, 600.0),
            rho=10 ** rng.uniform(-9, -6),
            wire_length=10 ** rng.uniform(-6, -3),
            wire_cross_section=10 ** rng.uniform(-7, -4),
            C=10 ** rng.uniform(-10, -6),
            V=rng.uniform(0.5, 12.0),
        )
        closed = break_even_frequency(params)
        bisected = _bisect_break_even(params)
        if abs(closed - bisected) / bisected >= 1e-6:
            failures.append(f"trial {trial}: closed form and bisection disagree")
            break
    if not math.isinf(break_even_frequency(EnergyParams(rho=0.0))):
        failures.append("zero-resistance wire should never cross the per-bit floor")
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "closed-form break-even matches bisection at 1e-6; lossless wire gives"
        " no crossover",
        elapsed,
        failures,
    )


def test_criterion_8_classifier_and_conservative_closed_run():
    failures = []
    start = time.perf_counter()
    reachable = {
        Level.NSLR: SystemProfile(software_tracked_only=True),
        Level.SLR: SystemProfile(logical_reversible_components=True),
        Level.ESR: SystemProfile(energy_conservative_components=True),
        Level.FSR: SystemProfile(
            energy_conservative_components=True, ideal_transmission=True
        ),
    }
    for level, profile in reachable.items():
        if classify(profile) is not level:
            failures.append(f"{level.name} is not reachable")

    flags = (
        "software_tracked_only",
        "logical_reversible_components",
        "energy_conservative_components",
        "ideal_transmission",
    )
    for values in itertools.product((False, True), repeat=4):
        base = dict(zip(flags, values))
        try:
            before = classify(SystemProfile(**base))
        except InconsistentProfile:
            continue
        for flag in flags:
            raised = dict(base, **{flag: True})
            if classify(SystemProfile(**raised)) < before:
                failures.append(f"setting {flag} lowered the level")

    profile = SystemProfile(
        logical_reversible_components=True,
        energy_conservative_components=True,
        ideal_transmission=True,
        environment=Environment.CLOSED,
        control_style=ControlStyle.CYCLIC_TAG_REVERSIBLE,
    )
    if classify(profile) is not Level.FSR:
        failures.append("fully capable closed profile did not classify as FSR")
    circuit = Circuit(3, (FREDKIN(0, 1, 2), FREDKIN(2, 0, 1)))
    ledger = run_ledger(circuit, BitWord(3, 0b101), profile, EnergyParams(ln2=0.693))
    if ledger.stage_total(Stage.COMPUTE) != 0.0:
        failures.append("conservative closed run charged a nonzero overwrite total")
    if any(entry.stage is Stage.COMPUTE for entry in ledger.entries):
        failures.append("conservative closed run recorded overwrite entries")
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "all four levels reachable, classification monotone, conservative closed"
        " run overwrites nothing",
        elapsed,
        failures,
    )


def test_total_runtime_under_one_minute():
    assert set(_DURATIONS) == set(range(1, 9)), "criteria must all have run"
    total = sum(_DURATIONS.values())
    print(f"all criteria total: {total:.2f} s")
    assert total < 60.0


def test_the_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    namespace: dict = {}
    exec(block, namespace)
    assert str(namespace["out"]) == "11"


def test_the_readme_command_examples_run(monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    (block,) = [b for b in blocks if b.startswith("$ ")]
    monkeypatch.chdir(Path(__file__).parent / "golden")
    examples = block.split("\n\n")
    for example in examples:
        command, *expected = example.rstrip("\n").split("\n")
        assert main(shlex.split(command.removeprefix("$ revlab "))) == 0, command
        assert capsys.readouterr().out == "\n".join(expected) + "\n", command
    assert len(examples) == 3
