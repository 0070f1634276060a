"""Generated-input properties of the circuit engine: the whole-table kernel
agrees with single-word simulation, the verdicts decided on line columns
are the row predicates of the table, each gate undoes itself and matches a
per-bit reference, wide simulations follow that reference after every gate,
and the embeddings, garbage projections and lifts built on whole-table
arithmetic match their per-word definitions; the classical layer imports no
numpy.
Of the quantum layer: a sampled path is one of the enumerated branches and
the path of an accumulating reference sampler, every enumerated branch has
the bytes of a one-branch walk that replays its outcomes and of apply and
measure called op by op, apply gives the bytes of a moveaxis reference, the
stack kernel gives each row the bytes of a one-row apply, and measure does
not depend on the state's scale. Of the quantum verb: its text and JSON
reports are the bytes of reference renderings that build the JSON-shaped
report first.
Of the ledger: every run meets its own bound, and every entry, bound and
report equals that of a reference copy of the per-stage pricing. Of the
table, netlist and parameter text formats: format then parse is the
identity, table parse agrees with a per-row BitWord reference on valid
and mutated rows, and the lexer finds the lines of a splitlines
reference. Of the table predicates: conservative is reversible with every
weight kept. Of the CLI's JSON writer: it prints the bytes of
json.dumps(indent=2)."""

import ast
import contextlib
import io
import json
import math
import random
import tempfile
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import revlab
from revlab import (
    CNOT,
    FREDKIN,
    NOT,
    TOFFOLI,
    BitWord,
    BoundInput,
    Circuit,
    ControlStyle,
    DimensionMismatch,
    DissipationLedger,
    EnergyParams,
    Environment,
    Gate,
    GateKind,
    LedgerEntry,
    Op,
    ParseError,
    Stage,
    SystemProfile,
    TruthTable,
    apply,
    apply_gate,
    check_bound,
    drop_garbage,
    dual_rail_codeword,
    dual_rail_embed,
    format_circuit,
    format_params,
    format_table,
    gate_matrix,
    invert_circuit,
    is_conservative,
    is_reversible,
    landauer_per_bit,
    ledger_dict,
    lower_bound,
    matching_bound,
    measure,
    measurement_entry,
    parse_circuit,
    parse_params,
    parse_table,
    permutation_matrix,
    run_ledger,
    run_program,
    sample_program,
    sci6,
    simulate,
    step_states,
    to_truth_table,
    wire_dissipation_per_cycle,
)
from revlab.circuits import _column_verdicts
from revlab.cli import main
from revlab.quantum import PROB_FLOOR, _apply_rows, _walk
from revlab.tables import bit_string, meaningful_lines


def gates(width):
    kinds = [k for k in GateKind if k.arity <= width]
    if not kinds:
        return st.nothing()
    return st.sampled_from(kinds).flatmap(
        lambda k: st.permutations(range(width)).map(lambda p: Gate(k, tuple(p[: k.arity])))
    )


@st.composite
def circuits(draw, max_width=10):
    width = draw(st.integers(0, max_width))
    lines = st.integers(0, width - 1) if width else st.nothing()
    return Circuit(
        width,
        tuple(draw(st.lists(gates(width), max_size=20 if width else 0))),
        draw(st.dictionaries(lines, st.integers(0, 1), max_size=width)),
        frozenset(draw(st.sets(lines, max_size=width))),
    )


@st.composite
def bijections(draw, max_width):
    n = draw(st.integers(0, max_width))
    return TruthTable(n, n, tuple(draw(st.permutations(range(1 << n)))))


@given(circuits())
def test_every_table_row_is_the_simulated_word(circuit):
    table = to_truth_table(circuit)
    n = len(circuit.free_lines)
    for x, row in enumerate(table.rows):
        assert row == simulate(circuit, BitWord(n, x)).value


@given(circuits())
def test_table_rows_are_plain_ints(circuit):
    rows = to_truth_table(circuit).rows
    assert all(type(r) is int for r in rows)
    assert json.loads(json.dumps(rows)) == list(rows)


EDGE_CIRCUITS = [
    Circuit(0),
    Circuit(3, (), {0: 1, 1: 0, 2: 1}),
    Circuit(3, (Gate(GateKind.TOFFOLI, (0, 1, 2)),), {0: 1, 1: 1, 2: 0}, {2}),
    Circuit(4),
    Circuit(4, (), {1: 1}, {0, 3}),
]


def test_edge_circuits_load_every_word_and_tabulate():
    for circuit in EDGE_CIRCUITS:
        n = len(circuit.free_lines)
        gateless = Circuit(circuit.width, (), circuit.ancillas)
        loaded = [simulate(gateless, BitWord(n, x)) for x in range(1 << n)]
        for x, word in enumerate(loaded):
            assert [word.bit(line) for line in circuit.ancillas] == list(circuit.ancillas.values())
            assert [word.bit(line) for line in circuit.free_lines] == [BitWord(n, x).bit(i) for i in range(n)]
        assert len({word.value for word in loaded}) == 1 << n
        # with no gates the table's start columns are the loaded words
        assert to_truth_table(gateless).rows == tuple(word.value for word in loaded)
        table = to_truth_table(circuit)
        assert (table.in_width, table.out_width) == (n, circuit.width)
        assert table.rows == tuple(simulate(circuit, BitWord(n, x)).value for x in range(1 << n))
    # no gates: every word is loaded and comes out unchanged
    assert to_truth_table(Circuit(4)) == TruthTable.identity(4)
    assert to_truth_table(Circuit(3, (), {0: 1, 1: 0, 2: 1})).rows == (0b101,)


def reference_gate(gate, word, width):
    """One gate on a width-bit word, bit by bit from the definitions: flip the
    target iff every control is set; FREDKIN swaps its two targets iff its
    control is set."""
    bits = [word >> (width - 1 - line) & 1 for line in range(width)]
    if gate.kind is GateKind.FREDKIN:
        c, a, b = gate.lines
        if bits[c]:
            bits[a], bits[b] = bits[b], bits[a]
    else:
        *controls, target = gate.lines
        if all(bits[c] for c in controls):
            bits[target] ^= 1
    return sum(bit << (width - 1 - line) for line, bit in enumerate(bits))


@given(st.integers(1, 10).flatmap(lambda w: st.tuples(st.just(w), gates(w))))
def test_each_gate_undoes_itself_on_every_word(case):
    width, gate = case
    words = list(range(1 << width))
    once = [apply_gate(gate, BitWord(width, w)).value for w in words]
    assert once == [reference_gate(gate, w, width) for w in words]
    assert sorted(once) == words
    assert [apply_gate(gate, BitWord(width, w)).value for w in once] == words
    # the one-gate table runs the same gate on every row at once
    assert to_truth_table(Circuit(width, (gate,))).rows == tuple(once)


@st.composite
def wide_runs(draw):
    # wider than any table, so the state word runs past 64 bits
    width = draw(st.integers(17, 200))
    lines = st.integers(0, width - 1)
    kinds = st.sampled_from(list(GateKind))
    gate_list = st.lists(
        kinds.flatmap(
            lambda k: st.lists(lines, min_size=k.arity, max_size=k.arity, unique=True).map(
                lambda ls: Gate(k, tuple(ls))
            )
        ),
        max_size=30,
    )
    circuit = Circuit(
        width,
        tuple(draw(gate_list)),
        draw(st.dictionaries(lines, st.integers(0, 1), min_size=1, max_size=width)),
    )
    # seeded random bits: drawn words stay mostly zero, and a FREDKIN whose
    # lines are all zero swaps nothing
    n = len(circuit.free_lines)
    return circuit, BitWord(n, draw(st.randoms(use_true_random=True)).getrandbits(n))


@given(wide_runs())
def test_wide_states_follow_the_per_bit_reference_after_every_gate(case):
    circuit, inputs = case
    free = iter(inputs.bit(i) for i in range(inputs.width))
    bits = [circuit.ancillas[line] if line in circuit.ancillas else next(free) for line in range(circuit.width)]
    expected = sum(bit << (circuit.width - 1 - line) for line, bit in enumerate(bits))
    states = list(step_states(circuit, inputs))
    assert len(states) == len(circuit.gates) + 1
    assert states[0] == BitWord(circuit.width, expected)
    for gate, state in zip(circuit.gates, states[1:]):
        expected = reference_gate(gate, expected, circuit.width)
        assert state == BitWord(circuit.width, expected)


def test_sixteen_line_table_rows_are_the_simulated_words():
    # every gate kind, both ancilla constants and a garbage line, at the full
    # 16-bit width, so both byte lanes of the column transposition carry bits
    rng = random.Random(16)
    picked = [Gate(kind, tuple(rng.sample(range(16), kind.arity))) for kind in GateKind for _ in range(12)]
    rng.shuffle(picked)
    fixed = (NOT(0), CNOT(3, 15), TOFFOLI(14, 2, 7), FREDKIN(5, 0, 15), FREDKIN(8, 3, 9))
    circuit = Circuit(16, fixed + tuple(picked), {3: 1, 9: 0}, {12})
    table = to_truth_table(circuit)
    assert (table.in_width, table.out_width) == (14, 16)
    for x in sorted({*range(0, 1 << 14, 257), (1 << 14) - 1}):
        assert table.rows[x] == simulate(circuit, BitWord(14, x)).value


@given(circuits())
def test_format_then_parse_is_the_identity_for_netlists(circuit):
    assert parse_circuit(format_circuit(circuit)) == circuit


@given(circuits())
def test_circuit_then_inverse_is_identity(circuit):
    bare = Circuit(circuit.width, circuit.gates)
    round_trip = Circuit(circuit.width, bare.gates + invert_circuit(bare).gates)
    assert to_truth_table(round_trip) == TruthTable.identity(circuit.width)


@st.composite
def fredkin_circuits(draw, max_width=10):
    # every row keeps its weight, so the conservative verdict is reached
    width = draw(st.integers(3, max_width))
    gate = st.permutations(range(width)).map(lambda p: FREDKIN(*p[:3]))
    garbage = draw(st.sets(st.integers(0, width - 1), max_size=width))
    return Circuit(width, tuple(draw(st.lists(gate, max_size=20))), garbage=frozenset(garbage))


@given(st.one_of(circuits(), fredkin_circuits()))
@example(Circuit(2, (NOT(0), NOT(1))))  # every row keeps the parity of its weight, not its weight
@example(Circuit(2, (CNOT(0, 1), CNOT(1, 0), CNOT(0, 1))))  # a swap made of gates that change weights
def test_column_verdicts_are_the_row_predicates(circuit):
    table = to_truth_table(circuit)
    verdicts = _column_verdicts(circuit.width, circuit.gates, bool(circuit.ancillas))
    assert verdicts == (is_reversible(table), is_conservative(table))
    # run_ledger asks it of the bare gate list
    bare = to_truth_table(Circuit(circuit.width, circuit.gates))
    assert _column_verdicts(circuit.width, circuit.gates) == (is_reversible(bare), is_conservative(bare))


def test_sixteen_line_column_verdicts_are_the_row_predicates():
    # counts of 16 set columns reach the fifth weight plane
    rng = random.Random(21)
    for kinds in (list(GateKind), [GateKind.FREDKIN]):
        picked = tuple(Gate(k, tuple(rng.sample(range(16), k.arity))) for k in rng.choices(kinds, k=200))
        table = to_truth_table(Circuit(16, picked))
        assert _column_verdicts(16, picked) == (is_reversible(table), is_conservative(table))
        assert _column_verdicts(16, picked, ancilla=True) == (False, False)


def dual_rail_reference(f):
    n = f.in_width
    mask = (1 << n) - 1
    return tuple(
        f.rows[word >> n] << n | (~f.rows[~(word & mask) & mask] & mask)
        for word in range(1 << (2 * n))
    )


@given(bijections(max_width=5))
def test_dual_rail_matches_per_word_formula(f):
    embedded = dual_rail_embed(f)
    assert embedded.rows == dual_rail_reference(f)
    assert all(type(r) is int for r in embedded.rows)
    n = f.in_width
    for x in range(1 << n):
        assert embedded.rows[dual_rail_codeword(x, n)].bit_count() == n


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8])
def test_dual_rail_matches_per_word_formula_at_the_byte_lane_edges(n):
    # the hypothesis property stops at 5 bits: 0 and 1 bits are the smallest
    # tables, and 6-8 bits the widths past it, whose rows fill 12-16 of the
    # 16 bits of a lane
    f = TruthTable(n, n, tuple(random.Random(n).sample(range(1 << n), 1 << n)))
    embedded = dual_rail_embed(f)
    assert embedded.rows == dual_rail_reference(f)
    assert all(type(r) is int for r in embedded.rows)


def reference_drop_garbage(t, positions):
    keep = [p for p in range(t.out_width) if p not in positions]
    rows = tuple(
        sum((y >> (t.out_width - 1 - p) & 1) << (len(keep) - 1 - i) for i, p in enumerate(keep)) for y in t.rows
    )
    return TruthTable(t.in_width, len(keep), rows), len(set(rows)) < len(set(t.rows))


# position p is bit out_width-1-p, so at 9 bits only position 0 is in the high
# byte lane, and at 16 bits positions 0-7 are
@pytest.mark.parametrize(
    "out_width, positions",
    [(9, {0}), (9, {0, 5}), (9, {1, 8}), (9, set(range(9))), (16, {7, 8}), (16, {0, 3, 12, 15}), (16, set())],
)
def test_drop_garbage_matches_a_per_row_reference_across_byte_lanes(out_width, positions):
    rng = random.Random(out_width)
    for in_width in (4, 8):
        table = TruthTable(in_width, out_width, tuple(rng.sample(range(1 << out_width), 1 << in_width)))
        assert drop_garbage(table, positions) == reference_drop_garbage(table, positions)


def test_classical_layer_imports_no_numpy():
    for name in ("circuits.py", "tables.py"):
        tree = ast.parse((Path(revlab.__file__).parent / name).read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
        assert not any(module.split(".")[0] == "numpy" for module in modules), name


@given(bijections(max_width=6))
def test_permutation_matrix_matches_per_row_loop(f):
    dim = 1 << f.in_width
    expected = np.zeros((dim, dim), dtype=complex)
    for x, y in enumerate(f.rows):
        expected[y, x] = 1.0
    assert np.array_equal(permutation_matrix(f), expected)


@st.composite
def programs(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, n - 1).map(lambda q: (q,))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    pair = st.permutations(range(n)).map(lambda p: tuple(p[:2])) if n > 1 else st.nothing()
    step = st.one_of(
        st.builds(lambda t, q: Op("RX", q, t), angle, qubit),
        st.builds(lambda q: Op("H", q), qubit),
        st.builds(lambda t, q: Op("IZZ", q, t), angle, pair),
        st.builds(lambda q: Op("T", q), qubit),
        st.builds(lambda q: Op("MEASURE", q), qubit),
    )
    return n, draw(st.lists(step, max_size=16))


@given(programs(), st.integers(0, 2**32 - 1))
def test_a_sampled_path_is_one_of_the_enumerated_branches(program, seed):
    n, ops = program
    path = sample_program(ops, seed, n)
    if path.probability <= PROB_FLOOR:
        return
    (branch,) = [b for b in run_program(ops, n) if b.outcomes == path.outcomes]
    assert branch.probability == path.probability
    assert np.array_equal(branch.state, path.state)


def reference_sample_program(ops, seed, n_qubits=None):
    """sample_program as it was before its one-draw pick: accumulate the
    outcome probabilities until the draw falls below the sum, else take the
    last outcome."""
    rng = random.Random(seed)

    def pick(_p, results):
        draw = rng.random()
        acc = 0.0
        for value, probability in results:
            acc += probability
            if draw < acc:
                return [(value, probability)]
        return results[-1:]

    return next(_walk(ops, n_qubits, pick))


@given(programs(), st.integers(0, 2**32 - 1))
def test_a_sampled_path_is_the_accumulating_reference_path(program, seed):
    n, ops = program
    path, expected = sample_program(ops, seed, n), reference_sample_program(ops, seed, n)
    assert path.outcomes == expected.outcomes
    assert path.probability == expected.probability
    assert path.state.tobytes() == expected.state.tobytes()


def replay(outcomes):
    """A keep-policy for a one-branch walk that follows the given outcomes."""
    values = iter(outcomes)

    def pick(_p, results):
        value = next(values)
        return [o for o in results if o[0] == value]

    return pick


# After MEASURE 1 each of the 16 outcome prefixes leaves a row of about 1/16
# and two of s/16 = 1.6e-12 (the fourth is dropped). At the balanced MEASURE 6
# the small rows keep no outcome, so the 32 picks from 48 rows straddle the
# old 16-row blocks.
_SMALL = 2 * math.asin(math.sqrt(16 * 1.6e-12))
_STRADDLE = (
    [Op("H", (q,)) for q in range(2, 7)]
    + [Op("MEASURE", (q,)) for q in range(2, 6)]
    + [Op("RX", (0,), _SMALL), Op("RX", (1,), _SMALL), Op("MEASURE", (0,)), Op("MEASURE", (1,)), Op("MEASURE", (6,))]
)


@given(programs())
@example((7, _STRADDLE))
def test_every_enumerated_branch_has_the_bytes_of_its_own_walk(program):
    n, ops = program
    for branch in run_program(ops, n):
        (alone,) = _walk(ops, n, replay(branch.outcomes))
        assert alone.probability == branch.probability
        assert alone.state.tobytes() == branch.state.tobytes()
    # a keep-policy that keeps nothing leaves an empty stack for the later ops
    measured = any(op.name == "MEASURE" for op in ops)
    assert len(list(_walk(ops, n, lambda _p, _results: []))) == (0 if measured else 1)


@given(programs(max_qubits=7))
@example((7, _STRADDLE))
# the outcome weights of this MEASURE sum to a float one ulp off the squared norm
@example((2, [Op("H", (1,)), Op("RX", (0,), 3.0), Op("RX", (0,), 1.0), Op("MEASURE", (0,))]))
def test_every_enumerated_branch_has_the_bytes_of_apply_and_measure_alone(program):
    n, ops = program
    for branch in run_program(ops, n):
        values = iter(branch.outcomes)
        probability, state = 1.0, np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
        for op in ops:
            if op.name == "MEASURE":
                value = next(values)
                (outcome,) = [o for o in measure(state, op.qubits[0]) if o.basis_value == value]
                probability, state = probability * outcome.probability, outcome.post_state
            else:
                state = apply(gate_matrix(op.name, op.theta), state, op.qubits)
        assert probability == branch.probability
        assert state.tobytes() == branch.state.tobytes()


def reference_quantum_report(branches, n_qubits, entry):
    """The quantum verb's JSON report built as the CLI once built it for
    both formats: one dict per amplitude above 1e-9 in magnitude."""

    def payload(branch):
        state = branch.state
        shown = (abs(state) > 1e-9).nonzero()[0]
        parts = zip(shown.tolist(), state.real[shown].tolist(), state.imag[shown].tolist())
        return {
            "probability": branch.probability,
            "outcomes": list(branch.outcomes),
            "amplitudes": [{"basis": bit_string(i, n_qubits), "re": re, "im": im} for i, re, im in parts],
        }

    return {
        "qubits": n_qubits,
        "branches": [payload(b) for b in branches],
        "measurement": {"bits": entry.bits, "joules": entry.joules},
    }


def reference_quantum_text(report):
    """The quantum verb's text report, read back from the JSON report."""
    lines = []
    for branch in report["branches"]:
        history = "".join(map(str, branch["outcomes"])) or "-"
        lines.append(f"outcome {history} p={branch['probability']:.6f}")
        for amp in branch["amplitudes"]:
            lines.append(f"  {amp['basis'] or '-'} {amp['re']:.6f}{amp['im']:+.6f}i")
    measurement = report["measurement"]
    if measurement["bits"]:
        lines.append(
            f"measurement dissipation: {measurement['bits']} bits, {sci6(measurement['joules'])} J"
        )
    return "\n".join(lines) + "\n"


def program_text(ops):
    """The program file of ops; each angle is written as its repr, which
    parses back to the same float."""
    return "".join(
        " ".join([op.name, *([repr(op.theta)] if op.theta is not None else []), *map(str, op.qubits)]) + "\n"
        for op in ops
    )


@given(programs(max_qubits=7), st.integers(0, 2**32 - 1))
@example((0, []), 0)  # the empty basis label renders as -
@example((2, [Op("H", (0,)), Op("RX", (1,), 0.5)]), 0)  # no MEASURE: the history renders as -
@example((7, _STRADDLE), 0)
@example((1, [Op("RX", (0,), math.pi), Op("H", (0,))]), 0)  # JSON writes re as 4.329780281177466e-17
@example((2, [Op("RX", (0,), -math.pi), Op("T", (1,)), Op("H", (1,))]), 0)  # basis 11 has re -0.0
def test_the_quantum_reports_are_the_bytes_of_the_reference_renderings(program, seed):
    n, ops = program
    entry = measurement_entry(sum(op.name == "MEASURE" for op in ops), EnergyParams())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prog.q"
        path.write_text(program_text(ops))
        for sample in ([], ["--sample", str(seed)]):
            branches = [sample_program(ops, seed, n)] if sample else run_program(ops, n)
            report = reference_quantum_report(branches, n, entry)
            expected = {"text": reference_quantum_text(report), "json": json.dumps(report, indent=2) + "\n"}
            for fmt, text in expected.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["quantum", str(path), "--qubits", str(n), "--format", fmt, *sample])
                assert (code, out.getvalue()) == (0, text)


@st.composite
def scaled_states(draw):
    """A random complex state of 1-4 qubits, some amplitudes zeroed but not
    all, a qubit, and a power of ten to scale it by."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    zeroed = draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
    state[np.array(zeroed)] = 0
    state[draw(st.integers(0, (1 << n) - 1))] = 1 + 1j
    return state, draw(st.integers(0, n - 1)), draw(st.integers(-140, 140))


@given(scaled_states())
def test_measure_does_not_depend_on_the_scale_of_the_state(case):
    state, qubit, k = case
    plain, scaled = measure(state, qubit), measure(state * 10.0**k, qubit)
    assert [o.basis_value for o in scaled] == [o.basis_value for o in plain]
    for a, b in zip(scaled, plain):
        assert a.probability == pytest.approx(b.probability, rel=1e-12, abs=0)
        assert np.allclose(a.post_state, b.post_state, rtol=1e-12, atol=0)


def reference_apply(matrix, state, targets):
    """apply in its plainest form, with no row axis and no blocks, so each
    step can be read off the definition: one axis per qubit, the target axes
    moved to the front in matrix order, one product, the axes moved back."""
    n = state.size.bit_length() - 1
    k = len(targets)
    arr = np.moveaxis(state.reshape((2,) * n), targets, range(k))
    arr = (matrix @ arr.reshape(1 << k, -1)).reshape((2,) * n)
    return np.moveaxis(arr, range(k), targets).reshape(-1)


@st.composite
def operator_cases(draw):
    """A random complex state of 1-7 qubits, a random complex k-qubit matrix
    with k in 1-3, and k distinct targets in any order."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(3, n)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    matrix = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    return matrix, state, targets


def spiral(rows, n):
    """A fixed (rows, 2^n) array of distinct amplitudes, for pinned examples."""
    i = np.arange(rows << n).reshape(rows, 1 << n)
    return np.exp(1j * i) * np.sqrt(i + 1)


@given(operator_cases())
# a matrix with no symmetry under a swap of its targets, which are out of order
@example((spiral(8, 3), spiral(1, 7)[0], (6, 0, 3)))
def test_apply_gives_the_bytes_of_the_moveaxis_form(case):
    matrix, state, targets = case
    assert apply(matrix, state, targets).tobytes() == reference_apply(matrix, state, targets).tobytes()


@st.composite
def stack_cases(draw):
    """A random (rows, 2^n) stack of 1-40 rows of 1-10 qubits, some
    amplitude parts zero or negative zero, a random complex k-qubit matrix
    with k in 1-2, and k distinct targets in any order."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(2, n)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    stack.real[rng.random(stack.shape) < 0.1] = 0.0
    stack.imag[rng.random(stack.shape) < 0.1] = -0.0
    matrix = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    return matrix, stack, n, targets


@given(stack_cases())
# shapes with at most one qubit left over, where a product merged over the
# rows' columns would differ from the one-row product in the last bits: these
# examples guard against a kernel that merges them, within a block and beyond
@example((gate_matrix("RX", 0.7), spiral(5, 1), 1, (0,)))
@example((gate_matrix("RX", 0.7), spiral(5, 2), 2, (1,)))
@example((gate_matrix("IZZ", 1.3), spiral(5, 3), 3, (2, 0)))
@example((gate_matrix("RX", 0.7), spiral(20, 2), 2, (1,)))
@example((gate_matrix("IZZ", 1.3), spiral(20, 2), 2, (1, 0)))
# the widest state, over a block edge, with targets out of order under a
# matrix that a swap of its targets changes
@example((np.kron(gate_matrix("H"), gate_matrix("RX", 0.7)), spiral(20, 10), 10, (9, 0)))
def test_the_stack_kernel_gives_each_row_the_bytes_of_apply(case):
    matrix, stack, n, targets = case
    out = stack.copy()
    _apply_rows(matrix, out, n, targets)
    expected = np.array([apply(matrix, row, targets) for row in stack])
    for part in ("real", "imag"):
        got, want = getattr(out, part), getattr(expected, part)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def profiles(draw):
    return SystemProfile(
        environment=draw(st.sampled_from(Environment)),
        control_style=draw(st.sampled_from(ControlStyle)),
        ideal_transmission=draw(st.booleans()),
        instruction_bits=draw(st.integers(0, 8)),
        recovered_fraction=draw(st.floats(0, 1)),
        reconfiguration_units=draw(
            st.one_of(st.floats(0, 1, exclude_max=True), st.floats(1, 10))
        ),
    )


def finite(min_value=0.0, exclude_min=False):
    return st.floats(min_value, exclude_min=exclude_min, allow_nan=False, allow_infinity=False)


@st.composite
def energy_params(draw):
    values = {fld.name: draw(finite()) for fld in fields(EnergyParams)}
    values["wire_cross_section"] = draw(finite(exclude_min=True))
    return EnergyParams(**values)


@given(energy_params())
def test_format_then_parse_is_the_identity_for_params(params):
    assert parse_params(format_params(params)) == params


@given(circuits(max_width=8), profiles(), st.data())
def test_a_ledger_meets_its_own_bound(circuit, profile, data):
    n = len(circuit.free_lines)
    word = BitWord(n, data.draw(st.integers(0, (1 << n) - 1)))
    params = EnergyParams()
    ledger = run_ledger(circuit, word, profile, params)
    assert check_bound(ledger, matching_bound(ledger), params)


def reference_run_ledger(circuit, inputs, profile, params):
    """run_ledger as it was before one pricing rule built every entry: each
    stage prices and floors its own bits."""
    circuit.check_inputs(inputs)
    unit = landauer_per_bit(params)
    recovery = profile.recovered_fraction
    closed = profile.environment is Environment.CLOSED
    entries = []
    if circuit.width > 0:
        scale = profile.reconfiguration_units if closed else 1.0
        bits = int(min(circuit.width, circuit.width * scale))
        entries.append(LedgerEntry(Stage.INPUT_SET, bits, circuit.width * scale * unit))
    i_r = profile.instruction_bits
    if i_r > 0 and circuit.gates:
        if profile.control_style is ControlStyle.EXTERNAL_IRREVERSIBLE:
            entries.extend(LedgerEntry(Stage.CONTROL, i_r, i_r * unit) for _ in circuit.gates)
        else:
            entries.append(LedgerEntry(Stage.CONTROL, i_r, i_r * unit))
    if not closed and not is_conservative(to_truth_table(Circuit(circuit.width, circuit.gates))):
        states = list(step_states(circuit, inputs))
        for before, after in zip(states, states[1:]):
            flipped = (before.value ^ after.value).bit_count()
            joules = flipped * (1.0 - recovery) * unit
            if joules > 0:
                entries.append(LedgerEntry(Stage.COMPUTE, int(flipped * (1.0 - recovery)), joules))
    if not profile.ideal_transmission and circuit.gates:
        per_cycle = wire_dissipation_per_cycle(params)
        entries.append(LedgerEntry(Stage.INTERCONNECT, 0, len(circuit.gates) * per_cycle))
    if closed:
        return DissipationLedger(tuple(entries), observable=False)
    out_bits = len(circuit.output_lines)
    if out_bits > 0:
        entries.append(LedgerEntry(Stage.OUTPUT_READ, out_bits, out_bits * unit))
    return DissipationLedger(tuple(entries), observable=True)


def reference_matching_bound(ledger):
    i_r = 0
    for entry in ledger.entries:
        if entry.stage is Stage.CONTROL:
            i_r = entry.bits
            break
    return BoundInput(
        k=ledger.stage_bits(Stage.INPUT_SET),
        l=ledger.stage_bits(Stage.OUTPUT_READ),
        i_r=i_r,
        n_pr=ledger.stage_bits(Stage.COMPUTE),
    )


def reference_check_bound(ledger, bits, params):
    own = reference_matching_bound(ledger)
    present = {entry.stage for entry in ledger.entries}
    checks = (
        (Stage.INPUT_SET, own.k, bits.k, "k"),
        (Stage.OUTPUT_READ, own.l, bits.l, "l"),
        (Stage.CONTROL, own.i_r, bits.i_r, "i_r"),
        (Stage.COMPUTE, own.n_pr, bits.n_pr, "n_pr"),
    )
    for stage, have, want, name in checks:
        if stage in present and have != want:
            raise DimensionMismatch(f"ledger {stage.value} bits total {have}, bound says {name}={want}")
    return ledger.total >= lower_bound(bits, params) * (1.0 - 1e-9)


def reference_ledger_dict(ledger, params):
    bits = reference_matching_bound(ledger)
    return {
        "entries": [
            {"stage": entry.stage.value, "bits": entry.bits, "joules": entry.joules}
            for entry in ledger.entries
        ],
        "total": ledger.total,
        "bound": {
            "k": bits.k,
            "l": bits.l,
            "i_r": bits.i_r,
            "n_pr": bits.n_pr,
            "joules": lower_bound(bits, params),
            "met": reference_check_bound(ledger, bits, params),
        },
        "observable": ledger.observable,
    }


def outcome(fn, *args):
    """What a call gives: its value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raised error is the outcome
        return type(exc), str(exc)


@given(
    circuits(max_width=8),
    profiles(),
    st.one_of(st.just(EnergyParams()), energy_params()),
    st.integers(0, 2**1030),
    st.data(),
)
def test_the_ledger_matches_its_per_stage_reference(circuit, profile, params, measured, data):
    n = len(circuit.free_lines)
    word = BitWord(n, data.draw(st.integers(0, (1 << n) - 1)))
    ledger = outcome(run_ledger, circuit, word, profile, params)
    assert ledger == outcome(reference_run_ledger, circuit, word, profile, params)
    assert outcome(measurement_entry, measured, params) == outcome(
        lambda b, p: LedgerEntry(Stage.MEASUREMENT, b, b * landauer_per_bit(p)), measured, params
    )
    if not isinstance(ledger, DissipationLedger):
        return
    own = matching_bound(ledger)
    assert own == reference_matching_bound(ledger)
    assert repr(outcome(ledger_dict, ledger, params)) == repr(
        outcome(reference_ledger_dict, ledger, params)
    )
    bits = BoundInput(*(data.draw(st.one_of(st.just(v), st.integers(0, 16))) for v in astuple(own)))
    assert outcome(check_bound, ledger, bits, params) == outcome(
        reference_check_bound, ledger, bits, params
    )


@st.composite
def tables(draw, max_width=6):
    in_width = draw(st.integers(0, max_width))
    out_width = draw(st.integers(0, max_width))
    size = 1 << in_width
    rows = draw(st.lists(st.integers(0, (1 << out_width) - 1), min_size=size, max_size=size))
    return TruthTable(in_width, out_width, tuple(rows))


@given(tables())
@example(TruthTable(0, 0, (0,)))
@example(TruthTable(1, 3, (5, 2)))
def test_format_then_parse_is_the_identity(table):
    text = format_table(table)
    if table.in_width == table.out_width == 0:
        assert text == "table 0 0\n -> \n"
    assert parse_table(text) == table


@st.composite
def weight_preserving_tables(draw, max_width=6):
    """Tables that map each word into its own Hamming-weight class: a
    permutation of each class, or any map into it."""
    n = draw(st.integers(0, max_width))
    bijective = draw(st.booleans())
    rows = [0] * (1 << n)
    for weight in range(n + 1):
        members = [x for x in range(1 << n) if x.bit_count() == weight]
        k = len(members)
        images = st.permutations(members) if bijective else st.lists(st.sampled_from(members), min_size=k, max_size=k)
        for x, y in zip(members, draw(images)):
            rows[x] = y
    return TruthTable(n, n, tuple(rows))


@given(st.one_of(tables(), bijections(max_width=6), weight_preserving_tables()))
def test_conservative_is_reversible_with_every_weight_kept(table):
    kept = all(x.bit_count() == y.bit_count() for x, y in enumerate(table.rows))
    assert is_conservative(table) == (is_reversible(table) and kept)


# every line break str.splitlines knows, and pieces of what a line can hold
_LEXER_PIECES = st.sampled_from([
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "#", " ", "\t", "\xa0", "a", "1", "table 2 2", "->",
])


@given(st.lists(_LEXER_PIECES | st.characters(), max_size=24).map("".join))
@example("# c\r\n\x0c\n  \x85 lines 3 # x\nH 0")
@example("\u2028\u2029#\x1ctable")
@example("#\nA#\rB#\r\nC#\x0bD#\x0cE#\x1cF#\x1dG#\x1eH#\x85I#\u2028J#\u2029K")
def test_meaningful_lines_are_those_of_a_splitlines_reference(text):
    # every suffix too: in the last example, each break then follows the
    # comment that comes before a text's first meaningful line
    for start in range(len(text) + 1):
        assert list(meaningful_lines(text[start:])) == reference_meaningful_lines(text[start:])


def reference_meaningful_lines(text):
    """The meaningful lines of a text, found by splitting all of it into
    lines at once."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in stripped if line]


def reference_parse_table(text):
    """The rows of a table parsed one BitWord pair per row, as
    BitWord.from_string and parse_table once did it. The header is taken on
    trust: the texts below only ever mutate row lines."""
    def word(bits):
        bits = bits.strip()
        if any(ch not in "01" for ch in bits):
            raise ParseError(f"bad bit string {bits!r}")
        return BitWord(len(bits), int(bits, 2) if bits else 0)

    lines = iter(reference_meaningful_lines(text))
    _, in_width, out_width = next(lines).split()
    in_width, out_width = int(in_width), int(out_width)
    rows = {}
    for line in lines:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected 'bits -> bits', got {line!r}")
        try:
            src = word(parts[0])
            dst = word(parts[1])
        except ParseError as exc:
            raise ParseError(f"{exc} in {line!r}") from exc
        if src.width != in_width or dst.width != out_width:
            raise ParseError(f"row {line!r} does not match table widths")
        if src.value in rows:
            raise ParseError(f"input {src} listed twice in {line!r}")
        rows[src.value] = dst.value
    missing = (1 << in_width) - len(rows)
    if missing:
        raise ParseError(f"{missing} input word(s) unlisted")
    return TruthTable(in_width, out_width, tuple(rows[x] for x in range(1 << in_width)))


@st.composite
def table_texts(draw):
    """A formatted table with up to four row-line mutations: stray or
    whitespace characters, a lost character, a second arrow, a repeated row
    or a dropped row."""
    header, *lines = format_table(draw(tables(max_width=4))).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(["insert", "cut", "arrow", "repeat", "drop"]))
        if kind == "insert":
            lines[i] = line[:at] + draw(st.text("01 \t\u00a0x2_->#", min_size=1, max_size=2)) + line[at:]
        elif kind == "cut":
            lines[i] = line[:at] + line[at + 1 :]
        elif kind == "arrow":
            lines[i] = line[:at] + "->" + line[at:]
        elif kind == "repeat":
            lines.insert(at % (len(lines) + 1), line)
        elif len(lines) > 1:
            del lines[i]
    return "\n".join([header, *lines]) + "\n"


@st.composite
def fixed_layout_texts(draw):
    """A formatted 7-10 bit table with one change that keeps the body's
    length, so the whole body is checked at once: a byte replaced, two row
    lines swapped, or one row line written over another."""
    in_width, out_width = draw(st.integers(7, 10)), draw(st.integers(7, 10))
    rng = draw(st.randoms(use_true_random=False))
    rows = tuple(rng.randrange(1 << out_width) for _ in range(1 << in_width))
    header, *lines = format_table(TruthTable(in_width, out_width, rows)).splitlines(keepends=True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["byte", "swap", "overwrite"]))
    if kind == "byte":
        at = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + draw(st.sampled_from("01 ->x#\t\n")) + lines[i][at + 1 :]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[j]
    return header + "".join(lines)


_IDENTITY_7 = format_table(TruthTable(7, 7, tuple(range(128))))
# 8192 rows: two blocks of the body check
_IDENTITY_13 = format_table(TruthTable.identity(13))


@given(fixed_layout_texts())
@example(_IDENTITY_7.replace("-> 0000011", "-> 00x0011"))  # a stray byte among the outputs
@example(_IDENTITY_7.replace("0000011 ->", "00\t0011 ->"))  # among the inputs
@example(_IDENTITY_7.replace("0000011 ->", "00000111>"))  # a digit where a separator goes
@example(_IDENTITY_7.replace("0000011 ->", "0000010 ->"))  # an input listed twice
@example(_IDENTITY_13.replace("-> 1111111111111", "-> 11111111111x1"))  # in the last row
@example(_IDENTITY_13.replace("-> 1000000000000", "-> 10000000\t0000"))  # in the second block's first row
def test_parse_table_checks_a_formatted_body_like_a_per_row_parser(text):
    assert outcome(parse_table, text) == outcome(reference_parse_table, text)


@st.composite
def loose_table_texts(draw):
    """A table written loosely: rows in any order, any spacing (non-ASCII
    too), comments, blank lines, and LF or CRLF line ends."""
    table = draw(tables(max_width=5))
    header, *rows = format_table(table).splitlines()
    gap = st.text(" \t\u00a0", max_size=2)
    lines = []
    for line in [header, *draw(st.permutations(rows))]:
        if draw(st.booleans()):
            lines.append(draw(gap) + draw(st.sampled_from(["", "# note"])))
        tokens = line.split(" ")
        line = tokens[0] + "".join(draw(gap) + " " + token for token in tokens[1:])
        lines.append(draw(gap) + line + draw(gap) + draw(st.sampled_from(["", " # note"])))
    return table, "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@given(loose_table_texts())
@example((TruthTable(0, 0, (0,)), "table 0 0\r\n->\r\n"))
def test_parse_table_reads_any_layout_like_a_per_row_parser(case):
    table, text = case
    assert parse_table(text) == reference_parse_table(text) == table


@given(table_texts())
@example("table 2 1\n0x -> 1\n")
@example("table 2 1\n01 -> 1x\n")
@example("table 2 1\n00 -> 1\n00 -> 0\n")
def test_parse_table_agrees_with_a_per_row_bitword_parser(text):
    try:
        expected = reference_parse_table(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_table(text)
        assert str(raised.value) == str(exc)
    else:
        assert parse_table(text) == expected


@given(bijections(max_width=8))
@example(TruthTable(0, 0, (0,)))  # one row
def test_the_dualrail_report_is_the_bytes_of_indented_json_dumps(f):
    embedded = dual_rail_embed(f)
    report = {"rail_width": f.in_width, "in_width": embedded.in_width, "out_width": embedded.out_width, "rows": embedded.rows}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.tbl"
        path.write_text(format_table(f))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["dualrail", str(path), "--format", "json"])
    assert (code, out.getvalue()) == (0, json.dumps(report, indent=2) + "\n")
