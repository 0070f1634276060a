"""Generated-input properties of the circuit engine: the whole-table kernel
agrees with single-word simulation, undoes itself, and the embeddings and
lifts built on whole-table arithmetic match their per-word definitions.
Of the quantum layer: a sampled path is one of the enumerated branches.
Of the ledger: every run meets its own bound. Of the table text format:
format then parse is the identity, and parse agrees with a per-row
BitWord reference on valid and mutated rows."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revlab import (
    BitWord,
    Circuit,
    ControlStyle,
    EnergyParams,
    Environment,
    Gate,
    GateKind,
    Op,
    ParseError,
    SystemProfile,
    TruthTable,
    check_bound,
    dual_rail_codeword,
    dual_rail_embed,
    format_table,
    invert_circuit,
    matching_bound,
    parse_table,
    permutation_matrix,
    run_ledger,
    run_program,
    sample_program,
    simulate,
    to_truth_table,
)
from revlab.circuits import _apply_kind, _load_word
from revlab.quantum import PROB_FLOOR
from revlab.tables import meaningful_lines


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


def test_edge_circuits_load_arrays_and_tabulate():
    for circuit in EDGE_CIRCUITS:
        n = len(circuit.free_lines)
        loaded = _load_word(circuit, np.arange(1 << n, dtype=np.uint32))
        assert isinstance(loaded, np.ndarray) and loaded.shape == (1 << n,)
        table = to_truth_table(circuit)
        assert (table.in_width, table.out_width) == (n, circuit.width)
        assert table.rows == tuple(simulate(circuit, BitWord(n, x)).value for x in range(1 << n))
    # no gates: every word is loaded and comes out unchanged
    assert to_truth_table(Circuit(4)) == TruthTable.identity(4)
    assert to_truth_table(Circuit(3, (), {0: 1, 1: 0, 2: 1})).rows == (0b101,)


@given(st.integers(1, 10).flatmap(lambda w: st.tuples(st.just(w), gates(w))))
def test_each_gate_undoes_itself_on_every_word(case):
    width, gate = case
    words = np.arange(1 << width, dtype=np.uint32)
    once = _apply_kind(gate, words, width)
    assert sorted(once.tolist()) == words.tolist()
    assert np.array_equal(_apply_kind(gate, once, width), words)


@given(circuits())
def test_circuit_then_inverse_is_identity(circuit):
    bare = Circuit(circuit.width, circuit.gates)
    round_trip = Circuit(circuit.width, bare.gates + invert_circuit(bare).gates)
    assert to_truth_table(round_trip) == TruthTable.identity(circuit.width)


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


@given(circuits(max_width=8), profiles(), st.data())
def test_a_ledger_meets_its_own_bound(circuit, profile, data):
    n = len(circuit.free_lines)
    word = BitWord(n, data.draw(st.integers(0, (1 << n) - 1)))
    params = EnergyParams()
    ledger = run_ledger(circuit, word, profile, params)
    assert check_bound(ledger, matching_bound(ledger), params)


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


def reference_parse_table(text):
    """The rows of a table parsed one BitWord pair per row, as
    BitWord.from_string and parse_table once did it. The header is taken on
    trust: the texts below only ever mutate row lines."""
    def word(bits):
        bits = bits.strip()
        if any(ch not in "01" for ch in bits):
            raise ParseError(f"bad bit string {bits!r}")
        return BitWord(len(bits), int(bits, 2) if bits else 0)

    lines = meaningful_lines(text)
    _, in_width, out_width = next(lines).split()
    in_width, out_width = int(in_width), int(out_width)
    rows = {}
    for line in lines:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected 'bits -> bits', got {line!r}")
        src = word(parts[0])
        dst = word(parts[1])
        if src.width != in_width or dst.width != out_width:
            raise ParseError(f"row {line!r} does not match table widths")
        if src.value in rows:
            raise ParseError(f"input {src} listed twice")
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
