"""Gate and circuit layer: semantics, inversion, dual-rail, netlist format."""

import enum
import itertools
import random

import numpy as np
import pytest

from revlab import (
    CNOT,
    FREDKIN,
    NOT,
    TOFFOLI,
    BitWord,
    Circuit,
    Gate,
    GateKind,
    LineOutOfRange,
    NotReversible,
    ParseError,
    TooWide,
    TruthTable,
    WidthMismatch,
    apply_gate,
    drop_garbage,
    dual_rail_codeword,
    dual_rail_embed,
    format_circuit,
    invert,
    invert_circuit,
    is_conservative,
    is_reversible,
    parse_circuit,
    parse_params,
    parse_program,
    parse_table,
    simulate,
    step_states,
    to_truth_table,
)


def _random_gate(rng, width):
    kind = rng.choice([k for k in GateKind if k.arity <= width])
    lines = tuple(rng.sample(range(width), kind.arity))
    return Gate(kind, lines)


def _random_circuit(rng, width, n_gates):
    return Circuit(width, tuple(_random_gate(rng, width) for _ in range(n_gates)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.NOT, (-1,))


def test_not_flips_leftmost_line():
    out = apply_gate(NOT(0), BitWord(4, 0))
    assert str(out) == "1000"


def test_cnot_semantics():
    assert apply_gate(CNOT(0, 1), BitWord(2, 0b00)) == BitWord(2, 0b00)
    assert apply_gate(CNOT(0, 1), BitWord(2, 0b10)) == BitWord(2, 0b11)
    assert apply_gate(CNOT(1, 0), BitWord(2, 0b01)) == BitWord(2, 0b11)


def test_toffoli_needs_both_controls():
    gate = TOFFOLI(0, 1, 2)
    assert apply_gate(gate, BitWord(3, 0b110)) == BitWord(3, 0b111)
    assert apply_gate(gate, BitWord(3, 0b100)) == BitWord(3, 0b100)
    assert apply_gate(gate, BitWord(3, 0b010)) == BitWord(3, 0b010)


def test_fredkin_swaps_targets_under_control():
    gate = FREDKIN(0, 1, 2)
    assert apply_gate(gate, BitWord(3, 0b110)) == BitWord(3, 0b101)
    assert apply_gate(gate, BitWord(3, 0b010)) == BitWord(3, 0b010)
    assert apply_gate(gate, BitWord(3, 0b111)) == BitWord(3, 0b111)


def test_apply_gate_checks_width():
    with pytest.raises(LineOutOfRange):
        apply_gate(NOT(2), BitWord(2, 0))


def test_gates_self_inverse_exhaustive():
    # every gate kind, every line assignment, every state, widths 1..6
    for width in range(1, 7):
        for kind in GateKind:
            if kind.arity > width:
                continue
            for lines in itertools.permutations(range(width), kind.arity):
                gate = Gate(kind, lines)
                for value in range(1 << width):
                    state = BitWord(width, value)
                    assert apply_gate(gate, apply_gate(gate, state)) == state


def test_circuit_validation():
    with pytest.raises(ValueError, match="width must be non-negative"):
        Circuit(-1)
    with pytest.raises(LineOutOfRange):
        Circuit(2, (NOT(2),))
    with pytest.raises(LineOutOfRange):
        Circuit(2, (), {2: 0})
    with pytest.raises(ValueError):
        Circuit(2, (), {0: 2})
    with pytest.raises(LineOutOfRange):
        Circuit(2, (), {}, frozenset({5}))


def test_line_roles():
    circuit = Circuit(4, (), {1: 0}, frozenset({3}))
    assert circuit.free_lines == (0, 2, 3)
    assert circuit.output_lines == (0, 1, 2)


def test_simulate_controlled_flip():
    circuit = Circuit(2, (CNOT(0, 1),))
    assert simulate(circuit, BitWord.from_string("10")) == BitWord.from_string("11")
    assert simulate(circuit, BitWord.from_string("01")) == BitWord.from_string("01")
    with pytest.raises(WidthMismatch):
        simulate(circuit, BitWord(3, 0))


def test_simulate_loads_ancilla_constants():
    # line 0 is an ancilla stuck at 1, so the CNOT always fires
    circuit = Circuit(2, (CNOT(0, 1),), {0: 1})
    assert simulate(circuit, BitWord.from_string("0")) == BitWord.from_string("11")
    assert simulate(circuit, BitWord.from_string("1")) == BitWord.from_string("10")


def test_step_states_traces_every_gate():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    trace = list(step_states(circuit, BitWord(2, 0)))
    assert [str(s) for s in trace] == ["00", "10", "11"]


def test_to_truth_table_matches_simulate():
    rng = random.Random(9)
    for _ in range(30):
        width = rng.randint(1, 6)
        circuit = _random_circuit(rng, width, rng.randint(0, 6))
        table = to_truth_table(circuit)
        # ancilla-free circuits always realize a bijection
        assert is_reversible(table)
        for x in range(1 << width):
            assert table(x) == simulate(circuit, BitWord(width, x)).value


def test_fredkin_only_circuits_are_conservative():
    rng = random.Random(10)
    for _ in range(20):
        width = rng.randint(3, 6)
        gates = tuple(
            FREDKIN(*rng.sample(range(width), 3)) for _ in range(rng.randint(1, 6))
        )
        table = to_truth_table(Circuit(width, gates))
        assert is_conservative(table)


def test_to_truth_table_with_ancilla_shrinks_inputs():
    circuit = Circuit(2, (CNOT(0, 1),), {0: 1})
    table = to_truth_table(circuit)
    assert (table.in_width, table.out_width) == (1, 2)
    assert table.rows == (0b11, 0b10)


def test_to_truth_table_width_cap():
    with pytest.raises(TooWide):
        to_truth_table(Circuit(17))


def test_invert_circuit_reverses_gate_order():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    inv = invert_circuit(circuit)
    assert [g.kind for g in inv.gates] == [GateKind.CNOT, GateKind.NOT]
    assert inv.ancillas == {}
    assert inv.garbage == frozenset()


def test_invert_circuit_undoes_simulation():
    rng = random.Random(21)
    for _ in range(50):
        width = rng.randint(1, 6)
        circuit = _random_circuit(rng, width, rng.randint(0, 10))
        inv = invert_circuit(circuit)
        for _ in range(5):
            word = BitWord(width, rng.randrange(1 << width))
            assert simulate(inv, simulate(circuit, word)) == word


def test_invert_circuit_matches_table_inverse():
    rng = random.Random(22)
    for _ in range(20):
        width = rng.randint(1, 5)
        circuit = _random_circuit(rng, width, rng.randint(1, 8))
        assert to_truth_table(invert_circuit(circuit)) == invert(to_truth_table(circuit))


def test_drop_garbage_projects_positions():
    table = TruthTable(1, 2, (0b01, 0b11))
    kept, lost = drop_garbage(table, {1})
    assert kept == TruthTable(1, 1, (0, 1))
    assert not lost
    collapsed, lost = drop_garbage(table, {0})
    assert collapsed == TruthTable(1, 1, (1, 1))
    assert lost
    with pytest.raises(LineOutOfRange):
        drop_garbage(table, {2})


def test_dual_rail_codeword_layout():
    assert str(BitWord(4, dual_rail_codeword(0b10, 2))) == "1001"
    assert str(BitWord(6, dual_rail_codeword(0b000, 3))) == "000111"


def test_dual_rail_known_mapping():
    base = to_truth_table(Circuit(2, (CNOT(0, 1),)))
    embedded = dual_rail_embed(base)
    codeword = dual_rail_codeword(0b10, 2)
    assert BitWord(4, embedded(codeword)) == BitWord.from_string("1100")


def test_dual_rail_is_reversible_and_weight_preserving():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = list(range(1 << n))
        rng.shuffle(rows)
        base = TruthTable(n, n, tuple(rows))
        embedded = dual_rail_embed(base)
        assert is_reversible(embedded)
        for x in range(1 << n):
            word = dual_rail_codeword(x, n)
            out = embedded(word)
            assert out.bit_count() == n
            # the first rail carries the base function's value
            assert out >> n == base(x)


def test_dual_rail_rejects_bad_bases():
    with pytest.raises(NotReversible):
        dual_rail_embed(TruthTable(1, 1, (0, 0)))
    wide_rows = tuple(range(1 << 9))
    with pytest.raises(TooWide):
        dual_rail_embed(TruthTable(9, 9, wide_rows))


def test_parse_format_round_trip():
    rng = random.Random(44)
    for _ in range(25):
        width = rng.randint(3, 6)
        circuit = _random_circuit(rng, width, rng.randint(0, 6))
        lines = set(range(width))
        ancillas = {i: rng.randint(0, 1) for i in rng.sample(sorted(lines), rng.randint(0, 2))}
        garbage = frozenset(rng.sample(sorted(lines), rng.randint(0, 2)))
        circuit = Circuit(width, circuit.gates, ancillas, garbage)
        assert parse_circuit(format_circuit(circuit)) == circuit


def test_a_line_that_equals_an_int_is_written_as_that_int():
    class Line(enum.IntEnum):
        TWO = 2

    for line in (True, Line.TWO, np.int64(2), np.uint8(2)):
        circuit = Circuit(3, (Gate(GateKind.NOT, (line,)),))
        assert parse_circuit(format_circuit(circuit)) == Circuit(3, (NOT(int(line)),))
    # a line that equals no int is refused, not truncated
    with pytest.raises(ValueError):
        format_circuit(Circuit(3, (Gate(GateKind.NOT, (2.5,)),)))


def test_parse_circuit_text():
    text = """
    lines 3
    ancilla 2 0   # work line
    garbage 2
    TOF 0 1 2
    NOT 1
    """
    circuit = parse_circuit(text)
    assert circuit.width == 3
    assert circuit.ancillas == {2: 0}
    assert circuit.garbage == frozenset({2})
    assert [g.kind for g in circuit.gates] == [GateKind.TOFFOLI, GateKind.NOT]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "NOT 0\n",  # gate before header
        "lines 2\nXOR 0 1\n",  # unknown mnemonic
        "lines 2\nCNOT 0\n",  # wrong arity
        "lines 2\nCNOT 0 0\n",  # repeated line
        "lines 2\nNOT 5\n",  # line out of range
        "lines 2\nancilla 0 2\n",  # bad constant
        "lines 2\nancilla 0 1\nancilla 0 0\n",  # duplicate ancilla
        "lines two\n",
        "lines -1\n",
        "lines 2\nancilla 1\n",  # constant missing
        "lines 2\ngarbage\n",  # line missing
        "lines 2\nNOT -1\n",  # negative line
        "lines 2\nancilla 5 0\n",  # ancilla past the width
        "lines 2\ngarbage 7\n",  # garbage past the width
    ],
)
def test_parse_circuit_rejects(text):
    with pytest.raises(ParseError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "gate_line, message",
    [
        ("CNOT 0", "CNOT takes 2 line(s), got 1 in 'CNOT 0'"),
        ("NOT 0 1", "NOT takes 1 line(s), got 2 in 'NOT 0 1'"),
        ("TOF 0 1", "TOF takes 3 line(s), got 2 in 'TOF 0 1'"),
        ("FRED 0 1 1 0", "FRED takes 3 line(s), got 4 in 'FRED 0 1 1 0'"),
        ("CNOT 1 1", None),
        ("FRED 0 1 0", None),
        ("NOT -1", None),
        ("TOF 0 -1 1", None),
        ("CNOT x", "bad integer 'x' in 'CNOT x'"),  # the bad integer before the arity
        ("NOT 5", "NOT on lines (5,) exceeds width 3 in 'NOT 5'"),
        ("TOF 0 1 3", None),
    ],
)
def test_a_gate_line_error_names_its_line(gate_line, message):
    with pytest.raises(ParseError) as info:
        parse_circuit(f"lines 3\n{gate_line}\n")
    assert str(info.value).endswith(f" in {gate_line!r}")
    if message is not None:
        assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_circuit, "lines 2\nancilla 5 0\n", "ancilla line 5 exceeds width 2 in 'ancilla 5 0'"),
        (parse_circuit, "lines 2\ngarbage 7\n", "garbage line 7 exceeds width 2 in 'garbage 7'"),
        (parse_circuit, "lines 2\nancilla 1 1\nancilla 1 1\n", "ancilla line 1 declared twice in 'ancilla 1 1'"),
        (parse_circuit, "lines 2\ngarbage 1\ngarbage 1\n", "garbage line 1 declared twice in 'garbage 1'"),
        (parse_circuit, "lines 2\nXOR 0 1\n", "unknown directive 'XOR' in 'XOR 0 1'"),
        (parse_circuit, "lines 2\nancilla 0 2\n", "ancilla constant must be 0 or 1, got 2 in 'ancilla 0 2'"),
        (parse_circuit, "lines -1\n", "line count must be non-negative in 'lines -1'"),
        (parse_table, "table 17 2\n", "table widths must be in 0..16 in 'table 17 2'"),
        (parse_table, "table 1 2\n0x -> 01\n1 -> 10\n", "bad bit string '0x' in '0x -> 01'"),
        (parse_table, "table 2 2\n00 -> 01\n00 -> 01\n", "input 00 listed twice in '00 -> 01'"),
        (parse_params, "T = -1\n", "T must be finite and non-negative, got -1.0 in 'T = -1'"),
        (
            parse_params,
            "wire_cross_section = 0\n",
            "wire_cross_section must be positive in 'wire_cross_section = 0'",
        ),
        (parse_params, "volts = 1\n", "unknown parameter 'volts' in 'volts = 1'"),
        (parse_params, "T = 300\nT = 4\n", "parameter 'T' set twice in 'T = 4'"),
        (parse_params, "T = cold\n", "bad value 'cold' for 'T' in 'T = cold'"),
        (parse_program, "H 0\nFOO 1\n", "unknown gate 'FOO' in 'FOO 1'"),
    ],
)
def test_a_directive_header_or_technology_fault_quotes_its_line(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
