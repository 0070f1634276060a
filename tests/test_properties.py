"""Generated-input properties of the circuit engine: the whole-table kernel
agrees with single-word simulation, undoes itself, and the embeddings and
lifts built on whole-table arithmetic match their per-word definitions.
Of the quantum layer: a sampled path is one of the enumerated branches."""

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from revlab import (
    BitWord,
    Circuit,
    Gate,
    GateKind,
    Op,
    TruthTable,
    dual_rail_codeword,
    dual_rail_embed,
    invert_circuit,
    permutation_matrix,
    run_program,
    sample_program,
    simulate,
    to_truth_table,
)
from revlab.circuits import _apply_kind, _load_word
from revlab.quantum import PROB_FLOOR


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
