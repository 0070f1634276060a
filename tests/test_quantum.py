"""Quantum layer: matrices, unitarity, application, measurement, programs."""

import cmath
import math
import random

import numpy as np
import pytest

from revlab import (
    Circuit,
    DimensionMismatch,
    LineOutOfRange,
    MissingParameter,
    NotReversible,
    NotUnitary,
    Op,
    ParseError,
    TooWide,
    TruthTable,
    ZeroNorm,
    apply,
    gate_matrix,
    inverse,
    is_unitary,
    measure,
    parse_program,
    permutation_matrix,
    run_program,
    sample_program,
    simulate,
    to_truth_table,
)
from revlab import BitWord, CNOT, TOFFOLI
from revlab.quantum import program_qubits


def _random_state(rng, n):
    re = np.array([rng.gauss(0, 1) for _ in range(1 << n)])
    im = np.array([rng.gauss(0, 1) for _ in range(1 << n)])
    state = re + 1j * im
    return state / np.linalg.norm(state)


def test_gate_matrices_known_values():
    assert np.allclose(gate_matrix("RX", 0.0), np.eye(2))
    assert np.allclose(gate_matrix("RX", math.pi), [[0, -1j], [-1j, 0]], atol=1e-12)
    r = 1 / math.sqrt(2)
    assert np.allclose(gate_matrix("H"), [[r, r], [r, -r]])
    theta = 0.7
    p = cmath.exp(1j * theta)
    assert np.allclose(gate_matrix("IZZ", theta), np.diag([1, p, p, 1]))
    assert np.allclose(gate_matrix("T"), np.diag([1, 1j]))


def test_gate_matrix_parameter_rules():
    with pytest.raises(MissingParameter):
        gate_matrix("RX")
    with pytest.raises(MissingParameter):
        gate_matrix("IZZ")
    with pytest.raises(ValueError):
        gate_matrix("H", 1.0)
    with pytest.raises(ValueError):
        gate_matrix("Q")


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_gate_matrix_rejects_non_finite_angles(angle):
    for name, qubits in (("RX", (0,)), ("IZZ", (0, 1))):
        with pytest.raises(ValueError, match=f"{name} angle must be finite"):
            gate_matrix(name, angle)
        with pytest.raises(ValueError, match=f"{name} angle must be finite"):
            run_program((Op(name, qubits, angle),), 2)


def test_all_gates_unitary_across_angles():
    rng = random.Random(11)
    angles = [0.0, math.pi / 7, math.pi / 3, math.pi / 2, math.pi, 2.5, 2 * math.pi]
    angles += [rng.uniform(-10, 10) for _ in range(20)]
    for theta in angles:
        assert is_unitary(gate_matrix("RX", theta))
        assert is_unitary(gate_matrix("IZZ", theta))
    assert is_unitary(gate_matrix("H"))
    assert is_unitary(gate_matrix("T"))


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.diag([1.0, 0.0]))
    assert not is_unitary(np.ones((2, 3)))
    assert not is_unitary(2 * np.eye(2))


def test_inverse_is_conjugate_transpose():
    h = gate_matrix("H")
    assert np.allclose(inverse(h), h)
    rx = gate_matrix("RX", 1.3)
    assert np.allclose(inverse(rx) @ rx, np.eye(2), atol=1e-12)
    with pytest.raises(NotUnitary):
        inverse(np.diag([1.0, 0.0]))


def test_apply_hadamard_on_most_significant_qubit():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    out = apply(gate_matrix("H"), state, (0,))
    r = 1 / math.sqrt(2)
    # qubit 0 is the most significant bit, so |00> splits into |00> and |10>
    assert np.allclose(out, [r, 0, r, 0])


def test_apply_two_qubit_operator_respects_target_order():
    cnot = permutation_matrix(TruthTable(2, 2, (0, 1, 3, 2)))
    state = np.zeros(4, dtype=complex)
    state[0b10] = 1.0
    assert np.allclose(apply(cnot, state, (0, 1)), np.eye(4)[0b11])
    # reversed targets make qubit 1 the control, which is 0 here
    assert np.allclose(apply(cnot, state, (1, 0)), np.eye(4)[0b10])


def test_apply_validation():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(DimensionMismatch):
        apply(gate_matrix("H"), state, (0, 1))
    with pytest.raises(DimensionMismatch):
        apply(gate_matrix("IZZ", 1.0), state, (0, 0))
    with pytest.raises(DimensionMismatch):
        apply(gate_matrix("H"), state, (2,))
    with pytest.raises(DimensionMismatch):
        apply(gate_matrix("H"), np.ones(3, dtype=complex), (0,))


def test_apply_inverse_round_trip_random_states():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 6)
        name = rng.choice(["RX", "H", "IZZ", "T"])
        k = 2 if name == "IZZ" else 1
        if n < k:
            continue
        state = _random_state(rng, n)
        theta = rng.uniform(-6, 6) if name in ("RX", "IZZ") else None
        targets = tuple(rng.sample(range(n), k))
        m = gate_matrix(name, theta)
        forward = apply(m, state, targets)
        assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-10)
        out = apply(inverse(m), forward, targets)
        assert float(np.max(np.abs(out - state))) < 1e-9


def test_measure_even_superposition():
    state = np.array([1, 1], dtype=complex) / math.sqrt(2)
    outcomes = measure(state, 0)
    assert [o.basis_value for o in outcomes] == [0, 1]
    for o in outcomes:
        assert o.probability == pytest.approx(0.5)
        assert np.linalg.norm(o.post_state) == pytest.approx(1.0)


def test_measure_definite_state_single_outcome():
    state = np.array([0, 1], dtype=complex)
    outcomes = measure(state, 0)
    assert len(outcomes) == 1
    assert outcomes[0].basis_value == 1
    assert outcomes[0].probability == pytest.approx(1.0)


def test_measure_validation():
    with pytest.raises(ZeroNorm):
        measure(np.zeros(2, dtype=complex), 0)
    with pytest.raises(LineOutOfRange):
        measure(np.array([1, 0], dtype=complex), 1)


def test_measure_takes_a_tiny_nonzero_state():
    (outcome,) = measure(np.array([1e-13, 0]), 0)
    assert (outcome.basis_value, outcome.probability) == (0, 1.0)
    assert np.array_equal(outcome.post_state, [1, 0])


def test_measure_rejects_a_non_finite_state():
    with pytest.raises(ValueError):
        measure(np.array([np.nan, 0]), 0)
    with pytest.raises(ValueError):
        measure(np.array([1e200, 0]), 0)  # the squared norm overflows


def test_measure_probabilities_sum_to_one():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        state = _random_state(rng, n)
        outcomes = measure(state, rng.randrange(n))
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0)


def test_measure_discards_amplitude_data():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 4)
        qubit = rng.randrange(n)
        state = _random_state(rng, n)
        outcomes = measure(state, qubit)
        if len(outcomes) < 2:
            continue
        a, b = outcomes
        # distinct outcomes leave orthogonal post-states
        assert abs(np.vdot(a.post_state, b.post_state)) < 1e-10
        # rescaling the discarded branch leaves the kept post-state unchanged,
        # so no operator can recover the pre-measurement amplitudes
        mask = 1 << (n - 1 - qubit)
        tweaked = state.copy()
        for idx in range(1 << n):
            if idx & mask:
                tweaked[idx] *= 0.25 * cmath.exp(1.3j)
        tweaked /= np.linalg.norm(tweaked)
        again = measure(tweaked, qubit)
        assert again[0].basis_value == 0
        assert np.allclose(again[0].post_state, a.post_state, atol=1e-10)


def test_permutation_matrix_matches_circuit_simulation():
    rng = random.Random(14)
    for _ in range(15):
        width = rng.randint(1, 5)
        gates = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice([CNOT, TOFFOLI])
            need = 2 if kind is CNOT else 3
            if width < need:
                continue
            gates.append(kind(*rng.sample(range(width), need)))
        circuit = Circuit(width, tuple(gates))
        table = to_truth_table(circuit)
        u = permutation_matrix(table)
        assert is_unitary(u)
        for x in range(1 << width):
            e_x = np.zeros(1 << width, dtype=complex)
            e_x[x] = 1.0
            out = u @ e_x
            expect = simulate(circuit, BitWord(width, x)).value
            assert np.allclose(out, np.eye(1 << width)[expect])


def test_permutation_matrix_rejects_lossy_table():
    with pytest.raises(NotReversible):
        permutation_matrix(TruthTable(1, 1, (1, 1)))
    with pytest.raises(TooWide, match="11 qubits exceeds cap 10"):
        permutation_matrix(TruthTable(11, 11, tuple(range(1 << 11))))


def test_parse_program_and_format():
    text = """
    # flip then phase
    RX 3.141592653589793 0
    H 1
    IZZ 0.5 0 1
    T 0
    MEASURE 1
    """
    ops = parse_program(text)
    assert [op.name for op in ops] == ["RX", "H", "IZZ", "T", "MEASURE"]
    assert ops[0].theta == pytest.approx(math.pi)
    assert ops[2].qubits == (0, 1)


@pytest.mark.parametrize(
    "text",
    [
        "FLIP 0\n",
        "RX 0\n",  # missing angle or qubit
        "RX abc 0\n",
        "H 0 1\n",
        "IZZ 1.0 0 0\n",  # repeated qubit
        "MEASURE\n",
        "H -1\n",
        "MEASURE x\n",
    ],
)
def test_parse_program_rejects(text):
    with pytest.raises(ParseError):
        parse_program(text)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e999"])
def test_parse_program_rejects_non_finite_angles(angle):
    with pytest.raises(ParseError, match="bad angle"):
        parse_program(f"RX {angle} 0\n")
    with pytest.raises(ParseError, match="bad angle"):
        parse_program(f"IZZ {angle} 0 1\n")


def test_program_qubit_count_must_be_non_negative():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        program_qubits((), -1)


def test_program_qubit_counting():
    ops = parse_program("H 2\n")
    assert program_qubits(ops) == 3
    assert program_qubits(ops, 4) == 4
    with pytest.raises(LineOutOfRange):
        program_qubits(ops, 2)
    with pytest.raises(TooWide):
        program_qubits((), 11)
    assert program_qubits(()) == 0


@pytest.mark.parametrize(
    "op, error",
    [
        (Op("MEASURE", (0, 1)), DimensionMismatch),
        (Op("MEASURE", ()), DimensionMismatch),
        (Op("MEASURE", (0,), 2.5), ValueError),
        # what a gate op with the same faults raises
        (Op("H", (0, 1)), DimensionMismatch),
        (Op("H", (0,), 2.5), ValueError),
    ],
)
def test_run_program_rejects_a_malformed_op(op, error):
    with pytest.raises(error):
        run_program((Op("H", (0,)), Op("H", (1,)), op), 2)


def test_run_program_splits_on_measurement():
    branches = run_program(parse_program("H 0\nMEASURE 0\n"))
    assert [b.outcomes for b in branches] == [(0,), (1,)]
    for b, idx in zip(branches, (0, 1)):
        assert b.probability == pytest.approx(0.5)
        assert np.allclose(b.state, np.eye(2)[idx])


def test_run_program_definite_outcome():
    # a half-turn flip makes the measurement deterministic
    branches = run_program(parse_program(f"RX {math.pi} 0\nMEASURE 0\n"))
    assert len(branches) == 1
    assert branches[0].outcomes == (1,)
    assert branches[0].probability == pytest.approx(1.0)


def test_run_program_branch_probabilities_sum_to_one():
    text = f"H 0\nRX 0.8 1\nMEASURE 0\nIZZ 1.1 0 1\nMEASURE 1\n"
    branches = run_program(parse_program(text))
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert np.linalg.norm(b.state) == pytest.approx(1.0)


def test_sample_program_is_seed_deterministic():
    ops = parse_program("H 0\nMEASURE 0\n")
    first = sample_program(ops, 42)
    again = sample_program(ops, 42)
    assert first.outcomes == again.outcomes
    assert np.allclose(first.state, again.state)
    seen = {sample_program(ops, seed).outcomes[0] for seed in range(30)}
    assert seen == {0, 1}


def test_sample_path_matches_a_branch():
    ops = parse_program("H 0\nH 1\nMEASURE 0\nMEASURE 1\n")
    branches = {b.outcomes: b for b in run_program(ops)}
    for seed in range(10):
        picked = sample_program(ops, seed)
        match = branches[picked.outcomes]
        assert picked.probability == pytest.approx(match.probability)
        assert np.allclose(picked.state, match.state)
