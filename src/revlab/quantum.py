"""Small dense-vector quantum operator layer.

Provides the gate set RX(theta), H, IZZ(theta), T as explicit matrices,
unitarity checking and inversion, application of a k-qubit operator to
chosen qubits of an n-qubit state, projective single-qubit measurement,
and a tiny program format::

    RX 1.5707963267948966 0
    H 1
    IZZ 3.141592653589793 0 1
    T 0
    MEASURE 0

Qubit 0 is the most significant bit of the basis index, matching the
line-order convention of the classical layer. Measurement is the one
irreversible operation here: running a program splits it into branches,
one per recorded outcome string.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LineOutOfRange,
    MissingParameter,
    NotReversible,
    NotUnitary,
    ParseError,
    TooWide,
    ZeroNorm,
)
from .tables import TruthTable, is_reversible, meaningful_lines

MAX_QUBITS = 10
UNITARY_TOL = 1e-10
PROB_FLOOR = 1e-12

_PARAMETRIC = {"RX", "IZZ"}
_GATE_QUBITS = {"RX": 1, "H": 1, "IZZ": 2, "T": 1}


def gate_matrix(name: str, theta: float | None = None) -> np.ndarray:
    """The matrix of a named gate; RX and IZZ need an angle in radians."""
    if name in _PARAMETRIC:
        if theta is None:
            raise MissingParameter(f"{name} needs an angle")
        if not math.isfinite(theta):
            raise ValueError(f"{name} angle must be finite, got {theta!r}")
    elif theta is not None:
        raise ValueError(f"{name} takes no angle")
    if name == "RX":
        c = math.cos(theta / 2)
        s = -1j * math.sin(theta / 2)
        return np.array([[c, s], [s, c]], dtype=complex)
    if name == "H":
        r = 1 / math.sqrt(2)
        return np.array([[r, r], [r, -r]], dtype=complex)
    if name == "IZZ":
        p = cmath.exp(1j * theta)
        return np.diag([1, p, p, 1]).astype(complex)
    if name == "T":
        return np.diag([1, 1j]).astype(complex)
    raise ValueError(f"unknown gate {name!r}")


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True when matrix @ matrix.conj().T is the identity to within tol."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    delta = m @ m.conj().T - np.eye(m.shape[0])
    return float(np.max(np.abs(delta))) <= tol


def inverse(matrix: np.ndarray) -> np.ndarray:
    """The conjugate transpose, after checking unitarity."""
    m = np.asarray(matrix, dtype=complex)
    if not is_unitary(m):
        raise NotUnitary("matrix is not unitary, conjugate transpose is not its inverse")
    return m.conj().T


def permutation_matrix(table: TruthTable) -> np.ndarray:
    """Lift a reversible classical table to the unitary permuting basis states."""
    if not is_reversible(table):
        raise NotReversible("only a bijective table lifts to a permutation matrix")
    if table.in_width > MAX_QUBITS:
        raise TooWide(f"{table.in_width} qubits exceeds cap {MAX_QUBITS}")
    dim = 1 << table.in_width
    m = np.zeros((dim, dim), dtype=complex)
    m[list(table.rows), np.arange(dim)] = 1.0
    return m


def _check_state(state: np.ndarray) -> tuple[np.ndarray, int]:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    n = vec.size.bit_length() - 1
    if vec.size != 1 << n:
        raise DimensionMismatch(f"state length {vec.size} is not a power of two")
    return vec, n


def apply(matrix: np.ndarray, state: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a k-qubit operator to the given target qubits of a state vector.

    Targets are matrix qubit order: targets[0] is the operator's most
    significant qubit.
    """
    vec, n = _check_state(state)
    m = np.asarray(matrix, dtype=complex)
    targets = tuple(targets)
    k = len(targets)
    if m.ndim != 2 or m.shape != (1 << k, 1 << k):
        raise DimensionMismatch(
            f"operator shape {m.shape} does not act on {k} qubit(s)"
        )
    if len(set(targets)) != k:
        raise DimensionMismatch(f"duplicate target in {targets}")
    if any(not 0 <= t < n for t in targets):
        raise DimensionMismatch(f"targets {targets} out of range for {n} qubit(s)")
    order = [*targets, *(q for q in range(n) if q not in targets)]
    out = m @ vec.reshape((2,) * n).transpose(order).reshape(1 << k, -1)
    return out.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One result of a projective measurement: the observed basis value, its
    probability, and the renormalized post-measurement state."""

    basis_value: int
    probability: float
    post_state: np.ndarray


def measure(state: np.ndarray, qubit: int) -> list[MeasurementOutcome]:
    """Measure one qubit in the computational basis.

    Returns the outcomes with probability above a small floor, value 0 first.
    A state cannot be measured when its squared norm is not finite, or is
    too small for a kept outcome's weight to be a normal float (zero is).
    """
    vec, n = _check_state(state)
    if not 0 <= qubit < n:
        raise LineOutOfRange(f"qubit {qubit} out of range for {n} qubit(s)")
    with np.errstate(over="ignore"):  # an overflow is reported just below
        squares = np.abs(vec) ** 2
        total = float(np.sum(squares))
    if not math.isfinite(total):
        raise ValueError(f"cannot measure a state of squared norm {total}")
    if total < sys.float_info.min / PROB_FLOOR:
        raise ZeroNorm("cannot measure a zero state vector")
    bit = (np.arange(vec.size) >> (n - 1 - qubit)) & 1
    outcomes = []
    for value in (0, 1):
        keep = bit == value
        weight = float(np.sum(np.where(keep, squares, 0)))
        probability = weight / total
        if probability > PROB_FLOOR:
            post = np.where(keep, vec, 0) / math.sqrt(weight)
            outcomes.append(MeasurementOutcome(value, probability, post))
    return outcomes


@dataclass(frozen=True)
class Op:
    """One program step: gate name, qubit operands, optional angle."""

    name: str
    qubits: tuple[int, ...]
    theta: float | None = None


@dataclass(frozen=True, eq=False)
class Branch:
    """One execution branch: path probability, the recorded measurement
    outcomes in program order, and the final state vector."""

    probability: float
    outcomes: tuple[int, ...]
    state: np.ndarray


def parse_program(text: str) -> tuple[Op, ...]:
    """Parse the program text format (see module docstring)."""
    ops: list[Op] = []
    for line in meaningful_lines(text):
        name, *args = line.split()
        if name == "MEASURE":
            if len(args) != 1:
                raise ParseError(f"expected 'MEASURE <qubit>', got {line!r}")
            ops.append(Op(name, (_parse_qubit(args[0], line),)))
            continue
        if name not in _GATE_QUBITS:
            raise ParseError(f"unknown gate {name!r}")
        want = _GATE_QUBITS[name]
        theta: float | None = None
        if name in _PARAMETRIC:
            if len(args) != want + 1:
                raise ParseError(f"{name} takes an angle then {want} qubit(s): {line!r}")
            try:
                theta = float(args[0])
            except ValueError:
                theta = math.nan  # reported below, with the other non-finite angles
            if not math.isfinite(theta):
                raise ParseError(f"bad angle {args[0]!r} in {line!r}")
            args = args[1:]
        elif len(args) != want:
            raise ParseError(f"{name} takes {want} qubit(s): {line!r}")
        qubits = tuple(_parse_qubit(a, line) for a in args)
        if len(set(qubits)) != len(qubits):
            raise ParseError(f"duplicate qubit in {line!r}")
        ops.append(Op(name, qubits, theta))
    return tuple(ops)


def program_qubits(ops: Sequence[Op], n_qubits: int | None = None) -> int:
    """The qubit count: explicit if given, else inferred from the operands."""
    needed = max((q + 1 for op in ops for q in op.qubits), default=0)
    if n_qubits is None:
        n_qubits = max(needed, 1) if ops else 0
    elif n_qubits < 0:
        raise ValueError(f"qubit count must be non-negative, got {n_qubits}")
    elif n_qubits < needed:
        raise LineOutOfRange(f"program touches qubit {needed - 1}, only {n_qubits} declared")
    if n_qubits > MAX_QUBITS:
        raise TooWide(f"{n_qubits} qubits exceeds cap {MAX_QUBITS}")
    return n_qubits


def _walk(ops: Sequence[Op], n_qubits: int | None, keep) -> list[Branch]:
    """Run from the all-zero state, applying each gate to every branch. At a
    MEASURE each branch continues once for every outcome that
    `keep(path probability, outcomes)` returns, in the order returned."""
    n = program_qubits(ops, n_qubits)
    start = np.zeros(1 << n, dtype=complex)
    start[0] = 1.0
    branches = [Branch(1.0, (), start)]
    for op in ops:
        if op.name == "MEASURE":
            if op.theta is not None:
                raise ValueError("MEASURE takes no angle")
            if len(op.qubits) != 1:
                raise DimensionMismatch(f"MEASURE takes 1 qubit, got {op.qubits}")
            branches = [
                Branch(b.probability * o.probability, b.outcomes + (o.basis_value,), o.post_state)
                for b in branches
                for o in keep(b.probability, measure(b.state, op.qubits[0]))
            ]
        else:
            m = gate_matrix(op.name, op.theta)
            branches = [
                Branch(b.probability, b.outcomes, apply(m, b.state, op.qubits))
                for b in branches
            ]
    return branches


def run_program(ops: Sequence[Op], n_qubits: int | None = None) -> list[Branch]:
    """Run from the all-zero state, splitting into a branch per outcome path.

    Branches are ordered by outcome history, value 0 explored first; paths
    whose probability falls below the floor are dropped.
    """
    return _walk(
        ops, n_qubits, lambda p, results: [o for o in results if p * o.probability > PROB_FLOOR]
    )


def sample_program(
    ops: Sequence[Op], seed: int, n_qubits: int | None = None
) -> Branch:
    """Run a single stochastic path, drawing each measurement from a seeded
    generator. Returns that path as a branch with its realized probability."""
    rng = random.Random(seed)

    def pick(_p: float, results: list[MeasurementOutcome]) -> list[MeasurementOutcome]:
        draw = rng.random()
        acc = 0.0
        for outcome in results:
            acc += outcome.probability
            if draw < acc:
                return [outcome]
        return results[-1:]

    return _walk(ops, n_qubits, pick)[0]


def _parse_qubit(token: str, line: str) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ParseError(f"bad qubit index {token!r} in {line!r}") from exc
    if value < 0:
        raise ParseError(f"negative qubit index in {line!r}")
    return value
