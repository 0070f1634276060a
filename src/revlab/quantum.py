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
from typing import Iterator, Sequence

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
from .tables import TruthTable, is_reversible, meaningful_lines, parse_int

MAX_QUBITS = 10
UNITARY_TOL = 1e-10
PROB_FLOOR = 1e-12

_PARAMETRIC = {"RX", "IZZ"}
_OP_QUBITS = {"RX": 1, "H": 1, "IZZ": 2, "T": 1, "MEASURE": 1}


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
        return np.array([[1, 0, 0, 0], [0, p, 0, 0], [0, 0, p, 0], [0, 0, 0, 1]], dtype=complex)
    if name == "T":
        return np.array([[1, 0], [0, 1j]], dtype=complex)
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
    n = max(vec.size.bit_length() - 1, 0)
    if vec.size != 1 << n:
        raise DimensionMismatch(f"state length {vec.size} is not a power of two")
    return vec, n


def _operator(matrix: np.ndarray, targets: Sequence[int], n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The operator as a complex matrix and its targets as a tuple, after
    checking that they fit together and fit n qubits."""
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
    return m, targets


# Rows per block of branch states. A block's temporaries stay small (256 KiB
# at 10 qubits), and a walk goes depth first, one block at a time, so it holds
# little beyond the blocks on its path.
_BLOCK = 16
# Amplitudes a walk may pop, summed over its blocks, so that work whose
# branches the floor drops counts too. The widest walk the workloads run, 1024
# branches of 10 qubits, pops 1 + 2 + ... + 1024 rows: 2047 * 2^10, within it.
_WALK_CAP = 1 << 21


def _apply_rows(m: np.ndarray, stack: np.ndarray, n: int, targets: tuple[int, ...]) -> None:
    """Apply m to the target qubits of every row of a (rows, 2^n) stack, in
    place.

    Each row is viewed as a (2^k, 2^(n-k)) matrix for its k targets, the
    targets in matrix order, then the other qubits in qubit order. One
    batched product multiplies each row's matrix by m, so each row gets the
    bytes it would get alone, and is written back through the transposed
    view.
    """
    order = [0, *(1 + t for t in targets), *(1 + q for q in range(n) if q not in targets)]
    x = stack.reshape(-1, *(2,) * n).transpose(order)
    x[...] = (m @ x.reshape(len(stack), len(m), -1)).reshape(x.shape)


def apply(matrix: np.ndarray, state: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a k-qubit operator to the given target qubits of a state vector.

    Targets are matrix qubit order: targets[0] is the operator's most
    significant qubit.
    """
    vec, n = _check_state(state)
    m, targets = _operator(matrix, targets, n)
    out = vec.reshape(1, -1).copy()
    _apply_rows(m, out, n, targets)
    return out.reshape(-1)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One result of a projective measurement: the observed basis value, its
    probability, and the renormalized post-measurement state."""

    basis_value: int
    probability: float
    post_state: np.ndarray


def _check_qubit(qubit: int, n: int) -> int:
    if not 0 <= qubit < n:
        raise LineOutOfRange(f"qubit {qubit} out of range for {n} qubit(s)")
    return qubit


def _weights(block: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's squared norm, and its weights where the qubit reads 0 and
    1, as a (rows,) and a (2, rows) array."""
    # a (2, 2^n) array: row v is true where the qubit reads v
    masks = np.arange(2)[:, None] == (np.arange(1 << n) >> (n - 1 - qubit)) & 1
    with np.errstate(over="ignore"):  # an overflow is reported by _measured
        squares = np.abs(block) ** 2
        totals = np.sum(squares, axis=1)
        weights = np.array([np.sum(np.where(mask, squares, 0), axis=1) for mask in masks])
    return totals, weights


def _measured(block: np.ndarray, paths: list[tuple[float, tuple[int, ...]]], n: int, qubit: int, keep):
    """Measure the qubit in every row of a block: each (probability,
    outcomes) path continues once for every (value, probability) outcome
    above the floor, value 0 first, that `keep(path probability, outcomes)`
    returns, in the order returned. Raises for the first row that cannot be
    measured.

    Returns each new block, of at most _BLOCK rows, with its paths. A
    new row is its old row's amplitudes where the qubit reads the value,
    divided by the root of the value's weight, and +0 elsewhere, as dividing
    a zero would give."""
    totals, weights = _weights(block, n, qubit)
    bad = ~np.isfinite(totals) | (totals < sys.float_info.min / PROB_FLOOR)
    if bad.any():
        total = float(totals[bad.argmax()])
        if not math.isfinite(total):
            raise ValueError(f"cannot measure a state of squared norm {total}")
        raise ZeroNorm("cannot measure a zero state vector")
    picks, kept = [], []
    for row, ((probability, outcomes), results) in enumerate(zip(paths, (weights / totals).T.tolist())):
        for value, p in keep(probability, [o for o in enumerate(results) if o[1] > PROB_FLOOR]):
            picks.append((row, value))
            kept.append((probability * p, outcomes + (value,)))
    scale = np.sqrt(weights[[v for _, v in picks], [r for r, _ in picks]])
    sources = block.reshape(len(block), 1 << qubit, 2, -1)
    out = []
    for a in range(0, len(picks), _BLOCK):
        chunk = picks[a : a + _BLOCK]
        new = np.zeros((len(chunk), 1 << n), dtype=complex)
        halves = new.reshape(len(chunk), 1 << qubit, 2, -1)
        for i, (r, v) in enumerate(chunk):
            np.divide(sources[r, :, v], scale[a + i], out=halves[i, :, v])
        out.append((new, kept[a : a + _BLOCK]))
    return out


def measure(state: np.ndarray, qubit: int) -> list[MeasurementOutcome]:
    """Measure one qubit in the computational basis.

    Returns the outcomes with probability above a small floor, value 0 first.
    A state cannot be measured when its squared norm is not finite, or is
    too small for a kept outcome's weight to be a normal float (zero is).
    """
    vec, n = _check_state(state)
    # the probabilities sum to about 1, so one or two rows: one new block
    ((posts, paths),) = _measured(vec[None], [(1.0, ())], n, _check_qubit(qubit, n), lambda _p, results: results)
    return [MeasurementOutcome(v, p, post) for (p, (v,)), post in zip(paths, posts)]


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
        if name not in _OP_QUBITS:
            raise ParseError(f"unknown gate {name!r} in {line!r}")
        want = _OP_QUBITS[name]
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
        qubits = tuple(parse_int(a, line) for a in args)
        if min(qubits) < 0:  # every op names at least one qubit
            raise ParseError(f"negative qubit index in {line!r}")
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


def _walk(ops: Sequence[Op], n_qubits: int | None, keep) -> Iterator[Branch]:
    """Run from the all-zero state, yielding each branch in outcome order. At
    a MEASURE each branch continues once for every (value, probability)
    outcome that `keep(path probability, outcomes)` returns, in the order
    returned.

    Every op is checked before the first runs. The walk then goes depth
    first over a stack of (next op, block, paths): a block of at most _BLOCK
    rows runs its gates up to the next MEASURE, whose new blocks are pushed
    so that the first runs first. A row's bytes do not depend on its
    block-mates, so each branch has the bytes it would have in any block, and
    only the blocks on one path of the walk are alive at a time. A walk whose
    popped blocks would hold more than _WALK_CAP amplitudes raises TooWide."""
    n = program_qubits(ops, n_qubits)
    steps = []  # a qubit to measure, or a gate's operator and targets
    for op in ops:
        if op.name != "MEASURE":
            steps.append(_operator(gate_matrix(op.name, op.theta), op.qubits, n))
        elif op.theta is not None:
            raise ValueError("MEASURE takes no angle")
        elif len(op.qubits) != 1:
            raise DimensionMismatch(f"MEASURE takes 1 qubit, got {op.qubits}")
        else:
            steps.append(_check_qubit(op.qubits[0], n))
    stack = [(0, np.eye(1, 1 << n, dtype=complex), [(1.0, ())])]
    walked = 0
    while stack:
        i, block, paths = stack.pop()
        walked += block.size
        if walked > _WALK_CAP:
            raise TooWide(f"the branch walk passes {_WALK_CAP} amplitudes; sample one path instead")
        while i < len(steps) and isinstance(steps[i], tuple):
            m, targets = steps[i]
            _apply_rows(m, block, n, targets)
            i += 1
        if i == len(steps):
            yield from (Branch(p, outcomes, state) for (p, outcomes), state in zip(paths, block))
        else:
            stack.extend((i + 1, *new) for new in reversed(_measured(block, paths, n, steps[i], keep)))


def _kept(probability: float, results: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """run_program's keep-policy: the outcomes whose path stays above the floor."""
    return [(v, q) for v, q in results if probability * q > PROB_FLOOR]


def run_program(ops: Sequence[Op], n_qubits: int | None = None) -> list[Branch]:
    """Run from the all-zero state, splitting into a branch per outcome path.

    Branches are ordered by outcome history, value 0 explored first; paths
    whose probability falls below the floor are dropped. Raises TooWide when
    the walk would pass 2^21 amplitudes, summed over the rows of every
    measured and every final block.
    """
    return list(_walk(ops, n_qubits, _kept))


def sample_program(
    ops: Sequence[Op], seed: int, n_qubits: int | None = None
) -> Branch:
    """Run a single stochastic path, drawing each measurement from a seeded
    generator. Returns that path as a branch with its realized probability."""
    rng = random.Random(seed)
    # measure gives one or two outcomes, value 0 first: one draw picks between them
    return next(
        _walk(ops, n_qubits, lambda _p, results: results[:1] if rng.random() < results[0][1] else results[-1:])
    )
