"""Gate-level circuits over the classical reversible gate set.

Supports the four self-inverse gates NOT, CNOT, TOFFOLI (controlled-controlled
NOT) and FREDKIN (controlled swap), sequential simulation, structural circuit
inversion, exhaustive truth-table extraction, garbage projection, and the
2n-bit dual-rail embedding that realizes any reversible function
conservatively.

Netlist text format::

    lines 3              # mandatory header: number of lines
    ancilla 2 0          # line 2 is a constant-0 input
    garbage 2            # line 2 is excluded from the functional output
    TOF 0 1 2            # controls first, then targets
    NOT 1

Line 0 is the most significant bit of every word.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import LineOutOfRange, NotReversible, ParseError, TooWide, WidthMismatch
from .tables import MAX_WIDTH, BitWord, TruthTable, _check_int, _column_values, _digit_columns, is_reversible, meaningful_lines, parse_int


class GateKind(Enum):
    NOT = "NOT"
    CNOT = "CNOT"
    TOFFOLI = "TOF"
    FREDKIN = "FRED"

    @property
    def arity(self) -> int:
        return _ARITY[self]


_ARITY = {
    GateKind.NOT: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.FREDKIN: 3,
}


@dataclass(frozen=True)
class Gate:
    """A single gate: kind plus the lines it acts on, controls before targets."""

    kind: GateKind
    lines: tuple[int, ...]

    def __post_init__(self) -> None:
        lines = tuple(self.lines)
        object.__setattr__(self, "lines", lines)
        if len(lines) != self.kind.arity:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.arity} line(s), got {len(lines)}"
            )
        if len(set(lines)) != len(lines):
            raise ValueError(f"{self.kind.value} lines must be distinct: {lines}")
        if min(lines) < 0:
            raise ValueError(f"{self.kind.value} lines must be non-negative: {lines}")


def NOT(t: int) -> Gate:
    return Gate(GateKind.NOT, (t,))


def CNOT(c: int, t: int) -> Gate:
    return Gate(GateKind.CNOT, (c, t))


def TOFFOLI(c1: int, c2: int, t: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, t))


def FREDKIN(c: int, t1: int, t2: int) -> Gate:
    return Gate(GateKind.FREDKIN, (c, t1, t2))


def _check_width(gate: Gate, width: int) -> None:
    # Gate guarantees its lines are non-empty and non-negative
    if max(gate.lines) >= width:
        raise LineOutOfRange(f"{gate.kind.value} on lines {gate.lines} exceeds width {width}")


def apply_gate(gate: Gate, state: BitWord) -> BitWord:
    """Apply one gate to a full-width state word."""
    return simulate(Circuit(state.width, (gate,)), state)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over `width` named lines.

    Ancilla lines carry declared constant inputs and are not part of the free
    input word; garbage lines are retained in the raw output word but excluded
    from the functional output.
    """

    width: int
    gates: tuple[Gate, ...] = ()
    ancillas: Mapping[int, int] = field(default_factory=dict)
    garbage: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        _check_int("width", self.width)
        if self.width < 0:
            raise ValueError("width must be non-negative")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(
            self, "ancillas", MappingProxyType(dict(sorted(self.ancillas.items())))
        )
        object.__setattr__(self, "garbage", frozenset(self.garbage))
        for gate in self.gates:
            _check_width(gate, self.width)
        for line, bit in self.ancillas.items():
            _check_int("ancilla line", line)
            _check_int("ancilla constant", bit)
            if not 0 <= line < self.width:
                raise LineOutOfRange(f"ancilla line {line} exceeds width {self.width}")
            if bit not in (0, 1):
                raise ValueError(f"ancilla constant must be 0 or 1, got {bit}")
        for line in self.garbage:
            _check_int("garbage line", line)
            if not 0 <= line < self.width:
                raise LineOutOfRange(f"garbage line {line} exceeds width {self.width}")

    @property
    def free_lines(self) -> tuple[int, ...]:
        """Lines that take free input bits, in word order."""
        return tuple(i for i in range(self.width) if i not in self.ancillas)

    def check_inputs(self, inputs: BitWord) -> None:
        """Raise WidthMismatch unless `inputs` fills exactly the free lines."""
        free = self.width - len(self.ancillas)
        if inputs.width != free:
            raise WidthMismatch(f"circuit takes {free} free input bits, got {inputs.width}")

    @property
    def output_lines(self) -> tuple[int, ...]:
        """Lines forming the functional output (garbage excluded)."""
        return tuple(i for i in range(self.width) if i not in self.garbage)


def _load_columns(width: int, ancillas: Mapping[int, int], free_columns: list[int], full: int) -> list[int]:
    """One int per line: each ancilla at 0 or `full`, and the free lines taking
    the given columns in word order."""
    free = iter(free_columns)
    return [(full if ancillas[line] else 0) if line in ancillas else next(free) for line in range(width)]


def _run_gate(gate: Gate, cols: list[int], full: int) -> None:
    """Apply one gate in place to the line columns; `full` is the column with
    every row set."""
    kind, lines = gate.kind, gate.lines
    if kind is GateKind.NOT:
        cols[lines[0]] ^= full
    elif kind is GateKind.CNOT:
        cols[lines[1]] ^= cols[lines[0]]
    elif kind is GateKind.TOFFOLI:
        cols[lines[2]] ^= cols[lines[0]] & cols[lines[1]]
    else:
        c, a, b = lines
        d = cols[c] & (cols[a] ^ cols[b])
        cols[a] ^= d
        cols[b] ^= d


def _words(width: int, gates: tuple[Gate, ...], ancillas: Mapping[int, int], inputs: BitWord) -> Iterator[int]:
    """The full state word, as an int, after loading and after each gate."""
    # one-bit columns: the word is packed once, and after each gate only the
    # bits of that gate's own lines are rewritten, not the whole width
    n = inputs.width
    cols = _load_columns(width, ancillas, [inputs.value >> (n - 1 - i) & 1 for i in range(n)], 1)
    word = 0
    for bit in cols:
        word = word << 1 | bit
    yield word
    for gate in gates:
        _run_gate(gate, cols, 1)
        for line in gate.lines:
            shift = width - 1 - line
            if word >> shift & 1 != cols[line]:
                word ^= 1 << shift
        yield word


def step_states(circuit: Circuit, inputs: BitWord) -> Iterator[BitWord]:
    """Yield the full state word after loading and after each gate."""
    circuit.check_inputs(inputs)
    for word in _words(circuit.width, circuit.gates, circuit.ancillas, inputs):
        yield BitWord(circuit.width, word)


def simulate(circuit: Circuit, inputs: BitWord) -> BitWord:
    """Run the circuit on a free-input word; returns the full output word.

    Ancilla lines take their declared constants; garbage lines are retained.
    """
    circuit.check_inputs(inputs)
    *_, final = _words(circuit.width, circuit.gates, circuit.ancillas, inputs)
    return BitWord(circuit.width, final)


def _run_columns(width: int, gates: tuple[Gate, ...], ancillas: Mapping[int, int]) -> tuple[list[int], list[int]]:
    """The counting columns of the free lines, and every line's column after
    the gates, over all free-input words, ancillas held at their constants."""
    if width > MAX_WIDTH:
        raise TooWide(f"cannot enumerate {width} lines (cap {MAX_WIDTH})")
    # one int per line, bit count-1-r holding the line's value on row r, so
    # each gate is one or two big-int operations over every row at once
    n = width - len(ancillas)
    count = 1 << n
    full = (1 << count) - 1
    counting = []
    for bit in reversed(range(n)):
        # bit `bit` of the row index: 2**bit zeros, 2**bit ones, doubled out
        col, period = (1 << (1 << bit)) - 1, 2 << bit
        while period < count:
            col |= col << period
            period <<= 1
        counting.append(col)
    cols = _load_columns(width, ancillas, counting, full)
    for gate in gates:
        _run_gate(gate, cols, full)
    return counting, cols


def to_truth_table(circuit: Circuit) -> TruthTable:
    """Exhaustive table over all free-input words, ancillas held at their
    constants, garbage lines retained in the output."""
    counting, cols = _run_columns(circuit.width, circuit.gates, circuit.ancillas)
    n, count = len(counting), 1 << len(counting)
    digits = (format(col, f"0{count}b").encode("ascii") for col in cols)
    return TruthTable(n, circuit.width, _column_values(digits, circuit.width, count))


def _weight_planes(cols: list[int]) -> list[int]:
    """Bit-sliced popcount of the columns: plane i holds bit i of each row's
    count of set columns. There are as many planes as the largest count has
    bits, so two sets of columns give equal planes exactly when every row
    counts the same in both."""
    planes: list[int] = []
    for carry in cols:
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    return planes


def _column_verdicts(width: int, gates: tuple[Gate, ...], ancilla: bool = False) -> tuple[bool, bool]:
    """`is_reversible` and `is_conservative` of a netlist's table, decided on
    its line columns without building the rows."""
    # every gate is a bijection, so the gate list is one: only an ancilla,
    # which leaves fewer input bits than output bits, makes the table not
    # reversible, and then not conservative, so no gate need run
    counting, cols = _run_columns(width, () if ancilla else gates, {})
    if ancilla:
        return False, False
    # a row keeps its weight when its count of set input columns equals its
    # count of set output columns
    return True, _weight_planes(counting) == _weight_planes(cols)


def invert_circuit(circuit: Circuit) -> Circuit:
    """Structural inverse: gates in reverse order, each unchanged (all four
    kinds are self-inverse). Ancilla and garbage annotations are dropped; the
    inverse consumes the full output word as its free input."""
    return Circuit(circuit.width, tuple(reversed(circuit.gates)))


def drop_garbage(t: TruthTable, positions: frozenset[int] | set[int]) -> tuple[TruthTable, bool]:
    """Project the given output bit positions away.

    Returns the projected table and a flag that is True when the projection
    lost information, i.e. two previously distinct outputs collided.
    """
    for p in positions:
        if not 0 <= p < t.out_width:
            raise LineOutOfRange(f"output position {p} exceeds width {t.out_width}")
    keep = [p for p in range(t.out_width) if p not in positions]
    columns = _digit_columns(t.rows, t.out_width)
    rows = _column_values([columns[p] for p in keep], len(keep), len(t.rows))
    lost = len(set(rows)) < len(set(t.rows))
    return TruthTable(t.in_width, len(keep), rows), lost


def dual_rail_codeword(x: int, n: int) -> int:
    """The 2n-bit codeword carrying x on the first rail and its complement on
    the second."""
    mask = (1 << n) - 1
    return (x & mask) << n | (~x & mask)


def dual_rail_embed(f: TruthTable) -> TruthTable:
    """Embed a reversible n-bit function into 2n bits, one rail per bit plus
    its complement, and return the 2n-bit table.

    On a codeword (x, ~x) the output is (f(x), ~f(x)), so both sides always
    carry exactly n set bits: the embedding is conservative on codewords even
    when f itself is not. Off the codeword subspace the second rail is the
    complement-conjugated image of f, which keeps the embedding a bijection on
    the whole 2n-bit space.
    """
    if not is_reversible(f):
        raise NotReversible("dual-rail embedding needs a bijective base table")
    n = f.in_width
    if 2 * n > MAX_WIDTH:
        raise TooWide(f"embedding needs {2 * n} lines (cap {MAX_WIDTH})")
    size, mask = 1 << n, (1 << n) - 1
    # word (x, y) maps to (f(x), ~f(~y)); rows run over x, then y. The rows of
    # one x are the low rails as 16-bit little-endian lanes plus f(x) << n in
    # every lane, which is f(x) << n times the lane repunit.
    low = int.from_bytes(struct.pack(f"<{size}H", *(mask ^ y for y in reversed(f.rows))), "little")
    repunit = int.from_bytes(b"\1\0" * size, "little")
    words = b"".join((low + (y << n) * repunit).to_bytes(2 * size, "little") for y in f.rows)
    return TruthTable(2 * n, 2 * n, struct.unpack(f"<{size * size}H", words))


_MNEMONICS = {kind.value: kind for kind in GateKind}


def parse_circuit(text: str) -> Circuit:
    """Parse the netlist text format (see module docstring)."""
    lines = meaningful_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty netlist: missing 'lines <width>' header")
    word, *args = header.split()
    if word != "lines" or len(args) != 1:
        raise ParseError(f"expected 'lines <width>' header, got {header!r}")
    width = parse_int(args[0], header)
    if width < 0:
        raise ParseError(f"line count must be non-negative in {header!r}")
    gates: list[Gate] = []
    ancillas: dict[int, int] = {}
    garbage: set[int] = set()
    for line in lines:
        word, *args = line.split()
        try:
            if word == "ancilla":
                if len(args) != 2:
                    raise ParseError(f"expected 'ancilla <line> <0|1>', got {line!r}")
                idx, bit = (parse_int(a, line) for a in args)
                if idx in ancillas:
                    raise ValueError(f"ancilla line {idx} declared twice")
                Circuit(width, ancillas={idx: bit})
                ancillas[idx] = bit
            elif word == "garbage":
                if len(args) != 1:
                    raise ParseError(f"expected 'garbage <line>', got {line!r}")
                idx = parse_int(args[0], line)
                if idx in garbage:
                    raise ValueError(f"garbage line {idx} declared twice")
                Circuit(width, garbage={idx})
                garbage.add(idx)
            elif word in _MNEMONICS:
                gate = Gate(_MNEMONICS[word], tuple(parse_int(a, line) for a in args))
                _check_width(gate, width)
                gates.append(gate)
            else:
                raise ParseError(f"unknown directive {word!r} in {line!r}")
        except (LineOutOfRange, ValueError) as exc:
            raise ParseError(f"{exc} in {line!r}") from exc
    return Circuit(width, tuple(gates), ancillas, frozenset(garbage))


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit in the netlist text format."""
    out = [f"lines {circuit.width}"]
    for line, bit in circuit.ancillas.items():
        out.append(f"ancilla {line} {bit}")
    for line in sorted(circuit.garbage):
        out.append(f"garbage {line}")
    for gate in circuit.gates:
        out.append((gate.kind.value + " {:d}" * len(gate.lines)).format(*gate.lines))
    return "\n".join(out) + "\n"
