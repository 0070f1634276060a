"""Truth-table core: fixed-width bit words, dense total logic tables, and the
two defining predicates of reversible logic.

A table is *reversible* when it is bijective (inputs are recoverable from
outputs) and *conservative* when it is reversible and every row preserves the
Hamming weight of its word. Tables are stored densely, indexed by the input
word, which caps widths at 16 bits and makes every predicate an exhaustive
check.

Bit strings are written most-significant line first: line 0 is the leftmost
character, so the string is the plain binary rendering of the word value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotReversible, ParseError, WidthMismatch

MAX_WIDTH = 16


@dataclass(frozen=True)
class BitWord:
    """An unsigned word of a fixed bit width.

    Width 0 (the empty word) is allowed so that circuits with no free lines
    can still be simulated. Words are not capped: only tables, which list
    every input word, are held to MAX_WIDTH.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @property
    def weight(self) -> int:
        """Number of set bits."""
        return self.value.bit_count()

    def bit(self, line: int) -> int:
        """Bit carried on the given line (line 0 is most significant)."""
        if not 0 <= line < self.width:
            raise IndexError(f"line {line} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - line)) & 1

    def __str__(self) -> str:
        return bit_string(self.value, self.width)

    @classmethod
    def from_string(cls, bits: str) -> BitWord:
        bits = bit_digits(bits)
        return cls(len(bits), int(bits or "0", 2))


def bit_digits(token: str) -> str:
    """The stripped token, checked to hold only '0' and '1'; its length is
    the word width."""
    bits = token.strip()
    if bits.strip("01"):
        raise ParseError(f"bad bit string {bits!r}")
    return bits


def bit_string(value: int, width: int) -> str:
    """The width-bit binary rendering of value, the inverse of bit_digits."""
    return format(value, f"0{width}b") if width else ""


@dataclass(frozen=True)
class TruthTable:
    """Total mapping from every in_width-bit word to an out_width-bit word.

    rows[x] is the output word for input x, so the table always covers all
    2**in_width inputs exactly once. Tables with in_width != out_width are
    representable (they model plain irreversible functions) but can never be
    reversible.
    """

    in_width: int
    out_width: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.in_width <= MAX_WIDTH:
            raise ValueError(f"in_width must be in 0..{MAX_WIDTH}")
        if not 0 <= self.out_width <= MAX_WIDTH:
            raise ValueError(f"out_width must be in 0..{MAX_WIDTH}")
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != 1 << self.in_width:
            raise ValueError(
                f"need {1 << self.in_width} rows for {self.in_width} input bits, "
                f"got {len(self.rows)}"
            )
        limit = 1 << self.out_width
        for x, y in enumerate(self.rows):
            if not 0 <= y < limit:
                raise ValueError(
                    f"output {y} of input {x} does not fit in {self.out_width} bits"
                )

    def __call__(self, x: int) -> int:
        return self.rows[x]

    def apply(self, word: BitWord) -> BitWord:
        if word.width != self.in_width:
            raise WidthMismatch(
                f"table expects {self.in_width}-bit inputs, got {word.width}"
            )
        return BitWord(self.out_width, self.rows[word.value])

    @classmethod
    def identity(cls, width: int) -> TruthTable:
        return cls(width, width, tuple(range(1 << width)))


def is_reversible(t: TruthTable) -> bool:
    """True iff the table is bijective: equal widths and no output repeats."""
    if t.in_width != t.out_width:
        return False
    return len(set(t.rows)) == len(t.rows)


def is_conservative(t: TruthTable) -> bool:
    """True iff reversible and every row preserves Hamming weight."""
    if not is_reversible(t):
        return False
    return all(x.bit_count() == y.bit_count() for x, y in enumerate(t.rows))


def invert(t: TruthTable) -> TruthTable:
    """Inverse table, with rows (output, input) for each (input, output)."""
    if not is_reversible(t):
        raise NotReversible("table is not bijective; no inverse exists")
    inverse = [0] * len(t.rows)
    for x, y in enumerate(t.rows):
        inverse[y] = x
    return TruthTable(t.out_width, t.in_width, tuple(inverse))


def compose(f: TruthTable, g: TruthTable) -> TruthTable:
    """Table of x -> g(f(x))."""
    if f.out_width != g.in_width:
        raise WidthMismatch(
            f"cannot feed {f.out_width}-bit outputs into a {g.in_width}-bit table"
        )
    return TruthTable(f.in_width, g.out_width, tuple(g.rows[y] for y in f.rows))


def parse_table(text: str) -> TruthTable:
    """Parse the table text format.

    First meaningful line is ``table <in_width> <out_width>``, then one
    ``bits -> bits`` row per line. '#' starts a comment. Every input word must
    be listed exactly once; unlisted or repeated inputs are an error.
    """
    lines = meaningful_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty table file")
    head = header.split()
    if len(head) != 3 or head[0] != "table":
        raise ParseError(f"expected 'table <in_width> <out_width>', got {header!r}")
    in_width, out_width = parse_int(head[1], header), parse_int(head[2], header)
    if not 0 <= in_width <= MAX_WIDTH or not 0 <= out_width <= MAX_WIDTH:
        raise ParseError(f"table widths must be in 0..{MAX_WIDTH} in {header!r}")

    rows: dict[int, int] = {}
    for line in lines:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected 'bits -> bits', got {line!r}")
        src, dst = bit_digits(parts[0]), bit_digits(parts[1])
        if len(src) != in_width or len(dst) != out_width:
            raise ParseError(f"row {line!r} does not match table widths")
        x = int(src or "0", 2)
        if x in rows:
            raise ParseError(f"input {src} listed twice")
        rows[x] = int(dst or "0", 2)
    missing = (1 << in_width) - len(rows)
    if missing:
        raise ParseError(f"{missing} input word(s) unlisted")
    return TruthTable(in_width, out_width, tuple(rows[x] for x in range(1 << in_width)))


def format_table(t: TruthTable) -> str:
    """Render a table in the text format accepted by parse_table."""
    out = [f"table {t.in_width} {t.out_width}"]
    for x, y in enumerate(t.rows):
        out.append(f"{bit_string(x, t.in_width)} -> {bit_string(y, t.out_width)}")
    return "\n".join(out) + "\n"


def meaningful_lines(text: str) -> Iterator[str]:
    """The non-blank lines of an input file, stripped, with '#' comments
    removed. Shared by every text format the toolkit reads."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return (line for line in stripped if line)


def parse_int(token: str, line: str) -> int:
    """The integer a token spells, quoting its line when it spells none.
    Shared by every text format the toolkit reads."""
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad integer {token!r} in {line!r}") from exc
