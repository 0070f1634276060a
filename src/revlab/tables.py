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

import re
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        _check_int("width", self.width)
        _check_int("value", self.value)
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


def _check_int(name: str, value: object) -> None:
    """Hold a record's integer field to an int that is not a bool: a bool
    would be written out as True or False, which no text format reads."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


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
        _check_int("in_width", self.in_width)
        _check_int("out_width", self.out_width)
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
        try:
            in_range = min(self.rows) >= 0 and max(self.rows) < limit
        except TypeError:
            in_range = False
        if not in_range:
            # name the first offending input, or raise as a non-int row does
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
    """True iff reversible and every row preserves Hamming weight. Weights
    are checked first, so most tables are rejected before any set is built."""
    return all(x.bit_count() == y.bit_count() for x, y in enumerate(t.rows)) and is_reversible(t)


def invert(t: TruthTable) -> TruthTable:
    """Inverse table, with rows (output, input) for each (input, output)."""
    inverse: list[int | None] = [None] * len(t.rows)
    if t.in_width == t.out_width:
        for x, y in enumerate(t.rows):
            inverse[y] = x
    # equal widths and no output repeated leave no slot unwritten
    if None in inverse:
        raise NotReversible("table is not bijective; no inverse exists")
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

    Rows are decoded a whole bit column at a time from the layout
    format_table writes, in counting order. Text in any other layout or row
    order, or with a fault, is first rewritten into that layout by a line
    loop, which raises the first fault in line order.
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
    bare = f"table {in_width} {out_width}\n"
    rows = _decode_rows(in_width, out_width, text, len(bare)) if text.startswith(bare) else None
    if rows is None:
        rows = _decode_rows(in_width, out_width, _normalised(in_width, out_width, lines), 0)
    return TruthTable(in_width, out_width, rows)


def format_table(t: TruthTable) -> str:
    """Render a table in the text format accepted by parse_table."""
    return "".join(_table_text(t))


# The fixed layout: a bare header line, then one row line of in_width + 4 +
# out_width + 1 bytes per input word, so byte column j of the body is
# body[j::line_length]. Values travel as two 8-bit lanes (low, high):
# _BIT_VALUE[b] maps a digit to bit b of a lane byte, and _BIT_TEXT[b] back.
_ONES_AS_ZEROS = bytes.maketrans(b"1", b"0")
_CHECK_ROWS = 4096
_BIT_VALUE = [bytes.maketrans(b"01", bytes([0, 1 << bit])) for bit in range(8)]


def _zero_row(in_width: int, out_width: int) -> bytes:
    """A row line of the fixed layout with every digit '0'."""
    return b"0" * in_width + b" -> " + b"0" * out_width + b"\n"


def _counting_columns(width: int) -> list[bytes]:
    """The digit columns of the words 0 .. 2**width - 1 in order, most
    significant first: bit b reads 2**b zeros, 2**b ones, and so on."""
    return [
        (b"0" * (1 << bit) + b"1" * (1 << bit)) * (1 << width >> bit + 1)
        for bit in reversed(range(width))
    ]


_BIT_TEXT = _counting_columns(8)[::-1]


def _table_text(t: TruthTable) -> Iterator[str]:
    """The text of format_table: the header, then the row lines in blocks of
    _CHECK_ROWS, each built a byte column at a time. Every block repeats the
    low input digits, and the high ones are constant within it."""
    n, m = t.in_width, t.out_width
    yield f"table {n} {m}\n"
    low = min(n, _CHECK_ROWS.bit_length() - 1)
    rows, length = 1 << low, n + m + 5
    block = bytearray(_zero_row(n, m) * rows)
    for j, column in enumerate(_counting_columns(low)):
        block[n - low + j :: length] = column
    for at in range(0, 1 << n, rows):
        for j, digit in enumerate(bit_string(at >> low, n - low)):
            block[j::length] = digit.encode() * rows
        for j, column in enumerate(_digit_columns(t.rows[at : at + rows], m)):
            block[n + 4 + j :: length] = column
        yield block.decode("ascii")


def _decode_rows(in_width: int, out_width: int, text: str, start: int) -> tuple[int, ...] | None:
    """The rows of the fixed-layout body that begins at text[start], or None
    when the body is not ASCII, has the wrong length, has a byte out of place
    or lists its inputs out of counting order. The str is read in strided
    slices, and only one check block or one column is encoded at a time."""
    size, length = 1 << in_width, in_width + out_width + 5
    if not text.isascii() or len(text) - start != length << in_width:
        return None
    # size and _CHECK_ROWS are powers of two, so the blocks tile the body
    zeros = _zero_row(in_width, out_width) * min(size, _CHECK_ROWS)
    step = len(zeros)
    if any(text[at : at + step].encode().translate(_ONES_AS_ZEROS) != zeros for at in range(start, len(text), step)):
        return None
    if any(text[start + j :: length].encode() != column for j, column in enumerate(_counting_columns(in_width))):
        return None
    return _column_values((text[start + in_width + 4 + j :: length].encode() for j in range(out_width)), out_width, size)


def _column_values(columns: Iterable[bytes], width: int, count: int) -> tuple[int, ...]:
    """The count values of at most 16 bits whose digits are the given width
    digit columns, most significant first; each column holds count '0' or
    '1' bytes, one per value. Columns are read one at a time, so a generator
    keeps only one in memory."""
    lanes = [0, 0]
    for bit, column in zip(reversed(range(width)), columns):
        lanes[bit >> 3] |= int.from_bytes(column.translate(_BIT_VALUE[bit & 7]), "little")
    words = bytearray(2 * count)
    words[0::2] = lanes[0].to_bytes(count, "little")
    words[1::2] = lanes[1].to_bytes(count, "little")
    return struct.unpack(f"<{count}H", words)


def _digit_columns(values: Sequence[int], width: int) -> list[bytes]:
    """The digit text of each bit column of width-bit values, most
    significant first."""
    raw = struct.pack(f"<{len(values)}H", *values)
    lanes = raw[0::2], raw[1::2]
    return [lanes[bit >> 3].translate(_BIT_TEXT[bit & 7]) for bit in reversed(range(width))]


def _normalised(in_width: int, out_width: int, lines: Iterator[str]) -> str:
    """The row lines of a table rewritten into the fixed layout, one line at
    a time, and sorted into counting order: spacing and row order do not
    matter. Raises the first fault in line order."""
    seen: set[str] = set()
    body = []
    for line in lines:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected 'bits -> bits', got {line!r}")
        try:
            src, dst = bit_digits(parts[0]), bit_digits(parts[1])
        except ParseError as exc:
            raise ParseError(f"{exc} in {line!r}") from exc
        if len(src) != in_width or len(dst) != out_width:
            raise ParseError(f"row {line!r} does not match table widths")
        if src in seen:
            raise ParseError(f"input {src} listed twice in {line!r}")
        seen.add(src)
        body.append(f"{src} -> {dst}\n")
    missing = (1 << in_width) - len(seen)
    if missing:
        raise ParseError(f"{missing} input word(s) unlisted")
    # the input digits are fixed-width, so string order is counting order
    return "".join(sorted(body))


def meaningful_lines(text: str) -> Iterator[str]:
    """The non-blank lines of an input file, stripped, with '#' comments
    removed, for every text format the toolkit reads. The text past the
    first is split into lines only when the caller reads on."""
    for match in _LINE_TEXT.finditer(text):
        for line in _uncommented([match.group()]):
            yield line
            yield from _uncommented(text[match.end() :].splitlines())
            return


# A run of anything but the line breaks str.splitlines knows is one line's text.
_LINE_TEXT = re.compile("[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


def _uncommented(raws: Iterable[str]) -> Iterator[str]:
    """The raw lines that hold more than blanks and a '#' comment, stripped."""
    return filter(None, (raw.split("#", 1)[0].strip() for raw in raws))


def parse_int(token: str, line: str) -> int:
    """The integer a token spells, quoting its line when it spells none.
    Shared by every text format the toolkit reads."""
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad integer {token!r} in {line!r}") from exc
