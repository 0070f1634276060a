"""Truth-table layer: words, dense tables, predicates, text format."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revlab import (
    BitWord,
    NotReversible,
    ParseError,
    TruthTable,
    WidthMismatch,
    compose,
    format_table,
    invert,
    is_conservative,
    is_reversible,
    parse_circuit,
    parse_program,
    parse_table,
    tables,
)

# the four canonical two-bit examples: a controlled flip, a lossy overwrite,
# a wire swap, and a value rotation
CONTROLLED_FLIP = TruthTable(2, 2, (0, 1, 3, 2))
LOSSY = TruthTable(2, 2, (1, 3, 3, 0))
SWAP = TruthTable(2, 2, (0, 2, 1, 3))
ROTATE = TruthTable(2, 2, (3, 2, 0, 1))


def test_bitword_str_is_msb_first():
    word = BitWord(4, 0b1010)
    assert str(word) == "1010"
    assert word.bit(0) == 1
    assert word.bit(1) == 0
    assert word.bit(3) == 0
    assert word.weight == 2


def test_bitword_round_trip():
    for width in range(0, 9):
        for value in range(min(1 << width, 40)):
            word = BitWord(width, value)
            assert BitWord.from_string(str(word)) == word


def test_bitword_zero_width():
    word = BitWord(0, 0)
    assert str(word) == ""
    assert BitWord.from_string("") == word
    assert word.weight == 0


def test_bitword_validation():
    with pytest.raises(ValueError):
        BitWord(2, 4)
    with pytest.raises(ValueError):
        BitWord(-1, 0)
    with pytest.raises(ParseError):
        BitWord.from_string("01x1")
    for line in (-1, 2):
        with pytest.raises(IndexError, match="out of range for width 2"):
            BitWord(2, 1).bit(line)


def test_width_cap_binds_tables_not_words():
    # a word is one value, so any width is fine; a table lists every input
    word = BitWord.from_string("1" * 17)
    assert word == BitWord(17, (1 << 17) - 1)
    assert str(BitWord(20, 5)) == "0" * 17 + "101"
    with pytest.raises(ValueError):
        TruthTable(17, 17, ())
    with pytest.raises(ValueError, match="out_width must be in 0..16"):
        TruthTable(1, 17, (0, 1))
    with pytest.raises(ParseError):
        parse_table("table 17 17\n")


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        TruthTable(1, 1, (0, 2))
    with pytest.raises(ValueError):
        TruthTable(1, 1, (0, -1))


def test_truth_table_names_the_first_row_out_of_range():
    with pytest.raises(ValueError, match=r"^output 5 of input 1 does not fit in 2 bits$"):
        TruthTable(2, 2, (0, 5, 7, 1))
    with pytest.raises(ValueError, match=r"^output -1 of input 2 does not fit in 2 bits$"):
        TruthTable(2, 2, (0, 1, -1, 9))
    with pytest.raises(TypeError, match=r"^'<=' not supported between instances of 'int' and 'str'$"):
        TruthTable(1, 1, (0, "1"))


def test_truth_table_apply():
    out = CONTROLLED_FLIP.apply(BitWord(2, 0b10))
    assert out == BitWord(2, 0b11)
    assert CONTROLLED_FLIP(0b10) == 0b11
    with pytest.raises(WidthMismatch):
        CONTROLLED_FLIP.apply(BitWord(3, 0))


def test_canonical_tables_classify_as_published():
    assert is_reversible(CONTROLLED_FLIP) and not is_conservative(CONTROLLED_FLIP)
    assert not is_reversible(LOSSY) and not is_conservative(LOSSY)
    assert is_reversible(SWAP) and is_conservative(SWAP)
    assert is_reversible(ROTATE) and not is_conservative(ROTATE)


def test_conservative_implies_reversible():
    rng = random.Random(101)
    for _ in range(200):
        width = rng.randint(1, 3)
        size = 1 << width
        rows = tuple(rng.randrange(size) for _ in range(size))
        table = TruthTable(width, width, rows)
        if is_conservative(table):
            assert is_reversible(table)


def test_unequal_widths_never_reversible():
    widening = TruthTable(1, 2, (0, 3))
    assert not is_reversible(widening)
    assert not is_conservative(widening)


def test_invert_known_value():
    assert invert(ROTATE).rows == (2, 3, 1, 0)


def test_invert_round_trip_random_permutations():
    rng = random.Random(77)
    for _ in range(60):
        width = rng.randint(1, 6)
        rows = list(range(1 << width))
        rng.shuffle(rows)
        table = TruthTable(width, width, tuple(rows))
        back = invert(table)
        assert invert(back) == table
        # compose evaluates every input word, so equality with the identity
        # table is an exhaustive round-trip check at this width
        assert compose(table, back) == TruthTable.identity(width)
        assert compose(back, table) == TruthTable.identity(width)


def test_reversibility_check_agrees_with_word_count():
    # two equivalent bijectivity criteria: no duplicate outputs vs
    # every output word appearing exactly once
    rng = random.Random(78)
    for _ in range(200):
        width = rng.randint(1, 4)
        size = 1 << width
        if rng.random() < 0.5:
            rows = [rng.randrange(size) for _ in range(size)]
        else:
            rows = list(range(size))
            rng.shuffle(rows)
        table = TruthTable(width, width, tuple(rows))
        assert is_reversible(table) == (sorted(rows) == list(range(size)))


def test_invert_rejects_lossy():
    with pytest.raises(NotReversible):
        invert(LOSSY)


def test_compose_applies_left_then_right():
    # rotate after swap: x -> rotate(swap(x))
    both = compose(SWAP, ROTATE)
    for x in range(4):
        assert both(x) == ROTATE(SWAP(x))
    with pytest.raises(WidthMismatch):
        compose(TruthTable(1, 2, (0, 3)), TruthTable.identity(1))


def test_parse_format_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        in_w = rng.randint(0, 3)
        out_w = rng.randint(0, 3)
        rows = tuple(rng.randrange(1 << out_w) for _ in range(1 << in_w))
        table = TruthTable(in_w, out_w, rows)
        assert parse_table(format_table(table)) == table


@pytest.mark.parametrize(
    "in_width, out_width", [(0, 0), (7, 9), (8, 8), (9, 7), (15, 16), (16, 15), (16, 0)]
)
def test_parse_format_round_trip_where_the_lanes_split(in_width, out_width):
    rng = random.Random(in_width * 17 + out_width)
    rows = tuple(rng.randrange(1 << out_width) for _ in range(1 << in_width))
    table = TruthTable(in_width, out_width, rows)
    header, *lines = format_table(table).splitlines(keepends=True)
    assert parse_table(header + "".join(lines)) == table
    rng.shuffle(lines)  # inputs out of order take the line loop
    assert parse_table(header + "".join(lines)) == table


def assert_same_text(got, want):
    """got == want, failing with the first differing line and both lengths;
    pytest's own diff of two megabyte texts takes minutes."""
    if got != want:
        lines = enumerate(zip(got.split("\n"), want.split("\n")), 1)
        where = next((f"line {i}, {a!r} != {b!r}" for i, (a, b) in lines if a != b), "the end of the shorter")
        pytest.fail(f"texts differ at {where}; lengths {len(got)} and {len(want)}")


def reference_format_table(t):
    """format_table one f-string per row."""
    def bits(value, width):
        return f"{value:0{width}b}" if width else ""

    rows = (f"{bits(x, t.in_width)} -> {bits(y, t.out_width)}\n" for x, y in enumerate(t.rows))
    return f"table {t.in_width} {t.out_width}\n" + "".join(rows)


@pytest.mark.parametrize("in_width", range(17))
def test_format_table_writes_what_a_per_row_formatter_writes(in_width):
    out_width = 16 - in_width if in_width != 8 else 7
    rng = random.Random(in_width)
    rows = tuple(rng.randrange(1 << out_width) for _ in range(1 << in_width))
    table = TruthTable(in_width, out_width, rows)
    assert_same_text(format_table(table), reference_format_table(table))


@pytest.mark.parametrize("in_width, out_width", [(0, 1), (1, 0), (7, 9), (8, 5), (9, 8), (16, 11)])
def test_a_formatted_table_is_read_without_the_line_loop(monkeypatch, in_width, out_width):
    rng = random.Random(in_width)
    table = TruthTable(in_width, out_width, tuple(rng.randrange(1 << out_width) for _ in range(1 << in_width)))
    text = format_table(table)

    def line_loop(*args):
        raise AssertionError("the line loop ran")

    with monkeypatch.context() as patch:
        patch.setattr(tables, "_normalised", line_loop)
        assert parse_table(text) == table
        with pytest.raises(AssertionError, match="the line loop ran"):
            parse_table("# a comment\n" + text)
    assert parse_table("# a comment\n" + text) == table


# the rows come from a seeded Random: drawn one by one, 2^16 of them would
# overrun hypothesis's buffer, and every wide example would be discarded
@given(st.integers(0, 16), st.integers(0, 16), st.integers(0, 2**32))
@example(12, 5, 12)  # one full block
@example(13, 5, 13)  # two blocks
@settings(deadline=None)
def test_the_block_writer_writes_what_a_per_row_formatter_writes(in_width, out_width, seed):
    rng = random.Random(seed)
    table = TruthTable(in_width, out_width, tuple(rng.randrange(1 << out_width) for _ in range(1 << in_width)))
    assert_same_text("".join(tables._table_text(table)), reference_format_table(table))


@pytest.mark.parametrize("header", ["table 016 16\n", "# widths\ntable 16 16\n", "table 16 16 # widths\n"])
def test_a_fixed_layout_body_behind_another_header_is_read_the_same(header):
    # the fast path takes only the bare header it would write; behind any
    # other the body is read from where that header ends
    rng = random.Random(0)
    rows = list(range(1 << 16))
    rng.shuffle(rows)
    table = TruthTable(16, 16, tuple(rows))
    body = format_table(table).split("\n", 1)[1]
    assert parse_table(header + body) == table


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_16_bit_table_text_is_read_and_written_without_a_spare_copy():
    # parse: the text is read in strided slices, so while a permutation's
    # rows are decoded only the output values and one column are alive,
    # about 1.3 text sizes; a copy of the body as bytes takes the peak to
    # 2.3. format: the blocks and the text they are joined into, 2.0.
    rng = random.Random(16)
    rows = list(range(1 << 16))
    rng.shuffle(rows)
    table = TruthTable(16, 16, tuple(rows))
    text = format_table(table)
    parsed, parse_peak = traced_peak(parse_table, text)
    written, format_peak = traced_peak(format_table, table)
    assert parsed == table and written == text
    assert parse_peak <= 1.6 * len(text)
    assert format_peak <= 2.5 * len(text)


@pytest.mark.parametrize("prefix, line_end", [("# a comment\n", "\n"), ("", "\r\n")], ids=["comment", "crlf"])
def test_a_16_bit_table_text_in_another_layout_is_read_in_slots(prefix, line_end):
    # the line loop writes each row line into its input word's slot, and the
    # column decoder reads the joined slots: about 3.5 text sizes at the
    # peak; a list of every line of the text took it to 5.1
    rng = random.Random(16)
    rows = list(range(1 << 16))
    rng.shuffle(rows)
    table = TruthTable(16, 16, tuple(rows))
    text = prefix + format_table(table).replace("\n", line_end)
    parsed, peak = traced_peak(parse_table, text)
    assert parsed == table
    assert peak <= 4.0 * len(text)


def test_parse_table_text():
    text = """
    # a controlled flip
    table 2 2
    00 -> 00
    01 -> 01
    10 -> 11
    11 -> 10
    """
    assert parse_table(text) == CONTROLLED_FLIP


@pytest.mark.parametrize(
    "text",
    [
        "",
        "table 1 1\n0 -> 0\n",  # missing input row
        "table 1 1\n0 -> 0\n0 -> 1\n1 -> 1\n",  # duplicate input
        "table 1 1\n0 -> 00\n1 -> 1\n",  # output width mismatch
        "table 1 1\n00 -> 0\n1 -> 1\n",  # input width mismatch
        "table 1\n0 -> 0\n1 -> 1\n",  # malformed header
        "table 1 1\n0 = 0\n1 = 1\n",  # malformed row
        "nonsense 1 1\n",
        "table a b\n",  # widths not integers
    ],
)
def test_parse_table_rejects(text):
    with pytest.raises(ParseError):
        parse_table(text)


@pytest.mark.parametrize(
    "parse, text, token, line",
    [
        (parse_table, "table x 2\n", "x", "table x 2"),
        (parse_circuit, "lines w\n", "w", "lines w"),
        (parse_circuit, "lines 2\nCNOT 0 y\n", "y", "CNOT 0 y"),
        (parse_program, "H z\n", "z", "H z"),
        (parse_program, "IZZ 0.5 0 q\n", "q", "IZZ 0.5 0 q"),
    ],
)
def test_every_format_reports_a_bad_integer_alike(parse, text, token, line):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"bad integer {token!r} in {line!r}"
