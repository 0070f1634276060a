"""Command-line round trips, exit codes, and output stability."""

import argparse
import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revlab import (
    BitWord,
    TruthTable,
    dual_rail_embed,
    format_table,
    parse_circuit,
    parse_program,
    parse_table,
    run_program,
    sci6,
    simulate,
)
from revlab.cli import _build_parser, main

CONTROLLED_FLIP_TABLE = """table 2 2
00 -> 00
01 -> 01
10 -> 11
11 -> 10
"""

LOSSY_TABLE = """table 2 2
00 -> 01
01 -> 11
10 -> 11
11 -> 00
"""

CNOT_NET = "lines 2\nCNOT 0 1\n"

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reversible_table(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert out == "reversible: yes, conservative: no\n"


def test_check_lossy_table_exits_one(files, capsys):
    path = files("lossy.tbl", LOSSY_TABLE)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 1
    assert out == "reversible: no, conservative: no\n"


def test_check_json_payload(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, out, _ = run_cli(capsys, "check", "--format", "json", path)
    assert code == 0
    assert json.loads(out) == {"reversible": True, "conservative": False}


def test_check_circuit_netlist(files, capsys):
    path = files("cnot.net", CNOT_NET)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert "reversible: yes" in out


def test_sim_circuit(files, capsys):
    path = files("cnot.net", CNOT_NET)
    code, out, _ = run_cli(capsys, "sim", path, "--input", "10")
    assert code == 0
    assert out == "11\n"


def test_sim_table(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, out, _ = run_cli(capsys, "sim", path, "--input", "11")
    assert code == 0
    assert out == "10\n"


def test_sim_requires_input_flag(files, capsys):
    path = files("cnot.net", CNOT_NET)
    with pytest.raises(SystemExit) as exc:
        main(["sim", path])
    assert exc.value.code == 2


def test_sim_bad_bits_is_usage_error(files, capsys):
    path = files("cnot.net", CNOT_NET)
    code, _, err = run_cli(capsys, "sim", path, "--input", "10x")
    assert code == 2
    assert "sim" in err


WIDE_NET = "lines 17\nCNOT 0 16\nNOT 8\n"


def test_sim_is_not_capped_at_table_width(files, capsys):
    path = files("wide.net", WIDE_NET)
    code, out, err = run_cli(capsys, "sim", path, "--input", "1" + "0" * 16)
    assert (code, err) == (0, "")
    assert out == "1" + "0" * 7 + "1" + "0" * 7 + "1\n"


def test_energy_past_the_cap_is_a_domain_error(files, capsys):
    path = files("wide.net", WIDE_NET)
    code, out, err = run_cli(capsys, "energy", path, "--input", "0" * 17)
    assert (code, out) == (1, "")
    assert err == "energy: cannot enumerate 17 lines (cap 16)\n"


@pytest.mark.parametrize("text", [WIDE_NET, WIDE_NET + "ancilla 3 1\n"], ids=["free", "ancilla"])
def test_check_past_the_cap_is_a_domain_error(files, capsys, text):
    # an ancilla settles both verdicts without running a gate, but the cap
    # still comes first
    path = files("wide.net", text)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "check", "--format", fmt, path)
        assert (code, out) == (1, "")
        assert err == "check: cannot enumerate 17 lines (cap 16)\n"


def test_closed_energy_past_the_cap_needs_no_enumeration(files, capsys):
    path = files("wide.net", WIDE_NET)
    code, out, err = run_cli(capsys, "energy", path, "--input", "0" * 17, "--closed")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "INPUT_SET    bits=17   4.766980e-20 J"
    assert out.endswith("bound met: yes\nobservable: no\n")


def test_closed_energy_still_checks_the_input_width(files, capsys):
    path = files("wide.net", WIDE_NET)
    code, out, err = run_cli(capsys, "energy", path, "--input", "0" * 16, "--closed")
    assert (code, out) == (1, "")
    assert err == "energy: circuit takes 17 free input bits, got 16\n"


def test_sim_on_forty_lines_matches_hand_computed_word(files, capsys):
    # lines 38 and 39 sit above bit 32, out of reach of a fixed-width word
    path = files("forty.net", "lines 40\nancilla 39 1\nTOF 0 39 20\nFRED 20 1 38\nCNOT 38 5\nNOT 0\n")
    code, out, err = run_cli(capsys, "sim", path, "--input", "11" + "0" * 37)
    assert (code, err) == (0, "")
    # load: lines 0, 1 and the ancilla 39 set; TOF sets 20; FRED swaps 1 into
    # 38; CNOT copies 38 onto 5; NOT clears 0
    expected = ["0"] * 40
    for line in (5, 20, 38, 39):
        expected[line] = "1"
    assert out == "".join(expected) + "\n"


def test_invert_round_trip_under_sim(files, capsys, tmp_path):
    rng = random.Random(7)
    mnemonics = {1: "NOT", 2: "CNOT", 3: "TOF"}
    for trial in range(10):
        width = rng.randint(1, 6)
        lines = [f"lines {width}"]
        for _ in range(rng.randint(1, 8)):
            arity = rng.choice([a for a in (1, 2, 3) if a <= width])
            picks = rng.sample(range(width), arity)
            lines.append(" ".join([mnemonics[arity], *map(str, picks)]))
        netlist = "\n".join(lines) + "\n"
        fwd_path = files(f"fwd{trial}.net", netlist)
        code, inv_text, _ = run_cli(capsys, "invert", fwd_path)
        assert code == 0
        inv_path = files(f"inv{trial}.net", inv_text)
        for value in range(1 << width):
            word = str(BitWord(width, value))
            code, mid, _ = run_cli(capsys, "sim", fwd_path, "--input", word)
            assert code == 0
            code, back, _ = run_cli(capsys, "sim", inv_path, "--input", mid.strip())
            assert code == 0
            assert back.strip() == word


def test_invert_table_output_parses(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, out, _ = run_cli(capsys, "invert", path)
    assert code == 0
    inverse = parse_table(out)
    original = parse_table(CONTROLLED_FLIP_TABLE)
    for x in range(4):
        assert inverse(original(x)) == x


def test_dualrail_output_is_conservative_on_codewords(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, out, _ = run_cli(capsys, "dualrail", path)
    assert code == 0
    embedded = parse_table(out)
    assert embedded.in_width == 4
    for x in range(4):
        codeword = (x << 2) | (~x & 3)
        assert bin(embedded(codeword)).count("1") == 2


def test_dualrail_json_prints_the_bytes_of_indented_json_dumps(files, capsys):
    # an 8-bit base embeds to 65 536 rows, the size the row-list case is for
    rng = random.Random(8)
    rows = list(range(256))
    rng.shuffle(rows)
    base = TruthTable(8, 8, tuple(rows))
    path = files("perm8.tbl", format_table(base))
    embedded = dual_rail_embed(base)
    expected = {"rail_width": 8, "in_width": 16, "out_width": 16, "rows": embedded.rows}
    code, out, _ = run_cli(capsys, "dualrail", path, "--format", "json")
    assert (code, out) == (0, json.dumps(expected, indent=2) + "\n")


@pytest.mark.parametrize(
    "argv",
    [[verb, "perm16.tbl", "--format", fmt] for verb in ("invert", "check") for fmt in ("text", "json")]
    + [["dualrail", "perm8.tbl", "--format", fmt] for fmt in ("text", "json")],
    ids=" ".join,
)
def test_a_16_bit_table_is_read_and_written_out_a_block_at_a_time(argv, tmp_path, monkeypatch):
    # A 16-bit table's text takes 37 bytes a row. While it is read, the text
    # and the decoded rows are alive, about 2.3 text sizes; the text is freed
    # before invert and dualrail write their tables, a block of rows at a
    # time. A report joined whole takes invert to 4.1.
    rng = random.Random(16)
    rows16, rows8 = list(range(1 << 16)), list(range(1 << 8))
    rng.shuffle(rows16)
    rng.shuffle(rows8)
    text = format_table(TruthTable(16, 16, tuple(rows16)))
    (tmp_path / "perm16.tbl").write_text(text)
    (tmp_path / "perm8.tbl").write_text(format_table(TruthTable(8, 8, tuple(rows8))))
    monkeypatch.chdir(tmp_path)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(["classify", "--logical-reversible"])  # build the cached parser outside the traced region
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak <= 2.5 * len(text)


def test_invert_on_a_16_bit_table_that_is_not_bijective_writes_nothing(files, capsys):
    rows = list(range(1 << 16))
    rows[-1] = 0
    path = files("lossy16.tbl", format_table(TruthTable(16, 16, tuple(rows))))
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "invert", path, "--format", fmt)
        assert (code, out, err) == (1, "", "invert: table is not bijective; no inverse exists\n")


def test_dualrail_rejects_lossy_base(files, capsys):
    path = files("lossy.tbl", LOSSY_TABLE)
    code, _, err = run_cli(capsys, "dualrail", path)
    assert code == 1
    assert "dualrail" in err


def test_energy_empty_circuit(files, capsys):
    path = files("empty.net", "lines 0\n")
    code, out, _ = run_cli(capsys, "energy", path, "--input", "")
    assert code == 0
    assert "total 0.000000e0 J" in out


def test_energy_text_and_json_agree(files, capsys):
    path = files("cnot.net", CNOT_NET)
    argv = ["energy", path, "--input", "10", "--instruction-bits", "4"]
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, raw, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(raw)
    assert f"total {sci6(payload['total'])} J" in text
    assert f"bound {sci6(payload['bound']['joules'])} J" in text
    for entry in payload["entries"]:
        assert f"{entry['stage']:<12} bits={entry['bits']:<4d} {sci6(entry['joules'])} J" in text
    assert ("bound met: yes" in text) == payload["bound"]["met"]


def test_energy_byte_identical_reruns(files, capsys):
    path = files("cnot.net", CNOT_NET)
    argv = ["energy", path, "--input", "10", "--format", "json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_energy_profile_flags(files, capsys):
    path = files("net.net", "lines 2\nNOT 0\n")
    code, open_run, _ = run_cli(capsys, "energy", path, "--input", "00")
    assert code == 0
    assert "observable: yes" in open_run
    code, closed_run, _ = run_cli(capsys, "energy", path, "--input", "00", "--closed")
    assert code == 0
    assert "observable: no" in closed_run
    assert "OUTPUT_READ" not in closed_run
    code, ideal, _ = run_cli(capsys, "energy", path, "--input", "00", "--ideal-wires")
    assert code == 0
    assert "INTERCONNECT" not in ideal


def test_energy_tech_file_and_overrides(files, capsys):
    path = files("net.net", "lines 1\nNOT 0\n")
    tech = files("cold.tech", "T = 100\nln2 = 0.693\n")
    # ideal wires leave only transcription terms, which scale linearly in T
    argv = ["energy", path, "--input", "0", "--ideal-wires", "--tech", tech]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    code, colder, _ = run_cli(capsys, *argv, "--temp", "50")
    assert code == 0
    cold_total = float(cold.splitlines()[-4].split()[1])
    colder_total = float(colder.splitlines()[-4].split()[1])
    assert colder_total == pytest.approx(cold_total / 2, rel=1e-9)


def test_energy_rejects_table_file(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    code, _, err = run_cli(capsys, "energy", path, "--input", "00")
    assert code == 2
    assert "netlist" in err


def test_energy_bad_recovered_fraction(files, capsys):
    path = files("cnot.net", CNOT_NET)
    code, _, err = run_cli(
        capsys, "energy", path, "--input", "10", "--recovered-fraction", "1.5"
    )
    assert code == 2
    assert "recovered_fraction" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["energy", "cnot.net", "--input", "10", "--temp", "-0.0"], "energy: T must be finite and non-negative, got -0.0"),
        (
            ["energy", "cnot.net", "--input", "10", "--closed", "--reconfig-units", "-0.0"],
            "energy: reconfiguration_units must be finite and non-negative, got -0.0",
        ),
        (["quantum", "measure.q", "--temp", "-0.0"], "quantum: T must be finite and non-negative, got -0.0"),
        (
            ["energy", "cnot.net", "--input", "10", "--tech", "TECH"],
            "energy: rho must be finite and non-negative, got -0.0 in 'rho = -0.0'",
        ),
    ],
    ids=["temp", "reconfig-units", "quantum-temp", "tech-file"],
)
def test_a_negative_zero_is_rejected_like_any_negative_value(argv, err, files, capsys, monkeypatch):
    tech = files("zero.tech", "rho = -0.0\n")
    monkeypatch.chdir(GOLDEN)
    code, out, printed = run_cli(capsys, *[tech if arg == "TECH" else arg for arg in argv])
    assert (code, out, printed) == (2, "", err + "\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_negative_zero_recovered_fraction_prints_the_bytes_of_zero(fmt, capsys, monkeypatch):
    # [0, 1] holds -0.0, and 1 - (-0.0) is 1.0, so no sign reaches the report
    monkeypatch.chdir(GOLDEN)
    argv = ["energy", "cnot.net", "--input", "10", "--format", fmt, "--recovered-fraction"]
    assert run_cli(capsys, *argv, "-0.0") == run_cli(capsys, *argv, "0.0")


def test_quantum_branches_deterministic(files, capsys):
    path = files("prog.q", "H 0\n")
    code, out, _ = run_cli(capsys, "quantum", path, "--measure", "0")
    assert code == 0
    assert "outcome 0 p=0.500000" in out
    assert "outcome 1 p=0.500000" in out
    assert "measurement dissipation: 1 bits" in out
    _, again, _ = run_cli(capsys, "quantum", path, "--measure", "0")
    assert again == out


@pytest.mark.parametrize("body", ["H 0\nRX 1.2 1", "H 0\nRX 1.2 1 # rotate", "H 0\nRX 1.2 1\r"], ids=["no-newline", "comment", "cr"])
def test_quantum_measure_flags_start_their_own_lines(body, files, capsys):
    """--measure appends each step on a line of its own, however the file
    ends: it prints what the file with those steps written out prints."""
    flagged = run_cli(capsys, "quantum", files("prog.q", body), "--measure", "0", "--measure", "1")
    written = run_cli(capsys, "quantum", files("written.q", body + "\nMEASURE 0\nMEASURE 1\n"))
    assert flagged[0] == 0
    assert flagged == written
    negative = run_cli(capsys, "quantum", files("prog.q", body), "--measure", "-1")
    assert negative == (2, "", "quantum: negative qubit index in 'MEASURE -1'\n")


def test_quantum_no_measurement_single_branch(files, capsys):
    path = files("prog.q", "H 0\n")
    code, out, _ = run_cli(capsys, "quantum", path)
    assert code == 0
    assert "outcome - p=1.000000" in out
    assert "0 0.707107+0.000000i" in out
    assert "dissipation" not in out


def test_quantum_json_schema(files, capsys):
    path = files("prog.q", "H 0\nMEASURE 0\n")
    code, out, _ = run_cli(capsys, "quantum", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["qubits"] == 1
    assert len(payload["branches"]) == 2
    assert payload["measurement"]["bits"] == 1
    probabilities = [b["probability"] for b in payload["branches"]]
    assert probabilities == pytest.approx([0.5, 0.5])


def test_quantum_json_prints_the_bytes_of_indented_json_dumps(capsys):
    path = GOLDEN / "bell.q"
    (branch,) = run_program(parse_program(path.read_text()))
    amplitudes = [
        {"basis": f"{i:02b}", "re": float(amp.real), "im": float(amp.imag)}
        for i, amp in enumerate(branch.state)
        if abs(amp) > 1e-9
    ]
    expected = {
        "qubits": 2,
        "branches": [{"probability": branch.probability, "outcomes": [], "amplitudes": amplitudes}],
        "measurement": {"bits": 0, "joules": 0.0},
    }
    code, out, _ = run_cli(capsys, "quantum", str(path), "--format", "json")
    assert (code, out) == (0, json.dumps(expected, indent=2) + "\n")


def test_quantum_sample_is_seeded(files, capsys):
    path = files("prog.q", "H 0\nMEASURE 0\n")
    _, first, _ = run_cli(capsys, "quantum", path, "--sample", "3")
    _, second, _ = run_cli(capsys, "quantum", path, "--sample", "3")
    assert first == second
    assert first.startswith("outcome ")


def test_quantum_parse_error_exits_two(files, capsys):
    path = files("bad.q", "WIGGLE 0\n")
    code, _, err = run_cli(capsys, "quantum", path)
    assert code == 2
    assert "quantum" in err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("sample", [[], ["--sample", "1"]], ids=["all", "sample"])
def test_quantum_non_finite_angle_is_a_parse_error(files, capsys, angle, sample):
    path = files("prog.q", f"RX {angle} 0\nMEASURE 0\n")
    code, out, err = run_cli(capsys, "quantum", path, *sample)
    assert (code, out) == (2, "")
    assert err == f"quantum: bad angle '{angle}' in 'RX {angle} 0'\n"


def test_quantum_negative_qubit_count_is_a_usage_error(files, capsys):
    path = files("empty.q", "")
    code, out, err = run_cli(capsys, "quantum", path, "--qubits", "-1")
    assert (code, out) == (2, "")
    assert err == "quantum: qubit count must be non-negative, got -1\n"


# 1024 branches: H on 10 qubits, then RX and MEASURE on each
WIDE_PROGRAM = "".join(f"H {q}\n" for q in range(10)) + "".join(f"RX 1.1 {q}\nMEASURE {q}\n" for q in range(10))


@pytest.mark.parametrize("sample", [[], ["--sample", "1"]], ids=["all", "sample"])
def test_quantum_rejects_a_bad_temperature_before_it_walks(files, capsys, monkeypatch, sample):
    def walk(*_args):
        pytest.fail("the program was walked before --temp was checked")

    # the two walks the CLI calls: the enumerating one and sample_program
    monkeypatch.setattr("revlab.cli._walk", walk)
    monkeypatch.setattr("revlab.cli.sample_program", walk)
    path = files("wide.q", WIDE_PROGRAM)
    code, out, err = run_cli(capsys, "quantum", path, "--temp", "nan", *sample)
    assert (code, out) == (2, "")
    assert err == "quantum: T must be finite and non-negative, got nan\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_quantum_renders_each_branch_as_it_is_walked(files, capsys, fmt):
    # The 1024 final states take 16 MiB together. Rendered as they are walked,
    # only the blocks on one path of the walk are alive at a time.
    path = files("wide.q", WIDE_PROGRAM)
    tracemalloc.start()
    try:
        code = main(["quantum", path, "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.count('"probability"' if fmt == "json" else "outcome ") == 1024
    assert peak < 0.5 * 1024 * (1 << 10) * 16


def test_quantum_json_holds_no_more_than_text(files, capsys):
    # JSON is written straight from each amplitude, with no dict per amplitude,
    # so its peak stays near the text report's
    main(["classify", "--logical-reversible"])  # build the cached parser outside the traced regions
    path = files("wide.q", WIDE_PROGRAM)
    peaks = {}
    for fmt in ("text", "json"):
        tracemalloc.start()
        try:
            assert main(["quantum", path, "--format", fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks["json"] <= 1.15 * peaks["text"]


@pytest.mark.parametrize("sample", [[], ["--sample", "1"]], ids=["all", "sample"])
def test_quantum_walks_a_deep_program(files, capsys, sample):
    # 3000 MEASUREs on one branch each, deeper than Python's recursion limit
    path = files("deep.q", "H 0\n" + "MEASURE 0\n" * 3000)
    code, out, err = run_cli(capsys, "quantum", path, *sample)
    assert (code, err) == (0, "")
    outcomes = [line for line in out.splitlines() if line.startswith("outcome ")]
    if sample:
        assert outcomes in ([f"outcome {'0' * 3000} p=0.500000"], [f"outcome {'1' * 3000} p=0.500000"])
    else:
        assert outcomes == [f"outcome {'0' * 3000} p=0.500000", f"outcome {'1' * 3000} p=0.500000"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mix.net", "--input", "10", "--instruction-bits", "150000000000000000000000", "--temp", "1e308", "--ideal-wires"],
        ["cnot.net", "--input", "10", "--instruction-bits", "1" + "0" * 400],
    ],
    ids=["ledger-total", "instruction-bits"],
)
def test_energy_overflow_is_a_bad_value(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(capsys, "energy", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("energy: ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["cnot.net", "--input", "10", "--closed", "--reconfig-units", "1e308"], "INPUT_SET"),
        (["cnot.net", "--input", "10", "--freq", "1e300"], "INTERCONNECT"),
    ],
    ids=["reconfig-units", "freq"],
)
def test_an_overflowing_ledger_entry_names_its_stage(argv, stage, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(capsys, "energy", *argv)
    assert (code, out) == (2, "")
    assert err == f"energy: {stage} joules must be finite and non-negative, got inf\n"


def test_an_empty_tech_path_is_an_unreadable_file(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(capsys, "energy", "cnot.net", "--input", "10", "--tech", "")
    assert (code, out) == (2, "")
    assert err == "energy: [Errno 21] Is a directory: '.'\n"


FUZZ_VALUES = ["0", "-1", "17", str(10**400), "1e308", "1e309", "nan", "inf", "", "abc", "0" * 17, "1" * 40]


def contract_breach(argv, capsys):
    """Run argv through main and return what breaks the exit contract, or
    None: exit 0, 1 or 2 with no traceback, and a non-zero exit prints one
    stderr line and nothing on stdout, so no report is cut short by a
    failure. Exempt: argparse's own usage errors, and check's verdict exit
    1, which prints its report and nothing on stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error: exit 2, usage text
        capsys.readouterr()
        return None if exc.code == 2 else (argv, exc)
    except Exception as exc:  # noqa: BLE001 - report every escape
        capsys.readouterr()
        return (argv, exc)
    out, err = capsys.readouterr()
    verdict = argv[0] == "check" and code == 1 and err == ""
    one_line = err.endswith("\n") and err.count("\n") == 1
    if code not in (0, 1, 2) or (code and not verdict and not (one_line and out == "")):
        return (argv, code, out, err)
    return None


def one_format_per_case():
    """Golden case names, one of each -json/-text pair, the formats alternating."""
    stems = sorted({name.rsplit("-", 1)[0] for name in GOLDEN_CASES})
    return [f"{stem}-{('text', 'json')[i % 2]}" for i, stem in enumerate(stems)]


@pytest.mark.parametrize("name", one_format_per_case())
def test_fuzzed_golden_argv_exits_with_the_contract(name, capsys, monkeypatch):
    """Each value of a golden argv (never a flag name or the verb), replaced by
    each fuzz value, keeps the exit contract of contract_breach."""
    monkeypatch.chdir(GOLDEN)
    argv = GOLDEN_CASES[name]["argv"]
    failures = [
        contract_breach([*argv[:i], value, *argv[i + 1 :]], capsys)
        for i in range(1, len(argv))
        if not argv[i].startswith("--")
        for value in FUZZ_VALUES
    ]
    assert [f for f in failures if f] == []


# Inserted at a few offsets of each golden input file: digits, signs, a NUL,
# non-ASCII, comment and blank characters, a huge integer, an overflowing
# float, an arrow and a carriage return.
FILE_INSERTS = ["2", "-", "\0", "\u00e9", "#", " ", "\t", "9" * 30, "1e999", "->", "\r"]


def mutations(text):
    """Each line dropped, each line doubled, and at three offsets (start,
    middle, before the last character) one character cut or one of
    FILE_INSERTS put in; each distinct text once."""
    lines = text.splitlines(keepends=True)
    out = []
    for i in range(len(lines)):
        out.append("".join(lines[:i] + lines[i + 1 :]))
        out.append("".join(lines[: i + 1] + lines[i:]))
    for at in sorted({0, len(text) // 2, len(text) - 1}):
        out.append(text[:at] + text[at + 1 :])
        out.extend(text[:at] + insert + text[at:] for insert in FILE_INSERTS)
    return list(dict.fromkeys(out))


@pytest.mark.parametrize(
    "filename", sorted(p.name for p in GOLDEN.iterdir() if p.suffix in {".tbl", ".net", ".q", ".tech"})
)
def test_mutated_golden_files_exit_with_the_contract(filename, tmp_path, capsys, monkeypatch):
    """Each golden text-format argv that names the file, run on each mutation
    of it beside copies of the other golden files, keeps the exit contract."""
    for path in GOLDEN.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)
    argvs = [
        case["argv"]
        for name, case in sorted(GOLDEN_CASES.items())
        if name.endswith("-text") and filename in case["argv"]
    ]
    failures = []
    for text in mutations((GOLDEN / filename).read_text()):
        (tmp_path / filename).write_text(text, encoding="utf-8")
        failures += [(text, contract_breach(argv, capsys)) for argv in argvs]
    assert [f for f in failures if f[1]] == []


def usage_error(parse, capsys):
    """The exit code and stderr of a `check` with no file, through parse."""
    with pytest.raises(SystemExit) as exc:
        parse(["check"])
    return exc.value.code, capsys.readouterr().err


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """Every golden case, run in one process in reverse order and then in a
    seeded shuffle, with a usage error before every fifth case, prints the
    bytes it recorded; the usage error prints what a fresh parser prints."""
    monkeypatch.chdir(GOLDEN)
    assert _build_parser() is _build_parser()
    fresh = usage_error(_build_parser.__wrapped__().parse_args, capsys)
    assert fresh[0] == 2 and fresh[1].startswith("usage: revlab check")
    names = sorted(GOLDEN_CASES)
    mismatches = []
    for i, name in enumerate([*reversed(names), *random.Random(9).sample(names, len(names))]):
        if i % 5 == 0 and usage_error(main, capsys) != fresh:
            mismatches.append((i, "usage error"))
        case = GOLDEN_CASES[name]
        code = main(case["argv"])
        captured = capsys.readouterr()
        if (code, captured.out, captured.err) != (case["exit"], case["stdout"], case["stderr"]):
            mismatches.append((i, name))
    assert mismatches == []


VERBS = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
HELP_SNAPSHOT = Path(__file__).parent / "help_snapshot.txt"


def test_every_help_output_matches_its_snapshot(capsys, monkeypatch):
    """`revlab --help` and each verb's `--help`, wrapped at 80 columns, print
    the committed snapshot byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to COLUMNS, else to the terminal
    printed = []
    for argv in [[], *([verb] for verb in VERBS)]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        printed.append(capsys.readouterr().out)
    assert "".join(printed) == HELP_SNAPSHOT.read_text()


# option strings with whether each takes a value, per verb; the help flags
# exit 0 by design, so they are left out
VERB_OPTIONS = {
    verb: {o: a.nargs != 0 for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
    for verb, sub in VERBS.items()
}
ARGV_VALUES = [
    *sorted({c for sub in VERBS.values() for a in sub._actions for c in a.choices or ()}),
    *sorted(p.name for p in GOLDEN.iterdir() if p.name != "cases.json"),
    *FUZZ_VALUES,
]
ARGV_TOKENS = [*VERBS, *sorted({o for options in VERB_OPTIONS.values() for o in options}), *ARGV_VALUES]


def verb_led_argv(verb):
    """The verb, a value where its file goes, then up to three of its own
    options, each with a value if it takes one. An argv drawn freely from
    ARGV_TOKENS is almost always an argparse usage error, so it seldom
    reaches the verb's code."""
    value = st.sampled_from(ARGV_VALUES)
    option = st.sampled_from(sorted(VERB_OPTIONS[verb].items())).flatmap(
        lambda item: value.map(lambda v: [item[0], v]) if item[1] else st.just([item[0]])
    )
    return st.tuples(value, st.lists(option, max_size=3)).map(
        lambda drawn: [verb, drawn[0], *(token for o in drawn[1] for token in o)]
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.lists(st.sampled_from(ARGV_TOKENS), min_size=1, max_size=8)
    | st.sampled_from(sorted(VERBS)).flatmap(verb_led_argv)
)
def test_random_argv_exits_with_the_contract(argv, capsys, monkeypatch):
    """Argv of 1-8 tokens drawn from the verbs, the parser's option strings
    and --format choices, the golden input file names and the fuzz values,
    run from the golden directory, keep the exit contract of
    contract_breach."""
    monkeypatch.chdir(GOLDEN)
    assert contract_breach(argv, capsys) is None


def test_classify_levels(capsys):
    code, out, _ = run_cli(capsys, "classify", "--logical-reversible")
    assert code == 0
    assert out == "level: SLR\n"
    code, out, _ = run_cli(
        capsys, "classify", "--energy-conservative", "--ideal-transmission"
    )
    assert out == "level: FSR\n"
    code, out, _ = run_cli(capsys, "classify", "--software-tracked", "--format", "json")
    assert json.loads(out) == {"level": "NSLR", "rank": 0}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_closed_and_cyclic_tag_leave_the_level(fmt, capsys):
    plain = run_cli(capsys, "classify", "--logical-reversible", "--format", fmt)
    flagged = run_cli(capsys, "classify", "--logical-reversible", "--closed", "--cyclic-tag", "--format", fmt)
    assert plain[0] == 0
    assert flagged == plain


def test_classify_without_capabilities_fails(capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 1
    assert "classify" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/file.tbl")
    assert code == 2


def test_unknown_flag_rejected(files, capsys):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--frobnicate", path])
    assert exc.value.code == 2


def test_module_entry_point(files):
    path = files("flip.tbl", CONTROLLED_FLIP_TABLE)
    proc = subprocess.run(
        [sys.executable, "-m", "revlab", "check", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "reversible: yes, conservative: no\n"


def _cap_memory_at_one_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("verb", [["sim"], ["energy"], ["energy", "--closed"]], ids=" ".join)
def test_a_huge_lines_header_is_a_width_mismatch(verb, files):
    """The free-input count is arithmetic, not a tuple over every line; the
    memory cap turns a runaway allocation into a quick failure."""
    path = files("huge.net", "lines 99999999999999999999\nCNOT 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "revlab", verb[0], path, "--input", "10", *verb[1:]],
        capture_output=True,
        text=True,
        preexec_fn=_cap_memory_at_one_gib,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"{verb[0]}: circuit takes 99999999999999999999 free input bits, got 2\n"


@pytest.mark.parametrize(
    "program",
    [
        # each of 2^17 branches shows 512 amplitudes: 2^26 in all
        "".join(f"H {q}\n" for q in range(10)) + "H 0\nMEASURE 0\n" * 17,
        # one past the cap: 2048 more rows of 10 qubits
        WIDE_PROGRAM + "H 0\nMEASURE 0\n",
        # every path falls under the probability floor, so no branch is
        # yielded, after 2^40 rows
        "".join(f"H {q}\n" for q in range(1, 10)) + "H 0\nMEASURE 0\n" * 40,
    ],
    ids=["wide-states", "one-past", "all-dropped"],
)
def test_a_walk_past_its_cap_is_a_domain_error(program, files):
    """A short program may branch without bound; the walk stops at 2^21
    amplitudes with one line, not a traceback after a runaway allocation or
    a walk that runs for months."""
    path = files("branchy.q", program)
    proc = subprocess.run(
        [sys.executable, "-m", "revlab", "quantum", path],
        capture_output=True,
        text=True,
        preexec_fn=_cap_memory_at_one_gib,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "quantum: the branch walk passes 2097152 amplitudes; sample one path instead (--sample)\n"
