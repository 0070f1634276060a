"""Command-line front end.

One verb per invocation: check, sim, invert, dualrail, energy, quantum,
classify. Table and netlist files are told apart by their header token.
Exit codes: 0 success, 1 checked-property-false or domain error, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .circuits import Circuit, _column_verdicts, dual_rail_embed, format_circuit, invert_circuit, parse_circuit, simulate, to_truth_table
from .classify import (
    ControlStyle,
    Environment,
    LedgerEntry,
    SystemProfile,
    classify,
    format_ledger,
    ledger_dict,
    measurement_entry,
    run_ledger,
    sci6,
)
from .energy import EnergyParams, parse_params
from .errors import ParseError, RevlabError, TooWide
from .quantum import Branch, _kept, _walk, parse_program, program_qubits, sample_program
from .tables import _CHECK_ROWS, BitWord, TruthTable, _table_text, bit_string, invert, is_conservative, is_reversible, meaningful_lines, parse_table

_EPILOG = "Bit strings are most-significant line first: line 0 is the leftmost character."


def _load_any(path: str) -> TruthTable | Circuit:
    text = Path(path).read_text()
    first = next(meaningful_lines(text), None)
    if first is None:
        raise ParseError(f"{path}: no content")
    head = first.split()[0]
    if head == "table":
        return parse_table(text)
    if head == "lines":
        return parse_circuit(text)
    raise ParseError(f"expected a 'table' or 'lines' header, got {head!r}")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# Each verb returns its exit code and its report, rendered only in the format
# asked for: its bytes (text, or invert's, dualrail's and quantum's JSON), as
# one str or as pieces written in order, or a dict for main.
def _cmd_check(args: argparse.Namespace) -> tuple[int, str | dict]:
    loaded = _load_any(args.file)
    if isinstance(loaded, TruthTable):
        conservative = is_conservative(loaded)
        reversible = conservative or is_reversible(loaded)
    else:
        reversible, conservative = _column_verdicts(loaded.width, loaded.gates, bool(loaded.ancillas))
    code = 0 if reversible else 1
    if args.format == "json":
        return code, {"reversible": reversible, "conservative": conservative}
    return code, f"reversible: {_yn(reversible)}, conservative: {_yn(conservative)}\n"


def _cmd_sim(args: argparse.Namespace) -> tuple[int, str | dict]:
    loaded = _load_any(args.file)
    word = BitWord.from_string(args.input)
    if isinstance(loaded, TruthTable):
        out = loaded.apply(word)
    else:
        out = simulate(loaded, word)
    if args.format == "json":
        return 0, {"input": str(word), "output": str(out)}
    return 0, f"{out}\n"


def _cmd_invert(args: argparse.Namespace) -> tuple[int, Iterable[str] | dict]:
    loaded = _load_any(args.file)
    if isinstance(loaded, TruthTable):
        pieces = _table_text(invert(loaded))
    else:
        pieces = [format_circuit(invert_circuit(loaded))]
    if args.format == "json":
        # json.dumps(report, indent=2) for this one shape, escaped a piece at a time
        return 0, chain(['{\n  "inverse": "'], (json.dumps(piece)[1:-1] for piece in pieces), ['"\n}\n'])
    return 0, pieces


def _cmd_dualrail(args: argparse.Namespace) -> tuple[int, Iterable[str] | dict]:
    loaded = _load_any(args.file)
    base = loaded if isinstance(loaded, TruthTable) else to_truth_table(loaded)
    embedded = dual_rail_embed(base)
    if args.format == "json":
        return 0, _dualrail_json(base.in_width, embedded)
    return 0, _table_text(embedded)


def _dualrail_json(rail_width: int, embedded: TruthTable) -> Iterator[str]:
    """The bytes of `json.dumps(report, indent=2)` and a newline for the
    dualrail report's one shape, its rows joined a block at a time, each in
    one call of the C encoder, which an indent would swap for the pure-Python
    one."""
    rows = embedded.rows
    yield (
        f'{{\n  "rail_width": {rail_width},\n  "in_width": {embedded.in_width},\n'
        f'  "out_width": {embedded.out_width},\n  "rows": [\n    '
    )
    for at in range(0, len(rows), _CHECK_ROWS):
        if at:
            yield ",\n    "
        yield json.dumps(rows[at : at + _CHECK_ROWS], separators=(",\n    ", ": "))[1:-1]
    yield "\n  ]\n}\n"


def _fields(args: argparse.Namespace, record: type) -> dict:
    """The fields of a record type that the parsed flags set: each flag's
    dest is the name of the field it sets, and an unset one is None."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(record) if getattr(args, f.name, None) is not None}


def _params_from(args: argparse.Namespace) -> EnergyParams:
    params = parse_params(Path(args.tech).read_text()) if args.tech is not None else EnergyParams()
    return dataclasses.replace(params, **_fields(args, EnergyParams))


def _cmd_energy(args: argparse.Namespace) -> tuple[int, str | dict]:
    circuit = _load_any(args.file)
    if isinstance(circuit, TruthTable):
        raise ParseError(f"{args.file}: this command needs a circuit netlist, not a table")
    params = _params_from(args)
    profile = SystemProfile(**_fields(args, SystemProfile))
    ledger = run_ledger(circuit, BitWord.from_string(args.input), profile, params)
    render = ledger_dict if args.format == "json" else format_ledger
    return 0, render(ledger, params)


def _amplitudes(state) -> Iterator[tuple[int, float, float]]:
    """The basis index, real and imaginary parts of each amplitude of a state
    vector that a quantum report shows: each not zero to within rounding."""
    shown = (abs(state) > 1e-9).nonzero()[0]
    return zip(shown.tolist(), state.real[shown].tolist(), state.imag[shown].tolist())


def _quantum_json(n_qubits: int, branches: Iterable[Branch], entry: LedgerEntry) -> Iterator[str]:
    """The bytes of `json.dumps(report, indent=2)` and a newline for the
    quantum report's one shape, written straight from each walked branch:
    ints with `str`, basis labels with `bit_string`, and floats with `repr`,
    which is what `json` writes for a finite float. Every float here is
    finite: a probability is a product of kept outcome weights, an amplitude
    is divided by the root of a normal weight, and `LedgerEntry` checks
    joules."""
    yield f'{{\n  "qubits": {n_qubits},\n  "branches": ['
    sep, close = "\n    ", "]"
    for branch in branches:
        outcomes = ",\n        ".join(map(str, branch.outcomes))
        outcomes = f"[\n        {outcomes}\n      ]" if outcomes else "[]"
        amplitudes = ",\n        ".join(
            f'{{\n          "basis": "{bit_string(i, n_qubits)}",\n          "re": {re!r},\n          "im": {im!r}\n        }}'
            for i, re, im in _amplitudes(branch.state)
        )
        yield f'{sep}{{\n      "probability": {branch.probability!r},\n      "outcomes": {outcomes},\n      "amplitudes": [\n        {amplitudes}\n      ]\n    }}'
        sep, close = ",\n    ", "\n  ]"
    yield f'{close},\n  "measurement": {{\n    "bits": {entry.bits},\n    "joules": {entry.joules!r}\n  }}\n}}\n'


def _cmd_quantum(args: argparse.Namespace) -> tuple[int, str]:
    # each appended MEASURE starts a new line, whatever ends the file
    ops = parse_program(Path(args.file).read_text() + "".join(f"\nMEASURE {q}" for q in args.measure or ()))
    n_qubits = program_qubits(ops, args.qubits)
    measured = sum(1 for op in ops if op.name == "MEASURE")
    entry = measurement_entry(measured, _params_from(args))
    # each enumerated state is walked as it is rendered, and dropped after
    if args.sample is not None:
        branches = [sample_program(ops, args.sample, n_qubits)]
    else:
        branches = _walk(ops, n_qubits, _kept)
    try:
        if args.format == "json":
            return 0, "".join(_quantum_json(n_qubits, branches, entry))
        lines = []
        for branch in branches:
            lines.append(f"outcome {''.join(map(str, branch.outcomes)) or '-'} p={branch.probability:.6f}")
            lines.extend(f"  {bit_string(i, n_qubits) or '-'} {re:.6f}{im:+.6f}i" for i, re, im in _amplitudes(branch.state))
    except TooWide as exc:  # only the walk's cap is met here
        raise TooWide(f"{exc} (--sample)") from None
    if entry.bits:
        lines.append(f"measurement dissipation: {entry.bits} bits, {sci6(entry.joules)} J")
    return 0, "\n".join(lines) + "\n"


def _cmd_classify(args: argparse.Namespace) -> tuple[int, str | dict]:
    level = classify(SystemProfile(**_fields(args, SystemProfile)))
    if args.format == "json":
        return 0, {"level": level.name, "rank": int(level)}
    return 0, f"level: {level.name}\n"


# parse_args leaves the parser as it was and gives each call a fresh
# Namespace, so one parser serves every main call in a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revlab", description=__doc__, epilog=_EPILOG)
    subs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    # each verb's name, help, file argument help (classify reads no file) and handler
    for verb, about, file_help, handler in (
        ("check", "reversibility and conservativity verdicts", "table or netlist file", _cmd_check),
        ("sim", "run one input word", "table or netlist file", _cmd_sim),
        ("invert", "emit the inverse table or circuit", "table or netlist file", _cmd_invert),
        ("dualrail", "conservative two-rail embedding", "table or netlist file with a bijective table", _cmd_dualrail),
        ("energy", "per-run dissipation ledger", "netlist file", _cmd_energy),
        ("quantum", "run a gate program", "program file", _cmd_quantum),
        ("classify", "reversibility level of a profile", None, _cmd_classify),
    ):
        sub = subs.add_parser(verb, help=about)
        sub.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if file_help:
            sub.add_argument("file", help=file_help)
        sub.set_defaults(handler=handler)
    for verb in ("sim", "energy"):
        subs.choices[verb].add_argument("--input", required=True, metavar="BITS", help="free input bits")

    sub = subs.choices["energy"]
    sub.add_argument("--tech", metavar="FILE", help="technology parameter file")
    sub.add_argument("--temp", dest="T", type=float, metavar="K", help="override temperature")
    sub.add_argument("--freq", dest="f", type=float, metavar="HZ", help="override clock frequency")
    sub.add_argument(
        "--closed",
        dest="environment",
        action="store_const",
        const=Environment.CLOSED,
        help="run sealed inside a closed system",
    )
    sub.add_argument("--ideal-wires", dest="ideal_transmission", action="store_true", help="no interconnect loss")
    sub.add_argument(
        "--cyclic-tag",
        dest="control_style",
        action="store_const",
        const=ControlStyle.CYCLIC_TAG_REVERSIBLE,
        help="reversible circulating-tag control",
    )
    sub.add_argument(
        "--recovered-fraction",
        type=float,
        metavar="R",
        help="fraction of overwrite energy recovered, 0 to 1",
    )
    sub.add_argument(
        "--instruction-bits",
        type=int,
        metavar="N",
        help="control word bits consumed per gate",
    )
    sub.add_argument(
        "--reconfig-units",
        dest="reconfiguration_units",
        type=float,
        metavar="U",
        help="per-bit cost multiplier for closed-system input setting",
    )

    sub = subs.choices["quantum"]
    sub.add_argument("--qubits", type=int, metavar="N", help="qubit count (default: inferred)")
    sub.add_argument(
        "--measure",
        type=int,
        action="append",
        metavar="Q",
        help="append a measurement of qubit Q (repeatable)",
    )
    sub.add_argument("--sample", type=int, metavar="SEED", help="sample one path instead of enumerating branches")
    sub.add_argument("--temp", dest="T", type=float, metavar="K", help="temperature for measurement dissipation")
    # measurement is priced with the default technology, at --temp if given
    sub.set_defaults(tech=None)

    sub = subs.choices["classify"]
    sub.add_argument("--software-tracked", dest="software_tracked_only", action="store_true", help="history kept by software only")
    sub.add_argument("--logical-reversible", dest="logical_reversible_components", action="store_true", help="components step bijectively")
    sub.add_argument("--energy-conservative", dest="energy_conservative_components", action="store_true", help="component energy recovered")
    sub.add_argument("--ideal-transmission", action="store_true", help="lossless links between parts")
    # these two dests name no profile field, so the level rests on the four above
    sub.add_argument("--closed", action="store_true", help="sealed environment; does not change the level")
    sub.add_argument("--cyclic-tag", action="store_true", help="circulating-tag control; does not change the level")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report = args.handler(args)
    except (RevlabError, OSError, ValueError, OverflowError) as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        # exit 1 for a domain error; 2 for a parse error, an unreadable file,
        # a bad value or one that overflows, which are usage errors
        domain = isinstance(exc, RevlabError) and not isinstance(exc, ParseError)
        return 1 if domain else 2
    if isinstance(report, dict):
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.writelines([report] if isinstance(report, str) else report)
    return code
