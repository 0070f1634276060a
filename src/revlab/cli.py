"""Command-line front end.

One verb per invocation: check, sim, invert, dualrail, energy, quantum,
classify. Table and netlist files are told apart by their header token.
Exit codes: 0 success, 1 checked-property-false or domain error, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .circuits import Circuit, dual_rail_embed, format_circuit, invert_circuit, parse_circuit, simulate, to_truth_table
from .classify import (
    ControlStyle,
    Environment,
    SystemProfile,
    classify,
    format_ledger,
    ledger_dict,
    measurement_entry,
    run_ledger,
    sci6,
)
from .energy import EnergyParams, parse_params
from .errors import ParseError, RevlabError
from .quantum import Branch, parse_program, program_qubits, run_program, sample_program
from .tables import BitWord, TruthTable, bit_string, format_table, invert, is_conservative, is_reversible, meaningful_lines, parse_table

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


def _load_circuit(path: str) -> Circuit:
    loaded = _load_any(path)
    if isinstance(loaded, TruthTable):
        raise ParseError(f"{path}: this command needs a circuit netlist, not a table")
    return loaded


def _as_table(loaded: TruthTable | Circuit) -> TruthTable:
    return loaded if isinstance(loaded, TruthTable) else to_truth_table(loaded)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# Each verb returns its exit code and its report, rendered only in the format
# that was asked for: the text bytes, or a structure main prints as JSON.
def _cmd_check(args: argparse.Namespace) -> tuple[int, str | dict]:
    table = _as_table(_load_any(args.file))
    reversible = is_reversible(table)
    conservative = is_conservative(table)
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


def _cmd_invert(args: argparse.Namespace) -> tuple[int, str | dict]:
    loaded = _load_any(args.file)
    if isinstance(loaded, TruthTable):
        rendered = format_table(invert(loaded))
    else:
        rendered = format_circuit(invert_circuit(loaded))
    return 0, {"inverse": rendered} if args.format == "json" else rendered


def _cmd_dualrail(args: argparse.Namespace) -> tuple[int, str | dict]:
    base = _as_table(_load_any(args.file))
    embedded = dual_rail_embed(base)
    if args.format == "json":
        return 0, {
            "rail_width": base.in_width,
            "in_width": embedded.in_width,
            "out_width": embedded.out_width,
            "rows": embedded.rows,
        }
    return 0, format_table(embedded)


def _profile_from(args: argparse.Namespace, **knobs) -> SystemProfile:
    """A profile with the environment and control style set by --closed and
    --cyclic-tag, plus the verb's own capability flags or ledger knobs."""
    return SystemProfile(
        environment=Environment.CLOSED if args.closed else Environment.TRANSFER,
        control_style=(
            ControlStyle.CYCLIC_TAG_REVERSIBLE
            if args.cyclic_tag
            else ControlStyle.EXTERNAL_IRREVERSIBLE
        ),
        **knobs,
    )


def _params_from(args: argparse.Namespace) -> EnergyParams:
    params = parse_params(Path(args.tech).read_text()) if args.tech else EnergyParams()
    overrides = {"T": args.temp, "f": args.freq}
    return dataclasses.replace(params, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_energy(args: argparse.Namespace) -> tuple[int, str | dict]:
    circuit = _load_circuit(args.file)
    params = _params_from(args)
    profile = _profile_from(
        args,
        ideal_transmission=args.ideal_wires,
        instruction_bits=args.instruction_bits,
        recovered_fraction=args.recovered_fraction,
        reconfiguration_units=args.reconfig_units,
    )
    ledger = run_ledger(circuit, BitWord.from_string(args.input), profile, params)
    render = ledger_dict if args.format == "json" else format_ledger
    return 0, render(ledger, params)


def _branch_payload(branch: Branch, n_qubits: int) -> dict:
    amplitudes = []
    for idx, amp in enumerate(branch.state):
        if abs(amp) > 1e-9:
            amplitudes.append(
                {
                    "basis": bit_string(idx, n_qubits),
                    "re": float(amp.real),
                    "im": float(amp.imag),
                }
            )
    return {
        "probability": branch.probability,
        "outcomes": list(branch.outcomes),
        "amplitudes": amplitudes,
    }


def _quantum_text(report: dict) -> str:
    lines = []
    for branch in report["branches"]:
        history = "".join(map(str, branch["outcomes"])) or "-"
        lines.append(f"outcome {history} p={branch['probability']:.6f}")
        for amp in branch["amplitudes"]:
            lines.append(f"  {amp['basis'] or '-'} {amp['re']:.6f}{amp['im']:+.6f}i")
    measurement = report["measurement"]
    if measurement["bits"]:
        lines.append(
            f"measurement dissipation: {measurement['bits']} bits, {sci6(measurement['joules'])} J"
        )
    return "\n".join(lines) + "\n"


def _cmd_quantum(args: argparse.Namespace) -> tuple[int, str | dict]:
    ops = list(parse_program(Path(args.file).read_text()))
    for qubit in args.measure or []:
        ops.extend(parse_program(f"MEASURE {qubit}"))
    n_qubits = program_qubits(ops, args.qubits)
    if args.sample is not None:
        branches = [sample_program(ops, args.sample, n_qubits)]
    else:
        branches = run_program(ops, n_qubits)
    measured = sum(1 for op in ops if op.name == "MEASURE")
    entry = measurement_entry(measured, _params_from(args))
    report = {
        "qubits": n_qubits,
        "branches": [_branch_payload(b, n_qubits) for b in branches],
        "measurement": {"bits": entry.bits, "joules": entry.joules},
    }
    return 0, report if args.format == "json" else _quantum_text(report)


def _cmd_classify(args: argparse.Namespace) -> tuple[int, str | dict]:
    level = classify(
        _profile_from(
            args,
            logical_reversible_components=args.logical_reversible,
            software_tracked_only=args.software_tracked,
            energy_conservative_components=args.energy_conservative,
            ideal_transmission=args.ideal_transmission,
        )
    )
    if args.format == "json":
        return 0, {"level": level.name, "rank": int(level)}
    return 0, f"level: {level.name}\n"


def _add_profile_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--closed", action="store_true", help="run sealed inside a closed system")
    sub.add_argument("--ideal-wires", action="store_true", help="no interconnect loss")
    sub.add_argument("--cyclic-tag", action="store_true", help="reversible circulating-tag control")
    sub.add_argument(
        "--recovered-fraction",
        type=float,
        default=0.0,
        metavar="R",
        help="fraction of overwrite energy recovered, 0 to 1",
    )
    sub.add_argument(
        "--instruction-bits",
        type=int,
        default=0,
        metavar="N",
        help="control word bits consumed per gate",
    )
    sub.add_argument(
        "--reconfig-units",
        type=float,
        default=1.0,
        metavar="U",
        help="per-bit cost multiplier for closed-system input setting",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revlab", description=__doc__, epilog=_EPILOG)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    subs = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    sub = subs.add_parser("check", parents=[common], help="reversibility and conservativity verdicts")
    sub.add_argument("file", help="table or netlist file")
    sub.set_defaults(handler=_cmd_check)

    sub = subs.add_parser("sim", parents=[common], help="run one input word")
    sub.add_argument("file", help="table or netlist file")
    sub.add_argument("--input", required=True, metavar="BITS", help="free input bits")
    sub.set_defaults(handler=_cmd_sim)

    sub = subs.add_parser("invert", parents=[common], help="emit the inverse table or circuit")
    sub.add_argument("file", help="table or netlist file")
    sub.set_defaults(handler=_cmd_invert)

    sub = subs.add_parser("dualrail", parents=[common], help="conservative two-rail embedding")
    sub.add_argument("file", help="table or netlist file with a bijective table")
    sub.set_defaults(handler=_cmd_dualrail)

    sub = subs.add_parser("energy", parents=[common], help="per-run dissipation ledger")
    sub.add_argument("file", help="netlist file")
    sub.add_argument("--input", required=True, metavar="BITS", help="free input bits")
    sub.add_argument("--tech", metavar="FILE", help="technology parameter file")
    sub.add_argument("--temp", type=float, metavar="K", help="override temperature")
    sub.add_argument("--freq", type=float, metavar="HZ", help="override clock frequency")
    _add_profile_flags(sub)
    sub.set_defaults(handler=_cmd_energy)

    sub = subs.add_parser("quantum", parents=[common], help="run a gate program")
    sub.add_argument("file", help="program file")
    sub.add_argument("--qubits", type=int, metavar="N", help="qubit count (default: inferred)")
    sub.add_argument(
        "--measure",
        type=int,
        action="append",
        metavar="Q",
        help="append a measurement of qubit Q (repeatable)",
    )
    sub.add_argument("--sample", type=int, metavar="SEED", help="sample one path instead of enumerating branches")
    sub.add_argument("--temp", type=float, metavar="K", help="temperature for measurement dissipation")
    # measurement is priced with the default technology, at --temp if given
    sub.set_defaults(handler=_cmd_quantum, tech=None, freq=None)

    sub = subs.add_parser("classify", parents=[common], help="reversibility level of a profile")
    sub.add_argument("--software-tracked", action="store_true", help="history kept by software only")
    sub.add_argument("--logical-reversible", action="store_true", help="components step bijectively")
    sub.add_argument("--energy-conservative", action="store_true", help="component energy recovered")
    sub.add_argument("--ideal-transmission", action="store_true", help="lossless links between parts")
    sub.add_argument("--closed", action="store_true", help="sealed environment")
    sub.add_argument("--cyclic-tag", action="store_true", help="reversible circulating-tag control")
    sub.set_defaults(handler=_cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.handler(args)
    except (RevlabError, OSError, ValueError) as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        # exit 1 for a domain error; 2 for a parse error, an unreadable file
        # or a bad value, which are usage errors
        domain = isinstance(exc, RevlabError) and not isinstance(exc, ParseError)
        return 1 if domain else 2
    if isinstance(report, str):
        sys.stdout.write(report)
    else:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
