"""Reversibility levels, machine profiles, and per-run dissipation ledgers.

A system profile records which reversibility mechanisms a machine actually
has; `classify` maps it to the highest of four ordered levels. `run_ledger`
walks a circuit on a concrete input and prices every stage of the run in
joules: transcribing the inputs in, consuming control signals, overwriting
intermediate state, resistive interconnect loss, and reading the outputs
back out. `check_bound` compares a ledger against the floor obtained by
charging one per-bit unit for every set, read, consumed or overwritten bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum, IntEnum

from .circuits import Circuit, step_states, to_truth_table
from .energy import BoundInput, EnergyParams, landauer_per_bit, lower_bound, wire_dissipation_per_cycle
from .errors import DimensionMismatch, InconsistentProfile
from .tables import BitWord, is_conservative


class Level(IntEnum):
    """Reversibility levels, weakest to strongest.

    NSLR: reversibility exists only as software-tracked history.
    SLR: components step bijectively but spend energy doing so.
    ESR: component energy is additionally recovered or conserved.
    FSR: additionally nothing is lost moving signals between components.
    """

    NSLR = 0
    SLR = 1
    ESR = 2
    FSR = 3


class Environment(Enum):
    """CLOSED: the run stays inside one sealed system and nothing crosses its
    boundary. TRANSFER: results are handed out to an irreversible outside."""

    CLOSED = "CLOSED"
    TRANSFER = "TRANSFER"


class ControlStyle(Enum):
    """EXTERNAL_IRREVERSIBLE consumes the instruction word afresh for every
    gate; CYCLIC_TAG_REVERSIBLE pays once to initialize a circulating tag
    that then sequences the gates without further erasure."""

    EXTERNAL_IRREVERSIBLE = "EXTERNAL_IRREVERSIBLE"
    CYCLIC_TAG_REVERSIBLE = "CYCLIC_TAG_REVERSIBLE"


class Stage(Enum):
    INPUT_SET = "INPUT_SET"
    OUTPUT_READ = "OUTPUT_READ"
    CONTROL = "CONTROL"
    COMPUTE = "COMPUTE"
    INTERCONNECT = "INTERCONNECT"
    MEASUREMENT = "MEASUREMENT"


@dataclass(frozen=True)
class SystemProfile:
    """What a machine can do, plus the run-accounting knobs.

    The first four flags are capability claims feeding `classify`. The rest
    shape ledgers: instruction_bits is the control word width consumed per
    gate, recovered_fraction the share of overwrite energy won back by
    uncomputation or recapture, reconfiguration_units the relative cost of
    setting one bit inside a closed system.
    """

    logical_reversible_components: bool = False
    software_tracked_only: bool = False
    energy_conservative_components: bool = False
    ideal_transmission: bool = False
    environment: Environment = Environment.TRANSFER
    control_style: ControlStyle = ControlStyle.EXTERNAL_IRREVERSIBLE
    instruction_bits: int = 0
    recovered_fraction: float = 0.0
    reconfiguration_units: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.instruction_bits, int) or self.instruction_bits < 0:
            raise ValueError(f"instruction_bits must be a non-negative int, got {self.instruction_bits!r}")
        if not 0.0 <= self.recovered_fraction <= 1.0:
            raise ValueError(f"recovered_fraction must be in [0, 1], got {self.recovered_fraction!r}")
        if not math.isfinite(self.reconfiguration_units) or self.reconfiguration_units < 0:
            raise ValueError(f"reconfiguration_units must be finite and non-negative")


def classify(profile: SystemProfile) -> Level:
    """The highest level whose requirements the profile meets."""
    if profile.energy_conservative_components and profile.ideal_transmission:
        return Level.FSR
    if profile.energy_conservative_components:
        return Level.ESR
    if profile.logical_reversible_components:
        return Level.SLR
    if profile.software_tracked_only:
        return Level.NSLR
    raise InconsistentProfile("profile enables no reversibility mechanism at all")


@dataclass(frozen=True)
class LedgerEntry:
    """One priced event: the stage it belongs to, the bit count the lower
    bound may charge for it, and the energy actually spent."""

    stage: Stage
    bits: int
    joules: float

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 0:
            raise ValueError(f"{self.stage.value} bits must be a non-negative int, got {self.bits!r}")
        if not math.isfinite(self.joules) or self.joules < 0:
            raise ValueError(f"{self.stage.value} joules must be finite and non-negative, got {self.joules!r}")


@dataclass(frozen=True)
class DissipationLedger:
    """An ordered record of priced events for one run.

    observable is False when the run stayed sealed inside a closed system,
    so its results never crossed the boundary and were never read out.
    """

    entries: tuple[LedgerEntry, ...] = ()
    observable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def total(self) -> float:
        """Sum of all entry energies, joules."""
        return math.fsum(entry.joules for entry in self.entries)

    def stage_total(self, stage: Stage) -> float:
        return math.fsum(e.joules for e in self.entries if e.stage is stage)

    def stage_bits(self, stage: Stage) -> int:
        return sum(e.bits for e in self.entries if e.stage is stage)

    def __add__(self, other: "DissipationLedger") -> "DissipationLedger":
        return DissipationLedger(
            self.entries + other.entries, self.observable and other.observable
        )


def run_ledger(
    circuit: Circuit,
    inputs: BitWord,
    profile: SystemProfile,
    params: EnergyParams,
) -> DissipationLedger:
    """Simulate the circuit on the given free-input word and price the run.

    Stages, in order:

    * INPUT_SET: every line (free or ancilla) is one transcribed bit. Inside
      a closed system this is a reconfiguration, scaled by
      reconfiguration_units; the bound then charges the scaled bit count,
      rounded down and at most the line count.
    * CONTROL: with external control each gate consumes the instruction word
      afresh; a cyclic tag is paid for once up front. Skipped when the
      instruction word is empty or the circuit has no gates.
    * COMPUTE: one entry per gate that changes the machine state, charging
      the flipped bits net of the recovered fraction. Skipped entirely when
      the gates taken alone act conservatively (switching then only routes
      signals) or when the system is closed (changes stay recoverable
      inside).
    * INTERCONNECT: resistive wire loss, one cycle per gate, unless
      transmission is ideal. Carries no bit count.
    * OUTPUT_READ: each functional output line read across the boundary is
      one transcribed bit. A closed run reads nothing out and the ledger is
      marked not observable instead.
    """
    circuit.check_inputs(inputs)
    unit = landauer_per_bit(params)
    closed = profile.environment is Environment.CLOSED
    entries: list[LedgerEntry] = []

    if circuit.width > 0:
        scale = profile.reconfiguration_units if closed else 1.0
        entries.append(_priced(Stage.INPUT_SET, circuit.width, unit, scale))

    if profile.instruction_bits > 0 and circuit.gates:
        control = _priced(Stage.CONTROL, profile.instruction_bits, unit)
        external = profile.control_style is ControlStyle.EXTERNAL_IRREVERSIBLE
        entries.extend([control] * (len(circuit.gates) if external else 1))

    # a closed run never prices COMPUTE, so it needs neither the states nor
    # the conservativity verdict, and so no enumeration
    if not closed and not is_conservative(to_truth_table(Circuit(circuit.width, circuit.gates))):
        kept = 1.0 - profile.recovered_fraction
        for before, after in itertools.pairwise(step_states(circuit, inputs)):
            entry = _priced(Stage.COMPUTE, (before.value ^ after.value).bit_count(), unit, kept)
            if entry.joules > 0:
                entries.append(entry)

    if not profile.ideal_transmission and circuit.gates:
        per_cycle = wire_dissipation_per_cycle(params)
        entries.append(
            LedgerEntry(Stage.INTERCONNECT, 0, len(circuit.gates) * per_cycle)
        )

    out_bits = 0 if closed else len(circuit.output_lines)
    if out_bits > 0:
        entries.append(_priced(Stage.OUTPUT_READ, out_bits, unit))
    return DissipationLedger(tuple(entries), observable=not closed)


def _priced(stage: Stage, count: int, unit: float, scale: float = 1.0) -> LedgerEntry:
    """`count` bits at `scale` per-bit units each. The bound may charge only
    the whole bits paid for: below one unit a bit the count is floored, and
    at one or more it stays the int `count`, which no float rounds."""
    return LedgerEntry(stage, count if scale >= 1 else int(count * scale), count * scale * unit)


def measurement_entry(bits: int, params: EnergyParams) -> LedgerEntry:
    """Transcription cost of reading `bits` measured values into classical
    storage, one per-bit unit each."""
    return _priced(Stage.MEASUREMENT, bits, landauer_per_bit(params))


# the stage whose entries justify each bound field, in BoundInput's order,
# which is also the order check_bound reports a mismatch in
_BOUND_STAGES = (
    ("k", Stage.INPUT_SET),
    ("l", Stage.OUTPUT_READ),
    ("i_r", Stage.CONTROL),
    ("n_pr", Stage.COMPUTE),
)


def matching_bound(ledger: DissipationLedger) -> BoundInput:
    """The bit counts a ledger's own entries justify charging for: input bits
    set, output bits read, the control word width (consumed once per gate but
    counted once), and intermediate bits overwritten."""
    bits = {name: ledger.stage_bits(stage) for name, stage in _BOUND_STAGES}
    bits["i_r"] = next((e.bits for e in ledger.entries if e.stage is Stage.CONTROL), 0)
    return BoundInput(**bits)


def check_bound(ledger: DissipationLedger, bits: BoundInput, params: EnergyParams) -> bool:
    """True when the ledger's total meets the floor for the given bit counts.

    Bit counts are cross-checked against whichever stages the ledger actually
    contains; a conflict raises DimensionMismatch. Stages absent from the
    ledger are taken on faith from `bits`. The total may fall short of the
    floor by one part in 1e9 of the floor, which absorbs summation rounding.
    """
    own = matching_bound(ledger)
    present = {entry.stage for entry in ledger.entries}
    for name, stage in _BOUND_STAGES:
        have, want = getattr(own, name), getattr(bits, name)
        if stage in present and have != want:
            raise DimensionMismatch(
                f"ledger {stage.value} bits total {have}, bound says {name}={want}"
            )
    return ledger.total >= lower_bound(bits, params) * (1.0 - 1e-9)


def sci6(x: float) -> str:
    """Scientific notation with six digits after the point and a bare
    exponent, e.g. 2.803511e-21, 0.000000e0."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    mantissa, _, exponent = f"{x:.6e}".partition("e")
    return f"{mantissa}e{int(exponent)}"


def format_ledger(ledger: DissipationLedger, params: EnergyParams) -> str:
    """Line-oriented rendering of `ledger_dict`: one line per entry, then
    totals and the bound verdict."""
    report = ledger_dict(ledger, params)
    bound = report["bound"]
    lines = [
        f"{entry['stage']:<12} bits={entry['bits']:<4d} {sci6(entry['joules'])} J"
        for entry in report["entries"]
    ]
    lines.append(f"total {sci6(report['total'])} J")
    lines.append(
        f"bound {sci6(bound['joules'])} J"
        f" (k={bound['k']} l={bound['l']} i_r={bound['i_r']} n_pr={bound['n_pr']})"
    )
    lines.append(f"bound met: {'yes' if bound['met'] else 'no'}")
    lines.append(f"observable: {'yes' if report['observable'] else 'no'}")
    return "\n".join(lines) + "\n"


def ledger_dict(ledger: DissipationLedger, params: EnergyParams) -> dict:
    """The ledger report as a plain structure: its entries, total, and the
    bound the ledger itself justifies, with its verdict."""
    bits = matching_bound(ledger)
    return {
        "entries": [
            {"stage": entry.stage.value, "bits": entry.bits, "joules": entry.joules}
            for entry in ledger.entries
        ],
        "total": ledger.total,
        "bound": {
            **asdict(bits),
            "joules": lower_bound(bits, params),
            "met": check_bound(ledger, bits, params),
        },
        "observable": ledger.observable,
    }
