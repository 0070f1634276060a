"""Reversible-logic workbench.

Truth tables and gate-level circuits with reversibility and conservativity
checks, conservative dual-rail embeddings, a small quantum operator layer,
switching-energy models, and per-run dissipation ledgers with their
per-bit lower bound.
"""

from .circuits import (
    CNOT,
    FREDKIN,
    NOT,
    TOFFOLI,
    Circuit,
    Gate,
    GateKind,
    apply_gate,
    drop_garbage,
    dual_rail_codeword,
    dual_rail_embed,
    format_circuit,
    invert_circuit,
    parse_circuit,
    simulate,
    step_states,
    to_truth_table,
)
from .classify import (
    ControlStyle,
    DissipationLedger,
    Environment,
    LedgerEntry,
    Level,
    Stage,
    SystemProfile,
    check_bound,
    classify,
    format_ledger,
    ledger_dict,
    matching_bound,
    measurement_entry,
    run_ledger,
    sci6,
)
from .energy import (
    BoundInput,
    EnergyParams,
    PowerBreakdown,
    break_even_frequency,
    cpu_power,
    format_params,
    landauer_per_bit,
    lower_bound,
    parse_params,
    switching_current,
    wire_dissipation_per_cycle,
    wire_resistance,
)
from .errors import (
    DimensionMismatch,
    InconsistentProfile,
    LineOutOfRange,
    MissingParameter,
    NotReversible,
    NotUnitary,
    ParseError,
    RevlabError,
    TooWide,
    WidthMismatch,
    ZeroFrequency,
    ZeroNorm,
)
from .quantum import (
    Branch,
    MeasurementOutcome,
    Op,
    apply,
    gate_matrix,
    inverse,
    is_unitary,
    measure,
    parse_program,
    permutation_matrix,
    run_program,
    sample_program,
)
from .tables import (
    MAX_WIDTH,
    BitWord,
    TruthTable,
    compose,
    format_table,
    invert,
    is_conservative,
    is_reversible,
    parse_table,
)

__version__ = "0.1.0"
