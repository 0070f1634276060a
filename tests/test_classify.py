"""Levels, profiles, and the per-run dissipation ledger."""

import itertools
import math
import random

import pytest

from revlab import (
    CNOT,
    FREDKIN,
    NOT,
    TOFFOLI,
    BitWord,
    BoundInput,
    Circuit,
    ControlStyle,
    DimensionMismatch,
    DissipationLedger,
    EnergyParams,
    Environment,
    InconsistentProfile,
    LedgerEntry,
    Level,
    Stage,
    SystemProfile,
    TruthTable,
    WidthMismatch,
    check_bound,
    classify,
    format_ledger,
    landauer_per_bit,
    ledger_dict,
    lower_bound,
    matching_bound,
    measurement_entry,
    run_ledger,
    sci6,
)

PARAMS = EnergyParams(ln2=0.693)
UNIT = landauer_per_bit(PARAMS)

CAPABILITY_FLAGS = (
    "software_tracked_only",
    "logical_reversible_components",
    "energy_conservative_components",
    "ideal_transmission",
)


def _profile(**kwargs):
    return SystemProfile(**kwargs)


def test_levels_are_totally_ordered():
    assert Level.NSLR < Level.SLR < Level.ESR < Level.FSR


def test_each_level_reachable():
    assert classify(_profile(software_tracked_only=True)) is Level.NSLR
    assert classify(_profile(logical_reversible_components=True)) is Level.SLR
    assert classify(_profile(energy_conservative_components=True)) is Level.ESR
    assert (
        classify(_profile(energy_conservative_components=True, ideal_transmission=True))
        is Level.FSR
    )


def test_classify_rejects_capability_free_profile():
    with pytest.raises(InconsistentProfile):
        classify(_profile())
    with pytest.raises(InconsistentProfile):
        classify(_profile(ideal_transmission=True))


def test_classify_monotone_in_capability_flags():
    for values in itertools.product((False, True), repeat=4):
        base = dict(zip(CAPABILITY_FLAGS, values))
        try:
            before = classify(_profile(**base))
        except InconsistentProfile:
            continue
        for flag in CAPABILITY_FLAGS:
            raised = dict(base)
            raised[flag] = True
            assert classify(_profile(**raised)) >= before


def test_profile_validation():
    with pytest.raises(ValueError):
        SystemProfile(instruction_bits=-1)
    with pytest.raises(ValueError):
        SystemProfile(recovered_fraction=1.5)
    with pytest.raises(ValueError, match=r"^reconfiguration_units must be finite and non-negative, got -0\.1$"):
        SystemProfile(reconfiguration_units=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("ideal_transmission", "no"),  # read by truth, it would drop INTERCONNECT
        ("logical_reversible_components", "no"),  # and classify as SLR
        ("recovered_fraction", "0.5"),  # compared, it would raise TypeError
        ("reconfiguration_units", "2"),
        ("instruction_bits", True),  # priced, it would print "bits": true
    ],
)
def test_a_profile_checks_the_type_of_each_flag_and_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        SystemProfile(**{field: value})


@pytest.mark.parametrize(
    "record, values, field",
    [
        (BoundInput, {"k": True}, "k"),
        (BoundInput, {"n_pr": False}, "n_pr"),
        (LedgerEntry, {"stage": Stage.CONTROL, "bits": True, "joules": 0.0}, "CONTROL bits"),
        (SystemProfile, {"recovered_fraction": True}, "recovered_fraction"),
        (SystemProfile, {"reconfiguration_units": False}, "reconfiguration_units"),
        (EnergyParams, {"T": True}, "T"),
        (EnergyParams, {"T": "300"}, "T"),  # compared, it would raise TypeError
        (LedgerEntry, {"stage": Stage.COMPUTE, "bits": 0, "joules": True}, "COMPUTE joules"),
        (LedgerEntry, {"stage": Stage.COMPUTE, "bits": 0, "joules": "1"}, "COMPUTE joules"),
        # format_* would write these as True or False, and no parser reads that
        (BitWord, {"width": True, "value": 1}, "width"),  # str() would raise
        (BitWord, {"width": 1, "value": True}, "value"),
        (BitWord, {"width": "3", "value": 1}, "width"),  # compared, it would raise TypeError
        (TruthTable, {"in_width": True, "out_width": 1, "rows": (1, 0)}, "in_width"),
        (TruthTable, {"in_width": 1, "out_width": True, "rows": (1, 0)}, "out_width"),
        (Circuit, {"width": True}, "width"),
        (Circuit, {"width": 3, "ancillas": {True: 0}}, "ancilla line"),
        (Circuit, {"width": 3, "ancillas": {2: True}}, "ancilla constant"),
        (Circuit, {"width": 3, "garbage": {False}}, "garbage line"),
    ],
)
def test_a_record_rejects_a_bool_or_a_string_where_a_number_goes(record, values, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        record(**values)


@pytest.mark.parametrize(
    "record, values, field",
    [
        (EnergyParams, {"T": -0.0}, "T"),
        (LedgerEntry, {"stage": Stage.COMPUTE, "bits": 0, "joules": -0.0}, "COMPUTE joules"),
        (SystemProfile, {"software_tracked_only": True, "reconfiguration_units": -0.0}, "reconfiguration_units"),
    ],
)
def test_a_record_rejects_a_negative_zero_like_any_negative_value(record, values, field):
    # -0.0 < 0 is False, and a report would print it as -0.000000e0 J
    with pytest.raises(ValueError, match=rf"^{field} must be finite and non-negative, got -0\.0$"):
        record(**values)


def test_ledger_entry_validation():
    with pytest.raises(ValueError):
        LedgerEntry(Stage.COMPUTE, -1, 0.0)
    with pytest.raises(ValueError):
        LedgerEntry(Stage.COMPUTE, 1, -1e-21)
    with pytest.raises(ValueError):
        LedgerEntry(Stage.COMPUTE, 1, float("nan"))


def test_ledger_total_and_concatenation():
    a = DissipationLedger((LedgerEntry(Stage.INPUT_SET, 2, 2 * UNIT),))
    b = DissipationLedger((LedgerEntry(Stage.OUTPUT_READ, 1, UNIT),), observable=False)
    both = a + b
    assert both.total == pytest.approx(a.total + b.total, rel=1e-12)
    assert len(both.entries) == 2
    assert both.observable is False
    assert DissipationLedger().total == 0.0


def _external_profile(**kwargs):
    defaults = dict(instruction_bits=2)
    defaults.update(kwargs)
    return SystemProfile(**defaults)


def test_run_ledger_stage_sequence():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    ledger = run_ledger(circuit, BitWord(2, 0), _external_profile(), PARAMS)
    stages = [e.stage for e in ledger.entries]
    assert stages == [
        Stage.INPUT_SET,
        Stage.CONTROL,
        Stage.CONTROL,
        Stage.COMPUTE,
        Stage.COMPUTE,
        Stage.INTERCONNECT,
        Stage.OUTPUT_READ,
    ]
    assert ledger.stage_bits(Stage.INPUT_SET) == 2
    # 00 -> 10 -> 11: one flip per gate
    assert ledger.stage_bits(Stage.COMPUTE) == 2
    assert ledger.stage_bits(Stage.OUTPUT_READ) == 2
    assert ledger.observable is True


def test_run_ledger_empty_circuit_costs_nothing():
    ledger = run_ledger(Circuit(0), BitWord(0, 0), SystemProfile(), PARAMS)
    assert ledger.entries == ()
    assert ledger.total == 0.0


def test_run_ledger_conservative_circuit_skips_compute():
    circuit = Circuit(3, (FREDKIN(0, 1, 2),))
    ledger = run_ledger(circuit, BitWord(3, 0b110), _external_profile(), PARAMS)
    assert ledger.stage_total(Stage.COMPUTE) == 0.0
    assert all(e.stage is not Stage.COMPUTE for e in ledger.entries)


def test_run_ledger_closed_environment():
    circuit = Circuit(2, (NOT(0),))
    profile = _external_profile(environment=Environment.CLOSED, reconfiguration_units=0.5)
    ledger = run_ledger(circuit, BitWord(2, 0), profile, PARAMS)
    assert ledger.observable is False
    assert all(e.stage is not Stage.OUTPUT_READ for e in ledger.entries)
    assert all(e.stage is not Stage.COMPUTE for e in ledger.entries)
    assert ledger.stage_total(Stage.INPUT_SET) == pytest.approx(2 * 0.5 * UNIT)


def test_run_ledger_control_styles():
    circuit = Circuit(2, (NOT(0), NOT(1), CNOT(0, 1)))
    external = run_ledger(circuit, BitWord(2, 0), _external_profile(), PARAMS)
    assert sum(e.stage is Stage.CONTROL for e in external.entries) == 3
    cyclic = run_ledger(
        circuit,
        BitWord(2, 0),
        _external_profile(control_style=ControlStyle.CYCLIC_TAG_REVERSIBLE),
        PARAMS,
    )
    assert sum(e.stage is Stage.CONTROL for e in cyclic.entries) == 1
    assert cyclic.stage_total(Stage.CONTROL) == pytest.approx(2 * UNIT)
    none = run_ledger(circuit, BitWord(2, 0), SystemProfile(), PARAMS)
    assert all(e.stage is not Stage.CONTROL for e in none.entries)


def test_a_profile_takes_each_enum_or_its_value_string():
    circuit = Circuit(2, (CNOT(0, 1),) * 3)
    word = BitWord.from_string("10")
    by_value = run_ledger(
        circuit, word, SystemProfile(control_style="EXTERNAL_IRREVERSIBLE", instruction_bits=4), PARAMS
    )
    assert sum(e.stage is Stage.CONTROL for e in by_value.entries) == 3
    by_member = SystemProfile(control_style=ControlStyle.EXTERNAL_IRREVERSIBLE, instruction_bits=4)
    assert by_value == run_ledger(circuit, word, by_member, PARAMS)
    closed = run_ledger(circuit, word, SystemProfile(environment="CLOSED"), PARAMS)
    assert closed.observable is False
    assert all(e.stage is not Stage.OUTPUT_READ for e in closed.entries)
    assert SystemProfile(environment="CLOSED") == SystemProfile(environment=Environment.CLOSED)
    with pytest.raises(ValueError, match="'closed' is not a valid Environment"):
        SystemProfile(environment="closed")
    with pytest.raises(ValueError, match="is not a valid ControlStyle"):
        SystemProfile(control_style="CYCLIC_TAG")


def test_run_ledger_ideal_wires_skip_interconnect():
    circuit = Circuit(2, (NOT(0),))
    ledger = run_ledger(
        circuit, BitWord(2, 0), SystemProfile(ideal_transmission=True), PARAMS
    )
    assert all(e.stage is not Stage.INTERCONNECT for e in ledger.entries)


def test_run_ledger_recovery_scales_compute():
    circuit = Circuit(4, (NOT(0), NOT(1), NOT(2)))
    full = run_ledger(circuit, BitWord(4, 0), SystemProfile(), PARAMS)
    half = run_ledger(
        circuit, BitWord(4, 0), SystemProfile(recovered_fraction=0.5), PARAMS
    )
    assert half.stage_total(Stage.COMPUTE) == pytest.approx(
        0.5 * full.stage_total(Stage.COMPUTE)
    )
    # charged bits never exceed what the energy pays for
    for entry in half.entries:
        if entry.stage is Stage.COMPUTE:
            assert entry.bits * UNIT <= entry.joules + 1e-32
    gone = run_ledger(
        circuit, BitWord(4, 0), SystemProfile(recovered_fraction=1.0), PARAMS
    )
    assert all(e.stage is not Stage.COMPUTE for e in gone.entries)


def test_run_ledger_rejects_wrong_input_width():
    with pytest.raises(WidthMismatch):
        run_ledger(Circuit(2), BitWord(3, 0), SystemProfile(), PARAMS)


def test_matching_bound_counts_stages():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    ledger = run_ledger(circuit, BitWord(2, 0), _external_profile(), PARAMS)
    bits = matching_bound(ledger)
    assert bits == BoundInput(k=2, l=2, i_r=2, n_pr=2)
    assert matching_bound(DissipationLedger()) == BoundInput(0, 0, 0, 0)


def test_check_bound_verdicts():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    ledger = run_ledger(circuit, BitWord(2, 0), _external_profile(), PARAMS)
    assert check_bound(ledger, matching_bound(ledger), PARAMS) is True
    empty = DissipationLedger()
    assert check_bound(empty, BoundInput(8, 8, 8, 8), PARAMS) is False
    # an absent stage is taken on faith, a present one must agree
    with pytest.raises(DimensionMismatch):
        check_bound(ledger, BoundInput(k=3, l=2, i_r=2, n_pr=2), PARAMS)


def test_check_bound_equality_counts_as_met():
    entries = (LedgerEntry(Stage.INPUT_SET, 4, 4 * UNIT),)
    ledger = DissipationLedger(entries)
    assert check_bound(ledger, BoundInput(k=4), PARAMS) is True


def test_check_bound_slack_scales_with_bound():
    # at 1 pK the floor is far below any fixed absolute slack
    params = EnergyParams(T=1e-12)
    unit = landauer_per_bit(params)
    ledger = DissipationLedger((LedgerEntry(Stage.INPUT_SET, 2, 2 * unit),))
    assert check_bound(ledger, BoundInput(k=2, l=1000), params) is False
    assert check_bound(ledger, BoundInput(k=2), params) is True


def test_bound_survives_random_profiles_with_all_stages():
    rng = random.Random(88)
    kinds = (NOT, CNOT, TOFFOLI, FREDKIN)
    accepted = 0
    while accepted < 60:
        width = rng.randint(2, 6)
        gates = []
        for _ in range(rng.randint(1, 8)):
            maker = rng.choice(kinds)
            need = {NOT: 1, CNOT: 2, TOFFOLI: 3, FREDKIN: 3}[maker]
            if width < need:
                continue
            gates.append(maker(*rng.sample(range(width), need)))
        circuit = Circuit(width, tuple(gates))
        profile = SystemProfile(
            instruction_bits=rng.randint(1, 8),
            recovered_fraction=rng.uniform(0.0, 0.9),
            ideal_transmission=rng.choice([True, False]),
            control_style=rng.choice(list(ControlStyle)),
        )
        word = BitWord(width, rng.randrange(1 << width))
        ledger = run_ledger(circuit, word, profile, PARAMS)
        present = {e.stage for e in ledger.entries}
        if not {Stage.INPUT_SET, Stage.OUTPUT_READ, Stage.CONTROL, Stage.COMPUTE} <= present:
            continue
        accepted += 1
        assert check_bound(ledger, matching_bound(ledger), PARAMS) is True


def test_measurement_entry_prices_transcription():
    entry = measurement_entry(3, PARAMS)
    assert entry.stage is Stage.MEASUREMENT
    assert entry.bits == 3
    assert entry.joules == pytest.approx(3 * UNIT)


def test_sci6_formatting():
    assert sci6(0.0) == "0.000000e0"
    assert sci6(UNIT) == "2.803511e-21"
    assert sci6(1.0) == "1.000000e0"
    assert sci6(-1.5e-4) == "-1.500000e-4"
    assert sci6(float("inf")) == "inf"
    assert sci6(float("-inf")) == "-inf"
    assert sci6(float("nan")) == "nan"


def test_report_and_dict_agree():
    circuit = Circuit(2, (NOT(0), CNOT(0, 1)))
    ledger = run_ledger(circuit, BitWord(2, 0), _external_profile(), PARAMS)
    text = format_ledger(ledger, PARAMS)
    payload = ledger_dict(ledger, PARAMS)
    assert f"total {sci6(ledger.total)} J" in text
    assert payload["total"] == pytest.approx(ledger.total)
    assert payload["bound"]["met"] is True
    assert "bound met: yes" in text
    assert len(payload["entries"]) == len(ledger.entries)
    for line_entry, entry in zip(payload["entries"], ledger.entries):
        assert line_entry["stage"] == entry.stage.value
        assert sci6(line_entry["joules"]) in text


def test_ledger_additive_totals_over_runs():
    circuit = Circuit(2, (NOT(0),))
    first = run_ledger(circuit, BitWord(2, 0), SystemProfile(), PARAMS)
    second = run_ledger(circuit, BitWord(2, 2), SystemProfile(), PARAMS)
    combined = first + second
    assert combined.total == pytest.approx(first.total + second.total, rel=1e-12)
    bound = matching_bound(combined)
    assert bound.k == 4
    assert check_bound(combined, bound, PARAMS) is True
