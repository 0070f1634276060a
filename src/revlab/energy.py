"""Energy accounting for switching logic.

Covers the thermodynamic cost per irreversibly cleared bit, the aggregate
lower bound for a run that sets inputs, reads outputs, consumes control
bits and overwrites intermediate state, a three-way CPU power split
(dynamic, short-circuit, leakage), a DC wire loss model, and the clock
frequency at which per-cycle wire loss crosses the per-bit floor.

Parameter files use one `key = value` pair per line; keys are the field
names of EnergyParams and values are floats in SI units.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from .errors import MissingParameter, ParseError, ZeroFrequency
from .tables import meaningful_lines


@dataclass(frozen=True)
class EnergyParams:
    """Physical constants and technology parameters, SI units throughout.

    k_B is Boltzmann's constant, T the operating temperature, ln2 the log
    factor in the per-bit floor (settable so rounded published figures can
    be reproduced exactly), rho the wire resistivity, C the wire capacitance
    per unit length, V the supply voltage, f the clock frequency, and
    feature_lambda the layout scale factor.
    """

    # aluminum interconnect on a 1.2 um process, 5 V rail, 1 GHz clock
    k_B: float = 1.38e-23
    T: float = 293.15
    ln2: float = math.log(2.0)
    rho: float = 1.678e-8
    wire_length: float = 2.4e-5
    wire_cross_section: float = 1.2e-5
    C: float = 30e-15 / 1e-6
    V: float = 5.0
    f: float = 1e9
    feature_lambda: float = 12.0

    def __post_init__(self) -> None:
        for fld in fields(self):
            value = getattr(self, fld.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value) or math.copysign(1.0, value) < 0:
                raise ValueError(f"{fld.name} must be finite and non-negative, got {value!r}")
        if self.wire_cross_section == 0:
            raise ValueError("wire_cross_section must be positive")

    @property
    def c_total(self) -> float:
        """Total wire capacitance, farads."""
        return self.C * self.wire_length

    @property
    def spacing(self) -> float:
        """Wire pitch in layout units."""
        return 2.0 * self.feature_lambda


@dataclass(frozen=True)
class PowerBreakdown:
    """CPU power split into dynamic, short-circuit and leakage terms, watts."""

    p_dyn: float
    p_sc: float
    p_leak: float

    @property
    def p_cpu(self) -> float:
        return self.p_dyn + self.p_sc + self.p_leak


@dataclass(frozen=True)
class BoundInput:
    """Bit counts feeding the run-level lower bound.

    k input bits set, l output bits read out, i_r instruction bits consumed
    by irreversible control, n_pr intermediate bits overwritten.
    """

    k: int = 0
    l: int = 0
    i_r: int = 0
    n_pr: int = 0

    def __post_init__(self) -> None:
        for fld in fields(self):
            value = getattr(self, fld.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{fld.name} must be a non-negative int, got {value!r}")

    @property
    def total_bits(self) -> int:
        return self.k + self.l + self.i_r + self.n_pr

    def __add__(self, other: "BoundInput") -> "BoundInput":
        return BoundInput(
            self.k + other.k,
            self.l + other.l,
            self.i_r + other.i_r,
            self.n_pr + other.n_pr,
        )


def landauer_per_bit(params: EnergyParams) -> float:
    """Minimum dissipation for one irreversibly cleared bit, joules."""
    return params.k_B * params.T * params.ln2


def lower_bound(bits: BoundInput, params: EnergyParams) -> float:
    """Dissipation floor for a whole run, joules: every set input bit, read
    output bit, consumed instruction bit and overwritten intermediate bit
    costs at least one per-bit unit."""
    return bits.total_bits * landauer_per_bit(params)


def cpu_power(
    params: EnergyParams,
    ideal: bool = True,
    p_sc: float | None = None,
    p_leak: float | None = None,
    normalized: bool = False,
) -> PowerBreakdown:
    """Split CPU power into dynamic, short-circuit and leakage terms.

    The dynamic term is c_total * V^2 * f, or V * f with normalized=True
    (per-farad figure). An ideal device has no short-circuit or leakage
    term; otherwise both must be supplied in watts.
    """
    if normalized:
        p_dyn = params.V * params.f
    else:
        p_dyn = params.c_total * params.V**2 * params.f
    if ideal:
        if p_sc is not None or p_leak is not None:
            raise ValueError("an ideal device has no short-circuit or leakage power")
        return PowerBreakdown(p_dyn, 0.0, 0.0)
    if p_sc is None or p_leak is None:
        raise MissingParameter("non-ideal power needs both p_sc and p_leak")
    return PowerBreakdown(p_dyn, p_sc, p_leak)


def wire_resistance(params: EnergyParams) -> float:
    """DC resistance of the modeled wire, ohms."""
    return params.rho * params.wire_length / params.wire_cross_section


def switching_current(params: EnergyParams) -> float:
    """Average current charging the wire capacitance, amperes: the switching
    power 0.5 * c_total * V^2 * f divided by the rail voltage."""
    return 0.5 * params.c_total * params.V * params.f


def wire_dissipation_per_cycle(params: EnergyParams) -> float:
    """Resistive loss in the wire per clock cycle, joules."""
    if params.f <= 0:
        raise ZeroFrequency("per-cycle loss needs a positive clock frequency")
    i = switching_current(params)
    return i * i * wire_resistance(params) / params.f


def break_even_frequency(params: EnergyParams) -> float:
    """Clock frequency where per-cycle wire loss equals the per-bit floor.

    Per-cycle loss grows linearly in f, so below this frequency the wire
    loses less per cycle than one cleared bit must cost. Infinite when the
    wire is lossless.
    """
    a = (0.5 * params.c_total * params.V) ** 2 * wire_resistance(params)
    if a == 0:
        return math.inf
    return landauer_per_bit(params) / a


_FIELD_NAMES = tuple(fld.name for fld in fields(EnergyParams))


def parse_params(text: str) -> EnergyParams:
    """Parse a parameter file; unlisted keys keep their defaults."""
    values: dict[str, float] = {}
    for line in meaningful_lines(text):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}")
        key, _, token = (part.strip() for part in line.partition("="))
        if key not in _FIELD_NAMES:
            raise ParseError(f"unknown parameter {key!r} in {line!r}")
        if key in values:
            raise ParseError(f"parameter {key!r} set twice in {line!r}")
        try:
            values[key] = float(token)
        except ValueError as exc:
            raise ParseError(f"bad value {token!r} for {key!r} in {line!r}") from exc
        try:
            EnergyParams(**{key: values[key]})
        except ValueError as exc:
            raise ParseError(f"{exc} in {line!r}") from exc
    return EnergyParams(**values)


def format_params(params: EnergyParams) -> str:
    """Render every parameter as a `key = value` line."""
    return "\n".join(f"{name} = {getattr(params, name)!r}" for name in _FIELD_NAMES) + "\n"
