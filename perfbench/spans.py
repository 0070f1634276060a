"""Spans around revlab's public functions, recorded from outside the package.

Each traced function is replaced, in every revlab module namespace that
refers to it, by a wrapper that records a span: name, start, end, parent span
and job id. The real code path is followed, because the CLI and the library
call the wrappers exactly where they called the originals. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

# span name -> (defining module, function name)
TRACED = {
    "cli.main": ("revlab.cli", "main"),
    "tables.parse_table": ("revlab.tables", "parse_table"),
    "tables.format_table": ("revlab.tables", "format_table"),
    "tables.is_reversible": ("revlab.tables", "is_reversible"),
    "tables.is_conservative": ("revlab.tables", "is_conservative"),
    "tables.invert": ("revlab.tables", "invert"),
    "circuits.parse_circuit": ("revlab.circuits", "parse_circuit"),
    "circuits.format_circuit": ("revlab.circuits", "format_circuit"),
    "circuits.to_truth_table": ("revlab.circuits", "to_truth_table"),
    "circuits.simulate": ("revlab.circuits", "simulate"),
    "circuits.step_states": ("revlab.circuits", "step_states"),
    "circuits.dual_rail_embed": ("revlab.circuits", "dual_rail_embed"),
    "classify.run_ledger": ("revlab.classify", "run_ledger"),
    "classify.format_ledger": ("revlab.classify", "format_ledger"),
    "classify.ledger_dict": ("revlab.classify", "ledger_dict"),
    "energy.parse_params": ("revlab.energy", "parse_params"),
    "quantum.parse_program": ("revlab.quantum", "parse_program"),
    "quantum.run_program": ("revlab.quantum", "run_program"),
    "quantum.sample_program": ("revlab.quantum", "sample_program"),
    "quantum.apply": ("revlab.quantum", "apply"),
    "quantum.measure": ("revlab.quantum", "measure"),
}
# the namespaces whose references are replaced
NAMESPACES = ("revlab.cli", "revlab.classify", "revlab.quantum", "revlab.tables", "revlab.circuits")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    rows: int = 0  # table rows or branches the call produced, where that applies
    gates: int = 0  # gates per row, for to_truth_table
    mass: float = 0.0  # probability kept, for run_program

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; `uninstall` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self.largest_table = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._table_type = None

    def install(self) -> None:
        self._table_type = importlib.import_module("revlab.tables").TruthTable
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for span_name, (module_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self.largest_table = None

    def _wrap(self, name: str, fn):
        materialize = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._note(span, args, result)
            return iter(result) if materialize else result

        traced.__wrapped__ = fn
        return traced

    def _note(self, span: Span, args, result) -> None:
        """Record the sizes a call produced, outside its timed interval."""
        if span.name == "tables.format_table":
            span.rows = len(args[0].rows)
        elif span.name == "quantum.run_program":
            span.rows = len(result)
            span.mass = sum(branch.probability for branch in result)
        else:
            table = getattr(result, "embedded", result)
            if not isinstance(table, self._table_type):
                return
            span.rows = len(table.rows)
            if span.name == "circuits.to_truth_table":
                span.gates = len(args[0].gates)
            if self.largest_table is None or span.rows > len(self.largest_table.rows):
                self.largest_table = table

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "job": s.job, "rows": s.rows,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    for s, t in zip(spans, own):
        busy[s.name] = busy.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.rows

    def b(name: str) -> float:
        return busy.get(name, 0.0)

    gate_evals = sum(s.rows * s.gates for s in spans if s.name == "circuits.to_truth_table")
    ledgers = [i for i, s in enumerate(spans) if s.name == "classify.run_ledger"]
    ledger_set = set(ledgers)
    ledger_rows = sum(
        s.rows for s in spans if s.name == "circuits.to_truth_table" and s.parent in ledger_set
    )
    runs = [s for s in spans if s.name == "quantum.run_program"]
    return {
        "cli.main.self_s": (b("cli.main"), "s"),
        "tables.parse_table.busy_s": (b("tables.parse_table"), "s"),
        "tables.parse_table.rows": (rows.get("tables.parse_table", 0), "count"),
        "tables.predicates.busy_s": (
            b("tables.is_reversible") + b("tables.is_conservative") + b("tables.invert"), "s"
        ),
        "tables.format_table.busy_s": (b("tables.format_table"), "s"),
        "tables.format_table.rows": (rows.get("tables.format_table", 0), "count"),
        "circuits.parse_circuit.busy_s": (b("circuits.parse_circuit"), "s"),
        "circuits.format_circuit.busy_s": (b("circuits.format_circuit"), "s"),
        "circuits.to_truth_table.busy_s": (b("circuits.to_truth_table"), "s"),
        "circuits.to_truth_table.gate_evals": (gate_evals, "count"),
        "circuits.gate_evals_per_s": (
            gate_evals / b("circuits.to_truth_table") if b("circuits.to_truth_table") else 0.0, "1/s"
        ),
        "circuits.simulate.busy_s": (b("circuits.simulate"), "s"),
        "circuits.step_states.busy_s": (b("circuits.step_states"), "s"),
        "circuits.dual_rail_embed.busy_s": (b("circuits.dual_rail_embed"), "s"),
        "circuits.dual_rail_embed.rows": (rows.get("circuits.dual_rail_embed", 0), "count"),
        # inclusive: its step_states, to_truth_table and predicate children
        # are reported on their own, and self_s is what is left
        "classify.run_ledger.busy_s": (sum(spans[i].duration for i in ledgers), "s"),
        "classify.run_ledger.self_s": (b("classify.run_ledger"), "s"),
        "classify.run_ledger.rows_per_run": (ledger_rows / len(ledgers) if ledgers else 0.0, "count"),
        "classify.format_ledger.busy_s": (b("classify.format_ledger") + b("classify.ledger_dict"), "s"),
        "energy.parse_params.busy_s": (b("energy.parse_params"), "s"),
        "quantum.parse_program.busy_s": (b("quantum.parse_program"), "s"),
        "quantum.run_program.busy_s": (b("quantum.run_program"), "s"),
        "quantum.sample_program.busy_s": (b("quantum.sample_program"), "s"),
        "quantum.apply.calls": (calls.get("quantum.apply", 0), "count"),
        "quantum.apply.busy_s": (b("quantum.apply"), "s"),
        "quantum.measure.calls": (calls.get("quantum.measure", 0), "count"),
        "quantum.measure.busy_s": (b("quantum.measure"), "s"),
        "quantum.branches_kept": (sum(s.rows for s in runs), "count"),
        "quantum.kept_mass": (sum(s.mass for s in runs) / len(runs) if runs else 0.0, "ratio"),
    }
