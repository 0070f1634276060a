"""Golden CLI corpus: exact stdout, stderr and exit code for small inputs.

Each entry of tests/golden/cases.json holds an argv, run through
revlab.cli.main from inside tests/golden, and the bytes that run printed
when the corpus was recorded. Any change to the CLI's output shows up here.
"""

import json
from pathlib import Path

import pytest

from revlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
