"""tools/output_digest.py: a copy of the source prints the same digest and
help lines as the source itself, in any terminal width, and a copy that
prints one other byte moves the line that holds it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def facts(src, **env):
    """The digest and help sha the tool prints for circuit-enum seed 1 run from `src`."""
    tool = ROOT / "tools" / "output_digest.py"
    argv = [sys.executable, str(tool), "--workload", "circuit-enum", "--seeds", "1", "--src", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, env={**os.environ, **env})
    return {
        "digest": done.stdout.split("digest ")[1].split(",")[0],
        "help": done.stdout.split("help: sha256 ")[1].split("\n")[0],
    }


@pytest.fixture(scope="module")
def original():
    return facts(ROOT / "src")


@pytest.mark.parametrize(
    "edit, env, moved",
    [
        # the text verdict of `check` prints "Yes" in place of "yes"
        (("cli.py", '"yes" if flag', '"Yes" if flag'), {}, {"digest"}),
        # `revlab --help` lists sim with one other letter; argparse collapses
        # whitespace, so a whitespace-only edit would print the same bytes
        (("cli.py", "run one input word", "run one input Word"), {}, {"help"}),
        # argparse wraps help to COLUMNS; the tool pins it
        (None, {"COLUMNS": "200"}, set()),
    ],
    ids=["verdict", "help", "columns"],
)
def test_output_digest_tells_a_changed_byte_from_a_moved_copy(tmp_path, original, edit, env, moved):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if edit:
        name, old, new = edit
        module = copy / "revlab" / name
        text = module.read_text()
        assert text.count(old) == 1
        module.write_text(text.replace(old, new))
    changed = facts(copy, **env)
    assert {line for line in original if changed[line] != original[line]} == moved
