"""tools/output_digest.py: a copy of the source prints the same digest as
the source itself, in any terminal width, and a copy that prints one other
byte moves it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def digest(src, **env):
    """The digest the tool prints for circuit-enum seed 1 run from `src`."""
    tool = ROOT / "tools" / "output_digest.py"
    argv = [sys.executable, str(tool), "--workload", "circuit-enum", "--seeds", "1", "--src", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, env={**os.environ, **env})
    return done.stdout.split("digest ")[1].split(",")[0]


@pytest.fixture(scope="module")
def original():
    return digest(ROOT / "src")


@pytest.mark.parametrize(
    "edit, env, moved",
    [
        # the text verdict of `check` prints "Yes" in place of "yes"
        (("cli.py", '"yes" if flag', '"Yes" if flag'), {}, True),
        # no job prints argparse's help or usage, the only text wrapped to COLUMNS
        (None, {"COLUMNS": "200"}, False),
    ],
    ids=["verdict", "columns"],
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
    assert (digest(copy, **env) != original) == moved
