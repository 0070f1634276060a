"""tools/output_digest.py: a copy of the source gives the same digest as the
source itself, and a copy that prints one other byte gives another."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(src):
    """The digest the tool prints for circuit-enum seed 1 run from `src`."""
    tool = ROOT / "tools" / "output_digest.py"
    argv = [sys.executable, str(tool), "--workload", "circuit-enum", "--seeds", "1", "--src", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return done.stdout.split("digest ")[1].split(",")[0]


def test_output_digest_tells_a_changed_verdict_from_a_moved_copy(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    original = digest(ROOT / "src")
    assert digest(copy) == original
    # the text verdict of `check` prints "Yes" in place of "yes"
    cli = copy / "revlab" / "cli.py"
    text = cli.read_text()
    assert text.count('"yes" if flag') == 1
    cli.write_text(text.replace('"yes" if flag', '"Yes" if flag'))
    assert digest(copy) != original
