"""No command loads numpy: it serves only the dense test views.

Each case runs in a fresh interpreter with ``src`` on the path, drives
``tamari.cli.main`` with its stdout captured (and reads a JSON export back
with ``document_to_poset``), then reports whether numpy was imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
import tamari.cli
from tamari.io import document_to_poset

argv = sys.argv[1:]
if argv:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tamari.cli.main(argv) == 0
    if argv[-3:] == ["json", "--layout", "shifted"]:
        assert document_to_poset(json.loads(out.getvalue())).n > 1
print("numpy" in sys.modules)
"""

COMMANDS = [
    "",  # the import alone
    "enumerate --type b --n 5",
    "enumerate --type a --n 5 --format list",
    "lambda --type b --n 5",
    "lambda --type a --n 5",
    "lambda --type b --n 5 --k 2",
    "verify --claim all --n 2..5",
    "export --type b --n 4 --format dot --layout shifted",
    "export --type b --n 4 --format json --layout shifted",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_numpy_unimported(command):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *command.split()],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
