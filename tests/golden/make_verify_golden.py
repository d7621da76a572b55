"""Regenerate the golden output of ``mvalg verify --all --max-size 3``.

Runs the command in process through ``mvalg.cli.main`` and writes its stdout
to ``verify_all_max_size_3.json`` and its exit code to
``verify_all_max_size_3.exit``, beside this script.  The golden files pin the
output bytes: regenerate them only for a change meant to alter the output,
and say so with the change.

    PYTHONPATH=src python3 tests/golden/make_verify_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from mvalg.cli import main

ARGV = ["verify", "--all", "--max-size", "3"]
HERE = Path(__file__).resolve().parent
STDOUT_FILE = HERE / "verify_all_max_size_3.json"
EXIT_FILE = HERE / "verify_all_max_size_3.exit"


def run() -> tuple[str, int]:
    """The stdout and the exit code of ``mvalg verify --all --max-size 3``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(ARGV)
    return out.getvalue(), code


if __name__ == "__main__":
    stdout, code = run()
    STDOUT_FILE.write_text(stdout)
    EXIT_FILE.write_text(f"{code}\n")
    print(f"wrote {STDOUT_FILE.name} ({len(stdout)} bytes) and {EXIT_FILE.name} (exit {code})")
