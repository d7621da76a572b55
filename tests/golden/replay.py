"""Replay the golden CLI corpus and name the first request that differs.

Runs each request of ``cli_golden.json`` beside this script in process
through ``mvalg.cli.main`` and compares its stdout and exit code with the
recorded ones.  It imports nothing outside the standard library and
``mvalg``, so it runs under any interpreter ``pyproject.toml`` admits,
without pytest.  Exit 0 when every request matches; otherwise it prints the
first request that differs and exits 1.

    PYTHONPATH=src python3 tests/golden/replay.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

from mvalg.cli import main

GOLDEN_FILE = Path(__file__).resolve().parent / "cli_golden.json"


def first_difference(corpus: list[dict]) -> str | None:
    """A description of the first request whose stdout or exit code differs
    from its golden record, or None if all of them match."""
    for index, request in enumerate(corpus):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(request["argv"])
        differs = ["stdout"] * (out.getvalue() != request["stdout"]) + ["exit code"] * (code != request["exit"])
        if differs:
            argv = [arg[:80] for arg in request["argv"]]  # a term or an algebra may run to kilobytes
            return f"request {index} differs in {' and '.join(differs)}: argv {argv}"
    return None


def replay() -> int:
    corpus = json.loads(GOLDEN_FILE.read_text())
    difference = first_difference(corpus)
    python = f"Python {platform.python_version()}"
    if difference is not None:
        print(f"{python}: {difference}")
        return 1
    print(f"{python}: all {len(corpus)} requests of {GOLDEN_FILE.name} match")
    return 0


if __name__ == "__main__":
    sys.exit(replay())
