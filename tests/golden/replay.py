"""Replay the golden CLI corpus, ``verify --all --max-size 3`` and the six
demos, and name the first request or demo that differs.

Runs each request of ``cli_golden.json`` beside this script in process
through ``mvalg.cli.main`` and compares its stdout and exit code with the
recorded ones, then does the same for ``mvalg verify --all --max-size 3``
against ``verify_all_max_size_3.json`` and ``.exit``.  Then it runs each
``demos/*.py`` in process and compares its stdout with ``demos/<name>.out``
beside this script.  It imports nothing outside the standard library and
``mvalg``, so it runs under any interpreter ``pyproject.toml`` admits,
without pytest.  Exit 0 when everything matches; otherwise it prints the
first request or demo that differs and exits 1.

    PYTHONPATH=src python3 tests/golden/replay.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import runpy
import sys
from pathlib import Path

from mvalg.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "cli_golden.json"
DEMOS = sorted((HERE.parent.parent / "demos").glob("*.py"))


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


def first_demo_difference(demos: list[Path]) -> str | None:
    """The name of the first demo whose stdout differs from its golden file
    ``demos/<name>.out``, or None if all of them match."""
    for demo in demos:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        if out.getvalue() != (HERE / "demos" / f"{demo.stem}.out").read_text():
            return f"demo {demo.name} differs in stdout"
    return None


def replay() -> int:
    verify = {
        "argv": ["verify", "--all", "--max-size", "3"],
        "stdout": (HERE / "verify_all_max_size_3.json").read_text(),
        "exit": int((HERE / "verify_all_max_size_3.exit").read_text()),
    }
    corpus = json.loads(GOLDEN_FILE.read_text())
    difference = first_difference(corpus + [verify]) or first_demo_difference(DEMOS)
    python = f"Python {platform.python_version()}"
    if difference is not None:
        print(f"{python}: {difference}")
        return 1
    print(f"{python}: all {len(corpus)} requests of {GOLDEN_FILE.name}, verify --all --max-size 3 and {len(DEMOS)} demos match")
    return 0


if __name__ == "__main__":
    sys.exit(replay())
