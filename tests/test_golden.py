"""Golden output bytes of ``mvalg``.

``tests/golden/make_verify_golden.py`` and ``tests/golden/make_cli_golden.py``
wrote the golden files; a change meant to alter the output regenerates them
with it and says so.
"""

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from mvalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_CORPUS = json.loads((GOLDEN / "cli_golden.json").read_text())
SRC = GOLDEN.parent.parent / "src"


def test_verify_all_at_size_3_matches_the_golden_bytes(capsys):
    code = main(["verify", "--all", "--max-size", "3"])
    assert capsys.readouterr().out == (GOLDEN / "verify_all_max_size_3.json").read_text()
    assert f"{code}\n" == (GOLDEN / "verify_all_max_size_3.exit").read_text()


def test_cli_corpus_covers_the_ten_commands_in_both_formats():
    seen = {(r["argv"][0], r["argv"][-1], r["exit"]) for r in CLI_CORPUS}
    commands = ("eval", "decompose", "pierce", "coproduct", "separable", "subterminal", "spec", "rank", "pi0", "gamma")
    assert {(c, f, e) for c in commands for f in ("json", "text") for e in (0, 2)} <= seen


def test_cli_corpus_matches_the_golden_bytes(capsys):
    mismatched = []
    for request in CLI_CORPUS:
        code = main(request["argv"])
        if (capsys.readouterr().out, code) != (request["stdout"], request["exit"]):
            mismatched.append([arg[:80] for arg in request["argv"]])
    assert mismatched == []


def _replay_module():
    spec = importlib.util.spec_from_file_location("replay", GOLDEN / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_names_the_first_request_that_differs():
    first_difference = _replay_module().first_difference
    assert first_difference(CLI_CORPUS[:3]) is None
    tampered = [CLI_CORPUS[0], {**CLI_CORPUS[1], "exit": 9}, {**CLI_CORPUS[2], "stdout": ""}]
    assert first_difference(tampered) == f"request 1 differs in exit code: argv {CLI_CORPUS[1]['argv']}"
    assert first_difference(tampered[::2]).startswith("request 1 differs in stdout: argv ")


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_cli_corpus_replays_under_each_admitted_interpreter(python):
    # a pyenv shim is found on the path even when its version is not
    # installed, so an interpreter counts only once it runs and reports
    # its own major.minor version
    path = shutil.which(python)
    probe = path and subprocess.run(
        [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"], capture_output=True, text=True
    )
    if not probe or probe.returncode != 0 or probe.stdout.strip() != python.removeprefix("python"):
        pytest.skip(f"{python} does not start here")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([path, str(GOLDEN / "replay.py")], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
