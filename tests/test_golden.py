"""Golden output bytes of ``mvalg``.

``tests/golden/make_verify_golden.py`` and ``tests/golden/make_cli_golden.py``
wrote the golden files; a change meant to alter the output regenerates them
with it and says so.
"""

import importlib.util
import json
import os
import re
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


def _starts(path: str, version: str, env: dict) -> bool:
    probe = subprocess.run(
        [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"], capture_output=True, text=True, env=env,
        timeout=30,
    )
    return probe.returncode == 0 and probe.stdout.strip() == version


def _interpreter_env(python: str) -> dict | None:
    """An environment in which ``python`` starts and reports its own
    major.minor version: the current one, or else the current one with
    PYENV_VERSION set to the newest matching ``pyenv versions --bare``
    entry.  A pyenv shim is found on the path even when the selected version
    lacks the command, so being found is not enough.  None when neither starts."""
    version = python.removeprefix("python")
    path = shutil.which(python)
    if path is None:
        return None
    if _starts(path, version, dict(os.environ)):
        return dict(os.environ)
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=30).stdout.split()
    matching = [v for v in listed if re.fullmatch(re.escape(version) + r"\.[0-9]+", v)]
    if not matching:
        return None
    env = {**os.environ, "PYENV_VERSION": max(matching, key=lambda v: tuple(map(int, v.split("."))))}
    return env if _starts(path, version, env) else None


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_cli_corpus_replays_under_each_admitted_interpreter(python):
    env = _interpreter_env(python)
    if env is None:
        pytest.skip(f"{python} does not start here")
    env["PYTHONPATH"] = str(SRC)
    replay = [shutil.which(python), str(GOLDEN / "replay.py")]
    result = subprocess.run(replay, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
