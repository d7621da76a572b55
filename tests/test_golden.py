"""Golden output bytes of ``mvalg``.

``tests/golden/make_verify_golden.py`` and ``tests/golden/make_cli_golden.py``
wrote the golden files; a change meant to alter the output regenerates them
with it and says so.
"""

import json
from pathlib import Path

from mvalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_CORPUS = json.loads((GOLDEN / "cli_golden.json").read_text())


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
