"""Golden output bytes of ``mvalg verify``.

``tests/golden/make_verify_golden.py`` wrote the golden files; a change meant
to alter the output regenerates them with it and says so.
"""

from pathlib import Path

from mvalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_verify_all_at_size_3_matches_the_golden_bytes(capsys):
    code = main(["verify", "--all", "--max-size", "3"])
    assert capsys.readouterr().out == (GOLDEN / "verify_all_max_size_3.json").read_text()
    assert f"{code}\n" == (GOLDEN / "verify_all_max_size_3.exit").read_text()
