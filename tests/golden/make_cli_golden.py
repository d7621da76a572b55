"""Regenerate the golden output of the ten non-verify ``mvalg`` commands.

Runs each request of ``requests()`` in process through ``mvalg.cli.main`` and
writes its argv, stdout and exit code, in order, to ``cli_golden.json`` beside
this script.  The requests cover every command in ``--format json`` and
``--format text`` over finite, rational-chain, supernatural, product and
simplicial algebras, ``spec --elem``, and the malformed-input classes of
``tests/test_cli.py`` (exit 2, empty stdout).  The golden file pins the
output bytes: regenerate it only for a change meant to alter the output, and
say so with the change.

    PYTHONPATH=src python3 tests/golden/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from mvalg.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "cli_golden.json"

FINITE = ['{"finite":[2,3]}', '{"finite":[4]}', '{"finite":[]}', '{"finite":[1,6]}', '{"finite":[2,2,3]}']
CHAIN = '{"rational":{"kind":"chain","n":6}}'
CHAIN3 = '{"rational":{"kind":"chain","n":3}}'
TWO_INF = '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"all":false}}'
MIXED = '{"rational":{"kind":"supernatural","primes":{"2":"inf","3":1},"all":false}}'
FULL = '{"rational":{"kind":"supernatural","primes":{},"all":true}}'
PRODUCT = '{"product":[{"rational":{"kind":"chain","n":2}},{"kind":"chain","n":3}]}'
MIXED_PRODUCT = '{"product":[' + MIXED + ',{"kind":"chain","n":5}]}'
SIMPLICIAL = '{"simplicial":{"rank":2,"unit":[2,3]}}'
RATIONAL = [CHAIN, CHAIN3, TWO_INF, MIXED, FULL]
NOT_FINITE = [*RATIONAL, PRODUCT, SIMPLICIAL]
OVER_BUDGET = json.dumps({"finite": [1] * 17})  # pierce and spec accept at most 16 components

SPACES = [
    '{"points":0,"opens":[[]]}',
    '{"points":2,"opens":[[],[0],[0,1]]}',
    '{"points":2,"opens":[[],[0],[1],[0,1]]}',
    '{"points":3,"opens":[[],[0],[0,1],[0,2],[0,1,2]]}',
    '{"points":4,"opens":[[],[0,1],[2,3],[0,1,2,3]]}',
]

# one request per malformed-input class of tests/test_cli.py
MALFORMED = [
    ["separable", "--alg", "{not json"],
    ["separable", "--alg", '{"finite":[0]}'],
    ["pi0"],
    ["eval", "--alg", '{"finite":[2]}', "--term", "x +"],
    ["pi0", "--space", '{"points":2,"opens":[[],[0]]}'],
    ["decompose", "--alg", '{"finite":[true,2]}'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "x", "--env", '{"x":[true]}'],
    ["subterminal", "--alg", '{"rational":{"kind":"chain","n":true}}'],
    ["rank", "--alg", '{"rational":{"kind":"supernatural","primes":{},"all":"false"}}', "--elem", '"1/3"'],
    ["spec", "--alg", '{"finite":[2]}', "--elem", '["0.5"]'],
    ["spec", "--alg", '{"finite":[2]}', "--elem", '["1e-1"]'],
    ["spec", "--alg", '{"finite":[2]}', "--elem", '[" 1/2"]'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "!" * 1000 + "x", "--env", '{"x":"1/2"}'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "!" * 5000 + "x", "--env", '{"x":"1/2"}'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "(" * 100 + "x" + ")" * 100, "--env", '{"x":"1/2"}'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "x + " * 3000 + "x", "--env", '{"x":"1/2"}'],
    ["pi0", "--space", '{"points":2,"opens":[[],[-1],[0,1]]}'],
    ["pi0", "--space", '{"points":2,"opens":[[],[true],[0,1]]}'],
    ["pi0", "--space", '{"points":true,"opens":[[]]}'],
    ["pi0", "--space", '{"points":1000000000,"opens":[[]]}'],
    ["spec", "--alg", OVER_BUDGET],
    ["pierce", "--alg", OVER_BUDGET],
    ["spec", "--alg", '{"finite":[2,3]}', "--elem", '["1/3","0"]'],
    ["spec", "--alg", '{"finite":[2,3]}', "--elem", '["1"]'],
    ["rank", "--alg", CHAIN, "--elem", '"1/4"'],
    ["rank", "--alg", TWO_INF, "--elem", '"1/3"'],
    ["rank", "--alg", MIXED, "--elem", '"1/9"'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "x", "--env", '{"x":"1/3"}'],
    ["eval", "--alg", '{"finite":[2]}', "--term", "y"],
    ["coproduct", "--alg", '{"finite":[2]}'],
    ["decompose"],
]


def _base_requests() -> list[list[str]]:
    out: list[list[str]] = []
    envs = {
        FINITE[0]: '{"x":["1/2","1/3"],"y":["1","2/3"]}',
        FINITE[1]: '{"x":"1/4","y":"3/4"}',
        '{"finite":[6]}': '{"x":"1/3","y":"1/2"}',
    }
    for alg, env in envs.items():
        for term in ("!(x + x)", "x * y v !x", "(x ^ y) + 1/2", "0 v 1", "x + y"):
            out.append(["eval", "--alg", alg, "--term", term, "--env", env])
    out.append(["eval", "--alg", FINITE[2], "--term", "!x", "--env", '{"x":[]}'])
    for cmd in ("decompose", "pierce", "separable", "subterminal", "spec", "gamma"):
        for alg in FINITE + NOT_FINITE:
            out.append([cmd, "--alg", alg])
    finite_pairs = [(FINITE[0], FINITE[0]), (FINITE[0], FINITE[1]), (FINITE[2], FINITE[3]), ('{"finite":[2]}', '{"finite":[3]}')]
    rational_pairs = [(CHAIN, TWO_INF), (TWO_INF, CHAIN3), (MIXED, '{"rational":{"kind":"chain","n":10}}'), (FULL, CHAIN), (CHAIN3, CHAIN3)]
    for a, b in finite_pairs + rational_pairs + [(FINITE[0], CHAIN), (PRODUCT, CHAIN), (SIMPLICIAL, FINITE[0])]:
        out.append(["coproduct", "--alg", a, "--alg", b])
    out.append(["separable", "--alg", MIXED_PRODUCT])
    for alg, elem in [
        (FINITE[0], '["1","0"]'), (FINITE[0], '["1/2","1/3"]'), (FINITE[0], '["0","0"]'),
        (FINITE[3], '["1","1/6"]'), (FINITE[4], '["1","0","1"]'), (FINITE[2], "[]"),
    ]:
        out.append(["spec", "--alg", alg, "--elem", elem])
    for alg, elem in [
        (FINITE[0], '["1/2","1/3"]'), (FINITE[0], '["1","0"]'), (FINITE[4], '["1/2","1/2","2/3"]'),
        (CHAIN, '"1/2"'), (CHAIN, '"1/6"'), (CHAIN, '"5/6"'), (CHAIN, "1"),
        (TWO_INF, '"3/8"'), (TWO_INF, '"1/1024"'), (MIXED, '"5/12"'), (MIXED, '"7/24"'),
        (FULL, '"1/7"'), (FULL, '"22/35"'), (PRODUCT, '["1/2","1/3"]'), (MIXED_PRODUCT, '["3/4","2/5"]'),
    ]:
        out.append(["rank", "--alg", alg, "--elem", elem])
    for space in SPACES:
        out.append(["pi0", "--space", space])
    return out


def requests() -> list[list[str]]:
    """Every request, in both output formats."""
    return [argv + ["--format", fmt] for argv in _base_requests() + MALFORMED for fmt in ("json", "text")]


def run(argv: list[str]) -> tuple[str, int]:
    """The stdout and the exit code of ``mvalg <argv>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


if __name__ == "__main__":
    corpus = []
    for argv in requests():
        stdout, code = run(argv)
        corpus.append({"argv": argv, "stdout": stdout, "exit": code})
    GOLDEN_FILE.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE.name} ({len(corpus)} requests)")
