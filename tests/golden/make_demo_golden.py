"""Regenerate the golden stdout of the six demos.

Runs each ``demos/*.py`` in a fresh interpreter and writes its stdout to
``demos/<name>.out``, beside this script.  Each demo runs under two hash
seeds, and a demo whose output depends on the seed is refused, since the test
runs it under whatever seed it gets.  ``tests/test_smoke.py`` compares each
demo's stdout with its file.  Regenerate only for a change meant to alter a
demo's output, and say so with the change.

    PYTHONPATH=src python3 tests/golden/make_demo_golden.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUT_DIR = HERE / "demos"
HASH_SEEDS = ("0", "123")


def run(demo: Path, hashseed: str) -> subprocess.CompletedProcess:
    """Run one demo in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)


def golden_file(demo: Path) -> Path:
    return OUT_DIR / f"{demo.stem}.out"


if __name__ == "__main__":
    OUT_DIR.mkdir(exist_ok=True)
    for demo in DEMOS:
        results = [run(demo, seed) for seed in HASH_SEEDS]
        for result in results:
            if result.returncode != 0:
                sys.exit(f"{demo.name} exited {result.returncode}:\n{result.stderr}")
        if len({result.stdout for result in results}) != 1:
            sys.exit(f"{demo.name} prints differently under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
        golden_file(demo).write_text(results[0].stdout)
        print(f"wrote {golden_file(demo).name} ({len(results[0].stdout)} bytes)")
