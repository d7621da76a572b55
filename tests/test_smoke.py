"""The demos print their golden stdout, and the benchmark's tracer still
finds every mvalg function it wraps.

``tests/golden/make_demo_golden.py`` wrote the golden files; a change meant
to alter a demo's output regenerates them with it and says so.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{demo.stem}.out").read_text()


def test_benchmark_bindings_resolve(monkeypatch):
    # the traced benchmark run wraps mvalg functions by name; a renamed or
    # deleted one, or an import binding the wrapper misses, breaks it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from layers import install
    from tracer import Tracer

    tracer = Tracer()
    try:
        install(tracer)
        assert tracer.stale_bindings() == []
    finally:
        tracer.uninstall()
