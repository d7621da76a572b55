"""Self-test of the tracer.

    python3 bench/selftest.py

Run from the repository root.  Checks that:

* after the tracer is installed no mvalg module still binds a function it
  wrapped (a ``from .x import y`` binding the patching missed);
* on every workload at seed 0, each counter or span the workload must reach
  reads more than zero (``run.py --trace 1`` checks the same);
* BENCHMARK.json lists exactly the metrics run.py reports;
* on ``verify-all`` at seed 0, the call counts equal the reference counts
  below.  They were measured on the mvalg sources whose hash is
  REFERENCE_SOURCES; once the sources change, a change in how often these
  functions run is expected, so the counts are printed but not compared.

Exits 0 when every check holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import MUST_CALL, PER_LAYER, install  # noqa: E402
from run import END_TO_END_UNITS, worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SOURCES = "92e54d45ae1fefb9171e771627e38bc91a6626133f803ed5c4c8144b771747b7"
REFERENCE_COUNTS = {
    "algebras.contains.calls": 3_311_581,
    "algebras.hom_apply.calls": 2_001_544,
    "algebras.enumerate_homs.calls": 198_577,
    "oracles.brute_force_hom_graphs.calls": 4_900,
    "oracles.op_tables.calls": 25_234,
}


def sources_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(ROOT, "src", "mvalg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def benchmark_json_problems() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = [] if listed == END_TO_END_UNITS else [f"end_to_end {listed} != {END_TO_END_UNITS}"]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != list(PER_LAYER):
        problems.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")
    return problems


def main() -> int:
    problems = benchmark_json_problems()
    tracer = Tracer()
    install(tracer)
    problems += [f"unwrapped binding: {name}" for name in tracer.stale_bindings()]
    tracer.uninstall()

    for workload in WORKLOADS:
        traced = worker(workload, 0, 0, "traced")
        seen = {**traced["counts"], **traced["inclusive_s"]}
        problems += [f"{workload}: {name} never called" for name in MUST_CALL[workload] if not seen.get(name)]
        problems += [f"{workload}: {note}" for note in traced["failures"]]
        if workload != "verify-all":
            continue
        compare = sources_hash() == REFERENCE_SOURCES
        for name, expected in REFERENCE_COUNTS.items():
            got = traced["counts"].get(name, 0)
            print(f"verify-all {name}: {got} (reference {expected})")
            if compare and got != expected:
                problems.append(f"verify-all: {name} counted {got}, reference {expected}")
        if not compare:
            print("mvalg sources differ from the reference; counts not compared")

    for p in problems:
        print(f"FAILED {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
