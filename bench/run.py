"""Benchmark entry point: runs one workload and prints its metrics.

    python3 bench/run.py --workload {verify-all,query-mix,cli-process} \\
        --seed N --seconds T --trace {0,1}

Run from the repository root.  All load comes from this one process: it
starts one worker process at a time (bench/worker.py), each a fresh
interpreter, so no import or ``lru_cache`` state carries over between
repetitions.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over several worker starts), the time a repetition spends in its
operations (median over repetitions), per-operation latency (median and
tail, pooled over repetitions) and peak RSS.  ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer metrics, measured from outside
mvalg by bench/tracer.py; it never reports end-to-end numbers.

Every output is checked against an expectation the benchmark derives on its
own; a mismatch counts as a failed operation.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it repeat each metric with its unit, the failure ratio,
and the host.  A full report and the trace spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

from layers import MUST_CALL, PER_LAYER  # noqa: E402
from workloads import NOMINAL_REP_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 20  # set-up-only worker starts per run, besides the measured ones
STARTUP_SAMPLES = 7  # interpreter / import-time probes per traced run
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, rep: int, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--mode", mode]
    started_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} rep {rep} exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} rep {rep} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = (out.pop("ready_ns") - started_ns) / 1e9
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); with ten samples or fewer, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def latency_by_class(runs: list[dict]) -> dict[str, dict[str, float]]:
    by_class: dict[str, list[float]] = {}
    for r in runs:
        for cls, x in zip(r["classes"], r["latencies"]):
            by_class.setdefault(cls, []).append(x * 1e3)
    return {c: {"median": statistics.median(v), "max": max(v), "total": sum(v)} for c, v in by_class.items()}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    reps = max(1, round(seconds / NOMINAL_REP_S[workload]))
    setups = [worker(workload, seed, 0, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = [worker(workload, seed, rep, "run") for rep in range(reps)]
    setups += [r["setup_s"] for r in runs]
    latencies = [x for r in runs for x in r["latencies"]]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
    }
    report = {
        "repetitions": reps,
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "wall_s_per_rep": [r["wall_s"] for r in runs],
        "ops_per_class": runs[0]["ops_per_class"],
        "latency_ms_by_class": latency_by_class(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:10],
    }
    if "repeat_share" in runs[0]:
        report["repeat_share"] = statistics.mean(r["repeat_share"] for r in runs)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, report


def startup_breakdown() -> dict[str, float]:
    """Interpreter start, ``site`` and mvalg import, timed from outside."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, site, imports = [], [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mvalg.cli"],
                              check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        site_us = import_us = 0
        for line in proc.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <name>"; nested imports are indented
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit() or parts[2].startswith("  "):
                continue
            name, cumulative = parts[2].strip(), int(parts[1])
            if name == "site":
                site_us += cumulative
            elif name == "mvalg" or name.startswith("mvalg."):
                import_us += cumulative
        site.append(site_us / 1e3)
        imports.append(import_us / 1e3)
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.site_ms": statistics.median(site),
        "cli.import_ms": statistics.median(imports),
    }


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    base = worker(workload, seed, 0, "base")
    traced = worker(workload, seed, 0, "traced")
    values = dict(startup_breakdown())
    values.update(traced["micro"])
    values["oracles.op_tables.hit_ratio"] = traced["op_tables_hit_ratio"]
    values["cli.compute.s"] = traced["compute_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            key = name[:-2] if name.endswith(".s") else name
            source = traced["inclusive_s"] if name.endswith(".s") else {**traced["counts"], **traced["ratios"]}
            values[name] = source.get(key, 0)
        metrics[name] = (values[name], unit)
    seen = {**traced["counts"], **traced["inclusive_s"]}
    missing = [name for name in MUST_CALL[workload] if not seen.get(name)]
    runs = (base, traced)
    report = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:10] + [f"layer never called: {n}" for n in missing],
        "uncalled_layers": missing,
        "counts": traced["counts"],
        "inclusive_s": traced["inclusive_s"],
        "self_s": traced["self_s"],
        "base_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    return metrics, report


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mvalg", "__init__.py")):
        print(f"error: no mvalg package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # untimed: a fresh checkout has no bytecode yet, and compiling it is not set-up work
    for path in (SRC, BENCH):
        compileall.compile_dir(path, quiet=1)

    try:
        if args.trace:
            metrics, report = per_layer(args.workload, args.seed)
        else:
            metrics, report = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    host = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not report.get("uncalled_layers")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"host": host, "metrics": metrics, **report}, f, indent=1)

    print(" ".join(f"{k}={v}" for k, v in host.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for key in ("repetitions", "latency_samples", "latency_tail_percentile", "repeat_share", "ops_per_class"):
        if key in report:
            print(f"{key} {report[key]}")
    for note in report["failures"]:
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
