"""One repetition of one workload, in a fresh process.

    python bench/worker.py --workload W --seed S --rep R --mode MODE

MODE is ``setup`` (exit once ready), ``run`` (the end-to-end measurement),
``base`` (what the traced run measures, untraced) or ``traced``.  For
``cli-process``, ``run`` starts one ``python -m mvalg`` child per request,
while ``base`` and ``traced`` replay the same requests in-process through
``mvalg.cli.main``.  The last line of stdout is one JSON object; ``ready_ns``
is the system-wide monotonic clock when inputs were ready, so the parent can
time set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)

OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)


def _inputs(workload: str, seed: int, rep: int, span):
    if workload == "verify-all":
        return workloads.verify_all_ops(seed, rep, span)
    if workload == "query-mix":
        return workloads.query_mix_ops(seed, rep, span)
    return workloads.cli_requests(seed, rep)


def _call_op(op):
    return op.call()


def _call_child(req):
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mvalg", *req.argv],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def _call_main(req):
    from mvalg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _verdict(item, result) -> str | None:
    """Untimed comparison with the expectation; a note when it fails."""
    try:
        if isinstance(result, Exception):
            ok = False
        elif isinstance(item, workloads.Request):
            ok = item.check(*result)
        else:
            ok = item.check(result)
    except Exception as exc:  # a malformed result is a failed operation, not a crash
        ok, result = False, f"{type(exc).__name__}: {exc}"
    if ok:
        return None
    label = getattr(item, "argv", None) or item.key
    return f"{item.cls} {label!r}: {str(result)[:200]}"


def _closed_loop(items, call, span, prefix: str) -> tuple[list[float], list[str]]:
    """One caller: each call starts when the previous one returned.  Each
    result is checked right after its call, outside the timing, and then
    dropped, so results do not pile up in memory."""
    latencies, failures = [], []
    for item in items:
        with span(f"{prefix}.{item.cls}"):
            t0 = time.perf_counter()
            try:
                result = call(item)
            except Exception as exc:  # an operation that raises is a failed operation
                result = exc
            t1 = time.perf_counter()
        latencies.append(t1 - t0)
        note = _verdict(item, result)
        if note:
            failures.append(note)
    return latencies, failures


def micro_us_per_call(seed: int) -> dict[str, float]:
    """Per-call cost of the element kernel, over loops of seeded elements."""
    from mvalg import algebras

    rng = random.Random(f"micro/{seed}")
    a = algebras.FiniteMV((2, 3, 4, 6))
    h = algebras.Hom(a, algebras.FiniteMV((4, 6, 12, 12)), (0, 1, 2, 3))
    xs = [workloads.random_element(rng, a.orders) for _ in range(4000)]
    ys = [workloads.random_element(rng, a.orders) for _ in range(4000)]
    pairs = list(zip(xs, ys))

    def per_call(loop) -> float:
        samples = []
        for _ in range(7):
            t0 = time.perf_counter()
            loop()
            samples.append((time.perf_counter() - t0) / len(xs) * 1e6)
        return statistics.median(samples)

    oplus = algebras._oplus
    return {
        "algebras.contains.us_per_call": per_call(lambda: [a.contains(x) for x in xs]),
        "algebras.oplus.us_per_call": per_call(lambda: [oplus(x, y) for x, y in pairs]),
        "algebras.hom_apply.us_per_call": per_call(lambda: [h(x) for x in xs]),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run", "base", "traced"), required=True)
    args = p.parse_args()

    import mvalg  # noqa: F401  (part of set-up: every workload pays the import)

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.mode == "traced":
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        span = tracer.span
    items = _inputs(args.workload, args.seed, args.rep, span)
    ready_ns = time.monotonic_ns()
    out = {"ready_ns": ready_ns}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is not None:
        out["micro"] = micro_us_per_call(args.seed)
        install(tracer)
    if args.workload == "cli-process" and args.mode == "run":
        call, prefix, who = _call_child, "request", resource.RUSAGE_CHILDREN
    elif args.workload == "cli-process":
        call, prefix, who = _call_main, "request", resource.RUSAGE_SELF
    else:
        call, prefix, who = _call_op, "op", resource.RUSAGE_SELF
    latencies, failures = _closed_loop(items, call, span, prefix)
    rss_kb = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    classes = [item.cls for item in items]
    out.update(
        wall_s=sum(latencies),
        rss_kb=rss_kb,
        latencies=latencies,
        classes=classes,
        attempted=len(items),
        failed=len(failures),
        failures=failures[:10],
        ops_per_class={c: classes.count(c) for c in dict.fromkeys(classes)},
    )
    if args.workload == "query-mix":
        out["repeat_share"] = workloads.repeat_share(items)
    if tracer is not None:
        inclusive, self_s = tracer.span_totals()
        from mvalg.oracles import op_tables  # unwrapped again by uninstall

        info = op_tables.cache_info()
        out.update(
            counts=dict(tracer.counts),
            inclusive_s=inclusive,
            self_s=self_s,
            ratios={name: tracer.ratio(name) for name in tracer.ratios},
            compute_s=tracer.excluding("cli.handler", "formats."),
            op_tables_hit_ratio=info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0,
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "id", "parent"], "spans": tracer.spans}, f)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
