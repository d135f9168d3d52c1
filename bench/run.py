"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload search-oracle --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` seconds (a
workload with a fixed run length runs its fixed batches instead) and the
end-to-end metrics are reported; with ``--trace 1`` a fixed number of
batches runs twice, untraced and then traced, and the per-layer metrics are
reported.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the result for a reader.  The library is imported from ``src/`` of the
checkout this file sits in; all work runs in this process with jobs=1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = BENCH / "out"

SETUP_REPEATS = 9

# run in a fresh interpreter: import the package, then build each field cold
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import mdslab
from mdslab.gf import Field
for q in sys.argv[2:]:
    Field.from_order(int(q))
print(time.perf_counter() - t)
"""


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "jobs": 1}


def measure_setup(orders, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds of `import mdslab` plus cold field builds, fresh processes.

    One extra unrecorded run first, so bytecode compilation is not counted.
    """
    # mdslab makes no BLAS call; a 2-thread OpenBLAS pool start-up would add
    # 70 ms of noise that is numpy's, not the program's
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    samples = []
    for _ in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, orders)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=120)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def _timed_batch(wl, batch, checked):
    """Run one timed call and its checks; returns seconds, or None on error."""
    import workloads
    if wl.fresh_state:
        workloads.reset_module_caches()
    t0 = time.perf_counter()
    try:
        out = wl.call(batch)
    except Exception:           # a crashed call is a failed batch, not a crash
        traceback.print_exc(file=sys.stderr)
        n = wl.operations(batch)
        checked.add(workloads.Checked(attempted=n, failed=n))
        return None
    dt = time.perf_counter() - t0
    checked.add(wl.check(batch, out))
    return dt


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def run_untraced(wl, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS,
                 batches: int | None = None):
    """End-to-end metrics from timed calls.

    Calls run for `seconds` seconds, or over exactly `batches` batches when
    given (default: the workload's run_batches).  Interference from other
    processes only ever adds time, so the fast quartile of the calls is
    reported: configs_per_s is the upper quartile of per-call throughput and
    wall_s the lower quartile of per-call seconds.
    """
    import workloads
    if batches is None:
        batches = wl.run_batches
    setup_s = measure_setup(wl.orders, setup_repeats)
    fields = workloads.build_fields(wl.orders)
    checked = workloads.Checked()
    rates, walls = [], []
    start = time.perf_counter()
    for batch in itertools.islice(wl.batches(fields, random.Random(seed)), batches):
        # the batch running at the deadline completes; at least one runs
        if (batches is None and checked.attempted
                and time.perf_counter() - start >= seconds):
            break
        before = checked.configs
        dt = _timed_batch(wl, batch, checked)
        if dt is not None:
            rates.append((checked.configs - before) / dt)
            walls.append(dt)
    if not walls:
        raise RuntimeError("every timed call failed; no metric to report")
    metrics = {
        "configs_per_s": _quartiles(rates)[2],
        "wall_s": _quartiles(walls)[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, checked, {"timed_calls": len(walls)}


def _trace_pass(wl, seed: int, batches: int, tracer=None):
    """One pass over the first `batches` batches, from cold caches.

    Returns (wall seconds of field builds plus timed calls, Checked,
    (hits, misses, peak entries) of the subset-sum caches).
    """
    import tracing
    import workloads
    workloads.reset_module_caches()
    checked = workloads.Checked()
    hits = misses = entries = 0
    wall = 0.0
    with tracing.instrumented(tracer, workloads) if tracer else nullcontext():
        t0 = time.perf_counter()
        fields = workloads.build_fields(wl.orders)
        wall += time.perf_counter() - t0
        for batch in itertools.islice(wl.batches(fields, random.Random(seed)), batches):
            wall += _timed_batch(wl, batch, checked) or 0.0
            if wl.fresh_state:      # the next call empties the caches
                h, m, e = workloads.subset_cache_info()
                hits, misses, entries = hits + h, misses + m, max(entries, e)
        if not wl.fresh_state:
            hits, misses, entries = workloads.subset_cache_info()
    return wall, checked, (hits, misses, entries)


def run_traced(wl, seed: int, batches: int):
    """Per-layer metrics: the same batches untraced, then traced."""
    import tracing
    import workloads
    untraced_wall, checked, _ = _trace_pass(wl, seed, batches)
    tracer = tracing.Tracer()
    wall, traced_checked, cache = _trace_pass(wl, seed, batches, tracer)
    checked.add(traced_checked)
    metrics = tracing.layer_metrics(tracer, wall, untraced_wall, cache,
                                    traced_checked.checks)
    return metrics, checked, {"layers": tracing.layer_table(tracer),
                              "spans": tracer.spans}


def _spec_units(trace_on: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mdslab").is_dir() or not SPEC.is_file():
        print(f"error: {ROOT} holds no src/mdslab or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    units = _spec_units(bool(args.trace))
    if args.trace:
        metrics, checked, extra = run_traced(wl, args.seed, wl.trace_batches)
    else:
        metrics, checked, extra = run_untraced(wl, args.seed, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    env = environment()

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    frac = checked.failed / checked.attempted if checked.attempted else 1.0
    print(f"failed_frac {frac:.6g} fraction ({checked.failed}/{checked.attempted})")
    print("classes " + " ".join(f"{k}={v}" for k, v in sorted(checked.classes.items())))
    if "timed_calls" in extra:
        print(f"timed_calls {extra['timed_calls']}")
    for problem in checked.problems[:20]:
        print("problem " + problem)
    if args.trace:
        wall = metrics["trace.wall_s"]
        print("layer self time, share of traced wall time "
              f"{wall:.3f} s:", file=sys.stderr)
        for layer, (calls, busy) in extra["layers"].items():
            print(f"  {layer:28s} {busy:9.4f} s {busy / wall:7.1%} {calls:8d} calls",
                  file=sys.stderr)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "env": env,
            "metrics": metrics, "layers": extra["layers"],
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": extra["spans"]}))
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
