#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced pass (and the tracing overhead against
an untraced pass over the same blocks) and writes the spans to
``perfbench/out/``.  Every update's final verdict and the final local
state are checked against the generator's reference.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when the run completed (the ``correct`` field says
whether the program's outputs were right), 2 when the program's source
is missing, 3 when the generated initial database violates a
constraint.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: setups timed per run; setup_s is their median
SETUP_REPS = 25

END_TO_END = [
    ("setup_s", "s"),
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
    ("throughput_ups", "1/s"),
    ("remote_round_trips_per_kupdate", "count"),
    ("remote_rows_per_update", "count"),
    ("local_resolved_pct", "%"),
    ("correct_pct", "%"),
    ("peak_rss_mb", "MB"),
]


def src_lines() -> int:
    total = 0
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units) -> None:
    print(f"{'metric':<34} {'value':>14}  unit")
    for name, unit in units:
        print(f"{name:<34} {metrics[name]:>14.4f}  {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units
        },
    }))


def describe(name: str, run) -> None:
    print(
        f"{name}: {run.attempted} updates in {run.blocks} blocks, "
        f"{run.failed} failed ({run.raised} calls raised, "
        f"{run.still_pending} still pending), final state "
        f"{'matches' if run.state_ok else 'DIFFERS FROM'} the reference"
    )


def run_untraced(workload, seconds: float) -> int:
    from harness import build, drive, end_to_end

    times = []
    for rep in range(SETUP_REPS):
        journal = os.path.join(OUT, f"journal-{os.getpid()}-{rep}")
        gc.collect()  # garbage of the previous setup is not this one's cost
        start = perf_counter()
        setup = build(workload, journal)
        times.append(perf_counter() - start)
        if rep < SETUP_REPS - 1:
            setup.close()
    try:
        run = drive(setup, workload, seconds)
    finally:
        setup.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(run, statistics.median(times), peak_mb)
    describe(workload.name, run)
    print(f"src_lines (informational): {src_lines()}")
    emit(run.failed == 0 and run.state_ok, run.attempted, run.failed,
         metrics, END_TO_END)
    return 0


def run_traced(workload_cls, seed: int, seconds: float) -> int:
    from harness import build, drive, journal_bytes_per_update
    from tracing import LAYER_METRICS, Tracer, accounting, dominant_layer, layer_metrics

    # Untraced pass over the first half of the time; the traced pass
    # then replays exactly the same blocks on a fresh setup.
    workload = workload_cls(seed)
    setup = build(workload, os.path.join(OUT, f"journal-{os.getpid()}-u"))
    try:
        plain = drive(setup, workload, seconds / 2)
    finally:
        setup.close()

    workload = workload_cls(seed)
    setup = build(workload, os.path.join(OUT, f"journal-{os.getpid()}-t"))
    compiler = setup.compiler()
    tracer = Tracer()
    try:
        level1_before = compiler.level1_cache_info()
        retries_before = sum(link.stats.retries for link in setup.links())
        tracer.install()
        setup.meter.tracer = tracer
        try:
            traced = drive(setup, workload, seconds, max_blocks=plain.blocks,
                           tracer=tracer)
        finally:
            setup.meter.tracer = None
            tracer.uninstall()
        level1 = compiler.level1_cache_info()
        hits = level1["hits"] - level1_before["hits"]
        lookups = hits + level1["misses"] - level1_before["misses"]
        extras = {
            "level1_hit_ratio": hits / lookups if lookups else 0.0,
            "link_retries": sum(link.stats.retries for link in setup.links())
            - retries_before,
            "remote_rows": traced.rows,
            "journal_bytes_per_update": journal_bytes_per_update(
                setup, traced.attempted
            ),
            "trace_overhead_pct": 100.0 * (
                (traced.call_s + traced.drain_s) / (plain.call_s + plain.drain_s)
                - 1.0
            ),
            "src_lines": src_lines(),
        }
    finally:
        setup.close()

    ok, accounted, total = accounting(tracer.spans)
    metrics = layer_metrics(tracer.spans, extras)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(trace_path)
    describe(f"{workload.name} (untraced)", plain)
    describe(f"{workload.name} (traced)", traced)
    print(
        f"trace: {len(tracer.spans)} spans -> {os.path.relpath(trace_path, ROOT)}; "
        f"layer self times + pipeline self = {accounted * 1e3:.1f} ms of "
        f"{total * 1e3:.1f} ms traced ({'ok' if ok else 'NOT ACCOUNTED'}); "
        f"dominant layer: {dominant_layer(metrics)}"
    )
    correct = (
        ok and plain.failed == 0 and plain.state_ok
        and traced.failed == 0 and traced.state_ok
    )
    emit(correct, traced.attempted, traced.failed, metrics, LAYER_METRICS)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: the program's source is missing ({SRC}/repro); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from harness import ground_truth_violations
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed)
    violated = ground_truth_violations(workload)
    if violated:
        print(
            f"perfbench: the generated initial database violates {violated}; "
            "refusing to run",
            file=sys.stderr,
        )
        return 3
    if args.trace:
        return run_traced(workload_cls, args.seed, args.seconds)
    return run_untraced(workload, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
