#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that the generators are deterministic per seed, that a bad
initial database is refused, that a flipped reference verdict and an
injected exception each count as failed updates, that the trace
accounting holds (and catches a span outside its root), and that
``BENCHMARK.json`` names exactly the metrics the runner prints.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import (  # noqa: E402
    build, drive, end_to_end, ground_truth_violations, percentile,
)
from run import END_TO_END, SRC  # noqa: E402
from tracing import LAYER_METRICS, Tracer, accounting, layer_metrics  # noqa: E402
from workloads import VIO, WORKLOADS, Federation, Membership, WriteMix  # noqa: E402

#: small instances: the same generators at sizes that run in a second
SMALL = {
    "membership": lambda seed: Membership(seed, facts=400),
    "federation": lambda seed: Federation(seed, employees=60),
    "write-mix": lambda seed: WriteMix(seed, keys=200, live=100),
}


def stream_digest(workload, blocks: int = 20) -> str:
    """sha256 of the initial sites and the first *blocks* blocks."""
    payload = {
        "initial": workload.initial,
        "remotes": workload.remotes,
        "blocks": [workload.next_block() for _ in range(blocks)],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=list).encode()
    ).hexdigest()


class Tampered:
    """A workload whose blocks pass through *tamper* before use."""

    def __init__(self, inner, tamper) -> None:
        self.inner = inner
        self.tamper = tamper

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def next_block(self):
        block = self.inner.next_block()
        self.tamper(block)
        return block


def test_streams_are_deterministic_per_seed() -> None:
    for name, cls in WORKLOADS.items():
        first = stream_digest(cls(7))
        assert first == stream_digest(cls(7)), f"{name}: seed 7 not reproducible"
        assert first != stream_digest(cls(8)), f"{name}: seeds 7 and 8 agree"


def test_initial_databases_hold() -> None:
    for name, cls in WORKLOADS.items():
        assert ground_truth_violations(cls(1)) == [], name


def test_bad_initial_database_is_refused() -> None:
    workload = SMALL["membership"](1)
    workload.initial["acct"].append((workload.audited[0][0], "r0"))
    assert ground_truth_violations(workload) == ["no-audited-id"]


def _small_run(name: str, blocks: int = 3, workload=None, tracer=None, hook=None):
    workload = workload or SMALL[name](3)
    with tempfile.TemporaryDirectory() as tmp:
        setup = build(workload, os.path.join(tmp, "journal"))
        if hook is not None:
            hook(setup)
        try:
            if tracer is not None:
                tracer.install()
                setup.meter.tracer = tracer
            try:
                return drive(setup, workload, 0, max_blocks=blocks, tracer=tracer)
            finally:
                if tracer is not None:
                    setup.meter.tracer = None
                    tracer.uninstall()
        finally:
            setup.close()


def test_clean_runs_fail_nothing() -> None:
    for name in WORKLOADS:
        run = _small_run(name)
        assert run.failed == 0 and run.state_ok, (name, run)
        assert end_to_end(run, 1.0, 1.0)["correct_pct"] == 100.0


def test_flipped_verdict_counts_as_failed() -> None:
    def flip(block):
        if flip.done:
            return
        expected = block[0][0][4]
        first = next(iter(expected))
        expected[first] = "SATISFIED" if expected[first] == VIO else VIO
        flip.done = True

    for name in WORKLOADS:
        flip.done = False
        run = _small_run(name, workload=Tampered(SMALL[name](3), flip))
        assert run.failed == 1, (name, run.failed)
        assert end_to_end(run, 1.0, 1.0)["correct_pct"] < 100.0


def test_injected_exception_counts_and_run_continues() -> None:
    def inject(setup):
        real = setup.checker.check_stream
        calls = [0]

        def check_stream(updates, *args, **kwargs):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("injected")
            return real(updates, *args, **kwargs)

        setup.checker.check_stream = check_stream

    for name in WORKLOADS:
        clean = _small_run(name)
        run = _small_run(name, hook=inject)
        # Every update of the raised call fails; on write-mix, later
        # updates of keys the lost call touched fail as well.
        per_call = 8 if name == "write-mix" else 1
        assert run.raised == 1 and run.failed >= per_call, (name, run.failed)
        assert run.attempted == clean.attempted and run.blocks == clean.blocks
        assert end_to_end(run, 1.0, 1.0)["correct_pct"] < 100.0


def test_trace_accounts_for_total() -> None:
    extras = {
        "level1_hit_ratio": 0.0, "link_retries": 0, "remote_rows": 0,
        "journal_bytes_per_update": 0.0, "trace_overhead_pct": 0.0,
        "src_lines": 0,
    }
    for name in WORKLOADS:
        tracer = Tracer()
        run = _small_run(name, tracer=tracer)
        assert run.failed == 0, name
        ok, accounted, total = accounting(tracer.spans)
        assert ok and total > 0, (name, accounted, total)
        metrics = layer_metrics(tracer.spans, extras)
        assert set(metrics) == {metric for metric, _unit in LAYER_METRICS}
    # A single-thread child reaching past its root is caught.
    spans = [
        (1, "call", 0.0, 1.0, None, 0, 1, None),
        (2, "database.copy", 0.5, 1.5, 1, 0, 1, None),
    ]
    assert not accounting(spans)[0]


def test_percentile_leaves_ten_samples_beyond_p95_at_200() -> None:
    values = sorted(float(v) for v in range(200))
    p95 = percentile(values, 95)
    assert sum(v > p95 for v in values) == 10
    assert percentile(values, 50) == 99.0


def test_benchmark_json_matches_runner() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert os.path.isdir(SRC)


def main() -> int:
    tests = [
        (name, fn) for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report every failing test
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
