"""Span tracing from outside the program, and the per-layer metrics.

The benchmark adds no code to the program.  A :class:`Tracer` wraps the
public functions of each layer (class attributes, restored on
:meth:`Tracer.uninstall`) and records one span per call: name, start,
end, parent span, the update that was in flight, the thread, and a short
note on the outcome.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover.  The driver opens one root span per call it makes
into the program; the root's self time is the pipeline's own time
(``core.session``, ``distributed.checker`` and ``distributed.sharded``
code between the wrapped layers).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

ROOT_NAMES = ("call", "call.drain")

#: per-layer metrics, with units, in report order
LAYER_METRICS = [
    ("compiler.level1.calls", "count"),
    ("compiler.level1.ms", "ms"),
    ("compiler.level1.hit_ratio", "ratio"),
    ("localtests.algebraic.calls", "count"),
    ("localtests.algebraic.ms", "ms"),
    ("localtests.containment.calls", "count"),
    ("localtests.containment.ms", "ms"),
    ("localtests.interval.calls", "count"),
    ("localtests.interval.ms", "ms"),
    ("localtests.pass_ratio", "ratio"),
    ("constraints.holds.calls", "count"),
    ("constraints.holds.ms", "ms"),
    ("remote.fetch.calls", "count"),
    ("remote.fetch.ms", "ms"),
    ("remote.fetch.retries", "count"),
    ("remote.fetch.failed", "count"),
    ("remote.rows", "count"),
    ("drain.calls", "count"),
    ("drain.ms", "ms"),
    ("drain.settled", "count"),
    ("evaluation.maintain.calls", "count"),
    ("evaluation.maintain.ms", "ms"),
    ("database.apply.calls", "count"),
    ("database.apply.ms", "ms"),
    ("database.undo.calls", "count"),
    ("database.undo.ms", "ms"),
    ("database.copy.calls", "count"),
    ("database.copy.ms", "ms"),
    ("journal.record.calls", "count"),
    ("journal.record.ms", "ms"),
    ("journal.sync.calls", "count"),
    ("journal.sync.ms", "ms"),
    ("journal.bytes_per_update", "bytes"),
    ("pipeline.self_ms", "ms"),
    ("trace.total_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("src_lines", "lines"),
]

#: the wrapped layers, each reported as ``<layer>.calls`` and ``<layer>.ms``
LAYERS = [
    name[: -len(".ms")] for name, _unit in LAYER_METRICS if name.endswith(".ms")
]


class Tracer:
    """Record spans around wrapped callables."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent, update, thread, note)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[type, str, object]] = []
        #: the driver's open root span; worker-thread spans with no
        #: enclosing span on their own thread hang under it
        self.root: Optional[int] = None
        #: index of the first update the open root call carries
        self.update: Optional[int] = None
        self._root_start = 0.0

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def open_root(self, name: str, update: int) -> None:
        sid = next(self._ids)
        self.root = sid
        self.update = update
        self._stack().append((sid, name))
        self._root_start = perf_counter()

    def close_root(self) -> None:
        end = perf_counter()
        sid, name = self._stack().pop()
        self.spans.append(
            (sid, name, self._root_start, end, None, self.update,
             threading.get_ident(), None)
        )
        self.root = None

    def call(self, name, fn: Callable, args, kwargs, note=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name* (a
        string, or a function of the arguments)."""
        if not isinstance(name, str):
            name = name(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        sid = next(self._ids)
        stack.append((sid, name))
        outcome = "raised"
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            outcome = note(result) if note else None
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, self.update,
                 threading.get_ident(), outcome)
            )

    # -- wrapping -----------------------------------------------------------
    def patch(self, owner: type, attr: str, name, note=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, note)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced layer's public entry points."""
        from repro.constraints.constraint import Constraint
        from repro.core.compiler import ConstraintCompiler, LocalTestPlan
        from repro.datalog.database import Database
        from repro.datalog.evaluation import Materialization
        from repro.distributed.checker import DistributedChecker
        from repro.distributed.remote import RemoteLink
        from repro.distributed.sharded import ShardedChecker
        from repro.durability.journal import JournalWriter

        self.patch(ConstraintCompiler, "level1_verdict", "compiler.level1")
        self.patch(
            LocalTestPlan, "run_against",
            lambda plan, *a, **k: f"localtests.{plan.kind}",
            note=lambda passed: "pass" if passed else "fail",
        )
        self.patch(Constraint, "holds", "constraints.holds")
        self.patch(RemoteLink, "fetch", "remote.fetch")
        for owner in (DistributedChecker, ShardedChecker):
            self.patch(owner, "resolve_pending", "drain", note=len)
        for attr in ("apply_delta", "revert", "fires"):
            self.patch(Materialization, attr, "evaluation.maintain")
        for attr in ("apply", "undo", "copy"):
            self.patch(Database, attr, f"database.{attr}")
        self.patch(JournalWriter, "record_update", "journal.record")
        self.patch(JournalWriter, "sync", "journal.sync")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times in ms from the first span."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, update, thread, note in sorted(
                self.spans, key=lambda span: span[2]
            ):
                out.write(json.dumps({
                    "id": sid, "name": name,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                    "parent": parent, "update": update,
                    "thread": thread, "note": note,
                }) + "\n")


def _covered(start: float, end: float, children: list[tuple]) -> float:
    """Length of the union of the children's intervals within [start, end]."""
    covered = 0.0
    cursor = start
    for _sid, _name, c_start, c_end, *_rest in sorted(children, key=lambda s: s[2]):
        c_start = max(c_start, cursor)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return covered


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self time in seconds."""
    children: dict[Optional[int], list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    return {
        span[0]: (span[3] - span[2]) - _covered(span[2], span[3], children[span[0]])
        for span in spans
    }


def accounting(spans: list[tuple]) -> tuple[bool, float, float]:
    """Check that layer self times plus pipeline self time account for
    the traced total.

    Returns ``(ok, accounted_s, total_s)``.  Under a root whose spans all
    ran on its own thread the two must agree to 0.1%; where worker
    threads ran spans concurrently, busy time may exceed wall time but
    never fall short of it.
    """
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    busy: dict[int, float] = defaultdict(float)
    threaded: set[int] = set()
    for span in spans:
        root = span
        while root[4] is not None:
            root = by_id[root[4]]
        busy[root[0]] += selfs[span[0]]
        if span[6] != root[6]:
            threaded.add(root[0])
    ok = True
    accounted = total = 0.0
    for root, spent in busy.items():
        wall = by_id[root][3] - by_id[root][2]
        total += wall
        accounted += spent
        tolerance = 1e-3 * wall + 1e-6
        if spent < wall - tolerance:
            ok = False
        if root not in threaded and spent > wall + tolerance:
            ok = False
    return ok, accounted, total


def layer_metrics(spans: list[tuple], extras: dict) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (self times in ms)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    pipeline_ms = 0.0
    failed_fetches = 0
    passes = tests = 0
    settled = 0
    for sid, name, _start, _end, _parent, _update, _thread, note in spans:
        if name in ROOT_NAMES:
            pipeline_ms += selfs[sid] * 1e3
            continue
        if name == "remote.snapshot":
            # a raw site read inside a link fetch is part of that fetch
            self_ms["remote.fetch"] += selfs[sid] * 1e3
            continue
        calls[name] += 1
        self_ms[name] += selfs[sid] * 1e3
        if name.startswith("localtests."):
            tests += 1
            passes += note == "pass"
        elif name == "remote.fetch" and note == "raised":
            failed_fetches += 1
        elif name == "drain" and isinstance(note, int):
            settled += note
    metrics: dict[str, float] = {"pipeline.self_ms": pipeline_ms}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.ms"] = self_ms[layer]
    metrics["compiler.level1.hit_ratio"] = extras["level1_hit_ratio"]
    metrics["localtests.pass_ratio"] = passes / tests if tests else 0.0
    metrics["remote.fetch.retries"] = extras["link_retries"]
    metrics["remote.fetch.failed"] = failed_fetches
    metrics["remote.rows"] = extras["remote_rows"]
    metrics["drain.settled"] = settled
    metrics["journal.bytes_per_update"] = extras["journal_bytes_per_update"]
    metrics["trace.total_ms"] = sum(
        span[3] - span[2] for span in spans if span[4] is None
    ) * 1e3
    metrics["trace_overhead_pct"] = extras["trace_overhead_pct"]
    metrics["src_lines"] = extras["src_lines"]
    return metrics


def dominant_layer(metrics: dict[str, float]) -> str:
    """The self-time metric of the layer that spent the most time."""
    names = [f"{layer}.ms" for layer in LAYERS] + ["pipeline.self_ms"]
    return max(names, key=metrics.__getitem__)
