"""Set up the program on a generated workload and drive it in a closed loop.

One client: the next ``check_stream`` call starts only after the
previous one returned, as a site admits updates — each update's
apply-or-rollback finishes before the next update is checked.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import Outcome
from repro.datalog.database import Database
from repro.distributed.checker import DistributedChecker
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.sharded import KeyRangePartitioner, ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.durability.journal import JournalWriter
from repro.updates.update import Deletion, Insertion, Modification

#: drain rounds allowed per drain before the remaining entries count
#: as failed (each round is one resolve_pending call)
MAX_DRAIN_ROUNDS = 200

_SETTLED = (Outcome.SATISFIED, Outcome.VIOLATED)


def to_update(step: tuple):
    op, predicate, values, new_values, _expected = step
    if op == "+":
        return Insertion(predicate, values)
    if op == "-":
        return Deletion(predicate, values)
    return Modification(predicate, values, new_values)


def ground_truth_violations(workload) -> list[str]:
    """Constraints the initial database (every site merged) violates."""
    merged: dict[str, list] = {}
    for contents in [workload.initial, *workload.remotes.values()]:
        for predicate, facts in contents.items():
            merged.setdefault(predicate, []).extend(facts)
    db = Database(merged)
    return [
        name for name, text in workload.constraints
        if not Constraint(text, name).holds(db)
    ]


class RemoteMeter:
    """Count reads at the ``Site.snapshot`` boundary of every remote site.

    Installed per site instance, so it sees raw-site escalations and the
    attempts a ``RemoteLink`` makes alike; a refactor of the program's
    own counters cannot change what it counts.  With a tracer attached
    each read is also a span: ``remote.fetch`` when it is the whole
    fetch, ``remote.snapshot`` inside a traced ``RemoteLink.fetch``.
    """

    def __init__(self) -> None:
        self.snapshots = 0
        self.rows = 0
        self.tracer = None
        self._lock = threading.Lock()

    def install(self, site: Site) -> None:
        original = site.snapshot
        meter = self

        def snapshot(predicates=None):
            tracer = meter.tracer
            if tracer is None:
                db = original(predicates=predicates)
            else:
                name = (
                    "remote.snapshot"
                    if tracer.innermost() == "remote.fetch"
                    else "remote.fetch"
                )
                db = tracer.call(name, original, (), {"predicates": predicates})
            rows = db.size()
            with meter._lock:
                meter.snapshots += 1
                meter.rows += rows
            return db

        site.snapshot = snapshot


@dataclass
class Setup:
    """A checker ready for its first update, plus what tears it down."""

    checker: object
    sites: FederatedDatabase
    meter: RemoteMeter
    writer: Optional[JournalWriter] = None
    journal_dir: Optional[str] = None

    def links(self) -> list[RemoteLink]:
        link = self.checker.remote_link
        if link is None:
            return []
        return list(getattr(link, "links", {None: link}).values())

    def compiler(self):
        checker = self.checker
        return checker.compiler if isinstance(checker, ShardedChecker) else (
            checker.checker.compiler
        )

    def local_state(self) -> dict[str, set]:
        checker = self.checker
        db = (
            checker.local_database()
            if isinstance(checker, ShardedChecker)
            else self.sites.local.unmetered()
        )
        return {p: set(db.facts(p)) for p in db.predicates() if db.facts(p)}

    def close(self) -> None:
        for link in self.links():
            link.close()
        if isinstance(self.checker, ShardedChecker):
            self.checker.close()
        if self.writer is not None:
            self.writer.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def build(workload, journal_dir: Optional[str]) -> Setup:
    """Everything between the generated inputs being in memory and the
    checker being ready for its first update: constraint parsing and
    compilation (with subsumption), site and database load, links, shard
    partitioning and opening the journal.  This is what ``setup_s``
    times."""
    constraints = ConstraintSet(
        [Constraint(text, name) for name, text in workload.constraints]
    )
    remotes = [
        Site(name, contents) for name, contents in workload.remotes.items()
    ]
    sites = FederatedDatabase(
        local=Site("local", workload.initial),
        remotes=remotes,
        local_predicates=workload.local_predicates,
    )
    meter = RemoteMeter()
    if workload.checker == "sharded":
        cut = workload.keyspace // workload.SHARDS
        checker = ShardedChecker(
            constraints, sites,
            partitioner=KeyRangePartitioner(
                workload.SHARDS,
                {"meter": [cut * i for i in range(1, workload.SHARDS)]},
                workload.local_predicates,
            ),
            parallelism=workload.PARALLELISM,
            executor="thread",
        )
        writer = JournalWriter(journal_dir, sync_every=workload.SYNC_EVERY)
        checker.attach_effect_log(writer)
        setup = Setup(checker, sites, meter, writer, journal_dir)
    elif hasattr(workload, "FAILURE_RATE"):
        links = {
            site.name: RemoteLink(
                UnreliableRemote(
                    site,
                    FaultModel(
                        failure_rate=workload.FAILURE_RATE,
                        seed=workload.seed * 31 + index,
                    ),
                ),
                FetchPolicy(max_attempts=workload.ATTEMPTS),
                seed=workload.seed * 31 + index,
            )
            for index, site in enumerate(remotes)
        }
        checker = DistributedChecker(
            constraints, sites, apply_on_unknown=False, remote_links=links
        )
        setup = Setup(checker, sites, meter)
    else:
        setup = Setup(DistributedChecker(constraints, sites), sites, meter)
    for site in remotes:
        meter.install(site)
    return setup


@dataclass
class Pass:
    """What one driven pass over the stream observed."""

    latencies_ms: list[float] = field(default_factory=list)
    failed: int = 0
    local: int = 0
    raised: int = 0
    still_pending: int = 0
    call_s: float = 0.0
    drain_s: float = 0.0
    blocks: int = 0
    state_ok: bool = True
    snapshots: int = 0
    rows: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def _drain(setup: Setup, settled: dict, tracer, first_update: int) -> float:
    """Resolve deferred verdicts until none are pending (bounded)."""
    checker = setup.checker
    spent = 0.0
    for _round in range(MAX_DRAIN_ROUNDS):
        if not checker.pending_count:
            break
        if tracer is not None:
            tracer.open_root("call.drain", first_update)
        start = perf_counter()
        try:
            pairs = checker.resolve_pending()
        except Exception:  # noqa: BLE001 - counted: the entries stay pending
            traceback.print_exc(file=sys.stderr)
            pairs = None
        spent += perf_counter() - start
        if tracer is not None:
            tracer.close_root()
        if pairs is None:
            break
        for update, reports in pairs:
            settled[id(update)] = reports
    return spent


def drive(
    setup: Setup,
    workload,
    seconds: float,
    max_blocks: Optional[int] = None,
    tracer=None,
) -> Pass:
    """Run the closed loop until *seconds* have passed (checked at block
    boundaries) or *max_blocks* blocks were processed, then drain and
    compare every final verdict and the final local state with the
    generator's reference."""
    checker = setup.checker
    result = Pass()
    records: list[tuple] = []  # (update, expected, reports or None)
    settled: dict[int, list] = {}
    meter = setup.meter
    before = (meter.snapshots, meter.rows)
    start = perf_counter()
    while True:
        block = workload.next_block()
        for call in block:
            updates = [to_update(step) for step in call]
            if tracer is not None:
                tracer.open_root("call", len(records))
            t0 = perf_counter()
            try:
                reports = checker.check_stream(updates)
            except Exception:  # noqa: BLE001 - the run continues; counted below
                reports = [None] * len(updates)
                result.raised += 1
                if result.raised == 1:
                    traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close_root()
            result.call_s += elapsed
            for update, step, got in zip(updates, call, reports):
                result.latencies_ms.append(elapsed * 1e3)
                records.append((update, step[4], got))
        result.blocks += 1
        if workload.drain_every_block:
            result.drain_s += _drain(setup, settled, tracer, len(records))
        if max_blocks is not None:
            if result.blocks >= max_blocks:
                break
        elif perf_counter() - start >= seconds:
            break
    result.drain_s += _drain(setup, settled, tracer, len(records))
    result.snapshots = meter.snapshots - before[0]
    result.rows = meter.rows - before[1]

    for update, expected, reports in records:
        if reports is None:
            result.failed += 1
            continue
        if all(r.outcome in _SETTLED and not r.remote_accessed for r in reports):
            result.local += 1
        final = settled.get(id(update), reports)
        if any(r.outcome not in _SETTLED for r in final):
            result.still_pending += 1
            result.failed += 1
        elif {r.constraint_name: r.outcome.name for r in final} != expected:
            result.failed += 1
    reference = {p: facts for p, facts in workload.state().items() if facts}
    result.state_ok = setup.local_state() == reference
    return result


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least *pct*
    percent of the samples at or below it."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(rank, 1) - 1]


def end_to_end(run: Pass, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    n = run.attempted
    latencies = sorted(run.latencies_ms)
    return {
        "setup_s": setup_s,
        "update_p50_ms": percentile(latencies, 50),
        "update_p95_ms": percentile(latencies, 95),
        "throughput_ups": n / (run.call_s + run.drain_s),
        "remote_round_trips_per_kupdate": run.snapshots * 1000.0 / n,
        "remote_rows_per_update": run.rows / n,
        "local_resolved_pct": 100.0 * run.local / n,
        "correct_pct": 100.0 * (n - run.failed) / n,
        "peak_rss_mb": peak_rss_mb,
    }


def journal_bytes_per_update(setup: Setup, updates: int) -> float:
    if setup.writer is None or not updates:
        return 0.0
    setup.writer.sync()
    return os.path.getsize(setup.writer.path) / updates
