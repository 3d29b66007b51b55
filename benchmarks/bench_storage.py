"""M11 — SQL pushdown backend: indexed local tests at 10k+ facts.

Drives one seeded update stream — dominated by selective Theorem 5.3
membership tests against a local relation far past what per-probe
rematerialization affords (the in-memory algebraic test rebuilds a
throwaway ``Database`` over the full relation for every probe) — through
two :class:`~repro.core.session.CheckSession` runs over the same
two-site split: the default in-memory backend and
:class:`~repro.storage.SQLiteBackend`, where the same compiled tests
execute as one indexed ``SELECT EXISTS`` each.

Asserts **byte-identical verdicts** (constraint, outcome, level — per
update, in order), an identical final local state, and — in the full
configuration — a **>= 2x wall-clock win** for the SQLite backend on
the hot path.

Runs as a pytest-benchmark file (``pytest benchmarks/bench_storage.py``)
or as a script::

    python benchmarks/bench_storage.py [--quick] [--facts N] [--json PATH]

The script writes a ``BENCH_storage.json`` artifact with the headline
numbers for CI archiving; all workload-derived fields are seeded and
deterministic (only the wall-clock timings vary run to run).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.distributed.site import FederatedDatabase, Site
from repro.storage import SQLiteBackend
from repro.updates.update import Deletion, Insertion

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

LOCAL = {"acct"}


def build_constraints() -> ConstraintSet:
    return ConstraintSet(
        [
            # Both compile to Theorem 5.3 algebraic local tests over acct:
            # an insertion passes locally iff a stored row already covers
            # its reduction — a selective membership probe.
            Constraint("panic :- acct(A, R) & frozen(R)", "no-frozen-region"),
            Constraint("panic :- acct(A, R) & audited(A)", "no-audited-id"),
        ]
    )


def build_workload(num_facts: int, num_updates: int, seed: int = 11):
    """A seeded base relation and stream.

    Most insertions reuse an existing (region, id) neighborhood so the
    local test settles them at level 2; a small tail uses fresh regions
    and escalates to the remote site identically under both backends.
    """
    rng = random.Random(seed)
    regions = [f"r{i}" for i in range(50)]
    base = [(i, rng.choice(regions)) for i in range(num_facts)]
    local = Database({"acct": base})
    updates = []
    next_id = num_facts
    alive = sorted(base)
    escalations_left = 3  # exercise the remote path without letting its
    # (backend-independent) full-database cost dominate the measurement
    for _ in range(num_updates):
        roll = rng.random()
        if roll >= 0.97 and escalations_left:
            # fresh region: the local test cannot settle it; escalates
            escalations_left -= 1
            fact = (next_id, f"fresh{next_id}")
            next_id += 1
            updates.append(Insertion("acct", fact))
        elif roll >= 0.88 and alive:
            victim = alive.pop(rng.randrange(len(alive)))
            updates.append(Deletion("acct", victim))
        else:
            # hot path: a known account id gains a row in an
            # already-populated region, so both membership tests pass
            fact = (rng.randrange(num_facts), rng.choice(regions))
            updates.append(Insertion("acct", fact))
            alive.append(fact)
    remote = Database(
        {"frozen": [("r999",)], "audited": [(n,) for n in range(0, 50)]}
    )
    return local, remote, updates


def make_sites(local: Database, remote: Database, backend=None):
    return FederatedDatabase(
        local=Site("local", local, backend=backend),
        remotes=[Site("remote", remote)],
        local_predicates=LOCAL,
    )


def verdict_key(reports):
    return tuple(
        (r.constraint_name, r.outcome.name, r.level.name) for r in reports
    )


def db_state(db):
    return {
        p: sorted(db.facts(p)) for p in db.predicates() if db.facts(p)
    }


def run_backend(constraints, local, remote, updates, backend=None):
    sites = make_sites(local, remote, backend)
    session = CheckSession(
        constraints, set(LOCAL), local_db=sites.local.unmetered()
    )
    t0 = time.perf_counter()
    verdicts = [
        verdict_key(session.process(u, remote=sites.remotes["remote"].snapshot))
        for u in updates
    ]
    elapsed = time.perf_counter() - t0
    return {
        "verdicts": verdicts,
        "state": db_state(session.local_db),
        "seconds": elapsed,
        "session": session,
        "db": session.local_db,
    }


def run_benchmark(quick: bool = False, num_facts: int | None = None):
    if num_facts is None:
        num_facts = 2_000 if quick else 12_000
    num_updates = 80 if quick else 400
    constraints = build_constraints()
    local, remote, updates = build_workload(num_facts, num_updates)

    memory = run_backend(constraints, local.copy(), remote.copy(), updates)
    sqlite = run_backend(
        constraints, local.copy(), remote.copy(), updates, SQLiteBackend()
    )

    assert memory["verdicts"] == sqlite["verdicts"], (
        "sqlite verdicts diverged from the in-memory backend"
    )
    assert memory["state"] == sqlite["state"], (
        "sqlite final state diverged from the in-memory backend"
    )
    speedup = memory["seconds"] / max(sqlite["seconds"], 1e-9)
    if not quick:
        assert speedup >= 2.0, (
            f"sqlite pushdown won only {speedup:.2f}x over the in-memory "
            f"hot path (expected >= 2x at {num_facts} facts)"
        )

    cache_info = sqlite["db"].statement_cache_info()
    rows = [
        (
            "memory",
            num_facts,
            len(updates),
            f"{memory['seconds']:.3f}",
            "-",
            "-",
        ),
        (
            "sqlite",
            num_facts,
            len(updates),
            f"{sqlite['seconds']:.3f}",
            sqlite["db"].pushdown_tests,
            f"{cache_info['hits']}/{cache_info['misses']}",
        ),
    ]
    print_table(
        "M11 — SQL pushdown backend vs in-memory (identical verdicts)",
        ["backend", "facts", "updates", "wall (s)", "pushdown tests",
         "stmt cache hit/miss"],
        rows,
    )
    print(f"speedup: {speedup:.2f}x")
    return {
        "facts": num_facts,
        "updates": len(updates),
        "verdicts_identical": True,
        "state_identical": True,
        "memory_seconds": round(memory["seconds"], 4),
        "sqlite_seconds": round(sqlite["seconds"], 4),
        "speedup": round(speedup, 2),
        "pushdown_tests": sqlite["db"].pushdown_tests,
        "statements_compiled": cache_info["misses"],
        "statement_cache_hits": cache_info["hits"],
        "escalations": sum(
            1
            for key in memory["verdicts"]
            for _, _, level in key
            if level == "FULL_DATABASE"
        ),
    }


def test_m11_storage_equivalence(benchmark):
    result = run_benchmark(quick=True)
    assert result["verdicts_identical"] and result["state_identical"]
    assert result["pushdown_tests"] > 0
    constraints = build_constraints()
    local, remote, updates = build_workload(2_000, 60)
    benchmark.pedantic(
        run_backend,
        args=(constraints, local, remote, updates, SQLiteBackend()),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (equivalence assertions only; "
        "the >= 2x wall-clock assertion needs the full 12k-fact run)",
    )
    parser.add_argument(
        "--facts", type=int, default=None, metavar="N",
        help="override the local relation size",
    )
    parser.add_argument(
        "--json", default="BENCH_storage.json", metavar="PATH",
        help="write the headline numbers to PATH (default BENCH_storage.json)",
    )
    args = parser.parse_args(argv)
    result = run_benchmark(quick=args.quick, num_facts=args.facts)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
