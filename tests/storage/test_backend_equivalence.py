"""Backend equivalence: the SQLite backend is observationally identical
to the in-memory oracle.

For any update stream (insertions, deletions, modifications), either
application policy, and a flaky-or-healthy remote link, a
:class:`DistributedChecker` whose local site runs on
:class:`SQLiteBackend` must produce byte-identical verdicts, identical
drained verdicts after the link heals, the same final local state, and
the same session/protocol stats gauges as one running on the default
in-memory database — the same contract the sharded≡single property
holds the shard fleet to.
"""

import pytest

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.distributed.checker import DistributedChecker
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.site import FederatedDatabase, Site
from repro.storage import SQLiteBackend
from repro.updates.update import Deletion, Insertion, Modification

CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- p(X, Y) & p(Y, X)", "c_p"),
        Constraint("panic :- p(X, Y) & q(Y, Z) & s(Z, X)", "c_span"),
        Constraint("panic :- q(X, Y) & rem(Y)", "c_rem"),
        Constraint("panic :- s(X, X)", "c_diag"),
    ]
)
LOCAL = {"p", "q", "s"}


def make_sites(backend=None):
    return FederatedDatabase(
        local=Site("local", {pred: [] for pred in LOCAL}, backend=backend),
        remotes=[Site("remote", {"rem": [(99,), (3,)]})],
        local_predicates=LOCAL,
    )


def build_checker(backend, apply_on_unknown, flaky):
    sites = make_sites(backend)
    faults = FaultModel(failure_rate=1.0 if flaky else 0.0)
    link = RemoteLink(
        UnreliableRemote(sites.remotes["remote"], faults),
        FetchPolicy(max_attempts=2, failure_threshold=4, cooldown_fetches=1),
    )
    checker = DistributedChecker(
        CONSTRAINTS, sites, apply_on_unknown=apply_on_unknown, remote_link=link
    )
    return checker, link


def heal(link):
    link.remote.faults = FaultModel()


def verdict_key(reports):
    return tuple(
        (r.constraint_name, r.outcome.name, r.level.name) for r in reports
    )


def db_state(db):
    return {
        pred: sorted(db.facts(pred))
        for pred in db.predicates()
        if db.facts(pred)
    }


def run_both(updates, apply_on_unknown, flaky):
    """The full observation vector of one run under each backend."""
    observations = []
    for backend in (None, SQLiteBackend()):
        checker, link = build_checker(backend, apply_on_unknown, flaky)
        verdicts = [verdict_key(checker.process(u)) for u in updates]
        heal(link)
        drained = []
        for _ in range(100):
            if not checker.pending_count:
                break
            drained.extend(
                (str(update), verdict_key(reports))
                for update, reports in checker.resolve_pending()
            )
        observations.append(
            {
                "verdicts": verdicts,
                "drained": drained,
                "pending": checker.pending_count,
                "state": db_state(checker.sessions[0].local_db),
                "session_stats": checker.sessions[0].stats.to_dict(),
                "protocol_stats": checker.stats.to_dict(),
            }
        )
    return observations


class TestDirected:
    def test_simple_stream_matches(self):
        updates = [
            Insertion("p", (1, 2)),
            Insertion("p", (2, 1)),  # violates c_p
            Insertion("q", (1, 3)),  # escalates c_rem (3 is remote)
            Deletion("p", (1, 2)),
            Modification("p", (2, 1), (2, 5)),
            Insertion("s", (4, 4)),  # violates c_diag locally
        ]
        memory, sqlite = run_both(updates, apply_on_unknown=True, flaky=False)
        assert memory == sqlite

    def test_deferred_stream_matches(self):
        updates = [
            Insertion("q", (1, 3)),  # would violate c_rem; link is down
            Insertion("q", (2, 4)),
            Insertion("p", (1, 2)),
        ]
        memory, sqlite = run_both(updates, apply_on_unknown=False, flaky=True)
        assert memory == sqlite
        assert any(
            outcome == "DEFERRED"
            for key in memory["verdicts"]
            for _, outcome, _ in key
        )

    def test_pushdown_actually_engaged(self):
        checker, _ = build_checker(SQLiteBackend(), True, False)
        for value in range(6):
            checker.process(Insertion("q", (value, value + 10)))
        assert checker.sessions[0].local_db.pushdown_tests > 0


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @st.composite
    def update_streams(draw):
        count = draw(st.integers(min_value=1, max_value=30))
        updates = []
        facts = {pred: set() for pred in LOCAL}
        for _ in range(count):
            pred = draw(st.sampled_from(sorted(LOCAL)))
            fact = (
                draw(st.integers(min_value=0, max_value=5)),
                draw(st.integers(min_value=0, max_value=5)),
            )
            if facts[pred] and draw(st.booleans()) and draw(st.booleans()):
                victim = draw(st.sampled_from(sorted(facts[pred])))
                if draw(st.booleans()):
                    updates.append(Modification(pred, victim, fact))
                    facts[pred].discard(victim)
                    facts[pred].add(fact)
                else:
                    updates.append(Deletion(pred, victim))
                    facts[pred].discard(victim)
            else:
                updates.append(Insertion(pred, fact))
                facts[pred].add(fact)
        return updates

    @given(
        updates=update_streams(),
        apply_on_unknown=st.booleans(),
        flaky=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sqlite_backend_equivalent_to_memory(
        updates, apply_on_unknown, flaky
    ):
        memory, sqlite = run_both(updates, apply_on_unknown, flaky)
        assert memory == sqlite
