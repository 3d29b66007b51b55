"""The distributed checking protocol: local first, remote only if needed.

"Only if this test is inconclusive do we need to make a second test that
looks at the remote data" (Section 1).  :class:`DistributedChecker` runs
the level pipeline against the local site and escalates to the metered
remote site only on UNKNOWN, recording per-level statistics — the
measurements behind the M1 benchmark.

Every entry point — :meth:`DistributedChecker.process`,
:meth:`DistributedChecker.check_stream` and
:meth:`DistributedChecker.process_transaction` — drives one persistent
:class:`~repro.core.session.CheckSession` over the local site, which
maintains constraint materializations by delta instead of re-evaluating
and reports reuse counters through :class:`ProtocolStats`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Union

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import CheckSession
from repro.core.transaction import Transaction
from repro.datalog.database import Database
from repro.distributed.remote import FederationLink, RemoteLink
from repro.distributed.site import FederatedDatabase
from repro.distributed.stats import (  # noqa: F401  (re-exported)
    _SESSION_GAUGES,
    ProtocolStats,
    sync_session_gauges,
)
from repro.updates.update import Update

__all__ = [
    "ProtocolStats",
    "DistributedChecker",
    "sync_session_gauges",
    "resolve_escalation_link",
]

#: the escalation surface a checker fetches through — one link or a
#: whole-federation fan-out (both expose fetch / fetch_nowait /
#: wait_inflight / close / stats)
EscalationLink = Union[RemoteLink, FederationLink]


def resolve_escalation_link(
    sites: FederatedDatabase,
    remote_link: Optional[RemoteLink] = None,
    remote_links: Optional[Mapping[str, RemoteLink]] = None,
    parallel_fanout: bool = True,
    snapshot_ttl: Optional[float] = None,
    site_ttls: Optional[Mapping[str, float]] = None,
) -> Optional[EscalationLink]:
    """Resolve the escalation link for a (possibly federated) database.

    With a single remote the legacy surface is preserved exactly: the
    scalar *remote_link* (or the one entry of *remote_links*) is used
    as-is, and ``None`` means the checker falls back to the raw metered
    ``remote.snapshot`` path.  With several remotes the result is always
    a :class:`~repro.distributed.remote.FederationLink` — each site gets
    its entry from *remote_links* or, when absent, a default fault-free
    :class:`~repro.distributed.remote.RemoteLink` wrapper; a scalar
    *remote_link* is rejected as ambiguous.
    """
    remotes = sites.remotes
    if remote_links is not None:
        unknown = set(remote_links) - set(remotes)
        if unknown:
            raise ValueError(
                f"remote_links names unknown sites: {sorted(unknown)}"
            )
    if len(remotes) == 1:
        only = next(iter(remotes))
        if remote_link is not None and remote_links:
            raise ValueError("pass remote_link or remote_links, not both")
        if remote_links:
            return remote_links.get(only)
        return remote_link
    if remote_link is not None:
        raise ValueError(
            "a federated database has several remotes; pass per-site "
            "remote_links instead of a single remote_link"
        )
    links = {
        name: (remote_links or {}).get(name) or RemoteLink(site)
        for name, site in remotes.items()
    }
    return FederationLink(
        links,
        sites.site_of,
        parallel=parallel_fanout,
        snapshot_ttl=snapshot_ttl,
        site_ttls=site_ttls,
    )


class DistributedChecker:
    """Enforce constraints at the local site of a federated database.

    *sites* may be the classic :class:`TwoSiteDatabase` or any
    :class:`FederatedDatabase`; with several remotes every escalation
    fetch fans out across the involved sites through a
    :class:`~repro.distributed.remote.FederationLink` (see
    :func:`resolve_escalation_link` for how *remote_link* /
    *remote_links* resolve).
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint],
        sites: FederatedDatabase,
        apply_on_unknown: bool = True,
        remote_link: Optional[RemoteLink] = None,
        overlap_remote: bool = False,
        remote_links: Optional[Mapping[str, RemoteLink]] = None,
        parallel_fanout: bool = True,
        snapshot_ttl: Optional[float] = None,
        site_ttls: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.sites = sites
        resolved = resolve_escalation_link(
            sites, remote_link, remote_links,
            parallel_fanout=parallel_fanout,
            snapshot_ttl=snapshot_ttl,
            site_ttls=site_ttls,
        )
        if overlap_remote and resolved is None:
            raise ValueError(
                "overlap_remote needs a RemoteLink (the raw site has no "
                "async fetch queue)"
            )
        self.checker = PartialInfoChecker(
            constraints,
            local_predicates=sites.local_predicates,
            site_of=sites.site_of,
        )
        self.apply_on_unknown = apply_on_unknown
        #: when set, every remote fetch goes through the link's
        #: retry/backoff/breaker policy (a FederationLink's per-site
        #: policies with several remotes); exhausted fetches degrade the
        #: verdict to DEFERRED instead of raising
        self.remote_link: Optional[EscalationLink] = resolved
        #: issue in-stream escalation fetches through the link's async
        #: queue: the update defers immediately (future in tow) and the
        #: stream keeps flowing while the fetch is in flight
        self.overlap_remote = overlap_remote
        self.stats = ProtocolStats()
        self._session: Optional[CheckSession] = None

    @property
    def session(self) -> CheckSession:
        """The lazily created stream session; shares the checker's
        compiled constraints and operates directly on the local site."""
        if self._session is None:
            self._session = CheckSession(
                compiler=self.checker.compiler,
                local_db=self.sites.local.unmetered(),
                apply_on_unknown=self.apply_on_unknown,
            )
        return self._session

    @property
    def remote_source(self) -> Callable[..., Database]:
        """The escalation fetch function: the fault-tolerant link when
        configured, the raw metered site otherwise.  Both accept a
        ``predicates=`` restriction so escalations ship only the remote
        relations the unresolved constraints mention.  With
        ``overlap_remote`` this is the link's async queue."""
        if self.remote_link is not None:
            if self.overlap_remote:
                return self.remote_link.fetch_nowait
            return self.remote_link.fetch
        # No link resolves only in the single-remote case.
        return next(iter(self.sites.remotes.values())).snapshot

    @property
    def _drain_source(self) -> Callable[..., Database]:
        """The *blocking* fetch :meth:`resolve_pending` settles against —
        never the async queue, whose raise mid-settle would leak an
        unconsumed future."""
        if self.remote_link is not None:
            return self.remote_link.fetch
        return self.remote_source

    @property
    def pending_count(self) -> int:
        """Deferred verdicts still waiting for a reachable remote."""
        return self._session.pending_count if self._session is not None else 0

    def process(
        self,
        update: Update,
        apply_when_safe: bool = True,
        transaction: Optional[Transaction] = None,
    ) -> list[CheckReport]:
        """Run the protocol for one update: :meth:`check_stream` over
        ``[update]``.

        Levels 0-2 consult only the local site.  On any UNKNOWN the
        session fetches a remote snapshot restricted to the predicates
        the unresolved constraints mention (one metered round trip) and
        re-checks them at level 3.  If the fetch fails the unresolved
        verdicts degrade to DEFERRED and the update is queued for
        :meth:`resolve_pending`.  When *transaction* is given, an applied
        update's effective changes are recorded there so the sequence
        can be rolled back exactly.
        """
        return self.check_stream(
            [update], apply_when_safe=apply_when_safe, transaction=transaction
        )[0]

    def check_stream(
        self,
        updates: Iterable[Update],
        apply_when_safe: bool = True,
        batch_size: Optional[int] = None,
        transaction: Optional[Transaction] = None,
    ) -> list[list[CheckReport]]:
        """Stream mode: process a sequence of updates incrementally.

        Each update flows through a persistent
        :class:`~repro.core.session.CheckSession`, so purely-local
        constraint evaluations are *maintained* across the stream by
        delta rules instead of recomputed, and level-1 verdicts hit the
        compiler's LRU.  The remote site is fetched lazily (one metered
        round trip) only when an update stays unresolved at level 2.
        Safe updates are applied to the local site as they pass.

        With a *batch_size*, consecutive safe violation-monotone updates
        are coalesced into one composed delta with a single maintenance
        pass per batch (see :meth:`CheckSession.process_stream`);
        verdicts and final state are identical to per-update processing.
        Batched mode always applies safe updates.

        With a *transaction*, every applied update's effective changes
        are recorded there, so streamed safe updates can be rolled back
        exactly.  Combining *batch_size* and *transaction* is rejected:
        a coalesced batch has no per-update abort point.
        """
        if batch_size and transaction is not None:
            raise ValueError(
                "batch_size and transaction cannot be combined: a coalesced "
                "batch has no per-update abort point"
            )
        session = self.session
        before_fetches = session.stats.remote_fetches
        if batch_size:
            if not apply_when_safe:
                raise ValueError(
                    "batched stream mode always applies safe updates"
                )
            results = session.process_stream(
                updates,
                remote=self.remote_source,
                batch_size=batch_size,
            )
            for reports in results:
                self.stats.updates += 1
                self._record(reports)
        else:
            results = []
            for update in updates:
                reports = session.process(
                    update,
                    remote=self.remote_source,
                    apply_when_safe=apply_when_safe,
                    transaction=transaction,
                )
                self.stats.updates += 1
                self._record(reports)
                results.append(reports)
        self.stats.remote_round_trips += (
            session.stats.remote_fetches - before_fetches
        )
        self._sync_reuse_stats()
        return results

    def resolve_pending(self) -> list[tuple[Update, list[CheckReport]]]:
        """Re-run the queued level-3 checks now that the link may have
        recovered.

        Drains the session's deferred-verdict queue oldest-first: held updates are retried end to end, optimistically
        applied ones have their unresolved constraints re-checked and are
        reversed exactly on a VIOLATED resolution.  Returns
        ``(update, final_reports)`` pairs, in queue order, for the
        entries settled; entries stay queued while the remote keeps
        failing, and the call never raises.
        """
        session = self.session
        before_fetches = session.stats.remote_fetches
        before_rolled_back = session.stats.deferred_rolled_back
        entries = session.resolve_pending(self._drain_source)
        self.stats.remote_round_trips += (
            session.stats.remote_fetches - before_fetches
        )
        self.stats.deferred_rolled_back += (
            session.stats.deferred_rolled_back - before_rolled_back
        )
        results: list[tuple[Update, list[CheckReport]]] = []
        for entry in entries:
            reports = entry.ordered_reports(self.checker.constraints)
            self.stats.deferred_resolved += 1
            # Settling re-runs the whole pipeline, so the deciding level
            # may even be local if today's state resolves what the defer-
            # time state could not.
            deciding = (
                max(report.level for report in reports)
                if reports
                else CheckLevel.CONSTRAINTS_ONLY
            )
            self.stats.resolved_at_level[deciding] += 1
            if any(r.outcome is Outcome.VIOLATED for r in reports):
                self.stats.rejected += 1
            results.append((entry.update, reports))
        self._sync_reuse_stats()
        return results

    def _record(self, reports: list[CheckReport]) -> None:
        self.stats.record_reports(reports, self.apply_on_unknown)

    def _sync_reuse_stats(self) -> None:
        sync_session_gauges(
            self.stats, [self._session], self.checker.compiler, self.remote_link
        )

    def process_transaction(
        self, updates: Iterable[Update]
    ) -> tuple[bool, list[list[CheckReport]]]:
        """Process a sequence of updates atomically.

        Each update is checked against the local state left by its
        predecessors; if any update is rejected — or stays UNKNOWN while
        the checker applies only on SATISFIED, or comes back DEFERRED
        because the remote was unreachable (a transaction cannot commit
        with an unverified member) — the session replays the recorded
        *effective* :class:`~repro.datalog.database.UndoToken`\\ s in
        reverse, restoring the local site and every maintained
        materialization to the exact pre-transaction state (see
        :meth:`CheckSession.process_transaction`).

        Returns ``(committed, reports_per_update)``; processing stops at
        the aborting update.
        """
        self.stats.transactions += 1
        session = self.session
        before_fetches = session.stats.remote_fetches
        committed, all_reports = session.process_transaction(
            updates, remote=self.remote_source
        )
        for reports in all_reports:
            self.stats.updates += 1
            self._record(reports)
        self.stats.remote_round_trips += (
            session.stats.remote_fetches - before_fetches
        )
        if not committed:
            self.stats.transactions_rolled_back += 1
        self._sync_reuse_stats()
        return committed, all_reports
