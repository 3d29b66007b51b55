"""The partial-information constraint checker: a per-call facade.

:class:`PartialInfoChecker` checks one update at a time against
caller-supplied databases, using the three information levels of
Section 2 for a set of constraints at a site that owns the *local*
predicates:

0. **constraints only** — constraints subsumed by the rest of the set
   (Theorem 3.1) are never checked at all;
1. **constraints + update** — the Section 4 rewrite-and-contain test
   (:func:`~repro.updates.independence.cannot_cause_violation`);
2. **+ local data** — the complete local tests of Sections 5/6, chosen by
   shape: the Theorem 5.3 algebraic test for arithmetic-free CQCs, the
   Fig. 6.1 interval machinery for single-variable ICQs, the box sweep
   for multi-variable ICQs, and the Theorem 5.2 containment engine for
   everything else CQC-shaped; purely local constraints are evaluated
   outright (the one case the paper notes can answer a definite "no");
3. **full database** — the expensive fallback, only on request.

Every stage is *correct* (YES really means satisfied) and level 2 is
*complete* (an UNKNOWN really does leave room for a violating remote
state), as the test suite verifies against exhaustive ground truth.

The levels themselves live in one place,
:class:`~repro.core.session.CheckSession`.  This class only holds the
compiled constraint set (:class:`~repro.core.compiler.ConstraintCompiler`,
built once in the constructor) and runs each call through a throwaway
session over a copy of the caller's local database; callers that process
update *streams* should keep a session of their own, which maintains
materializations incrementally across updates.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.core.outcomes import CheckLevel, CheckReport
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.updates.update import Update

__all__ = ["PartialInfoChecker"]


class PartialInfoChecker:
    """Checks a constraint set against updates with minimal information.

    Parameters
    ----------
    constraints:
        The constraint set, all assumed to hold initially.
    local_predicates:
        The predicates stored at this site.  Everything else is remote.
    site_of:
        Optional federation placement (predicate -> owning remote site
        name, ``None`` for local) recorded per compiled constraint as
        its minimal site-need set.
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint],
        local_predicates: Iterable[str],
        site_of=None,
    ) -> None:
        self.compiler = ConstraintCompiler(
            constraints, local_predicates, site_of=site_of
        )
        self.constraints = self.compiler.constraints
        self.local_predicates = self.compiler.local_predicates

    # -- the pipeline -----------------------------------------------------------
    def check(
        self,
        update: Update,
        local_db: Database,
        remote_db: Optional[Database] = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> list[CheckReport]:
        """Run the level pipeline for every constraint; reports in set order.

        ``local_db`` holds the local relations *before* the update and is
        left untouched; ``remote_db`` (optional) enables the level-3
        fallback.  The pipeline is a throwaway
        :class:`~repro.core.session.CheckSession` over a copy of
        ``local_db`` sharing this checker's compiled constraints.
        """
        session = CheckSession(compiler=self.compiler, local_db=local_db.copy())
        return session.check(update, remote_db, max_level)

    def check_constraint(
        self,
        constraint: Constraint,
        update: Update,
        local_db: Database,
        remote_db: Optional[Database] = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> CheckReport:
        """The report :meth:`check` gives for one constraint."""
        for report in self.check(update, local_db, remote_db, max_level):
            if report.constraint_name == constraint.name:
                return report
        raise KeyError(constraint.name)

    def explain(self, constraint: Constraint, predicate: str) -> str:
        """Describe the level-2 strategy an insertion into *predicate*
        would use for *constraint* — for operators and tests.

        One of: ``"subsumed"``, ``"purely-local"``, ``"algebraic"``
        (Theorem 5.3), ``"interval"`` (Fig. 6.1), ``"containment"``
        (Theorem 5.2), ``"union-containment"`` (Theorem 5.2 per
        disjunct), or ``"none"``.
        """
        return self.compiler.explain(constraint, predicate)
