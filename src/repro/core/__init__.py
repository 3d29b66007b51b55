"""The top-level partial-information checking engine.

Split compile/execute architecture: :class:`ConstraintCompiler` performs
all update- and database-independent analysis once; :class:`CheckSession`
runs the level pipeline against the compiled form, and the per-call
:class:`PartialInfoChecker` facade drives a throwaway session per call.
"""

from repro.core.compiler import CompiledConstraint, ConstraintCompiler, LocalTestPlan, LRUCache
from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import CheckSession, SessionStats

__all__ = [
    "CheckLevel",
    "CheckReport",
    "CheckSession",
    "CompiledConstraint",
    "ConstraintCompiler",
    "LRUCache",
    "LocalTestPlan",
    "Outcome",
    "PartialInfoChecker",
    "SessionStats",
]
