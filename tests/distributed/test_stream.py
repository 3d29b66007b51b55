"""DistributedChecker.check_stream: incremental protocol correctness.

Stream mode must give every update the verdict a from-scratch evaluation
of the constraints on the full (ground-truth) database gives, keep the
local site equal to the ground truth's local part, and report
materialization-reuse and cache counters through ProtocolStats.
"""

from repro.core.outcomes import Outcome
from repro.distributed.checker import DistributedChecker
from repro.distributed.workload import employee_workload, interval_workload


def outcomes(reports):
    return [r.outcome for r in reports]


class TestStreamEquivalence:
    def test_verdicts_match_ground_truth(self):
        for factory in (interval_workload, employee_workload):
            workload = factory(num_updates=40, covered_fraction=0.6, seed=11)
            checker = DistributedChecker(workload.constraints, workload.sites)
            rejected = 0
            for update in workload.updates:
                before = workload.sites.ground_truth_database()
                after = update.applied_copy(before)
                expected = [
                    Outcome.SATISFIED if constraint.holds(after) else Outcome.VIOLATED
                    for constraint in workload.constraints
                ]
                (reports,) = checker.check_stream([update])
                assert outcomes(reports) == expected, update
                if Outcome.VIOLATED in expected:
                    rejected += 1
                    assert workload.sites.ground_truth_database() == before
                else:
                    assert workload.sites.ground_truth_database() == after
            assert checker.stats.rejected == rejected
            assert checker.stats.updates == len(workload.updates)

    def test_final_state_satisfies_constraints(self):
        workload = employee_workload(num_updates=50, covered_fraction=0.5, seed=5)
        checker = DistributedChecker(workload.constraints, workload.sites)
        checker.check_stream(workload.updates)
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())


class TestStreamStats:
    def test_reuse_counters_populated(self):
        workload = employee_workload(num_updates=30, covered_fraction=0.7, seed=2)
        checker = DistributedChecker(workload.constraints, workload.sites)
        checker.check_stream(workload.updates)
        stats = checker.stats
        assert stats.updates == 30
        assert stats.level1_cache_misses > 0
        rows = dict(stats.summary_rows())
        assert rows["materializations built"] == stats.materializations_built
        assert rows["level-1 cache misses"] == stats.level1_cache_misses

    def test_mixed_modes_stay_consistent(self):
        """Interleaving process() and check_stream() must keep the one
        session's materializations in sync with the shared local site."""
        workload = employee_workload(num_updates=20, covered_fraction=0.6, seed=8)
        checker = DistributedChecker(workload.constraints, workload.sites)
        first, rest = workload.updates[:10], workload.updates[10:]
        checker.check_stream(first)  # builds session state
        for update in rest[:5]:
            checker.process(update)  # same session, one update at a time
        checker.check_stream(rest[5:])
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())

    def test_rejections_do_not_corrupt_stream_state(self):
        workload = employee_workload(num_updates=40, covered_fraction=0.2, seed=9)
        checker = DistributedChecker(workload.constraints, workload.sites)
        reports = checker.check_stream(workload.updates)
        rejected = sum(
            1 for rs in reports if any(r.outcome is Outcome.VIOLATED for r in rs)
        )
        assert rejected == checker.stats.rejected
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())
