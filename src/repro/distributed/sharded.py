"""The sharded checker's import path.

There is one checker, :class:`~repro.distributed.checker.DistributedChecker`:
sharding changes where the local site's data is stored, not how it is
checked, and no sharding is the one-shard case.  ``ShardedChecker`` is a
second name for that class (not a subclass), kept together with the
partitioners for code that imports them from here.
"""

from repro.distributed.checker import (
    DistributedChecker,
    KeyRangePartitioner,
    PredicatePartitioner,
)

ShardedChecker = DistributedChecker

__all__ = ["KeyRangePartitioner", "PredicatePartitioner", "ShardedChecker"]
