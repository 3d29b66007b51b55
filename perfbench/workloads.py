"""Seeded workload generators for the benchmark.

Each generator owns its inputs and its reference.  It emits the initial
facts of every site, the constraint texts, and an unbounded stream of
*blocks*; a block is a list of *calls* (what one ``check_stream`` call
carries) and a call is a list of *steps*.  A step is plain data::

    (op, predicate, values, new_values, expected)

``op`` is ``"+"`` (insertion), ``"-"`` (deletion) or ``"~"``
(modification, ``values -> new_values``); ``expected`` maps every
constraint name to ``"SATISFIED"`` or ``"VIOLATED"`` — the final verdict
the generator derives from its own state and the remote contents it
chose, without calling the program under test.  Because every
constraint here binds the updated local relation once and the remote
sites never change, an update's verdict depends only on the update
itself, so the reference is exact whatever the program defers or
reorders.

Shares of update kinds are fixed *per block* (the seed only shuffles
and picks values), so every run, whatever its seed or length in blocks,
sees the same mix; the driver stops only at block boundaries.

Nothing here imports the program: the generators are the independent
half of the correctness check.
"""

from __future__ import annotations

import random

SAT = "SATISFIED"
VIO = "VIOLATED"


class _Pool:
    """A list with O(1) random pick and O(1) removal by value."""

    def __init__(self, items=()) -> None:
        self.items: list = []
        self._index: dict = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item) -> bool:
        return item in self._index

    def add(self, item) -> bool:
        if item in self._index:
            return False
        self._index[item] = len(self.items)
        self.items.append(item)
        return True

    def remove(self, item) -> None:
        slot = self._index.pop(item)
        last = self.items.pop()
        if slot < len(self.items):
            self.items[slot] = last
            self._index[last] = slot

    def pick(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class Workload:
    """Base class: static description plus a block stream.

    Subclasses fill in the class attributes and implement
    :meth:`_make_block`; ``state()`` is the reference local state after
    every block produced so far.
    """

    name = ""
    #: (constraint name, datalog text) in declaration order
    constraints: list[tuple[str, str]] = []
    local_predicates: frozenset = frozenset()
    #: "distributed" (DistributedChecker) or "sharded" (ShardedChecker)
    checker = "distributed"
    #: drain deferred verdicts at every block boundary (not only at the end)
    drain_every_block = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: site name -> {predicate: [tuple, ...]}; filled by subclasses
        self.remotes: dict[str, dict[str, list]] = {}
        self.initial: dict[str, list] = {}
        self.blocks_made = 0

    def next_block(self) -> list[list[tuple]]:
        block = self._make_block()
        self.blocks_made += 1
        return block

    def _make_block(self) -> list[list[tuple]]:  # pragma: no cover
        raise NotImplementedError

    def state(self) -> dict[str, set]:  # pragma: no cover
        raise NotImplementedError

    def verdict(self, *violated: str) -> dict[str, str]:
        """The expected verdict of every constraint: VIOLATED for the
        named ones, SATISFIED for the rest."""
        return {
            name: VIO if name in violated else SAT
            for name, _text in self.constraints
        }


class Membership(Workload):
    """``acct(A,R)`` under two arithmetic-free CQs over remote
    ``frozen``/``audited``: both compile to Theorem 5.3 algebraic tests.

    Per block of 25 single-update calls: 22 covered insertions (the id
    and the region already occur locally, so both tests pass at level
    2), 2 deletions, 1 escalation (a fresh id or a fresh region, every
    other one violating).
    """

    name = "membership"
    constraints = [
        ("no-frozen-region", "panic :- acct(A, R) & frozen(R)"),
        ("no-audited-id", "panic :- acct(A, R) & audited(A)"),
    ]
    local_predicates = frozenset({"acct"})
    BLOCK = (["cover"] * 22) + (["delete"] * 2) + ["escalate"]

    def __init__(self, seed: int, facts: int = 12_000, regions: int = 50) -> None:
        super().__init__(seed)
        rng = self.rng
        ids = max(1, facts // 2)
        self.facts = _Pool()
        while len(self.facts) < facts:
            self.facts.add((rng.randrange(ids), f"r{rng.randrange(regions)}"))
        self.next_id = ids
        self.next_region = 0
        # Disjoint from every local id and region, so the initial
        # database satisfies both constraints; equal sizes, so every
        # escalation ships the same number of rows.
        self.audited = [(1_000_000 + k,) for k in range(200)]
        self.frozen = [(f"z{k}",) for k in range(200)]
        self.initial = {"acct": list(self.facts.items)}
        self.remotes = {
            "remote": {"frozen": list(self.frozen), "audited": list(self.audited)}
        }

    def state(self) -> dict[str, set]:
        return {"acct": set(self.facts.items)}

    def _make_block(self) -> list[list[tuple]]:
        rng = self.rng
        kinds = list(self.BLOCK)
        rng.shuffle(kinds)
        variant = self.blocks_made % 4
        calls = []
        for kind in kinds:
            if kind == "cover":
                fact = (self.facts.pick(rng)[0], self.facts.pick(rng)[1])
                self.facts.add(fact)
                calls.append([("+", "acct", fact, None, self.verdict())])
            elif kind == "delete":
                fact = self.facts.pick(rng)
                self.facts.remove(fact)
                calls.append([("-", "acct", fact, None, self.verdict())])
            elif variant == 0:  # fresh id, clean
                fact = (self.next_id, self.facts.pick(rng)[1])
                self.next_id += 1
                self.facts.add(fact)
                calls.append([("+", "acct", fact, None, self.verdict())])
            elif variant == 1:  # fresh region, clean
                fact = (self.facts.pick(rng)[0], f"n{self.next_region}")
                self.next_region += 1
                self.facts.add(fact)
                calls.append([("+", "acct", fact, None, self.verdict())])
            elif variant == 2:  # fresh id that is audited
                fact = (rng.choice(self.audited)[0], self.facts.pick(rng)[1])
                calls.append(
                    [("+", "acct", fact, None, self.verdict("no-audited-id"))]
                )
            else:  # fresh region that is frozen
                fact = (self.facts.pick(rng)[0], rng.choice(self.frozen)[0])
                calls.append(
                    [("+", "acct", fact, None, self.verdict("no-frozen-region"))]
                )
        return calls


class Federation(Workload):
    """``emp(E,D,S)`` against two remote sites, with seeded link faults.

    Site ``pol1`` holds ``closedDept`` and ``blacklisted``, site
    ``pol2`` holds ``salFloor`` and ``deptBudget``.  The two comparison
    constraints compile to Theorem 5.2 containment tests, the other two
    to algebraic tests.  Per block of 20 single-update calls: 6
    departures, 6 hires that replace them in the same departments, 2
    rejected hires (a blacklisted name, a closed department), 4
    re-grades (a colleague's salary) and 2 rejected re-grades (under the
    floor, over the budget).  Every hire has a fresh name, so it
    escalates to clear ``blacklisted``.  Department headcounts never
    change, so the containment tests cost the same from block to block.

    Every update touches a fact settled before the block began and no
    fact twice in a block, and the checker drains deferred verdicts at
    each block boundary: a held (deferred) update can then never be the
    target of a later step, and the reference state stays exact.
    """

    name = "federation"
    constraints = [
        ("no-closed-dept", "panic :- emp(E,D,S) & closedDept(D)"),
        ("salary-floor", "panic :- emp(E,D,S) & salFloor(D,F) & S < F"),
        ("no-blacklisted", "panic :- emp(E,D,S) & blacklisted(E)"),
        ("dept-budget", "panic :- emp(E,D,S) & deptBudget(D,B) & S > B"),
    ]
    local_predicates = frozenset({"emp"})
    drain_every_block = True
    #: per-attempt transient failure rate of each remote link
    FAILURE_RATE = 0.2
    #: attempts per fetch (1 initial + 1 retry)
    ATTEMPTS = 2
    DEPARTURES = 6
    BLOCK = (["hire"] * 6) + ["blacklisted-hire", "closed-hire"] + (
        ["regrade"] * 4
    ) + ["under-floor", "over-budget"] + (["depart"] * 6)

    def __init__(self, seed: int, employees: int = 300, depts: int = 20) -> None:
        super().__init__(seed)
        rng = self.rng
        names = [f"d{i}" for i in range(depts)]
        self.closed = names[-2:]
        self.open = names[:-2]
        self.floor = {d: rng.randrange(20, 80) for d in names}
        self.budget = {d: f + 120 for d, f in self.floor.items()}
        # The same salary ladder in every department and for every seed:
        # the containment tests' cost depends on the salaries they
        # compare, so the seed must not change it.
        self.staff = {d: _Pool() for d in self.open}
        for i in range(employees):
            dept = self.open[i % len(self.open)]
            step = i // len(self.open)
            self.staff[dept].add(
                (f"e{i}", dept, self.floor[dept] + (6 * step) % 101)
            )
        self.blacklist = [(f"x{k}",) for k in range(200)]
        self.blacklisted = set(self.blacklist)
        self.next_hire = 0
        self.initial = {"emp": self._rows()}
        self.remotes = {
            "pol1": {
                "closedDept": [(d,) for d in self.closed],
                "blacklisted": list(self.blacklist),
            },
            "pol2": {
                "salFloor": sorted(self.floor.items()),
                "deptBudget": sorted(self.budget.items()),
            },
        }

    def _rows(self) -> list:
        return [row for dept in self.open for row in self.staff[dept].items]

    def state(self) -> dict[str, set]:
        return {"emp": set(self._rows())}

    def _judge(self, name: str, dept: str, salary: int) -> dict[str, str]:
        checks = {
            "no-closed-dept": dept in self.closed,
            "salary-floor": salary < self.floor[dept],
            "no-blacklisted": (name,) in self.blacklisted,
            "dept-budget": salary > self.budget[dept],
        }
        return self.verdict(*(c for c, violated in checks.items() if violated))

    def _hire_name(self) -> str:
        self.next_hire += 1
        return f"h{self.next_hire}"

    def _make_block(self) -> list[list[tuple]]:
        rng = self.rng
        kinds = list(self.BLOCK)
        rng.shuffle(kinds)
        settled = {d: list(pool.items) for d, pool in self.staff.items()}
        rows = self._rows()
        # distinct rows this block departs or re-grades; never colleagues
        targets = rng.sample(rows, self.DEPARTURES + 6)
        busy = set(targets)
        departures = targets[: self.DEPARTURES]
        hire_depts = [row[1] for row in departures]

        def colleague(dept: str) -> tuple:
            while True:
                row = rng.choice(settled[dept])
                if row not in busy:
                    return row

        calls = []
        for kind in kinds:
            if kind == "depart":
                old = departures.pop()
                self.staff[old[1]].remove(old)
                calls.append([("-", "emp", old, None, self.verdict())])
            elif kind == "hire":
                dept = hire_depts.pop()
                fact = (self._hire_name(), dept, colleague(dept)[2])
                self.staff[dept].add(fact)
                calls.append([("+", "emp", fact, None, self.verdict())])
            elif kind == "blacklisted-hire":
                dept = rng.choice(self.open)
                fact = (rng.choice(self.blacklist)[0], dept, colleague(dept)[2])
                calls.append([("+", "emp", fact, None, self._judge(*fact))])
            elif kind == "closed-hire":
                dept = rng.choice(self.closed)
                fact = (
                    self._hire_name(), dept, self.floor[dept] + rng.randrange(0, 101)
                )
                calls.append([("+", "emp", fact, None, self._judge(*fact))])
            else:
                old = targets.pop()
                name, dept, salary = old
                if kind == "regrade":
                    salary = colleague(dept)[2]
                elif kind == "under-floor":
                    salary = self.floor[dept] - 1 - rng.randrange(10)
                else:
                    salary = self.budget[dept] + 1 + rng.randrange(20)
                new = (name, dept, salary)
                expected = self._judge(*new)
                if kind == "regrade":
                    self.staff[dept].remove(old)
                    self.staff[dept].add(new)
                calls.append([("~", "emp", old, new, expected)])
        return calls


class WriteMix(Workload):
    """``meter(K,V)`` on two key-range shards with a remote ``capLimit``.

    ``one-value-per-key`` is purely local (a maintained
    materialization); ``under-cap`` compiles to an interval test.  Calls
    carry micro-batches of 8; per block of two calls: 8 modifications, 2
    over-cap modifications (rejected), 2 deletions, 2 fresh-key
    insertions, 1 second-value insertion on a live key (rejected) and 1
    exact duplicate insertion.  70% of touched keys come from a hot set
    of 16 that rotates every 4 blocks.

    Keys ``0..SENTINELS-1`` hold the highest in-range value and are never
    touched, so every in-range value is covered by the interval test and
    only over-cap values escalate.
    """

    name = "write-mix"
    constraints = [
        ("one-value-per-key", "panic :- meter(K,V) & meter(K,W) & V < W"),
        ("under-cap", "panic :- meter(K,V) & capLimit(C) & V > C"),
    ]
    local_predicates = frozenset({"meter"})
    checker = "sharded"
    SHARDS = 2
    PARALLELISM = 2
    CALL = 8
    SYNC_EVERY = 16
    CAP = 1000
    TOP = 900  # in-range values are < TOP; sentinels hold TOP
    SENTINELS = 8
    BLOCK = (["modify"] * 8) + (["over-cap"] * 2) + (["delete"] * 2) + (
        ["fresh"] * 2
    ) + ["second-value", "duplicate"]

    def __init__(self, seed: int, keys: int = 2_000, live: int = 1_000) -> None:
        super().__init__(seed)
        rng = self.rng
        self.keyspace = keys
        self.values: dict[int, int] = {k: self.TOP for k in range(self.SENTINELS)}
        for key in rng.sample(range(self.SENTINELS, keys), live - self.SENTINELS):
            self.values[key] = rng.randrange(self.TOP)
        self.live = _Pool(k for k in sorted(self.values) if k >= self.SENTINELS)
        self.dead = _Pool(
            k for k in range(self.SENTINELS, keys) if k not in self.values
        )
        self.hot: list[int] = []
        self.initial = {"meter": sorted(self.values.items())}
        self.remotes = {"remote": {"capLimit": [(self.CAP,)]}}

    def state(self) -> dict[str, set]:
        return {"meter": set(self.values.items())}

    def _key(self, rng: random.Random) -> int:
        hot = [k for k in self.hot if k in self.live]
        if hot and rng.random() < 0.7:
            return rng.choice(hot)
        return self.live.pick(rng)

    def _value(self, rng: random.Random, avoid: int) -> int:
        value = rng.randrange(self.TOP)
        return value if value != avoid else (value + 1) % self.TOP

    def _make_block(self) -> list[list[tuple]]:
        rng = self.rng
        if self.blocks_made % 4 == 0:
            self.hot = rng.sample(self.live.items, 16)
        kinds = list(self.BLOCK)
        rng.shuffle(kinds)
        steps = []
        for kind in kinds:
            if kind in ("modify", "over-cap"):
                key = self._key(rng)
                old = (key, self.values[key])
                if kind == "modify":
                    new = (key, self._value(rng, old[1]))
                    self.values[key] = new[1]
                    expected = self.verdict()
                else:
                    new = (key, self.CAP + 1 + rng.randrange(100))
                    expected = self.verdict("under-cap")
                steps.append(("~", "meter", old, new, expected))
            elif kind == "delete":
                key = self._key(rng)
                fact = (key, self.values.pop(key))
                self.live.remove(key)
                self.dead.add(key)
                steps.append(("-", "meter", fact, None, self.verdict()))
            elif kind == "fresh":
                key = self.dead.pick(rng)
                self.dead.remove(key)
                self.live.add(key)
                self.values[key] = rng.randrange(self.TOP)
                steps.append(
                    ("+", "meter", (key, self.values[key]), None, self.verdict())
                )
            elif kind == "second-value":
                key = self._key(rng)
                fact = (key, self._value(rng, self.values[key]))
                steps.append(
                    ("+", "meter", fact, None, self.verdict("one-value-per-key"))
                )
            else:
                key = self._key(rng)
                steps.append(
                    ("+", "meter", (key, self.values[key]), None, self.verdict())
                )
        return [steps[i : i + self.CALL] for i in range(0, len(steps), self.CALL)]


WORKLOADS = {cls.name: cls for cls in (Membership, Federation, WriteMix)}
