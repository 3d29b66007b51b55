"""The SQLite storage backend: base relations as indexed tables.

Base relations live in SQLite tables (one column per position, the full
tuple as primary key, ``WITHOUT ROWID``), so the local site can exceed
what the in-memory engine comfortably materializes and the Theorem 5.3
hot path rides a real query planner:

* :meth:`SQLiteDatabase.run_local_test` executes a compiled local test
  (see :func:`repro.relalg.to_sql.compile_local_test`) as one
  ``SELECT EXISTS`` over indexed equality probes — compiled once per
  ``(constraint, predicate)`` and kept in a bounded LRU statement
  cache, executed many times with only the parameter vector changing.
  Composite indexes are derived from the compiled branches' binding
  patterns (the columns their skeleton conditions bind to constants or
  inserted components).
* :meth:`SQLiteDatabase.apply` applies a
  :class:`~repro.datalog.database.Delta` as one transactional batch of
  ``DELETE`` / ``INSERT OR IGNORE`` statements whose per-row change
  counts reconstruct the exact effective
  :class:`~repro.datalog.database.UndoToken` — so revert and journal
  replay behave byte-identically to the in-memory engine.

The object is a duck-typed :class:`~repro.datalog.database.Database`:
sessions, datalog engines, and checkers consume it unchanged.  Values
are restricted to ``int`` / ``float`` / ``bool`` / ``str`` (the types
whose SQLite comparison and ordering semantics coincide with the
:mod:`repro.arith.order` total order — numbers below strings, numeric
equality across int/float); anything else raises a typed
:class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Iterator, Mapping

from repro.core.compiler import LRUCache
from repro.datalog.database import Database, Delta, UndoToken
from repro.errors import EvaluationError, StorageError
from repro.relalg.expressions import (
    ConstantRelation,
    Difference,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
)
from repro.relalg.to_sql import (
    compile_local_test,
    expression_to_sql,
    quote_identifier,
)
from repro.storage.base import StorageBackend

__all__ = ["SQLiteBackend", "SQLiteDatabase", "SQLiteRelation"]

#: default bound for the prepared-statement LRU (compiled local tests,
#: keyed by (constraint name, predicate))
STATEMENT_CACHE_SIZE = 256

#: bound on memoized (predicate, column, value) lookup results
_LOOKUP_CACHE_LIMIT = 4096

_ALLOWED_TYPES = (int, float, str)  # bool is an int subclass


def _check_fact(predicate: str, fact: tuple) -> None:
    for value in fact:
        if not isinstance(value, _ALLOWED_TYPES):
            raise StorageError(
                f"sqlite backend cannot store a {type(value).__name__} "
                f"value ({value!r}) in {predicate!r}; supported types are "
                "int, float, bool, and str"
            )


def _walk_refs(expression) -> Iterator[RelationRef]:
    if isinstance(expression, RelationRef):
        yield expression
    elif isinstance(expression, Select):
        yield from _walk_refs(expression.source)
    elif isinstance(expression, Project):
        yield from _walk_refs(expression.source)
    elif isinstance(expression, (Product, Difference)):
        yield from _walk_refs(expression.left)
        yield from _walk_refs(expression.right)
    elif isinstance(expression, Union):
        for source in expression.sources:
            yield from _walk_refs(source)
    elif not isinstance(expression, ConstantRelation):
        raise TypeError(f"not a relational algebra expression: {expression!r}")


class SQLiteRelation:
    """A read view of one table, duck-typing
    :class:`~repro.datalog.database.Relation`'s access surface."""

    __slots__ = ("_db", "name", "arity")

    def __init__(self, db: "SQLiteDatabase", name: str, arity: int) -> None:
        self._db = db
        self.name = name
        self.arity = arity

    def lookup(self, column: int, value: object) -> frozenset:
        return self._db._lookup(self.name, column, value)

    def as_frozenset(self) -> frozenset:
        return self._db.facts(self.name)

    def __contains__(self, fact) -> bool:
        return self._db.contains(self.name, fact)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.as_frozenset())

    def __len__(self) -> int:
        return self._db._count(self.name)

    def __repr__(self) -> str:
        return (
            f"SQLiteRelation({self.name!r}, arity={self.arity}, "
            f"size={len(self)})"
        )


class SQLiteDatabase:
    """A duck-typed :class:`Database` persisted in SQLite tables."""

    def __init__(
        self,
        path: str = ":memory:",
        contents: Mapping[str, Iterable[tuple]] | Database | None = None,
        statement_cache_size: int = STATEMENT_CACHE_SIZE,
    ) -> None:
        # check_same_thread=False: the owning Site serializes access
        # under its lock, but snapshot() may run from a pool thread.
        self._conn = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA temp_store=MEMORY")
        self._arities: dict[str, int] = {}
        self._versions: dict[str, int] = {}
        self._facts_cache: dict[str, tuple[int, frozenset]] = {}
        self._lookup_cache: dict[tuple, tuple[int, frozenset]] = {}
        self._indexes: set[tuple[str, tuple[int, ...]]] = set()
        self._statements = LRUCache(statement_cache_size)
        #: Theorem 5.3 tests answered by the SQL pushdown path
        self.pushdown_tests = 0
        if contents is not None:
            if isinstance(contents, Database):
                for predicate, arity in contents.arities().items():
                    self._ensure_table(predicate, arity)
                    for fact in contents.facts(predicate):
                        self.insert(predicate, fact)
            else:
                for predicate, facts in contents.items():
                    for fact in facts:
                        self.insert(predicate, fact)

    # -- schema ----------------------------------------------------------------
    def _table_columns(self, arity: int) -> list[str]:
        return [f"c{i}" for i in range(max(arity, 1))]

    def _ensure_table(self, predicate: str, arity: int) -> None:
        stored = self._arities.get(predicate)
        if stored is not None:
            if stored != arity:
                raise EvaluationError(
                    f"relation {predicate}/{stored} cannot hold tuple of "
                    f"length {arity}"
                )
            return
        columns = self._table_columns(arity)
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(predicate)} "
            f"({', '.join(columns)}, PRIMARY KEY ({', '.join(columns)})) "
            "WITHOUT ROWID"
        )
        self._arities[predicate] = arity
        self._versions.setdefault(predicate, 0)

    def _ensure_index(self, predicate: str, columns: tuple[int, ...]) -> None:
        """A composite index on *columns*, unless the primary key (the
        full column tuple, so any ``c0..ck`` prefix) already serves it."""
        if not columns or predicate not in self._arities:
            return
        ordered = tuple(sorted(columns))
        if ordered == tuple(range(len(ordered))):
            return  # a prefix of the WITHOUT ROWID primary key
        key = (predicate, ordered)
        if key in self._indexes:
            return
        name = quote_identifier(
            "idx_" + predicate + "_" + "_".join(str(c) for c in ordered)
        )
        cols = ", ".join(f"c{c}" for c in ordered)
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS {name} "
            f"ON {quote_identifier(predicate)} ({cols})"
        )
        self._indexes.add(key)

    def _bump(self, predicate: str) -> None:
        self._versions[predicate] = self._versions.get(predicate, 0) + 1
        self._facts_cache.pop(predicate, None)

    def _where_fact(self, arity: int) -> str:
        if arity == 0:
            return "c0 = 0"
        return " AND ".join(f"c{i} = ?" for i in range(arity))

    def _fact_row(self, fact: tuple) -> tuple:
        return (0,) if not fact else fact

    # -- mutation ----------------------------------------------------------------
    def _insert_row(self, cursor, predicate: str, fact: tuple) -> bool:
        fact = tuple(fact)
        _check_fact(predicate, fact)
        self._ensure_table(predicate, len(fact))
        row = self._fact_row(fact)
        placeholders = ", ".join("?" for _ in row)
        cursor.execute(
            f"INSERT OR IGNORE INTO {quote_identifier(predicate)} "
            f"VALUES ({placeholders})",
            row,
        )
        return cursor.rowcount > 0

    def _delete_row(self, cursor, predicate: str, fact: tuple) -> bool:
        arity = self._arities.get(predicate)
        if arity is None:
            return False
        fact = tuple(fact)
        if len(fact) != arity:
            return False
        _check_fact(predicate, fact)
        cursor.execute(
            f"DELETE FROM {quote_identifier(predicate)} "
            f"WHERE {self._where_fact(arity)}",
            fact,
        )
        return cursor.rowcount > 0

    def insert(self, predicate: str, fact: tuple) -> bool:
        changed = self._insert_row(self._conn.cursor(), predicate, fact)
        if changed:
            self._bump(predicate)
        return changed

    def delete(self, predicate: str, fact: tuple) -> bool:
        changed = self._delete_row(self._conn.cursor(), predicate, fact)
        if changed:
            self._bump(predicate)
        return changed

    def apply(self, delta: Delta) -> UndoToken:
        """Apply *delta* (deletions first) as one transaction.

        The per-statement change counts reconstruct the exact effective
        :class:`UndoToken`; any failure rolls the whole batch back, so a
        delta is applied entirely or not at all.
        """
        applied_insertions: dict[str, set[tuple]] = {}
        applied_deletions: dict[str, set[tuple]] = {}
        cursor = self._conn.cursor()
        cursor.execute("BEGIN")
        try:
            for predicate, facts in delta.deletions.items():
                for fact in facts:
                    fact = tuple(fact)
                    if self._delete_row(cursor, predicate, fact):
                        applied_deletions.setdefault(predicate, set()).add(fact)
            for predicate, facts in delta.insertions.items():
                for fact in facts:
                    fact = tuple(fact)
                    if self._insert_row(cursor, predicate, fact):
                        applied_insertions.setdefault(predicate, set()).add(fact)
        except BaseException:
            cursor.execute("ROLLBACK")
            raise
        cursor.execute("COMMIT")
        for predicate in set(applied_insertions) | set(applied_deletions):
            self._bump(predicate)
        return UndoToken(applied_insertions, applied_deletions)

    def undo(self, token: UndoToken) -> None:
        """Reverse the effective changes of one :meth:`apply`, exactly."""
        self.apply(token.inverted_delta())

    # -- access ------------------------------------------------------------------
    def relation(self, predicate: str) -> SQLiteRelation | None:
        arity = self._arities.get(predicate)
        if arity is None:
            return None
        return SQLiteRelation(self, predicate, arity)

    def facts(self, predicate: str) -> frozenset:
        arity = self._arities.get(predicate)
        if arity is None:
            return frozenset()
        version = self._versions[predicate]
        cached = self._facts_cache.get(predicate)
        if cached is not None and cached[0] == version:
            return cached[1]
        rows = self._conn.execute(
            f"SELECT * FROM {quote_identifier(predicate)}"
        ).fetchall()
        if arity == 0:
            result = frozenset(() for _ in rows)
        else:
            result = frozenset(tuple(row) for row in rows)
        self._facts_cache[predicate] = (version, result)
        return result

    def _count(self, predicate: str) -> int:
        if predicate not in self._arities:
            return 0
        (count,) = self._conn.execute(
            f"SELECT COUNT(*) FROM {quote_identifier(predicate)}"
        ).fetchone()
        return count

    def _lookup(self, predicate: str, column: int, value: object) -> frozenset:
        arity = self._arities.get(predicate)
        if arity is None or not 0 <= column < arity:
            return frozenset()
        version = self._versions[predicate]
        key = (predicate, column, value)
        cached = self._lookup_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        self._ensure_index(predicate, (column,))
        try:
            rows = self._conn.execute(
                f"SELECT * FROM {quote_identifier(predicate)} "
                f"WHERE c{column} = ?",
                (value,),
            ).fetchall()
        except sqlite3.InterfaceError as exc:
            raise StorageError(
                f"sqlite backend cannot probe {predicate!r} with "
                f"{value!r}: {exc}"
            ) from exc
        result = frozenset(tuple(row) for row in rows)
        if len(self._lookup_cache) >= _LOOKUP_CACHE_LIMIT:
            self._lookup_cache.clear()
        self._lookup_cache[key] = (version, result)
        return result

    def contains(self, predicate: str, fact: tuple) -> bool:
        arity = self._arities.get(predicate)
        if arity is None:
            return False
        fact = tuple(fact)
        if len(fact) != arity:
            return False
        try:
            row = self._conn.execute(
                f"SELECT 1 FROM {quote_identifier(predicate)} "
                f"WHERE {self._where_fact(arity)} LIMIT 1",
                fact,
            ).fetchone()
        except sqlite3.InterfaceError:
            return False  # a value the backend cannot hold is never stored
        return row is not None

    def predicates(self) -> set[str]:
        """The predicates holding at least one fact (see
        :meth:`Database.predicates <repro.datalog.database.Database.predicates>`)."""
        return {
            predicate
            for predicate in self._arities
            if self._conn.execute(
                f"SELECT 1 FROM {quote_identifier(predicate)} LIMIT 1"
            ).fetchone()
        }

    def arity_of(self, predicate: str) -> int | None:
        return self._arities.get(predicate)

    def size(self) -> int:
        return sum(self._count(predicate) for predicate in self._arities)

    # -- snapshots (in-memory copies; reads are escalation-path only) -----------
    def copy(self) -> Database:
        new = Database()
        for predicate in self._arities:
            for fact in self.facts(predicate):
                new.insert(predicate, fact)
        return new

    def snapshot(self) -> Database:
        return self.copy()

    def restricted_to(self, predicates: Iterable[str]) -> Database:
        wanted = set(predicates)
        new = Database()
        for predicate in self._arities:
            if predicate not in wanted:
                continue
            for fact in self.facts(predicate):
                new.insert(predicate, fact)
        return new

    # -- the SQL pushdown paths --------------------------------------------------
    def run_local_test(self, test, values: tuple, key) -> bool:
        """Execute an :class:`AlgebraicLocalTest` as an indexed SQL probe.

        *key* identifies the compiled statement in the LRU cache (the
        sessions pass ``(constraint name, predicate)``); the statement is
        compiled symbolically once and re-executed with only the
        parameter vector changing.
        """
        values = tuple(values)
        if not test.reduction_exists(values):
            return True
        self.pushdown_tests += 1
        compiled = self._statements.get(key)
        if compiled is None:
            compiled = compile_local_test(test)
            self._statements.put(key, compiled)
        if compiled.sql is None:
            return False  # every branch statically inconsistent
        stored = self._arities.get(compiled.predicate)
        if stored is None:
            return False  # empty local relation: the union is empty
        if stored != compiled.arity:
            raise EvaluationError(
                f"relation {compiled.predicate!r} has arity {stored}, "
                f"local test expects {compiled.arity}"
            )
        for columns in compiled.index_columns:
            self._ensure_index(compiled.predicate, columns)
        try:
            (exists,) = self._conn.execute(
                compiled.sql, compiled.bind(values)
            ).fetchone()
        except sqlite3.InterfaceError as exc:
            raise StorageError(
                f"sqlite backend cannot bind local-test values "
                f"{values!r}: {exc}"
            ) from exc
        return bool(exists)

    def evaluate_expression(self, expression) -> frozenset:
        """Evaluate a relational algebra expression entirely in SQL —
        the general-path counterpart of
        :func:`repro.relalg.evaluate.evaluate_expression`."""
        for ref in _walk_refs(expression):
            stored = self._arities.get(ref.name)
            if stored is None:
                # a missing relation is an empty one, exactly as the
                # in-memory evaluator treats it
                self._ensure_table(ref.name, ref.arity)
            elif stored != ref.arity:
                raise EvaluationError(
                    f"relation {ref.name!r} has arity {stored}, "
                    f"expression expects {ref.arity}"
                )
        query = expression_to_sql(expression)
        try:
            rows = self._conn.execute(query.sql, query.params).fetchall()
        except sqlite3.InterfaceError as exc:
            raise StorageError(
                f"sqlite backend cannot bind expression literals: {exc}"
            ) from exc
        return query.rows_to_tuples(rows)

    def statement_cache_info(self) -> dict:
        """Hit/miss/size counters of the compiled-statement LRU."""
        return self._statements.info()

    # -- misc --------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Database, SQLiteDatabase)):
            return NotImplemented
        mine = {
            predicate: facts
            for predicate in self._arities
            if (facts := set(self.facts(predicate)))
        }
        theirs = {
            predicate: facts
            for predicate in other.predicates()
            if (facts := set(other.facts(predicate)))
        }
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}/{arity}:{self._count(name)}"
            for name, arity in sorted(self._arities.items())
        )
        return f"SQLiteDatabase({inner})"


class SQLiteBackend(StorageBackend):
    """Factory for :class:`SQLiteDatabase` sites.

    *path* of ``None`` means a private in-memory database per
    :meth:`create_database` call (the default — the durability story is
    the journal's, not the storage file's)."""

    name = "sqlite"

    def __init__(
        self,
        path: str | None = None,
        statement_cache_size: int = STATEMENT_CACHE_SIZE,
    ) -> None:
        self.path = path
        self.statement_cache_size = statement_cache_size

    def create_database(
        self, contents: Mapping[str, Iterable[tuple]] | Database | None = None
    ) -> SQLiteDatabase:
        return SQLiteDatabase(
            self.path or ":memory:",
            contents=contents,
            statement_cache_size=self.statement_cache_size,
        )
