"""Tables and the catalog.

Rows are :class:`~repro.tor.values.Record` objects stored in insertion
order; each row's position doubles as its ``_rowid``, the storage order
the ``Order`` function of the SQL generator relies on.  Hash indexes
are created explicitly (or automatically by the ORM layer, mirroring
Hibernate's index DDL) and maintained on insert.

Every table also maintains a :class:`~repro.sql.stats.TableStats`
(row count, per-column NDV/min/max) incrementally on insert; the
cost-based planner reads it and ``Catalog.analyze()`` /
``Table.analyze()`` recompute it from the stored rows when stats have
gone stale (rows written behind the ``insert`` API).
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sql.errors import SQLExecutionError
from repro.sql.indexes import HashIndex
from repro.sql.stats import TableStats
from repro.tor.values import Record

#: process-unique table identities, folded into content digests so two
#: different tables can never collide on an empty/equal digest cache
#: entry by accident of naming.
_TABLE_UIDS = itertools.count(1)


class Table:
    """One base table: named columns, ordered rows, optional indexes."""

    def __init__(self, name: str, columns: Tuple[str, ...]):
        if not columns:
            raise SQLExecutionError("table %r needs at least one column" % name)
        self.name = name
        self.columns = tuple(columns)
        self.rows: List[Record] = []
        self.indexes: Dict[str, HashIndex] = {}
        #: optimizer statistics, maintained incrementally on insert.
        self.stats = TableStats(self.columns)
        #: scan statistics for the benchmark harness.
        self.rows_scanned = 0
        #: monotone content version, bumped by every mutation (insert,
        #: index creation, stats refresh).  The worker-pool cache keys
        #: shipped tables on it: an unchanged version means the cached
        #: content digest — and the worker's cached copy — are current.
        self.data_version = 0
        self._uid = next(_TABLE_UIDS)
        self._digest_cache: Optional[Tuple[int, str]] = None

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert one row; returns its rowid (= position)."""
        record = row if isinstance(row, Record) else Record(row)
        if tuple(record.fields) != self.columns:
            # Accept any order / dict input but normalise to the schema.
            try:
                record = Record({c: record[c] for c in self.columns})
            except KeyError as exc:
                raise SQLExecutionError(
                    "row for table %r is missing column %s"
                    % (self.name, exc)) from None
        position = len(self.rows)
        self.rows.append(record)
        self.stats.observe(record)
        for index in self.indexes.values():
            index.add(record[index.column], position)
        self.data_version += 1
        return position

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.insert(row)

    def create_index(self, column: str) -> HashIndex:
        """Create (or return) a hash index on ``column``."""
        if column not in self.columns:
            raise SQLExecutionError("no column %r in table %r"
                                    % (column, self.name))
        if column in self.indexes:
            return self.indexes[column]
        index = HashIndex(column)
        for position, record in enumerate(self.rows):
            index.add(record[column], position)
        self.indexes[column] = index
        self.data_version += 1
        return index

    def analyze(self) -> TableStats:
        """Recompute the optimizer statistics from the stored rows."""
        self.stats.refresh(self.rows)
        self.data_version += 1
        return self.stats

    def content_digest(self) -> str:
        """A stable digest of this table's servable content (columns,
        rows, index set), memoized by ``data_version``.

        This is the worker pool's cache key: a worker holding a table
        under this digest can execute against it without any rows being
        re-shipped.  The digest folds in the table's process-unique id,
        so the key identifies *this* table at *this* content version —
        a deliberate choice: equality across coincidentally identical
        tables is not worth risking staleness of derived state (stats,
        index layout) that rides along with the shipped copy.
        """
        cached = self._digest_cache
        if cached is not None and cached[0] == self.data_version:
            return cached[1]
        body = pickle.dumps(
            (self._uid, self.data_version, self.columns,
             tuple(sorted(self.indexes)), len(self.rows)),
            protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest()[:24]
        self._digest_cache = (self.data_version, digest)
        return digest

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "Table(%s, %d rows)" % (self.name, len(self.rows))


class Catalog:
    """All tables of one database."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        #: schema version, bumped on create/drop.
        self.version = 0

    def create_table(self, name: str, columns: Iterable[str]) -> Table:
        if name in self.tables:
            raise SQLExecutionError("table %r already exists" % name)
        table = Table(name, tuple(columns))
        self.tables[name] = table
        self.version += 1
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLExecutionError("unknown table %r" % name) from None

    def analyze(self, name: Optional[str] = None) -> None:
        """Refresh optimizer statistics for one table (or all of them)."""
        if name is not None:
            self.table(name).analyze()
            return
        for table in self.tables.values():
            table.analyze()

    def drop_table(self, name: str) -> None:
        if self.tables.pop(name, None) is not None:
            self.version += 1
