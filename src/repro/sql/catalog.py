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

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sql.errors import SQLExecutionError
from repro.sql.indexes import HashIndex
from repro.sql.stats import TableStats
from repro.tor.values import Record

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
        #: monotone content version, bumped by every mutation (insert,
        #: index creation, stats refresh).  The statement cache keys
        #: cached plans on it (:meth:`repro.sql.database.Database.execute`).
        self.data_version = 0

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
