"""Table statistics: the planner's view of the data.

Every :class:`~repro.sql.catalog.Table` owns a :class:`TableStats`
(SimpleDB's ``StatInfo``, kept honest): the row count plus, per column,
the number of distinct values (NDV) and the min/max bounds.  The cost
model in :mod:`repro.sql.plan.optimizer` turns these into selectivity
and cardinality estimates — ``1/ndv`` for an equality predicate,
``|A|·|B|/max(ndv)`` for an equality join — which drive join ordering
and access-path choice.

Maintenance is **incremental**: :meth:`TableStats.observe` runs on
every ``Table.insert`` (a set membership test and two comparisons per
column), so stats are exact for data that arrives through the table
API.  Rows smuggled in behind the API (``table.rows.append``, bulk
loaders) leave the stats stale; ``Database.analyze()`` /
:meth:`TableStats.refresh` recompute everything from the stored rows.

Unhashable column values make the NDV sketch impossible and
incomparable ones (ints next to strings) break min/max; both cases
degrade per column to "unknown" (:meth:`ndv` / bounds return ``None``)
rather than guessing, and the optimizer falls back to its default
selectivities.  ``None`` values are simply ignored by the bounds (SQL
NULL semantics), so the result never depends on load order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: The synthetic storage-order column every table exposes.  Its stats
#: need no sketch: ``_rowid`` is dense and unique by construction.
ROWID = "_rowid"


class ColumnStats:
    """NDV sketch and min/max bounds for one column."""

    __slots__ = ("_distinct", "_min", "_max", "_hashable", "_comparable")

    def __init__(self):
        self._distinct = set()
        self._min: Any = None
        self._max: Any = None
        self._hashable = True
        self._comparable = True

    @property
    def ndv(self) -> Optional[int]:
        """Distinct-value count; ``None`` when values were unhashable."""
        return len(self._distinct) if self._hashable else None

    @property
    def min(self) -> Any:
        return self._min if (self._comparable and self._distinct_seen()) \
            else None

    @property
    def max(self) -> Any:
        return self._max if (self._comparable and self._distinct_seen()) \
            else None

    def _distinct_seen(self) -> bool:
        return bool(self._distinct) or not self._hashable

    def observe(self, value: Any) -> None:
        if self._hashable:
            try:
                self._distinct.add(value)
            except TypeError:
                self._hashable = False
                self._distinct = set()
        if self._comparable and value is not None:
            # None is ignored by the bounds (SQL NULL semantics) so the
            # result never depends on where in the load a None appears.
            try:
                if self._min is None or value < self._min:
                    self._min = value
                if self._max is None or value > self._max:
                    self._max = value
            except TypeError:
                self._comparable = False
                self._min = self._max = None


class TableStats:
    """Row count plus per-column :class:`ColumnStats` for one table."""

    def __init__(self, columns: Tuple[str, ...]):
        self.columns = tuple(columns)
        self.row_count = 0
        self.column_stats: Dict[str, ColumnStats] = {
            column: ColumnStats() for column in self.columns}

    # -- incremental maintenance (Table.insert) ---------------------------

    def observe(self, record: Mapping[str, Any]) -> None:
        """Fold one inserted row into the statistics."""
        self.row_count += 1
        for column in self.columns:
            self.column_stats[column].observe(record[column])

    # -- full refresh (ANALYZE) -------------------------------------------

    def refresh(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Recompute everything from the stored rows (stale-proof)."""
        self.row_count = 0
        self.column_stats = {column: ColumnStats()
                             for column in self.columns}
        for record in rows:
            self.observe(record)

    # -- planner accessors -------------------------------------------------

    def ndv(self, column: str) -> Optional[int]:
        """Distinct values in ``column``; ``None`` when unknown."""
        if column == ROWID:
            return self.row_count
        stats = self.column_stats.get(column)
        return stats.ndv if stats is not None else None

    def bounds(self, column: str) -> Tuple[Any, Any]:
        """(min, max) of ``column``; ``(None, None)`` when unknown."""
        if column == ROWID:
            if self.row_count == 0:
                return None, None
            return 0, self.row_count - 1
        stats = self.column_stats.get(column)
        if stats is None:
            return None, None
        return stats.min, stats.max

    def __repr__(self) -> str:
        return "TableStats(rows=%d, columns=%s)" % (
            self.row_count,
            {c: self.column_stats[c].ndv for c in self.columns})
