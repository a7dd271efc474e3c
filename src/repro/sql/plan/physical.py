"""Physical operators: the executable form of an optimized plan.

Every planned query runs on one operator family.  Operators stream
column batches (:class:`~repro.sql.plan.vector.Batch`, at most
``batch_size`` rows each) and evaluate expressions through closures
compiled once per plan (:mod:`repro.sql.plan.vector`).  Lowering
(:func:`lower`) maps each logical node onto an operator object:

* ``Scan``      -> :class:`FullScanOp` / :class:`IndexScanOp` /
                   :class:`SubqueryScanOp`
* ``Join``      -> :class:`VecHashJoinOp` / :class:`VecNestedLoopOp`
* ``Filter``    -> :class:`VecFilterOp`
* ``Restore``   -> :class:`VecRestoreOp`
* ``Sort``      -> :class:`VecSortOp` (truncated to the LIMIT bound the
                   optimizer attached), or :class:`GatherMergeOp`
                   directly above a Gather
* ``Gather``    -> :class:`GatherOp`
* ``Aggregate`` -> :class:`VecAggregateOp` (GROUP BY grouping in
                   first-encounter order, HAVING, aggregate
                   projection), or :class:`PartialAggregateOp` above a
                   Gather when every aggregate is combinable
* ``Project``   -> :class:`VecProjectOp`, or no operator at all for a
                   lone ``*`` / ``alias.*`` over one unfiltered
                   base-table scan, which then answers the query itself
                   (:meth:`TableScanOp.rows`); ``Distinct`` / ``Limit``
                   and an ORDER BY over grouped rows ->
                   :class:`DistinctOp` / :class:`LimitOp` /
                   :class:`RowSortOp`

Operators print plain relational names (``HashJoin``, ``Filter``,
``PartitionedScan``, ...), so a plan reads the same whatever the batch
size.  Each operator records its output cardinality in
``rows_out``, which the EXPLAIN printer surfaces in ``analyze`` mode;
engine-wide counters go to the
:class:`~repro.sql.executor.ExecutionStats` the seed pipeline also
fills.  Scalar and aggregate semantics mirror the seed pipeline
(``ExecutorOptions(planner=False)``), the oracle every planned mode is
pinned to.

The partition-parallel invariant: the scans, filters and joins below a
Gather (:class:`ChainOp`) split into a shared ``prepare`` — the scan,
each join's build side and hash table, counted in the statistics once
— and a per-partition ``run_partition``.  A partition is a contiguous
row range of the leftmost scan (:func:`_range_bounds`), chunked into
batches; partitions merge in partition-index order, which is exactly
the serial row order, so ``parallel=K`` is row/column/stats-identical
to the serial plan for every K.
"""

from __future__ import annotations

import dataclasses
import functools
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sql import ast as S
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import (
    ExecutionStats,
    Executor,
    ExecutorOptions,
    QueryResult,
    _apply_op,
    _avg_final,
    _avg_state,
    _combine_avg,
    _default_name,
    _hash_build,
    _param,
    _ReverseAware,
    _ScannedSource,
    _truthy,
    merge_stats,
)
from repro.sql.plan import logical as L
from repro.sql.plan.parallel import run_tasks
from repro.sql.plan.vector import Batch, compile_filter, compile_scalar
from repro.service.faults import classify_exception
from repro.tor.values import Record, make_record

#: degradation events by rung transition and classified failure kind —
#: the metrics face of the ``degraded=`` / ``degrade_kind=`` EXPLAIN
#: annotations.
_DEGRADATIONS = obs_metrics.counter(
    "repro_degradations_total",
    "substrate degradation events by rung transition and failure kind")


class _Ctx:
    """Per-execution state threaded through the operator tree."""

    __slots__ = ("executor", "params", "stats", "scanned", "deadline",
                 "part")

    def __init__(self, executor, params: Dict[str, Any], stats,
                 deadline: Any = None, part: Optional[int] = None):
        self.executor = executor        # repro.sql.executor.Executor
        self.params = params
        self.stats = stats              # ExecutionStats (engine-wide)
        self.scanned: List[_ScannedSource] = []
        #: optional repro.service.faults.Deadline bounding the whole
        #: query; partitioned drivers abandon unfinished partitions at
        #: expiry.
        self.deadline = deadline
        #: the one partition a pool job prepares for (None prepares all).
        self.part = part


#: operator entry points that open a trace span when a trace is active.
_TRACED_METHODS = ("scanned", "rows", "run_partition", "batches")

#: the ambient span: a C-level contextvar read, all that an untraced
#: entry point pays.
_current_span = obs_trace.current_span


def _traced(method):
    """Wrap an operator entry point with an optional trace span.

    With tracing off (the default) the wrapper is one C-level
    contextvar read and a direct call — the operator body is untouched,
    so results, statistics and EXPLAIN output are exactly the untraced
    engine's.  Entry points take positional arguments only, so the
    wrapper passes no keyword dict.
    With a trace active it opens a child span named after the
    operator, tagged with the serial-equivalent description
    (``trace_name``) and the observed row count.  ``run_partition``
    timings stay in the span only (partition tasks run in pool worker
    processes, where mutating the shared operator would be lost);
    methods run by the query's own thread also accumulate
    ``elapsed_seconds`` on the operator for EXPLAIN's ``time=`` column.
    """
    is_partition = method.__name__ == "run_partition"

    @functools.wraps(method)
    def wrapper(self, *args):
        parent = _current_span()
        if parent is None:
            return method(self, *args)
        # The op tag rides on the span from creation (trace_name is
        # constructor state) so the sampling profiler can attribute
        # samples to the serial-equivalent operator label live, while
        # the operator is still running.
        node = parent.child(type(self).name, op=self.trace_name())
        with node:
            out = method(self, *args)
        if is_partition:
            node.tag(rows=_count(out))
        else:
            if self.rows_out is not None:
                node.tag(rows=self.rows_out)
            self.elapsed_seconds = ((self.elapsed_seconds or 0.0)
                                    + (node.elapsed_seconds or 0.0))
        return out

    wrapper._obs_traced = True
    return wrapper


class PhysicalOp:
    """Base class: explain metadata plus per-operator statistics."""

    name = "op"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Every operator subclass gets its entry points span-wrapped
        # exactly once, so no call site needs tracing code.
        for attr in _TRACED_METHODS:
            fn = cls.__dict__.get(attr)
            if fn is not None and callable(fn) \
                    and not getattr(fn, "_obs_traced", False):
                setattr(cls, attr, _traced(fn))

    def __init__(self):
        self.rows_out: Optional[int] = None
        #: per-partition output counts, filled by the parallel driver
        #: (None on serial operators).
        self.partition_rows: Optional[List[Optional[int]]] = None
        #: the cost-based optimizer's estimates, copied from the
        #: logical node at lowering time (None in greedy mode); the
        #: EXPLAIN printer renders them as ``est_rows=`` / ``cost=``.
        self.est_rows: Optional[float] = None
        self.est_cost: Optional[float] = None
        #: substrate degradation path taken while executing this
        #: operator (``"pool->serial"``); None when the pool ran it.
        #: EXPLAIN ANALYZE renders it as ``degraded=``.
        self.degraded: Optional[str] = None
        #: classified failure kind of that fall, rendered by EXPLAIN
        #: ANALYZE as ``degrade_kind=``.
        self.degraded_kinds: Optional[List[str]] = None
        #: wall-clock seconds spent in this operator, accumulated by
        #: the span wrapper when tracing is active; None otherwise.
        #: EXPLAIN renders it as ``time=`` when asked (``timing=True``).
        self.elapsed_seconds: Optional[float] = None

    #: prepared/runtime state that never crosses the pool's process
    #: boundary: either rebuilt by the worker's own ``prepare`` (row
    #: slices, hash buckets, build rows) or compiled closures that
    #: cannot pickle at all (recompiled on first use).  Dropping them
    #: keeps partition jobs small — a shipped plan fragment carries
    #: structure, never data.  ``_run_partitioned`` drops them too once a
    #: fan-out ends, so a plan kept for reuse pins no rows.
    _UNPICKLED_STATE = ("_slices", "_filter", "_buckets", "_probe",
                        "_build_rows", "_partial_fns")

    def __getstate__(self):
        state = self.__dict__.copy()
        for attr in self._UNPICKLED_STATE:
            state.pop(attr, None)
        return state

    @property
    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def describe(self) -> str:
        return self.name

    def trace_name(self) -> str:
        """The operator description used as the span's ``op`` tag.

        Operators under a Gather override this with their serial
        description, so a stitched parallel trace carries the same
        operator set as the serial trace (the partitioning is visible
        in the ``partition`` nodes, not in the operator identity).
        """
        return self.describe()


#: the record of a ``(rowid, record)`` pair, read by a C call.
_RECORD = itemgetter(1)


def _count(batches: List[Batch]) -> int:
    n = 0
    for batch in batches:     # a loop: this runs on every tiny lookup
        n += batch.n
    return n


def _concat(batches: List[Batch]) -> Optional[Batch]:
    """The batches as one batch (None when there are none)."""
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    aliases = batches[0].aliases
    pairs = {a: [pair for batch in batches for pair in batch.pairs[a]]
             for a in aliases}
    return Batch(aliases, pairs, _count(batches))


def _permute(batch: Batch, order: List[int], size: int) -> List[Batch]:
    """``batch``'s rows in ``order``, re-chunked into ``size`` batches."""
    return [batch.select(order[start:start + size])
            for start in range(0, len(order), size)]


def _filtered(filt, batches: List[Batch], run) -> List[Batch]:
    """Apply a compiled filter per batch, dropping emptied batches so
    no downstream closure ever sees ``n == 0``."""
    out = []
    for batch in batches:
        batch = filt(batch, run)
        if batch.n:
            out.append(batch)
    return out


#: value types whose ``==`` and ``<`` agree: comparing two of them
#: raw gives the result, or raises the error, that comparing their
#: ``_ReverseAware`` keys does.
_RAW_ORDERED = frozenset((int, float, str, bool))


def _order_key(order_by: Tuple[S.OrderItem, ...], batch: Batch,
               scanned: List[_ScannedSource]):
    """ORDER BY key of each row position of ``batch``.

    Key vectors are extracted column-wise, with the seed pipeline's
    resolution and errors (``Executor._order_value``): a bare name
    resolves against the scanned sources, an unknown alias or a
    missing column raises :class:`SQLExecutionError`.  A single
    ascending key of numbers and strings sorts by its raw values,
    which orders and fails as the wrapped key does.  NULL is not among
    them: two NULL keys are equal wrapped, and raw they do not compare.
    """
    vecs = []
    for item in order_by:
        col = item.column
        alias = col.alias
        if alias is None:
            alias = Executor._alias_for_column(col.column, scanned)
        if alias not in batch.pairs:
            raise SQLExecutionError("unknown alias %r in ORDER BY" % alias)
        vecs.append((batch.column(alias, col.column), item.descending))
    if len(vecs) == 1 and not vecs[0][1] \
            and _RAW_ORDERED.issuperset(map(type, vecs[0][0])):
        return vecs[0][0].__getitem__

    def key(i: int):
        return tuple(_ReverseAware(vec[i], desc) for vec, desc in vecs)

    return key


def _sort(batches: List[Batch], order_by: Tuple[S.OrderItem, ...],
          top_k: Optional[int], scanned: List[_ScannedSource],
          size: int) -> List[Batch]:
    """Stable ORDER BY over batches, truncated to ``top_k`` if given
    (``sorted(...)[:k]`` exactly, ties included)."""
    whole = _concat(batches)
    if whole is None:
        return []
    order = sorted(range(whole.n), key=_order_key(order_by, whole, scanned))
    if top_k is not None:
        order = order[:top_k]
    return _permute(whole, order, size)


def _sort_keys(order_by: Tuple[S.OrderItem, ...]) -> str:
    return ", ".join(
        ("%s.%s" % (o.column.alias, o.column.column)
         if o.column.alias else o.column.column)
        + (" DESC" if o.descending else "")
        for o in order_by)


# -- batch producers ---------------------------------------------------------


class VecOp(PhysicalOp):
    """Base class for operators streaming column batches.

    ``batches`` returns a list of :class:`Batch` objects whose
    concatenation is the operator's row stream in order.  Every batch
    is non-empty; empty batches are dropped at the producer so
    downstream closures never see ``n == 0``.
    """

    def batches(self, ctx: _Ctx) -> List[Batch]:
        raise NotImplementedError


class RowOp(PhysicalOp):
    """Base class for operators producing projected output rows."""

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        raise NotImplementedError


class ChainOp(VecOp):
    """A scan, filter or join: runs serially or once per partition.

    ``batches`` runs the operator serially.  Under a Gather, lowering
    sets ``partitions``, and the fan-out operator above calls
    ``prepare`` once — it does the shared work (the scan, each join's
    build side and hash table, counted in the statistics exactly once)
    and returns the partition count — then ``run_partition`` per
    partition, using only partition-local state and recording its
    output count in the partition context.  EXPLAIN prints partitioned
    operators with a ``Partitioned`` prefix; spans keep the serial
    description.
    """

    def __init__(self):
        super().__init__()
        #: the Gather's partition count when this operator runs per
        #: partition; None for serial operators and build sides.
        self.partitions: Optional[int] = None

    def _describe(self, label: str) -> str:
        return label

    def describe(self) -> str:
        if self.partitions:
            return self._describe("Partitioned" + self.name)
        return self._describe(self.name)

    def trace_name(self) -> str:
        return self._describe(self.name)

    def prepare(self, ctx: _Ctx) -> int:
        raise NotImplementedError

    def run_partition(self, part: int, pctx: "_PartCtx") -> List[Batch]:
        raise NotImplementedError


# -- scans -------------------------------------------------------------------


class ScanOp(ChainOp):
    """Base scan: an access path (``_rows``) plus pushed-down predicates.

    The predicates compile once into a batch filter.  ``batches``
    streams the filtered rows; ``scanned`` materializes them as a
    join's build side; ``prepare`` / ``run_partition`` split them into
    the contiguous row ranges of :func:`_range_bounds`.  Every scan
    registers its source in ``ctx.scanned`` for downstream name
    resolution (``*`` expansion, ORDER BY aliasing); consumers read
    only its alias and columns.
    """

    def __init__(self, alias: str, predicates: Tuple[S.Expr, ...],
                 batch_size: int = 1024):
        super().__init__()
        self.alias = alias
        self.predicates = predicates
        self.batch_size = batch_size

    def describe(self) -> str:
        if self.partitions:
            return "PartitionedScan(%s, partitions=%d)" % (
                self._describe(self.name), self.partitions)
        return self._describe(self.name)

    def _describe(self, label: str) -> str:
        body = label + self._target()
        if self.predicates:
            body += " filter=%d" % len(self.predicates)
        return body

    def _target(self) -> str:
        raise NotImplementedError

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        raise NotImplementedError

    @functools.cached_property
    def _filter(self):
        return compile_filter(self.predicates) if self.predicates else None

    def _chunks(self, rows, run) -> List[Batch]:
        """``rows`` as filtered batches of at most ``batch_size``."""
        alias, size = self.alias, self.batch_size
        if len(rows) <= size:
            # The common small scan: one batch, no copy of the rows.
            out = [Batch((alias,), {alias: rows}, len(rows))] if rows \
                else []
        else:
            out = [Batch((alias,), {alias: rows[start:start + size]},
                         min(size, len(rows) - start))
                   for start in range(0, len(rows), size)]
        if self._filter is not None:
            return _filtered(self._filter, out, run)
        return out

    def scanned(self, ctx: _Ctx) -> _ScannedSource:
        source = self._rows(ctx)
        ctx.scanned.append(source)
        if self._filter is not None:
            rows = [pair for batch in self._chunks(source.rows, ctx)
                    for pair in batch.pairs[self.alias]]
            source = _ScannedSource(alias=source.alias,
                                    columns=source.columns, rows=rows,
                                    table=source.table)
        self.rows_out = len(source.rows)
        return source

    def batches(self, ctx: _Ctx) -> List[Batch]:
        source = self._rows(ctx)
        ctx.scanned.append(source)
        rows = source.rows
        n = len(rows)
        if n <= self.batch_size and self._filter is None:
            # A point lookup's shape: the rows are the one batch as
            # they are, with no chunking or counting calls.
            self.rows_out = n
            return [Batch((self.alias,), {self.alias: rows}, n)] if n \
                else []
        out = self._chunks(rows, ctx)
        self.rows_out = _count(out)
        return out

    def prepare(self, ctx: _Ctx) -> int:
        source = self._rows(ctx)   # scan-level stats count once here
        self._slices = [source.rows[start:stop] for start, stop in
                        _range_bounds(len(source.rows), self.partitions)]
        ctx.scanned.append(source)
        return self.partitions

    def run_partition(self, part: int, pctx: "_PartCtx") -> List[Batch]:
        out = self._chunks(self._slices[part], pctx)
        pctx.record(self, _count(out))
        return out


class TableScanOp(ScanOp, RowOp):
    """A base-table scan: ``_read`` is its access path.

    ``_read`` reads the table, counts the scan statistics and returns
    the table with the positions of the rows the scan yields (None for
    every row, in storage order).  ``_rows`` pairs those rows with
    their positions for the batch entry points, and ``rows`` answers a
    query on its own.  Lowering makes an unfiltered scan the plan's
    root when the select list is a lone ``*`` / ``alias.*``, so a point
    lookup runs as this one operator (LIMIT and DISTINCT may sit above
    it).
    """

    def __init__(self, table: str, alias: str,
                 predicates: Tuple[S.Expr, ...], batch_size: int = 1024):
        super().__init__(alias, predicates, batch_size)
        self.table = table

    def _read(self, ctx: _Ctx):
        raise NotImplementedError

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        table, positions = self._read(ctx)
        return _ScannedSource(self.alias, table.columns,
                              _pairs(table.rows, positions), table)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        """The stored records themselves, as ``SELECT *`` output.

        Records are immutable, so sharing them is safe, and a lookup
        builds no batch, pair or projected record.  A record whose
        fields differ from the table's columns (written behind the
        API), or a table whose duplicate column names the star
        renames, takes the star projection (:func:`_project`).
        """
        table, positions = self._read(ctx)
        stored = table.rows
        records = stored[:] if positions is None \
            else list(map(stored.__getitem__, positions))
        columns = table.columns
        for record in records:
            if record.fields != columns:
                break
        else:
            # A record's fields are distinct, so one matching record
            # proves the columns are; an empty result checks them.
            if records or len(set(columns)) == len(columns):
                self.rows_out = len(records)
                return records, columns
        source = _ScannedSource(self.alias, columns,
                                _pairs(stored, positions), table)
        ctx.scanned.append(source)
        rows, columns = _project(_STAR, (None,),
                                 self._chunks(source.rows, ctx), ctx)
        self.rows_out = len(rows)
        return rows, columns


def _pairs(stored: List[Record], positions: Optional[List[int]]):
    """``(rowid, record)`` pairs of the stored rows at ``positions``
    (every row when None)."""
    if positions is None:
        return list(enumerate(stored))
    return list(zip(positions, map(stored.__getitem__, positions)))


class FullScanOp(TableScanOp):
    name = "FullScan"

    def _target(self) -> str:
        return "(%s AS %s)" % (self.table, self.alias)

    def prepare(self, ctx: _Ctx) -> int:
        if ctx.part is None:
            return super().prepare(ctx)
        # A pool job runs one partition: read only its row range
        # instead of copying the whole table (the query's own prepare already
        # counted the scan statistics).
        table = ctx.executor.catalog.table(self.table)
        start, stop = _range_bounds(len(table.rows),
                                    self.partitions)[ctx.part]
        self._slices = {ctx.part: list(zip(range(start, stop),
                                           table.rows[start:stop]))}
        ctx.scanned.append(_ScannedSource(alias=self.alias,
                                          columns=table.columns, rows=[],
                                          table=table))
        return self.partitions

    def _read(self, ctx: _Ctx):
        table = ctx.executor.catalog.table(self.table)
        ctx.stats.rows_scanned += len(table.rows)
        ctx.stats.full_scans += 1
        return table, None


class IndexScanOp(TableScanOp):
    name = "IndexScan"

    def __init__(self, table: str, alias: str, column: str,
                 value_expr: S.Expr, predicates: Tuple[S.Expr, ...],
                 batch_size: int = 1024):
        super().__init__(table, alias, predicates, batch_size)
        self.column = column
        self.value_expr = value_expr

    def _target(self) -> str:
        from repro.sql.pretty import expr_sql

        return "(%s AS %s, %s = %s)" % (self.table, self.alias, self.column,
                                        expr_sql(self.value_expr))

    def _read(self, ctx: _Ctx):
        # Every point lookup runs this, so the table and the parameter
        # are read directly; ``Catalog.table`` and ``_param`` are called
        # only to raise their typed errors.
        catalog = ctx.executor.catalog
        table = catalog.tables.get(self.table)
        if table is None:
            table = catalog.table(self.table)
        value_expr = self.value_expr
        if isinstance(value_expr, S.Literal):
            value = value_expr.value
        else:
            params, name = ctx.params, value_expr.name
            value = params[name] if name in params else _param(params, name)
        positions = table.indexes[self.column].lookup(value)
        stats = ctx.stats
        stats.index_probes += 1
        stats.index_scans += 1
        stats.rows_scanned += len(positions)
        return table, positions


class SubqueryScanOp(ScanOp):
    name = "SubqueryScan"

    def __init__(self, query: S.Select, alias: str,
                 predicates: Tuple[S.Expr, ...], batch_size: int = 1024):
        super().__init__(alias, predicates, batch_size)
        self.query = query

    def _target(self) -> str:
        return "(AS %s)" % self.alias

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        # Serial, as IN subqueries are: the outer plan's partitions
        # already fan out, and a subquery planned with the same K would
        # fan out again on its own.
        sub = ctx.executor._nested_executor().execute(self.query,
                                                      ctx.params, ctx.stats)
        candidate = [(idx, row) for idx, row in enumerate(sub.rows)]
        ctx.stats.rows_scanned += len(candidate)
        ctx.stats.full_scans += 1
        return _ScannedSource(alias=self.alias, columns=sub.columns,
                              rows=candidate, table=None)


# -- filters and joins ---------------------------------------------------------


class VecFilterOp(ChainOp):
    """Residual predicates applied per batch via a compiled closure."""

    name = "Filter"

    def __init__(self, child: ChainOp, predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.child = child
        self.predicates = predicates

    @property
    def children(self):
        return (self.child,)

    def _describe(self, label: str) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (label, " AND ".join(
            expr_sql(p) for p in self.predicates))

    @functools.cached_property
    def _filter(self):
        return compile_filter(self.predicates)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        out = _filtered(self._filter, self.child.batches(ctx), ctx)
        self.rows_out = _count(out)
        return out

    def prepare(self, ctx: _Ctx) -> int:
        return self.child.prepare(ctx)

    def run_partition(self, part: int, pctx: "_PartCtx") -> List[Batch]:
        out = _filtered(self._filter,
                        self.child.run_partition(part, pctx), pctx)
        pctx.record(self, _count(out))
        return out


class _JoinOp(ChainOp):
    """Base for the joins: ``left`` is the running chain, ``right`` the
    new source.  ``_build`` scans the new source once, after the left
    side's scans (the seed pipeline's scan order); ``_join`` extends
    left batches with it."""

    def __init__(self, left: ChainOp, right: ScanOp):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _build(self, ctx: _Ctx) -> None:
        raise NotImplementedError

    def _join(self, incoming: List[Batch], run) -> List[Batch]:
        raise NotImplementedError

    def batches(self, ctx: _Ctx) -> List[Batch]:
        incoming = self.left.batches(ctx)
        self._build(ctx)
        out = self._join(incoming, ctx)
        self.rows_out = _count(out)
        return out

    def prepare(self, ctx: _Ctx) -> int:
        partitions = self.left.prepare(ctx)
        self._build(ctx)
        return partitions

    def run_partition(self, part: int, pctx: "_PartCtx") -> List[Batch]:
        out = self._join(self.left.run_partition(part, pctx), pctx)
        pctx.record(self, _count(out))
        return out


class VecHashJoinOp(_JoinOp):
    """Hash join: build on the new source, probe with whole batches.

    The build phase is the shared :func:`_hash_build`; the probe key
    is evaluated as a vector per batch, then matches expand
    probe-major (probe position order, then bucket order) via index
    gather — the seed pipeline's ``_hash_probe`` order, which is what
    makes contiguous probe partitions concatenate back into the serial
    result exactly.
    """

    name = "HashJoin"

    def __init__(self, left: ChainOp, right: ScanOp, predicate: S.BinOp):
        super().__init__(left, right)
        self.predicate = predicate

    def _describe(self, label: str) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (label, expr_sql(self.predicate))

    def _build(self, ctx: _Ctx) -> None:
        source = self.right.scanned(ctx)
        ctx.stats.hash_joins += 1
        self._buckets, probe_expr = _hash_build(source, self.predicate)
        _, self._probe = compile_scalar(probe_expr)  # ColumnRef: a vector

    def _join(self, incoming: List[Batch], run) -> List[Batch]:
        buckets, probe = self._buckets, self._probe
        build_alias = self.right.alias
        out: List[Batch] = []
        for batch in incoming:
            idx: List[int] = []
            rows: List = []
            for i, value in enumerate(probe(batch, run)):
                matches = buckets.get(value)
                if matches:
                    for row in matches:
                        idx.append(i)
                        rows.append(row)
            if not idx:
                continue
            pairs = {a: [ps[i] for i in idx]
                     for a, ps in batch.pairs.items()}
            pairs[build_alias] = rows
            out.append(Batch(batch.aliases + (build_alias,), pairs,
                             len(rows)))
        return out


class VecNestedLoopOp(_JoinOp):
    """Cross product with the new source (no connecting predicate)."""

    name = "NestedLoop"

    def _build(self, ctx: _Ctx) -> None:
        self._build_rows = self.right.scanned(ctx).rows
        ctx.stats.nested_loop_joins += 1

    def _join(self, incoming: List[Batch], run) -> List[Batch]:
        rows, alias = self._build_rows, self.right.alias
        out: List[Batch] = []
        if rows:
            m = len(rows)
            for batch in incoming:
                # Prefix-major: each prefix row pairs with every source
                # row before the next prefix row.
                idx = [i for i in range(batch.n) for _ in range(m)]
                pairs = {a: [ps[i] for i in idx]
                         for a, ps in batch.pairs.items()}
                pairs[alias] = rows * batch.n
                out.append(Batch(batch.aliases + (alias,), pairs,
                                 len(idx)))
        return out


# -- ordering ------------------------------------------------------------------


class VecSortOp(VecOp):
    """ORDER BY over batches: materialize, sort by key vectors, re-chunk.

    The sort permutes row positions with Python's stable sort, so tie
    order matches the seed pipeline's ``_order`` exactly; with a
    ``top_k`` bound the result is ``sorted(...)[:k]``, the first rows
    of the seed's one sort.
    """

    name = "Sort"

    def __init__(self, child: VecOp, order_by: Tuple[S.OrderItem, ...],
                 top_k: Optional[int], batch_size: int):
        super().__init__()
        self.child = child
        self.order_by = order_by
        self.top_k = top_k
        self.batch_size = batch_size

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        if self.top_k is not None:
            return "TopK(%d, %s)" % (self.top_k, _sort_keys(self.order_by))
        return "%s(%s)" % (self.name, _sort_keys(self.order_by))

    def batches(self, ctx: _Ctx) -> List[Batch]:
        out = _sort(self.child.batches(ctx), self.order_by, self.top_k,
                    ctx.scanned, self.batch_size)
        self.rows_out = _count(out)
        return out


class VecRestoreOp(VecOp):
    """Re-sort rows into the pinned FROM-order enumeration.

    The cost-based optimizer may run the join chain in a cheaper
    order; the row *set* is unchanged but its enumeration is
    leftmost-major in the chosen order.  Sorting by the rowid tuple
    taken in FROM order reproduces the seed pipeline's storage-order
    enumeration exactly (each row's rowid tuple is unique, so the sort
    is a pure permutation).  The scanned-source registry is reordered
    the same way, so ``*`` expansion and bare-column resolution above
    also see FROM order.
    """

    name = "Restore"

    def __init__(self, child: VecOp, aliases: Tuple[str, ...],
                 batch_size: int):
        super().__init__()
        self.child = child
        self.aliases = aliases
        self.batch_size = batch_size

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(self.aliases))

    def batches(self, ctx: _Ctx) -> List[Batch]:
        whole = _concat(self.child.batches(ctx))
        position = {alias: i for i, alias in enumerate(self.aliases)}
        ctx.scanned.sort(
            key=lambda src: position.get(src.alias, len(position)))
        if whole is None:
            self.rows_out = 0
            return []
        rowids = [whole.column(a, "_rowid") for a in self.aliases]
        order = sorted(range(whole.n),
                       key=lambda i: tuple(vec[i] for vec in rowids))
        self.rows_out = whole.n
        return _permute(whole, order, self.batch_size)


# -- row producers -------------------------------------------------------------


class VecProjectOp(RowOp):
    """Projection evaluated column-wise over batches.

    Select items compile once at plan time; per batch, each item
    yields one value vector (``*`` expands to direct column gathers,
    constants broadcast) and output records assemble row-wise from the
    zipped vectors — the seed pipeline's values, names and order.  A
    lone ``*`` / ``alias.*`` over one source whose records already
    carry exactly the output columns returns those stored records
    themselves (:meth:`_stored_rows`); over one unfiltered base-table
    scan, lowering leaves this operator out and the scan answers
    (:meth:`TableScanOp.rows`).
    """

    name = "Project"

    def __init__(self, child: VecOp, items: Tuple[S.SelectItem, ...]):
        super().__init__()
        self.child = child
        self.items = items
        self._item_fns = [None if isinstance(item.expr, S.Star)
                          else compile_scalar(item.expr)
                          for item in items]
        #: whether the select list is a lone ``*`` / ``alias.*``, the one
        #: shape :meth:`_stored_rows` may answer.
        self._lone_star = len(items) == 1 and isinstance(items[0].expr,
                                                         S.Star)

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import _item

        return "%s(%s)" % (self.name,
                           ", ".join(_item(i) for i in self.items))

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        batches = self.child.batches(ctx)
        stored = self._stored_rows(batches, ctx.scanned) \
            if self._lone_star else None
        if stored is None:
            stored = _project(self.items, self._item_fns, batches, ctx)
        rows, columns = stored
        self.rows_out = len(rows)
        return rows, columns

    def _stored_rows(self, batches: List[Batch],
                     scanned: List[_ScannedSource]):
        """``SELECT *`` / ``SELECT alias.*`` over one source whose records
        already carry exactly the output columns: those records
        themselves, instead of an equal rebuilt :class:`Record` per row
        (records are immutable, so sharing them is safe).  None when
        the star matches several sources or the records differ;
        :func:`_project` then builds the rows."""
        alias = self.items[0].expr.alias
        source = None
        for candidate in scanned:
            if alias is None or candidate.alias == alias:
                if source is not None:
                    return None
                source = candidate
        if source is None:
            return None
        columns = source.columns
        if len(set(columns)) != len(columns):
            return None                  # projection renames duplicates
        rows: List[Record] = []
        for batch in batches:
            rows.extend(map(_RECORD, batch.pairs[source.alias]))
        for row in rows:
            if row.fields != columns:
                return None              # a row written behind the API
        return rows, columns


#: the lone ``*`` select list a table scan projects when it cannot hand
#: its stored records through (:meth:`TableScanOp.rows`).
_STAR = (S.SelectItem(S.Star()),)


def _project(items: Tuple[S.SelectItem, ...], item_fns,
             batches: List[Batch],
             ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
    """The select list over ``batches``: one record per row.

    ``item_fns`` holds each item's compiled closure (None for a star,
    which expands over ``ctx.scanned``)."""
    executor = ctx.executor
    columns: List[str] = []
    plan = []     # ("star", alias, column) | ("const", fn) | ("vec", fn)
    for item, compiled in zip(items, item_fns):
        if compiled is None:
            star_sources = [s for s in ctx.scanned
                            if item.expr.alias in (None, s.alias)]
            if not star_sources:
                raise SQLExecutionError(
                    "unknown alias %r in select list" % item.expr.alias)
            for source in star_sources:
                for column in source.columns:
                    name = executor._fresh_name(column, columns)
                    columns.append(name)
                    plan.append(("star", source.alias, column))
        else:
            name = item.as_name or _default_name(item.expr)
            columns.append(executor._fresh_name(name, columns))
            is_const, fn = compiled
            plan.append(("const" if is_const else "vec", fn))

    fields = tuple(columns)
    rows: List[Record] = []
    for batch in batches:
        vectors = []
        for entry in plan:
            if entry[0] == "star":
                vectors.append(batch.column(entry[1], entry[2]))
            elif entry[0] == "const":
                vectors.append([entry[1](ctx)] * batch.n)
            else:
                vectors.append(entry[1](batch, ctx))
        for vals in zip(*vectors):
            rows.append(make_record(fields, vals))
    return rows, fields


# -- aggregation ---------------------------------------------------------------


def _aggregate_calls(trees: List[S.Expr]) -> List[S.FuncCall]:
    """The aggregate calls of select/HAVING trees, in evaluation order
    (the structural walk of ``VecAggregateOp``'s evaluator)."""
    calls: List[S.FuncCall] = []

    def walk(expr: S.Expr) -> None:
        if isinstance(expr, S.FuncCall):
            calls.append(expr)
        elif isinstance(expr, S.BinOp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, S.NotOp):
            walk(expr.expr)

    for tree in trees:
        walk(tree)
    return calls


def _compile_aggregate(calls: List[S.FuncCall],
                       group_by: Tuple[S.Expr, ...]):
    """Compiled argument closures (by call identity) and key closures."""
    return ({id(call): compile_scalar(call.arg) for call in calls},
            [compile_scalar(key) for key in group_by])


def _series(compiled, batches: List[Batch], run) -> List[Any]:
    """One compiled expression's values over ``batches``, in row order."""
    is_const, fn = compiled
    out: List[Any] = []
    for batch in batches:
        if is_const:
            out.extend([fn(run)] * batch.n)
        else:
            out.extend(fn(batch, run))
    return out


def _agg_state(call: S.FuncCall, compiled, batches: List[Batch], n: int,
               run) -> Any:
    """One aggregate call's state over the ``n`` rows of ``batches``.

    ``Executor._eval_aggregate``'s semantics, folded in row order with
    the same arithmetic: COUNT(*) counts rows, COUNT(x) drops None,
    SUM of nothing is 0, MIN/MAX of nothing is None.  For
    COUNT/SUM/MIN/MAX the state *is* the value; AVG's state is the
    ``(exact total, count)`` pair (:func:`_avg_state`), finished by
    :func:`_finish_state` — after a combine, when partitions each
    folded their own rows.
    """
    if call.name == "COUNT" and call.arg is None:
        return n
    series = _series(compiled, batches, run)
    if call.name == "COUNT":
        return sum(1 for v in series if v is not None)
    if call.name == "SUM":
        return sum(series) if series else 0
    if call.name == "MAX":
        return max(series) if series else None
    if call.name == "MIN":
        return min(series) if series else None
    if call.name == "AVG":
        return _avg_state(series)
    raise SQLExecutionError("unknown aggregate %r" % call.name)


def _finish_state(call: S.FuncCall, state: Any) -> Any:
    """Turn a (fully combined) aggregate state into the value."""
    if call.name == "AVG":
        return _avg_final(state)
    return state


def _combine_states(call: S.FuncCall, left: Any, right: Any) -> Any:
    """Fold two partial states of one aggregate call."""
    if call.name in ("COUNT", "SUM"):
        return left + right
    if call.name == "AVG":
        return _combine_avg(left, right)
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right) if call.name == "MAX" else min(left, right)


def _groups(key_fns, batches: List[Batch], run):
    """Bucket row positions by key tuple in **first-encounter order**.

    Returns the input as one batch (None when empty) and the
    ``(key, positions)`` groups, positions ascending.
    """
    key_vecs = [_series(fn, batches, run) for fn in key_fns]
    buckets: Dict[Tuple, List[int]] = {}
    for i, key in enumerate(zip(*key_vecs)):
        got = buckets.get(key)
        if got is None:
            buckets[key] = got = []
        got.append(i)
    return _concat(batches), list(buckets.items())


def _first_env(whole: Batch, positions: List[int]):
    """A group's first row as an ``Executor._eval`` environment."""
    return {a: whole.pairs[a][positions[0]] for a in whole.aliases}


def _output_columns(items: Tuple[S.SelectItem, ...],
                    executor) -> Tuple[str, ...]:
    """The select list's output names, made distinct by
    ``_fresh_name``: one field tuple for every record of the result."""
    columns: List[str] = []
    for item in items:
        name = item.as_name or _default_name(item.expr)
        columns.append(executor._fresh_name(name, columns))
    return tuple(columns)


def _aggregate_label(group_by: Tuple[S.Expr, ...],
                     having: Optional[S.Expr]) -> str:
    from repro.sql.pretty import expr_sql

    if not group_by:
        return "Aggregate(whole input)"
    body = "GroupBy(%s)" % ", ".join(expr_sql(e) for e in group_by)
    if having is not None:
        body += " having %s" % expr_sql(having)
    return body


class VecAggregateOp(RowOp):
    """Aggregate / GROUP BY / HAVING evaluation over batches.

    Without group keys this is the seed pipeline's whole-input
    aggregation (one output row; ORDER BY / DISTINCT / LIMIT and a
    key-less HAVING do not apply, as in the seed).  With keys, rows
    are bucketed by their key tuple; groups are emitted in
    **first-encounter order**, the engine's deterministic analogue of
    the ordered-relation semantics (the join chain enumerates rows
    left-major, so groups keyed on the leftmost source come out in its
    storage order).  Per group, HAVING evaluates before the select
    items, so filtered groups never compute their aggregates;
    aggregate calls fold the group's rows, AND/OR/NOT combine with
    the evaluator's short-circuits, and any other subtree evaluates
    on the group's first row (group keys are constant within a group).
    """

    name = "Aggregate"

    def __init__(self, child: VecOp, items: Tuple[S.SelectItem, ...],
                 group_by: Tuple[S.Expr, ...],
                 having: Optional[S.Expr]):
        super().__init__()
        self.child = child
        self.items = items
        self.group_by = group_by
        self.having = having
        self.groups_in = None
        trees = [item.expr for item in items]
        if having is not None:
            trees.append(having)
        self._arg_fns, self._key_fns = _compile_aggregate(
            _aggregate_calls(trees), group_by)

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return _aggregate_label(self.group_by, self.having)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        batches = self.child.batches(ctx)
        if self.group_by:
            return self._grouped(batches, ctx)
        return self._whole(batches, ctx)

    def _fold(self, call: S.FuncCall, batches: List[Batch], n: int,
              ctx: _Ctx) -> Any:
        return _finish_state(call, _agg_state(call, self._arg_fns[id(call)],
                                              batches, n, ctx))

    def _whole(self, batches: List[Batch], ctx: _Ctx):
        n = _count(batches)

        def value(expr: S.Expr) -> Any:
            # Executor._eval_aggregate's structure, over batches.
            if isinstance(expr, S.FuncCall):
                return self._fold(expr, batches, n, ctx)
            if isinstance(expr, S.BinOp):
                return _apply_op(expr.op, value(expr.left),
                                 value(expr.right))
            if isinstance(expr, S.Literal):
                return expr.value
            if isinstance(expr, S.Param):
                return _param(ctx.params, expr.name)
            raise SQLExecutionError("unsupported aggregate expression %r"
                                    % (expr,))

        columns: List[str] = []
        values: List[Any] = []
        for item in self.items:
            if isinstance(item.expr, S.Star):
                raise SQLExecutionError("* cannot mix with aggregates")
            name = item.as_name or _default_name(item.expr)
            columns.append(ctx.executor._fresh_name(name, columns))
            values.append(value(item.expr))
        self.rows_out = 1
        fields = tuple(columns)
        return [make_record(fields, values)], fields

    def _grouped(self, batches: List[Batch], ctx: _Ctx):
        whole, groups = _groups(self._key_fns, batches, ctx)
        self.groups_in = len(groups)
        if any(isinstance(item.expr, S.Star) for item in self.items):
            raise SQLExecutionError(
                "* cannot appear in a grouped select list")
        fields = _output_columns(self.items, ctx.executor)

        rows: List[Record] = []
        for _, positions in groups:
            group = whole.select(positions)
            first_env = _first_env(whole, positions)
            if self.having is not None and not _truthy(
                    self._group_value(self.having, group, first_env, ctx)):
                continue
            values = [self._group_value(item.expr, group, first_env, ctx)
                      for item in self.items]
            rows.append(make_record(fields, values))
        self.rows_out = len(rows)
        return rows, fields

    def _group_value(self, expr: S.Expr, group: Batch, first_env,
                     ctx: _Ctx) -> Any:
        """A select/HAVING expression over one group's rows
        (``Executor._eval_group``'s structure)."""
        if isinstance(expr, S.FuncCall):
            return self._fold(expr, [group], group.n, ctx)
        if isinstance(expr, S.BinOp):
            left = self._group_value(expr.left, group, first_env, ctx)
            if expr.op == "AND":
                return _truthy(left) and _truthy(
                    self._group_value(expr.right, group, first_env, ctx))
            if expr.op == "OR":
                return _truthy(left) or _truthy(
                    self._group_value(expr.right, group, first_env, ctx))
            return _apply_op(expr.op, left, self._group_value(
                expr.right, group, first_env, ctx))
        if isinstance(expr, S.NotOp):
            return not _truthy(self._group_value(expr.expr, group,
                                                 first_env, ctx))
        return ctx.executor._eval(expr, first_env, ctx.params, ctx.stats)


class RowSortOp(RowOp):
    """ORDER BY over already-projected rows (grouped queries)."""

    name = "RowSort"

    def __init__(self, child: RowOp, order_by: Tuple[S.OrderItem, ...]):
        super().__init__()
        self.child = child
        self.order_by = order_by

    @property
    def children(self):
        return (self.child,)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        rows, columns = self.child.rows(ctx)

        def key(row: Record):
            parts = []
            for item in self.order_by:
                name = item.column.column
                if name not in row.fields:
                    raise SQLExecutionError(
                        "ORDER BY on a grouped query must name an output "
                        "column (no column %r)" % name)
                parts.append(_ReverseAware(row[name], item.descending))
            return tuple(parts)

        rows = sorted(rows, key=key)
        self.rows_out = len(rows)
        return rows, columns


class DistinctOp(RowOp):
    name = "Distinct"

    def __init__(self, child: RowOp):
        super().__init__()
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        rows, columns = self.child.rows(ctx)
        seen = set()
        deduped = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        self.rows_out = len(deduped)
        return deduped, columns


class LimitOp(RowOp):
    name = "Limit"

    def __init__(self, child: RowOp, count: int):
        super().__init__()
        self.child = child
        self.count = count

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(%d)" % (self.name, self.count)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        rows, columns = self.child.rows(ctx)
        rows = rows[: self.count]
        self.rows_out = len(rows)
        return rows, columns


# -- partition-parallel execution ---------------------------------------------


class _PartCtx:
    """Per-partition execution state: private stats, private counters.

    Each partition task owns one of these so nothing is mutated
    concurrently; the driver merges ``stats`` back into the query's
    :class:`ExecutionStats` in partition-index order and copies
    ``recorded`` per-operator counts into ``partition_rows``.  Both
    survive a process boundary (the payload is plain data), which is
    what lets pool workers report honest per-partition statistics.
    """

    __slots__ = ("executor", "params", "stats", "recorded")

    def __init__(self, executor, params):
        self.executor = executor
        self.params = params
        self.stats = ExecutionStats()
        self.recorded: Dict[int, int] = {}

    def record(self, op: PhysicalOp, count: int) -> None:
        self.recorded[op._ordinal] = count


def _range_bounds(n: int, partitions: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of contiguous range partitions of near-equal
    size over ``n`` rows (sizes differ by at most one; earlier
    partitions take the remainder)."""
    base, extra = divmod(n, partitions)
    bounds = []
    start = 0
    for part in range(partitions):
        stop = start + base + (1 if part < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _subtree(op: PhysicalOp) -> Iterator[PhysicalOp]:
    """``op`` and every operator below it, pre-order."""
    yield op
    for child in op.children:
        yield from _subtree(child)


def _split_estimates(est_rows: Optional[float],
                     partitions: int) -> List[int]:
    """The cost model's row estimate divided over the partitions by the
    same remainder rule as :func:`_range_bounds` (earlier partitions
    take one extra), so the pool's longest-estimate-first dispatch
    order mirrors the actual contiguous-slice sizes.  Estimates steer
    dispatch order only — results merge in partition-index order."""
    total = int(est_rows) if est_rows and est_rows > 0 else 0
    base, extra = divmod(total, partitions)
    return [base + (1 if part < extra else 0)
            for part in range(partitions)]


class _PoolPartitionJob:
    """One partition of a fan-out, in shippable form.

    Carries the unprepared fan-out operator (:class:`GatherOp`,
    :class:`GatherMergeOp` or :class:`PartialAggregateOp`, with its
    chain; runtime state is stripped by
    :meth:`PhysicalOp.__getstate__`), the executor options and a
    ``digest_map`` naming, by content digest, every catalog table the
    chain and its subqueries read — the pool ships table content
    separately and caches it per worker, so a warm pool receives only
    this job.  The worker rebuilds a catalog from its cache,
    re-prepares the chain for its own partition against the exact same
    content (identical slices, buckets and statistics by construction)
    and returns the standard partition payload ``(result, stats,
    recorded, span_dict)`` — the same 4-tuple a serial rerun of the
    task produces, so the merge is shared.
    """

    __slots__ = ("root", "part", "params", "options", "traced",
                 "digest_map", "est")

    def __init__(self, root: "_FanOut", part: int, params, options,
                 traced: bool, digest_map: Dict[str, str], est: int):
        self.root = root
        self.part = part
        self.params = params
        self.options = options
        self.traced = traced
        self.digest_map = digest_map      # table name -> content digest
        self.est = est

    def run_in_worker(self, cache: Dict[str, Any]):
        """Execute this partition inside a pool worker against the
        worker's digest-keyed table ``cache``."""
        from repro.service import faults
        from repro.sql.catalog import Catalog
        from repro.sql.executor import Executor

        missing = sorted(name for name, digest in self.digest_map.items()
                         if digest not in cache)
        if missing:
            # The driver never evicts a table a dispatched job reads,
            # so a store frame was lost.  This returns as an ``exc``
            # reply, which the pool never retries: the ladder falls
            # straight to serial.
            raise faults.CorruptPayload(
                "pool worker cache is missing tables: %s"
                % ", ".join(missing))
        catalog = Catalog()
        catalog.tables = {name: cache[digest]
                          for name, digest in self.digest_map.items()}
        # The worker executes with *serialized* options: partitioning
        # is already baked into the shipped op tree, and anything the
        # fragment re-plans from scratch (FROM-subqueries during
        # prepare, per-row IN subqueries) must run serial — spawning a
        # substrate from inside a daemonic pool worker is forbidden.
        options = dataclasses.replace(self.options, parallel=1)
        executor = Executor(catalog, options)
        ctx = _Ctx(executor=executor, params=self.params,
                   stats=ExecutionStats(), part=self.part)
        # Worker-side prepare recounts the shared scan/build statistics
        # into a throwaway ExecutionStats — the driver already prepared
        # (and counted) once; only the per-partition pctx.stats ship
        # home, exactly as a serial rerun merges them.
        self.root.child.prepare(ctx)
        pctx = _PartCtx(executor, self.params)
        if self.traced:
            with obs_trace.Span("partition", part=self.part) as pspan:
                payload = self.root._partition(self.part, pctx, ctx.scanned)
            return payload, pctx.stats, pctx.recorded, pspan.to_dict()
        return (self.root._partition(self.part, pctx, ctx.scanned),
                pctx.stats, pctx.recorded, None)


def _tables_read(node: Any, names: set) -> None:
    """Collect the catalog tables a plan fragment can read: every scan
    target and every FROM table of any subquery inside it (walked
    through operator state, expressions and nested selects)."""
    if isinstance(node, (TableScanOp, S.TableSource)):
        names.add(node.table)
    if isinstance(node, PhysicalOp):
        children = node.__getstate__().values()
    elif isinstance(node, (list, tuple)):
        children = node
    elif hasattr(node, "__dataclass_fields__"):    # an S expression
        children = [getattr(node, name) for name in node.__dataclass_fields__]
    else:
        return
    for child in children:
        _tables_read(child, names)


def _attach_pool_jobs(tasks: List[Any], root: "_FanOut", ctx: _Ctx,
                      traced: bool) -> None:
    """Give every partition task its picklable pool payload.

    The pool rung of :func:`~repro.sql.plan.parallel.run_tasks` reads
    ``task.pool_job`` / ``task.pool_tables``; the task closures stay
    callable unchanged, which is what the degradation ladder runs when
    the pool rung fails.  Jobs name only the tables they read, so a
    cold worker is never sent the rest of the catalog."""
    executor = ctx.executor
    catalog = executor.catalog
    names = set()
    _tables_read(root, names)
    digest_map = {name: catalog.tables[name].content_digest()
                  for name in sorted(names) if name in catalog.tables}
    pool_tables = {digest: catalog.tables[name]
                   for name, digest in digest_map.items()}
    ests = _split_estimates(root.child.est_rows, len(tasks))
    for part, task in enumerate(tasks):
        task.pool_job = _PoolPartitionJob(
            root=root, part=part, params=ctx.params,
            options=executor.options, traced=traced,
            digest_map=digest_map, est=ests[part])
        task.pool_tables = pool_tables


def _run_partitioned(root: "_FanOut", ctx: _Ctx,
                     records: bool = False) -> List[Any]:
    """Drive a partitioned chain: prepare serially, fan partitions out.

    ``root._partition(part, pctx, scanned)`` runs per partition in a
    pool worker and its picklable results come back in partition-index
    order.  Partition stats merge into the query stats in that same
    order, and each chain operator's ``partition_rows`` / ``rows_out``
    are filled from the per-partition counters; with ``records`` the
    fan-out operator itself (partial aggregation, whose workers also
    record counts) joins the same ordinal space.

    Substrate faults never fail the query: :func:`run_tasks` degrades
    pool → serial, and each task builds a fresh :class:`_PartCtx`, so
    a degraded rerun merges exactly one run's statistics and stays
    stats-identical to serial.  The path taken is
    recorded on the fan-out operator (``degraded``, surfaced by EXPLAIN
    ANALYZE) and counted in ``ctx.stats.degradations``.
    """
    chain = root.child
    count = chain.prepare(ctx)
    ops = [op for op in _subtree(chain)
           if isinstance(op, ChainOp) and op.partitions]
    if records:
        ops.append(root)
    for ordinal, op in enumerate(ops):
        op._ordinal = ordinal
        op.partition_rows = [None] * count

    executor, params, scanned = ctx.executor, ctx.params, ctx.scanned
    # Cross-process stitching: when a trace is active, every partition
    # builds a *detached* root span where it runs (a fresh one per
    # attempt, so a degraded rerun never double-counts) and ships its
    # ``to_dict`` payload home beside the stats — the same transport
    # partition statistics already ride.  The driver re-parents them
    # below in partition-index order, so the stitched tree's child
    # order is deterministic regardless of completion order.
    parent_span = obs_trace.current_span()
    traced = parent_span is not None

    def make_task(part: int):
        def task():
            pctx = _PartCtx(executor, params)
            if traced:
                with obs_trace.Span("partition", part=part) as pspan:
                    payload = root._partition(part, pctx, scanned)
                return payload, pctx.stats, pctx.recorded, pspan.to_dict()
            return (root._partition(part, pctx, scanned), pctx.stats,
                    pctx.recorded, None)
        return task

    def on_degrade(from_rung: str, to_rung: str, fault: Exception) -> None:
        ctx.stats.degradations += 1
        kind = classify_exception(fault)
        root.degraded = "%s->%s" % (from_rung, to_rung)
        root.degraded_kinds = [kind]
        _DEGRADATIONS.inc(**{"from": from_rung, "to": to_rung,
                             "kind": kind})

    tasks = [make_task(part) for part in range(count)]
    _attach_pool_jobs(tasks, root, ctx, traced)
    results = run_tasks(tasks, deadline=ctx.deadline, on_degrade=on_degrade)
    for op in _subtree(root):
        for attr in PhysicalOp._UNPICKLED_STATE:
            op.__dict__.pop(attr, None)
    payloads = []
    for part, (payload, pstats, recorded, span_dict) in enumerate(results):
        merge_stats(ctx.stats, pstats)
        for ordinal, rows in recorded.items():
            ops[ordinal].partition_rows[part] = rows
        if span_dict is not None and parent_span is not None:
            parent_span.adopt(span_dict)
        payloads.append(payload)
    for op in ops:
        op.rows_out = sum(rows for rows in op.partition_rows
                          if rows is not None)
    return payloads


class _FanOut(PhysicalOp):
    """Base for the operators that drive a partitioned chain
    (``child``) through :func:`_run_partitioned`: ``_partition`` is
    their per-partition work, run on the parallel substrate."""

    def __init__(self, child: ChainOp, partitions: int):
        super().__init__()
        self.child = child
        self.partitions = partitions

    @property
    def children(self):
        return (self.child,)

    def _partition(self, part: int, pctx: _PartCtx,
                   scanned: List[_ScannedSource]) -> Any:
        raise NotImplementedError


class GatherOp(_FanOut, VecOp):
    """Merge a partitioned chain back into one batch stream.

    Partitions are concatenated in partition-index order — the serial
    row order — so every operator above a Gather is oblivious to the
    parallelism below it.  A partition's result is a full row set:
    the pool pickles it back (its workers cache table content, so only
    result rows cross); the serial rung hands it over by reference.
    """

    name = "Gather"

    def describe(self) -> str:
        return "%s(partitions=%d)" % (self.name, self.partitions)

    def _partition(self, part, pctx, scanned):
        return self.child.run_partition(part, pctx)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        out = [batch for part in _run_partitioned(self, ctx)
               for batch in part]
        self.rows_out = _count(out)
        return out


class GatherMergeOp(_FanOut, VecOp):
    """Partition-parallel ORDER BY: per-partition sorts + k-way merge.

    Each partition sorts (and truncates to ``top_k``) its own rows on
    the substrate; the query's own thread merges the sorted runs with the
    enumerator's heap merge
    (:func:`repro.core.enumerate.merge_sorted_runs`), whose ties
    resolve to the earlier partition — which is the earlier input
    position, so the merged sequence equals the serial stable sort of
    the concatenated input *exactly* (and, with ``top_k``, its first k
    rows: any row of the global top k is within its own partition's
    top k, so per-partition truncation loses nothing).
    """

    name = "GatherMerge"

    def __init__(self, child: ChainOp, partitions: int,
                 order_by: Tuple[S.OrderItem, ...],
                 top_k: Optional[int], batch_size: int):
        super().__init__(child, partitions)
        self.order_by = order_by
        self.top_k = top_k
        self.batch_size = batch_size

    def describe(self) -> str:
        body = "%s(partitions=%d, %s)" % (self.name, self.partitions,
                                          _sort_keys(self.order_by))
        if self.top_k is not None:
            body += " top_k=%d" % self.top_k
        return body

    def _partition(self, part, pctx, scanned):
        return _sort(self.child.run_partition(part, pctx), self.order_by,
                     self.top_k, scanned, self.batch_size)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        from repro.core.enumerate import merge_sorted_runs

        runs, flat, start = [], [], 0
        for part in _run_partitioned(self, ctx):
            n = _count(part)
            runs.append(range(start, start + n))
            flat.extend(part)
            start += n
        whole = _concat(flat)
        if whole is None:
            self.rows_out = 0
            return []
        key = _order_key(self.order_by, whole, ctx.scanned)
        order = list(merge_sorted_runs(runs, key=key))
        if self.top_k is not None:
            order = order[:self.top_k]
        self.rows_out = len(order)
        return _permute(whole, order, self.batch_size)


#: Aggregates with an exact, order-insensitive combine step.  AVG
#: qualifies via ``(exact total, count)`` partials: finite floats
#: accumulate as exact fractions (:func:`repro.sql.executor._avg_state`),
#: so combining partition states in any order yields the same
#: exactly-rounded mean as the serial evaluation — the float-bitwise
#: identity the engine's contract demands.
_COMBINABLE_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def combinable_aggregate(items: Tuple[S.SelectItem, ...],
                         group_by: Tuple[S.Expr, ...],
                         having: Optional[S.Expr]) -> bool:
    """Whether this aggregation can run as partials + a combine step.

    Conservative by design — anything not provably identical to the
    serial evaluation (AND/OR short-circuits, subqueries whose
    statistics would be double-counted across partitions) falls back
    to :class:`GatherOp` + :class:`VecAggregateOp`, which is always
    correct.
    """
    grouped = bool(group_by)
    # With HAVING, the serial path never evaluates select-list
    # aggregates for filtered-out groups; partials evaluate them for
    # every group, so their arguments must be statistics-free.
    pure_args = grouped and having is not None
    trees = [item.expr for item in items]
    if having is not None:
        trees.append(having)
    return all(not isinstance(tree, S.Star)
               and _combinable_expr(tree, grouped, pure_args)
               for tree in trees)


def _combinable_expr(expr: S.Expr, grouped: bool,
                     pure_args: bool) -> bool:
    if isinstance(expr, S.FuncCall):
        if expr.name not in _COMBINABLE_AGGREGATES:
            return False
        if expr.arg is not None and pure_args \
                and not _pure_scalar(expr.arg):
            return False
        return True
    if isinstance(expr, S.BinOp):
        if expr.op in ("AND", "OR"):
            return False            # short-circuit evaluation parity
        return (_combinable_expr(expr.left, grouped, pure_args)
                and _combinable_expr(expr.right, grouped, pure_args))
    if isinstance(expr, (S.Literal, S.Param)):
        return True
    if grouped:
        # Non-aggregate subtree: evaluated on the group's first
        # row, potentially once per partition — must not touch
        # engine statistics.
        return _pure_scalar(expr)
    return False


def _pure_scalar(expr: S.Expr) -> bool:
    """No aggregates, no subqueries: evaluation is repeatable and
    statistics-free."""
    if isinstance(expr, (S.Literal, S.Param, S.ColumnRef, S.RowRef)):
        return True
    if isinstance(expr, S.BinOp):
        return _pure_scalar(expr.left) and _pure_scalar(expr.right)
    if isinstance(expr, S.NotOp):
        return _pure_scalar(expr.expr)
    return False


class PartialAggregateOp(_FanOut, RowOp):
    """Aggregation as per-partition partials plus an exact combine.

    Each partition computes, per group (or for the whole input), the
    partial state of every COUNT/SUM/MIN/MAX/AVG call
    (:func:`_agg_state`); the query's own thread merges partitions in
    partition-index order, which preserves the serial **first-encounter
    group order** and picks each group's first row from the earliest
    partition that saw the group — so non-aggregate select items
    evaluate exactly as they do serially.  Only
    ``combinable_aggregate`` shapes lower here; everything else uses
    :class:`GatherOp` + :class:`VecAggregateOp`.

    This is the operator the pool pays off on: a partition's result
    is a handful of scalars, so worker processes buy real CPU
    parallelism without shipping row sets back.
    """

    name = "PartialAggregate"

    def __init__(self, child: ChainOp, partitions: int,
                 items: Tuple[S.SelectItem, ...],
                 group_by: Tuple[S.Expr, ...],
                 having: Optional[S.Expr]):
        super().__init__(child, partitions)
        self.items = items
        self.group_by = group_by
        self.having = having
        self.groups_in = None
        self._agg_calls: List[S.FuncCall] = []
        self._leaves: List[S.Expr] = []
        trees = [item.expr for item in items]
        if having is not None:
            trees.append(having)
        for tree in trees:
            _collect_partial_nodes(tree, self._agg_calls, self._leaves)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        if not self.group_by:
            return "PartialAggregate(whole input, partitions=%d)" \
                % self.partitions
        body = "PartialGroupBy(%s, partitions=%d)" % (
            ", ".join(expr_sql(e) for e in self.group_by),
            self.partitions)
        if self.having is not None:
            body += " having %s" % expr_sql(self.having)
        return body

    def trace_name(self) -> str:
        return _aggregate_label(self.group_by, self.having)

    @functools.cached_property
    def _partial_fns(self):
        return _compile_aggregate(self._agg_calls, self.group_by)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        parts = _run_partitioned(self, ctx, records=True)
        if self.group_by:
            return self._merge_grouped(parts, ctx)
        return self._merge_whole(parts, ctx)

    # -- per-partition work (runs on the parallel substrate) ---------------

    def _partition(self, part, pctx, scanned):
        batches = self.child.run_partition(part, pctx)
        arg_fns, key_fns = self._partial_fns
        if not self.group_by:
            n = _count(batches)
            pctx.record(self, n)
            return tuple(_agg_state(call, arg_fns[id(call)], batches, n,
                                    pctx)
                         for call in self._agg_calls)
        executor, params, stats = pctx.executor, pctx.params, pctx.stats
        whole, groups = _groups(key_fns, batches, pctx)
        out = []
        for key, positions in groups:
            group = [whole.select(positions)]
            states = tuple(_agg_state(call, arg_fns[id(call)], group,
                                      len(positions), pctx)
                           for call in self._agg_calls)
            first_env = _first_env(whole, positions)
            leaves = tuple(executor._eval(leaf, first_env, params, stats)
                           for leaf in self._leaves)
            out.append((key, states, leaves))
        pctx.record(self, len(out))
        return out

    # -- merge (serial, partition-index order) -----------------------------

    def _merge_whole(self, parts, ctx: _Ctx):
        combined: Dict[int, Any] = {}
        for i, call in enumerate(self._agg_calls):
            value = parts[0][i]
            for states in parts[1:]:
                value = _combine_states(call, value, states[i])
            combined[id(call)] = _finish_state(call, value)

        fields = _output_columns(self.items, ctx.executor)
        values = [self._merge_eval(item.expr, combined, {}, ctx.params)
                  for item in self.items]
        rows = [make_record(fields, values)]
        self.rows_out = len(rows)
        return rows, fields

    def _merge_grouped(self, parts, ctx: _Ctx):
        merged: Dict[Tuple, List[Any]] = {}
        first_leaves: Dict[Tuple, Tuple] = {}
        order: List[Tuple] = []
        for part in parts:
            for key, states, leaves in part:
                seen = merged.get(key)
                if seen is None:
                    merged[key] = list(states)
                    first_leaves[key] = leaves
                    order.append(key)
                else:
                    for i, call in enumerate(self._agg_calls):
                        seen[i] = _combine_states(call, seen[i],
                                                  states[i])
        self.groups_in = len(order)

        fields = _output_columns(self.items, ctx.executor)
        rows: List[Record] = []
        for key in order:
            agg_values = {id(call): _finish_state(call, merged[key][i])
                          for i, call in enumerate(self._agg_calls)}
            leaf_values = {id(leaf): first_leaves[key][i]
                           for i, leaf in enumerate(self._leaves)}
            if self.having is not None and not _truthy(
                    self._merge_eval(self.having, agg_values,
                                     leaf_values, ctx.params)):
                continue
            values = [self._merge_eval(item.expr, agg_values,
                                       leaf_values, ctx.params)
                      for item in self.items]
            rows.append(make_record(fields, values))
        self.rows_out = len(rows)
        return rows, fields

    def _merge_eval(self, expr: S.Expr, agg_values, leaf_values,
                    params) -> Any:
        key = id(expr)
        if key in agg_values:
            return agg_values[key]
        if key in leaf_values:
            return leaf_values[key]
        if isinstance(expr, S.BinOp):
            return _apply_op(
                expr.op,
                self._merge_eval(expr.left, agg_values, leaf_values,
                                 params),
                self._merge_eval(expr.right, agg_values, leaf_values,
                                 params))
        if isinstance(expr, S.Literal):
            return expr.value
        if isinstance(expr, S.Param):
            return _param(params, expr.name)
        raise SQLExecutionError("unsupported aggregate expression %r"
                                % (expr,))


def _collect_partial_nodes(expr: S.Expr, agg_calls: List[S.FuncCall],
                           leaves: List[S.Expr]) -> None:
    """Split a combinable tree into aggregate calls and scalar leaves,
    mirroring ``_combinable_expr``'s traversal exactly."""
    if isinstance(expr, S.FuncCall):
        agg_calls.append(expr)
        return
    if isinstance(expr, S.BinOp):
        _collect_partial_nodes(expr.left, agg_calls, leaves)
        _collect_partial_nodes(expr.right, agg_calls, leaves)
        return
    if isinstance(expr, (S.Literal, S.Param)):
        return
    leaves.append(expr)


# -- lowering -----------------------------------------------------------------


def lower(plan: L.LogicalPlan,
          options: Optional[ExecutorOptions] = None) -> RowOp:
    """Lower an optimized logical plan to a physical operator tree.

    ``options`` supplies the batch size; every other choice was made
    by the optimizer.
    """
    return _lower_rows(plan, (options or ExecutorOptions()).batch_size)


def _with_est(op: PhysicalOp, plan: L.LogicalPlan) -> PhysicalOp:
    """Copy the optimizer's estimates onto the physical operator."""
    op.est_rows = plan.est_rows
    op.est_cost = plan.est_cost
    return op


def _lower_rows(plan: L.LogicalPlan, size: int) -> RowOp:
    if isinstance(plan, L.Limit):
        return _with_est(LimitOp(_lower_rows(plan.child, size), plan.count),
                         plan)
    if isinstance(plan, L.Distinct):
        return _with_est(DistinctOp(_lower_rows(plan.child, size)), plan)
    if isinstance(plan, L.Project):
        child = _lower_envs(plan.child, size)
        star = plan.items[0].expr if len(plan.items) == 1 else None
        if isinstance(child, TableScanOp) and not child.predicates \
                and isinstance(star, S.Star) \
                and star.alias in (None, child.alias):
            # A lone star over one unfiltered base-table scan: the scan
            # answers the query itself (TableScanOp.rows).
            return child
        return _with_est(VecProjectOp(child, plan.items), plan)
    if isinstance(plan, L.Aggregate):
        child = plan.child
        if isinstance(child, L.Gather) and combinable_aggregate(
                plan.items, plan.group_by, plan.having):
            return _with_est(PartialAggregateOp(
                _lower_envs(child.child, size, child.partitions),
                child.partitions, plan.items, plan.group_by,
                plan.having), plan)
        return _with_est(VecAggregateOp(_lower_envs(child, size),
                                        plan.items, plan.group_by,
                                        plan.having), plan)
    if isinstance(plan, L.Sort):
        child = plan.child
        if isinstance(child, L.Aggregate):
            return _with_est(RowSortOp(_lower_rows(child, size),
                                       plan.order_by), plan)
        raise TypeError("Sort over %r cannot be lowered here" % (child,))
    raise TypeError("expected a row-producing logical node, got %r"
                    % (plan,))


def _lower_envs(plan: L.LogicalPlan, size: int,
                partitions: Optional[int] = None) -> VecOp:
    """Lower a row-stream segment; ``partitions`` is set below a
    Gather, where the scan/filter/join chain runs per partition."""
    if isinstance(plan, L.Sort):
        child = plan.child
        if plan.merge and isinstance(child, L.Gather):
            return _with_est(GatherMergeOp(
                _lower_envs(child.child, size, child.partitions),
                child.partitions, plan.order_by, plan.top_k, size), plan)
        return _with_est(VecSortOp(_lower_envs(child, size), plan.order_by,
                                   plan.top_k, size), plan)
    if isinstance(plan, L.Restore):
        return _with_est(VecRestoreOp(_lower_envs(plan.child, size),
                                      plan.aliases, size), plan)
    if isinstance(plan, L.Gather):
        return _with_est(GatherOp(_lower_envs(plan.child, size,
                                              plan.partitions),
                                  plan.partitions), plan)
    if isinstance(plan, L.Filter):
        op = VecFilterOp(_lower_envs(plan.child, size, partitions),
                         plan.predicates)
    elif isinstance(plan, L.Join):
        left = _lower_envs(plan.left, size, partitions)
        right = _lower_scan(plan.right, size)
        if plan.strategy == "hash":
            op = VecHashJoinOp(left, right, plan.predicate)
        else:
            op = VecNestedLoopOp(left, right)
    elif isinstance(plan, L.Scan):
        op = _lower_scan(plan, size)
    else:
        raise TypeError("expected a row-stream logical node, got %r"
                        % (plan,))
    op.partitions = partitions
    return _with_est(op, plan)


def _lower_scan(scan: L.Scan, size: int) -> ScanOp:
    if scan.subquery is not None:
        return _with_est(SubqueryScanOp(scan.subquery, scan.alias,
                                        scan.predicates, size), scan)
    if scan.index is not None:
        column, value_expr, index_pred = scan.index
        # The probe consumes the chosen predicate; the rest filter.
        predicates = tuple(p for p in scan.predicates
                           if p is not index_pred)
        return _with_est(IndexScanOp(scan.table, scan.alias, column,
                                     value_expr, predicates, size), scan)
    return _with_est(FullScanOp(scan.table, scan.alias,
                                scan.predicates, size), scan)


# -- plan driver ---------------------------------------------------------------


class PhysicalPlan:
    """An executable physical plan (root operator + execution entry).

    The root is any row producer: a projection, an aggregate, LIMIT or
    DISTINCT above one, or a table scan answering a lone ``*``."""

    def __init__(self, root: RowOp):
        self.root = root

    def execute(self, executor, params: Dict[str, Any],
                stats) -> QueryResult:
        deadline = None
        seconds = executor.options.deadline_seconds
        if seconds is not None:
            from repro.service.faults import Deadline

            deadline = Deadline.after(seconds)
        rows, columns = self.root.rows(_Ctx(executor, params, stats,
                                            deadline))
        return QueryResult(rows, columns, stats)
