"""Physical operators: the executable form of an optimized plan.

Lowering (:func:`lower`) maps each logical node onto an operator object:

* ``Scan``      -> :class:`FullScanOp` / :class:`IndexScanOp` /
                   :class:`SubqueryScanOp`
* ``Join``      -> :class:`HashJoinOp` / :class:`NestedLoopJoinOp`
* ``Filter``    -> :class:`FilterOp`
* ``Sort``      -> :class:`SortOp` (heap top-k selection when the
                   optimizer attached a LIMIT bound)
* ``Aggregate`` -> :class:`AggregateOp` (GROUP BY grouping in
                   first-encounter order, HAVING, aggregate projection),
                   or :class:`PartialAggregateOp` under a partitioned
                   child when every aggregate is combinable
* ``Project`` / ``Distinct`` / ``Limit`` -> the matching row operators
* ``Gather``    -> :class:`GatherOp` over a chain of partitioned
                   operators (:class:`PartitionedScanOp`,
                   :class:`PartitionedHashJoinOp`, ...)

Operators delegate scalar/aggregate expression evaluation to the owning
:class:`~repro.sql.executor.Executor`, so both executor modes share one
expression semantics.  Each operator records its output cardinality in
``rows_out`` (per-operator execution statistics), which the EXPLAIN
printer surfaces in ``analyze`` mode; engine-wide counters still go to
the familiar :class:`~repro.sql.executor.ExecutionStats`.  Partitioned
operators additionally record per-partition output counts in
``partition_rows`` (EXPLAIN's ``parts=`` annotation).

The partition-parallel invariant: a partitioned chain splits the
leftmost scan into contiguous range partitions, shares every join's
build table, probes per partition, and merges in partition-index order
— which is exactly the serial row order, so ``parallel=K`` is
row/column/stats-identical to the serial plan for every K.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sql import ast as S
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import (
    Env,
    ExecutionStats,
    QueryResult,
    _apply_op,
    _avg_final,
    _avg_state,
    _combine_avg,
    _default_name,
    _hash_build,
    _hash_probe,
    _param,
    _ScannedSource,
    _truthy,
    merge_stats,
)
from repro.sql.plan import logical as L
from repro.sql.plan.parallel import run_tasks
from repro.sql.plan.vector import (
    Batch,
    compile_filter,
    compile_scalar,
    vectorizable,
)
from repro.service.faults import classify_exception
from repro.tor.values import Record

#: degradation events by rung transition and classified failure kind —
#: the metrics face of the ``degraded=`` / ``degrade_kind=`` EXPLAIN
#: annotations.
_DEGRADATIONS = obs_metrics.counter(
    "repro_degradations_total",
    "substrate degradation events by rung transition and failure kind")


@dataclass
class _Ctx:
    """Per-execution state threaded through the operator tree."""

    executor: Any                       # repro.sql.executor.Executor
    params: Dict[str, Any]
    stats: Any                          # ExecutionStats (engine-wide)
    scanned: List[_ScannedSource] = None
    #: optional repro.service.faults.Deadline bounding the whole query;
    #: partitioned drivers abandon unfinished partitions at expiry.
    deadline: Any = None
    #: the one partition a pool job prepares for (None prepares all).
    part: Optional[int] = None

    def __post_init__(self):
        if self.scanned is None:
            self.scanned = []


#: operator entry points that open a trace span when a trace is active.
_TRACED_METHODS = ("scanned", "envs", "rows", "run_partition", "batches")


def _traced(method):
    """Wrap an operator entry point with an optional trace span.

    With tracing off (the default) the wrapper is one contextvar read
    and a direct call — the operator body is untouched, so results,
    statistics and EXPLAIN output are exactly the seed's.  With a
    trace active it opens a child span named after the operator,
    tagged with the serial-equivalent description (``trace_name``) and
    the observed row count.  ``run_partition`` timings stay in the
    span only (partition tasks may run on pool threads or in pool
    worker processes, where mutating the shared operator would race or be
    lost); driver-side methods also accumulate ``elapsed_seconds`` on
    the operator for EXPLAIN's ``time=`` column.
    """
    is_partition = method.__name__ == "run_partition"

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        parent = obs_trace.current_span()
        if parent is None:
            return method(self, *args, **kwargs)
        # The op tag rides on the span from creation (trace_name is
        # constructor state) so the sampling profiler can attribute
        # samples to the serial-equivalent operator label live, while
        # the operator is still running.
        node = parent.child(type(self).name, op=self.trace_name())
        with node:
            out = method(self, *args, **kwargs)
        if is_partition:
            if isinstance(out, list):
                node.tag(rows=len(out))
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
        #: number of column batches this operator emitted (vectorized
        #: operators only; None elsewhere).  EXPLAIN ANALYZE renders it
        #: as ``batches=``.
        self.batches_out: Optional[int] = None
        #: per-partition output counts, filled by the parallel driver
        #: (None on serial operators).
        self.partition_rows: Optional[List[Optional[int]]] = None
        #: the cost-based optimizer's estimates, copied from the
        #: logical node at lowering time (None in greedy mode); the
        #: EXPLAIN printer renders them as ``est_rows=`` / ``cost=``.
        self.est_rows: Optional[float] = None
        self.est_cost: Optional[float] = None
        #: substrate degradation path taken while executing this
        #: operator (e.g. ``"pool->threads"``); None when the
        #: requested backend worked.  EXPLAIN ANALYZE renders it as
        #: ``degraded=``.
        self.degraded: Optional[str] = None
        #: classified failure kind for each degradation step (same
        #: length as the arrows in ``degraded``), rendered by EXPLAIN
        #: ANALYZE as ``degrade_kind=``.
        self.degraded_kinds: Optional[List[str]] = None
        #: wall-clock seconds spent in this operator, accumulated by
        #: the span wrapper when tracing is active; None otherwise.
        #: EXPLAIN renders it as ``time=`` when asked (``timing=True``).
        self.elapsed_seconds: Optional[float] = None
        #: the parallel substrate this operator's fan-out was
        #: *dispatched to* when it differs from the default (currently
        #: only ``"pool"``); EXPLAIN ANALYZE renders it as ``backend=``.
        #: ``degraded`` records any rungs actually fallen afterwards.
        self.backend: Optional[str] = None

    #: prepared/runtime state that never crosses the pool's process
    #: boundary: either rebuilt by the worker's own ``prepare`` (row
    #: slices, hash buckets, scan aliases) or compiled closures that
    #: cannot pickle at all.  Dropping them keeps partition jobs small
    #: — a shipped plan fragment carries structure, never data.  The
    #: driver drops them too once a fan-out ends, so a plan kept for
    #: reuse pins no rows.
    _UNPICKLED_STATE = ("_slices", "_vec_filter", "_vec_size", "_alias",
                        "_buckets", "_probe_expr", "_build_alias",
                        "_rows", "_vec")

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

        Partition-parallel operators override this with their serial
        operator's description, so a stitched parallel trace carries
        the same operator set as the serial trace (the partitioning is
        visible in the span *names* and the ``partition`` nodes, not
        in the operator identity).
        """
        return self.describe()


# -- scans -------------------------------------------------------------------


class ScanOp(PhysicalOp):
    """Base scan: produces a filtered :class:`_ScannedSource`."""

    def __init__(self, alias: str, predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.alias = alias
        self.predicates = predicates

    def scanned(self, ctx: _Ctx) -> _ScannedSource:
        source = self._rows(ctx)
        if self.predicates:
            executor = ctx.executor
            filtered = []
            for rowid, record in source.rows:
                env = {self.alias: (rowid, record)}
                if all(_truthy(executor._eval(p, env, ctx.params, ctx.stats))
                       for p in self.predicates):
                    filtered.append((rowid, record))
            source = _ScannedSource(alias=source.alias,
                                    columns=source.columns,
                                    rows=filtered, table=source.table)
        self.rows_out = len(source.rows)
        ctx.scanned.append(source)
        return source

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        raise NotImplementedError


class FullScanOp(ScanOp):
    name = "FullScan"

    def __init__(self, table: str, alias: str,
                 predicates: Tuple[S.Expr, ...]):
        super().__init__(alias, predicates)
        self.table = table

    def describe(self) -> str:
        body = "%s(%s AS %s)" % (self.name, self.table, self.alias)
        if self.predicates:
            body += " filter=%d" % len(self.predicates)
        return body

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        table = ctx.executor.catalog.table(self.table)
        candidate = list(enumerate(table.rows))
        ctx.stats.rows_scanned += len(candidate)
        ctx.stats.full_scans += 1
        table.rows_scanned += len(candidate)
        return _ScannedSource(alias=self.alias, columns=table.columns,
                              rows=candidate, table=table)


class IndexScanOp(ScanOp):
    name = "IndexScan"

    def __init__(self, table: str, alias: str, column: str,
                 value_expr: S.Expr, predicates: Tuple[S.Expr, ...]):
        super().__init__(alias, predicates)
        self.table = table
        self.column = column
        self.value_expr = value_expr

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        body = "%s(%s AS %s, %s = %s)" % (
            self.name, self.table, self.alias, self.column,
            expr_sql(self.value_expr))
        if self.predicates:
            body += " filter=%d" % len(self.predicates)
        return body

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        table = ctx.executor.catalog.table(self.table)
        if isinstance(self.value_expr, S.Literal):
            value = self.value_expr.value
        else:
            value = _param(ctx.params, self.value_expr.name)
        index = table.indexes[self.column]
        positions = index.lookup(value)
        ctx.stats.index_probes += 1
        ctx.stats.index_scans += 1
        candidate = [(pos, table.rows[pos]) for pos in positions]
        ctx.stats.rows_scanned += len(candidate)
        return _ScannedSource(alias=self.alias, columns=table.columns,
                              rows=candidate, table=table)


class SubqueryScanOp(ScanOp):
    name = "SubqueryScan"

    def __init__(self, query: S.Select, alias: str,
                 predicates: Tuple[S.Expr, ...]):
        super().__init__(alias, predicates)
        self.query = query

    def describe(self) -> str:
        body = "%s(AS %s)" % (self.name, self.alias)
        if self.predicates:
            body += " filter=%d" % len(self.predicates)
        return body

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        sub = ctx.executor.execute(self.query, ctx.params, ctx.stats)
        candidate = [(idx, row) for idx, row in enumerate(sub.rows)]
        ctx.stats.rows_scanned += len(candidate)
        ctx.stats.full_scans += 1
        return _ScannedSource(alias=self.alias, columns=sub.columns,
                              rows=candidate, table=None)


# -- env producers (joins) ----------------------------------------------------


class EnvOp(PhysicalOp):
    """Base class for operators producing joined-row environments."""

    def envs(self, ctx: _Ctx) -> List[Env]:
        raise NotImplementedError


class ScanEnvsOp(EnvOp):
    """Adapts the leftmost scan into single-alias environments.

    Transparent in EXPLAIN output: it renders as the scan itself.
    """

    name = "Rows"

    def __init__(self, scan: ScanOp):
        super().__init__()
        self.scan = scan

    def describe(self) -> str:
        return self.scan.describe()

    def envs(self, ctx: _Ctx) -> List[Env]:
        source = self.scan.scanned(ctx)
        out = [{source.alias: row} for row in source.rows]
        self.rows_out = len(out)
        return out


class HashJoinOp(EnvOp):
    """Build a hash table on the new source, probe with the prefix."""

    name = "HashJoin"

    def __init__(self, left: EnvOp, right: ScanOp, predicate: S.BinOp):
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self):
        return (self.left, self.right)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, expr_sql(self.predicate))

    def envs(self, ctx: _Ctx) -> List[Env]:
        prefix = self.left.envs(ctx)
        source = self.right.scanned(ctx)
        out = ctx.executor._hash_join(prefix, source, self.predicate,
                                      ctx.params, ctx.stats)
        self.rows_out = len(out)
        return out


class NestedLoopJoinOp(EnvOp):
    """Cross product with the new source (no connecting predicate)."""

    name = "NestedLoop"

    def __init__(self, left: EnvOp, right: ScanOp):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def envs(self, ctx: _Ctx) -> List[Env]:
        prefix = self.left.envs(ctx)
        source = self.right.scanned(ctx)
        ctx.stats.nested_loop_joins += 1
        out = [dict(env, **{source.alias: row})
               for env in prefix for row in source.rows]
        self.rows_out = len(out)
        return out


class FilterOp(EnvOp):
    """Residual predicates over joined environments."""

    name = "Filter"

    def __init__(self, child: EnvOp, predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.child = child
        self.predicates = predicates

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, " AND ".join(
            expr_sql(p) for p in self.predicates))

    def envs(self, ctx: _Ctx) -> List[Env]:
        executor = ctx.executor
        out = self.child.envs(ctx)
        for pred in self.predicates:
            out = [env for env in out
                   if _truthy(executor._eval(pred, env, ctx.params,
                                             ctx.stats))]
        self.rows_out = len(out)
        return out


class RestoreOp(EnvOp):
    """Re-sort environments into the pinned FROM-order enumeration.

    The cost-based optimizer may run the join chain in a cheaper
    order; the environment *set* is unchanged but its enumeration is
    leftmost-major in the chosen order.  Sorting by the rowid tuple
    taken in FROM order reproduces the seed pipeline's storage-order
    enumeration exactly (each env's rowid tuple is unique, so the sort
    is a pure permutation).  The scanned-source registry is reordered
    the same way, so ``*`` expansion and bare-column resolution above
    also see FROM order.
    """

    name = "Restore"

    def __init__(self, child: EnvOp, aliases: Tuple[str, ...]):
        super().__init__()
        self.child = child
        self.aliases = aliases

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(self.aliases))

    def envs(self, ctx: _Ctx) -> List[Env]:
        out = self.child.envs(ctx)
        aliases = self.aliases
        out.sort(key=lambda env: tuple(env[a][0] for a in aliases))
        position = {alias: i for i, alias in enumerate(aliases)}
        ctx.scanned.sort(
            key=lambda src: position.get(src.alias, len(position)))
        self.rows_out = len(out)
        return out


class SortOp(EnvOp):
    """ORDER BY over environments; heap top-k when a bound is known."""

    name = "Sort"

    def __init__(self, child: EnvOp, order_by: Tuple[S.OrderItem, ...],
                 top_k: Optional[int] = None):
        super().__init__()
        self.child = child
        self.order_by = order_by
        self.top_k = top_k

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(
            ("%s.%s" % (o.column.alias, o.column.column)
             if o.column.alias else o.column.column)
            + (" DESC" if o.descending else "")
            for o in self.order_by)
        if self.top_k is not None:
            return "TopK(%d, %s)" % (self.top_k, keys)
        return "%s(%s)" % (self.name, keys)

    def envs(self, ctx: _Ctx) -> List[Env]:
        executor = ctx.executor
        incoming = self.child.envs(ctx)
        if self.top_k is not None:
            out = executor._top_k(self.order_by, incoming, ctx.scanned,
                                  self.top_k)
        else:
            out = executor._order(self.order_by, incoming, ctx.scanned)
        self.rows_out = len(out)
        return out


# -- row producers -------------------------------------------------------------


class RowOp(PhysicalOp):
    """Base class for operators producing projected output rows."""

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        raise NotImplementedError


class ProjectOp(RowOp):
    name = "Project"

    def __init__(self, child: EnvOp, items: Tuple[S.SelectItem, ...]):
        super().__init__()
        self.child = child
        self.items = items

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import _item

        return "%s(%s)" % (self.name,
                           ", ".join(_item(i) for i in self.items))

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        envs = self.child.envs(ctx)
        stored = self._stored_rows(envs, ctx.scanned)
        if stored is not None:
            rows, columns = stored
        else:
            rows, columns = ctx.executor._project(self.items, envs,
                                                  ctx.scanned, ctx.params,
                                                  ctx.stats)
        self.rows_out = len(rows)
        return rows, columns

    def _stored_rows(self, envs: List[Env], scanned: List[_ScannedSource]):
        """``SELECT *`` / ``SELECT alias.*`` over one source whose records
        already carry exactly the output columns: those records
        themselves, instead of an equal rebuilt :class:`Record` per row
        (records are immutable, so sharing them is safe).  None when
        the select list is anything else; ``_project`` then builds the
        rows, as the seed pipeline always does."""
        if len(self.items) != 1 or not isinstance(self.items[0].expr,
                                                  S.Star):
            return None
        alias = self.items[0].expr.alias
        sources = [s for s in scanned if alias in (None, s.alias)]
        if len(sources) != 1:
            return None
        source = sources[0]
        columns = source.columns
        if len(set(columns)) != len(columns):
            return None                  # _project renames duplicates
        rows = [env[source.alias][1] for env in envs]
        for row in rows:
            if row.fields != columns:
                return None              # a row written behind the API
        return rows, columns


class AggregateOp(RowOp):
    """Aggregate / GROUP BY / HAVING evaluation.

    Without group keys this is the executor's whole-input aggregation
    (one output row).  With keys, environments are bucketed by their
    evaluated key tuple; groups are emitted in **first-encounter
    order**, the engine's deterministic analogue of the ordered-relation
    semantics (the join chain enumerates environments left-major, so
    groups keyed on the leftmost source come out in its storage order).
    Non-aggregate select items are evaluated against the group's first
    environment (group keys are constant within a group).
    """

    name = "Aggregate"

    def __init__(self, child: EnvOp, items: Tuple[S.SelectItem, ...],
                 group_by: Tuple[S.Expr, ...],
                 having: Optional[S.Expr]):
        super().__init__()
        self.child = child
        self.items = items
        self.group_by = group_by
        self.having = having
        self.groups_in = None

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        if not self.group_by:
            return "Aggregate(whole input)"
        body = "GroupBy(%s)" % ", ".join(expr_sql(e)
                                         for e in self.group_by)
        if self.having is not None:
            body += " having %s" % expr_sql(self.having)
        return body

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        envs = self.child.envs(ctx)
        if not self.group_by:
            result = ctx.executor._aggregate_result(
                S.Select(items=self.items, sources=()), envs, ctx.params,
                ctx.stats)
            self.rows_out = len(result.rows)
            return result.rows, result.columns

        executor = ctx.executor
        buckets: Dict[Tuple, List[Env]] = {}
        order: List[Tuple] = []
        for env in envs:
            key = tuple(executor._eval(e, env, ctx.params, ctx.stats)
                        for e in self.group_by)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
                order.append(key)
            bucket.append(env)
        self.groups_in = len(order)

        columns: List[str] = []
        for item in self.items:
            if isinstance(item.expr, S.Star):
                raise SQLExecutionError(
                    "* cannot appear in a grouped select list")
            name = item.as_name or _default_name(item.expr)
            columns.append(executor._fresh_name(name, columns))

        rows: List[Record] = []
        for key in order:
            group = buckets[key]
            if self.having is not None and not _truthy(
                    self._group_value(self.having, group, ctx)):
                continue
            values = [self._group_value(item.expr, group, ctx)
                      for item in self.items]
            rows.append(Record(dict(zip(columns, values))))
        self.rows_out = len(rows)
        return rows, tuple(columns)

    def _group_value(self, expr: S.Expr, group: List[Env], ctx: _Ctx) -> Any:
        """Evaluate a select/HAVING expression over one group.

        Aggregate calls see the whole group; non-aggregate subtrees are
        evaluated on the group's first environment.
        """
        executor = ctx.executor
        if isinstance(expr, S.FuncCall):
            return executor._eval_aggregate(expr, group, ctx.params,
                                            ctx.stats)
        if isinstance(expr, S.BinOp):
            if expr.op == "AND":
                return (_truthy(self._group_value(expr.left, group, ctx))
                        and _truthy(self._group_value(expr.right, group,
                                                      ctx)))
            if expr.op == "OR":
                return (_truthy(self._group_value(expr.left, group, ctx))
                        or _truthy(self._group_value(expr.right, group,
                                                     ctx)))
            return _apply_op(expr.op,
                             self._group_value(expr.left, group, ctx),
                             self._group_value(expr.right, group, ctx))
        if isinstance(expr, S.NotOp):
            return not _truthy(self._group_value(expr.expr, group, ctx))
        return executor._eval(expr, group[0], ctx.params, ctx.stats)


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
        from repro.sql.executor import _ReverseAware

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
    what lets the pool backend report honest per-partition statistics.
    """

    __slots__ = ("executor", "params", "stats", "recorded")

    def __init__(self, executor, params):
        self.executor = executor
        self.params = params
        self.stats = ExecutionStats()
        self.recorded: Dict[int, int] = {}

    def record(self, op: "PartitionedOp", count: int) -> None:
        self.recorded[op._ordinal] = count


class PartitionedOp(PhysicalOp):
    """Base for operators that run once per partition.

    ``prepare`` does the serial, shared work exactly once (scanning,
    stats counting, hash-table builds) and returns the partition count;
    ``run_partition`` produces one partition's environments using only
    partition-local state.  The driver guarantees partitions merge in
    partition-index order, so concatenated output equals the serial
    operator's output row for row.
    """

    def __init__(self):
        super().__init__()
        self._ordinal = 0

    def prepare(self, ctx: _Ctx) -> int:
        raise NotImplementedError

    def run_partition(self, part: int, pctx: _PartCtx) -> List[Env]:
        raise NotImplementedError


class PartitionedScanOp(PartitionedOp):
    """A scan split into contiguous range partitions.

    The underlying rows are produced (and counted in the engine stats)
    exactly once, then divided into ``partitions`` contiguous slices of
    near-equal size; pushed-down predicates are evaluated per
    partition.  Range partitioning preserves storage order within and
    across partitions — the foundation of the merge-order invariant.
    """

    name = "PartitionedScan"

    def __init__(self, scan: ScanOp, partitions: int):
        super().__init__()
        self.scan = scan
        self.partitions = partitions

    def describe(self) -> str:
        return "%s(%s, partitions=%d)" % (self.name, self.scan.describe(),
                                          self.partitions)

    def trace_name(self) -> str:
        return self.scan.describe()

    def prepare(self, ctx: _Ctx) -> int:
        scan = self.scan
        if ctx.part is not None and isinstance(scan, FullScanOp):
            # A pool job runs one partition: read only its row range
            # instead of copying the whole table (its driver already
            # counted the scan statistics).
            table = ctx.executor.catalog.table(scan.table)
            start, stop = _range_bounds(len(table.rows),
                                        self.partitions)[ctx.part]
            source = _ScannedSource(
                alias=scan.alias, columns=table.columns,
                rows=list(zip(range(start, stop), table.rows[start:stop])),
                table=table)
            self._slices = {ctx.part: source.rows}
        else:
            source = scan._rows(ctx)   # scan-level stats count once here
            self._slices = [source.rows[start:stop] for start, stop in
                            _range_bounds(len(source.rows),
                                          self.partitions)]
        self._alias = source.alias
        # Under ExecutorOptions(vectorized=True) the per-partition
        # predicate filter runs batch-at-a-time when the compiler
        # covers the predicates.  Pushed-down predicates are pure
        # comparisons, so the compiled filter keeps the exact rows and
        # touches no statistics — partition output is unchanged.
        self._vec_filter = None
        options = ctx.executor.options
        if (getattr(options, "vectorized", False) and self.scan.predicates
                and all(vectorizable(p) for p in self.scan.predicates)):
            self._vec_filter = compile_filter(self.scan.predicates)
            self._vec_size = options.batch_size
        # Register the source for downstream column resolution (ORDER
        # BY / projection); consumers only read alias and columns, so
        # the filtered row payload stays partition-private.
        ctx.scanned.append(_ScannedSource(alias=source.alias,
                                          columns=source.columns,
                                          rows=[], table=source.table))
        return self.partitions

    def run_partition(self, part: int, pctx: _PartCtx) -> List[Env]:
        rows = self._slices[part]
        if self._vec_filter is not None:
            size = self._vec_size
            filtered = []
            for start in range(0, len(rows), size):
                batch = Batch.from_pairs(self._alias,
                                         rows[start:start + size])
                batch = self._vec_filter(batch, pctx.params)
                if batch.n:
                    filtered.extend(batch.pairs[self._alias])
            rows = filtered
        elif self.scan.predicates:
            executor = pctx.executor
            filtered = []
            for rowid, record in rows:
                env = {self._alias: (rowid, record)}
                if all(_truthy(executor._eval(p, env, pctx.params,
                                              pctx.stats))
                       for p in self.scan.predicates):
                    filtered.append((rowid, record))
            rows = filtered
        pctx.record(self, len(rows))
        return [{self._alias: row} for row in rows]


class PartitionedHashJoinOp(PartitionedOp):
    """Hash join with a shared build table and per-partition probes.

    The build side (the new source) is scanned, filtered and bucketed
    once in ``prepare``; each partition probes with its own slice of
    the prefix.  Probe output is probe-major, so contiguous probe
    partitions concatenate into exactly the serial join result.
    """

    name = "PartitionedHashJoin"

    def __init__(self, left: PartitionedOp, right: ScanOp,
                 predicate: S.BinOp):
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self):
        return (self.left, self.right)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, expr_sql(self.predicate))

    def trace_name(self) -> str:
        from repro.sql.pretty import expr_sql

        return "HashJoin(%s)" % expr_sql(self.predicate)

    def prepare(self, ctx: _Ctx) -> int:
        partitions = self.left.prepare(ctx)
        source = self.right.scanned(ctx)
        ctx.stats.hash_joins += 1
        self._buckets, self._probe_expr = _hash_build(source,
                                                      self.predicate)
        self._build_alias = source.alias
        return partitions

    def run_partition(self, part: int, pctx: _PartCtx) -> List[Env]:
        envs = self.left.run_partition(part, pctx)
        out = _hash_probe(pctx.executor, envs, self._buckets,
                          self._probe_expr, self._build_alias,
                          pctx.params, pctx.stats)
        pctx.record(self, len(out))
        return out


class PartitionedNestedLoopOp(PartitionedOp):
    """Cross product of each prefix partition with the shared source."""

    name = "PartitionedNestedLoop"

    def __init__(self, left: PartitionedOp, right: ScanOp):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def trace_name(self) -> str:
        return "NestedLoop"

    def prepare(self, ctx: _Ctx) -> int:
        partitions = self.left.prepare(ctx)
        source = self.right.scanned(ctx)
        ctx.stats.nested_loop_joins += 1
        self._rows = source.rows
        self._alias = source.alias
        return partitions

    def run_partition(self, part: int, pctx: _PartCtx) -> List[Env]:
        envs = self.left.run_partition(part, pctx)
        out = [dict(env, **{self._alias: row})
               for env in envs for row in self._rows]
        pctx.record(self, len(out))
        return out


class PartitionedFilterOp(PartitionedOp):
    """Residual predicates evaluated inside each partition."""

    name = "PartitionedFilter"

    def __init__(self, child: PartitionedOp,
                 predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.child = child
        self.predicates = predicates

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, " AND ".join(
            expr_sql(p) for p in self.predicates))

    def trace_name(self) -> str:
        from repro.sql.pretty import expr_sql

        return "Filter(%s)" % " AND ".join(
            expr_sql(p) for p in self.predicates)

    def prepare(self, ctx: _Ctx) -> int:
        return self.child.prepare(ctx)

    def run_partition(self, part: int, pctx: _PartCtx) -> List[Env]:
        executor = pctx.executor
        out = self.child.run_partition(part, pctx)
        for pred in self.predicates:
            out = [env for env in out
                   if _truthy(executor._eval(pred, env, pctx.params,
                                             pctx.stats))]
        pctx.record(self, len(out))
        return out


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


def _chain_ops(op: PartitionedOp) -> List[PartitionedOp]:
    """The partitioned operators of a chain, leaf-last."""
    out = [op]
    for child in op.children:
        if isinstance(child, PartitionedOp):
            out.extend(_chain_ops(child))
    return out


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
    """One partition of a partitioned chain, in shippable form.

    Carries the unprepared operator chain (runtime state is stripped by
    :meth:`PhysicalOp.__getstate__`), the gather mode, the executor
    options and a ``digest_map`` naming, by content digest, every
    catalog table the chain and its subqueries read — the pool ships
    table content separately and caches it per worker, so a warm pool
    receives only this job.  The worker rebuilds a catalog from its
    cache, re-prepares the chain for its own partition against the
    exact same content (identical slices, buckets and statistics by
    construction) and returns the standard partition payload
    ``(result, stats, recorded, span_dict)`` — the same 4-tuple the
    threads backend produces, so the driver merge is shared.
    """

    __slots__ = ("mode", "root", "part", "params", "options", "traced",
                 "order_by", "top_k", "digest_map", "est")

    def __init__(self, mode: str, root: PhysicalOp, part: int, params,
                 options, traced: bool, order_by, top_k,
                 digest_map: Dict[str, str], est: int):
        self.mode = mode                  # "gather" | "merge" | "partial"
        self.root = root
        self.part = part
        self.params = params
        self.options = options
        self.traced = traced
        self.order_by = order_by
        self.top_k = top_k
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
            # straight to threads.
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
        options = dataclasses.replace(self.options, parallel=1,
                                      parallel_backend="threads")
        executor = Executor(catalog, options)
        ctx = _Ctx(executor=executor, params=self.params,
                   stats=ExecutionStats(), part=self.part)
        root = self.root
        chain = root.child if self.mode == "partial" else root
        # Worker-side prepare recounts the shared scan/build statistics
        # into a throwaway ExecutionStats — the driver already prepared
        # (and counted) once; only the per-partition pctx.stats ship
        # home, exactly as on the threads backend.
        chain.prepare(ctx)
        if self.mode == "partial":
            root._setup_vec(ctx)
        pctx = _PartCtx(executor, self.params)
        if self.traced:
            pspan = obs_trace.Span("partition", part=self.part)
            pspan.detached = True
            with pspan:
                payload = self._execute(chain, root, ctx, pctx, executor)
            pspan.tag(backend="pool")
            return payload, pctx.stats, pctx.recorded, pspan.to_dict()
        return (self._execute(chain, root, ctx, pctx, executor),
                pctx.stats, pctx.recorded, None)

    def _execute(self, chain: PartitionedOp, root: PhysicalOp, ctx: _Ctx,
                 pctx: _PartCtx, executor):
        if self.mode == "partial":
            worker = root._grouped_partition if root.group_by \
                else root._whole_partition
            return worker(chain.run_partition(self.part, pctx), pctx)
        envs = chain.run_partition(self.part, pctx)
        if self.mode == "merge":
            if self.top_k is not None:
                return executor._top_k(self.order_by, envs, ctx.scanned,
                                       self.top_k)
            return executor._order(self.order_by, envs, ctx.scanned)
        return envs                       # "gather"


def _tables_read(node: Any, names: set) -> None:
    """Collect the catalog tables a plan fragment can read: every scan
    target and every FROM table of any subquery inside it (walked
    through operator state, expressions and nested selects)."""
    if isinstance(node, (FullScanOp, IndexScanOp, S.TableSource)):
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


def _attach_pool_jobs(tasks: List[Any], chain: PartitionedOp, ctx: _Ctx,
                      pool_spec: Dict[str, Any],
                      driver_op: Optional[PhysicalOp],
                      traced: bool) -> None:
    """Give every partition task its picklable pool payload.

    The pool rung of :func:`~repro.sql.plan.parallel.run_tasks` reads
    ``task.pool_job`` / ``task.pool_tables``; the task closures stay
    callable unchanged, which is what the degradation ladder runs when
    the pool rung fails.  Jobs name only the tables they read, so a
    cold worker is never sent the rest of the catalog."""
    executor = ctx.executor
    catalog = executor.catalog
    mode = pool_spec["mode"]
    root = driver_op if mode == "partial" else chain
    names = set()
    _tables_read(root, names)
    digest_map = {name: catalog.tables[name].content_digest()
                  for name in sorted(names) if name in catalog.tables}
    pool_tables = {digest: catalog.tables[name]
                   for name, digest in digest_map.items()}
    ests = _split_estimates(getattr(chain, "est_rows", None), len(tasks))
    for part, task in enumerate(tasks):
        task.pool_job = _PoolPartitionJob(
            mode=mode, root=root, part=part, params=ctx.params,
            options=executor.options, traced=traced,
            order_by=pool_spec.get("order_by"),
            top_k=pool_spec.get("top_k"),
            digest_map=digest_map, est=ests[part])
        task.pool_tables = pool_tables


def _run_partitioned(chain: PartitionedOp, ctx: _Ctx, backend: str,
                     worker, driver_op: Optional[PhysicalOp] = None,
                     owner: Optional[PhysicalOp] = None,
                     pool_spec: Optional[Dict[str, Any]] = None) \
        -> List[Any]:
    """Drive a partitioned chain: prepare serially, fan partitions out.

    ``worker(part, pctx)`` runs per partition on the configured backend
    and its (picklable, for the pool backend) results come back in
    partition-index order.  Partition stats merge into the query stats
    in that same order, and each chain operator's ``partition_rows`` /
    ``rows_out`` are filled from the per-partition counters.
    ``driver_op`` (e.g. the partial-aggregation operator whose workers
    also record counts) joins the same ordinal space.

    Substrate faults never fail the query: :func:`run_tasks` degrades
    pool → threads → serial, and each task builds a fresh
    :class:`_PartCtx`, so a degraded rerun merges exactly one run's
    statistics and stays stats-identical to serial.  The path taken is
    recorded on the gathering operator (``degraded``, surfaced by
    EXPLAIN ANALYZE) and counted in ``ctx.stats.degradations``.
    """
    count = chain.prepare(ctx)
    ops = _chain_ops(chain)
    if driver_op is not None:
        ops.append(driver_op)
    for ordinal, op in enumerate(ops):
        op._ordinal = ordinal
        op.partition_rows = [None] * count

    executor, params = ctx.executor, ctx.params
    # Cross-process stitching: when a trace is active, every partition
    # task builds a *detached* root span locally (a fresh one per
    # attempt, so a degraded rerun never double-counts) and ships its
    # ``to_dict`` payload home beside the stats — the same transport
    # partition statistics already ride, picklable for the pool
    # backend.  The driver re-parents them below in partition-index
    # order, so the stitched tree's child order is deterministic
    # regardless of completion order.
    parent_span = obs_trace.current_span()
    traced = parent_span is not None

    def make_task(part: int):
        def task():
            pctx = _PartCtx(executor, params)
            if traced:
                pspan = obs_trace.Span("partition", part=part)
                # Worker-local by construction: it exits with no
                # ambient parent and is stitched into the driver's
                # tree afterwards — not a root for the recent ring.
                pspan.detached = True
                with pspan:
                    payload = worker(part, pctx)
                pspan.tag(backend=backend)
                return payload, pctx.stats, pctx.recorded, pspan.to_dict()
            return worker(part, pctx), pctx.stats, pctx.recorded, None
        return task

    if owner is None:
        owner = driver_op if driver_op is not None else chain
    rungs: List[str] = []
    kinds: List[str] = []

    def on_degrade(from_rung: str, to_rung: str, fault: Exception) -> None:
        ctx.stats.degradations += 1
        kind = classify_exception(fault)
        if not rungs:
            rungs.append(from_rung)
        rungs.append(to_rung)
        kinds.append(kind)
        owner.degraded = "->".join(rungs)
        owner.degraded_kinds = list(kinds)
        _DEGRADATIONS.inc(**{"from": from_rung, "to": to_rung,
                             "kind": kind})

    tasks = [make_task(part) for part in range(count)]
    if backend == "pool" and pool_spec is not None:
        _attach_pool_jobs(tasks, chain, ctx, pool_spec, driver_op, traced)
        owner.backend = "pool"
    results = run_tasks(tasks, backend=backend, deadline=ctx.deadline,
                        on_degrade=on_degrade)
    for op in ops:
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


class GatherOp(EnvOp):
    """Merge a partitioned chain back into one env stream.

    Partitions are concatenated in partition-index order — the serial
    row order — so every operator above a Gather is oblivious to the
    parallelism below it.
    """

    name = "Gather"

    def __init__(self, child: PartitionedOp, partitions: int):
        super().__init__()
        self.child = child
        self.partitions = partitions

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(partitions=%d)" % (self.name, self.partitions)

    def envs(self, ctx: _Ctx) -> List[Env]:
        child = self.child
        # A Gather's per-partition result is a full row set: threads
        # hand it over by reference, the pool pickles it back (its
        # workers cache table content, so only result rows cross).
        parts = _run_partitioned(
            child, ctx, ctx.executor.options.parallel_backend,
            lambda part, pctx: child.run_partition(part, pctx),
            owner=self, pool_spec={"mode": "gather"})
        out = [env for part in parts for env in part]
        self.rows_out = len(out)
        return out


class GatherMergeOp(EnvOp):
    """Partition-parallel ORDER BY: per-partition sorts + k-way merge.

    Each partition sorts (or heap-selects top-k from) its own
    environment slice on the substrate; the driver merges the sorted
    runs with the enumerator's heap merge
    (:func:`repro.core.enumerate.merge_sorted_runs`), whose ties
    resolve to the earlier partition — which is the earlier input
    position, so the merged sequence equals the serial stable sort of
    the concatenated input *exactly* (and, with ``top_k``, its first k
    rows: any row of the global top k is within its own partition's
    top k, so per-partition truncation loses nothing).
    """

    name = "GatherMerge"

    def __init__(self, child: PartitionedOp, partitions: int,
                 order_by: Tuple[S.OrderItem, ...],
                 top_k: Optional[int] = None):
        super().__init__()
        self.child = child
        self.partitions = partitions
        self.order_by = order_by
        self.top_k = top_k

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(
            ("%s.%s" % (o.column.alias, o.column.column)
             if o.column.alias else o.column.column)
            + (" DESC" if o.descending else "")
            for o in self.order_by)
        body = "%s(partitions=%d, %s)" % (self.name, self.partitions,
                                          keys)
        if self.top_k is not None:
            body += " top_k=%d" % self.top_k
        return body

    def envs(self, ctx: _Ctx) -> List[Env]:
        from repro.core.enumerate import merge_sorted_runs
        from repro.sql.executor import _ReverseAware

        child = self.child
        executor = ctx.executor
        order_by, top_k = self.order_by, self.top_k
        scanned = ctx.scanned     # populated by prepare, before workers

        def worker(part: int, pctx: _PartCtx) -> List[Env]:
            envs = child.run_partition(part, pctx)
            if top_k is not None:
                return executor._top_k(order_by, envs, scanned, top_k)
            return executor._order(order_by, envs, scanned)

        parts = _run_partitioned(child, ctx,
                                 executor.options.parallel_backend, worker,
                                 owner=self,
                                 pool_spec={"mode": "merge",
                                            "order_by": order_by,
                                            "top_k": top_k})

        def key(env: Env):
            return tuple(
                _ReverseAware(
                    executor._order_value(item.column, env, scanned),
                    item.descending)
                for item in order_by)

        out = list(merge_sorted_runs(parts, key=key))
        if top_k is not None:
            out = out[:top_k]
        self.rows_out = len(out)
        return out


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
    to :class:`GatherOp` + :class:`AggregateOp`, which is always
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
        # environment, potentially once per partition — must not touch
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


def _partial_state(call: S.FuncCall, envs: List[Env], executor, params,
                   stats) -> Any:
    """One aggregate call's partial state over one partition's envs.

    For COUNT/SUM/MIN/MAX the partial state *is* the aggregate value
    over the partition, so this delegates to the executor's single
    aggregate semantics (COUNT-arg None filtering, SUM of an empty
    series = 0, MIN/MAX of an empty series = None) rather than
    re-implementing it — a semantics tweak there cannot desynchronize
    the parallel path.  AVG's state is the executor's ``(exact total,
    count)`` pair (:func:`repro.sql.executor._avg_state`), finished
    with :func:`repro.sql.executor._avg_final` after the merge.
    """
    if call.name == "AVG":
        series = [executor._eval(call.arg, env, params, stats)
                  for env in envs]
        return _avg_state(series)
    return executor._eval_aggregate(call, envs, params, stats)


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


def _finish_state(call: S.FuncCall, state: Any) -> Any:
    """Turn a fully-combined partial state into the aggregate value."""
    if call.name == "AVG":
        return _avg_final(state)
    return state


class PartialAggregateOp(RowOp):
    """Aggregation as per-partition partials plus an exact combine.

    Each partition computes, per group (or for the whole input), the
    partial state of every COUNT/SUM/MIN/MAX/AVG call; the driver
    merges partitions in partition-index order, which preserves the serial
    **first-encounter group order** and picks each group's first
    environment from the earliest partition that saw the group — so
    non-aggregate select items evaluate exactly as they do serially.
    Only ``combinable_aggregate`` shapes lower here; everything else
    uses :class:`GatherOp` + :class:`AggregateOp`.

    This is the operator the ``"pool"`` backend pays off on: a
    partition's result is a handful of scalars, so worker processes
    buy real CPU parallelism without shipping row sets back.
    """

    name = "PartialAggregate"

    def __init__(self, child: PartitionedOp, partitions: int,
                 items: Tuple[S.SelectItem, ...],
                 group_by: Tuple[S.Expr, ...],
                 having: Optional[S.Expr]):
        super().__init__()
        self.child = child
        self.partitions = partitions
        self.items = items
        self.group_by = group_by
        self.having = having
        self.groups_in = None
        self._ordinal = 0
        self._agg_calls: List[S.FuncCall] = []
        self._leaves: List[S.Expr] = []
        trees = [item.expr for item in items]
        if having is not None:
            trees.append(having)
        for tree in trees:
            _collect_partial_nodes(tree, self._agg_calls, self._leaves)
        self._agg_index = {id(call): i
                           for i, call in enumerate(self._agg_calls)}
        self._leaf_index = {id(leaf): i
                            for i, leaf in enumerate(self._leaves)}

    @property
    def children(self):
        return (self.child,)

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
        from repro.sql.pretty import expr_sql

        if not self.group_by:
            return "Aggregate(whole input)"
        body = "GroupBy(%s)" % ", ".join(expr_sql(e)
                                         for e in self.group_by)
        if self.having is not None:
            body += " having %s" % expr_sql(self.having)
        return body

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        self._setup_vec(ctx)
        child = self.child
        if self.group_by:
            worker = self._grouped_partition
        else:
            worker = self._whole_partition
        parts = _run_partitioned(
            child, ctx, ctx.executor.options.parallel_backend,
            lambda part, pctx: worker(child.run_partition(part, pctx),
                                      pctx),
            driver_op=self, pool_spec={"mode": "partial"})
        if self.group_by:
            return self._merge_grouped(parts, ctx)
        return self._merge_whole(parts, ctx)

    # -- per-partition workers (run on the parallel substrate) -------------

    def _setup_vec(self, ctx: _Ctx) -> None:
        """Compile per-partition argument/key closures when the query
        runs under ``ExecutorOptions(vectorized=True)``.

        Workers then fold column series instead of walking envs; the
        fold runs in row order with the same arithmetic, so partial
        states are identical.  The closures never cross the partition
        boundary (a pool worker compiles its own); only scalar states
        do.
        """
        self._vec = None
        options = ctx.executor.options
        if not getattr(options, "vectorized", False):
            return
        for call in self._agg_calls:
            if call.arg is not None and not vectorizable(call.arg):
                return
        if self.group_by and not all(vectorizable(e)
                                     for e in self.group_by):
            return
        self._vec = {
            "args": {id(call): (compile_scalar(call.arg)
                                if call.arg is not None else None)
                     for call in self._agg_calls},
            "keys": [compile_scalar(e) for e in self.group_by],
            "size": options.batch_size,
        }

    def _vec_series(self, compiled, envs: List[Env], params) -> List[Any]:
        if not envs:
            return []
        is_const, fn = compiled
        if is_const:
            return [fn(params)] * len(envs)
        size = self._vec["size"]
        aliases = tuple(envs[0])
        out: List[Any] = []
        for start in range(0, len(envs), size):
            batch = Batch.from_envs(envs[start:start + size], aliases)
            out.extend(fn(batch, params))
        return out

    def _vec_state(self, call: S.FuncCall, envs: List[Env],
                   params) -> Any:
        # Partial-state semantics of the combinable aggregates (see
        # _partial_state): COUNT(*) = len, COUNT(x) drops None, SUM of
        # an empty series = 0, MIN/MAX of an empty series = None, AVG
        # is the (exact total, count) pair.
        if call.arg is None:
            return len(envs)                     # COUNT(*)
        series = self._vec_series(self._vec["args"][id(call)], envs,
                                  params)
        if call.name == "COUNT":
            return sum(1 for v in series if v is not None)
        if call.name == "SUM":
            return sum(series) if series else 0
        if call.name == "AVG":
            return _avg_state(series)
        if call.name == "MAX":
            return max(series) if series else None
        return min(series) if series else None   # MIN

    def _whole_partition(self, envs: List[Env], pctx: _PartCtx):
        if self._vec is not None:
            states = tuple(self._vec_state(call, envs, pctx.params)
                           for call in self._agg_calls)
        else:
            states = tuple(_partial_state(call, envs, pctx.executor,
                                          pctx.params, pctx.stats)
                           for call in self._agg_calls)
        pctx.record(self, len(envs))
        return states

    def _grouped_partition(self, envs: List[Env], pctx: _PartCtx):
        executor, params, stats = pctx.executor, pctx.params, pctx.stats
        vec = self._vec
        if vec is not None:
            key_vecs = [self._vec_series(c, envs, params)
                        for c in vec["keys"]]
            keys = list(zip(*key_vecs)) if key_vecs else []
        else:
            keys = [tuple(executor._eval(e, env, params, stats)
                          for e in self.group_by)
                    for env in envs]
        buckets: Dict[Tuple, List[Env]] = {}
        order: List[Tuple] = []
        for env, key in zip(envs, keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
                order.append(key)
            bucket.append(env)
        out = []
        for key in order:
            group = buckets[key]
            if vec is not None:
                states = tuple(self._vec_state(call, group, params)
                               for call in self._agg_calls)
            else:
                states = tuple(_partial_state(call, group, executor,
                                              params, stats)
                               for call in self._agg_calls)
            leaves = tuple(executor._eval(leaf, group[0], params, stats)
                           for leaf in self._leaves)
            out.append((key, states, leaves))
        pctx.record(self, len(out))
        return out

    # -- merge (serial, partition-index order) -----------------------------

    def _columns(self, ctx: _Ctx) -> List[str]:
        columns: List[str] = []
        for item in self.items:
            name = item.as_name or _default_name(item.expr)
            columns.append(ctx.executor._fresh_name(name, columns))
        return columns

    def _merge_whole(self, parts, ctx: _Ctx):
        combined: Dict[int, Any] = {}
        for i, call in enumerate(self._agg_calls):
            value = parts[0][i]
            for states in parts[1:]:
                value = _combine_states(call, value, states[i])
            combined[id(call)] = _finish_state(call, value)

        columns = self._columns(ctx)
        values = [self._merge_eval(item.expr, combined, {}, ctx.params)
                  for item in self.items]
        rows = [Record(dict(zip(columns, values)))]
        self.rows_out = len(rows)
        return rows, tuple(columns)

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

        columns = self._columns(ctx)
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
            rows.append(Record(dict(zip(columns, values))))
        self.rows_out = len(rows)
        return rows, tuple(columns)

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


# -- vectorized (batch-at-a-time) operators -----------------------------------


class VecOp(PhysicalOp):
    """Base class for operators streaming column batches.

    The vectorized counterpart of :class:`EnvOp`: ``batches`` returns
    a list of :class:`~repro.sql.plan.vector.Batch` objects whose
    concatenation is exactly the row operator's environment stream
    (same pairs, same order).  Every batch is non-empty; empty batches
    are dropped at the producer so downstream closures never see
    ``n == 0``.
    """

    def batches(self, ctx: _Ctx) -> List[Batch]:
        raise NotImplementedError


def _concat_batches(batches: List[Batch]):
    """Concatenate batches into ``(aliases, pairs, n)``; None if empty."""
    if not batches:
        return None
    first = batches[0]
    aliases = first.aliases
    pairs = {a: list(first.pairs[a]) for a in aliases}
    for batch in batches[1:]:
        for a in aliases:
            pairs[a].extend(batch.pairs[a])
    return aliases, pairs, len(pairs[aliases[0]])


def _chunk_pairs(aliases: Tuple[str, ...], pairs, n: int,
                 size: int) -> List[Batch]:
    """Re-chunk concatenated pair lists into batches of ``size``."""
    out = []
    for start in range(0, n, size):
        chunk = {a: rows[start:start + size]
                 for a, rows in pairs.items()}
        out.append(Batch(aliases, chunk, min(size, n - start)))
    return out


class VecScanOp(VecOp):
    """A scan emitting filtered column batches.

    The underlying access path (:meth:`ScanOp._rows`) is unchanged —
    full-scan / index-probe statistics count exactly as in row mode —
    then the row list is sliced into batches and the scan's pushed-down
    predicates, compiled once at plan time, filter each batch.
    """

    name = "VecScan"

    def __init__(self, scan: ScanOp, batch_size: int):
        super().__init__()
        self.scan = scan
        self.batch_size = batch_size
        self._filter = (compile_filter(scan.predicates)
                        if scan.predicates else None)

    def describe(self) -> str:
        return "%s(%s, batch=%d)" % (self.name, self.scan.describe(),
                                     self.batch_size)

    def trace_name(self) -> str:
        return self.scan.describe()

    def batches(self, ctx: _Ctx) -> List[Batch]:
        source = self.scan._rows(ctx)
        # Register for downstream name resolution (``*`` expansion,
        # ORDER BY aliasing); consumers only read alias and columns,
        # so the row payload stays with the batches (the same contract
        # PartitionedScanOp established).
        ctx.scanned.append(_ScannedSource(alias=source.alias,
                                          columns=source.columns,
                                          rows=[], table=source.table))
        rows = source.rows
        size = self.batch_size
        out: List[Batch] = []
        total = 0
        for start in range(0, len(rows), size):
            batch = Batch.from_pairs(source.alias, rows[start:start + size])
            if self._filter is not None:
                batch = self._filter(batch, ctx.params)
            if batch.n:
                out.append(batch)
                total += batch.n
        self.rows_out = total
        self.batches_out = len(out)
        return out


class EnvsToVecOp(VecOp):
    """Adapter: re-batch an environment stream (e.g. above a Gather,
    or above a row-mode fallback segment)."""

    name = "Rebatch"

    def __init__(self, child: EnvOp, batch_size: int):
        super().__init__()
        self.child = child
        self.batch_size = batch_size

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(batch=%d)" % (self.name, self.batch_size)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        envs = self.child.envs(ctx)
        out: List[Batch] = []
        if envs:
            aliases = tuple(envs[0])
            size = self.batch_size
            for start in range(0, len(envs), size):
                out.append(Batch.from_envs(envs[start:start + size],
                                           aliases))
        self.rows_out = len(envs)
        self.batches_out = len(out)
        return out


class VecToEnvsOp(EnvOp):
    """Adapter: concatenate batches back into an environment stream
    (for row-mode fallback operators above a vectorized segment)."""

    name = "Unbatch"

    def __init__(self, child: VecOp):
        super().__init__()
        self.child = child

    @property
    def children(self):
        return (self.child,)

    def envs(self, ctx: _Ctx) -> List[Env]:
        out: List[Env] = []
        for batch in self.child.batches(ctx):
            out.extend(batch.envs())
        self.rows_out = len(out)
        return out


class VecFilterOp(VecOp):
    """Residual predicates applied per batch via a compiled closure."""

    name = "VecFilter"

    def __init__(self, child: VecOp, predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.child = child
        self.predicates = predicates
        self._filter = compile_filter(predicates)

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, " AND ".join(
            expr_sql(p) for p in self.predicates))

    def trace_name(self) -> str:
        from repro.sql.pretty import expr_sql

        return "Filter(%s)" % " AND ".join(
            expr_sql(p) for p in self.predicates)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        out: List[Batch] = []
        total = 0
        for batch in self.child.batches(ctx):
            batch = self._filter(batch, ctx.params)
            if batch.n:
                out.append(batch)
                total += batch.n
        self.rows_out = total
        self.batches_out = len(out)
        return out


class VecHashJoinOp(VecOp):
    """Hash join probing with whole batches.

    The build phase is the shared :func:`_hash_build`; the probe key
    is compiled once and evaluated as a vector per batch, then matches
    expand probe-major (probe position order, then bucket order) via
    index gather — the exact row order of :class:`HashJoinOp`.
    """

    name = "VecHashJoin"

    def __init__(self, left: VecOp, right: ScanOp, predicate: S.BinOp):
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self):
        return (self.left, self.right)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, expr_sql(self.predicate))

    def trace_name(self) -> str:
        from repro.sql.pretty import expr_sql

        return "HashJoin(%s)" % expr_sql(self.predicate)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        incoming = self.left.batches(ctx)
        source = self.right.scanned(ctx)
        ctx.stats.hash_joins += 1
        buckets, probe_expr = _hash_build(source, self.predicate)
        build_alias = source.alias
        _, probe = compile_scalar(probe_expr)    # ColumnRef: never const
        out: List[Batch] = []
        total = 0
        for batch in incoming:
            values = probe(batch, ctx.params)
            idx: List[int] = []
            rows: List = []
            for i, value in enumerate(values):
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
            joined = Batch(batch.aliases + (build_alias,), pairs,
                           len(rows))
            out.append(joined)
            total += joined.n
        self.rows_out = total
        self.batches_out = len(out)
        return out


class VecNestedLoopOp(VecOp):
    """Cross product with the new source, by index expansion."""

    name = "VecNestedLoop"

    def __init__(self, left: VecOp, right: ScanOp):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def trace_name(self) -> str:
        return "NestedLoop"

    def batches(self, ctx: _Ctx) -> List[Batch]:
        incoming = self.left.batches(ctx)
        source = self.right.scanned(ctx)
        ctx.stats.nested_loop_joins += 1
        rows = source.rows
        alias = source.alias
        out: List[Batch] = []
        total = 0
        if rows:
            m = len(rows)
            for batch in incoming:
                # Prefix-major, like the row operator: each prefix row
                # pairs with every source row before the next prefix row.
                idx = [i for i in range(batch.n) for _ in range(m)]
                pairs = {a: [ps[i] for i in idx]
                         for a, ps in batch.pairs.items()}
                pairs[alias] = rows * batch.n
                joined = Batch(batch.aliases + (alias,), pairs, len(idx))
                out.append(joined)
                total += joined.n
        self.rows_out = total
        self.batches_out = len(out)
        return out


class VecSortOp(VecOp):
    """ORDER BY over batches: materialize, sort by key vectors, re-chunk.

    Key vectors are extracted column-wise; the sort permutes row
    indices with Python's stable sort, so tie order (and the
    ``sorted(...)[:k]`` equivalence of the top-k truncation) matches
    :class:`SortOp` exactly.
    """

    name = "VecSort"

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

    def _keys(self) -> str:
        return ", ".join(
            ("%s.%s" % (o.column.alias, o.column.column)
             if o.column.alias else o.column.column)
            + (" DESC" if o.descending else "")
            for o in self.order_by)

    def describe(self) -> str:
        if self.top_k is not None:
            return "VecTopK(%d, %s)" % (self.top_k, self._keys())
        return "%s(%s)" % (self.name, self._keys())

    def trace_name(self) -> str:
        if self.top_k is not None:
            return "TopK(%d, %s)" % (self.top_k, self._keys())
        return "Sort(%s)" % self._keys()

    def batches(self, ctx: _Ctx) -> List[Batch]:
        from repro.sql.executor import _ReverseAware

        concat = _concat_batches(self.child.batches(ctx))
        if concat is None:
            self.rows_out = 0
            self.batches_out = 0
            return []
        aliases, pairs, n = concat
        executor = ctx.executor
        key_vecs = []
        for item in self.order_by:
            col = item.column
            alias = col.alias
            if alias is None:
                alias = executor._alias_for_column(col.column, ctx.scanned)
            if alias not in pairs:
                raise SQLExecutionError("unknown alias %r in ORDER BY"
                                        % alias)
            rows = pairs[alias]
            if col.column == "_rowid":
                vec = [pair[0] for pair in rows]
            else:
                # Raw item access: a missing column raises the same
                # bare KeyError the row mode's _order_value does.
                vec = [pair[1][col.column] for pair in rows]
            key_vecs.append((vec, item.descending))

        def key(i: int):
            return tuple(_ReverseAware(vec[i], desc)
                         for vec, desc in key_vecs)

        order = sorted(range(n), key=key)
        if self.top_k is not None:
            order = order[: self.top_k]
        pairs = {a: [rows[i] for i in order] for a, rows in pairs.items()}
        out = _chunk_pairs(aliases, pairs, len(order), self.batch_size)
        self.rows_out = len(order)
        self.batches_out = len(out)
        return out


class VecRestoreOp(VecOp):
    """FROM-order restoration over batches (see :class:`RestoreOp`)."""

    name = "VecRestore"

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

    def trace_name(self) -> str:
        return "Restore(%s)" % ", ".join(self.aliases)

    def batches(self, ctx: _Ctx) -> List[Batch]:
        incoming = self.child.batches(ctx)
        position = {alias: i for i, alias in enumerate(self.aliases)}
        ctx.scanned.sort(
            key=lambda src: position.get(src.alias, len(position)))
        concat = _concat_batches(incoming)
        if concat is None:
            self.rows_out = 0
            self.batches_out = 0
            return []
        batch_aliases, pairs, n = concat
        rowids = [[pair[0] for pair in pairs[a]] for a in self.aliases]
        order = sorted(range(n),
                       key=lambda i: tuple(vec[i] for vec in rowids))
        pairs = {a: [rows[i] for i in order] for a, rows in pairs.items()}
        out = _chunk_pairs(batch_aliases, pairs, n, self.batch_size)
        self.rows_out = n
        self.batches_out = len(out)
        return out


class VecProjectOp(RowOp):
    """Projection evaluated column-wise over batches.

    Select items compile once at plan time; per batch, each item
    yields one value vector (``*`` expands to direct column gathers,
    constants broadcast) and output records assemble row-wise from the
    zipped vectors — the same values, names and order as
    :class:`ProjectOp`.
    """

    name = "VecProject"

    def __init__(self, child: VecOp, items: Tuple[S.SelectItem, ...]):
        super().__init__()
        self.child = child
        self.items = items
        self._compiled = [None if isinstance(item.expr, S.Star)
                          else compile_scalar(item.expr)
                          for item in items]

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import _item

        return "%s(%s)" % (self.name,
                           ", ".join(_item(i) for i in self.items))

    def trace_name(self) -> str:
        from repro.sql.pretty import _item

        return "Project(%s)" % ", ".join(_item(i) for i in self.items)

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        batches = self.child.batches(ctx)
        executor = ctx.executor
        columns: List[str] = []
        plan = []     # ("star", alias, column) | ("const", fn) | ("vec", fn)
        for item, compiled in zip(self.items, self._compiled):
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

        rows: List[Record] = []
        params = ctx.params
        for batch in batches:
            vectors = []
            for entry in plan:
                if entry[0] == "star":
                    vectors.append(batch.column(entry[1], entry[2]))
                elif entry[0] == "const":
                    vectors.append([entry[1](params)] * batch.n)
                else:
                    vectors.append(entry[1](batch, params))
            for vals in zip(*vectors):
                rows.append(Record(dict(zip(columns, vals))))
        self.rows_out = len(rows)
        return rows, tuple(columns)


#: Aggregate functions the vectorized fold implements (all five — the
#: fold runs serially over the full series in row order and AVG uses
#: the executor's exactly-rounded mean, so every fold is
#: arithmetic-identical to ``_eval_aggregate``).
_VEC_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def _vec_call_ok(call: S.FuncCall) -> bool:
    if call.name not in _VEC_AGGREGATES:
        return False
    if call.arg is None:
        return call.name == "COUNT"
    return vectorizable(call.arg)


def _vec_whole_ok(expr: S.Expr) -> bool:
    """Whole-input aggregation trees VecAggregateOp reproduces exactly
    (mirrors ``_eval_aggregate``'s structure)."""
    if isinstance(expr, S.FuncCall):
        return _vec_call_ok(expr)
    if isinstance(expr, S.BinOp):
        # Any operator: combination goes through _apply_op either way,
        # including its unsupported-operator error for AND/OR.
        return _vec_whole_ok(expr.left) and _vec_whole_ok(expr.right)
    return isinstance(expr, (S.Literal, S.Param))


def _vec_group_ok(expr: S.Expr) -> bool:
    """Grouped trees VecAggregateOp reproduces exactly (mirrors
    ``AggregateOp._group_value``: non-structural leaves evaluate via
    the executor on the group's first environment, so any leaf is
    fine)."""
    if isinstance(expr, S.FuncCall):
        return _vec_call_ok(expr)
    if isinstance(expr, S.BinOp):
        return _vec_group_ok(expr.left) and _vec_group_ok(expr.right)
    if isinstance(expr, S.NotOp):
        return _vec_group_ok(expr.expr)
    return True


def _vec_aggregate_ok(items: Tuple[S.SelectItem, ...],
                      group_by: Tuple[S.Expr, ...],
                      having: Optional[S.Expr]) -> bool:
    """Whether :class:`VecAggregateOp` can run this aggregation; other
    shapes (``*`` items, unknown functions, unvectorizable arguments)
    fall back to :class:`AggregateOp`, which raises or evaluates
    exactly as the seed does."""
    trees = []
    for item in items:
        if isinstance(item.expr, S.Star):
            return False
        trees.append(item.expr)
    if having is not None:
        trees.append(having)
    if group_by:
        if not all(vectorizable(e) for e in group_by):
            return False
        return all(_vec_group_ok(tree) for tree in trees)
    return all(_vec_whole_ok(tree) for tree in trees)


class VecAggregateOp(RowOp):
    """Aggregation folding column vectors instead of per-env walks.

    Aggregate arguments and group keys compile once at plan time;
    per query, argument series concatenate in batch order — which is
    row order — so every fold (including SUM/AVG float accumulation)
    is arithmetic-identical to ``_eval_aggregate``'s left-to-right
    loop.  Grouping buckets row indices by key tuple in
    first-encounter order; HAVING evaluates before select items per
    group, so filtered groups never compute their aggregates (the row
    mode's lazy evaluation set).  Group-local non-aggregate leaves
    evaluate through the executor on the group's first environment,
    exactly as ``AggregateOp._group_value`` does.
    """

    name = "VecAggregate"

    def __init__(self, child: VecOp, items: Tuple[S.SelectItem, ...],
                 group_by: Tuple[S.Expr, ...],
                 having: Optional[S.Expr]):
        super().__init__()
        self.child = child
        self.items = items
        self.group_by = group_by
        self.having = having
        self.groups_in = None
        self._agg_args: Dict[int, Any] = {}
        trees = [item.expr for item in items]
        if having is not None:
            trees.append(having)
        for tree in trees:
            self._collect_args(tree)
        self._key_fns = [compile_scalar(e) for e in group_by]

    def _collect_args(self, expr: S.Expr) -> None:
        if isinstance(expr, S.FuncCall):
            if expr.arg is not None:
                self._agg_args[id(expr)] = compile_scalar(expr.arg)
            return
        if isinstance(expr, S.BinOp):
            self._collect_args(expr.left)
            self._collect_args(expr.right)
            return
        if isinstance(expr, S.NotOp):
            self._collect_args(expr.expr)

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        if not self.group_by:
            return "VecAggregate(whole input)"
        body = "VecGroupBy(%s)" % ", ".join(expr_sql(e)
                                           for e in self.group_by)
        if self.having is not None:
            body += " having %s" % expr_sql(self.having)
        return body

    def trace_name(self) -> str:
        from repro.sql.pretty import expr_sql

        if not self.group_by:
            return "Aggregate(whole input)"
        body = "GroupBy(%s)" % ", ".join(expr_sql(e)
                                         for e in self.group_by)
        if self.having is not None:
            body += " having %s" % expr_sql(self.having)
        return body

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        batches = self.child.batches(ctx)
        if self.group_by:
            return self._grouped(batches, ctx)
        return self._whole(batches, ctx)

    def _series(self, call: S.FuncCall, batches: List[Batch],
                params) -> List[Any]:
        is_const, fn = self._agg_args[id(call)]
        out: List[Any] = []
        for batch in batches:
            if is_const:
                out.extend([fn(params)] * batch.n)
            else:
                out.extend(fn(batch, params))
        return out

    def _fold(self, call: S.FuncCall, batches: List[Batch],
              n_total: int, params) -> Any:
        if call.name == "COUNT":
            if call.arg is None:
                return n_total
            return sum(1 for v in self._series(call, batches, params)
                       if v is not None)
        series = self._series(call, batches, params)
        if call.name == "SUM":
            return sum(series) if series else 0
        if call.name == "MAX":
            return max(series) if series else None
        if call.name == "MIN":
            return min(series) if series else None
        # AVG: the executor's exactly-rounded mean
        return _avg_final(_avg_state(series))

    def _whole(self, batches: List[Batch], ctx: _Ctx):
        n_total = sum(batch.n for batch in batches)
        params = ctx.params

        def value(expr: S.Expr) -> Any:
            if isinstance(expr, S.FuncCall):
                return self._fold(expr, batches, n_total, params)
            if isinstance(expr, S.BinOp):
                return _apply_op(expr.op, value(expr.left),
                                 value(expr.right))
            if isinstance(expr, S.Literal):
                return expr.value
            return _param(params, expr.name)     # S.Param (gated)

        executor = ctx.executor
        columns: List[str] = []
        values: List[Any] = []
        for item in self.items:
            name = item.as_name or _default_name(item.expr)
            columns.append(executor._fresh_name(name, columns))
            values.append(value(item.expr))
        rows = [Record(dict(zip(columns, values)))]
        self.rows_out = 1
        return rows, tuple(columns)

    def _grouped(self, batches: List[Batch], ctx: _Ctx):
        executor, params, stats = ctx.executor, ctx.params, ctx.stats
        n_total = sum(batch.n for batch in batches)
        key_vecs: List[List[Any]] = []
        for is_const, fn in self._key_fns:
            if is_const:
                key_vecs.append([fn(params)] * n_total if n_total else [])
            else:
                vec: List[Any] = []
                for batch in batches:
                    vec.extend(fn(batch, params))
                key_vecs.append(vec)

        buckets: Dict[Tuple, List[int]] = {}
        order: List[Tuple] = []
        for i in range(n_total):
            key = tuple(vec[i] for vec in key_vecs)
            got = buckets.get(key)
            if got is None:
                buckets[key] = got = []
                order.append(key)
            got.append(i)
        self.groups_in = len(order)

        columns: List[str] = []
        for item in self.items:
            name = item.as_name or _default_name(item.expr)
            columns.append(executor._fresh_name(name, columns))

        concat = _concat_batches(batches)
        rows: List[Record] = []
        for group_key in order:
            idx = buckets[group_key]
            aliases, all_pairs, _ = concat
            gbatch = Batch(aliases,
                           {a: [all_pairs[a][i] for i in idx]
                            for a in aliases}, len(idx))
            gb = [gbatch]
            first_env = {a: all_pairs[a][idx[0]] for a in aliases}

            def value(expr: S.Expr, gb=gb, gbatch=gbatch,
                      first_env=first_env) -> Any:
                if isinstance(expr, S.FuncCall):
                    return self._fold(expr, gb, gbatch.n, params)
                if isinstance(expr, S.BinOp):
                    if expr.op == "AND":
                        return (_truthy(value(expr.left))
                                and _truthy(value(expr.right)))
                    if expr.op == "OR":
                        return (_truthy(value(expr.left))
                                or _truthy(value(expr.right)))
                    return _apply_op(expr.op, value(expr.left),
                                     value(expr.right))
                if isinstance(expr, S.NotOp):
                    return not _truthy(value(expr.expr))
                return executor._eval(expr, first_env, params, stats)

            if self.having is not None and not _truthy(value(self.having)):
                continue
            values = [value(item.expr) for item in self.items]
            rows.append(Record(dict(zip(columns, values))))
        self.rows_out = len(rows)
        return rows, tuple(columns)


# -- lowering -----------------------------------------------------------------


def lower(plan: L.LogicalPlan, options: Optional[Any] = None) -> RowOp:
    """Lower an optimized logical plan to a physical operator tree.

    ``options`` (an ``OptimizerOptions``) selects the operator family:
    with ``vectorized=True`` the env segment lowers to batch operators
    wherever the expression compiler covers the query, falling back to
    the row operators elsewhere.  The default (None, or
    ``vectorized=False``) is byte-identical to the seed lowering — no
    vectorized operator is ever instantiated, so serial plans, golden
    traces and EXPLAIN output are untouched.
    """
    if options is not None and getattr(options, "vectorized", False):
        return _lower_rows_vec(plan, options.batch_size)
    return _lower_rows(plan)


def _with_est(op: PhysicalOp, plan: L.LogicalPlan) -> PhysicalOp:
    """Copy the optimizer's estimates onto the physical operator."""
    op.est_rows = plan.est_rows
    op.est_cost = plan.est_cost
    return op


def _lower_rows(plan: L.LogicalPlan) -> RowOp:
    if isinstance(plan, L.Limit):
        return _with_est(LimitOp(_lower_rows(plan.child), plan.count),
                         plan)
    if isinstance(plan, L.Distinct):
        return _with_est(DistinctOp(_lower_rows(plan.child)), plan)
    if isinstance(plan, L.Project):
        return _with_est(ProjectOp(_lower_envs(plan.child), plan.items),
                         plan)
    if isinstance(plan, L.Aggregate):
        child = plan.child
        if isinstance(child, L.Gather) and combinable_aggregate(
                plan.items, plan.group_by, plan.having):
            return _with_est(PartialAggregateOp(
                _lower_partitioned(child.child, child.partitions),
                child.partitions, plan.items, plan.group_by,
                plan.having), plan)
        return _with_est(AggregateOp(_lower_envs(child), plan.items,
                                     plan.group_by, plan.having), plan)
    if isinstance(plan, L.Sort):
        child = plan.child
        if isinstance(child, L.Aggregate):
            return _with_est(RowSortOp(_lower_rows(child),
                                       plan.order_by), plan)
        raise TypeError("Sort over %r cannot be lowered here" % (child,))
    raise TypeError("expected a row-producing logical node, got %r"
                    % (plan,))


def _lower_envs(plan: L.LogicalPlan) -> EnvOp:
    if isinstance(plan, L.Sort):
        child = plan.child
        if plan.merge and isinstance(child, L.Gather):
            return _with_est(GatherMergeOp(
                _lower_partitioned(child.child, child.partitions),
                child.partitions, plan.order_by, plan.top_k), plan)
        return _with_est(SortOp(_lower_envs(child), plan.order_by,
                                plan.top_k), plan)
    if isinstance(plan, L.Restore):
        return _with_est(RestoreOp(_lower_envs(plan.child),
                                   plan.aliases), plan)
    if isinstance(plan, L.Gather):
        return _with_est(
            GatherOp(_lower_partitioned(plan.child, plan.partitions),
                     plan.partitions), plan)
    if isinstance(plan, L.Filter):
        return _with_est(FilterOp(_lower_envs(plan.child),
                                  plan.predicates), plan)
    if isinstance(plan, L.Join):
        left = _lower_envs(plan.left)
        right = _lower_scan(plan.right)
        if plan.strategy == "hash":
            return _with_est(HashJoinOp(left, right, plan.predicate),
                             plan)
        return _with_est(NestedLoopJoinOp(left, right), plan)
    if isinstance(plan, L.Scan):
        return _with_est(ScanEnvsOp(_lower_scan(plan)), plan)
    raise TypeError("expected an env-producing logical node, got %r"
                    % (plan,))


def _lower_partitioned(plan: L.LogicalPlan,
                       partitions: int) -> PartitionedOp:
    """Lower the env segment under a Gather to partitioned operators."""
    if isinstance(plan, L.Filter):
        return _with_est(PartitionedFilterOp(
            _lower_partitioned(plan.child, partitions),
            plan.predicates), plan)
    if isinstance(plan, L.Join):
        left = _lower_partitioned(plan.left, partitions)
        right = _lower_scan(plan.right)
        if plan.strategy == "hash":
            return _with_est(PartitionedHashJoinOp(left, right,
                                                   plan.predicate), plan)
        return _with_est(PartitionedNestedLoopOp(left, right), plan)
    if isinstance(plan, L.Scan):
        return _with_est(PartitionedScanOp(_lower_scan(plan),
                                           partitions), plan)
    raise TypeError("expected a partitionable logical node, got %r"
                    % (plan,))


def _lower_scan(scan: L.Scan) -> ScanOp:
    if scan.subquery is not None:
        return _with_est(SubqueryScanOp(scan.subquery, scan.alias,
                                        scan.predicates), scan)
    if scan.index is not None:
        column, value_expr, index_pred = scan.index
        # The probe consumes the chosen predicate; the rest filter.
        predicates = tuple(p for p in scan.predicates
                           if p is not index_pred)
        return _with_est(IndexScanOp(scan.table, scan.alias, column,
                                     value_expr, predicates), scan)
    return _with_est(FullScanOp(scan.table, scan.alias,
                                scan.predicates), scan)


def _as_vec(op: PhysicalOp, batch_size: int) -> VecOp:
    """Coerce a lowered env segment to a batch producer."""
    if isinstance(op, VecOp):
        return op
    return EnvsToVecOp(op, batch_size)


def _as_envs(op: PhysicalOp) -> EnvOp:
    """Coerce a lowered env segment to an environment producer."""
    if isinstance(op, VecOp):
        return VecToEnvsOp(op)
    return op


def _lower_rows_vec(plan: L.LogicalPlan, batch_size: int) -> RowOp:
    """Vectorized counterpart of :func:`_lower_rows`.

    Each node checks whether the expression compiler covers its
    expressions; covered nodes lower to the Vec operator, others to
    the seed row operator with an adapter below.  The partitioned
    Gather shapes (PartialAggregateOp, GatherMergeOp, GatherOp) lower
    exactly as in row mode — partitions keep envs as their currency
    and vectorize internally instead (see PartitionedScanOp /
    PartialAggregateOp).
    """
    if isinstance(plan, L.Limit):
        return _with_est(LimitOp(_lower_rows_vec(plan.child, batch_size),
                                 plan.count), plan)
    if isinstance(plan, L.Distinct):
        return _with_est(DistinctOp(_lower_rows_vec(plan.child,
                                                    batch_size)), plan)
    if isinstance(plan, L.Project):
        lowered = _lower_envs_vec(plan.child, batch_size)
        if all(isinstance(item.expr, S.Star) or vectorizable(item.expr)
               for item in plan.items):
            return _with_est(VecProjectOp(_as_vec(lowered, batch_size),
                                          plan.items), plan)
        return _with_est(ProjectOp(_as_envs(lowered), plan.items), plan)
    if isinstance(plan, L.Aggregate):
        child = plan.child
        if isinstance(child, L.Gather) and combinable_aggregate(
                plan.items, plan.group_by, plan.having):
            return _with_est(PartialAggregateOp(
                _lower_partitioned(child.child, child.partitions),
                child.partitions, plan.items, plan.group_by,
                plan.having), plan)
        lowered = _lower_envs_vec(child, batch_size)
        if _vec_aggregate_ok(plan.items, plan.group_by, plan.having):
            return _with_est(VecAggregateOp(_as_vec(lowered, batch_size),
                                            plan.items, plan.group_by,
                                            plan.having), plan)
        return _with_est(AggregateOp(_as_envs(lowered), plan.items,
                                     plan.group_by, plan.having), plan)
    if isinstance(plan, L.Sort):
        child = plan.child
        if isinstance(child, L.Aggregate):
            return _with_est(RowSortOp(_lower_rows_vec(child, batch_size),
                                       plan.order_by), plan)
        raise TypeError("Sort over %r cannot be lowered here" % (child,))
    raise TypeError("expected a row-producing logical node, got %r"
                    % (plan,))


def _lower_envs_vec(plan: L.LogicalPlan, batch_size: int) -> PhysicalOp:
    """Vectorized counterpart of :func:`_lower_envs`; returns either a
    VecOp or an EnvOp (callers adapt with ``_as_vec`` / ``_as_envs``)."""
    if isinstance(plan, L.Sort):
        child = plan.child
        if plan.merge and isinstance(child, L.Gather):
            return _with_est(GatherMergeOp(
                _lower_partitioned(child.child, child.partitions),
                child.partitions, plan.order_by, plan.top_k), plan)
        return _with_est(VecSortOp(
            _as_vec(_lower_envs_vec(child, batch_size), batch_size),
            plan.order_by, plan.top_k, batch_size), plan)
    if isinstance(plan, L.Restore):
        return _with_est(VecRestoreOp(
            _as_vec(_lower_envs_vec(plan.child, batch_size), batch_size),
            plan.aliases, batch_size), plan)
    if isinstance(plan, L.Gather):
        return _with_est(
            GatherOp(_lower_partitioned(plan.child, plan.partitions),
                     plan.partitions), plan)
    if isinstance(plan, L.Filter):
        lowered = _lower_envs_vec(plan.child, batch_size)
        if all(vectorizable(p) for p in plan.predicates):
            return _with_est(VecFilterOp(_as_vec(lowered, batch_size),
                                         plan.predicates), plan)
        return _with_est(FilterOp(_as_envs(lowered), plan.predicates),
                         plan)
    if isinstance(plan, L.Join):
        left = _as_vec(_lower_envs_vec(plan.left, batch_size), batch_size)
        right = _lower_scan(plan.right)
        if plan.strategy == "hash":
            return _with_est(VecHashJoinOp(left, right, plan.predicate),
                             plan)
        return _with_est(VecNestedLoopOp(left, right), plan)
    if isinstance(plan, L.Scan):
        scan = _lower_scan(plan)
        if all(vectorizable(p) for p in scan.predicates):
            return _with_est(VecScanOp(scan, batch_size), plan)
        return _with_est(ScanEnvsOp(scan), plan)
    raise TypeError("expected an env-producing logical node, got %r"
                    % (plan,))


# -- plan driver ---------------------------------------------------------------


class PhysicalPlan:
    """An executable physical plan (root operator + execution entry)."""

    def __init__(self, root: RowOp):
        self.root = root

    def execute(self, executor, params: Dict[str, Any],
                stats) -> QueryResult:
        deadline = None
        seconds = executor.options.deadline_seconds
        if seconds is not None:
            from repro.service.faults import Deadline

            deadline = Deadline.after(seconds)
        ctx = _Ctx(executor=executor, params=params, stats=stats,
                   deadline=deadline)
        rows, columns = self.root.rows(ctx)
        return QueryResult(rows=rows, columns=columns, stats=stats)
