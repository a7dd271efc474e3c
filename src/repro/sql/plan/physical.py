"""Physical operators: the executable form of an optimized plan.

Every planned query runs on one operator family.  Each row-stream
operator returns its whole output as one column batch
(:class:`~repro.sql.plan.vector.Batch`) and evaluates expressions
through closures compiled once per plan (:mod:`repro.sql.plan.vector`);
no closure runs on an empty batch.  Lowering (:func:`lower`) maps each
logical node onto an operator object:

* ``Scan``      -> :class:`FullScanOp` / :class:`IndexScanOp` /
                   :class:`SubqueryScanOp`
* ``Join``      -> :class:`VecHashJoinOp` / :class:`VecNestedLoopOp`
* ``Filter``    -> :class:`VecFilterOp`
* ``Restore``   -> :class:`VecRestoreOp`
* ``Sort``      -> :class:`VecSortOp` (truncated to the LIMIT bound the
                   optimizer attached)
* ``Aggregate`` -> :class:`VecAggregateOp` (GROUP BY grouping in
                   first-encounter order, HAVING, aggregate
                   projection)
* ``Project``   -> :class:`VecProjectOp`, or no operator at all for a
                   lone ``*`` / ``alias.*`` over one unfiltered
                   base-table scan, which then answers the query itself
                   (:meth:`TableScanOp.rows`); ``Distinct`` / ``Limit``
                   and an ORDER BY over grouped rows ->
                   :class:`DistinctOp` / :class:`LimitOp` /
                   :class:`RowSortOp`

Operators print plain relational names (``HashJoin``, ``Filter``,
``FullScan``, ...).  Each operator records its output cardinality in
``rows_out``, which the EXPLAIN printer surfaces in ``analyze`` mode;
engine-wide counters go to the
:class:`~repro.sql.executor.ExecutionStats` the seed pipeline also
fills.  Scalar and aggregate semantics mirror the seed pipeline
(``ExecutorOptions(planner=False)``), the oracle every planned mode is
pinned to.

A plan is built once and may run many times (the statement cache of
:class:`~repro.sql.database.Database`), so a run keeps its rows in
locals and in the per-run :class:`_Ctx`: between runs an operator holds
its description, compiled closures and last ``rows_out``, never a row.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace
from repro.sql import ast as S
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import (
    Executor,
    QueryResult,
    _apply_op,
    _avg_final,
    _avg_state,
    _default_name,
    _hash_build,
    _param,
    _ReverseAware,
    _ScannedSource,
    _truthy,
)
from repro.sql.plan import logical as L
from repro.sql.plan.vector import Batch, compile_filter, compile_scalar
from repro.tor.values import Record, make_record


class _Ctx:
    """Per-execution state threaded through the operator tree."""

    __slots__ = ("executor", "params", "stats", "scanned")

    def __init__(self, executor, params: Dict[str, Any], stats):
        self.executor = executor        # repro.sql.executor.Executor
        self.params = params
        self.stats = stats              # ExecutionStats (engine-wide)
        self.scanned: List[_ScannedSource] = []


#: operator entry points that open a trace span when a trace is active.
_TRACED_METHODS = ("rows", "batch")

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
    operator, tagged with its description and the observed row count,
    and accumulates ``elapsed_seconds`` on the operator for EXPLAIN's
    ``time=`` column.
    """

    @functools.wraps(method)
    def wrapper(self, *args):
        parent = _current_span()
        if parent is None:
            return method(self, *args)
        # The op tag rides on the span from creation (the description
        # is constructor state) so the sampling profiler can attribute
        # samples to the operator label live, while it is still running.
        node = parent.child(type(self).name, op=self.describe())
        with node:
            out = method(self, *args)
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
        #: the cost-based optimizer's estimates, copied from the
        #: logical node at lowering time (None in greedy mode); the
        #: EXPLAIN printer renders them as ``est_rows=`` / ``cost=``.
        self.est_rows: Optional[float] = None
        self.est_cost: Optional[float] = None
        #: wall-clock seconds spent in this operator, accumulated by
        #: the span wrapper when tracing is active; None otherwise.
        #: EXPLAIN renders it as ``time=`` when asked (``timing=True``).
        self.elapsed_seconds: Optional[float] = None

    @property
    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def describe(self) -> str:
        return self.name


#: the record of a ``(rowid, record)`` pair, read by a C call.
_RECORD = itemgetter(1)


#: value types whose ``==`` and ``<`` agree: comparing two of them
#: raw gives the result, or raises the error, that comparing their
#: ``_ReverseAware`` keys does.
_RAW_ORDERED = frozenset((int, float, str, bool))
#: the same within a tuple of keys.  A tuple comparison tests ``==``
#: item by item with an identity shortcut, which calls a NaN object
#: equal to itself where its wrapped key is not: so no floats.
_RAW_TUPLED = frozenset((int, str, bool))


def _order_key(order_by: Tuple[S.OrderItem, ...], batch: Batch,
               scanned: List[_ScannedSource]):
    """ORDER BY key of each row position of ``batch``.

    Key vectors are extracted column-wise, with the seed pipeline's
    resolution and errors (``Executor._order_value``): a bare name
    resolves against the scanned sources, an unknown alias or a
    missing column raises :class:`SQLExecutionError`.  A single
    ascending key of numbers and strings sorts by its raw values, and
    several ascending keys of ints, strings and bools by tuples of
    them; each orders and fails as the wrapped keys do.  NULL is not
    among them: two NULL keys are equal wrapped, and raw they do not
    compare.
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
    if not any(desc for _, desc in vecs):
        if len(vecs) == 1:
            if _RAW_ORDERED.issuperset(map(type, vecs[0][0])):
                return vecs[0][0].__getitem__
        elif all(_RAW_TUPLED.issuperset(map(type, vec)) for vec, _ in vecs):
            return list(zip(*[vec for vec, _ in vecs])).__getitem__

    def key(i: int):
        return tuple(_ReverseAware(vec[i], desc) for vec, desc in vecs)

    return key


def _sort_keys(order_by: Tuple[S.OrderItem, ...]) -> str:
    return ", ".join(
        ("%s.%s" % (o.column.alias, o.column.column)
         if o.column.alias else o.column.column)
        + (" DESC" if o.descending else "")
        for o in order_by)


# -- batch producers ---------------------------------------------------------


class VecOp(PhysicalOp):
    """Base class for row-stream operators.

    ``batch`` returns the operator's whole row stream, in order, as one
    :class:`Batch` (``n == 0`` when empty).  No compiled closure runs
    on an empty batch: an operator whose input is empty returns before
    it calls one, as the seed pipeline evaluates nothing over no rows.
    """

    def batch(self, ctx: _Ctx) -> Batch:
        raise NotImplementedError


class RowOp(PhysicalOp):
    """Base class for operators producing projected output rows."""

    def rows(self, ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
        raise NotImplementedError


# -- scans -------------------------------------------------------------------


class ScanOp(VecOp):
    """Base scan: an access path (``_rows``) plus pushed-down predicates.

    The predicates compile once into a batch filter, which ``batch``
    applies to the rows the access path reads.  Every scan registers
    its source in ``ctx.scanned`` for downstream name resolution (``*``
    expansion, ORDER BY aliasing); consumers read only its alias and
    columns.
    """

    def __init__(self, alias: str, predicates: Tuple[S.Expr, ...]):
        super().__init__()
        self.alias = alias
        self.predicates = predicates

    def describe(self) -> str:
        body = self.name + self._target()
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

    def batch(self, ctx: _Ctx) -> Batch:
        source = self._rows(ctx)
        ctx.scanned.append(source)
        alias, rows = self.alias, source.rows
        batch = Batch((alias,), {alias: rows}, len(rows))
        if self._filter is not None:
            batch = self._filter(batch, ctx)
        self.rows_out = batch.n
        return batch


class TableScanOp(ScanOp, RowOp):
    """A base-table scan: ``_read`` is its access path.

    ``_read`` reads the table, counts the scan statistics and returns
    the table with the positions of the rows the scan yields (None for
    every row, in storage order).  ``_rows`` pairs those rows with
    their positions for ``batch``, and ``rows`` answers a query on its
    own.  Lowering makes an unfiltered scan the plan's root when the
    select list is a lone ``*`` / ``alias.*``, so a point lookup runs as
    this one operator (LIMIT and DISTINCT may sit above it).
    """

    def __init__(self, table: str, alias: str,
                 predicates: Tuple[S.Expr, ...]):
        super().__init__(alias, predicates)
        self.table = table

    def _read(self, ctx: _Ctx):
        raise NotImplementedError

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        table, positions = self._read(ctx)
        return _ScannedSource(self.alias, table.columns,
                              _pairs(table.rows, positions))

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
        alias, pairs = self.alias, _pairs(stored, positions)
        ctx.scanned.append(_ScannedSource(alias, columns, pairs))
        rows, columns = _project(_STAR, (None,),
                                 Batch((alias,), {alias: pairs}, len(pairs)),
                                 ctx)
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

    def _read(self, ctx: _Ctx):
        table = ctx.executor.catalog.table(self.table)
        ctx.stats.rows_scanned += len(table.rows)
        ctx.stats.full_scans += 1
        return table, None


class IndexScanOp(TableScanOp):
    name = "IndexScan"

    def __init__(self, table: str, alias: str, column: str,
                 value_expr: S.Expr, predicates: Tuple[S.Expr, ...]):
        super().__init__(table, alias, predicates)
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
                 predicates: Tuple[S.Expr, ...]):
        super().__init__(alias, predicates)
        self.query = query

    def _target(self) -> str:
        return "(AS %s)" % self.alias

    def _rows(self, ctx: _Ctx) -> _ScannedSource:
        sub = ctx.executor.execute(self.query, ctx.params, ctx.stats)
        candidate = [(idx, row) for idx, row in enumerate(sub.rows)]
        ctx.stats.rows_scanned += len(candidate)
        ctx.stats.full_scans += 1
        return _ScannedSource(alias=self.alias, columns=sub.columns,
                              rows=candidate)


# -- filters and joins ---------------------------------------------------------


class VecFilterOp(VecOp):
    """Residual predicates applied via a compiled closure."""

    name = "Filter"

    def __init__(self, child: VecOp, predicates: Tuple[S.Expr, ...]):
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

    @functools.cached_property
    def _filter(self):
        return compile_filter(self.predicates)

    def batch(self, ctx: _Ctx) -> Batch:
        batch = self._filter(self.child.batch(ctx), ctx)
        self.rows_out = batch.n
        return batch


class _JoinOp(VecOp):
    """Base for the joins: ``left`` is the running chain, ``right`` the
    new source, scanned once after the left side's scans (the seed
    pipeline's scan order).  ``_match`` pairs the left batch's rows with
    the new source's.  Both sides live only in the run's locals, so an
    idle cached plan pins none of the rows it read."""

    def __init__(self, left: VecOp, right: ScanOp):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def _match(self, left: Batch, rows: List, ctx: _Ctx
               ) -> Tuple[List[int], List]:
        """Each output row's left position and new-source pair, in
        output order."""
        raise NotImplementedError

    def batch(self, ctx: _Ctx) -> Batch:
        left = self.left.batch(ctx)
        alias = self.right.alias
        idx, rows = self._match(left, self.right.batch(ctx).pairs[alias],
                                ctx)
        pairs = {a: [ps[i] for i in idx] for a, ps in left.pairs.items()}
        pairs[alias] = rows
        out = Batch(left.aliases + (alias,), pairs, len(rows))
        self.rows_out = out.n
        return out


class VecHashJoinOp(_JoinOp):
    """Hash join: build on the new source, probe with the left batch.

    The build phase is the shared :func:`_hash_build`; the probe key
    is evaluated as one vector, then matches expand probe-major (probe
    position order, then bucket order) via index gather — the seed
    pipeline's ``_hash_probe`` order.
    """

    name = "HashJoin"

    def __init__(self, left: VecOp, right: ScanOp, predicate: S.BinOp):
        super().__init__(left, right)
        self.predicate = predicate

    def describe(self) -> str:
        from repro.sql.pretty import expr_sql

        return "%s(%s)" % (self.name, expr_sql(self.predicate))

    def _match(self, left: Batch, rows: List, ctx: _Ctx):
        ctx.stats.hash_joins += 1
        buckets, probe_expr = _hash_build(self.right.alias, rows,
                                          self.predicate)
        idx: List[int] = []
        matched: List = []
        if left.n:           # a bare probe column resolves only over rows
            _, probe = compile_scalar(probe_expr)  # ColumnRef: a vector
            for i, value in enumerate(probe(left, ctx)):
                bucket = buckets.get(value)
                if bucket:
                    for row in bucket:
                        idx.append(i)
                        matched.append(row)
        return idx, matched


class VecNestedLoopOp(_JoinOp):
    """Cross product with the new source (no connecting predicate)."""

    name = "NestedLoop"

    def _match(self, left: Batch, rows: List, ctx: _Ctx):
        ctx.stats.nested_loop_joins += 1
        # Prefix-major: each left row pairs with every source row
        # before the next left row.
        return [i for i in range(left.n) for _ in rows], rows * left.n


# -- ordering ------------------------------------------------------------------


class VecSortOp(VecOp):
    """ORDER BY: sort row positions by key vectors, then gather.

    The sort permutes row positions with Python's stable sort, so tie
    order matches the seed pipeline's ``_order`` exactly; with a
    ``top_k`` bound the result is ``sorted(...)[:k]``, the first rows
    of the seed's one sort.
    """

    name = "Sort"

    def __init__(self, child: VecOp, order_by: Tuple[S.OrderItem, ...],
                 top_k: Optional[int]):
        super().__init__()
        self.child = child
        self.order_by = order_by
        self.top_k = top_k

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        if self.top_k is not None:
            return "TopK(%d, %s)" % (self.top_k, _sort_keys(self.order_by))
        return "%s(%s)" % (self.name, _sort_keys(self.order_by))

    def batch(self, ctx: _Ctx) -> Batch:
        batch = self.child.batch(ctx)
        if batch.n:          # an empty input reads no sort key
            order = sorted(range(batch.n),
                           key=_order_key(self.order_by, batch, ctx.scanned))
            if self.top_k is not None:
                order = order[:self.top_k]
            if order != list(range(batch.n)):
                batch = batch.select(order)
        self.rows_out = batch.n
        return batch


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

    def __init__(self, child: VecOp, aliases: Tuple[str, ...]):
        super().__init__()
        self.child = child
        self.aliases = aliases

    @property
    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(self.aliases))

    def batch(self, ctx: _Ctx) -> Batch:
        batch = self.child.batch(ctx)
        position = {alias: i for i, alias in enumerate(self.aliases)}
        ctx.scanned.sort(
            key=lambda src: position.get(src.alias, len(position)))
        if batch.n:
            rowids = [batch.column(a, "_rowid") for a in self.aliases]
            batch = batch.select(sorted(
                range(batch.n),
                key=lambda i: tuple(vec[i] for vec in rowids)))
        self.rows_out = batch.n
        return batch


# -- row producers -------------------------------------------------------------


class VecProjectOp(RowOp):
    """Projection evaluated column-wise over the input batch.

    Select items compile once at plan time; each item yields one value
    vector (``*`` expands to direct column gathers, constants
    broadcast) and output records assemble row-wise from the zipped
    vectors — the seed pipeline's values, names and order.  A
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
        batch = self.child.batch(ctx)
        stored = self._stored_rows(batch, ctx.scanned) \
            if self._lone_star else None
        if stored is None:
            stored = _project(self.items, self._item_fns, batch, ctx)
        rows, columns = stored
        self.rows_out = len(rows)
        return rows, columns

    def _stored_rows(self, batch: Batch, scanned: List[_ScannedSource]):
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
        rows = list(map(_RECORD, batch.pairs[source.alias]))
        for row in rows:
            if row.fields != columns:
                return None              # a row written behind the API
        return rows, columns


#: the lone ``*`` select list a table scan projects when it cannot hand
#: its stored records through (:meth:`TableScanOp.rows`).
_STAR = (S.SelectItem(S.Star()),)


def _project(items: Tuple[S.SelectItem, ...], item_fns, batch: Batch,
             ctx: _Ctx) -> Tuple[List[Record], Tuple[str, ...]]:
    """The select list over ``batch``: one record per row.

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
    if not batch.n:               # no closure runs on an empty batch
        return [], fields
    vectors = []
    for entry in plan:
        if entry[0] == "star":
            vectors.append(batch.column(entry[1], entry[2]))
        elif entry[0] == "const":
            vectors.append([entry[1](ctx)] * batch.n)
        else:
            vectors.append(entry[1](batch, ctx))
    return [make_record(fields, vals) for vals in zip(*vectors)], fields


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


def _series(compiled, batch: Batch, run) -> List[Any]:
    """One compiled expression's values over ``batch``, in row order
    (none over an empty batch, where the closure does not run)."""
    if not batch.n:
        return []
    is_const, fn = compiled
    return [fn(run)] * batch.n if is_const else fn(batch, run)


def _agg_value(call: S.FuncCall, compiled, batch: Batch, run) -> Any:
    """One aggregate call's value over the rows of ``batch``.

    ``Executor._eval_aggregate``'s semantics, folded in row order with
    the same arithmetic: COUNT(*) counts rows, COUNT(x) drops None,
    SUM of nothing is 0, MIN/MAX of nothing is None, and AVG is the
    exactly-rounded mean of :func:`_avg_state`'s exact total.
    """
    if call.name == "COUNT" and call.arg is None:
        return batch.n
    series = _series(compiled, batch, run)
    if call.name == "COUNT":
        return sum(1 for v in series if v is not None)
    if call.name == "SUM":
        return sum(series) if series else 0
    if call.name == "MAX":
        return max(series) if series else None
    if call.name == "MIN":
        return min(series) if series else None
    if call.name == "AVG":
        return _avg_final(_avg_state(series))
    raise SQLExecutionError("unknown aggregate %r" % call.name)


def _groups(key_fns, batch: Batch, run):
    """Bucket row positions by key tuple in **first-encounter order**:
    the ``(key, positions)`` groups, positions ascending."""
    key_vecs = [_series(fn, batch, run) for fn in key_fns]
    buckets: Dict[Tuple, List[int]] = {}
    for i, key in enumerate(zip(*key_vecs)):
        got = buckets.get(key)
        if got is None:
            buckets[key] = got = []
        got.append(i)
    return list(buckets.items())


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
    """Aggregate / GROUP BY / HAVING evaluation over the input batch.

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
        batch = self.child.batch(ctx)
        if self.group_by:
            return self._grouped(batch, ctx)
        return self._whole(batch, ctx)

    def _fold(self, call: S.FuncCall, batch: Batch, ctx: _Ctx) -> Any:
        return _agg_value(call, self._arg_fns[id(call)], batch, ctx)

    def _whole(self, batch: Batch, ctx: _Ctx):
        def value(expr: S.Expr) -> Any:
            # Executor._eval_aggregate's structure, over the batch.
            if isinstance(expr, S.FuncCall):
                return self._fold(expr, batch, ctx)
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

    def _grouped(self, batch: Batch, ctx: _Ctx):
        groups = _groups(self._key_fns, batch, ctx)
        self.groups_in = len(groups)
        if any(isinstance(item.expr, S.Star) for item in self.items):
            raise SQLExecutionError(
                "* cannot appear in a grouped select list")
        fields = _output_columns(self.items, ctx.executor)

        rows: List[Record] = []
        for _, positions in groups:
            group = batch.select(positions)
            first_env = _first_env(batch, positions)
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
            return self._fold(expr, group, ctx)
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


# -- lowering -----------------------------------------------------------------


def lower(plan: L.LogicalPlan) -> RowOp:
    """Lower an optimized logical plan to a physical operator tree;
    every choice was made by the optimizer."""
    return _lower_rows(plan)


def _with_est(op: PhysicalOp, plan: L.LogicalPlan) -> PhysicalOp:
    """Copy the optimizer's estimates onto the physical operator."""
    op.est_rows = plan.est_rows
    op.est_cost = plan.est_cost
    return op


def _lower_rows(plan: L.LogicalPlan) -> RowOp:
    if isinstance(plan, L.Limit):
        return _with_est(LimitOp(_lower_rows(plan.child), plan.count), plan)
    if isinstance(plan, L.Distinct):
        return _with_est(DistinctOp(_lower_rows(plan.child)), plan)
    if isinstance(plan, L.Project):
        child = _lower_envs(plan.child)
        star = plan.items[0].expr if len(plan.items) == 1 else None
        if isinstance(child, TableScanOp) and not child.predicates \
                and isinstance(star, S.Star) \
                and star.alias in (None, child.alias):
            # A lone star over one unfiltered base-table scan: the scan
            # answers the query itself (TableScanOp.rows).
            return child
        return _with_est(VecProjectOp(child, plan.items), plan)
    if isinstance(plan, L.Aggregate):
        return _with_est(VecAggregateOp(_lower_envs(plan.child),
                                        plan.items, plan.group_by,
                                        plan.having), plan)
    if isinstance(plan, L.Sort):
        child = plan.child
        if isinstance(child, L.Aggregate):
            return _with_est(RowSortOp(_lower_rows(child), plan.order_by),
                             plan)
        raise TypeError("Sort over %r cannot be lowered here" % (child,))
    raise TypeError("expected a row-producing logical node, got %r"
                    % (plan,))


def _lower_envs(plan: L.LogicalPlan) -> VecOp:
    """Lower a row-stream segment."""
    if isinstance(plan, L.Sort):
        return _with_est(VecSortOp(_lower_envs(plan.child), plan.order_by,
                                   plan.top_k), plan)
    if isinstance(plan, L.Restore):
        return _with_est(VecRestoreOp(_lower_envs(plan.child),
                                      plan.aliases), plan)
    if isinstance(plan, L.Filter):
        op = VecFilterOp(_lower_envs(plan.child), plan.predicates)
    elif isinstance(plan, L.Join):
        left = _lower_envs(plan.left)
        right = _lower_scan(plan.right)
        if plan.strategy == "hash":
            op = VecHashJoinOp(left, right, plan.predicate)
        else:
            op = VecNestedLoopOp(left, right)
    elif isinstance(plan, L.Scan):
        op = _lower_scan(plan)
    else:
        raise TypeError("expected a row-stream logical node, got %r"
                        % (plan,))
    return _with_est(op, plan)


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
    return _with_est(FullScanOp(scan.table, scan.alias, scan.predicates),
                     scan)


# -- plan driver ---------------------------------------------------------------


class PhysicalPlan:
    """An executable physical plan (root operator + execution entry).

    The root is any row producer: a projection, an aggregate, LIMIT or
    DISTINCT above one, or a table scan answering a lone ``*``."""

    def __init__(self, root: RowOp):
        self.root = root

    def execute(self, executor, params: Dict[str, Any],
                stats) -> QueryResult:
        rows, columns = self.root.rows(_Ctx(executor, params, stats))
        return QueryResult(rows, columns, stats)
