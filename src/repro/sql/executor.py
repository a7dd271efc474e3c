"""Query execution: plan-then-execute, with the seed pipeline as a mode.

The default path parses a SELECT into a **logical plan**, optimizes it
(predicate pushdown, index-scan selection, hash-join-chain ordering —
see :mod:`repro.sql.plan`) and runs the resulting physical operators.
This reproduces — now as explicit, EXPLAIN-able plan choices — the
optimizations the paper credits the database with (Sec. 7.2):

* **selection pushdown** — single-source WHERE conjuncts filter during
  the scan, using a hash index when one exists and the predicate is an
  equality with a constant;
* **hash joins** — an equality predicate between two sources turns the
  pairing into a build/probe hash join (O(n + m)) instead of a nested
  loop (O(n * m)); this is the asymptotic difference behind Fig. 14c,
  and the planner chains it across any number of aliases;
* **aggregate short-circuit** — COUNT/SUM/MAX/MIN queries return a
  single value without materialising entity objects, the effect behind
  Fig. 14d; with GROUP BY, groups are produced in first-encounter
  order (the ordered-relation semantics of the engine).

``ExecutorOptions(planner=False)`` keeps the seed single-pass pipeline
as the engine's oracle: one planned engine, one independent reference
implementation, asserted row/column/stats-identical by the equivalence
suites and the differential fuzzer (GROUP BY / HAVING included).

Execution statistics (rows scanned, index probes, join strategies) are
collected per query so benchmarks can report work alongside time; the
physical operators additionally record per-operator cardinalities that
``EXPLAIN ... analyze`` surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sql import ast as S
from repro.sql.catalog import Catalog, Table
from repro.sql.errors import SQLExecutionError
from repro.tor.values import Record

#: One in-flight row: alias -> (rowid, record).
Env = Dict[str, Tuple[int, Record]]


@dataclass
class ExecutionStats:
    rows_scanned: int = 0
    index_probes: int = 0
    hash_joins: int = 0
    nested_loop_joins: int = 0
    index_scans: int = 0
    full_scans: int = 0


@dataclass
class ExecutorOptions:
    """Execution options: the oracle switch and optimizer rule toggles.
    The planner reads them too (:func:`repro.sql.plan.plan_select`).

    ``planner``
        Plan-then-execute through :mod:`repro.sql.plan` (the default).
        ``False`` runs the seed single-pass pipeline, the oracle every
        planned mode is pinned row/column/stats-identical to.
    ``index_scans`` / ``hash_joins``
        Optimizer rule toggles, used by the planner benchmarks to
        measure each rule's contribution.  Ignored by the seed path
        (which always applies both, as it always did).
    ``cost_based``
        Plan with the statistics-driven cost model (the default):
        Selinger join-order search, cost-driven access paths, and
        ``est_rows``/``cost`` EXPLAIN annotations.  ``False`` is the
        greedy FROM-order planner exactly as PR 3 built it.  Both
        modes are pinned row/column/stats-identical to the seed
        pipeline.
    ``vectorized``
        Inert: batch execution is the only planned engine, so this
        selects nothing and nothing reads it.  It stays constructible
        because ``perfbench/workloads.py`` still passes it; it goes
        once that no longer does.
    """

    planner: bool = True
    index_scans: bool = True
    hash_joins: bool = True
    cost_based: bool = True
    vectorized: bool = False


@dataclass
class QueryResult:
    """Rows plus metadata returned by :meth:`Database.execute`."""

    rows: List[Record]
    columns: Tuple[str, ...]
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: the query's span tree (:class:`repro.obs.trace.Span`) when the
    #: query ran with ``Database.execute(..., trace=True)`` or under an
    #: ambient trace; None otherwise.  Excluded from equality — tracing
    #: must never make two otherwise-identical results compare unequal.
    trace: Optional[Any] = field(default=None, compare=False, repr=False)
    #: the query's sampling profiler
    #: (:class:`repro.obs.profile.Profiler`) when the query ran with
    #: ``Database.execute(..., profile=...)``; None otherwise.  Same
    #: equality exclusion as ``trace``.
    profile: Optional[Any] = field(default=None, compare=False, repr=False)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError(
                "scalar() needs exactly one row and one column, got %dx%d"
                % (len(self.rows), len(self.columns)))
        return self.rows[0][self.columns[0]]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class Executor:
    """Executes parsed SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog,
                 options: Optional[ExecutorOptions] = None):
        self.catalog = catalog
        self.options = options or ExecutorOptions()

    # -- public entry ----------------------------------------------------------

    def execute(self, select: S.Select,
                params: Optional[Dict[str, Any]] = None,
                stats: Optional[ExecutionStats] = None) -> QueryResult:
        params = params or {}
        stats = stats if stats is not None else ExecutionStats()
        if self.options.planner:
            plan = self._plan(select)
            return plan.execute(self, params, stats)
        return self._execute_legacy(select, params, stats)

    def explain(self, select: S.Select,
                params: Optional[Dict[str, Any]] = None,
                analyze: bool = False, timing: bool = False) -> str:
        """EXPLAIN: the physical plan as an operator tree.

        ``analyze=True`` executes the plan first so every line carries
        the operator's observed output cardinality.  ``timing=True``
        (implies analyze) runs that execution under a trace so each
        line also carries the operator's wall-clock ``time=``; off by
        default, keeping the output byte-identical to the seed's.
        """
        from repro.obs import trace as obs_trace
        from repro.sql.plan import render

        plan = self._plan(select)
        if analyze or timing:
            if timing and not obs_trace.enabled():
                with obs_trace.Span("explain"):
                    plan.execute(self, params or {}, ExecutionStats())
            else:
                plan.execute(self, params or {}, ExecutionStats())
        return render(plan.root, analyze=analyze or timing, timing=timing)

    def _plan(self, select: S.Select):
        # Imported at call time: perfbench wraps the module attribute
        # ``repro.sql.plan.plan_select`` to count plans.
        from repro.sql.plan import plan_select

        return plan_select(select, self.catalog, self.options)

    # -- the seed pipeline (ExecutorOptions(planner=False)) --------------------

    def _execute_legacy(self, select: S.Select, params: Dict[str, Any],
                        stats: ExecutionStats) -> QueryResult:
        sources = [self._resolve_source(src, params, stats)
                   for src in select.sources]
        conjuncts = _flatten_and(select.where)
        pushed, join_preds, residual = _classify(
            conjuncts, [(source.alias, source.columns) for source in sources])

        # Scan each source with its pushed-down predicates.
        scanned: List[_ScannedSource] = []
        for source in sources:
            preds = pushed.get(source.alias, [])
            scanned.append(self._scan(source, preds, params, stats))

        envs = self._join_all(scanned, join_preds, params, stats)

        for pred in residual:
            envs = [env for env in envs
                    if _truthy(self._eval(pred, env, params, stats))]

        if select.group_by or select.having is not None:
            return self._grouped_result(select, envs, params, stats)
        if _has_aggregate(select.items):
            return self._aggregate_result(select, envs, params, stats)

        envs = self._order(select.order_by, envs, scanned)
        if select.order_by and select.limit is not None \
                and not select.distinct:
            # ORDER BY + LIMIT keeps the first rows of the one sort
            # before projecting, as the planner's top-k sort does.
            # DISTINCT must see the whole ordered set (duplicates are
            # dropped before LIMIT).
            envs = envs[: select.limit]
        rows, columns = self._project(select.items, envs, scanned, params,
                                      stats)
        if select.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        if select.limit is not None:
            rows = rows[: select.limit]
        return QueryResult(rows=rows, columns=columns, stats=stats)

    # -- sources ------------------------------------------------------------------

    def _resolve_source(self, src: S.Source, params, stats) -> "_Source":
        if isinstance(src, S.TableSource):
            table = self.catalog.table(src.table)
            return _Source(alias=src.alias, table=table,
                           columns=table.columns, rows=None)
        sub = self.execute(src.query, params, stats)
        rows = [(idx, row) for idx, row in enumerate(sub.rows)]
        return _Source(alias=src.alias, table=None, columns=sub.columns,
                       rows=rows)

    def _scan(self, source: "_Source", preds: List[S.Expr], params, stats
              ) -> "_ScannedSource":
        """Produce the filtered row list for one source."""
        index_pred: Optional[Tuple[S.Expr, str, Any]] = None
        other_preds: List[S.Expr] = []
        for pred in preds:
            probe = self._index_probe(pred, source, params)
            if probe is not None and index_pred is None:
                index_pred = (pred,) + probe
            else:
                other_preds.append(pred)

        if source.rows is not None:
            candidate = source.rows
            stats.rows_scanned += len(candidate)
            stats.full_scans += 1
            if index_pred is not None:
                other_preds.insert(0, index_pred[0])
        elif index_pred is not None:
            _, column, value = index_pred
            index = source.table.indexes[column]
            positions = index.lookup(value)
            stats.index_probes += 1
            stats.index_scans += 1
            candidate = [(pos, source.table.rows[pos]) for pos in positions]
            stats.rows_scanned += len(candidate)
        else:
            candidate = list(enumerate(source.table.rows))
            stats.rows_scanned += len(candidate)
            stats.full_scans += 1

        if other_preds:
            filtered = []
            for rowid, record in candidate:
                env = {source.alias: (rowid, record)}
                if all(_truthy(self._eval(p, env, params, stats))
                       for p in other_preds):
                    filtered.append((rowid, record))
            candidate = filtered
        return _ScannedSource(alias=source.alias, columns=source.columns,
                              rows=candidate)

    def _index_probe(self, pred: S.Expr, source: "_Source", params
                     ) -> Optional[Tuple[str, Any]]:
        """Match ``alias.col = constant`` against an existing index."""
        if source.table is None or not isinstance(pred, S.BinOp) \
                or pred.op != "=":
            return None
        for col_side, val_side in ((pred.left, pred.right),
                                   (pred.right, pred.left)):
            if isinstance(col_side, S.ColumnRef) and isinstance(
                    val_side, (S.Literal, S.Param)):
                column = col_side.column
                if column in source.table.indexes:
                    value = val_side.value if isinstance(val_side, S.Literal) \
                        else _param(params, val_side.name)
                    return column, value
        return None

    # -- joins ------------------------------------------------------------------------

    def _join_all(self, scanned: List["_ScannedSource"],
                  join_preds: List["_JoinPred"],
                  params, stats) -> List[Env]:
        if not scanned:
            return [{}]
        envs: List[Env] = [
            {scanned[0].alias: row} for row in scanned[0].rows]
        joined_aliases = {scanned[0].alias}
        remaining = list(join_preds)

        for source in scanned[1:]:
            # Find an equality predicate connecting the joined prefix
            # to this source: that enables a hash join.
            connector = None
            for entry in remaining:
                if {entry.a, entry.b} & joined_aliases \
                        and source.alias in (entry.a, entry.b):
                    connector = entry
                    break
            if connector is not None:
                remaining.remove(connector)
                envs = self._hash_join(envs, source,
                                       _orient(connector, source.alias),
                                       params, stats)
            else:
                stats.nested_loop_joins += 1
                envs = [dict(env, **{source.alias: row})
                        for env in envs for row in source.rows]
            joined_aliases.add(source.alias)

        # Any join predicates not used as connectors become filters.
        for entry in remaining:
            envs = [env for env in envs
                    if _truthy(self._eval(entry.pred, env, params, stats))]
        return envs

    def _hash_join(self, envs: List[Env], source: "_ScannedSource",
                   pred: S.BinOp, params, stats) -> List[Env]:
        """Build a hash table on the new source, probe with ``envs``."""
        stats.hash_joins += 1
        buckets, probe_expr = _hash_build(source.alias, source.rows, pred)
        return _hash_probe(self, envs, buckets, probe_expr, source.alias,
                           params, stats)

    # -- ordering / projection -------------------------------------------------------------

    def _order(self, order_by: Tuple[S.OrderItem, ...], envs: List[Env],
               scanned: List["_ScannedSource"]) -> List[Env]:
        if not order_by:
            return envs

        def key(env: Env):
            parts = []
            for item in order_by:
                value = self._order_value(item.column, env, scanned)
                parts.append(_ReverseAware(value, item.descending))
            return tuple(parts)

        return sorted(envs, key=key)

    def _order_value(self, column: S.ColumnRef, env: Env,
                     scanned: List["_ScannedSource"]) -> Any:
        alias = column.alias
        if alias is None:
            alias = self._alias_for_column(column.column, scanned)
        if alias not in env:
            raise SQLExecutionError("unknown alias %r in ORDER BY" % alias)
        rowid, record = env[alias]
        if column.column == "_rowid":
            return rowid
        try:
            return record[column.column]
        except KeyError:
            raise SQLExecutionError(
                "no column %r in source %r" % (column.column, alias)
            ) from None

    @staticmethod
    def _alias_for_column(column: str,
                          scanned: List["_ScannedSource"]) -> str:
        for source in scanned:
            if column in source.columns or column == "_rowid":
                return source.alias
        raise SQLExecutionError("cannot resolve column %r" % column)

    def _project(self, items: Tuple[S.SelectItem, ...], envs: List[Env],
                 scanned: List["_ScannedSource"], params, stats
                 ) -> Tuple[List[Record], Tuple[str, ...]]:
        columns: List[str] = []
        extractors = []

        for item in items:
            if isinstance(item.expr, S.Star):
                star_sources = [s for s in scanned
                                if item.expr.alias in (None, s.alias)]
                if not star_sources:
                    raise SQLExecutionError("unknown alias %r in select list"
                                            % item.expr.alias)
                for source in star_sources:
                    for column in source.columns:
                        name = self._fresh_name(column, columns)
                        columns.append(name)
                        extractors.append(
                            lambda env, a=source.alias, c=column:
                            env[a][1][c])
            else:
                name = item.as_name or _default_name(item.expr)
                name = self._fresh_name(name, columns)
                columns.append(name)
                extractors.append(
                    lambda env, e=item.expr:
                    self._eval(e, env, params, stats))

        rows = []
        for env in envs:
            rows.append(Record({name: fn(env)
                                for name, fn in zip(columns, extractors)}))
        return rows, tuple(columns)

    @staticmethod
    def _fresh_name(name: str, existing: List[str]) -> str:
        if name not in existing:
            return name
        suffix = 2
        while "%s_%d" % (name, suffix) in existing:
            suffix += 1
        return "%s_%d" % (name, suffix)

    # -- aggregates ------------------------------------------------------------------------

    def _aggregate_result(self, select: S.Select, envs: List[Env], params,
                          stats) -> QueryResult:
        columns: List[str] = []
        values: List[Any] = []
        for item in select.items:
            if isinstance(item.expr, S.Star):
                raise SQLExecutionError("* cannot mix with aggregates")
            name = item.as_name or _default_name(item.expr)
            columns.append(self._fresh_name(name, columns))
            values.append(self._eval_aggregate(item.expr, envs, params,
                                               stats))
        row = Record(dict(zip(columns, values)))
        return QueryResult(rows=[row], columns=tuple(columns), stats=stats)

    def _grouped_result(self, select: S.Select, envs: List[Env], params,
                        stats) -> QueryResult:
        """GROUP BY / HAVING over joined environments.

        Groups come out in **first-encounter order** of their key
        tuples; HAVING filters each group before its select items are
        evaluated (:meth:`_eval_group`); ORDER BY then sorts the output
        rows by output column name, stably, followed by DISTINCT and
        LIMIT.  Without group keys the query is a whole-input
        aggregation, where HAVING, ORDER BY, DISTINCT and LIMIT do not
        apply — the planner's semantics exactly.
        """
        if not select.group_by:
            return self._aggregate_result(select, envs, params, stats)
        groups: Dict[Tuple, List[Env]] = {}
        for env in envs:
            key = tuple(self._eval(e, env, params, stats)
                        for e in select.group_by)
            groups.setdefault(key, []).append(env)
        columns: List[str] = []
        for item in select.items:
            if isinstance(item.expr, S.Star):
                raise SQLExecutionError(
                    "* cannot appear in a grouped select list")
            name = item.as_name or _default_name(item.expr)
            columns.append(self._fresh_name(name, columns))

        rows = []
        for group in groups.values():
            if select.having is not None and not _truthy(
                    self._eval_group(select.having, group, params, stats)):
                continue
            values = [self._eval_group(item.expr, group, params, stats)
                      for item in select.items]
            rows.append(Record(dict(zip(columns, values))))

        def key(row: Record):
            parts = []
            for item in select.order_by:
                name = item.column.column
                if name not in row.fields:
                    raise SQLExecutionError(
                        "ORDER BY on a grouped query must name an output "
                        "column (no column %r)" % name)
                parts.append(_ReverseAware(row[name], item.descending))
            return tuple(parts)

        if select.order_by:
            rows = sorted(rows, key=key)
        if select.distinct:
            rows = list(dict.fromkeys(rows))
        if select.limit is not None:
            rows = rows[: select.limit]
        return QueryResult(rows=rows, columns=tuple(columns), stats=stats)

    def _eval_group(self, expr: S.Expr, group: List[Env], params,
                    stats) -> Any:
        """Evaluate a select/HAVING expression over one group.

        Aggregate calls see the whole group, AND/OR/NOT combine with
        the evaluator's short-circuits, and any other subtree is
        evaluated on the group's first environment (group keys are
        constant within a group).
        """
        if isinstance(expr, S.FuncCall):
            return self._eval_aggregate(expr, group, params, stats)
        if isinstance(expr, S.BinOp):
            if expr.op == "AND":
                return (_truthy(self._eval_group(expr.left, group, params,
                                                 stats))
                        and _truthy(self._eval_group(expr.right, group,
                                                     params, stats)))
            if expr.op == "OR":
                return (_truthy(self._eval_group(expr.left, group, params,
                                                 stats))
                        or _truthy(self._eval_group(expr.right, group,
                                                    params, stats)))
            return _apply_op(expr.op,
                             self._eval_group(expr.left, group, params,
                                              stats),
                             self._eval_group(expr.right, group, params,
                                              stats))
        if isinstance(expr, S.NotOp):
            return not _truthy(self._eval_group(expr.expr, group, params,
                                                stats))
        return self._eval(expr, group[0], params, stats)

    def _eval_aggregate(self, expr: S.Expr, envs: List[Env], params,
                        stats) -> Any:
        if isinstance(expr, S.FuncCall):
            if expr.name == "COUNT":
                if expr.arg is None:
                    return len(envs)
                return sum(1 for env in envs
                           if self._eval(expr.arg, env, params, stats)
                           is not None)
            series = [self._eval(expr.arg, env, params, stats)
                      for env in envs]
            if expr.name == "SUM":
                return sum(series) if series else 0
            if expr.name == "MAX":
                return max(series) if series else None
            if expr.name == "MIN":
                return min(series) if series else None
            if expr.name == "AVG":
                return _avg_final(_avg_state(series))
            raise SQLExecutionError("unknown aggregate %r" % expr.name)
        if isinstance(expr, S.BinOp):
            left = self._eval_aggregate(expr.left, envs, params, stats)
            right = self._eval_aggregate(expr.right, envs, params, stats)
            return _apply_op(expr.op, left, right)
        if isinstance(expr, S.Literal):
            return expr.value
        if isinstance(expr, S.Param):
            return _param(params, expr.name)
        raise SQLExecutionError("unsupported aggregate expression %r"
                                % (expr,))

    # -- scalar evaluation -------------------------------------------------------------------

    def _eval(self, expr: S.Expr, env: Env, params, stats) -> Any:
        if isinstance(expr, S.Literal):
            return expr.value
        if isinstance(expr, S.Param):
            return _param(params, expr.name)
        if isinstance(expr, S.ColumnRef):
            return self._column_value(expr, env)
        if isinstance(expr, S.BinOp):
            if expr.op == "AND":
                return (_truthy(self._eval(expr.left, env, params, stats))
                        and _truthy(self._eval(expr.right, env, params,
                                               stats)))
            if expr.op == "OR":
                return (_truthy(self._eval(expr.left, env, params, stats))
                        or _truthy(self._eval(expr.right, env, params,
                                              stats)))
            return _apply_op(expr.op,
                             self._eval(expr.left, env, params, stats),
                             self._eval(expr.right, env, params, stats))
        if isinstance(expr, S.NotOp):
            return not _truthy(self._eval(expr.expr, env, params, stats))
        if isinstance(expr, S.InSubquery):
            return self._eval_in(expr, env, params, stats)
        if isinstance(expr, S.RowRef):
            if expr.alias not in env:
                raise SQLExecutionError("unknown alias %r" % expr.alias)
            return env[expr.alias][1]
        raise SQLExecutionError("unsupported expression %r" % (expr,))

    def _column_value(self, ref: S.ColumnRef, env: Env) -> Any:
        if ref.alias is not None:
            if ref.alias not in env:
                # `alias` with no such source may be a whole-row name.
                raise SQLExecutionError("unknown alias %r" % ref.alias)
            rowid, record = env[ref.alias]
            if ref.column == "_rowid":
                return rowid
            try:
                return record[ref.column]
            except KeyError:
                raise SQLExecutionError(
                    "no column %r in source %r" % (ref.column, ref.alias)
                ) from None
        # Bare name: a source alias means a whole row (IN subject);
        # otherwise resolve the column against the visible sources.
        if ref.column in env:
            return env[ref.column][1]
        for alias, (rowid, record) in env.items():
            if ref.column == "_rowid":
                return rowid
            if ref.column in record.fields:
                return record[ref.column]
        raise SQLExecutionError("cannot resolve column %r" % ref.column)

    def _eval_in(self, expr: S.InSubquery, env: Env, params, stats) -> bool:
        subject = self._eval(expr.subject, env, params, stats)
        result = self.execute(expr.query, params, stats)
        found = False
        for row in result.rows:
            if isinstance(subject, Record):
                if subject == row:
                    found = True
                    break
                # Compare on common columns (the paper's whole-record
                # containment after projection differences).
                common = [c for c in subject.fields if c in row.fields]
                if common and all(subject[c] == row[c] for c in common):
                    found = True
                    break
            else:
                if len(result.columns) != 1:
                    raise SQLExecutionError(
                        "IN with a scalar subject needs a single-column "
                        "subquery")
                if row[result.columns[0]] == subject:
                    found = True
                    break
        return (not found) if expr.negated else found


# -- helpers --------------------------------------------------------------------


@dataclass
class _Source:
    alias: str
    table: Optional[Table]
    columns: Tuple[str, ...]
    rows: Optional[List[Tuple[int, Record]]]  # None for base tables


class _ScannedSource:
    """A FROM source after its scan: alias, columns and the ``(rowid,
    record)`` rows that passed its pushed-down predicates."""

    __slots__ = ("alias", "columns", "rows")

    def __init__(self, alias: str, columns: Tuple[str, ...],
                 rows: List[Tuple[int, Record]]):
        self.alias = alias
        self.columns = columns
        self.rows = rows


@dataclass
class _JoinPred:
    """One ``a.x = b.y`` WHERE conjunct, with its resolved side owners.

    ``a``/``b`` are the two aliases (sorted); ``left_alias`` /
    ``right_alias`` name the alias each *syntactic side* of the
    predicate belongs to (None when a side does not resolve to a single
    alias), which :func:`_orient` reads.
    """

    a: str
    b: str
    pred: S.BinOp
    left_alias: Optional[str]
    right_alias: Optional[str]


def _classify(conjuncts: Sequence[S.Expr],
              sources: Sequence[Tuple[str, Tuple[str, ...]]]
              ) -> Tuple[Dict[str, List[S.Expr]], List[_JoinPred],
                         List[S.Expr]]:
    """Split WHERE conjuncts into pushed / join / residual groups.

    ``sources`` holds each FROM source's ``(alias, columns)`` in FROM
    order.  Shared by the seed pipeline and the planner, so both push,
    join and filter the same conjuncts.
    """
    aliases = {alias for alias, _ in sources}
    by_column: Dict[str, str] = {}
    for alias, columns in sources:
        for column in columns:
            # Ambiguous bare columns resolve to the first source.
            by_column.setdefault(column, alias)

    def owner(side: S.Expr) -> Optional[str]:
        used = _aliases_used(side, aliases, by_column)
        return next(iter(used)) if used is not None and len(used) == 1 \
            else None

    pushed: Dict[str, List[S.Expr]] = {}
    join_preds: List[_JoinPred] = []
    residual: List[S.Expr] = []
    for pred in conjuncts:
        used = _aliases_used(pred, aliases, by_column)
        if used is None:
            residual.append(pred)
        elif len(used) <= 1:
            alias = next(iter(used), sources[0][0])
            pushed.setdefault(alias, []).append(pred)
        elif len(used) == 2 and isinstance(pred, S.BinOp) \
                and pred.op == "=":
            a, b = sorted(used)
            join_preds.append(_JoinPred(a, b, pred, owner(pred.left),
                                        owner(pred.right)))
        else:
            residual.append(pred)
    return pushed, join_preds, residual


def _orient(entry: _JoinPred, build_alias: str) -> S.BinOp:
    """The join predicate with its sides where :func:`_hash_build`
    looks for the build column: swapped iff the build alias owns the
    left side without naming it.  Every mode orients a hash join's
    connector here, whatever the join order."""
    pred = entry.pred
    if isinstance(pred.left, S.ColumnRef) and pred.left.alias == build_alias:
        return pred
    if entry.left_alias == build_alias and entry.right_alias != build_alias:
        return S.BinOp(pred.op, pred.right, pred.left)
    return pred


def _hash_build(alias: str, rows: List[Tuple[int, Record]], pred: S.BinOp
                ) -> Tuple[Dict[Any, List[Tuple[int, Record]]], S.Expr]:
    """The build phase of a hash join: bucket the new source's rows.

    ``alias`` names the new source and ``pred`` comes oriented
    (:func:`_orient`): the left side is the build column when it is
    qualified with ``alias``, the right side otherwise.  Returns the
    buckets and the probe-side expression.  Shared by the seed pipeline
    and the planner's hash join.
    """
    left_expr, right_expr = pred.left, pred.right
    if not (isinstance(left_expr, S.ColumnRef)
            and isinstance(right_expr, S.ColumnRef)):
        raise SQLExecutionError("hash join needs column = column")
    if left_expr.alias == alias:
        probe_expr, build_expr = right_expr, left_expr
    else:
        probe_expr, build_expr = left_expr, right_expr

    buckets: Dict[Any, List[Tuple[int, Record]]] = {}
    for rowid, record in rows:
        buckets.setdefault(record[build_expr.column], []).append(
            (rowid, record))
    # A key unequal to itself (NaN) matches no row under the engine's
    # ``=``, as the nested loop finds, but a dict lookup matches the
    # identical object before it compares: leave such keys out.
    for key in [key for key in buckets if key != key]:
        del buckets[key]
    return buckets, probe_expr


def _hash_probe(executor: "Executor", envs: List[Env], buckets,
                probe_expr: S.Expr, build_alias: str, params,
                stats) -> List[Env]:
    """The probe phase: match ``envs`` against prebuilt buckets.

    Output order is probe-major (env order, then bucket order).
    """
    out: List[Env] = []
    append = out.append
    for env in envs:
        value = executor._eval(probe_expr, env, params, stats)
        rows = buckets.get(value)
        if not rows:
            continue
        if len(env) == 1:
            # Single-alias probe side: build the two-entry env
            # directly instead of copying the probe env per match.
            ((probe_alias, probe_row),) = env.items()
            for row in rows:
                append({probe_alias: probe_row, build_alias: row})
        else:
            for row in rows:
                merged = dict(env)
                merged[build_alias] = row
                append(merged)
    return out


class _ReverseAware:
    """Sort key wrapper that inverts comparisons for DESC columns."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_ReverseAware") -> bool:
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseAware) and self.value == other.value


def _flatten_and(expr: Optional[S.Expr]) -> List[S.Expr]:
    if expr is None:
        return []
    if isinstance(expr, S.BinOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _aliases_used(expr: S.Expr, aliases, by_column) -> Optional[set]:
    """The set of source aliases an expression touches; None = unknown."""
    used = set()

    def visit(e: S.Expr) -> bool:
        if isinstance(e, S.Literal) or isinstance(e, S.Param):
            return True
        if isinstance(e, S.ColumnRef):
            if e.alias is not None:
                used.add(e.alias)
                return True
            if e.column in aliases:
                used.add(e.column)
                return True
            if e.column in by_column:
                used.add(by_column[e.column])
                return True
            return False
        if isinstance(e, S.RowRef):
            used.add(e.alias)
            return True
        if isinstance(e, S.BinOp):
            return visit(e.left) and visit(e.right)
        if isinstance(e, S.NotOp):
            return visit(e.expr)
        if isinstance(e, S.InSubquery):
            return visit(e.subject)  # subquery runs in its own scope
        if isinstance(e, S.FuncCall):
            return False  # aggregates are handled separately
        return False

    if not visit(expr):
        return None
    return used


def _truthy(value: Any) -> bool:
    return bool(value)


def _apply_op(op: str, left: Any, right: Any) -> Any:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise SQLExecutionError("unsupported operator %r" % op)


def _avg_state(series: Sequence[Any]) -> Tuple[Any, int]:
    """AVG's state: ``(exact running total, count)``.

    Finite floats accumulate as :class:`fractions.Fraction`, so the
    total is *exact* and :func:`_avg_final` rounds the mean once, at
    the end: the exactly-rounded mean, whatever the order or the
    magnitudes of the values, in the seed pipeline and the planner
    alike.  Integer series keep an integer total (identical to the
    historical ``sum(series)``), and non-finite floats (inf, nan)
    degrade the total to a float so they propagate exactly as a plain
    sum would.
    """
    import math
    from fractions import Fraction

    total: Any = 0
    for value in series:
        if isinstance(value, float) and math.isfinite(value):
            value = Fraction(value)
        total = total + value
    return total, len(series)


def _avg_final(state: Tuple[Any, int]) -> Any:
    """Finish an AVG state: the exactly-rounded mean (None when the
    series was empty)."""
    from fractions import Fraction

    total, count = state
    if not count:
        return None
    if isinstance(total, Fraction):
        return float(total / count)
    return total / count


def _default_name(expr: S.Expr) -> str:
    if isinstance(expr, S.ColumnRef):
        return expr.column
    if isinstance(expr, S.FuncCall):
        return expr.name.lower()
    return "expr"


def _param(params: Dict[str, Any], name: str) -> Any:
    if name not in params:
        raise SQLExecutionError("unbound parameter :%s" % name)
    return params[name]


def _has_aggregate(items: Tuple[S.SelectItem, ...]) -> bool:
    def contains(e) -> bool:
        if isinstance(e, S.FuncCall):
            return True
        if isinstance(e, S.BinOp):
            return contains(e.left) or contains(e.right)
        if isinstance(e, S.NotOp):
            return contains(e.expr)
        return False

    return any(not isinstance(item.expr, S.Star) and contains(item.expr)
               for item in items)
