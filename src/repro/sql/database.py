"""The public database facade."""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sql import ast as S
from repro.sql.catalog import Catalog, Table
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import (
    ExecutionStats,
    Executor,
    ExecutorOptions,
    QueryResult,
)
from repro.sql.parser import parse
from repro.tor import ast as T

#: per-query totals and latency, recorded once per Database.execute
#: through series bound here, so a query resolves no label key.
_QUERIES = obs_metrics.counter(
    "repro_queries_total", "queries executed, by engine mode")
_QUERY_SECONDS = obs_metrics.histogram(
    "repro_query_seconds", "query wall-clock latency")
_QUERIES_BY_MODE = {mode: _QUERIES.series(mode=mode)
                    for mode in ("planner", "legacy")}
_QUERY_LATENCY = _QUERY_SECONDS.series()

#: the ambient trace span (a C-level contextvar read).
_current_span = obs_trace.current_span


class Database:
    """An in-memory relational database.

    >>> db = Database()
    >>> _ = db.create_table("users", ["id", "name"])
    >>> db.insert("users", {"id": 1, "name": "alice"})
    >>> [r.name for r in db.execute("SELECT * FROM users")]
    ['alice']

    ``options`` selects the execution mode: the planning engine by
    default, the seed single-pass pipeline with
    ``ExecutorOptions(planner=False)``.  The planner's modes are pinned
    row/column/stats-identical to the seed pipeline by the regression
    suites; ``view`` opens a second mode over the same data for exactly
    that kind of comparison.

    Statements are prepared once per handle: ``execute`` parses each
    distinct SQL string once and, under the planner, reuses its
    physical plan for as long as the tables it names are unchanged
    (the statement cache; see :meth:`execute`).
    """

    def __init__(self, options: Optional[ExecutorOptions] = None):
        self.catalog = Catalog()
        self.executor = Executor(self.catalog, options)
        #: the statement cache: SQL text -> its parsed AST, the names
        #: it reads and its idle physical plan.
        self._statements: Dict[str, _Statement] = {}

    # -- schema / data -----------------------------------------------------

    def create_table(self, name: str, columns: Iterable[str]) -> Table:
        return self.catalog.create_table(name, columns)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def insert(self, table: str, row: Dict[str, Any]) -> None:
        self.catalog.table(table).insert(row)

    def insert_many(self, table: str, rows: Iterable[Dict[str, Any]]) -> None:
        self.catalog.table(table).insert_many(rows)

    def create_index(self, table: str, column: str) -> None:
        self.catalog.table(table).create_index(column)

    def analyze(self, table: Optional[str] = None) -> None:
        """Refresh optimizer statistics (ANALYZE): one table, or all.

        Statistics (row counts, per-column NDV/min/max — see
        :mod:`repro.sql.stats`) are maintained incrementally by
        ``insert``/``insert_many``; call this after loading rows
        behind the table API to bring them back in sync.
        """
        self.catalog.analyze(table)

    def view(self, options: Optional[ExecutorOptions] = None) -> "Database":
        """A second engine over this database's catalog.

        The returned :class:`Database` shares tables and indexes with
        this one but executes under its own ``options`` — the standard
        way to compare execution modes on identical data (equivalence
        tests, the planner benchmarks):

        >>> db = Database()
        >>> _ = db.create_table("users", ["id", "name"])
        >>> db.insert("users", {"id": 1, "name": "alice"})
        >>> legacy = db.view(ExecutorOptions(planner=False))
        >>> greedy = db.view(ExecutorOptions(cost_based=False))
        >>> sql = "SELECT u.name FROM users u"
        >>> (db.execute(sql).rows == legacy.execute(sql).rows
        ...     == greedy.execute(sql).rows)
        True
        """
        other = Database(options)
        other.catalog = self.catalog
        other.executor.catalog = self.catalog
        return other

    # -- querying --------------------------------------------------------------

    def execute(self, sql: str,
                params: Optional[Dict[str, Any]] = None,
                trace: bool = False,
                profile: Optional[Any] = None) -> QueryResult:
        """Execute one SELECT statement through the statement cache.

        The first execution of a SQL string parses it and records the
        tables and parameters it names, subqueries included.  Every
        execution first checks ``params``: a parameter the statement
        uses but ``params`` lacks raises
        :class:`~repro.sql.errors.SQLExecutionError` before anything
        runs, whatever the data or the access path.  Under the planner
        the entry also keeps the statement's
        :class:`~repro.sql.plan.PhysicalPlan`, reused while this
        handle's catalog keeps its ``version`` and every named table its
        ``data_version``.  Those counters move on create/drop, insert,
        ``create_index`` and ``analyze``, and no plan reads a parameter
        value, so a reused plan is exactly the plan ``plan_select``
        would build now.  A run checks the plan out and puts it back
        only after a clean run: a re-entrant or concurrent run of the
        same statement plans a copy of its own, and a run that raises
        leaves no plan behind.  ``Executor.execute`` and ``explain``
        still plan on every call.

        ``trace=True`` runs the query under a trace span: every
        physical operator opens a child span (timed, tagged with its
        description and observed rows), and the root comes back as
        ``result.trace``.  The same happens when an ambient trace is
        already active (e.g. a traced service job), in which case the
        query span also parents into it.  Off by default — the
        untraced path is the seed execution, bit for bit.

        ``profile`` runs the query under the sampling profiler
        (:mod:`repro.obs.profile`): pass ``True`` for a fresh
        :class:`~repro.obs.profile.Profiler` or an existing instance
        to accumulate across queries (started only if idle).  Samples
        attribute to the query's spans, so profiling implies the
        traced path; the profiler comes back as ``result.profile``
        (and the span tree as ``result.trace``).  With ``profile``
        unset (the default) this path does not run at all — results,
        EXPLAIN, traces and metrics are byte-identical, pinned by
        ``tests/obs/test_profile.py``.
        """
        statement = self._statements.get(sql)
        if statement is None:
            statement = _Statement(parse(sql))
            self._statements[sql] = statement
        params = params or {}
        for name in statement.params:
            if name not in params:
                raise SQLExecutionError("unbound parameter :%s" % name)
        mode = "planner" if self.executor.options.planner else "legacy"
        started = time.perf_counter()
        if profile is not None and profile is not False:
            from repro.obs import profile as obs_profile

            profiler = obs_profile.Profiler() if profile is True \
                else profile
            root = obs_trace.span("query", sql=sql, mode=mode)
            if not root:
                root = obs_trace.Span("query", sql=sql, mode=mode)
            with profiler.sampling():
                with root:
                    result = self._run(statement, params)
            root.tag(rows=len(result.rows))
            result.trace = root
            result.profile = profiler
        elif trace or _current_span() is not None:
            root = obs_trace.span("query", sql=sql, mode=mode)
            if not root:
                root = obs_trace.Span("query", sql=sql, mode=mode)
            with root:
                result = self._run(statement, params)
            root.tag(rows=len(result.rows))
            result.trace = root
        else:
            result = self._run(statement, params)
        _QUERY_LATENCY.observe(time.perf_counter() - started)
        _QUERIES_BY_MODE[mode].inc()
        return result

    def _run(self, statement: "_Statement",
             params: Dict[str, Any]) -> QueryResult:
        """Run one statement, on its cached plan when that is current.

        A plan is current while the catalog is the object it was built
        for, at the same ``version``, and each named table keeps the
        ``data_version`` recorded then (None for a name no table had).
        """
        executor = self.executor
        if not executor.options.planner:
            return executor.execute(statement.select, params)
        catalog = executor.catalog
        tables = catalog.tables
        try:
            # list.pop is atomic: no two runs ever hold the same plan.
            built_for, plan = statement.idle.pop()
        except IndexError:
            plan = None
        else:
            built_in, built_at, versions = built_for
            if built_in is not catalog or built_at != catalog.version:
                plan = None
            else:
                for name, version in zip(statement.tables, versions):
                    table = tables.get(name)
                    if version != (None if table is None
                                   else table.data_version):
                        plan = None
                        break
        if plan is None:
            built_for = (catalog, catalog.version, tuple(
                tables[name].data_version if name in tables else None
                for name in statement.tables))
            plan = executor._plan(statement.select)
        result = plan.execute(executor, params, ExecutionStats())
        if not statement.idle:
            statement.idle.append((built_for, plan))
        return result

    def explain(self, sql: str, params: Optional[Dict[str, Any]] = None,
                analyze: bool = False, timing: bool = False) -> str:
        """EXPLAIN one SELECT: the optimizer's physical operator tree.

        With ``analyze=True`` the query is executed and each operator
        line reports its observed output cardinality; ``timing=True``
        (implies analyze) additionally times each operator under a
        trace and prints ``time=``.
        """
        return self.executor.explain(parse(sql), params, analyze=analyze,
                                     timing=timing)

    # -- TOR integration -----------------------------------------------------------

    def tor_db(self):
        """Adapter for the TOR evaluator / kernel interpreter.

        Resolves ``Query`` nodes by running their SQL through the
        engine, so a kernel fragment can execute against real tables.
        """

        def resolve(query: T.QueryOp):
            result = self.execute(query.sql)
            if len(result.columns) == 1 and len(query.schema) == 1:
                column = result.columns[0]
                return tuple(row[column] for row in result.rows)
            return tuple(result.rows)

        return resolve


class _Statement:
    """One statement-cache entry.

    ``tables`` and ``params`` are the table and parameter names the
    statement uses, subqueries included, each once in statement order.
    ``idle`` holds at most one ``(built_for, plan)`` pair that no run is
    using.  ``built_for`` is ``(catalog, catalog version, data_version
    per name in tables)`` as they were when the plan was built: plain
    values and the catalog, never a table, so a dropped table is not
    kept alive.
    """

    __slots__ = ("select", "tables", "params", "idle")

    def __init__(self, select: S.Select):
        self.select = select
        tables: List[str] = []
        params: List[str] = []
        _collect_names(select, tables, params)
        self.tables = tuple(dict.fromkeys(tables))
        self.params = tuple(dict.fromkeys(params))
        self.idle: List[Tuple[tuple, Any]] = []


def _collect_names(node: Any, tables: List[str], params: List[str]) -> None:
    """Append every table and parameter name under ``node``, walking
    into FROM and IN subqueries."""
    if isinstance(node, S.TableSource):
        tables.append(node.table)
    elif isinstance(node, S.Param):
        params.append(node.name)
    if isinstance(node, tuple):
        children = node
    elif dataclasses.is_dataclass(node):
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    else:
        return
    for child in children:
        _collect_names(child, tables, params)
