"""An in-memory relational engine for executing QBS-generated queries.

The paper's performance evaluation (Fig. 14) runs the original
imperative fragments and the QBS-transformed queries against a real
DBMS behind Hibernate.  This package is that substrate: a small but
honest SQL engine with

* a lexer/parser for the SQL subset QBS emits (SELECT with DISTINCT,
  multi-table FROM, WHERE conjunctions, IN subqueries, aggregates,
  COUNT(*) comparisons, GROUP BY / HAVING, ORDER BY including the
  hidden ``_rowid`` storage order, LIMIT, named parameters);
* a catalog of tables with insertion-ordered rows and hash indexes;
* a query planner (:mod:`repro.sql.plan`) with an explicit logical plan
  IR, a rule optimizer that pushes selection predicates into scans,
  chooses index scans for equality lookups, and — crucially for
  Fig. 14c — orders equality joins into build/probe hash-join chains
  (O(n)) rather than nested loops (O(n²)), plus an EXPLAIN printer;
* a statement cache: ``Database.execute`` parses and plans each
  distinct statement once and reuses the plan while the tables it
  reads are unchanged, as a database does for prepared statements;
* an executor with per-query statistics (rows scanned, index probes)
  and per-operator cardinalities that the benchmarks report alongside
  wall-clock time; the seed single-pass pipeline remains available as
  ``ExecutorOptions(planner=False)``.

The engine preserves insertion order for unordered scans, which is the
"record order in the database" that the ``Order`` function of Fig. 9
relies on; GROUP BY emits groups in first-encounter order, the grouped
analogue of the same guarantee.
"""

from repro.sql.database import Database, QueryResult
from repro.sql.errors import SQLError, SQLParseError, SQLExecutionError
from repro.sql.executor import ExecutorOptions

__all__ = [
    "Database",
    "ExecutorOptions",
    "QueryResult",
    "SQLError",
    "SQLParseError",
    "SQLExecutionError",
]
