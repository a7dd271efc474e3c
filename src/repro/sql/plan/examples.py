"""Executable EXPLAIN examples: one source for docs and tests.

``docs/explain.md`` embeds the rendered plans below verbatim;
``tests/sql/test_explain_golden.py`` pins them as golden strings, and
``tools/check_docs.py`` re-renders them and fails if the document has
drifted from what the engine actually prints.  Change a plan shape
here (or in the optimizer) and the golden test + docs check will point
at every place that needs updating.

The example database is tiny and fully deterministic so rendered
``analyze`` cardinalities are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions


def example_database() -> Database:
    """The deterministic three-table database the examples run on."""
    db = Database()
    db.create_table("participant", ("id", "login", "role_id"))
    db.create_table("role", ("role_id", "role_name"))
    db.create_table("role_descriptor",
                    ("id", "role_id", "descriptor_name"))
    db.create_index("participant", "id")
    db.create_index("role_descriptor", "role_id")
    db.insert_many("participant", (
        {"id": i, "login": "user%d" % i, "role_id": i % 3}
        for i in range(9)))
    db.insert_many("role", (
        {"role_id": i, "role_name": "role%d" % i} for i in range(3)))
    db.insert_many("role_descriptor", (
        {"id": i, "role_id": i % 3, "descriptor_name": "rd%d" % i}
        for i in range(12)))
    return db


@dataclass
class ExplainExample:
    """One rendered example: its slug names the doc snippet."""

    slug: str
    title: str
    sql: str
    options: Optional[ExecutorOptions]
    analyze: bool
    text: str = ""


#: (slug, title, sql, options, analyze) — rendered by render_examples.
_SPECS: Tuple[Tuple[str, str, str, Optional[ExecutorOptions], bool], ...] = (
    ("index-scan", "Index scan with a residual filter",
     "SELECT p.login FROM participant p WHERE p.id = 4 AND p.role_id = 1",
     None, True),
    ("point-lookup", "Point lookup: the scan is the plan",
     "SELECT * FROM participant p WHERE p.id = 4",
     None, True),
    ("join-chain", "Three-table hash-join chain",
     "SELECT p.login, d.descriptor_name "
     "FROM participant p, role r, role_descriptor d "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id",
     None, True),
    ("group-by", "GROUP BY with HAVING",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING COUNT(*) > 2",
     None, True),
    ("partitioned-join", "Partition-parallel join (parallel=2)",
     "SELECT p.login, r.role_name FROM participant p, role r "
     "WHERE p.role_id = r.role_id",
     ExecutorOptions(parallel=2), True),
    ("partial-aggregate", "Partition-parallel partial aggregation",
     "SELECT COUNT(*) AS n, SUM(p.id) AS tot FROM participant p "
     "WHERE p.role_id = 1",
     ExecutorOptions(parallel=2), True),
    ("partial-group-by", "Partition-parallel GROUP BY",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id",
     ExecutorOptions(parallel=2), True),
    ("having-fallback", "Gather fallback (AND short-circuits in HAVING)",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING COUNT(*) > 2 AND COUNT(*) < 9",
     ExecutorOptions(parallel=2), False),
    ("cost-reorder", "Cost-based join reordering with order restore",
     "SELECT d.descriptor_name, p.login "
     "FROM role_descriptor d, role r, participant p "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id",
     None, True),
    ("merge-sort", "Partition-parallel ORDER BY (sort + k-way merge)",
     "SELECT p.login FROM participant p ORDER BY p.login DESC LIMIT 5",
     ExecutorOptions(parallel=2), True),
    ("having-pushdown", "HAVING conjunct over a group key moves to WHERE",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING p.role_id > 0 AND COUNT(*) > 2",
     None, True),
)


def render_examples(cost_based: bool = True) -> List[ExplainExample]:
    """Render every example against a fresh example database.

    ``cost_based=False`` renders the same fixtures under the greedy
    planner (``ExecutorOptions(cost_based=False)``) — the
    compatibility mode the golden tests pin against the pre-cost plan
    shapes.
    """
    db = example_database()
    out = []
    for slug, title, sql, options, analyze in _SPECS:
        effective = options or ExecutorOptions()
        if not cost_based:
            effective = replace(effective, cost_based=False)
        view = db.view(effective)
        text = view.explain(sql, analyze=analyze)
        out.append(ExplainExample(slug=slug, title=title, sql=sql,
                                  options=options, analyze=analyze,
                                  text=text))
    return out


def example(slug: str) -> ExplainExample:
    """One rendered example by slug (for tests and docs tooling)."""
    for ex in render_examples():
        if ex.slug == slug:
            return ex
    raise KeyError(slug)
