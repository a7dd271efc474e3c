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

from dataclasses import dataclass
from typing import List, Tuple

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
    """One rendered example: its slug names the doc snippet, ``text``
    is its ``EXPLAIN ... analyze`` rendering."""

    slug: str
    title: str
    sql: str
    text: str = ""


#: (slug, title, sql) — rendered by render_examples.
_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("index-scan", "Index scan with a residual filter",
     "SELECT p.login FROM participant p WHERE p.id = 4 AND p.role_id = 1"),
    ("point-lookup", "Point lookup: the scan is the plan",
     "SELECT * FROM participant p WHERE p.id = 4"),
    ("join-chain", "Three-table hash-join chain",
     "SELECT p.login, d.descriptor_name "
     "FROM participant p, role r, role_descriptor d "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id"),
    ("group-by", "GROUP BY with HAVING",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING COUNT(*) > 2"),
    ("cost-reorder", "Cost-based join reordering with order restore",
     "SELECT d.descriptor_name, p.login "
     "FROM role_descriptor d, role r, participant p "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id"),
    ("having-pushdown", "HAVING conjunct over a group key moves to WHERE",
     "SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING p.role_id > 0 AND COUNT(*) > 2"),
)


def render_examples(cost_based: bool = True) -> List[ExplainExample]:
    """Render every example against a fresh example database.

    ``cost_based=False`` renders the same fixtures under the greedy
    planner (``ExecutorOptions(cost_based=False)``) — the
    compatibility mode the golden tests pin against the pre-cost plan
    shapes.
    """
    view = example_database().view(ExecutorOptions(cost_based=cost_based))
    return [ExplainExample(slug=slug, title=title, sql=sql,
                           text=view.explain(sql, analyze=True))
            for slug, title, sql in _SPECS]


def example(slug: str) -> ExplainExample:
    """One rendered example by slug (for tests and docs tooling)."""
    for ex in render_examples():
        if ex.slug == slug:
            return ex
    raise KeyError(slug)
