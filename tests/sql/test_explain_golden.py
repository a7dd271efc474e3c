"""Golden-string tests for EXPLAIN output.

The plans come from :mod:`repro.sql.plan.examples` — the same fixtures
``docs/explain.md`` embeds and ``tools/check_docs.py`` re-renders — so
a plan-shape change fails here with a readable diff *and* flags every
doc snippet that needs regenerating.  The golden strings are spelled
out verbatim: the point is to pin the exact rendering (tree glyphs,
``[rows=...]`` annotations, the cost-based optimizer's
``est_rows=``/``cost=`` estimates), not just its general shape.

Two golden sets: ``GOLDEN`` pins the default (cost-based) planner,
``GREEDY_GOLDEN`` pins ``ExecutorOptions(cost_based=False)`` — the
pre-cost plan shapes, unchanged from PR 4, which the greedy mode must
keep reproducing exactly.
"""

import os

import pytest

from repro.sql.plan.examples import render_examples

GOLDEN = {
    "index-scan": """\
Project(p.login)  [rows=1, est_rows=0.3, cost=1]
 └─ IndexScan(participant AS p, id = 4) filter=1  [rows=1, est_rows=0.3, cost=1]""",

    # A lone * over one unfiltered scan: the scan is the whole plan.
    "point-lookup": """\
IndexScan(participant AS p, id = 4)  [rows=1, est_rows=1, cost=1]""",

    "join-chain": """\
Project(p.login, d.descriptor_name)  [rows=36, est_rows=36, cost=69]
 └─ HashJoin(d.role_id = r.role_id)  [rows=36, est_rows=36, cost=69]
     ├─ HashJoin(p.role_id = r.role_id)  [rows=9, est_rows=9, cost=21]
     │   ├─ FullScan(participant AS p)  [rows=9, est_rows=9, cost=9]
     │   └─ FullScan(role AS r)  [rows=3, est_rows=3, cost=3]
     └─ FullScan(role_descriptor AS d)  [rows=12, est_rows=12, cost=12]""",

    "group-by": """\
GroupBy(p.role_id) having COUNT(*) > 2  [rows=3, est_rows=3, cost=12]
 └─ FullScan(participant AS p)  [rows=9, est_rows=9, cost=9]""",

    "cost-reorder": """\
Project(d.descriptor_name, p.login)  [rows=36, est_rows=36, cost=105]
 └─ Restore(d, r, p)  [rows=36, est_rows=36, cost=105]
     └─ HashJoin(d.role_id = r.role_id)  [rows=36, est_rows=36, cost=69]
         ├─ HashJoin(p.role_id = r.role_id)  [rows=9, est_rows=9, cost=21]
         │   ├─ FullScan(role AS r)  [rows=3, est_rows=3, cost=3]
         │   └─ FullScan(participant AS p)  [rows=9, est_rows=9, cost=9]
         └─ FullScan(role_descriptor AS d)  [rows=12, est_rows=12, cost=12]""",

    "having-pushdown": """\
GroupBy(p.role_id) having COUNT(*) > 2  [rows=2, est_rows=3, cost=12]
 └─ FullScan(participant AS p) filter=1  [rows=6, est_rows=9, cost=9]""",
}

#: The pre-cost (PR 4) golden strings, verbatim: the greedy mode must
#: keep producing exactly these plans for the original fixtures.
GREEDY_GOLDEN = {
    "index-scan": """\
Project(p.login)  [rows=1]
 └─ IndexScan(participant AS p, id = 4) filter=1  [rows=1]""",

    # Added with the lone-star rule; greedy mode lowers it the same way.
    "point-lookup": """\
IndexScan(participant AS p, id = 4)  [rows=1]""",

    "join-chain": """\
Project(p.login, d.descriptor_name)  [rows=36]
 └─ HashJoin(d.role_id = r.role_id)  [rows=36]
     ├─ HashJoin(p.role_id = r.role_id)  [rows=9]
     │   ├─ FullScan(participant AS p)  [rows=9]
     │   └─ FullScan(role AS r)  [rows=3]
     └─ FullScan(role_descriptor AS d)  [rows=12]""",

    "group-by": """\
GroupBy(p.role_id) having COUNT(*) > 2  [rows=3]
 └─ FullScan(participant AS p)  [rows=9]""",

    # The reordering fixture in greedy mode: the plain FROM-order
    # chain, no Restore, no estimates.
    "cost-reorder": """\
Project(d.descriptor_name, p.login)  [rows=36]
 └─ HashJoin(p.role_id = r.role_id)  [rows=36]
     ├─ HashJoin(d.role_id = r.role_id)  [rows=12]
     │   ├─ FullScan(role_descriptor AS d)  [rows=12]
     │   └─ FullScan(role AS r)  [rows=3]
     └─ FullScan(participant AS p)  [rows=9]""",
}


@pytest.fixture(scope="module")
def rendered():
    return {ex.slug: ex for ex in render_examples()}


@pytest.fixture(scope="module")
def rendered_greedy():
    return {ex.slug: ex for ex in render_examples(cost_based=False)}


def test_every_example_has_a_golden(rendered):
    assert set(rendered) == set(GOLDEN)


@pytest.mark.parametrize("slug", sorted(GOLDEN))
def test_explain_golden(slug, rendered):
    assert rendered[slug].text == GOLDEN[slug], slug


@pytest.mark.parametrize("slug", sorted(GREEDY_GOLDEN))
def test_explain_golden_greedy_mode(slug, rendered_greedy):
    """``cost_based=False`` reproduces the pre-cost plans exactly."""
    assert rendered_greedy[slug].text == GREEDY_GOLDEN[slug], slug


def test_docs_embed_the_rendered_plans(rendered):
    """docs/explain.md must contain every fixture's SQL and plan
    verbatim (the in-repo half of ``tools/check_docs.py``)."""
    doc_path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "docs", "explain.md")
    with open(doc_path) as handle:
        document = handle.read()
    for ex in rendered.values():
        assert ex.sql in document, ex.slug
        assert ex.text in document, ex.slug
