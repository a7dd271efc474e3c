"""Query planning: logical plans, the rule optimizer, physical operators.

The subsystem behind ``ExecutorOptions(planner=True)``:

* :mod:`repro.sql.plan.logical` — the logical plan IR and the
  ``Select`` -> logical-tree builder;
* :mod:`repro.sql.plan.optimizer` — HAVING and predicate pushdown,
  index-scan selection and cost-based join ordering;
* :mod:`repro.sql.plan.physical` — the executable operators, one
  batch family with per-operator statistics: each returns its whole
  output as one column batch;
* :mod:`repro.sql.plan.vector` — the column batch and the expression
  compiler every operator evaluates through;
* :mod:`repro.sql.plan.explain` — the EXPLAIN tree printer
  (format reference: ``docs/explain.md``);
* :mod:`repro.sql.plan.examples` — the executable EXPLAIN examples
  shared by ``docs/explain.md``, the golden tests and
  ``tools/check_docs.py``.

``plan_select`` is the one-call facade the executor uses; every stage
reads the planner fields of
:class:`~repro.sql.executor.ExecutorOptions`.

Invariants every rewrite must preserve (pinned by
``tests/sql/test_planner_equivalence.py``, the cost-planner suite and
the differential fuzzer):

* **storage order** — unordered scans enumerate rows in insertion
  order, and join output is probe-major (probe order, then bucket
  order); the paper's ``Order`` axiom (Fig. 9) leans on this.
* **tie order** — ORDER BY sorts are stable, and ORDER BY ... LIMIT
  is ``sorted(...)[:limit]`` in every serial mode, so serial modes
  agree even on keys that do not compare consistently (NaN).
* **first-encounter group order** — GROUP BY emits groups in the order
  their keys first appear in the (storage-ordered) input; the grouped
  analogue of storage order.
* **no rows between runs** — a plan the statement cache keeps holds no
  row once a run ends: scans and join build sides live in the run's
  locals (``tests/sql/test_statement_cache.py``).
* **nothing evaluated over no rows** — an operator whose input is empty
  returns before it calls a compiled closure or reads a sort key, as
  the seed pipeline evaluates nothing over no rows; a bare column name
  resolves against the rows it is given, and over none it would raise.
"""

from __future__ import annotations

from typing import Optional

from repro.sql import ast as S
from repro.sql.catalog import Catalog
from repro.sql.executor import ExecutorOptions
from repro.sql.plan.explain import render
from repro.sql.plan.logical import LogicalPlan, build_logical
from repro.sql.plan.optimizer import optimize
from repro.sql.plan.physical import PhysicalPlan, lower

__all__ = [
    "LogicalPlan",
    "PhysicalPlan",
    "build_logical",
    "lower",
    "optimize",
    "plan_select",
    "render",
]


def plan_select(select: S.Select, catalog: Catalog,
                options: Optional[ExecutorOptions] = None) -> PhysicalPlan:
    """Build, optimize and lower the plan for one SELECT."""
    logical = build_logical(select)
    optimized = optimize(logical, catalog, options)
    return PhysicalPlan(lower(optimized))
