"""Query planning: logical plans, the rule optimizer, physical operators.

The subsystem behind ``ExecutorOptions(planner=True)``:

* :mod:`repro.sql.plan.logical` — the logical plan IR and the
  ``Select`` -> logical-tree builder;
* :mod:`repro.sql.plan.optimizer` — predicate pushdown, index-scan
  selection, hash-join-chain ordering and the partition-parallel
  Gather rewrite;
* :mod:`repro.sql.plan.physical` — the executable operators, one
  batch family with per-operator statistics, run serially or per
  partition under ``ExecutorOptions(parallel=K)``;
* :mod:`repro.sql.plan.vector` — the column batch and the expression
  compiler every operator evaluates through;
* :mod:`repro.sql.plan.parallel` — the worker-pool substrate
  partition tasks run on, with its ``pool → serial`` ladder;
* :mod:`repro.sql.plan.explain` — the EXPLAIN tree printer
  (format reference: ``docs/explain.md``);
* :mod:`repro.sql.plan.examples` — the executable EXPLAIN examples
  shared by ``docs/explain.md``, the golden tests and
  ``tools/check_docs.py``.

``plan_select`` is the one-call facade the executor uses; every stage
reads the planner fields of
:class:`~repro.sql.executor.ExecutorOptions`.

Invariants every rewrite must preserve (pinned by
``tests/sql/test_planner_equivalence.py`` and
``tests/sql/test_parallel_equivalence.py``):

* **storage order** — unordered scans enumerate rows in insertion
  order, and join output is probe-major (probe order, then bucket
  order); the paper's ``Order`` axiom (Fig. 9) leans on this.
* **tie order** — ORDER BY sorts are stable, and ORDER BY ... LIMIT
  is ``sorted(...)[:limit]`` in every serial mode, so serial modes
  agree even on keys that do not compare consistently (NaN).
* **first-encounter group order** — GROUP BY emits groups in the order
  their keys first appear in the (storage-ordered) input; the grouped
  analogue of storage order.
* **partition transparency** — a partitioned chain splits the leftmost
  scan into contiguous row ranges (chunked into batches like any other
  row stream) and merges in partition-index order, which reproduces
  the three orders above bit for bit; shared work (scans, hash-table
  builds) is counted in the engine statistics exactly once, and
  per-partition counters merge in partition-index order.
  ``parallel=K`` is therefore row/column/stats-identical to the serial
  plan for every K.
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
    return PhysicalPlan(lower(optimized, options))
