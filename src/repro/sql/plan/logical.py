"""Logical query plans.

``build_logical`` turns a parsed :class:`~repro.sql.ast.Select` into a
tree of relational operators — the *what* of the query, before any
access-path or join-algorithm decision is made:

    Limit
     └─ Distinct
         └─ Project
             └─ Sort
                 └─ Filter            (WHERE, unsplit)
                     └─ CrossJoin     (FROM order, no strategy yet)
                         ├─ Scan participant AS t0
                         └─ Scan role AS t1

Aggregation (explicit GROUP BY, or an aggregate call anywhere in the
select list) replaces the Project with an Aggregate carrying the group
keys, the HAVING predicate and the output items.

The rule-based optimizer (:mod:`repro.sql.plan.optimizer`) rewrites this
tree — pushing filters into scans, choosing index scans, ordering joins
into hash-join chains — and the result lowers to physical operators
(:mod:`repro.sql.plan.physical`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sql import ast as S
from repro.sql.executor import _has_aggregate


class LogicalPlan:
    """Base class for logical operators.

    ``est_rows`` / ``est_cost`` are the cost-based optimizer's
    annotations (estimated output cardinality and cumulative cost,
    computed from :mod:`repro.sql.stats`); they stay ``None`` in greedy
    mode (``ExecutorOptions(cost_based=False)``), are copied onto the
    physical operators at lowering time, and surface in EXPLAIN as
    ``est_rows=`` / ``cost=``.
    """

    __slots__ = ()

    est_rows: Optional[float] = None
    est_cost: Optional[float] = None

    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()


@dataclass
class Scan(LogicalPlan):
    """One FROM entry: a base table or a subquery, with its alias."""

    alias: str
    table: Optional[str] = None          # base-table name
    subquery: Optional[S.Select] = None  # FROM (SELECT ...) AS alias
    #: single-source predicates pushed down by the optimizer.
    predicates: Tuple[S.Expr, ...] = ()
    #: (column, probe value expr, the chosen predicate) when the
    #: optimizer selected an index scan; the predicate is one of
    #: ``predicates`` and is consumed by the probe at lowering time.
    index: Optional[Tuple[str, S.Expr, S.Expr]] = None


@dataclass
class Join(LogicalPlan):
    """Pairing of a joined prefix with one more source.

    ``strategy`` is filled by the optimizer: ``"hash"`` when an equality
    predicate connects ``right`` to the prefix (``predicate`` holds it),
    ``"nested"`` for the cross-product fallback.
    """

    left: LogicalPlan
    right: Scan
    strategy: str = "nested"             # "hash" | "nested"
    predicate: Optional[S.BinOp] = None  # the hash-join equality

    def children(self):
        return (self.left, self.right)


@dataclass
class Filter(LogicalPlan):
    """Residual predicates evaluated over joined rows."""

    child: LogicalPlan
    predicates: Tuple[S.Expr, ...] = ()

    def children(self):
        return (self.child,)


@dataclass
class Restore(LogicalPlan):
    """Re-establish the pinned FROM-order row order.

    The cost-based optimizer may join sources in an order that differs
    from the FROM clause; the resulting environment *set* is identical,
    but its enumeration order is leftmost-major in the *chosen* order.
    ``Restore`` sorts the environments by their rowid tuple taken in
    FROM order — exactly the storage-order enumeration the seed
    pipeline produces — so everything above (projection order, group
    first-encounter order, sort tie order) is oblivious to the
    reordering below.  ``aliases`` is the FROM-order alias tuple.
    """

    child: LogicalPlan
    aliases: Tuple[str, ...] = ()

    def children(self):
        return (self.child,)


@dataclass
class Aggregate(LogicalPlan):
    """GROUP BY / aggregate evaluation (terminal row producer)."""

    child: LogicalPlan
    items: Tuple[S.SelectItem, ...]
    group_by: Tuple[S.Expr, ...] = ()
    having: Optional[S.Expr] = None

    def children(self):
        return (self.child,)


@dataclass
class Sort(LogicalPlan):
    """ORDER BY over joined rows (before projection, like the executor)."""

    child: LogicalPlan
    order_by: Tuple[S.OrderItem, ...] = ()
    #: top-k selection bound when ORDER BY + LIMIT (and no DISTINCT).
    top_k: Optional[int] = None

    def children(self):
        return (self.child,)


@dataclass
class Project(LogicalPlan):
    """Select-list evaluation: joined rows become output records."""

    child: LogicalPlan
    items: Tuple[S.SelectItem, ...] = ()

    def children(self):
        return (self.child,)


@dataclass
class Distinct(LogicalPlan):
    child: LogicalPlan

    def children(self):
        return (self.child,)


@dataclass
class Limit(LogicalPlan):
    child: LogicalPlan
    count: int = 0

    def children(self):
        return (self.child,)


def build_logical(select: S.Select) -> LogicalPlan:
    """Build the canonical logical tree for one SELECT."""
    plan: LogicalPlan = _scan_for(select.sources[0])
    for source in select.sources[1:]:
        plan = Join(left=plan, right=_scan_for(source))

    if select.where is not None:
        plan = Filter(plan, predicates=(select.where,))

    grouped = bool(select.group_by) or select.having is not None \
        or _has_aggregate(select.items)
    if grouped:
        plan = Aggregate(plan, items=select.items,
                         group_by=select.group_by, having=select.having)
        if not select.group_by:
            # Whole-input aggregation is terminal: ORDER BY / DISTINCT /
            # LIMIT are no-ops on the single output row and the seed
            # pipeline ignores them — the planned path must match it.
            return plan
        if select.order_by:
            plan = Sort(plan, order_by=select.order_by)
        if select.distinct:
            plan = Distinct(plan)
        if select.limit is not None:
            plan = Limit(plan, count=select.limit)
        return plan

    if select.order_by:
        top_k = select.limit if (select.limit is not None
                                 and not select.distinct) else None
        plan = Sort(plan, order_by=select.order_by, top_k=top_k)
    plan = Project(plan, items=select.items)
    if select.distinct:
        plan = Distinct(plan)
    if select.limit is not None:
        plan = Limit(plan, count=select.limit)
    return plan


def _scan_for(source: S.Source) -> Scan:
    if isinstance(source, S.TableSource):
        return Scan(alias=source.alias, table=source.table)
    return Scan(alias=source.alias, subquery=source.query)
