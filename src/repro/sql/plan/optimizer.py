"""Logical-plan optimizer: rule rewrites plus a cost-based planner.

The rewrites, applied in order:

1. **HAVING pushdown** — HAVING conjuncts that reference only group
   keys filter whole groups at once, so they move into the WHERE pool
   and filter *rows* before grouping (every row of a group shares the
   group key, so a group survives iff each of its rows does).
   Conjuncts containing aggregates, subqueries or non-key columns stay
   in HAVING.

2. **Predicate pushdown** — the WHERE conjunction is split; conjuncts
   that mention a single source move into that source's :class:`Scan`,
   conjuncts of the form ``a.x = b.y`` become join-predicate candidates,
   everything else stays in a residual :class:`Filter` above the joins.

3. **Index-scan selection** — a pushed ``alias.col = constant/param``
   conjunct whose column carries a hash index turns the scan into an
   index probe (``Scan.index``).  In greedy mode the *first* such
   conjunct wins (the seed rule); in cost-based mode the probe with
   the lowest estimated cost (``rows / ndv(col)``) wins, with the
   full scan as the alternative — an equality probe is never estimated
   costlier than the full scan it replaces, so the cost rule agrees
   with the seed rule whenever both apply, by construction.

4. **Join ordering** — greedy mode joins sources left-deep in FROM
   order (the seed behaviour); cost-based mode runs a Selinger-style
   dynamic program over left-deep orders, scoring each join by the
   estimated intermediate cardinality (``|L|·|R| / max(ndv)`` for an
   equality connector, the full cross product otherwise) from the
   table statistics (:mod:`repro.sql.stats`).  Equal-cost orders
   tie-break toward FROM order.  When the chosen order differs from
   FROM order, a :class:`~repro.sql.plan.logical.Restore` node above
   the chain re-sorts environments into the pinned FROM-order
   enumeration, so the reordering is invisible to every operator above
   it (rows, columns, group order and engine statistics all match the
   seed pipeline exactly).

The rules read the planner fields of
:class:`~repro.sql.executor.ExecutorOptions`.
``ExecutorOptions(cost_based=False)`` reproduces the greedy planner's
plans exactly; ``cost_based=True`` (the default) additionally annotates
every logical node with ``est_rows`` / ``est_cost``, which lowering
copies onto the physical operators and EXPLAIN prints.  The
classification logic deliberately mirrors the legacy executor's
(`Executor._classify` / `_join_all`), so every mode stays row-for-row
identical to the seed pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sql import ast as S
from repro.sql.catalog import Catalog
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import (
    Executor,
    ExecutorOptions,
    _aliases_used,
    _default_name,
    _flatten_and,
)
from repro.sql.plan import logical as L
from repro.sql.stats import ROWID, TableStats

#: Default selectivities when statistics cannot answer (System R's
#: magic numbers): equality against an unknown-NDV column, range
#: predicates, and anything the estimator does not understand.
DEFAULT_EQ_NDV = 10
RANGE_SELECTIVITY = 1.0 / 3.0
UNKNOWN_SELECTIVITY = 1.0 / 3.0

#: Join-order search switches to the greedy chain beyond this many
#: sources (the DP is O(n·2^n)); QBS-generated queries have 2-4.
MAX_DP_SOURCES = 12


def optimize(plan: L.LogicalPlan, catalog: Catalog,
             options: Optional[ExecutorOptions] = None) -> L.LogicalPlan:
    """Apply the rewrite rules to a freshly built logical tree."""
    options = options or ExecutorOptions()

    # Locate the Filter-over-joins segment the rules operate on.
    #  The builder produces  wrappers* -> [Filter] -> (Join* | Scan).
    wrappers: List[L.LogicalPlan] = []
    node = plan
    while isinstance(node, (L.Limit, L.Distinct, L.Project, L.Sort,
                            L.Aggregate)):
        wrappers.append(node)
        node = node.children()[0]

    conjuncts: List[S.Expr] = []
    if isinstance(node, L.Filter):
        for pred in node.predicates:
            conjuncts.extend(_flatten_and(pred))
        node = node.child

    _push_having(wrappers, conjuncts)

    scans = _collect_scans(node)
    pushed, join_pool, residual = _classify(conjuncts, scans, catalog,
                                            options)

    model = _CostModel(scans, catalog) if options.cost_based else None

    for scan in scans:
        scan.predicates = tuple(pushed.get(scan.alias, ()))
        if options.index_scans:
            if options.cost_based:
                _select_index_cost(scan, catalog)
            else:
                _select_index(scan, catalog)

    from_order = tuple(scan.alias for scan in scans)
    if options.cost_based and _reorder_is_safe(wrappers, conjuncts,
                                               scans, catalog):
        ordered = _search_join_order(scans, join_pool, options, model)
    else:
        ordered = list(scans)
    order_changed = tuple(s.alias for s in ordered) != from_order
    joined = _build_chain(ordered, join_pool, residual, options,
                          orient=options.cost_based)
    if residual:
        joined = L.Filter(joined, predicates=tuple(residual))

    if order_changed:
        joined = L.Restore(joined, aliases=from_order)

    # Re-attach the wrappers, innermost last.
    for wrapper in reversed(wrappers):
        _set_child(wrapper, joined)
        joined = wrapper

    if options.cost_based:
        _annotate(joined, model)
    return joined


def _collect_scans(node: L.LogicalPlan) -> List[L.Scan]:
    """The scans of a left-deep join chain, in FROM order."""
    if isinstance(node, L.Scan):
        return [node]
    if isinstance(node, L.Join):
        return _collect_scans(node.left) + [node.right]
    raise TypeError("unexpected logical node %r under Filter" % (node,))


# -- HAVING pushdown -----------------------------------------------------------


def _push_having(wrappers: Sequence[L.LogicalPlan],
                 conjuncts: List[S.Expr]) -> None:
    """Move group-key-only HAVING conjuncts into the WHERE pool.

    Sound because a group key is constant within its group: a conjunct
    built only from group keys (and literals/params) holds for every
    row of a group or for none, so filtering rows before grouping
    removes exactly the groups HAVING would have removed — and the
    surviving groups keep their first-encounter order.  Only plain
    column-reference keys are matched (conservative).
    """
    agg = next((w for w in wrappers if isinstance(w, L.Aggregate)), None)
    if agg is None or not agg.group_by or agg.having is None:
        return
    keys = {(key.alias, key.column) for key in agg.group_by
            if isinstance(key, S.ColumnRef)}
    remaining: List[S.Expr] = []
    for pred in _flatten_and(agg.having):
        if _references_only_keys(pred, keys):
            conjuncts.append(pred)
        else:
            remaining.append(pred)
    if len(remaining) != len(_flatten_and(agg.having)):
        agg.having = reduce(lambda a, b: S.BinOp("AND", a, b),
                            remaining) if remaining else None


def _references_only_keys(expr: S.Expr, keys) -> bool:
    if isinstance(expr, (S.Literal, S.Param)):
        return True
    if isinstance(expr, S.ColumnRef):
        return (expr.alias, expr.column) in keys
    if isinstance(expr, S.BinOp):
        return (_references_only_keys(expr.left, keys)
                and _references_only_keys(expr.right, keys))
    if isinstance(expr, S.NotOp):
        return _references_only_keys(expr.expr, keys)
    return False  # aggregates, subqueries, row refs stay in HAVING


# -- predicate classification --------------------------------------------------


def _classify(conjuncts: Sequence[S.Expr], scans: Sequence[L.Scan],
              catalog: Catalog, options: ExecutorOptions
              ) -> Tuple[Dict[str, List[S.Expr]],
                         List["_JoinPred"], List[S.Expr]]:
    """Split WHERE conjuncts into pushed / join / residual groups."""
    aliases = {scan.alias for scan in scans}
    by_column: Dict[str, str] = {}
    for scan in scans:
        for column in _scan_columns(scan, catalog):
            by_column.setdefault(column, scan.alias)

    pushed: Dict[str, List[S.Expr]] = {}
    join_pool: List[_JoinPred] = []
    residual: List[S.Expr] = []
    for pred in conjuncts:
        used = _aliases_used(pred, aliases, by_column)
        if used is None:
            residual.append(pred)
        elif len(used) <= 1:
            alias = next(iter(used), scans[0].alias)
            pushed.setdefault(alias, []).append(pred)
        elif len(used) == 2 and isinstance(pred, S.BinOp) \
                and pred.op == "=":
            a, b = sorted(used)
            join_pool.append(_JoinPred(
                a, b, pred,
                _side_alias(pred.left, aliases, by_column),
                _side_alias(pred.right, aliases, by_column)))
        else:
            residual.append(pred)
    return pushed, join_pool, residual


@dataclass
class _JoinPred:
    """One ``a.x = b.y`` WHERE conjunct, with its resolved side owners.

    ``a``/``b`` are the two aliases (sorted); ``left_alias`` /
    ``right_alias`` name which alias each *syntactic side* of the
    predicate belongs to (``None`` when a side could not be resolved
    to a single alias) — the cost-based chain builder uses them to
    orient the predicate so the build side is always syntactically
    recognizable, whatever join order was chosen.
    """

    a: str
    b: str
    pred: S.BinOp
    left_alias: Optional[str]
    right_alias: Optional[str]


def _side_alias(expr: S.Expr, aliases, by_column) -> Optional[str]:
    used = _aliases_used(expr, aliases, by_column)
    if used is not None and len(used) == 1:
        return next(iter(used))
    return None


def _scan_columns(scan: L.Scan, catalog: Catalog) -> Tuple[str, ...]:
    """Column names a scan will expose (for bare-column resolution).

    Matches what the executor resolves at run time: catalog columns for
    base tables, statically expanded select-list names for subqueries.
    """
    if scan.subquery is not None:
        return static_output_columns(scan.subquery, catalog)
    try:
        return catalog.table(scan.table).columns
    except SQLExecutionError:
        return ()


def static_output_columns(select: S.Select, catalog: Catalog
                          ) -> Tuple[str, ...]:
    """Output column names of a SELECT, derived without executing it.

    Reproduces the executor's projection naming (``AS`` names, default
    names, ``*`` expansion in source order, ``_2`` de-duplication).
    """
    source_cols: List[Tuple[str, Tuple[str, ...]]] = []
    for src in select.sources:
        if isinstance(src, S.TableSource):
            try:
                cols = catalog.table(src.table).columns
            except SQLExecutionError:
                cols = ()
            source_cols.append((src.alias, cols))
        else:
            source_cols.append(
                (src.alias, static_output_columns(src.query, catalog)))

    columns: List[str] = []
    for item in select.items:
        if isinstance(item.expr, S.Star):
            for alias, cols in source_cols:
                if item.expr.alias in (None, alias):
                    for column in cols:
                        columns.append(Executor._fresh_name(column, columns))
        else:
            name = item.as_name or _default_name(item.expr)
            columns.append(Executor._fresh_name(name, columns))
    return tuple(columns)


# -- index-scan selection ------------------------------------------------------


def _select_index(scan: L.Scan, catalog: Catalog) -> None:
    """Greedy rule: the first pushed ``col = const`` with an index."""
    if scan.table is None:
        return
    table = catalog.table(scan.table)
    for pred in scan.predicates:
        probe = _index_probe_expr(pred, table.indexes)
        if probe is not None:
            scan.index = probe + (pred,)
            return


def _select_index_cost(scan: L.Scan, catalog: Catalog) -> None:
    """Cost rule: the probe with the lowest estimated rows fetched.

    A probe on column ``c`` fetches an estimated ``rows / ndv(c)``
    bucket; the full scan fetches ``rows``.  Since ``ndv >= 1`` the
    probe never loses, so the choice *whether* to use an index matches
    the greedy rule; the cost only arbitrates *which* index when a
    scan has several indexable conjuncts (highest NDV = smallest
    bucket wins; ties keep the first, the greedy choice).
    """
    if scan.table is None:
        return
    table = catalog.table(scan.table)
    best = None
    best_cost = float(table.stats.row_count)
    for pred in scan.predicates:
        probe = _index_probe_expr(pred, table.indexes)
        if probe is None:
            continue
        ndv = table.stats.ndv(probe[0]) or DEFAULT_EQ_NDV
        cost = table.stats.row_count / max(ndv, 1)
        if best is None or cost < best_cost:
            best, best_cost = probe + (pred,), cost
    if best is not None:
        scan.index = best


def _index_probe_expr(pred: S.Expr, indexes
                      ) -> Optional[Tuple[str, S.Expr]]:
    """Match ``alias.col = constant`` against the table's indexes."""
    if not isinstance(pred, S.BinOp) or pred.op != "=":
        return None
    for col_side, val_side in ((pred.left, pred.right),
                               (pred.right, pred.left)):
        if isinstance(col_side, S.ColumnRef) and isinstance(
                val_side, (S.Literal, S.Param)):
            if col_side.column in indexes:
                return col_side.column, val_side
    return None


# -- the cost model ------------------------------------------------------------


class _CostModel:
    """Cardinality and cost estimation over the query's sources.

    Estimates are classic System R: ``rows / ndv`` for equality
    selections, linear interpolation over [min, max] for ranges when
    the bounds are numeric, ``|L|·|R| / max(ndv_l, ndv_r)`` for
    equality joins, and documented default fractions when statistics
    cannot answer.  Costs follow the C_out convention — the sum of
    estimated intermediate cardinalities plus raw scan sizes — which
    is exactly the quantity a join reordering can shrink.
    """

    def __init__(self, scans: Sequence[L.Scan], catalog: Catalog):
        self.stats_by_alias: Dict[str, Optional[TableStats]] = {}
        self.raw_rows: Dict[str, float] = {}
        for scan in scans:
            if scan.table is not None:
                stats = catalog.table(scan.table).stats
                self.stats_by_alias[scan.alias] = stats
                self.raw_rows[scan.alias] = float(stats.row_count)
            else:
                self.stats_by_alias[scan.alias] = None
                self.raw_rows[scan.alias] = _estimate_select(
                    scan.subquery, catalog)

    # -- per-column statistics --------------------------------------------

    def ndv(self, ref: S.Expr, default_alias: Optional[str] = None
            ) -> Optional[int]:
        if not isinstance(ref, S.ColumnRef):
            return None
        alias = ref.alias
        if alias is None:
            alias = default_alias or self._alias_for_column(ref.column)
        stats = self.stats_by_alias.get(alias)
        if stats is None:
            return None
        return stats.ndv(ref.column)

    def bounds(self, ref: S.ColumnRef,
               default_alias: Optional[str] = None):
        alias = ref.alias if ref.alias is not None \
            else (default_alias or self._alias_for_column(ref.column))
        stats = self.stats_by_alias.get(alias)
        if stats is None:
            return None, None
        return stats.bounds(ref.column)

    def _alias_for_column(self, column: str) -> Optional[str]:
        for alias, stats in self.stats_by_alias.items():
            if stats is not None and (column in stats.columns
                                      or column == "_rowid"):
                return alias
        return None

    # -- selectivity -------------------------------------------------------

    def selectivity(self, pred: S.Expr,
                    default_alias: Optional[str] = None) -> float:
        if isinstance(pred, S.BinOp):
            if pred.op == "AND":
                return (self.selectivity(pred.left, default_alias)
                        * self.selectivity(pred.right, default_alias))
            if pred.op == "OR":
                s1 = self.selectivity(pred.left, default_alias)
                s2 = self.selectivity(pred.right, default_alias)
                return s1 + s2 - s1 * s2
            if pred.op in ("=", "!="):
                eq = self._eq_selectivity(pred, default_alias)
                return eq if pred.op == "=" else 1.0 - eq
            if pred.op in ("<", ">", "<=", ">="):
                return self._range_selectivity(pred, default_alias)
            return UNKNOWN_SELECTIVITY
        if isinstance(pred, S.NotOp):
            return 1.0 - self.selectivity(pred.expr, default_alias)
        return UNKNOWN_SELECTIVITY

    def _eq_selectivity(self, pred: S.BinOp,
                        default_alias: Optional[str]) -> float:
        left_col = isinstance(pred.left, S.ColumnRef)
        right_col = isinstance(pred.right, S.ColumnRef)
        if left_col and right_col:
            return self.join_selectivity(pred)
        ref = pred.left if left_col else pred.right if right_col else None
        if ref is None:
            return UNKNOWN_SELECTIVITY
        ndv = self.ndv(ref, default_alias) or DEFAULT_EQ_NDV
        return 1.0 / max(ndv, 1)

    def _range_selectivity(self, pred: S.BinOp,
                           default_alias: Optional[str]) -> float:
        for ref, value, flip in ((pred.left, pred.right, False),
                                 (pred.right, pred.left, True)):
            if isinstance(ref, S.ColumnRef) and isinstance(value,
                                                           S.Literal):
                lo, hi = self.bounds(ref, default_alias)
                if isinstance(lo, (int, float)) \
                        and isinstance(hi, (int, float)) \
                        and isinstance(value.value, (int, float)) \
                        and hi > lo:
                    frac = (value.value - lo) / float(hi - lo)
                    op = pred.op if not flip else \
                        {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[
                            pred.op]
                    sel = frac if op in ("<", "<=") else 1.0 - frac
                    return min(1.0, max(0.0, sel))
        return RANGE_SELECTIVITY

    def join_selectivity(self, pred: S.BinOp) -> float:
        ndvs = [self.ndv(side) for side in (pred.left, pred.right)]
        known = [n for n in ndvs if n]
        return 1.0 / max(max(known) if known else DEFAULT_EQ_NDV, 1)

    # -- per-scan estimates ------------------------------------------------

    def scan_est(self, scan: L.Scan) -> float:
        est = self.raw_rows[scan.alias]
        for pred in scan.predicates:
            est *= self.selectivity(pred, scan.alias)
        return est

    def scan_cost(self, scan: L.Scan) -> float:
        raw = self.raw_rows[scan.alias]
        if scan.index is not None:
            ndv = self.ndv(S.ColumnRef(scan.alias, scan.index[0]),
                           scan.alias) or DEFAULT_EQ_NDV
            return raw / max(ndv, 1)
        return raw


def _estimate_select(select: S.Select, catalog: Catalog) -> float:
    """Rough output-cardinality estimate for a FROM subquery."""
    est = 1.0
    aliases: Dict[str, Optional[TableStats]] = {}
    for src in select.sources:
        if isinstance(src, S.TableSource):
            try:
                stats = catalog.table(src.table).stats
            except SQLExecutionError:
                stats = None
            aliases[src.alias] = stats
            est *= float(stats.row_count) if stats is not None else 1.0
        else:
            aliases[src.alias] = None
            est *= _estimate_select(src.query, catalog)
    for _ in _flatten_and(select.where):
        est *= UNKNOWN_SELECTIVITY
    if select.group_by or select.having is not None:
        est = max(1.0, est * UNKNOWN_SELECTIVITY)
    if select.limit is not None:
        est = min(est, float(select.limit))
    return est


# -- join ordering -------------------------------------------------------------


def _build_chain(ordered: Sequence[L.Scan],
                 join_pool: List[_JoinPred],
                 residual: List[S.Expr],
                 options: ExecutorOptions,
                 orient: bool = False) -> L.LogicalPlan:
    """Left-deep join chain over ``ordered``; connectors taken greedily.

    With ``orient`` (cost-based mode) each hash-join predicate is
    *oriented*: when the build-side expression is not recognizably the
    build alias's (qualified) syntactic left, the sides are swapped so
    the executor's build/probe assignment (`_hash_build`) recognizes
    the build side regardless of the chosen order.  Greedy mode passes
    predicates through untouched — the seed behaviour.
    """
    plan: L.LogicalPlan = ordered[0]
    joined_aliases = {ordered[0].alias}
    remaining = list(join_pool)
    for scan in ordered[1:]:
        connector = None
        if options.hash_joins:
            for entry in remaining:
                if {entry.a, entry.b} & joined_aliases \
                        and scan.alias in (entry.a, entry.b):
                    connector = entry
                    break
        if connector is not None:
            remaining.remove(connector)
            pred = _orient(connector, scan.alias) if orient \
                else connector.pred
            plan = L.Join(plan, scan, strategy="hash", predicate=pred)
        else:
            plan = L.Join(plan, scan, strategy="nested")
        joined_aliases.add(scan.alias)
    # Join predicates that found no slot in the chain become filters,
    # evaluated after the joins exactly like the legacy executor does.
    residual.extend(entry.pred for entry in remaining)
    return plan


def _reorder_is_safe(wrappers: Sequence[L.LogicalPlan],
                     conjuncts: Sequence[S.Expr],
                     scans: Sequence[L.Scan],
                     catalog: Catalog) -> bool:
    """Veto join reordering when bare column references are ambiguous.

    The executor resolves an unqualified column by iterating the
    environment in *insertion* order — which is the join-chain order,
    not FROM order, and :class:`~repro.sql.plan.logical.Restore` only
    re-sorts the environment list, not each environment's insertion
    order.  A bare column exposed by two or more sources (or a bare
    ``_rowid`` with several sources) would therefore resolve against a
    different table under a reordered chain.  Estimates steer, they
    never change results: such queries keep the FROM-order chain.
    Fully qualified references — everything QBS-generated SQL emits —
    are order-insensitive and keep the search enabled.
    """
    if len(scans) <= 1:
        return True
    bare: set = set()
    for expr in _plan_exprs(wrappers, conjuncts):
        _collect_bare_columns(expr, bare)
    if not bare:
        return True
    owners: Dict[str, int] = {}
    for scan in scans:
        for column in _scan_columns(scan, catalog):
            owners[column] = owners.get(column, 0) + 1
    for column in bare:
        if column == ROWID or owners.get(column, 0) > 1:
            return False
    return True


def _plan_exprs(wrappers: Sequence[L.LogicalPlan],
                conjuncts: Sequence[S.Expr]):
    """Every expression the executor may evaluate against an env."""
    for pred in conjuncts:
        yield pred
    for wrapper in wrappers:
        if isinstance(wrapper, L.Aggregate):
            for item in wrapper.items:
                if not isinstance(item.expr, S.Star):
                    yield item.expr
            for key in wrapper.group_by:
                yield key
            if wrapper.having is not None:
                yield wrapper.having
        elif isinstance(wrapper, L.Sort):
            for item in wrapper.order_by:
                yield item.column
        elif isinstance(wrapper, L.Project):
            for item in wrapper.items:
                if not isinstance(item.expr, S.Star):
                    yield item.expr


def _collect_bare_columns(expr: S.Expr, out: set) -> None:
    """Unqualified column names referenced anywhere in ``expr``.

    Subquery *internals* resolve in their own scope (the engine runs
    uncorrelated subqueries through a nested executor), so only the IN
    subject is walked.
    """
    if isinstance(expr, S.ColumnRef):
        if expr.alias is None:
            out.add(expr.column)
    elif isinstance(expr, S.BinOp):
        _collect_bare_columns(expr.left, out)
        _collect_bare_columns(expr.right, out)
    elif isinstance(expr, S.NotOp):
        _collect_bare_columns(expr.expr, out)
    elif isinstance(expr, S.FuncCall):
        if expr.arg is not None:
            _collect_bare_columns(expr.arg, out)
    elif isinstance(expr, S.InSubquery):
        _collect_bare_columns(expr.subject, out)


def _orient(entry: _JoinPred, build_alias: str) -> S.BinOp:
    """Swap predicate sides iff the executor would mis-assign them."""
    pred = entry.pred
    syntactic_build_is_left = (
        isinstance(pred.left, S.ColumnRef)
        and pred.left.alias == build_alias)
    if not syntactic_build_is_left and entry.left_alias == build_alias \
            and entry.right_alias != build_alias:
        return S.BinOp(pred.op, pred.right, pred.left)
    return pred


def _search_join_order(scans: List[L.Scan], join_pool: List[_JoinPred],
                       options: ExecutorOptions,
                       model: _CostModel) -> List[L.Scan]:
    """Selinger-style DP over left-deep join orders.

    States are alias subsets; each is extended by one more scan, costed
    as ``C_out`` (scan cost + every intermediate's estimated rows).
    Equal costs tie-break on the lexicographically smallest FROM-order
    index sequence, so a cost tie (empty tables, symmetric sizes)
    reproduces the greedy FROM-order chain exactly.
    """
    n = len(scans)
    if n <= 1 or n > MAX_DP_SOURCES:
        return list(scans)

    est = [model.scan_est(scan) for scan in scans]
    cost = [model.scan_cost(scan) for scan in scans]
    alias_of = [scan.alias for scan in scans]

    def connect_sel(mask: int, j: int) -> Optional[float]:
        if not options.hash_joins:
            return None
        joined = {alias_of[i] for i in range(n) if mask & (1 << i)}
        for entry in join_pool:
            if {entry.a, entry.b} & joined \
                    and alias_of[j] in (entry.a, entry.b):
                return model.join_selectivity(entry.pred)
        return None

    #: mask -> (cost, est_rows, order tuple of FROM indices)
    best: Dict[int, Tuple[float, float, Tuple[int, ...]]] = {
        1 << i: (cost[i], est[i], (i,)) for i in range(n)}
    for mask in sorted(range(1, 1 << n), key=lambda m: bin(m).count("1")):
        state = best.get(mask)
        if state is None:
            continue
        mask_cost, mask_est, order = state
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            sel = connect_sel(mask, j)
            out = mask_est * est[j] * (sel if sel is not None else 1.0)
            candidate = (mask_cost + cost[j] + out, out, order + (j,))
            seen = best.get(mask | bit)
            if seen is None or (candidate[0], candidate[2]) \
                    < (seen[0], seen[2]):
                best[mask | bit] = candidate
    order = best[(1 << n) - 1][2]
    return [scans[i] for i in order]


# -- estimate annotation -------------------------------------------------------


def _annotate(plan: L.LogicalPlan, model: _CostModel
              ) -> Tuple[float, float]:
    """Bottom-up ``est_rows`` / ``est_cost`` for every node (C_out)."""
    if isinstance(plan, L.Scan):
        est, cost = model.scan_est(plan), model.scan_cost(plan)
    elif isinstance(plan, L.Join):
        l_est, l_cost = _annotate(plan.left, model)
        r_est, r_cost = _annotate(plan.right, model)
        sel = model.join_selectivity(plan.predicate) \
            if plan.strategy == "hash" else 1.0
        est = l_est * r_est * sel
        cost = l_cost + r_cost + est
    elif isinstance(plan, L.Filter):
        est, cost = _annotate(plan.child, model)
        for pred in plan.predicates:
            est *= model.selectivity(pred)
        cost += est
    elif isinstance(plan, (L.Distinct, L.Project)):
        est, cost = _annotate(plan.children()[0], model)
    elif isinstance(plan, L.Restore):
        est, cost = _annotate(plan.child, model)
        cost += est                      # the re-sort touches every env
    elif isinstance(plan, L.Sort):
        est, cost = _annotate(plan.child, model)
        if plan.top_k is not None:
            est = min(est, float(plan.top_k))
        cost += est
    elif isinstance(plan, L.Limit):
        est, cost = _annotate(plan.child, model)
        est = min(est, float(plan.count))
        cost += est
    elif isinstance(plan, L.Aggregate):
        child_est, cost = _annotate(plan.child, model)
        if plan.group_by:
            groups = 1.0
            known = True
            for key in plan.group_by:
                ndv = model.ndv(key)
                if ndv is None:
                    known = False
                    break
                groups *= max(ndv, 1)
            est = min(child_est, groups) if known else child_est
        else:
            est = 1.0
        cost += est
    else:  # pragma: no cover - builder produces no other nodes
        raise TypeError("cannot annotate %r" % (plan,))
    plan.est_rows = est
    plan.est_cost = cost
    return est, cost


def _set_child(wrapper: L.LogicalPlan, child: L.LogicalPlan) -> None:
    if isinstance(wrapper, (L.Filter, L.Aggregate, L.Sort, L.Project,
                            L.Distinct, L.Limit, L.Restore)):
        wrapper.child = child
    else:  # pragma: no cover - builder produces no other wrappers
        raise TypeError("cannot re-parent %r" % (wrapper,))
