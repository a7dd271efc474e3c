"""Batch-at-a-time expression compilation: the engine's one evaluator
for planned queries.

Every row-stream operator returns its whole output as one
:class:`Batch` — per-alias lists of the engine's ``(rowid, Record)``
pairs — instead of one environment dict per row.  Scalar expressions
are compiled **once per plan** into closures that evaluate a whole
batch per call (:func:`compile_scalar` / :func:`compile_filter`),
amortizing the interpreter's per-row dispatch the same way
``tor/compile.py`` did for synthesis evaluation.  Operators call no
closure on an empty batch: a bare column name resolves against the
rows it is given, and over none it would raise.

The compiled semantics mirror ``Executor._eval`` exactly — same values,
same error messages, same short-circuit evaluation sets for AND/OR
(the right side is evaluated only over the rows the left side admits,
via a masked sub-batch).  Literals, parameters, column and whole-row
references, the six comparisons and AND/OR/NOT compile to column
operations; every other shape (IN subqueries, aggregate calls in a
scalar position, operators the evaluator rejects) compiles to a
per-row closure that calls ``Executor._eval`` on each row of the batch
it is handed, with the query's statistics — so a subquery runs once
per row it is asked about, exactly as in the seed pipeline.

Closures take the running query's context (``run``: anything with
``executor``, ``params`` and ``stats``, i.e. the physical layer's
per-query context): constant closures are called as
``fn(run)``, vector closures as ``fn(batch, run)``.
"""

from __future__ import annotations

import operator
from itertools import compress, repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sql import ast as S
from repro.sql.errors import SQLExecutionError
from repro.sql.executor import _param, _truthy
from repro.tor.values import Record

#: One in-flight row of one source: (rowid, record) — the pair the
#: scans read from storage, carried unchanged through every operator.
Pair = Tuple[int, Record]

_ROWID = operator.itemgetter(0)
_RECORD = operator.itemgetter(1)
_FIELDS = operator.attrgetter("_fields")
_VALUES = operator.attrgetter("_values")

#: Comparison operators with an exact vector counterpart; mirrors
#: ``executor._apply_op`` (AND/OR are compiled separately, with
#: short-circuit parity).
_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


class Batch:
    """A column batch: parallel per-alias lists of ``(rowid, record)``.

    ``aliases`` is the join-chain order (the order the seed pipeline
    builds environment dicts in); every alias's pair list has length
    ``n``.  Extracted column vectors are cached per ``(alias, column)``
    so repeated references inside one predicate pay extraction once.
    """

    __slots__ = ("aliases", "pairs", "n", "_cols")

    def __init__(self, aliases: Tuple[str, ...],
                 pairs: Dict[str, List[Pair]], n: int):
        self.aliases = aliases
        self.pairs = pairs
        self.n = n
        self._cols: Optional[Dict[Tuple[str, str], List[Any]]] = None

    def column(self, alias: str, column: str) -> List[Any]:
        """The column's value vector (``_rowid`` -> the rowid vector).

        When the batch's records share one field tuple (compared by
        equality: each stored record has a tuple of its own, and one
        written behind the table API may order its fields otherwise),
        the values are read from each record's stored values at the
        column's position, by C-level ``map``s with no Python call per
        row; otherwise each is read through ``Record.__getitem__``.
        A missing column raises the evaluator's qualified-reference
        error; callers resolving *bare* names check membership first
        (the evaluator's bare path never raises this message).
        """
        key = (alias, column)
        if self._cols is None:
            self._cols = {}
        got = self._cols.get(key)
        if got is None:
            rows = self.pairs[alias]
            if column == "_rowid":
                got = list(map(_ROWID, rows))
            else:
                got = _column_values(rows, column)
                if got is None:
                    raise SQLExecutionError(
                        "no column %r in source %r" % (column, alias))
            self._cols[key] = got
        return got

    def records(self, alias: str) -> List[Record]:
        """The whole-row vector (RowRef / bare-alias references)."""
        return [pair[1] for pair in self.pairs[alias]]

    def select(self, indices: List[int]) -> "Batch":
        """A compacted sub-batch of the given row positions, in order."""
        pairs = {a: [rows[i] for i in indices]
                 for a, rows in self.pairs.items()}
        return Batch(self.aliases, pairs, len(indices))

    def envs(self) -> List[Dict[str, Pair]]:
        """The rows as ``Executor._eval`` environments (alias -> pair).

        Insertion order is the chain order, as the seed pipeline's join
        builds them, so bare-name resolution picks the same source.
        """
        aliases = self.aliases
        if len(aliases) == 1:
            alias = aliases[0]
            return [{alias: pair} for pair in self.pairs[alias]]
        columns = [self.pairs[a] for a in aliases]
        return [dict(zip(aliases, row)) for row in zip(*columns)]


def _column_values(rows: List[Pair], column: str) -> Optional[List[Any]]:
    """``column``'s value in each pair's record, or None when a record
    lacks it."""
    records = list(map(_RECORD, rows))
    fields = records[0]._fields if records else ()
    if column in fields and all(map(operator.eq, repeat(fields),
                                    map(_FIELDS, records))):
        return list(map(operator.itemgetter(fields.index(column)),
                        map(_VALUES, records)))
    try:
        return [record[column] for record in records]
    except KeyError:
        return None


#: compile_scalar's result: (is_const, fn).  Constant closures take
#: ``(run)`` and return one scalar; vector closures take ``(batch,
#: run)`` and return a list of length ``batch.n``.
Compiled = Tuple[bool, Callable]


def compile_scalar(expr: S.Expr) -> Compiled:
    """Compile one scalar expression for batch evaluation.

    Returns ``(is_const, fn)``: a constant closure (no row
    dependence — literals, parameters, and operators over them) is
    evaluated once and broadcast by the caller; a vector closure maps
    a batch to a value list.  Shapes without a column form compile to
    a per-row closure over ``Executor._eval`` (see the module
    docstring); those are never constant, because the evaluator may
    touch statistics on every row.
    """
    if isinstance(expr, S.Literal):
        value = expr.value
        return True, lambda run: value
    if isinstance(expr, S.Param):
        name = expr.name
        return True, lambda run: _param(run.params, name)
    if isinstance(expr, S.ColumnRef):
        return False, _compile_column(expr)
    if isinstance(expr, S.RowRef):
        alias = expr.alias

        def rows_fn(batch, run):
            if alias not in batch.pairs:
                raise SQLExecutionError("unknown alias %r" % alias)
            return batch.records(alias)

        return False, rows_fn
    if isinstance(expr, S.BinOp) and expr.op in ("AND", "OR"):
        return _compile_logical(expr.op, expr.left, expr.right)
    if isinstance(expr, S.BinOp) and expr.op in _OPS:
        return _compile_comparison(expr.op, expr.left, expr.right)
    if isinstance(expr, S.NotOp):
        inner_const, inner = compile_scalar(expr.expr)
        if inner_const:
            return True, lambda run: not _truthy(inner(run))
        return False, lambda batch, run: [
            not _truthy(v) for v in inner(batch, run)]

    def per_row(batch, run):
        evaluate, params, stats = run.executor._eval, run.params, run.stats
        return [evaluate(expr, env, params, stats) for env in batch.envs()]

    return False, per_row


def _compile_column(ref: S.ColumnRef) -> Callable:
    """A column reference, mirroring ``Executor._column_value``.

    Qualified names resolve against the reference's alias (unknown
    alias / missing column raise the evaluator's messages); bare names
    resolve a source alias to the whole row, then scan the chain for
    the first source carrying the column (``_rowid`` resolves to the
    first source's rowids, as the evaluator's env iteration does).
    """
    alias, column = ref.alias, ref.column
    if alias is not None:
        def qualified(batch, run):
            if alias not in batch.pairs:
                raise SQLExecutionError("unknown alias %r" % alias)
            return batch.column(alias, column)

        return qualified

    def bare(batch, run):
        if column in batch.pairs:
            return batch.records(column)
        for a in batch.aliases:
            if column == "_rowid":
                return batch.column(a, "_rowid")
            rows = batch.pairs[a]
            if rows and column in rows[0][1].fields:
                return batch.column(a, column)
        raise SQLExecutionError("cannot resolve column %r" % column)

    return bare


def _compile_comparison(op: str, left: S.Expr, right: S.Expr) -> Compiled:
    op_fn = _OPS[op]
    lconst, lf = compile_scalar(left)
    rconst, rf = compile_scalar(right)
    if lconst and rconst:
        return True, lambda run: op_fn(lf(run), rf(run))
    if lconst:
        def const_left(batch, run):
            lval = lf(run)
            return list(map(op_fn, repeat(lval), rf(batch, run)))

        return False, const_left
    if rconst:
        def const_right(batch, run):
            # Left before right, like the evaluator.
            lvec = lf(batch, run)
            return list(map(op_fn, lvec, repeat(rf(run))))

        return False, const_right

    def both(batch, run):
        lvec = lf(batch, run)
        return list(map(op_fn, lvec, rf(batch, run)))

    return False, both


def _compile_logical(op: str, left: S.Expr, right: S.Expr) -> Compiled:
    """AND/OR with short-circuit *evaluation-set* parity.

    The evaluator never evaluates the right side for rows the left
    side already decides; the compiled form evaluates the right side
    over a masked sub-batch of exactly those undecided rows (and not
    at all when there are none), so error behaviour — e.g. an unbound
    parameter on the right of an always-false AND — and the statistics
    of a per-row subquery on the right match.
    """
    is_and = op == "AND"
    lconst, lf = compile_scalar(left)
    rconst, rf = compile_scalar(right)
    if lconst and rconst:
        if is_and:
            return True, lambda run: (_truthy(lf(run))
                                      and _truthy(rf(run)))
        return True, lambda run: (_truthy(lf(run))
                                  or _truthy(rf(run)))
    if lconst:
        def const_left(batch, run):
            lval = _truthy(lf(run))
            if is_and and not lval:
                return [False] * batch.n
            if not is_and and lval:
                return [True] * batch.n
            return [_truthy(v) for v in rf(batch, run)]

        return False, const_left

    def vector_left(batch, run):
        mask = [_truthy(v) for v in lf(batch, run)]
        if is_and:
            hits = [i for i, v in enumerate(mask) if v]
        else:
            hits = [i for i, v in enumerate(mask) if not v]
        if not hits:
            return mask
        if rconst:
            rval = _truthy(rf(run))
            for i in hits:
                mask[i] = rval
            return mask
        sub = batch.select(hits)
        rvec = rf(sub, run)
        for j, i in enumerate(hits):
            mask[i] = _truthy(rvec[j])
        return mask

    return False, vector_left


def compile_filter(predicates: Tuple[S.Expr, ...]) -> Callable:
    """Compile a conjunct list into one batch-filtering closure.

    ``apply(batch, run)`` returns the batch of surviving rows
    (possibly the input batch unchanged when everything passes).
    Conjuncts apply in order, each over the previous one's survivors —
    the evaluator's evaluation set exactly.
    """
    compiled = [compile_scalar(p) for p in predicates]

    def apply(batch: Batch, run) -> Batch:
        for is_const, fn in compiled:
            if batch.n == 0:
                return batch
            if is_const:
                if not _truthy(fn(run)):
                    return batch.select([])
            else:
                # compress tests each value as _truthy does (bool()).
                keep = list(compress(range(batch.n), fn(batch, run)))
                if len(keep) != batch.n:
                    batch = batch.select(keep)
        return batch

    return apply
