"""Compilation of TOR expressions to Python closures, with memoization.

:mod:`repro.tor.semantics` interprets an expression tree by isinstance
dispatch on every node, on every evaluation.  The synthesis search
evaluates the *same* small set of template expressions thousands of
times — once per candidate combination per world state — so that
dispatch cost dominates the hot path.  This module removes it twice
over:

* :func:`compile_expr` walks an expression once and returns a closure
  ``fn(env, db)``; all structural decisions (node kinds, operator
  choice, projection field lists, predicate shapes) are resolved at
  compile time, leaving only data flow at run time.  Every field path
  is split once into a getter (:func:`repro.tor.values.field_getter`),
  every operator is bound to its :mod:`operator` function, and
  projections and grouped aggregations build their records from a
  field tuple fixed at compile time.  The closures reproduce
  :func:`repro.tor.semantics.evaluate` exactly — values, and the same
  exception type and message on every input outside the axioms'
  domain, including every :class:`~repro.tor.semantics.EvalError`
  condition and the empty-aggregate axioms (``max([]) = -inf`` etc.).

* :class:`Evaluator` adds a per-``(expr, state)`` memo on top: callers
  that evaluate expressions against a *fixed* set of states (the
  synthesizer's dynamic trace filters, the checker's exit-definition
  computation) pass a hashable state key, and a clause shared by
  thousands of candidate combinations is then evaluated once per state
  instead of once per combination.  Raised ``EvalError``\\ s are
  memoized too — "outside the axioms' domain" is as cacheable a fact as
  a value.

The evaluator also counts its calls (requests vs. actually-executed
evaluations vs. memo hits), which is how the synthesis-speed benchmark
reports evaluator work instead of asserting it.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.tor import ast as T
from repro.tor.semantics import (
    DatabaseFn,
    EvalError,
    _contains_match,
    evaluate as interpret,
)
from repro.tor.values import (
    NEG_INF,
    POS_INF,
    PairRow,
    Record,
    field_getter,
    make_record,
    row_scalar,
)

#: A compiled expression: environment and database in, value out.
CompiledFn = Callable[[Dict[str, Any], Optional[DatabaseFn]], Any]


# ---------------------------------------------------------------------------
# Compile-time helpers
# ---------------------------------------------------------------------------


#: ``_scalar_binop``'s operators as functions of ``(lhs, rhs)``; a
#: ``BinOp``'s ``and``/``or`` short-circuit in :func:`compile_expr`, and
#: predicates take only ``PREDICATE_OPS``.
_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def _operator(op: str) -> Callable[[Any, Any], Any]:
    """``fn(lhs, rhs)``: ``_scalar_binop(op, lhs, rhs)`` without its
    ``TypeError`` wrapping, which each caller applies with
    :func:`_ill_typed`.  An unknown operator still fails only when it is
    applied, as in the interpreter."""
    fn = _OPERATORS.get(op)
    if fn is None:
        def unknown(lhs, rhs):
            raise EvalError("unknown operator %r" % op)
        return unknown
    return fn


def _ill_typed(exc: TypeError) -> EvalError:
    """The error ``_scalar_binop`` raises for an ill-typed operation."""
    return EvalError("ill-typed comparison: %s" % exc)


def _record_builder(targets: Sequence[str]
                    ) -> Callable[[Sequence[Any]], Record]:
    """``build(values)``: ``Record(dict(zip(targets, values)))``, with
    the field tuple fixed here — fields in first-occurrence order, and
    a repeated target keeping its last value."""
    fields = tuple(dict.fromkeys(targets))
    last = {target: idx for idx, target in enumerate(targets)}
    picks = tuple(last[name] for name in fields)
    return lambda values: make_record(fields, [values[i] for i in picks])


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def _compile_select_pred(pred: T.SelectPred
                         ) -> Callable[[Any, Dict[str, Any],
                                        Optional[DatabaseFn]], Any]:
    """Compile one atomic selection predicate to ``fn(row, env, db)``,
    whose truth value is the predicate's."""
    if isinstance(pred, T.FieldCmpConst):
        get, cmp = field_getter(pred.field), _operator(pred.op)
        const_fn = compile_expr(pred.const)

        def run_cmp_const(row, env, db):
            lhs = get(row)
            rhs = const_fn(env, db)
            try:
                return cmp(lhs, rhs)
            except TypeError as exc:
                raise _ill_typed(exc) from exc
        return run_cmp_const
    if isinstance(pred, T.FieldCmpField):
        get1, cmp = field_getter(pred.field1), _operator(pred.op)
        get2 = field_getter(pred.field2)

        def run_cmp_field(row, env, db):
            lhs = get1(row)
            rhs = get2(row)
            try:
                return cmp(lhs, rhs)
            except TypeError as exc:
                raise _ill_typed(exc) from exc
        return run_cmp_field
    if isinstance(pred, T.RecordIn):
        rel_fn = compile_expr(pred.rel)
        get = None if pred.field is None else field_getter(pred.field)

        def run_record_in(row, env, db):
            rel = rel_fn(env, db)
            needle = row if get is None else get(row)
            return any(_contains_match(needle, candidate)
                       for candidate in rel)
        return run_record_in
    raise EvalError("unknown selection predicate %r" % (pred,))


def _compile_select_func(phi: T.SelectFunc
                         ) -> Callable[[Any, Dict[str, Any],
                                        Optional[DatabaseFn]], Any]:
    preds = [_compile_select_pred(p) for p in phi.preds]
    if len(preds) == 1:
        return preds[0]

    def run_conj(row, env, db):
        return all(p(row, env, db) for p in preds)
    return run_conj


def compile_expr(expr: T.TorNode) -> CompiledFn:
    """Compile ``expr`` into a closure semantically equal to ``evaluate``."""

    if isinstance(expr, T.Const):
        value = expr.value
        return lambda env, db: value

    if isinstance(expr, T.EmptyRelation):
        return lambda env, db: ()

    if isinstance(expr, T.Var):
        name = expr.name

        def run_var(env, db):
            try:
                return env[name]
            except KeyError:
                raise EvalError("unbound variable %r" % name) from None
        return run_var

    if isinstance(expr, T.FieldAccess):
        base_fn = compile_expr(expr.expr)
        get = field_getter(expr.field)

        def run_field(env, db):
            base = base_fn(env, db)
            try:
                return get(base)
            except KeyError as exc:
                raise EvalError(str(exc)) from None
        return run_field

    if isinstance(expr, T.RecordLit):
        item_fns = [(name, compile_expr(e)) for name, e in expr.items]
        return lambda env, db: Record(
            {name: fn(env, db) for name, fn in item_fns})

    if isinstance(expr, T.BinOp):
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)
        op = expr.op
        if op == "and":
            return lambda env, db: (bool(left_fn(env, db))
                                    and bool(right_fn(env, db)))
        if op == "or":
            return lambda env, db: (bool(left_fn(env, db))
                                    or bool(right_fn(env, db)))
        fn = _operator(op)

        def run_binop(env, db):
            lhs = left_fn(env, db)
            rhs = right_fn(env, db)
            try:
                return fn(lhs, rhs)
            except TypeError as exc:
                raise _ill_typed(exc) from exc
        return run_binop

    if isinstance(expr, T.Not):
        inner_fn = compile_expr(expr.expr)
        return lambda env, db: not inner_fn(env, db)

    if isinstance(expr, T.QueryOp):
        query = expr

        def run_query(env, db):
            if db is None:
                raise EvalError("Query(...) evaluated without a database")
            return tuple(db(query))
        return run_query

    if isinstance(expr, T.Size):
        rel_fn = compile_expr(expr.rel)
        return lambda env, db: len(rel_fn(env, db))

    if isinstance(expr, T.Get):
        rel_fn = compile_expr(expr.rel)
        idx_fn = compile_expr(expr.idx)

        def run_get(env, db):
            rel = rel_fn(env, db)
            idx = idx_fn(env, db)
            if not isinstance(idx, int) or idx < 0 or idx >= len(rel):
                raise EvalError(
                    "get index %r out of range for relation of size %d"
                    % (idx, len(rel)))
            return rel[idx]
        return run_get

    if isinstance(expr, T.Top):
        rel_fn = compile_expr(expr.rel)
        count_fn = compile_expr(expr.count)

        def run_top(env, db):
            rel = rel_fn(env, db)
            count = count_fn(env, db)
            if not isinstance(count, int) or count < 0:
                raise EvalError(
                    "top count %r is not a non-negative integer" % (count,))
            return rel[:count]
        return run_top

    if isinstance(expr, T.Pi):
        rel_fn = compile_expr(expr.rel)
        getters = tuple(field_getter(spec.source) for spec in expr.fields)
        targets = [spec.target for spec in expr.fields]
        build = _record_builder(targets)
        # One output field holding a record or pair yields that row
        # unwrapped (semantics._normalise_projection); with a repeated
        # target, the field holds the last value.
        unwrap = len(set(targets)) == 1

        def run_pi(env, db):
            rel = rel_fn(env, db)
            out = []
            try:
                for row in rel:
                    values = [get(row) for get in getters]
                    if unwrap and isinstance(values[-1], (Record, PairRow)):
                        out.append(values[-1])
                    else:
                        out.append(build(values))
            except KeyError as exc:
                raise EvalError(str(exc)) from None
            return tuple(out)
        return run_pi

    if isinstance(expr, T.Sigma):
        rel_fn = compile_expr(expr.rel)
        pred_fn = _compile_select_func(expr.pred)
        return lambda env, db: tuple(row for row in rel_fn(env, db)
                                     if pred_fn(row, env, db))

    if isinstance(expr, T.Join):
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)
        match = _compile_join_func(expr.pred)

        def run_join(env, db):
            left = left_fn(env, db)
            right = right_fn(env, db)
            return tuple([PairRow(lrow, rrow) for lrow in left
                          for rrow in right if match(lrow, rrow)])
        return run_join

    if isinstance(expr, T.GroupAgg):
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)
        match = _compile_join_func(expr.pred)
        key_getters = tuple(field_getter(spec.source)
                            for spec in expr.fields)
        build = _record_builder(
            [spec.target for spec in expr.fields] + [expr.out])
        count = expr.agg == "count"
        get_agg = field_getter(expr.agg_field) if not count else None

        def run_group(env, db):
            left = left_fn(env, db)
            right = right_fn(env, db)
            out = []
            for lrow in left:
                try:
                    matches = [rrow for rrow in right if match(lrow, rrow)]
                except KeyError as exc:
                    raise EvalError(str(exc)) from None
                if not matches:
                    continue
                try:
                    if count:
                        value = len(matches)
                    else:
                        value = sum(get_agg(rrow) for rrow in matches)
                    values = [get(lrow) for get in key_getters]
                except (KeyError, TypeError) as exc:
                    raise EvalError(str(exc)) from None
                values.append(value)
                out.append(build(values))
            return tuple(out)
        return run_group

    if isinstance(expr, T.SumOp):
        rel_fn = compile_expr(expr.rel)
        return lambda env, db: sum(row_scalar(row)
                                   for row in rel_fn(env, db))

    if isinstance(expr, T.MaxOp):
        rel_fn = compile_expr(expr.rel)

        def run_max(env, db):
            best = NEG_INF
            for row in rel_fn(env, db):
                value = row_scalar(row)
                if value > best:
                    best = value
            return best
        return run_max

    if isinstance(expr, T.MinOp):
        rel_fn = compile_expr(expr.rel)

        def run_min(env, db):
            best = POS_INF
            for row in rel_fn(env, db):
                value = row_scalar(row)
                if value < best:
                    best = value
            return best
        return run_min

    if isinstance(expr, T.Concat):
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)
        return lambda env, db: left_fn(env, db) + right_fn(env, db)

    if isinstance(expr, T.Singleton):
        elem_fn = compile_expr(expr.elem)
        return lambda env, db: (elem_fn(env, db),)

    if isinstance(expr, T.PairLit):
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)
        return lambda env, db: PairRow(left_fn(env, db), right_fn(env, db))

    if isinstance(expr, T.Append):
        rel_fn = compile_expr(expr.rel)
        elem_fn = compile_expr(expr.elem)
        return lambda env, db: rel_fn(env, db) + (elem_fn(env, db),)

    if isinstance(expr, T.Sort):
        rel_fn = compile_expr(expr.rel)
        keys = expr.fields
        if keys == ("__natural__",):
            sort_key = row_scalar
        else:
            getters = tuple(field_getter(f) for f in keys)

            def sort_key(row):
                return tuple([get(row) for get in getters])

        def run_sort(env, db):
            rel = rel_fn(env, db)
            try:
                return tuple(sorted(rel, key=sort_key))
            except (KeyError, TypeError, ValueError) as exc:
                raise EvalError("cannot sort by %r: %s" % (keys, exc)) \
                    from exc
        return run_sort

    if isinstance(expr, T.RemoveFirst):
        rel_fn = compile_expr(expr.rel)
        elem_fn = compile_expr(expr.elem)

        def run_remove(env, db):
            victim = elem_fn(env, db)
            out = []
            removed = False
            for row in rel_fn(env, db):
                if not removed and row == victim:
                    removed = True
                    continue
                out.append(row)
            return tuple(out)
        return run_remove

    if isinstance(expr, T.Unique):
        rel_fn = compile_expr(expr.rel)

        def run_unique(env, db):
            seen = set()
            out = []
            for row in rel_fn(env, db):
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            return tuple(out)
        return run_unique

    if isinstance(expr, T.Contains):
        elem_fn = compile_expr(expr.elem)
        rel_fn = compile_expr(expr.rel)

        def run_contains(env, db):
            elem = elem_fn(env, db)
            rel = rel_fn(env, db)
            return any(_contains_match(elem, row) for row in rel)
        return run_contains

    raise EvalError("cannot compile %r" % (expr,))


def _compile_join_func(phi: T.JoinFunc) -> Callable[[Any, Any], Any]:
    """``match(left_row, right_row)``, true when every predicate holds.

    Predicates are tried in order and the first false one decides, so
    a later predicate's paths are read only where the interpreter reads
    them.
    """
    preds = tuple((field_getter(p.left_field), _operator(p.op),
                   field_getter(p.right_field)) for p in phi.preds)

    def match_all(lrow, rrow):
        for lget, cmp, rget in preds:
            lhs = lget(lrow)
            rhs = rget(rrow)
            try:
                if not cmp(lhs, rhs):
                    return False
            except TypeError as exc:
                raise _ill_typed(exc) from exc
        return True
    return match_all


# ---------------------------------------------------------------------------
# Memoizing evaluator
# ---------------------------------------------------------------------------


@dataclass
class EvalStats:
    """Evaluator-call accounting.

    ``requests`` counts every evaluation asked for; ``executed`` counts
    the ones that actually ran an expression (interpreted or compiled);
    ``memo_hits`` counts requests answered from the state memo.  The
    seed implementation executes every request, so the benchmark's
    "fewer evaluator invocations" claim compares ``executed`` across
    modes measured at identical call sites.
    """

    requests: int = 0
    executed: int = 0
    memo_hits: int = 0


_MISSING = object()


def detached(exc: BaseException) -> BaseException:
    """A copy of ``exc`` with no traceback, cause or context.

    Memos keep such copies, and raise a fresh one on every hit.  A
    raised exception carries its traceback, whose frames hold the memo
    that would keep it: every evaluator, checker and plan of a synthesis
    run would then outlive the run as cyclic garbage, waiting for a full
    collection.
    """
    return copy.copy(exc)


class Evaluator:
    """Evaluation strategy object shared by one synthesis search.

    With ``compiled=True`` expressions are compiled once per node
    object (the cache is identity-keyed: cheap to probe, but a
    structurally equal tree rebuilt elsewhere — e.g. by a fresh
    template generator at a higher level — compiles anew) and results
    are memoized per ``(expr, state key)``.  With ``compiled=False``
    every call falls through to the tree-walking interpreter with no
    caching — the seed behaviour, kept callable so benchmarks and
    regression tests can compare modes.

    The evaluator is itself callable with the same signature as
    :func:`repro.tor.semantics.evaluate`, so it can be handed to
    :meth:`repro.core.logic.Predicate.holds_env` and friends.
    """

    def __init__(self, compiled: bool = True):
        self.compiled = compiled
        self.stats = EvalStats()
        # Compiled closures and the state memo are cached by node
        # identity: a structural (hash-based) lookup would re-hash the
        # whole tree on every evaluation, which costs as much as
        # interpreting it.  The compile cache holds a strong reference
        # to each node, so ids are never recycled while the evaluator
        # lives.
        self._fns: Dict[int, Tuple[T.TorNode, CompiledFn]] = {}
        self._memo: Dict[Tuple[int, Hashable], Tuple[bool, Any]] = {}

    def fn(self, expr: T.TorNode) -> CompiledFn:
        """The compiled closure for ``expr`` (cached by identity)."""
        entry = self._fns.get(id(expr))
        if entry is None:
            entry = (expr, compile_expr(expr))
            self._fns[id(expr)] = entry
        return entry[1]

    def eval(self, expr: T.TorNode, env: Optional[Dict[str, Any]] = None,
             db: Optional[DatabaseFn] = None,
             key: Optional[Hashable] = None) -> Any:
        """Evaluate ``expr``; ``key`` (if given) names the state for memoing.

        A key must uniquely identify the ``(env, db)`` contents for the
        lifetime of this evaluator — callers pass keys only for states
        that are collected once and never mutated (trace snapshots,
        final environments, per-world exit definitions).
        """
        stats = self.stats
        stats.requests += 1
        if not self.compiled:
            stats.executed += 1
            return interpret(expr, env, db)
        if key is not None:
            memo_key = (id(expr), key)
            hit = self._memo.get(memo_key, _MISSING)
            if hit is not _MISSING:
                stats.memo_hits += 1
                ok, payload = hit
                if ok:
                    return payload
                raise detached(payload)
        stats.executed += 1
        try:
            value = self.fn(expr)(env or {}, db)
        except EvalError as exc:
            if key is not None:
                self._memo[memo_key] = (False, detached(exc))
            raise
        if key is not None:
            self._memo[memo_key] = (True, value)
        return value

    # Callable with ``evaluate``'s signature, so the evaluator itself
    # can be passed as an ``eval_fn``.
    __call__ = eval
