"""Equivalence of the TOR expression compiler with the interpreter.

The compiled closures of :mod:`repro.tor.compile` must agree with
:func:`repro.tor.semantics.evaluate` on every expression and state —
same values, and the same ``EvalError`` domain.  Beyond targeted node
coverage, the strongest test evaluates every template-generated
candidate expression of real corpus fragments against their bounded
worlds and trace states in both engines.
"""

import pytest

from repro.core.features import extract_features
from repro.core.templates import TemplateGenerator
from repro.core.worlds import generate_worlds
from repro.corpus.registry import ALL_FRAGMENTS, compile_fragment
from repro.frontend import FrontendRejection
from repro.tor import ast as T
from repro.tor.compile import Evaluator, compile_expr
from repro.tor.semantics import EvalError, evaluate
from repro.tor.values import PairRow, Record


def both(expr, env=None, db=None):
    """Evaluate with both engines: ("ok", value, its repr) or ("raise",
    exception type, message) per engine."""
    results = []
    for engine in (evaluate, lambda e, n, d: compile_expr(e)(n or {}, d)):
        try:
            value = engine(expr, env, db)
        except Exception as exc:  # noqa: BLE001 - the type is compared
            results.append(("raise", type(exc), str(exc)))
        else:
            results.append(("ok", value, repr(value)))
    return results


def assert_agree(expr, env=None, db=None):
    interpreted, compiled = both(expr, env, db)
    assert interpreted == compiled, \
        "divergence on %r: %r vs %r" % (expr, interpreted, compiled)
    return interpreted


ROWS = (Record({"id": 1, "v": 5}), Record({"id": 2, "v": 3}),
        Record({"id": 2, "v": 3}), Record({"id": 3, "v": 9}))


@pytest.mark.parametrize("expr", [
    T.Const(42),
    T.EmptyRelation(),
    T.Var("rel"),
    T.Var("missing"),
    T.FieldAccess(T.Get(T.Var("rel"), T.Const(0)), "id"),
    T.FieldAccess(T.Get(T.Var("rel"), T.Const(0)), "nope"),
    T.RecordLit((("a", T.Const(1)), ("b", T.Var("x")))),
    T.BinOp("+", T.Var("x"), T.Const(1)),
    T.BinOp("and", T.Const(False), T.Var("missing")),  # short-circuit
    T.BinOp("or", T.Const(True), T.Var("missing")),
    T.BinOp("<", T.Const(1), T.Const("s")),  # ill-typed comparison
    T.Not(T.Const(0)),
    T.Size(T.Var("rel")),
    T.Get(T.Var("rel"), T.Const(99)),
    T.Get(T.Var("rel"), T.Const(-1)),
    T.Top(T.Var("rel"), T.Const(2)),
    T.Top(T.Var("rel"), T.Const(-2)),
    T.Pi((T.FieldSpec("id", "id"),), T.Var("rel")),
    T.Pi((T.FieldSpec("nope", "x"),), T.Var("rel")),
    T.Sigma(T.SelectFunc((T.FieldCmpConst("v", ">", T.Const(4)),)),
            T.Var("rel")),
    T.Sigma(T.SelectFunc((T.FieldCmpField("id", "<", "v"),)), T.Var("rel")),
    T.Sigma(T.SelectFunc((T.RecordIn(T.Var("ids"), field="id"),)),
            T.Var("rel")),
    T.Join(T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),)),
           T.Var("rel"), T.Var("rel")),
    T.Join(T.JoinFunc(()), T.Var("rel"), T.Var("rel")),
    T.SumOp(T.Pi((T.FieldSpec("v", "v"),), T.Var("rel"))),
    T.MaxOp(T.Pi((T.FieldSpec("v", "v"),), T.Var("rel"))),
    T.MaxOp(T.EmptyRelation()),
    T.MinOp(T.EmptyRelation()),
    T.Concat(T.Var("rel"), T.Var("rel")),
    T.Singleton(T.Const(7)),
    T.PairLit(T.Const(1), T.Const(2)),
    T.Append(T.Var("rel"), T.Const(9)),
    T.Sort(("id", "v"), T.Var("rel")),
    T.Sort(("nope",), T.Var("rel")),
    T.Sort(("__natural__",), T.Pi((T.FieldSpec("v", "v"),), T.Var("rel"))),
    T.RemoveFirst(T.Var("rel"), T.Get(T.Var("rel"), T.Const(1))),
    T.Unique(T.Var("rel")),
    T.Contains(T.Const(2), T.Var("ids")),
    T.Contains(T.Var("missing"), T.EmptyRelation()),
])
def test_node_coverage(expr):
    env = {"rel": ROWS, "x": 10, "ids": (1, 2)}
    assert_agree(expr, env)


def test_query_without_database():
    assert_agree(T.QueryOp(sql="SELECT * FROM t", table="t"))


def test_query_with_database():
    query = T.QueryOp(sql="SELECT * FROM t", table="t", schema=("id", "v"))
    db = lambda q: ROWS  # noqa: E731
    assert_agree(query, {}, db)


def _corpus_expression_states(limit_fragments=20):
    """(expr, env, db) triples from real template pools and worlds."""
    count = 0
    for cf in ALL_FRAGMENTS:
        try:
            fragment = compile_fragment(cf)
        except FrontendRejection:
            continue
        count += 1
        if count > limit_fragments:
            return
        features = extract_features(fragment)
        worlds = generate_worlds(fragment, max_size=2, extra_random=2)
        generator = TemplateGenerator(fragment, features, level=2)
        exprs = list(generator.postcondition_exprs())
        for loop in fragment.loops():
            template = generator.loop_template(loop.loop_id)
            exprs.extend(c.expr for c in template.cmp_clauses)
            for choices in template.eq_choices.values():
                exprs.extend(choices)
        for world in worlds[:4]:
            env = dict(world.inputs)
            for name, info in fragment.all_vars().items():
                if info.kind == "relation" and info.table is not None \
                        and info.table in world.tables:
                    env[name] = world.tables[info.table]
            for counter in ("i", "j"):
                env.setdefault(counter, 1)
            for expr in exprs:
                yield expr, env, world.db


def test_corpus_template_expressions_agree():
    checked = 0
    for expr, env, db in _corpus_expression_states():
        assert_agree(expr, env, db)
        checked += 1
    assert checked > 100  # the sweep actually exercised real pools


def test_evaluator_memo_is_transparent():
    """Memoized and unmemoized evaluation agree, including errors."""
    ev = Evaluator(compiled=True)
    env = {"rel": ROWS}
    expr = T.Size(T.Var("rel"))
    bad = T.Get(T.Var("rel"), T.Const(99))
    for _ in range(3):
        assert ev.eval(expr, env, None, key="state0") == 4
        with pytest.raises(EvalError):
            ev.eval(bad, env, None, key="state0")
    assert ev.stats.memo_hits == 4
    assert ev.stats.executed == 2
    assert ev.stats.requests == 6


def test_interpreted_mode_counts_but_never_caches():
    ev = Evaluator(compiled=False)
    env = {"rel": ROWS}
    for _ in range(2):
        assert ev.eval(T.Size(T.Var("rel")), env, None, key="k") == 4
    assert ev.stats.requests == 2
    assert ev.stats.executed == 2
    assert ev.stats.memo_hits == 0


# -- shapes the corpus barely reaches --------------------------------------------
#
# Field paths, operators and projection field tuples are resolved when
# an expression compiles.  These shapes pin the compiled closures to the
# interpreter: the same value, or the same exception type and message
# (a missing field inside a join or a selection is a ``KeyError`` in
# both, not an ``EvalError``).


def _unknown_operator(node):
    """``node`` with its operator replaced by one no evaluator knows
    (the constructors reject it, so it is set behind their back)."""
    object.__setattr__(node, "op", "%")
    return node


NESTED = (PairRow(PairRow(Record(id=1, v=5), Record(id=2, v=3)),
                  Record(id=3, v=9)),
          PairRow(PairRow(Record(id=4, v=1), Record(id=1, v=7)),
                  Record(id=2, v=2)))
MIXED = (Record(id="a", v=1), Record(id=2, v=None))
PIN_ENV = {"rel": ROWS, "pairs": NESTED, "mixed": MIXED, "ids": (1, 2),
           "empty": (), "far": (Record(id=100),)}


def _join(lf, op, rf, left="pairs", right="rel"):
    return T.Join(T.JoinFunc((T.JoinFieldCmp(lf, op, rf),)),
                  T.Var(left), T.Var(right))


def _sigma(pred, rel="pairs"):
    return T.Sigma(T.SelectFunc((pred,)), T.Var(rel))


def _first(rel, path):
    return T.FieldAccess(T.Get(T.Var(rel), T.Const(0)), path)


PINNED = {
    # nested pair paths and whole-side reads
    "nested-path": _first("pairs", "left.right.id"),
    "whole-side": _first("pairs", "left"),
    "whole-nested-side": _first("pairs", "left.right"),
    "nested-pi": T.Pi((T.FieldSpec("left.right.id", "x"),
                       T.FieldSpec("right.v", "y")), T.Var("pairs")),
    "nested-join": _join("left.right.id", "=", "id"),
    "nested-sigma": _sigma(T.FieldCmpField("left.left.id", "<",
                                           "right.id")),
    "nested-sort": T.Sort(("left.right.v", "right.id"), T.Var("pairs")),
    "nested-record-in": _sigma(T.RecordIn(T.Var("ids"), "left.left.id")),
    "nested-group": T.GroupAgg(
        (T.FieldSpec("left.right.id", "k"),), "sum", "v", "total",
        T.JoinFunc((T.JoinFieldCmp("right.id", "=", "id"),)),
        T.Var("pairs"), T.Var("rel")),
    # a missing field, and a path through a scalar row
    "missing-field": _first("rel", "nope"),
    "missing-side": _first("pairs", "middle.id"),
    "through-scalar": _first("ids", "id"),
    "past-a-field": _first("pairs", "left.left.id.x"),
    "missing-pi": T.Pi((T.FieldSpec("nope", "x"),), T.Var("rel")),
    "scalar-pi": T.Pi((T.FieldSpec("id", "x"),), T.Var("ids")),
    "missing-join": _join("left.nope", "=", "id"),
    "missing-join-right": _join("left.left.id", "=", "nope"),
    "missing-sigma": _sigma(T.FieldCmpConst("right.nope", "=",
                                            T.Const(1))),
    "missing-sort": T.Sort(("right.nope",), T.Var("pairs")),
    "missing-group-key": T.GroupAgg(
        (T.FieldSpec("nope", "k"),), "count", None, "n",
        T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),)),
        T.Var("rel"), T.Var("rel")),
    "missing-group-agg": T.GroupAgg(
        (T.FieldSpec("id", "k"),), "sum", "nope", "n",
        T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),)),
        T.Var("rel"), T.Var("rel")),
    # a projection with a repeated target: first position, last value
    "repeated-target": T.Pi((T.FieldSpec("id", "a"), T.FieldSpec("v", "b"),
                             T.FieldSpec("v", "a")), T.Var("rel")),
    "repeated-target-error-first": T.Pi((T.FieldSpec("nope", "a"),
                                         T.FieldSpec("id", "a")),
                                        T.Var("rel")),
    "repeated-whole-sides": T.Pi((T.FieldSpec("left", "s"),
                                  T.FieldSpec("right", "s")),
                                 T.Var("pairs")),
    "group-out-repeats-key": T.GroupAgg(
        (T.FieldSpec("id", "n"), T.FieldSpec("v", "w")), "count", None, "n",
        T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),)),
        T.Var("rel"), T.Var("rel")),
    # a one-target projection of a whole side is returned unwrapped
    "whole-side-pi": T.Pi((T.FieldSpec("left", "l"),), T.Var("pairs")),
    "whole-record-pi": T.Pi((T.FieldSpec("right", "r"),), T.Var("pairs")),
    "scalar-one-target-pi": T.Pi((T.FieldSpec("right.id", "x"),),
                                 T.Var("pairs")),
    # ill-typed comparisons, and an unknown operator
    "ill-typed-join": _join("id", "<", "id", left="mixed"),
    "ill-typed-sigma-const": _sigma(T.FieldCmpConst("id", "<",
                                                    T.Const("s")), "rel"),
    "ill-typed-sigma-var": _sigma(T.FieldCmpConst("v", ">=",
                                                  T.Var("ids")), "rel"),
    "ill-typed-sigma-fields": _sigma(T.FieldCmpField("v", ">", "id"),
                                     "mixed"),
    "ill-typed-group": T.GroupAgg(
        (T.FieldSpec("id", "k"),), "count", None, "n",
        T.JoinFunc((T.JoinFieldCmp("v", "<", "id"),)),
        T.Var("mixed"), T.Var("mixed")),
    "ill-typed-group-sum": T.GroupAgg(
        (T.FieldSpec("v", "k"),), "sum", "v", "n",
        T.JoinFunc((T.JoinFieldCmp("v", "=", "v"),)),
        T.Var("mixed"), T.Var("mixed")),
    "ill-typed-binop": T.BinOp("-", T.Const("s"), T.Const(1)),
    "ill-typed-sort": T.Sort(("id",), T.Var("mixed")),
    "unknown-binop": _unknown_operator(T.BinOp("+", T.Const(1),
                                               T.Const(2))),
    "unknown-binop-operands-first": _unknown_operator(
        T.BinOp("+", T.Var("missing"), T.Const(2))),
    "unknown-join-op": T.Join(
        T.JoinFunc((_unknown_operator(T.JoinFieldCmp("id", "=", "id")),)),
        T.Var("rel"), T.Var("rel")),
    "unknown-join-op-unreached": T.Join(
        T.JoinFunc((_unknown_operator(T.JoinFieldCmp("id", "=", "id")),)),
        T.Var("rel"), T.Var("empty")),
    "unknown-sigma-op": _sigma(_unknown_operator(
        T.FieldCmpConst("id", "=", T.Const(1))), "rel"),
    "second-predicate-unreached": T.Join(
        T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),
                    T.JoinFieldCmp("nope", "=", "nope"))),
        T.Var("rel"), T.Var("far")),
    "second-predicate-reached": T.Join(
        T.JoinFunc((T.JoinFieldCmp("id", "=", "id"),
                    T.JoinFieldCmp("v", "<", "nope"))),
        T.Var("rel"), T.Var("rel")),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compiled_closures_pinned_to_interpreter(name):
    assert_agree(PINNED[name], PIN_ENV)


def test_pinned_shapes_cover_values_and_each_error_kind():
    """The table above reaches values, ``EvalError`` and ``KeyError``."""
    kinds = {name: assert_agree(expr, PIN_ENV)[:2]
             for name, expr in PINNED.items()}
    assert kinds["whole-side-pi"] == ("ok", tuple(p.left for p in NESTED))
    assert kinds["repeated-target"][1][0] == Record(a=5, b=5)
    assert kinds["repeated-target"][1][0].fields == ("a", "b")
    assert kinds["repeated-whole-sides"][1] == tuple(p.right
                                                     for p in NESTED)
    assert kinds["scalar-one-target-pi"][1][0] == Record(x=3)
    assert kinds["missing-join"] == ("raise", KeyError)
    assert kinds["missing-pi"] == ("raise", EvalError)
    assert kinds["ill-typed-join"] == ("raise", EvalError)
    assert kinds["unknown-join-op"] == ("raise", EvalError)
    assert kinds["unknown-join-op-unreached"] == ("ok", ())
    assert kinds["second-predicate-unreached"] == ("ok", ())
    assert kinds["second-predicate-reached"] == ("raise", KeyError)
    assert kinds["unknown-binop-operands-first"] == ("raise", EvalError)
    assert "unbound variable" in assert_agree(
        PINNED["unknown-binop-operands-first"], PIN_ENV)[2]


def test_compiled_rows_hash_like_constructed_ones():
    """Projected records and joined pairs are built without the generic
    constructors; they hash and compare as constructed rows do."""
    for expr in (PINNED["nested-pi"], PINNED["repeated-target"],
                 PINNED["nested-join"], PINNED["nested-group"]):
        rows = compile_expr(expr)(PIN_ENV, None)
        assert rows
        for row in rows:
            twin = Record(dict(row)) if isinstance(row, Record) \
                else PairRow(row.left, row.right)
            assert row == twin and hash(row) == hash(twin)
