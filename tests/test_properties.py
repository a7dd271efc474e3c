"""Property-based tests (hypothesis) for core invariants.

These check the load-bearing semantic properties the reproduction rests
on:

* the TOR evaluator agrees with straightforward reference
  implementations of selection / projection / join / aggregates;
* the Theorem 2 equivalences used by ``Trans`` are semantics-preserving
  on random relations;
* generated SQL agrees with direct TOR evaluation (the engine and the
  axioms implement the same algebra);
* the arithmetic engine is sound (anything it entails holds in random
  concrete valuations).
"""

from hypothesis import given, settings, strategies as st

from repro.core.arith import FactSet
from repro.sql.database import Database
from repro.tor import ast as T
from repro.tor.compile import compile_expr
from repro.tor.semantics import evaluate
from repro.tor.trans import normalize
from repro.tor.values import PairRow, Record, field_getter, resolve_path

# -- strategies ----------------------------------------------------------------

small_int = st.integers(min_value=0, max_value=4)


@st.composite
def relations(draw, fields=("a", "b"), max_size=5):
    size = draw(st.integers(min_value=0, max_value=max_size))
    rows = []
    for _ in range(size):
        rows.append(Record({f: draw(small_int) for f in fields}))
    return tuple(rows)


# -- evaluator vs reference ------------------------------------------------------


@given(relations())
def test_selection_matches_reference(rel):
    pred = T.SelectFunc((T.FieldCmpConst("a", "=", T.Const(1)),))
    out = evaluate(T.Sigma(pred, T.Var("r")), {"r": rel})
    assert out == tuple(row for row in rel if row["a"] == 1)


@given(relations())
def test_projection_matches_reference(rel):
    out = evaluate(T.Pi((T.FieldSpec("b", "b"),), T.Var("r")), {"r": rel})
    assert out == tuple(Record(b=row["b"]) for row in rel)


@given(relations(), relations(fields=("b", "c")))
def test_join_matches_reference(left, right):
    pred = T.JoinFunc((T.JoinFieldCmp("a", "=", "b"),))
    out = evaluate(T.Join(pred, T.Var("l"), T.Var("r")),
                   {"l": left, "r": right})
    expected = tuple(PairRow(lr, rr) for lr in left for rr in right
                     if lr["a"] == rr["b"])
    assert out == expected


@given(relations(fields=("v",)))
def test_aggregates_match_reference(rel):
    env = {"r": rel}
    assert evaluate(T.SumOp(T.Var("r")), env) == sum(r["v"] for r in rel)
    assert evaluate(T.Size(T.Var("r")), env) == len(rel)
    if rel:
        assert evaluate(T.MaxOp(T.Var("r")), env) == max(r["v"] for r in rel)
        assert evaluate(T.MinOp(T.Var("r")), env) == min(r["v"] for r in rel)


@given(relations(), small_int)
def test_top_get_axioms(rel, i):
    env = {"r": rel}
    top = evaluate(T.Top(T.Var("r"), T.Const(i)), env)
    assert top == rel[:i]
    if i < len(rel):
        assert evaluate(T.Get(T.Var("r"), T.Const(i)), env) == rel[i]


@given(relations())
def test_unique_keeps_first_occurrences(rel):
    out = evaluate(T.Unique(T.Var("r")), {"r": rel})
    assert len(set(out)) == len(out)
    assert set(out) == set(rel)
    # Order of first occurrences is preserved.
    seen = []
    for row in rel:
        if row not in seen:
            seen.append(row)
    assert list(out) == seen


# -- Trans / Theorem 2 -------------------------------------------------------------


@given(relations())
def test_trans_preserves_sigma_pi_semantics(rel):
    inner = T.Pi((T.FieldSpec("a", "a"), T.FieldSpec("b", "b")), T.Var("r"))
    expr = T.Sigma(T.SelectFunc((T.FieldCmpConst("a", ">", T.Const(1)),)),
                   inner)
    env = {"r": rel}
    assert evaluate(normalize(expr), env) == evaluate(expr, env)


@given(relations())
def test_trans_merges_nested_sigmas_correctly(rel):
    expr = T.Sigma(
        T.SelectFunc((T.FieldCmpConst("a", ">", T.Const(0)),)),
        T.Sigma(T.SelectFunc((T.FieldCmpConst("b", "<", T.Const(3)),)),
                T.Var("r")))
    env = {"r": rel}
    normalized = normalize(expr)
    assert isinstance(normalized, T.Sigma)
    assert not isinstance(normalized.rel, T.Sigma)
    assert evaluate(normalized, env) == evaluate(expr, env)


@given(relations(), relations(fields=("b", "c")))
def test_trans_hoists_join_projections(left, right):
    expr = T.Join(
        T.JoinFunc((T.JoinFieldCmp("a", "=", "b"),)),
        T.Pi((T.FieldSpec("a", "a"),), T.Var("l")),
        T.Pi((T.FieldSpec("b", "b"),), T.Var("r")))
    env = {"l": left, "r": right}
    normalized = normalize(expr)
    assert isinstance(normalized, T.Pi)
    # Contents agree modulo the record-vs-pair wrapping of projection.
    out_n = evaluate(normalized, env)
    out_o = evaluate(expr, env)
    assert len(out_n) == len(out_o)


# -- SQL engine vs TOR semantics ------------------------------------------------------


# -- compiled paths, projections and joins vs the interpreter ---------------------

# Rows of every shape a path can meet: records (some with a field named
# like a pair side), nested pairs, and bare scalars, whose values
# include ones no comparison orders against an int.
_scalars = st.one_of(small_int, st.sampled_from(["x", None]))
_records = st.dictionaries(st.sampled_from(["a", "b", "left"]), _scalars,
                           max_size=3).map(Record)
any_rows = st.recursive(st.one_of(_scalars, _records),
                        lambda inner: st.builds(PairRow, inner, inner),
                        max_leaves=5)
paths = st.lists(st.sampled_from(["a", "b", "left", "right", "zz"]),
                 min_size=1, max_size=4).map(".".join)


def _outcome(run):
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("raise", type(exc), str(exc))
    return ("ok", value, repr(value))


@given(any_rows, paths)
def test_field_getter_matches_resolve_path(row, path):
    assert _outcome(lambda: field_getter(path)(row)) == \
        _outcome(lambda: resolve_path(row, path))


@given(st.lists(any_rows, max_size=4).map(tuple),
       st.lists(st.tuples(paths, st.sampled_from(["a", "b"])), min_size=1,
                max_size=3))
def test_compiled_projection_matches_interpreter(rel, specs):
    expr = T.Pi(tuple(T.FieldSpec(source, target)
                      for source, target in specs), T.Var("r"))
    env = {"r": rel}
    assert _outcome(lambda: compile_expr(expr)(env, None)) == \
        _outcome(lambda: evaluate(expr, env))


@given(st.lists(any_rows, max_size=3).map(tuple),
       st.lists(any_rows, max_size=3).map(tuple), paths, paths,
       st.sampled_from(T.PREDICATE_OPS))
def test_compiled_join_matches_interpreter(left, right, lpath, rpath, op):
    expr = T.Join(T.JoinFunc((T.JoinFieldCmp(lpath, op, rpath),)),
                  T.Var("l"), T.Var("r"))
    env = {"l": left, "r": right}
    assert _outcome(lambda: compile_expr(expr)(env, None)) == \
        _outcome(lambda: evaluate(expr, env))


@given(relations(), relations(fields=("b", "c")))
@settings(max_examples=25, deadline=None)
def test_sql_join_matches_tor_join(left, right):
    db = Database()
    db.create_table("l", ("a", "b"))
    db.create_table("r", ("b", "c"))
    db.insert_many("l", left)
    db.insert_many("r", right)

    sql = ("SELECT t0.* FROM l AS t0, r AS t1 WHERE t0.a = t1.b "
           "ORDER BY t0._rowid, t1._rowid")
    engine_rows = tuple(db.execute(sql).rows)

    join = T.Join(T.JoinFunc((T.JoinFieldCmp("a", "=", "b"),)),
                  T.Var("l"), T.Var("r"))
    tor_rows = tuple(p.left for p in evaluate(
        T.Pi((T.FieldSpec("left", "row"),), join),
        {"l": left, "r": right}) for p in ())  # placeholder
    tor_rows = evaluate(T.Pi((T.FieldSpec("left", "row"),), join),
                        {"l": left, "r": right})
    assert engine_rows == tor_rows


@given(relations())
@settings(max_examples=25, deadline=None)
def test_sql_selection_matches_tor_selection(rel):
    db = Database()
    db.create_table("t", ("a", "b"))
    db.insert_many("t", rel)
    engine_rows = tuple(db.execute(
        "SELECT * FROM t AS t0 WHERE t0.a = 1 ORDER BY t0._rowid").rows)
    tor_rows = evaluate(
        T.Sigma(T.SelectFunc((T.FieldCmpConst("a", "=", T.Const(1)),)),
                T.Var("t")), {"t": rel})
    assert engine_rows == tor_rows


# -- arithmetic soundness ---------------------------------------------------------


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_factset_entailment_is_sound(i, j, n):
    memo = {}
    facts = FactSet(int_vars={"i", "j"}, memo=memo)
    vi, vj = T.Var("i"), T.Var("j")
    size = T.Size(T.Var("r"))
    model = {vi: i, vj: j, size: n}

    candidate_facts = [("<", vi, size), ("<=", vj, size), (">=", vi, vj)]
    holding = []
    for op, l, r in candidate_facts:
        lv, rv = model[l], model[r]
        holds = {"<": lv < rv, "<=": lv <= rv, ">=": lv >= rv}[op]
        if holds:
            facts.add_comparison(op, l, r)
            holding.append((op, l, r))

    goals = [("<=", T.BinOp("+", vi, T.Const(1)), size),
             ("=", vi, vj), ("<", vj, size), (">=", size, T.Const(0))]

    def sound_answers(factset, holding):
        answers = []
        for op, l, r in goals:
            entailed = factset.entails(op, l, r)
            if entailed:
                assert _true_in(model, op, l, r), (holding, (op, l, r))
            answers.append(entailed)
        return answers

    # Asked twice through one memo: the second round answers from it.
    first = sound_answers(facts, holding)
    assert len(memo) == len(goals)
    assert sound_answers(facts, holding) == first
    # A copy shares the memo.  Once it gains a true fact it answers
    # under its own signature, and the original keeps its answers.  The
    # fact is a goal that holds but was not entailed, where there is one,
    # so a memo that ignored the facts would answer it stale.
    gained = next((goal for goal, known in zip(goals, first)
                   if not known and _true_in(model, *goal)),
                  ("=", vi, T.Const(i)))
    more = facts.copy()
    more.add_comparison(*gained)
    pinned = sound_answers(more, holding + [gained])
    fresh = FactSet(int_vars={"i", "j"})
    for fact in holding + [gained]:
        fresh.add_comparison(*fact)
    assert pinned == [fresh.entails(*goal) for goal in goals]
    assert sound_answers(facts, holding) == first


def _true_in(model, op, left, right):
    lv, rv = _value(left, model), _value(right, model)
    return {"<": lv < rv, "<=": lv <= rv, "=": lv == rv, ">=": lv >= rv}[op]


def _value(expr, model):
    if expr in model:
        return model[expr]
    if isinstance(expr, T.Const):
        return expr.value
    if isinstance(expr, T.BinOp) and expr.op == "+":
        return _value(expr.left, model) + _value(expr.right, model)
    raise AssertionError(expr)
