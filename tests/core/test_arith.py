"""The arithmetic engine: integer Fourier-Motzkin against a reference.

``reference_feasible`` is the engine's earlier elimination, kept here
only: Fraction coefficients, atoms eliminated in ``repr`` order, every
derived row kept.  FM projection is exact over the rationals in any
order, so the integer engine must answer every system exactly as the
reference does.  The seeded systems are shaped like the ones a corpus
pass asks about: 1-17 rows over 0-10 atoms, each row touching one or
two atoms with unit coefficients, now and then a coefficient of 2 (the
reference's cost grows fast with denser rows).
"""

import random
from fractions import Fraction

import pytest

import repro.core.arith as arith
from repro.core.arith import Constraint, FactSet, LinExpr, linearize
from repro.core.prover import Prover, _BoolFacts
from repro.core.vcgen import generate_vcs
from repro.tor import ast as T

from tests.helpers import selection_fragment


def reference_feasible(system):
    """Fourier-Motzkin feasibility over the rationals (the old engine)."""
    constraints = [
        Constraint(LinExpr({a: Fraction(c) for a, c in con.lin.terms.items()},
                           Fraction(con.lin.const)), con.strict)
        for con in system]
    while True:
        atoms = set()
        for con in constraints:
            atoms |= con.lin.atoms()
        if not atoms:
            break
        atom = sorted(atoms, key=repr)[0]
        upper, lower, rest = [], [], []
        for con in constraints:
            coef = con.lin.terms.get(atom, Fraction(0))
            if coef > 0:
                lower.append(con)
            elif coef < 0:
                upper.append(con)
            else:
                rest.append(con)
        for lo in lower:
            for hi in upper:
                lo_coef = lo.lin.terms[atom]
                hi_coef = -hi.lin.terms[atom]
                combined = lo.lin.scale(hi_coef) + hi.lin.scale(lo_coef)
                combined.terms.pop(atom, None)
                rest.append(Constraint(combined,
                                       strict=lo.strict or hi.strict))
        constraints = rest
    for con in constraints:
        if con.strict and con.lin.const <= 0:
            return False
        if not con.strict and con.lin.const < 0:
            return False
    return True


#: Integer counters, real-valued reads and ``size`` terms, as in the corpus.
INT_VARS = {"i", "j", "k"}
ATOMS = ([T.Var(name) for name in sorted(INT_VARS)]
         + [T.Var("x"), T.Var("y")]
         + [T.Size(T.Var(rel)) for rel in ("r", "s", "t")]
         + [T.FieldAccess(T.Get(T.Var("r"), T.Var("i")), "a"),
            T.MaxOp(T.Var("s"))])


def random_system(rng):
    """One seeded constraint system shaped like a corpus FM query."""
    atoms = rng.sample(ATOMS, rng.randint(0, len(ATOMS)))
    rows = []
    for _ in range(rng.randint(1, 17)):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))  # a duplicate row
            continue
        if not atoms or roll < 0.25:
            # A row that always holds (or, now and then, never does).
            rows.append(Constraint(LinExpr({}, rng.randint(-1, 3)),
                                   strict=rng.random() < 0.3))
            continue
        terms = {atom: rng.choice((1, -1)) * (2 if rng.random() < 0.1
                                             else 1)
                 for atom in rng.sample(atoms, min(len(atoms),
                                                   rng.randint(1, 2)))}
        rows.append(Constraint(LinExpr(terms, rng.randint(-3, 3)),
                               strict=rng.random() < 0.2))
    if atoms and rng.random() < 0.2:
        # One non-integral float constant, as linearize reads it.
        lin = linearize(T.BinOp("-", T.BinOp("*", T.Const(0.5),
                                             rng.choice(atoms)),
                                T.Const(1.25)))
        rows.insert(rng.randrange(len(rows) + 1), Constraint(lin))
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_integer_fm_matches_reference(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(250):
        system = random_system(rng)
        expected = reference_feasible(system)
        assert arith._feasible(system) is expected, system
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_fm_clears_non_integral_float_constants():
    x = T.Var("x")
    # 0.5 * x >= 1.25 and x <= 2.5 meet at x = 2.5; strict makes it empty.
    low = Constraint(linearize(T.BinOp("-", T.BinOp("*", T.Const(0.5), x),
                                       T.Const(1.25))))
    high = Constraint(linearize(T.BinOp("-", T.Const(2.5), x)))
    assert arith._feasible([low, high])
    assert not arith._feasible([low, Constraint(high.lin, strict=True)])


def eliminate(factset, lin, strict, feasible=reference_feasible):
    """Does ``factset`` entail ``lin >= 0`` (``> 0`` when strict)?

    Elimination alone, over ``factset``'s stored constraints: add the
    negated goal (integer tightening when every atom is an integer) and
    a ``size >= 0`` row per size atom; the goal is entailed when that
    system is infeasible.
    """
    neg = -lin
    if strict:
        goal = Constraint(neg)
    elif all(arith._is_int_atom(a, factset.int_vars) for a in neg.atoms()):
        goal = Constraint(neg.shift(-1))
    else:
        goal = Constraint(neg, strict=True)
    system = factset.constraints + [goal]
    sizes = {atom: None for con in system for atom in con.lin.terms
             if isinstance(atom, T.Size)}
    system += [Constraint(LinExpr({atom: 1})) for atom in sizes]
    return not feasible(system)


def reference_entails(factset, op, left, right):
    """Is ``left op right`` entailed?  One or two :func:`eliminate`
    questions over ``reference_feasible``."""
    l, r = linearize(left), linearize(right)
    if op == "=":
        return eliminate(factset, r - l, False) \
            and eliminate(factset, l - r, False)
    if op == "!=":
        return eliminate(factset, r - l, True) \
            or eliminate(factset, l - r, True)
    lin = {"<": r - l, "<=": r - l, ">": l - r, ">=": l - r}[op]
    return eliminate(factset, lin, op in ("<", ">"))


def _random_cases(rng, count):
    cases = []
    for _ in range(count):
        facts = []
        for _ in range(rng.randint(1, 6)):
            left, right = rng.sample(ATOMS[:8], 2)
            if rng.random() < 0.4:
                right = T.BinOp("+", right, T.Const(rng.randint(-2, 2)))
            facts.append((rng.choice(("<", "<=", "=", ">=", ">")),
                          left, right))
        goals = [(rng.choice(("<", "<=", "=", "!=", ">=", ">")),
                  *rng.sample(ATOMS[:8], 2)) for _ in range(6)]
        goals.append((">=", rng.choice(ATOMS[5:8]), T.Const(0)))
        cases.append((facts, goals))
    return cases


def _plus(atom, k):
    return T.BinOp("+", atom, T.Const(k))


def _shortcut_cases():
    """Goals the engine decides without eliminating.

    A goal that is a fact plus a constant ``k`` (strict or not, over a
    strict or non-strict fact, over integer or real atoms), goals over
    an atom no fact mentions (under feasible and infeasible facts), and
    infeasible fact sets."""
    i, j, x, y, z = (T.Var(name) for name in "ijxyz")
    size_r = T.Size(T.Var("r"))
    cases = []
    for left, right in ((i, j), (x, y), (i, size_r), (x, size_r)):
        for fact_op in ("<", "<=", "=", ">=", ">"):
            goals = [(op, left, _plus(right, k))
                     for op in ("<", "<=", ">", ">=", "=", "!=")
                     for k in (-1, 0, 1)]
            goals += [(op, _plus(left, k), right)
                      for op in ("<", "<=", ">", ">=") for k in (-1, 0, 1)]
            cases.append(([(fact_op, left, right)], goals))
    free_goals = [(op, atom, other) for op in ("<", "<=", "=", "!=", ">=")
                  for atom in (z, T.Var("k"), T.MaxOp(T.Var("s")))
                  for other in (x, size_r, T.Const(0), _plus(i, 2))]
    cases.append(([("<", x, y)], free_goals))
    cases.append(([("<", x, y), (">", x, y)], free_goals))
    cases.append(([("<", i, size_r), (">=", i, size_r)], free_goals))
    cases.append(([("<", size_r, T.Const(0))], free_goals))
    cases.append(([("<=", _plus(i, 1), j), ("<=", j, i)],
                  [("<", i, j), (">=", z, x), ("=", i, j)]))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_factset_entailment_matches_reference_engine(seed):
    """Tightening and implicit sizes on top, and every shortcut before
    elimination: whole answers agree with elimination over the
    reference engine, on seeded cases and on the hand-built ones.  They
    are asked twice: once without memos, and once through one pair of
    entailment and feasibility memos shared by every fact set, as a
    prover shares its own."""
    cases = _random_cases(random.Random(1000 + seed), 60) + _shortcut_cases()
    outcomes = set()
    for memo, feasible_memo in ((None, None), ({}, {})):
        for facts, goals in cases:
            factset = FactSet(INT_VARS, memo, feasible_memo)
            for fact in facts:
                factset.add_comparison(*fact)
            for goal in goals:
                expected = reference_entails(factset, *goal)
                assert factset.entails(*goal) is expected, (facts, goal)
                outcomes.add(expected)
    assert outcomes == {True, False}
    assert memo and feasible_memo


def test_corpus_entailment_answers_match_elimination():
    """One QBS pass over the corpus: every ``>=``/``>`` question the
    prover asks gets the answer elimination alone gives.  Elimination
    runs on the integer engine here, which the tests above pin to the
    reference; the reference itself is too slow for the corpus's
    denser systems."""
    from repro.core.qbs import QBS
    from repro.corpus.registry import ALL_FRAGMENTS, compile_fragment
    from repro.frontend import FrontendRejection

    decide = FactSet._entails_geq
    asked = []

    def checked(self, lin, strict):
        answer = decide(self, lin, strict)
        asked.append((answer, eliminate(self, lin, strict,
                                         arith._feasible)))
        return answer

    qbs = QBS()
    FactSet._entails_geq = checked
    try:
        for cf in ALL_FRAGMENTS:
            try:
                qbs.run(compile_fragment(cf))
            except FrontendRejection:
                continue
    finally:
        FactSet._entails_geq = decide
    assert len(asked) > 1000
    assert all(answer is expected for answer, expected in asked)
    assert {answer for answer, _ in asked} == {True, False}


# -- bool constants are not numbers -------------------------------------------


def test_bool_and_int_constants_have_distinct_signatures():
    x = T.Var("x")
    as_int, as_bool = FactSet(), FactSet()
    as_int.add_comparison("=", x, T.Const(1))
    as_bool.add_comparison("=", x, T.Const(True))
    assert T.Const(True) != T.Const(1)
    assert T.Const(False) != T.Const(0)
    assert T.Const(1) == T.Const(1.0)
    assert hash(T.Const(1)) == hash(T.Const(1.0))
    assert as_int.signature() != as_bool.signature()


def test_prover_memo_warmed_with_bool_form_answers_int_form():
    # linearize reads True as an opaque atom and 1 as a number, so
    # x = True says nothing about x = 1.  A memo keyed on equal
    # signatures would hand that answer to x = 1 as well.
    prover = Prover(generate_vcs(selection_fragment()))
    x = T.Var("x")
    goal = T.BinOp("=", x, T.Const(1))
    as_bool, as_int = prover.new_facts(), prover.new_facts()
    as_bool.add_comparison("=", x, T.Const(True))
    as_int.add_comparison("=", x, T.Const(1))
    assert not as_bool.entails("=", x, T.Const(1))
    assert prover._normalize(goal, as_bool, _BoolFacts()) == goal
    assert as_int.entails("=", x, T.Const(1))
    assert prover._normalize(goal, as_int, _BoolFacts()) == T.Const(True)
