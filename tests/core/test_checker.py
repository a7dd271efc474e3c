"""Tests for the bounded VC checker with hand-written candidates.

The ground-truth candidates come straight from paper Fig. 12; the
checker must accept them and reject the obvious mutants.
"""

import pytest

from repro.core.checker import BoundedChecker
from repro.core.logic import (Bool, CmpClause, EqClause, NotF, Or, PredApp,
                              Predicate)
from repro.core.vcgen import VC, VCSet, generate_vcs
from repro.core.worlds import generate_worlds
from repro.tor import ast as T
from repro.tor.semantics import EvalError, evaluate

from tests.helpers import running_example_fragment, selection_fragment


def users_var():
    return T.Var("users")


def join_pred():
    return T.JoinFunc((T.JoinFieldCmp("role_id", "=", "role_id"),))


def pi_left(rel):
    return T.Pi((T.FieldSpec("left", "u"),), rel)


def sigma_role(rel):
    return T.Sigma(T.SelectFunc((T.FieldCmpConst("role_id", "=", T.Const(10)),)),
                   rel)


def selection_candidate():
    """Ground truth for the selection fragment.

    ``i >= 0`` matters: without it ``top(users, i + 1)`` cannot be
    unfolded in the preservation proof (``top`` is only defined for
    non-negative prefixes).
    """
    inv = Predicate(
        params=("users", "i", "result"),
        clauses=(
            CmpClause(T.BinOp(">=", T.Var("i"), T.Const(0))),
            CmpClause(T.BinOp("<=", T.Var("i"), T.Size(users_var()))),
            EqClause("result", sigma_role(T.Top(users_var(), T.Var("i")))),
        ),
    )
    pcon = Predicate(
        params=("result", "users"),
        clauses=(EqClause("result", sigma_role(users_var())),),
    )
    return {"inv_loop0": inv, "pcon": pcon}


def running_example_candidate():
    """Paper Fig. 12, verbatim (with cat/singleton spelled explicitly)."""
    outer_inv = Predicate(
        params=("users", "roles", "i", "j", "listUsers"),
        clauses=(
            CmpClause(T.BinOp(">=", T.Var("i"), T.Const(0))),
            CmpClause(T.BinOp("<=", T.Var("i"), T.Size(users_var()))),
            EqClause("listUsers", pi_left(
                T.Join(join_pred(), T.Top(users_var(), T.Var("i")),
                       T.Var("roles")))),
        ),
    )
    inner_inv = Predicate(
        params=("users", "roles", "i", "j", "listUsers"),
        clauses=(
            CmpClause(T.BinOp(">=", T.Var("i"), T.Const(0))),
            CmpClause(T.BinOp(">=", T.Var("j"), T.Const(0))),
            CmpClause(T.BinOp("<", T.Var("i"), T.Size(users_var()))),
            CmpClause(T.BinOp("<=", T.Var("j"), T.Size(T.Var("roles")))),
            EqClause("listUsers", T.Concat(
                pi_left(T.Join(join_pred(), T.Top(users_var(), T.Var("i")),
                               T.Var("roles"))),
                pi_left(T.Join(join_pred(),
                               T.Singleton(T.Get(users_var(), T.Var("i"))),
                               T.Top(T.Var("roles"), T.Var("j")))),
            )),
        ),
    )
    pcon = Predicate(
        params=("listUsers", "users", "roles"),
        clauses=(EqClause("listUsers", pi_left(
            T.Join(join_pred(), users_var(), T.Var("roles")))),),
    )
    return {"inv_loop0": outer_inv, "inv_loop1": inner_inv, "pcon": pcon}


@pytest.fixture(scope="module")
def selection_setup():
    frag = selection_fragment()
    return BoundedChecker(generate_vcs(frag), generate_worlds(frag))


@pytest.fixture(scope="module")
def running_setup():
    frag = running_example_fragment()
    return BoundedChecker(generate_vcs(frag), generate_worlds(frag))


class TestSelectionChecking:
    def test_ground_truth_accepted(self, selection_setup):
        assert selection_setup.check(selection_candidate()) is None

    def test_wrong_constant_rejected(self, selection_setup):
        bad = selection_candidate()
        bad["pcon"] = Predicate(
            params=("result", "users"),
            clauses=(EqClause("result", T.Sigma(
                T.SelectFunc((T.FieldCmpConst("role_id", "=", T.Const(11)),)),
                users_var())),),
        )
        cex = selection_setup.check(bad)
        assert cex is not None

    def test_full_scan_postcondition_rejected(self, selection_setup):
        # Claiming "result = users" misses the filter.
        bad = selection_candidate()
        bad["pcon"] = Predicate(
            params=("result", "users"),
            clauses=(EqClause("result", users_var()),),
        )
        assert selection_setup.check(bad) is not None

    def test_non_inductive_invariant_rejected(self, selection_setup):
        # Invariant claims result stays empty: kills preservation.
        bad = selection_candidate()
        bad["inv_loop0"] = Predicate(
            params=("users", "i", "result"),
            clauses=(EqClause("result", T.EmptyRelation()),),
        )
        cex = selection_setup.check(bad)
        assert cex is not None
        assert "preservation" in cex.vc_name or "exit" in cex.vc_name

    def test_unpinned_accumulator_rejected(self):
        # Fresh checker: the shared fixture's CEGIS cache may kill this
        # candidate with an ordinary counterexample before the unpinned
        # check runs.
        frag = selection_fragment()
        checker = BoundedChecker(generate_vcs(frag), generate_worlds(frag))
        bad = selection_candidate()
        bad["inv_loop0"] = Predicate(
            params=("users", "i", "result"),
            clauses=(CmpClause(T.BinOp("<=", T.Var("i"),
                                       T.Size(users_var()))),),
        )
        cex = checker.check(bad)
        assert cex is not None
        assert "unpinned" in cex.vc_name


class TestRunningExampleChecking:
    def test_fig12_ground_truth_accepted(self, running_setup):
        assert running_setup.check(running_example_candidate()) is None

    def test_missing_inner_tail_rejected(self, running_setup):
        # Inner invariant without the partial inner-join part is not
        # preserved across inner iterations.
        bad = running_example_candidate()
        bad["inv_loop1"] = Predicate(
            params=("users", "roles", "i", "j", "listUsers"),
            clauses=(
                CmpClause(T.BinOp("<", T.Var("i"), T.Size(users_var()))),
                EqClause("listUsers", pi_left(
                    T.Join(join_pred(), T.Top(users_var(), T.Var("i")),
                           T.Var("roles")))),
            ),
        )
        assert running_setup.check(bad) is not None

    def test_wrong_join_field_rejected(self, running_setup):
        bad = running_example_candidate()
        wrong = T.JoinFunc((T.JoinFieldCmp("id", "=", "role_id"),))
        bad["pcon"] = Predicate(
            params=("listUsers", "users", "roles"),
            clauses=(EqClause("listUsers", pi_left(
                T.Join(wrong, users_var(), T.Var("roles")))),),
        )
        assert running_setup.check(bad) is not None

    def test_cegis_cache_speeds_rejection(self, running_setup):
        bad = running_example_candidate()
        bad["pcon"] = Predicate(
            params=("listUsers", "users", "roles"),
            clauses=(EqClause("listUsers", users_var()),),
        )
        first = running_setup.check(bad)
        assert first is not None
        # Second identical check should hit the CEGIS cache.
        second = running_setup.check(bad)
        assert second is not None
        assert second.vc_name == first.vc_name


def test_a_synthesis_run_is_freed_without_the_cycle_collector():
    """Memos keep detached copies of the errors they cache: a raised
    error's traceback would reach, through its frames, the memo holding
    it, and keep the run's checker, evaluator and plans alive as cyclic
    garbage until a full collection.  adv_chain's checker caches errors
    in its slot memos."""
    import gc
    import weakref

    from repro.core.synthesizer import Synthesizer
    from repro.corpus.registry import compile_fragment, fragment_by_id

    fragment = compile_fragment(fragment_by_id("adv_chain"))
    gc.collect()
    gc.disable()
    try:
        synthesizer = Synthesizer(fragment)
        assert synthesizer.synthesize().succeeded
        refs = [weakref.ref(obj) for obj in (
            synthesizer, synthesizer.checker, synthesizer.evaluator)]
        del synthesizer
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# -- the invariant-bounds pre-check ---------------------------------------------
#
# A comparison clause of an invariant applied at the top level of a VC's
# hypotheses, over parameters bound to underived arguments, is checked
# before derivation: a state failing it is vacuous.  Under Or or NotF
# a failing clause does not make the hypothesis false, so such an
# application gets no pre-check.


def _bounded_inv():
    """inv_loop0 = (i <= size(users) and result = its prefix's match)."""
    return Predicate(params=("result", "users", "i"), clauses=(
        CmpClause(T.BinOp("<=", T.Var("i"), T.Size(users_var()))),
        EqClause("result", sigma_role(T.Top(users_var(), T.Var("i"))))))


def _bounds_vc(shape):
    """A hand-built VC over the selection fragment whose hypothesis
    applies inv_loop0 in ``shape``; its conclusion is the invariant's
    own bound, so exactly the states that fail the bound can falsify
    it."""
    frag = selection_fragment()
    vcset = generate_vcs(frag)
    app = PredApp("inv_loop0", ("result", "users", "i"),
                  (T.Var("result"), users_var(), T.Var("i")))
    beyond = Bool(T.BinOp(">", T.Var("i"), T.Size(users_var())))
    hyp = {"top": app, "or": Or((app, beyond)), "not": NotF(app)}[shape]
    vc = VC("bounds " + shape, (hyp,), Bool(T.BinOp(
        "<=", T.Var("i"), T.Size(users_var()))))
    return VCSet(frag, [vc], dict(vcset.unknowns)), frag


@pytest.mark.parametrize("shape", ["or", "not"])
def test_invariant_under_or_or_not_keeps_its_counterexample(shape):
    vcset, frag = _bounds_vc(shape)
    candidate = {"inv_loop0": _bounded_inv()}
    worlds = generate_worlds(frag)
    checker = BoundedChecker(vcset, worlds)
    vc = vcset.vcs[0]
    plan = checker._plan(vc, candidate, checker._sig_id(vc, candidate))
    assert plan.bounds_fn is None
    cex = checker.check(candidate)
    seed = BoundedChecker(vcset, worlds, optimized=False).check(candidate)
    assert cex is not None and seed is not None
    assert (cex.vc_name, cex.env) == (seed.vc_name, seed.env)
    assert cex.env["i"] > len(cex.env["users"])


def test_invariant_at_top_level_is_prechecked():
    # The same bound in conjunctive position makes every state beyond
    # it vacuous: the pre-check runs, and nothing falsifies the VC.
    vcset, frag = _bounds_vc("top")
    candidate = {"inv_loop0": _bounded_inv()}
    checker = BoundedChecker(vcset, generate_worlds(frag))
    vc = vcset.vcs[0]
    plan = checker._plan(vc, candidate, checker._sig_id(vc, candidate))
    assert plan.bounds_fn is not None
    assert checker.check(candidate) is None


def _selection_shapes():
    """Candidates for the selection fragment whose invariants differ in
    clause shape: bounds or none, a bound over a derived parameter, and
    one whose derived value disagrees with the placeholder a base
    environment holds.  Each comes with a wrong and the right
    postcondition."""
    i, users, result = T.Var("i"), users_var(), T.Var("result")
    prefix = sigma_role(T.Top(users, i))
    wrong_pcon = Predicate(params=("result", "users"),
                           clauses=(EqClause("result", users),))
    invariants = [
        (CmpClause(T.BinOp("<=", i, T.Size(users))),
         EqClause("result", prefix)),
        (EqClause("result", prefix),),
        (CmpClause(T.BinOp("<", i, T.Size(users))),
         EqClause("result", prefix)),
        (CmpClause(T.BinOp(">=", i, T.Const(1))),
         CmpClause(T.BinOp("<=", i, T.Size(users))),
         EqClause("result", prefix)),
        (CmpClause(T.BinOp("<=", i, T.Size(users))),
         EqClause("result", prefix),
         CmpClause(T.BinOp("=", T.Size(result), T.Size(prefix)))),
        (CmpClause(T.BinOp("=", T.Size(result), T.Size(prefix))),
         EqClause("result", T.Top(users, i))),
    ]
    out = []
    for clauses in invariants:
        inv = Predicate(params=("users", "i", "result"), clauses=clauses)
        out.append({"inv_loop0": inv, "pcon": wrong_pcon})
        out.append({"inv_loop0": inv,
                    "pcon": selection_candidate()["pcon"]})
    return out


def test_replayed_states_keep_their_verdicts_across_clause_shapes():
    """Killer states cached under one clause shape are replayed under
    the next: every verdict, and so every counterexample, is the seed
    checker's."""
    frag = selection_fragment()
    vcset, worlds = generate_vcs(frag), generate_worlds(frag)
    optimized = BoundedChecker(vcset, worlds)
    seed = BoundedChecker(vcset, worlds, optimized=False)
    replayed = 0
    for candidate in _selection_shapes() * 2:
        cached = optimized.cegis_cache_size
        got, want = optimized.check(candidate), seed.check(candidate)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.vc_name, worlds.index(got.world), got.env) == \
                (want.vc_name, worlds.index(want.world), want.env)
            replayed += optimized.cegis_cache_size == cached
    assert replayed >= 6


# -- state lists built from guard-filtered domains ------------------------------


def _guard_filtered_product(checker, vc, world, assignment):
    """The seed product of base environments, kept where every static
    guard (a Bool hypothesis that reads no derived variable) holds under
    the interpreter; a guard outside the axioms' domain admits nothing."""
    _, derived = checker._classify_free_vars(vc, assignment)
    guards = [hyp.expr for hyp in vc.hypotheses if isinstance(hyp, Bool)
              and not T.free_vars(hyp.expr) & set(derived)]

    def admits(env):
        for guard in guards:
            try:
                if not evaluate(guard, env, world.db):
                    return False
            except EvalError:
                return False
        return True
    return [env for env in checker._generate_base_envs(vc, world, assignment)
            if admits(env)]


def test_state_lists_equal_the_guard_filtered_product_over_the_corpus():
    """Every compilable corpus fragment, under its synthesized
    assignment: each VC's state list in each world is the seed product
    filtered by the static guards, in the same order."""
    from repro.core.synthesizer import Synthesizer
    from repro.corpus.registry import ALL_FRAGMENTS, compile_fragment
    from repro.frontend import FrontendRejection

    lists = guarded = 0
    for cf in ALL_FRAGMENTS:
        try:
            fragment = compile_fragment(cf)
        except FrontendRejection:
            continue
        synthesizer = Synthesizer(fragment)
        assignment = synthesizer.synthesize().assignment
        if assignment is None:
            continue
        checker = BoundedChecker(synthesizer.vcset, synthesizer.worlds)
        for vc in synthesizer.vcset.vcs:
            for world in synthesizer.worlds:
                want = _guard_filtered_product(checker, vc, world,
                                               assignment)
                assert checker._base_envs(vc, world, assignment) == want, \
                    (cf.fragment_id, vc.name)
                lists += 1
                guarded += any(isinstance(hyp, Bool)
                               for hyp in vc.hypotheses)
    assert lists > 1000 and guarded > 500


def test_guards_over_several_enumerables_or_none_filter_the_product():
    """Corpus guards each read one enumerable; these read two, or none."""
    frag = running_example_fragment()
    vcset, worlds = generate_vcs(frag), generate_worlds(frag)
    i, j = T.Var("i"), T.Var("j")
    app = PredApp("inv_loop1", vcset.unknowns["inv_loop1"],
                  tuple(T.Var(name) for name in vcset.unknowns["inv_loop1"]))
    hyps = (app,
            Bool(T.BinOp("<", i, j)),
            Bool(T.BinOp("<", j, T.Size(T.Var("roles")))),
            Bool(T.BinOp("<=", T.Size(T.Var("roles")), T.Const(2))))
    vc = VC("guarded", hyps, Bool(T.Const(True)))
    custom = VCSet(frag, [vc], dict(vcset.unknowns))
    candidate = running_example_candidate()
    checker = BoundedChecker(custom, worlds)
    kept = 0
    for world in worlds:
        want = _guard_filtered_product(checker, vc, world, candidate)
        assert checker._base_envs(vc, world, candidate) == want
        kept += len(want)
    assert kept > 0
