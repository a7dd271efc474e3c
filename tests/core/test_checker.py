"""Tests for the bounded VC checker with hand-written candidates.

The ground-truth candidates come straight from paper Fig. 12; the
checker must accept them and reject the obvious mutants.
"""

import pytest

from repro.core.checker import BoundedChecker
from repro.core.logic import CmpClause, EqClause, Predicate
from repro.core.vcgen import generate_vcs
from repro.core.worlds import generate_worlds
from repro.tor import ast as T

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
