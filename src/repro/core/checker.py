"""Bounded checking of verification conditions against candidate predicates.

This is the reproduction's stand-in for Sketch's bounded model checking
(paper Sec. 4.2): every VC is tested over all program states reachable
within a world suite — database tables up to the size bound, loop
counters over their full index ranges, and loop-modified variables
*derived* from the candidate invariant's equality clauses.

Derivation is the key trick.  A candidate invariant has the shape

    i <= size(users) and listUsers = pi(join(top(users, i), roles))

so rather than enumerating every possible value of ``listUsers`` (an
astronomically large space), the checker enumerates only the base
variables (``users``, ``roles`` from the world; ``i``, ``j`` over index
ranges) and computes ``listUsers`` from its defining expression.  States
that violate the invariant's comparison clauses are skipped — they make
the VC's hypothesis false, so the implication holds vacuously.

A returned :class:`Counterexample` records the world and base
environment that falsified a VC; the synthesizer keeps these in a CEGIS
cache and tries them first against subsequent candidates.

Performance architecture (optimized mode, the default):

* TOR expressions are evaluated through compiled closures
  (:mod:`repro.tor.compile`); each VC is further compiled into a *plan*
  — derivation steps plus hypothesis/conclusion closures — cached per
  (VC, clause structure), so the per-state loop runs no formula
  dispatch at all.
* Candidate assignments are fingerprinted by the clauses of exactly the
  predicates a VC mentions.  Fingerprints are interned to small ints,
  and every verdict memo (per world, per cached counterexample state)
  is keyed on them: thousands of combinations sharing a clause prefix
  reuse verdicts instead of re-walking states.
* State enumeration is pre-indexed per (VC, enumerable shape, world)
  and generated once, not per candidate.  Static guards (Bool
  hypotheses over no derived variable) filter the list as it is built:
  a guard over one enumerable filters that enumerable's index range
  once, the others the product of the filtered ranges, so only the
  states they admit are built, in the seed product's order.
* An invariant's comparison clauses over parameters bound to underived
  arguments (``i < size(users)``), applied at the top level of a VC's
  hypotheses, are checked before any derivation runs: a state failing
  one is vacuous, so it pays for no derivation.  An application under
  ``Or`` or ``NotF`` gets no such check, since a false clause there
  does not make the hypothesis false.
* The CEGIS cache is deduplicated and its replay verdicts are memoized
  per clause structure; it lives as long as the checker — one per
  synthesizer — so killer states persist across template levels.
  Replay order matches the seed engine exactly: which counterexample
  comes back decides what Houdini blames, so reordering could change
  synthesis outcomes.

``optimized=False`` reproduces the seed implementation state-for-state
(used by the speed benchmark and the outcome-equivalence regression
test).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, \
    Tuple

from repro.core.logic import (
    And,
    Assignment,
    Bool,
    CmpClause,
    EqClause,
    Formula,
    Implies,
    NotF,
    Or,
    PredApp,
    formula_pred_apps,
)
from repro.core.vcgen import VC, VCSet
from repro.core.worlds import World
from repro.kernel import ast as K
from repro.tor import ast as T
from repro.tor.compile import Evaluator, detached
from repro.tor.semantics import EvalError, evaluate


@dataclass
class Counterexample:
    """A VC falsification: which VC failed, in which state."""

    vc_name: str
    world: World
    env: Dict[str, Any]

    def __str__(self) -> str:
        bindings = ", ".join("%s=%r" % (k, v) for k, v in sorted(
            self.env.items(), key=lambda kv: kv[0]))
        return "%s falsified at {%s}" % (self.vc_name, bindings)


class UnpinnedVariableError(Exception):
    """A loop-modified relation variable has no defining equality.

    Such a candidate can never discharge its VCs — the conclusion would
    have to hold for *arbitrary* values of the variable — so the checker
    rejects it outright instead of searching for a counterexample.
    """


def _formula_vars(formula: Formula) -> set:
    if isinstance(formula, Bool):
        return T.free_vars(formula.expr)
    if isinstance(formula, (And, Or)):
        out = set()
        for part in formula.parts:
            out |= _formula_vars(part)
        return out
    if isinstance(formula, NotF):
        return _formula_vars(formula.part)
    if isinstance(formula, Implies):
        return _formula_vars(formula.antecedent) | _formula_vars(formula.consequent)
    if isinstance(formula, PredApp):
        out = set()
        for arg in formula.args:
            out |= T.free_vars(arg)
        return out
    raise TypeError(formula)


def _clause_expr(clause) -> T.TorNode:
    return clause.expr


_UNSET = object()


def eval_formula(formula: Formula, env: Dict[str, Any], db,
                 assignment: Assignment, eval_fn=None) -> bool:
    """Evaluate a VC formula under a full concrete environment.

    ``eval_fn`` substitutes a different TOR evaluation strategy for the
    formula's atoms (the checker passes its compiled evaluator); it must
    match :func:`repro.tor.semantics.evaluate` in signature and
    semantics.
    """
    if eval_fn is None:
        eval_fn = evaluate
    if isinstance(formula, Bool):
        return bool(eval_fn(formula.expr, env, db))
    if isinstance(formula, And):
        return all(eval_formula(p, env, db, assignment, eval_fn)
                   for p in formula.parts)
    if isinstance(formula, Or):
        return any(eval_formula(p, env, db, assignment, eval_fn)
                   for p in formula.parts)
    if isinstance(formula, NotF):
        return not eval_formula(formula.part, env, db, assignment, eval_fn)
    if isinstance(formula, Implies):
        if not eval_formula(formula.antecedent, env, db, assignment, eval_fn):
            return True
        return eval_formula(formula.consequent, env, db, assignment, eval_fn)
    if isinstance(formula, PredApp):
        predicate = assignment[formula.name]
        values = {param: eval_fn(arg, env, db)
                  for param, arg in zip(formula.params, formula.args)}
        return predicate.holds_env(values, db, eval_fn=eval_fn)
    raise TypeError(formula)


class _VCPlan:
    """One VC compiled against one clause structure.

    ``bounds_fn`` (or None) is a closure ``fn(env, db, wkey) -> bool``
    over the base environment: the comparison clauses of the invariant
    applications in conjunctive hypothesis position whose parameters
    read no derived variable (``i < size(users)``).  A state failing
    one is vacuous, so it is checked before any derivation runs.
    ``derivers`` mutate a state environment in hypothesis order (the
    pinned-variable derivation of :meth:`BoundedChecker._violates`);
    ``hyp_fns`` and ``concl_fn`` are closures ``fn(env, db, wkey) ->
    bool`` evaluating the rest of the hypotheses and the conclusion
    with no formula dispatch left at run time.  ``guard_fns`` holds the
    static guards omitted from ``hyp_fns`` because fresh-scan state
    lists are pre-filtered by them; the CEGIS replay path re-checks
    them, since replayed states may originate from a different
    derivation shape.
    """

    __slots__ = ("bounds_fn", "derivers", "hyp_fns", "concl_fn",
                 "guard_fns")

    def __init__(self, bounds_fn, derivers, hyp_fns, concl_fn, guard_fns):
        self.bounds_fn = bounds_fn
        self.derivers = derivers
        self.hyp_fns = hyp_fns
        self.concl_fn = concl_fn
        self.guard_fns = guard_fns

    def derive(self, env: Dict[str, Any], db, wkey) -> Dict[str, Any]:
        """A copy of ``env`` with every pinned variable derived."""
        full_env = dict(env)
        for derive in self.derivers:
            derive(full_env, db, wkey)
        return full_env


class _PlanBuilder:
    """Compiles one VC into a :class:`_VCPlan` with state-memoized slots.

    The checker's state loop varies only the *enumerable* variables —
    everything else in a base environment is fixed per world, and every
    derived variable is a deterministic function of (world, enumerable
    values) under a fixed clause structure.  So each expression slot in
    the plan is memoized on ``(slot, world, values of the enumerables
    it transitively depends on)``: an expression mentioning only loop
    counter ``i`` is evaluated once per ``i``, not once per ``(i, j)``
    state, and world-fixed expressions once per world.

    Relevance is tracked statically while the plan is built: derived
    variables inherit the union of their defining expressions' relevant
    sets (mapped through the predicate's parameter/argument renaming,
    in derivation order).
    """

    def __init__(self, checker: "BoundedChecker", enumerable: List[str]):
        self.ev = checker.evaluator
        self.enum_set = set(enumerable)
        #: full_env variable -> enumerables its value depends on.
        self.var_rel: Dict[str, Tuple[str, ...]] = {}

    # -- relevance tracking -------------------------------------------------

    def rel_of_var(self, name: str) -> Tuple[str, ...]:
        if name in self.enum_set:
            return (name,)
        return self.var_rel.get(name, ())

    def rel_of_expr(self, expr: T.TorNode) -> Tuple[str, ...]:
        out: set = set()
        for name in T.free_vars(expr):
            out.update(self.rel_of_var(name))
        return tuple(sorted(out))

    # -- memoized slots -----------------------------------------------------

    def slot_fn(self, expr: T.TorNode, rel: Tuple[str, ...]):
        """Closure ``fn(eval_env, key_env, db, wkey)`` for one expression.

        ``eval_env`` is the environment the expression evaluates under
        (the VC state, or a predicate's parameter binding); ``key_env``
        always holds the enumerable variables, which may live in a
        different namespace than ``eval_env``.

        Variable references and constants compile to direct reads: no
        evaluator is entered at run time, so they are (correctly) not
        counted as evaluator invocations.  Other tiny expressions skip
        the memo — a dict probe costs more than evaluating them — but
        still count.
        """
        if isinstance(expr, T.Var):
            name = expr.name

            def run_var(eval_env, key_env, db, wkey):
                try:
                    return eval_env[name]
                except KeyError:
                    raise EvalError("unbound variable %r" % name) from None
            return run_var
        if isinstance(expr, T.Const):
            value = expr.value
            return lambda eval_env, key_env, db, wkey: value

        base = self.ev.fn(expr)
        stats = self.ev.stats
        # Memoize only when some enumerable is *irrelevant* to the
        # expression: then several states share its value.  When the
        # relevant set covers every enumerable (or a world has a single
        # state), each probe would miss — the memo is pure overhead.
        if not self.enum_set or set(rel) == self.enum_set:
            def run_plain(eval_env, key_env, db, wkey):
                stats.requests += 1
                stats.executed += 1
                return base(eval_env, db)
            return run_plain

        memo: Dict = {}
        # The key's values come from one C call: a tuple for several
        # relevant enumerables, the bare value for one.
        pick = itemgetter(*rel) if rel else None

        def run(eval_env, key_env, db, wkey):
            key = wkey if pick is None else (wkey, pick(key_env))
            stats.requests += 1
            hit = memo.get(key, _UNSET)
            if hit is not _UNSET:
                stats.memo_hits += 1
                ok, payload = hit
                if ok:
                    return payload
                raise detached(payload)
            stats.executed += 1
            try:
                value = base(eval_env, db)
            except EvalError as exc:
                memo[key] = (False, detached(exc))
                raise
            memo[key] = (True, value)
            return value
        return run

    # -- derivation ---------------------------------------------------------

    def build_deriver(self, app: PredApp, predicate):
        """Compile one hypothesis application's pinned-variable derivation.

        Mirrors the interpretive path: bind parameters from plain-Var
        arguments present in the state, evaluate equality clauses in
        order extending the binding, then write derived parameter
        values back through the same arguments.
        """
        var_params = [(param, arg.name)
                      for param, arg in zip(app.params, app.args)
                      if isinstance(arg, T.Var)]
        # Parameter namespace -> relevant enumerables, built in
        # derivation order.
        param_rel: Dict[str, Tuple[str, ...]] = {
            param: self.rel_of_var(name) for param, name in var_params}
        eq_steps = []
        for clause in predicate.clauses:
            if not isinstance(clause, EqClause):
                continue
            rel: set = set()
            for name in T.free_vars(clause.expr):
                rel.update(param_rel.get(name, ()))
            rel_t = tuple(sorted(rel))
            param_rel[clause.var] = rel_t
            eq_steps.append((clause.var, self.slot_fn(clause.expr, rel_t)))
        # Record the write-back targets' relevance for later slots.
        for param, name in var_params:
            if param in param_rel and param_rel[param]:
                self.var_rel[name] = param_rel[param]

        def derive_into(full_env: Dict[str, Any], db, wkey) -> None:
            bound: Dict[str, Any] = {}
            for param, name in var_params:
                if name in full_env:
                    bound[param] = full_env[name]
            for var, fn in eq_steps:
                bound[var] = fn(bound, full_env, db, wkey)
            for param, name in var_params:
                if param in bound:
                    full_env[name] = bound[param]
        return derive_into

    # -- formulas -----------------------------------------------------------

    def build_formula(self, formula: Formula, assignment: Assignment):
        """Compile a VC formula to ``fn(env, db, wkey) -> bool``.

        Mirrors :func:`eval_formula` exactly; every expression
        evaluation bumps the evaluator's counters at the same
        granularity the interpretive path counts, so cross-mode
        comparisons stay honest.
        """
        if isinstance(formula, Bool):
            expr_fn = self.slot_fn(formula.expr,
                                   self.rel_of_expr(formula.expr))

            def run_bool(env, db, wkey):
                return bool(expr_fn(env, env, db, wkey))
            return run_bool
        if isinstance(formula, And):
            part_fns = [self.build_formula(p, assignment)
                        for p in formula.parts]
            return lambda env, db, wkey: all(fn(env, db, wkey)
                                             for fn in part_fns)
        if isinstance(formula, Or):
            part_fns = [self.build_formula(p, assignment)
                        for p in formula.parts]
            return lambda env, db, wkey: any(fn(env, db, wkey)
                                             for fn in part_fns)
        if isinstance(formula, NotF):
            part_fn = self.build_formula(formula.part, assignment)
            return lambda env, db, wkey: not part_fn(env, db, wkey)
        if isinstance(formula, Implies):
            ante_fn = self.build_formula(formula.antecedent, assignment)
            cons_fn = self.build_formula(formula.consequent, assignment)
            return lambda env, db, wkey: (not ante_fn(env, db, wkey)) \
                or cons_fn(env, db, wkey)
        if isinstance(formula, PredApp):
            return self.build_app(formula,
                                  assignment[formula.name].clauses,
                                  formula.params)
        raise TypeError(formula)

    def build_app(self, app: PredApp, clauses, params):
        """Compile ``clauses`` applied to ``app`` to ``fn(env, db, wkey)``.

        The closure binds ``params`` to their argument values, in the
        application's order, then tests the clauses in order.  A
        hypothesis binds every parameter; the bounds check binds only
        those its clauses read, none of them derived.
        """
        arg_fns = []
        param_rel: Dict[str, Tuple[str, ...]] = {}
        for param, arg in zip(app.params, app.args):
            rel = self.rel_of_expr(arg)
            param_rel[param] = rel
            if param in params:
                arg_fns.append((param, self.slot_fn(arg, rel)))
        clause_fns = []
        for clause in clauses:
            if not isinstance(clause, (EqClause, CmpClause)):
                continue
            rel_set: set = set()
            for name in T.free_vars(clause.expr):
                rel_set.update(param_rel.get(name, ()))
            fn = self.slot_fn(clause.expr, tuple(sorted(rel_set)))
            clause_fns.append(
                (clause.var if isinstance(clause, EqClause) else None, fn))

        def run_pred(env: Dict[str, Any], db, wkey) -> bool:
            values = {}
            for param, fn in arg_fns:
                values[param] = fn(env, env, db, wkey)
            for var, fn in clause_fns:
                if var is not None:
                    if values[var] != fn(values, env, db, wkey):
                        return False
                elif not fn(values, env, db, wkey):
                    return False
            return True
        return run_pred


class BoundedChecker:
    """Check a candidate assignment against every VC over a world suite."""

    def __init__(self, vcset: VCSet, worlds: List[World],
                 evaluator: Optional[Evaluator] = None,
                 optimized: bool = True):
        self.vcset = vcset
        self.worlds = worlds
        self.fragment = vcset.fragment
        self.optimized = optimized
        self.evaluator = evaluator if evaluator is not None \
            else Evaluator(compiled=optimized)
        # Loop-free derived relations (records := sort_id(Query(...)))
        # are computed from their symbolic definitions per world rather
        # than enumerated.
        from repro.core.templates import exit_definitions

        self._exit_defs = {
            name: expr for name, expr in exit_definitions(
                self.fragment).items()
            if not isinstance(expr, T.Var)}
        # CEGIS cache: states that falsified earlier candidates, tried
        # first for each new candidate.  Each entry carries a serial
        # number so replay verdicts can be memoized without hashing the
        # environment.  The cache lives as long as the checker — one
        # per synthesizer — so killer states persist across template
        # levels and across combinations sharing a clause prefix.
        self._cache: List[Tuple[VC, World, Dict[str, Any], int]] = []
        self._cache_keys: set = set()
        self._cache_serial = itertools.count()
        # Interned clause-structure fingerprints: structural tuple ->
        # small int.  All verdict memos key on the int, so candidate
        # trees are hashed once per check, not once per memo probe.
        self._sig_ids: Dict[Tuple, int] = {}
        self._vc_pred_names: Dict[str, frozenset] = {}
        # Memos and pre-indexed state enumeration (optimized mode).
        self._plan_cache: Dict[Tuple[str, int], _VCPlan] = {}
        self._classify_cache: Dict[Tuple[str, int], Tuple] = {}
        self._state_cache: Dict[Tuple, List[Dict[str, Any]]] = {}
        self._world_memo: Dict[Tuple, Optional[Dict[str, Any]]] = {}
        self._replay_memo: Dict[Tuple[int, int], bool] = {}
        self._world_index = {id(world): idx
                             for idx, world in enumerate(worlds)}

    @property
    def cegis_cache_size(self) -> int:
        """Counterexamples accumulated by the CEGIS loop — the number
        of killer states replayed against new candidates (surfaced on
        the ``synthesis`` trace span)."""
        return len(self._cache)

    # -- candidate fingerprints ---------------------------------------------

    def _sig_id(self, vc: VC, assignment: Assignment) -> int:
        """Interned fingerprint of the clauses of the predicates in ``vc``.

        A VC's verdict over any state depends only on this structure,
        so combinations that differ in *other* predicates share every
        memo keyed on it.
        """
        names = self._vc_pred_names.get(vc.name)
        if names is None:
            found = set()
            for hyp in vc.hypotheses:
                found.update(app.name for app in formula_pred_apps(hyp))
            found.update(app.name
                         for app in formula_pred_apps(vc.conclusion))
            names = frozenset(found)
            self._vc_pred_names[vc.name] = names
        sig = tuple(sorted((name, assignment[name].params,
                            assignment[name].clauses)
                           for name in names if name in assignment))
        sig_id = self._sig_ids.get(sig)
        if sig_id is None:
            sig_id = len(self._sig_ids)
            self._sig_ids[sig] = sig_id
        return sig_id

    def _plan(self, vc: VC, assignment: Assignment, sig_id: int) -> _VCPlan:
        """The compiled plan for ``vc`` under this clause structure.

        Each hypothesis compiles to one of three places: a static guard
        to ``guard_fns`` (fresh-scan state lists are already filtered
        by it); an invariant application at the top level to
        ``bounds_fn`` for its comparison clauses over underived
        parameters and to ``hyp_fns`` for the rest; anything else,
        applications under ``Or``/``NotF`` included, whole to
        ``hyp_fns``.
        """
        key = (vc.name, sig_id)
        plan = self._plan_cache.get(key)
        if plan is None:
            enumerable, derived = self._classify_free_vars(vc, assignment,
                                                           sig_id)
            derived_set = set(derived)
            builder = _PlanBuilder(self, enumerable)
            derivers = [builder.build_deriver(app, assignment[app.name])
                        for hyp in vc.hypotheses
                        for app in formula_pred_apps(hyp)]
            bound_fns = []
            hyp_fns = []
            guard_fns = []
            for hyp in vc.hypotheses:
                if self._is_static_guard(hyp, derived_set):
                    guard_fns.append(self.evaluator.fn(hyp.expr))
                elif isinstance(hyp, PredApp):
                    clauses = assignment[hyp.name].clauses
                    underived = {param for param, arg in zip(hyp.params,
                                                             hyp.args)
                                 if not T.free_vars(arg) & derived_set}
                    bounds = [clause for clause in clauses
                              if isinstance(clause, CmpClause)
                              and T.free_vars(clause.expr) <= underived]
                    if bounds:
                        read = set()
                        for clause in bounds:
                            read |= T.free_vars(clause.expr)
                        bound_fns.append(builder.build_app(hyp, bounds,
                                                           read))
                    hyp_fns.append(builder.build_app(
                        hyp, [clause for clause in clauses
                              if clause not in bounds], hyp.params))
                else:
                    hyp_fns.append(builder.build_formula(hyp, assignment))
            concl_fn = builder.build_formula(vc.conclusion, assignment)
            plan = _VCPlan(_all_of(bound_fns), derivers, hyp_fns, concl_fn,
                           guard_fns)
            self._plan_cache[key] = plan
        return plan

    # -- state enumeration --------------------------------------------------

    def _classify_free_vars(self, vc: VC, assignment: Assignment,
                            sig_id: Optional[int] = None
                            ) -> Tuple[List[str], List[str]]:
        """Split a VC's free variables into enumerable and derived sets.

        Derived variables are pinned by an equality clause of a
        hypothesis predicate application; enumerable variables are
        everything else that the world does not already fix.  The split
        depends only on the VC and the fingerprinted clause structure,
        so optimized mode caches it.
        """
        if sig_id is None and self.optimized:
            sig_id = self._sig_id(vc, assignment)
        if sig_id is not None:
            hit = self._classify_cache.get((vc.name, sig_id))
            if hit is not None:
                ok, payload = hit
                if ok:
                    return payload
                raise detached(payload)
            try:
                result = self._classify_free_vars_uncached(vc, assignment)
            except UnpinnedVariableError as exc:
                self._classify_cache[(vc.name, sig_id)] = (False,
                                                           detached(exc))
                raise
            self._classify_cache[(vc.name, sig_id)] = (True, result)
            return result
        return self._classify_free_vars_uncached(vc, assignment)

    def _classify_free_vars_uncached(self, vc: VC, assignment: Assignment
                                     ) -> Tuple[List[str], List[str]]:
        free = set()
        for hyp in vc.hypotheses:
            free |= _formula_vars(hyp)
        free |= _formula_vars(vc.conclusion)

        pinned = set()
        for hyp in vc.hypotheses:
            for app in formula_pred_apps(hyp):
                predicate = assignment[app.name]
                for param in predicate.pinned_params():
                    arg = app.arg_for(param)
                    if isinstance(arg, T.Var):
                        pinned.add(arg.name)

        # Variables the VC actually *reads*: conclusion plus boolean
        # hypothesis parts plus the defining expressions of pinned
        # variables.  An unconstrained relation that appears only as an
        # unused hypothesis argument is benign — any placeholder value
        # satisfies the VC vacuously.
        needed = _formula_vars(vc.conclusion)
        for hyp in vc.hypotheses:
            if not isinstance(hyp, PredApp):
                needed |= _formula_vars(hyp)
            else:
                predicate = assignment[hyp.name]
                for clause in predicate.clauses:
                    needed |= {p for p in T.free_vars(_clause_expr(clause))
                               if p in hyp.params}
                    if hasattr(clause, "var"):
                        needed.add(clause.var)

        enumerable: List[str] = []
        derived: List[str] = []
        for name in sorted(free):
            info = self.fragment.var_info(name)
            if name in pinned:
                derived.append(name)
            elif name in self.fragment.inputs:
                continue  # provided by the world
            elif info is not None and info.kind == "relation":
                if info.table is None:
                    if name in self._exit_defs:
                        continue  # computed from its symbolic definition
                    if name in needed:
                        raise UnpinnedVariableError(name)
                    continue  # benign: placeholder assigned in _base_envs
                continue  # provided by the world's table
            else:
                enumerable.append(name)
        return enumerable, derived

    def _base_envs(self, vc: VC, world: World, assignment: Assignment,
                   sig_id: Optional[int] = None
                   ) -> Iterable[Dict[str, Any]]:
        """Base environments (enumerables assigned, pins underived).

        In optimized mode the environment list is materialized once per
        (VC, enumerable shape, world) and reused across candidates —
        every combination walks the same state list, and the check
        never mutates the environments it is handed.
        """
        if not self.optimized:
            return self._generate_base_envs(vc, world, assignment)
        enumerable, derived = self._classify_free_vars(vc, assignment, sig_id)
        key = (vc.name, tuple(enumerable), tuple(derived),
               self._world_index[id(world)])
        envs = self._state_cache.get(key)
        if envs is None:
            envs = self._state_cache[key] = self._guarded_states(
                vc, world, enumerable, derived)
        return envs

    @staticmethod
    def _is_static_guard(hyp: Formula, derived_set: set) -> bool:
        """A hypothesis whose truth no candidate's derivation can change."""
        return isinstance(hyp, Bool) \
            and not (T.free_vars(hyp.expr) & derived_set)

    def _guarded_states(self, vc: VC, world: World, enumerable: List[str],
                        derived: List[str]) -> List[Dict[str, Any]]:
        """The base environments that every static guard admits.

        A static guard — a Bool hypothesis that mentions no derived
        variable — has the same truth value for every candidate sharing
        a derivation shape, so a state falsifying one is vacuous for all
        of them; compiled plans omit such guards (:meth:`_plan`).  A
        guard that mentions one enumerable filters that enumerable's
        domain once, over the world's base bindings; the others filter
        the product of the filtered domains.  The result is the seed
        product (:meth:`_generate_base_envs`) filtered by the guards, in
        the same order, but only the kept environments are built.
        """
        base = self._world_base(world)
        if base is None:
            return []
        derived_set = set(derived)
        db = world.db
        stats = self.evaluator.stats
        bound = world.max_table_size() + 1
        domains = {name: range(0, bound + 1) for name in enumerable}
        product_guards = []
        for hyp in vc.hypotheses:
            if not self._is_static_guard(hyp, derived_set):
                continue
            fn = self.evaluator.fn(hyp.expr)
            reads = T.free_vars(hyp.expr)
            mentioned = [name for name in enumerable if name in reads]
            if len(mentioned) != 1:
                product_guards.append(fn)
                continue
            name = mentioned[0]
            probe = dict(base)
            kept = []
            for value in domains[name]:
                probe[name] = value
                if _admits(fn, probe, db, stats):
                    kept.append(value)
            domains[name] = kept
        return [env for env in _product_envs(
                    base, enumerable, [domains[name] for name in enumerable])
                if all(_admits(fn, env, db, stats) for fn in product_guards)]

    def _world_base(self, world: World) -> Optional[Dict[str, Any]]:
        """The bindings every state of ``world`` shares, or None when a
        loop-free derived relation is outside the world's domain."""
        world_key = self._world_index[id(world)]
        base: Dict[str, Any] = dict(world.inputs)
        for name, info in self.fragment.all_vars().items():
            if info.kind == "relation" and info.table is not None:
                if info.table in world.tables:
                    base[name] = world.tables[info.table]
        for name, expr in self._exit_defs.items():
            info = self.fragment.var_info(name)
            if info is not None and info.kind == "relation" \
                    and name not in base:
                try:
                    base[name] = self.evaluator.eval(
                        expr, base, world.db,
                        key=("exit", name, world_key) if self.optimized
                        else None)
                except EvalError:
                    return None
        for name, info in self.fragment.all_vars().items():
            if info.kind == "relation":
                # Placeholder for benign unconstrained relations.
                base.setdefault(name, ())
        return base

    def _generate_base_envs(self, vc: VC, world: World,
                            assignment: Assignment
                            ) -> Iterator[Dict[str, Any]]:
        enumerable, _ = self._classify_free_vars(vc, assignment)
        base = self._world_base(world)
        if base is None:
            return  # definition outside this world's domain
        bound = world.max_table_size() + 1
        domains = [range(0, bound + 1) for _ in enumerable]
        yield from _product_envs(base, enumerable, domains)

    # -- checking -----------------------------------------------------------

    def _first_violation(self, plan: _VCPlan, world: World,
                         envs: Iterable[Dict[str, Any]]
                         ) -> Optional[Dict[str, Any]]:
        """The first of ``envs`` that falsifies the plan's VC, if any.

        The compiled path: the plan's closures are looked up once for
        the whole scan, not once per state.
        """
        db = world.db
        wkey = self._world_index.get(id(world))
        bounds_fn, derive, hyp_fns, concl_fn = plan.bounds_fn, plan.derive, \
            plan.hyp_fns, plan.concl_fn
        for env in envs:
            try:
                if bounds_fn is not None and not bounds_fn(env, db, wkey):
                    continue  # an invariant bound fails: vacuously true
                full_env = derive(env, db, wkey)
                for hyp_fn in hyp_fns:
                    if not hyp_fn(full_env, db, wkey):
                        break  # hypothesis false: vacuously true
                else:
                    try:
                        if not concl_fn(full_env, db, wkey):
                            return env
                    except EvalError:
                        # Conclusion undefined while hypotheses hold.
                        return env
            except EvalError:
                pass  # hypothesis out of the axioms' domain: skip
        return None

    def _violates(self, vc: VC, world: World, env: Dict[str, Any],
                  assignment: Assignment) -> bool:
        """Check one VC in one state; True means the state falsifies it.

        The interpretive path (seed behaviour): derive pinned variables
        from hypothesis equality clauses, then test the hypotheses
        (comparison clauses and guards).
        """
        db = world.db
        full_env = dict(env)
        eval_fn = self.evaluator
        try:
            for hyp in vc.hypotheses:
                for app in formula_pred_apps(hyp):
                    predicate = assignment[app.name]
                    # Parameters map 1:1 onto plain Var args in hypothesis
                    # position; evaluate the defining expressions.
                    bound_env = {p: full_env[a.name]
                                 for p, a in zip(app.params, app.args)
                                 if isinstance(a, T.Var) and a.name in full_env}
                    derived = predicate.derive(bound_env, db, eval_fn=eval_fn)
                    for param, arg in zip(app.params, app.args):
                        if isinstance(arg, T.Var) and param in derived:
                            full_env[arg.name] = derived[param]
            for hyp in vc.hypotheses:
                if not eval_formula(hyp, full_env, db, assignment, eval_fn):
                    return False  # hypothesis false: vacuously true
        except EvalError:
            return False  # hypothesis out of the axioms' domain: skip

        try:
            return not eval_formula(vc.conclusion, full_env, db, assignment,
                                    eval_fn)
        except EvalError:
            return True  # conclusion undefined while hypotheses hold

    def check(self, assignment: Assignment) -> Optional[Counterexample]:
        """Bounded-check every VC; return the first counterexample found."""
        try:
            # CEGIS: replay cached killer states first, in insertion
            # order.  The order is deliberately identical to the seed
            # engine's: which counterexample is returned decides what
            # Houdini blames, so any reordering could change synthesis
            # outcomes.  Replays are cheap regardless — verdicts are
            # memoized per (clause structure, state serial).
            for vc, world, env, serial in self._cache:
                if self._replay_violates(vc, world, env, serial, assignment):
                    return Counterexample(vc_name=vc.name, world=world,
                                          env=env)
            for vc in self.vcset.vcs:
                if self.optimized:
                    sig_id = self._sig_id(vc, assignment)
                    plan = self._plan(vc, assignment, sig_id)
                else:
                    sig_id = plan = None
                for world in self.worlds:
                    env = self._check_world(vc, world, assignment, sig_id,
                                            plan)
                    if env is not None:
                        self._remember(vc, world, env)
                        return Counterexample(vc_name=vc.name, world=world,
                                              env=env)
        except UnpinnedVariableError as exc:
            return Counterexample(
                vc_name="unpinned relation variable %s" % exc,
                world=self.worlds[0] if self.worlds else World(tables={}),
                env={})
        return None

    def _check_world(self, vc: VC, world: World, assignment: Assignment,
                     sig_id: Optional[int], plan: Optional[_VCPlan]
                     ) -> Optional[Dict[str, Any]]:
        """First falsifying base environment of ``vc`` in ``world``, if any.

        The verdict is memoized per (VC, clause fingerprint, world):
        the scan visits states in enumeration order, so the remembered
        environment is exactly the one the unmemoized scan would find
        first.
        """
        if sig_id is not None:
            memo_key = (vc.name, sig_id, self._world_index[id(world)])
            hit = self._world_memo.get(memo_key, _UNSET)
            if hit is not _UNSET:
                return hit
        envs = self._base_envs(vc, world, assignment, sig_id)
        if plan is not None:
            found = self._first_violation(plan, world, envs)
        else:
            found = next((env for env in envs
                          if self._violates(vc, world, env, assignment)),
                         None)
        if sig_id is not None:
            self._world_memo[memo_key] = dict(found) if found is not None \
                else None
        return found

    def _replay_violates(self, vc: VC, world: World, env: Dict[str, Any],
                         serial: int, assignment: Assignment) -> bool:
        """Re-check one cached killer state, memoized per fingerprint."""
        if not self.optimized:
            return self._violates(vc, world, env, assignment)
        sig_id = self._sig_id(vc, assignment)
        memo_key = (sig_id, serial)
        hit = self._replay_memo.get(memo_key)
        if hit is not None:
            return hit
        plan = self._plan(vc, assignment, sig_id)
        violated = self._guards_hold(plan, world, env) \
            and self._first_violation(plan, world, (env,)) is not None
        self._replay_memo[memo_key] = violated
        return violated

    def _guards_hold(self, plan: _VCPlan, world: World,
                     env: Dict[str, Any]) -> bool:
        """Whether a replayed state passes the plan's static guards.

        Replayed states may come from a state list filtered under a
        different derivation shape, so the guards the plan's
        ``hyp_fns`` omit are checked again; a guard outside the axioms'
        domain makes the state vacuous, as a false one does.
        """
        stats = self.evaluator.stats
        db = world.db
        return all(_admits(fn, env, db, stats) for fn in plan.guard_fns)

    def _remember(self, vc: VC, world: World, env: Dict[str, Any]) -> None:
        """Add a killer state to the CEGIS cache (deduplicated)."""
        if self.optimized:
            try:
                key = (vc.name, self._world_index[id(world)],
                       tuple(sorted(env.items())))
                if key in self._cache_keys:
                    return
                self._cache_keys.add(key)
            except TypeError:
                pass  # unhashable values: keep without deduplication
        self._cache.append((vc, world, dict(env), next(self._cache_serial)))


def _admits(guard, env: Dict[str, Any], db, stats) -> bool:
    """Whether a compiled static guard holds in ``env``; a guard outside
    the axioms' domain admits nothing, as a false one does."""
    stats.requests += 1
    stats.executed += 1
    try:
        return bool(guard(env, db))
    except EvalError:
        return False


def _product_envs(base: Dict[str, Any], names: List[str],
                  domains: List[Iterable[int]]) -> Iterator[Dict[str, Any]]:
    """``base`` extended by each combination of ``names``' domain values,
    in ``itertools.product`` order."""
    for values in itertools.product(*domains):
        env = dict(base)
        env.update(zip(names, values))
        yield env


def _all_of(fns: List[Callable]) -> Optional[Callable]:
    """One closure ``fn(env, db, wkey)`` that holds when all of ``fns``
    do, or None for no closures."""
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]
    return lambda env, db, wkey: all(fn(env, db, wkey) for fn in fns)
