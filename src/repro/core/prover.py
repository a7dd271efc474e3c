"""Formal validation of synthesized invariants (paper Sec. 5).

The paper validates candidate invariants/postconditions with Z3 plus the
TOR axioms of Appendix C.  Z3 is unavailable in this offline
environment, so this module implements the validation directly: an
*equational prover* that discharges each verification condition by
rewriting both sides of every equality goal to a normal form using the
TOR axioms, under the arithmetic facts of the VC's hypotheses.

The rewrite system encodes exactly the reasoning the paper's axioms
support:

* list structure — ``append(r, e) = cat(r, [e])``, associativity of
  ``cat``, unit laws for ``[]``;
* ``top`` unfolding — ``top(r, e+1) = cat(top(r, e), [get(r, e)])`` when
  the facts prove ``0 <= e < size(r)``; ``top(r, e) = r`` when they
  prove ``e >= size(r)``; ``top(r, 0) = []``;
* homomorphisms — ``sigma``/``pi``/``join``/``size``/``sum``/``max``/
  ``min`` distribute over ``cat`` and collapse on ``[]``/singletons;
* fact-conditioned steps — ``sigma_phi([e])`` reduces to ``[e]`` or
  ``[]`` when the facts prove or refute ``phi(e)``; the same for join
  predicates and for max/min one-step recombination;
* ``sort``/``unique`` are uninterpreted except for the algebraic
  properties the paper lists (Sec. 3.1) plus ``unique(cat(unique(x), y))
  = unique(cat(x, y))`` used by set-accumulation invariants.

Scalar goals go to the Fourier-Motzkin engine of
:mod:`repro.core.arith`.  The prover is *sound but incomplete* — exactly
the posture of the paper ("there are some formulas involving sort and
unique that we cannot prove") — and reports which goal it got stuck on,
which the driver surfaces in failure diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.arith import FactSet, delinearize, linearize
from repro.core.logic import (
    And,
    Assignment,
    Bool,
    Formula,
    Implies,
    NotF,
    Or,
    PredApp,
)
from repro.core.vcgen import VC, VCSet
from repro.tor import ast as T
from repro.tor.pretty import pretty


@dataclass
class ProofResult:
    """Outcome of validating one assignment against a VC set."""

    proved: bool
    failures: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.proved


class _BoolFacts:
    """Non-arithmetic boolean facts: proved-true and proved-false sets."""

    def __init__(self):
        self.true: Set[T.TorNode] = set()
        self.false: Set[T.TorNode] = set()
        self._sig: Optional[Tuple] = None

    def copy(self) -> "_BoolFacts":
        out = _BoolFacts()
        out.true = set(self.true)
        out.false = set(self.false)
        out._sig = self._sig
        return out

    def add(self, expr: T.TorNode, positive: bool) -> None:
        (self.true if positive else self.false).add(expr)
        self._sig = None

    def signature(self) -> Tuple:
        """Hashable content fingerprint for the normal-form cache."""
        if self._sig is None:
            self._sig = (frozenset(self.true), frozenset(self.false))
        return self._sig


class Prover:
    """Equational/inductive validation of a candidate assignment."""

    def __init__(self, vcset: VCSet, max_rewrite_passes: int = 60,
                 nf_cache: bool = True):
        self.vcset = vcset
        self.max_rewrite_passes = max_rewrite_passes
        # Integer-typed variables for the arithmetic engine: loop
        # counters and anything compared against a size.
        from repro.kernel.analysis import analyze_loops

        loops = analyze_loops(vcset.fragment)
        self.int_vars = {info.counter for info in loops.values()
                         if info.counter is not None}
        # Three memos, all on under ``nf_cache`` and all living exactly
        # as long as this prover (one fragment): normal forms and
        # single rewrite passes, both keyed on (expr, facts signature,
        # bools signature), and entailment answers keyed on (facts
        # signature, op, left, right), shared by every FactSet this
        # prover builds.  Each is a pure function of its key (rewrite
        # rules read the facts and never add to them), so results are
        # shared across VCs, candidate assignments and case splits whose
        # contexts coincide — and, for rewrite passes, across the passes
        # of one fixpoint loop: a subterm already in normal form is not
        # rewritten again on the next pass.  ``nf_cache=False`` is the
        # oracle that decides every question afresh.
        self.use_nf_cache = nf_cache
        self._nf_cache: Dict[Tuple, T.TorNode] = {}
        self._rewrite_memo: Optional[Dict[Tuple, T.TorNode]] = \
            {} if nf_cache else None
        self._entail_memo: Optional[Dict[Tuple, bool]] = \
            {} if nf_cache else None
        self.nf_cache_hits = 0
        self.nf_cache_misses = 0

    def new_facts(self) -> FactSet:
        """An empty FactSet over this prover's integer variables.

        It answers entailment through this prover's memo (none when
        ``nf_cache`` is off).
        """
        return FactSet(int_vars=self.int_vars, memo=self._entail_memo)

    # -- public API ----------------------------------------------------------

    def validate(self, assignment: Assignment) -> ProofResult:
        """Attempt to prove every VC; collect failures."""
        failures: List[str] = []
        for vc in self.vcset.vcs:
            failure = self._prove_vc(vc, assignment)
            if failure is not None:
                failures.append("%s: %s" % (vc.name, failure))
        return ProofResult(proved=not failures, failures=failures)

    # -- VC-level proof --------------------------------------------------------

    #: cap on hypothesis case-split combinations.
    MAX_CASES = 16

    def _prove_vc(self, vc: VC, assignment: Assignment) -> Optional[str]:
        facts = self.new_facts()
        bools = _BoolFacts()
        equations: Dict[str, T.TorNode] = {}
        disjunctions: List[List[T.TorNode]] = []

        for hyp in vc.hypotheses:
            self._assume(hyp, assignment, facts, bools, equations,
                         disjunctions)

        # Disjunctive hypotheses (e.g. the negated conjunction guard of
        # a constant-bounded scan, ``not (i < 10 and i < size(r))``)
        # require a case split: the conclusion must hold in every case.
        combos = list(itertools.product(*disjunctions)) if disjunctions \
            else [()]
        if len(combos) > self.MAX_CASES:
            return "too many hypothesis cases (%d)" % len(combos)
        for combo in combos:
            case_facts = facts.copy()
            case_bools = bools.copy()
            for literal in combo:
                self._assume_bool(literal, case_facts, case_bools, equations)
            failure = self._prove(vc.conclusion, assignment, case_facts,
                                  case_bools, equations)
            if failure is not None:
                return failure
        return None

    def _assume(self, formula: Formula, assignment: Assignment,
                facts: FactSet, bools: _BoolFacts,
                equations: Dict[str, T.TorNode],
                disjunctions: Optional[List[List[T.TorNode]]] = None) -> None:
        """Add a hypothesis formula to the proof context."""
        if isinstance(formula, PredApp):
            predicate = assignment[formula.name]
            from repro.core.logic import CmpClause, EqClause

            # Bind by the application's parameter names (predicates may
            # declare their parameters in a different order).
            mapping = dict(zip(formula.params, formula.args))
            for clause in predicate.clauses:
                if isinstance(clause, EqClause):
                    target = mapping.get(clause.var, T.Var(clause.var))
                    defining = T.substitute(clause.expr, mapping)
                    if isinstance(target, T.Var):
                        equations[target.name] = defining
                    else:
                        self._assume_bool(T.BinOp("=", target, defining),
                                          facts, bools, equations,
                                          disjunctions)
                else:
                    self._assume_bool(T.substitute(clause.expr, mapping),
                                      facts, bools, equations, disjunctions)
            return
        if isinstance(formula, Bool):
            self._assume_bool(formula.expr, facts, bools, equations,
                              disjunctions)
            return
        if isinstance(formula, And):
            for part in formula.parts:
                self._assume(part, assignment, facts, bools, equations,
                             disjunctions)
            return
        if isinstance(formula, NotF):
            if isinstance(formula.part, Bool):
                self._assume_bool(T.Not(formula.part.expr), facts, bools,
                                  equations, disjunctions)
            return
        # Or / Implies hypotheses do not occur in generated VCs.

    def _assume_bool(self, expr: T.TorNode, facts: FactSet,
                     bools: _BoolFacts, equations: Dict[str, T.TorNode],
                     disjunctions: Optional[List[List[T.TorNode]]] = None
                     ) -> None:
        expr = T.substitute(expr, equations)
        expr = self._normalize(expr, facts, bools)
        self._assume_normalized(expr, facts, bools, positive=True,
                                disjunctions=disjunctions)

    def _assume_normalized(self, expr: T.TorNode, facts: FactSet,
                           bools: _BoolFacts, positive: bool,
                           disjunctions: Optional[List[List[T.TorNode]]]
                           = None) -> None:
        if isinstance(expr, T.Not):
            self._assume_normalized(expr.expr, facts, bools, not positive,
                                    disjunctions)
            return
        if isinstance(expr, T.BinOp) and expr.op == "and" and positive:
            self._assume_normalized(expr.left, facts, bools, True,
                                    disjunctions)
            self._assume_normalized(expr.right, facts, bools, True,
                                    disjunctions)
            return
        if isinstance(expr, T.BinOp) and expr.op == "or" and not positive:
            self._assume_normalized(expr.left, facts, bools, False,
                                    disjunctions)
            self._assume_normalized(expr.right, facts, bools, False,
                                    disjunctions)
            return
        if isinstance(expr, T.BinOp) and expr.op == "and" and not positive:
            # not (a and b): a case split between not-a and not-b.
            if disjunctions is not None:
                disjunctions.append([T.Not(expr.left), T.Not(expr.right)])
            return
        if isinstance(expr, T.BinOp) and expr.op == "or" and positive:
            if disjunctions is not None:
                disjunctions.append([expr.left, expr.right])
            return
        if isinstance(expr, T.BinOp) and expr.op in T.PREDICATE_OPS:
            from repro.core.features import NEGATED_OP

            op = expr.op if positive else NEGATED_OP[expr.op]
            if op != "!=":
                facts.add_comparison(op, expr.left, expr.right)
            bools.add(expr, positive)
            if op in ("=", "!="):
                flipped = T.BinOp(expr.op, expr.right, expr.left)
                bools.add(flipped, positive)
            return
        bools.add(expr, positive)

    # -- goal proving ------------------------------------------------------------

    def _prove(self, formula: Formula, assignment: Assignment,
               facts: FactSet, bools: _BoolFacts,
               equations: Dict[str, T.TorNode]) -> Optional[str]:
        """Prove a conclusion formula; return a failure message or None."""
        if isinstance(formula, And):
            for part in formula.parts:
                failure = self._prove(part, assignment, facts, bools, equations)
                if failure is not None:
                    return failure
            return None
        if isinstance(formula, Implies):
            # Assume the antecedent, prove the consequent.  A negated
            # conjunction antecedent (the else branch of a multi-clause
            # guard) contributes a disjunction, handled by case split.
            if isinstance(formula.antecedent, Bool):
                branch_facts = facts.copy()
                branch_bools = bools.copy()
                local_disjunctions: List[List[T.TorNode]] = []
                self._assume_bool(formula.antecedent.expr, branch_facts,
                                  branch_bools, equations,
                                  local_disjunctions)
                combos = list(itertools.product(*local_disjunctions)) \
                    if local_disjunctions else [()]
                if len(combos) > self.MAX_CASES:
                    return "too many branch cases (%d)" % len(combos)
                for combo in combos:
                    case_facts = branch_facts.copy()
                    case_bools = branch_bools.copy()
                    for literal in combo:
                        self._assume_bool(literal, case_facts, case_bools,
                                          equations)
                    failure = self._prove(formula.consequent, assignment,
                                          case_facts, case_bools, equations)
                    if failure is not None:
                        return failure
                return None
            return "unsupported implication antecedent"
        if isinstance(formula, PredApp):
            predicate = assignment[formula.name]
            expanded = predicate.as_formula_on(formula)
            return self._prove(expanded, assignment, facts, bools, equations)
        if isinstance(formula, Bool):
            return self._prove_bool(formula.expr, facts, bools, equations)
        if isinstance(formula, Or):
            for part in formula.parts:
                if self._prove(part, assignment, facts, bools,
                               equations) is None:
                    return None
            return "no disjunct provable: %s" % (formula,)
        if isinstance(formula, NotF):
            if isinstance(formula.part, Bool):
                return self._prove_bool(T.Not(formula.part.expr), facts,
                                        bools, equations)
            return "unsupported negated formula"
        return "unsupported formula %r" % (formula,)

    def _prove_bool(self, expr: T.TorNode, facts: FactSet,
                    bools: _BoolFacts,
                    equations: Dict[str, T.TorNode]) -> Optional[str]:
        expr = T.substitute(expr, equations)
        expr = self._normalize(expr, facts, bools)
        if self._holds(expr, facts, bools) is True:
            return None
        return "cannot prove %s" % pretty(expr)

    def _holds(self, expr: T.TorNode, facts: FactSet,
               bools: _BoolFacts) -> Optional[bool]:
        """Three-valued truth of a normalized boolean expression."""
        if isinstance(expr, T.Const) and isinstance(expr.value, bool):
            return expr.value
        if isinstance(expr, T.Not):
            inner = self._holds(expr.expr, facts, bools)
            return None if inner is None else not inner
        if isinstance(expr, T.BinOp) and expr.op == "and":
            left = self._holds(expr.left, facts, bools)
            right = self._holds(expr.right, facts, bools)
            if left is True and right is True:
                return True
            if left is False or right is False:
                return False
            return None
        if isinstance(expr, T.BinOp) and expr.op == "or":
            left = self._holds(expr.left, facts, bools)
            right = self._holds(expr.right, facts, bools)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if expr in bools.true:
            return True
        if expr in bools.false:
            return False
        if isinstance(expr, T.BinOp) and expr.op in T.PREDICATE_OPS:
            if expr.op == "=" and self._relation_valued(expr.left):
                if expr.left == expr.right:
                    return True
                return None
            if facts.entails(expr.op, expr.left, expr.right):
                return True
            if facts.refutes(expr.op, expr.left, expr.right):
                return False
            # Fall back to the boolean store with flipped operands.
            flipped = T.BinOp(expr.op, expr.right, expr.left)
            if expr.op in ("=", "!=") and flipped in bools.true:
                return True
            if expr.op in ("=", "!=") and flipped in bools.false:
                return False
            return None
        return None

    @staticmethod
    def _relation_valued(expr: T.TorNode) -> bool:
        return isinstance(expr, (
            T.EmptyRelation, T.Concat, T.Singleton, T.Top, T.Pi, T.Sigma,
            T.Join, T.GroupAgg, T.Sort, T.Unique, T.Append, T.QueryOp))

    # -- the rewrite engine ---------------------------------------------------------

    def _normalize(self, expr: T.TorNode, facts: FactSet,
                   bools: _BoolFacts) -> T.TorNode:
        """Rewrite to normal form under the current facts."""
        key = None
        if self.use_nf_cache:
            key = (expr, facts.signature(), bools.signature())
            cached = self._nf_cache.get(key)
            if cached is not None:
                self.nf_cache_hits += 1
                return cached
            self.nf_cache_misses += 1
        current = expr
        for _ in range(self.max_rewrite_passes):
            rewritten = self._rewrite(current, facts, bools)
            if rewritten == current:
                break
            current = rewritten
        if key is not None:
            self._nf_cache[key] = current
        return current

    def _rewrite(self, expr: T.TorNode, facts: FactSet,
                 bools: _BoolFacts) -> T.TorNode:
        """One bottom-up rewrite pass (memoised under ``nf_cache``)."""
        memo = self._rewrite_memo
        if memo is not None:
            key = (expr, facts.signature(), bools.signature())
            done = memo.get(key)
            if done is not None:
                return done
        rebuilt = T.rebuild(expr,
                            lambda child: self._rewrite(child, facts, bools))
        done = self._rewrite_node(rebuilt, facts, bools)
        if memo is not None:
            memo[key] = done
        return done

    def _rewrite_node(self, expr: T.TorNode, facts: FactSet,
                      bools: _BoolFacts) -> T.TorNode:
        # --- list constructors ------------------------------------------
        if isinstance(expr, T.Append):
            return T.Concat(expr.rel, T.Singleton(expr.elem))

        if isinstance(expr, T.Concat):
            if isinstance(expr.left, T.EmptyRelation):
                return expr.right
            if isinstance(expr.right, T.EmptyRelation):
                return expr.left
            if isinstance(expr.left, T.Concat):
                return T.Concat(expr.left.left,
                                T.Concat(expr.left.right, expr.right))
            return expr

        # --- scalars -----------------------------------------------------
        if isinstance(expr, T.BinOp) and expr.op in ("+", "-", "*"):
            return delinearize(linearize(expr))

        if isinstance(expr, T.Not):
            if isinstance(expr.expr, T.Const) and isinstance(expr.expr.value, bool):
                return T.Const(not expr.expr.value)
            if isinstance(expr.expr, T.Not):
                return expr.expr.expr
            return expr

        if isinstance(expr, T.FieldAccess):
            if isinstance(expr.expr, T.PairLit):
                path = expr.field.split(".", 1)
                side = expr.expr.left if path[0] == "left" else (
                    expr.expr.right if path[0] == "right" else None)
                if side is not None:
                    if len(path) == 1:
                        return side
                    return T.FieldAccess(side, path[1])
            if isinstance(expr.expr, T.RecordLit):
                for name, value in expr.expr.items:
                    if name == expr.field:
                        return value
            if isinstance(expr.expr, T.Get) and isinstance(expr.expr.rel, T.Pi):
                # get(pi_specs(r), e).f  ->  get(r, e).<source f>
                pi = expr.expr.rel
                for spec in pi.fields:
                    if spec.target == expr.field:
                        return T.FieldAccess(T.Get(pi.rel, expr.expr.idx),
                                             spec.source)
            return expr

        # --- top ------------------------------------------------------------
        if isinstance(expr, T.Top):
            count = linearize(expr.count)
            if count.is_constant and count.const == 0:
                return T.EmptyRelation()
            size_term = T.Size(expr.rel)
            if facts.entails(">=", expr.count, size_term):
                return expr.rel
            if not count.is_constant:
                # Canonicalise the count when the facts pin it to a
                # constant (e.g. i >= 10 and i <= 10 entail i = 10 on
                # the exit path of a constant-bounded scan).
                for const in facts.known_int_constants():
                    if facts.entails("=", expr.count, T.Const(const)):
                        return T.Top(expr.rel, T.Const(const))
            if isinstance(expr.rel, T.Top):
                if facts.entails("<=", expr.count, expr.rel.count):
                    return T.Top(expr.rel.rel, expr.count)
                if facts.entails("<=", expr.rel.count, expr.count):
                    return expr.rel
            # Unfold top(r, base + k) one step when 0 <= base+k-1 < size(r).
            if count.const >= 1:
                prev = delinearize(count.shift(-1))
                if (facts.entails(">=", prev, T.Const(0))
                        and facts.entails("<", prev, size_term)):
                    return T.Concat(T.Top(expr.rel, prev),
                                    T.Singleton(T.Get(expr.rel, prev)))
            return expr

        # --- selection ---------------------------------------------------------
        if isinstance(expr, T.Sigma):
            rel = expr.rel
            if isinstance(rel, T.EmptyRelation):
                return rel
            if isinstance(rel, T.Concat):
                return T.Concat(T.Sigma(expr.pred, rel.left),
                                T.Sigma(expr.pred, rel.right))
            if isinstance(rel, T.Singleton):
                truth = self._select_func_truth(expr.pred, rel.elem, facts,
                                                bools)
                if truth is True:
                    return rel
                if truth is False:
                    return T.EmptyRelation()
            return expr

        # --- projection -----------------------------------------------------------
        if isinstance(expr, T.Pi):
            rel = expr.rel
            if isinstance(rel, T.EmptyRelation):
                return rel
            if isinstance(rel, T.Concat):
                return T.Concat(T.Pi(expr.fields, rel.left),
                                T.Pi(expr.fields, rel.right))
            if isinstance(rel, T.Singleton):
                projected = self._project_row(expr.fields, rel.elem)
                if projected is not None:
                    return T.Singleton(projected)
            return expr

        # --- join ------------------------------------------------------------------
        if isinstance(expr, T.Join):
            left, right = expr.left, expr.right
            # Hoist selections out of join sides:
            # join(phi, r1, sigma(psi, r2)) = sigma(psi', join(phi, r1, r2))
            # with psi' reading the right pair component.  Sound because
            # the join pairs rows in order and the filter only inspects
            # one side; it lets singleton reasoning resolve the join
            # predicate before the selection predicate.
            if isinstance(right, T.Sigma):
                return T.Sigma(self._prefix_select(right.pred, "right"),
                               T.Join(expr.pred, left, right.rel))
            if isinstance(left, T.Sigma):
                return T.Sigma(self._prefix_select(left.pred, "left"),
                               T.Join(expr.pred, left.rel, right))
            if isinstance(left, T.EmptyRelation) or isinstance(
                    right, T.EmptyRelation):
                return T.EmptyRelation()
            if isinstance(left, T.Concat):
                return T.Concat(T.Join(expr.pred, left.left, right),
                                T.Join(expr.pred, left.right, right))
            if isinstance(left, T.Singleton) and isinstance(right, T.Concat):
                return T.Concat(T.Join(expr.pred, left, right.left),
                                T.Join(expr.pred, left, right.right))
            if isinstance(left, T.Singleton) and isinstance(right, T.Singleton):
                truth = self._join_func_truth(expr.pred, left.elem,
                                              right.elem, facts, bools)
                if truth is True:
                    return T.Singleton(T.PairLit(left.elem, right.elem))
                if truth is False:
                    return T.EmptyRelation()
            return expr

        # --- grouped aggregation -----------------------------------------------------
        if isinstance(expr, T.GroupAgg):
            left = expr.left
            if isinstance(left, T.EmptyRelation):
                return T.EmptyRelation()
            if isinstance(left, T.Concat):
                # Exact homomorphism: grouping is per left-row occurrence.
                return T.Concat(self._regroup(expr, left.left),
                                self._regroup(expr, left.right))
            if isinstance(left, T.Singleton):
                return self._group_singleton(expr, left.elem, facts, bools)
            return expr

        # --- aggregates ---------------------------------------------------------------
        if isinstance(expr, T.Size):
            rel = expr.rel
            if isinstance(rel, T.EmptyRelation):
                return T.Const(0)
            if isinstance(rel, T.Singleton):
                return T.Const(1)
            if isinstance(rel, T.Concat):
                return delinearize(linearize(
                    T.BinOp("+", T.Size(rel.left), T.Size(rel.right))))
            if isinstance(rel, (T.Pi, T.Sort)):
                return T.Size(rel.rel)
            return expr

        if isinstance(expr, T.SumOp):
            rel = expr.rel
            if isinstance(rel, T.EmptyRelation):
                return T.Const(0)
            if isinstance(rel, T.Concat):
                return delinearize(linearize(
                    T.BinOp("+", T.SumOp(rel.left), T.SumOp(rel.right))))
            if isinstance(rel, T.Singleton):
                scalar = self._row_scalar(rel.elem)
                if scalar is not None:
                    return scalar
            return expr

        if isinstance(expr, (T.MaxOp, T.MinOp)):
            rel = expr.rel
            is_max = isinstance(expr, T.MaxOp)
            if isinstance(rel, T.EmptyRelation):
                return T.Const(float("-inf") if is_max else float("inf"))
            if isinstance(rel, T.Singleton):
                scalar = self._row_scalar(rel.elem)
                if scalar is not None:
                    return scalar
            if isinstance(rel, T.Concat) and isinstance(rel.right, T.Singleton):
                scalar = self._row_scalar(rel.right.elem)
                rest = type(expr)(rel.left)
                if scalar is not None:
                    rest_n = self._normalize(rest, facts, bools)
                    op = ">" if is_max else "<"
                    if self._holds(T.BinOp(op, scalar, rest_n), facts,
                                   bools) is True:
                        return scalar
                    anti = "<=" if is_max else ">="
                    if self._holds(T.BinOp(anti, scalar, rest_n), facts,
                                   bools) is True:
                        return rest_n
                    if isinstance(rel.left, T.EmptyRelation):
                        return scalar
            return expr

        # --- unique / sort ---------------------------------------------------------------
        if isinstance(expr, T.Unique):
            rel = expr.rel
            if isinstance(rel, T.EmptyRelation):
                return rel
            if (isinstance(rel, T.Concat)
                    and isinstance(rel.left, T.Unique)):
                return T.Unique(T.Concat(rel.left.rel, rel.right))
            if isinstance(rel, T.Unique):
                return rel
            return expr

        # --- comparisons over normalized scalars -------------------------------------------
        if isinstance(expr, T.BinOp) and expr.op in T.PREDICATE_OPS:
            truth = self._holds(expr, facts, bools)
            if truth is not None and self._scalar_comparison(expr):
                return T.Const(truth)
            return expr

        return expr

    @staticmethod
    def _scalar_comparison(expr: T.TorNode) -> bool:
        return not Prover._relation_valued(expr.left) and \
            not Prover._relation_valued(expr.right)

    # -- predicate truth under facts -------------------------------------------

    def _select_func_truth(self, phi: T.SelectFunc, row: T.TorNode,
                           facts: FactSet, bools: _BoolFacts
                           ) -> Optional[bool]:
        results = []
        for pred in phi.preds:
            results.append(self._select_pred_truth(pred, row, facts, bools))
        if all(r is True for r in results):
            return True
        if any(r is False for r in results):
            return False
        return None

    def _select_pred_truth(self, pred: T.SelectPred, row: T.TorNode,
                           facts: FactSet, bools: _BoolFacts
                           ) -> Optional[bool]:
        if isinstance(pred, T.FieldCmpConst):
            lhs = self._normalize(self._path_access(row, pred.field),
                                  facts, bools)
            return self._holds(T.BinOp(pred.op, lhs, pred.const), facts, bools)
        if isinstance(pred, T.FieldCmpField):
            lhs = self._normalize(self._path_access(row, pred.field1),
                                  facts, bools)
            rhs = self._normalize(self._path_access(row, pred.field2),
                                  facts, bools)
            return self._holds(T.BinOp(pred.op, lhs, rhs), facts, bools)
        if isinstance(pred, T.RecordIn):
            subject = row if pred.field is None else self._path_access(
                row, pred.field)
            subject = self._normalize(subject, facts, bools)
            probe = T.Contains(subject, pred.rel)
            return self._holds(probe, facts, bools)
        return None

    def _join_func_truth(self, phi: T.JoinFunc, left: T.TorNode,
                         right: T.TorNode, facts: FactSet,
                         bools: _BoolFacts) -> Optional[bool]:
        if phi.is_true:
            return True
        results = []
        for pred in phi.preds:
            lhs = self._normalize(self._path_access(left, pred.left_field),
                                  facts, bools)
            rhs = self._normalize(self._path_access(right, pred.right_field),
                                  facts, bools)
            results.append(self._holds(T.BinOp(pred.op, lhs, rhs), facts,
                                       bools))
        if all(r is True for r in results):
            return True
        if any(r is False for r in results):
            return False
        return None

    @staticmethod
    def _regroup(group: T.GroupAgg, left: T.TorNode) -> T.GroupAgg:
        """The same grouped aggregation over a different left operand."""
        return T.GroupAgg(fields=group.fields, agg=group.agg,
                          agg_field=group.agg_field, out=group.out,
                          pred=group.pred, left=left, right=group.right)

    def _group_singleton(self, group: T.GroupAgg, elem: T.TorNode,
                         facts: FactSet, bools: _BoolFacts) -> T.TorNode:
        """``group([e], r)``: one group, or nothing, per the match count.

        The matching rows are the selection
        :func:`repro.core.features.group_match_sigma` builds — the same
        shape the template generator pins the inner count accumulator
        to, so the facts decide the group's presence (``size > 0`` /
        ``= 0``) and its aggregate value syntactically.
        """
        from repro.core.features import group_match_sigma

        matches = group_match_sigma(group.pred, elem, group.right)
        size_n = self._normalize(T.Size(matches), facts, bools)
        if self._holds(T.BinOp(">", size_n, T.Const(0)), facts,
                       bools) is True:
            if group.agg == "count":
                value: T.TorNode = size_n
            else:
                value = self._normalize(
                    T.SumOp(T.Pi((T.FieldSpec(group.agg_field,
                                              group.agg_field),),
                                 matches)), facts, bools)
            items = tuple(
                (spec.target,
                 self._normalize(self._path_access(elem, spec.source),
                                 facts, bools))
                for spec in group.fields) + ((group.out, value),)
            return T.Singleton(T.RecordLit(items))
        if self._holds(T.BinOp("=", size_n, T.Const(0)), facts,
                       bools) is True:
            return T.EmptyRelation()
        return self._regroup(group, T.Singleton(elem))

    @staticmethod
    def _prefix_select(phi: T.SelectFunc, side: str) -> T.SelectFunc:
        """Requalify selection predicates onto one pair side."""
        out = []
        for pred in phi.preds:
            if isinstance(pred, T.FieldCmpConst):
                out.append(T.FieldCmpConst("%s.%s" % (side, pred.field),
                                           pred.op, pred.const))
            elif isinstance(pred, T.FieldCmpField):
                out.append(T.FieldCmpField("%s.%s" % (side, pred.field1),
                                           pred.op,
                                           "%s.%s" % (side, pred.field2)))
            elif isinstance(pred, T.RecordIn):
                field = side if pred.field is None else "%s.%s" % (
                    side, pred.field)
                out.append(T.RecordIn(pred.rel, field))
            else:  # pragma: no cover - no other predicate kinds exist
                out.append(pred)
        return T.SelectFunc(tuple(out))

    @staticmethod
    def _row_scalar(row: T.TorNode) -> Optional[T.TorNode]:
        """Symbolic analogue of :func:`repro.tor.values.row_scalar`.

        Aggregate axioms apply to single-column rows; a symbolic
        single-field record literal exposes its value, anything else is
        unknown (None) and blocks the rewrite.
        """
        if isinstance(row, T.RecordLit) and len(row.items) == 1:
            return row.items[0][1]
        if isinstance(row, (T.FieldAccess, T.Const, T.Var, T.BinOp)):
            return row
        return None

    @staticmethod
    def _path_access(row: T.TorNode, path: str) -> T.TorNode:
        expr = row
        for part in path.split("."):
            if isinstance(expr, T.PairLit) and part == "left":
                expr = expr.left
            elif isinstance(expr, T.PairLit) and part == "right":
                expr = expr.right
            else:
                expr = T.FieldAccess(expr, part)
        return expr

    def _project_row(self, specs: Tuple[T.FieldSpec, ...],
                     row: T.TorNode) -> Optional[T.TorNode]:
        """Project a symbolic row; mirrors the evaluator's semantics."""
        if len(specs) == 1:
            value = self._path_access(row, specs[0].source)
            # A whole-side projection unwraps: the running example's pi
            # keeps the entire User record, matching the evaluator's
            # _normalise_projection behaviour.
            parts = specs[0].source.split(".")
            if all(part in ("left", "right") for part in parts):
                return value
            return T.RecordLit(((specs[0].target, value),))
        items = []
        for spec in specs:
            items.append((spec.target, self._path_access(row, spec.source)))
        return T.RecordLit(tuple(items))
