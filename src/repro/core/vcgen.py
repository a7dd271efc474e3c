"""Verification-condition generation (paper Sec. 4.1, Fig. 11).

Standard weakest-precondition computation over the kernel language, with
one twist: loop invariants and the postcondition are *unknown predicates*
(:class:`~repro.core.logic.PredApp`) over the program variables in scope,
to be solved for by the synthesizer.

For the running example this reproduces Fig. 11 exactly:

* ``initialization`` — ``oInv(0, users, roles, [])`` (after substituting
  the assignments that precede the outer loop);
* outer ``loop exit`` — ``i >= size(users) and oInv(...) ->
  pcon(listUsers, users, roles)``;
* outer ``preservation`` = inner ``initialization``;
* inner ``preservation`` — the two-branch implication over the ``if``;
* inner ``loop exit`` — re-establishes the outer invariant at ``i + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.kernel import ast as K
from repro.kernel.analysis import scope_vars
from repro.tor import ast as T
from repro.core.logic import (
    And,
    Bool,
    Formula,
    Implies,
    NotF,
    PredApp,
    conj,
    formula_substitute,
    pretty_formula,
)


@dataclass(frozen=True)
class VC:
    """One verification condition: ``hypotheses -> conclusion``."""

    name: str
    hypotheses: Tuple[Formula, ...]
    conclusion: Formula

    def __str__(self) -> str:
        if not self.hypotheses:
            return "%s: %s" % (self.name, pretty_formula(self.conclusion))
        hyps = " and ".join(pretty_formula(h) for h in self.hypotheses)
        return "%s: %s -> %s" % (self.name, hyps,
                                 pretty_formula(self.conclusion))


@dataclass
class VCSet:
    """All VCs of a fragment plus the unknown-predicate signatures."""

    fragment: K.Fragment
    vcs: List[VC] = field(default_factory=list)
    #: unknown name -> parameter names (positional).
    unknowns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: unknown name -> loop id ("" for the postcondition).
    unknown_loops: Dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        return "\n".join(str(vc) for vc in self.vcs)


def invariant_name(loop_id: str) -> str:
    return "inv_%s" % loop_id


def postcondition_params(fragment: K.Fragment) -> Tuple[str, ...]:
    """Parameters of the unknown postcondition.

    The result variable first, then every relation variable bound by a
    ``Query`` (the base relations a translatable postcondition may
    mention), then the fragment's scalar inputs (selection criteria may
    reference them, Sec. 7.1).
    """
    from repro.kernel.analysis import query_assignments

    params: List[str] = [fragment.result_var]
    for var in query_assignments(fragment):
        if var != fragment.result_var and var not in params:
            params.append(var)
    for var, info in fragment.inputs.items():
        if var not in params:
            params.append(var)
    return tuple(params)


def generate_vcs(fragment: K.Fragment) -> VCSet:
    """Compute the verification conditions of a fragment.

    Returns a :class:`VCSet` whose validity (for some assignment of the
    unknown predicates) implies ``result_var = pcon``-postcondition at
    fragment exit for *all* database contents.
    """
    vcset = VCSet(fragment=fragment)

    pcon_params = postcondition_params(fragment)
    vcset.unknowns["pcon"] = pcon_params
    vcset.unknown_loops["pcon"] = ""
    post = PredApp("pcon", pcon_params,
                   tuple(T.Var(p) for p in pcon_params))

    def wp(cmd: K.Command, post_formula: Formula) -> Formula:
        if isinstance(cmd, K.Skip):
            return post_formula

        if isinstance(cmd, K.Assign):
            return formula_substitute(post_formula, {cmd.var: cmd.expr})

        if isinstance(cmd, K.Seq):
            current = post_formula
            for sub in reversed(cmd.commands):
                current = wp(sub, current)
            return current

        if isinstance(cmd, K.If):
            then_pre = wp(cmd.then_branch, post_formula)
            else_pre = wp(cmd.else_branch, post_formula)
            return conj(
                Implies(Bool(cmd.cond), then_pre),
                Implies(Bool(T.Not(cmd.cond)), else_pre),
            )

        if isinstance(cmd, K.Assert):
            return conj(Bool(cmd.expr), post_formula)

        if isinstance(cmd, K.While):
            name = invariant_name(cmd.loop_id)
            params = scope_vars(fragment, cmd)
            vcset.unknowns[name] = params
            vcset.unknown_loops[name] = cmd.loop_id
            inv = PredApp(name, params, tuple(T.Var(p) for p in params))

            body_pre = wp(cmd.body, inv)
            vcset.vcs.append(VC(
                name="%s preservation" % cmd.loop_id,
                hypotheses=(inv, Bool(cmd.cond)),
                conclusion=body_pre,
            ))
            vcset.vcs.append(VC(
                name="%s exit" % cmd.loop_id,
                hypotheses=(inv, Bool(T.Not(cmd.cond))),
                conclusion=post_formula,
            ))
            return inv

        raise TypeError("cannot compute wp of %r" % (cmd,))

    precondition = wp(fragment.body, post)
    # The fragment runs from an arbitrary initial state, so its wp must
    # hold unconditionally: this is the "initialization" VC.
    vcset.vcs.insert(0, VC(name="initialization", hypotheses=(),
                           conclusion=precondition))
    return vcset
