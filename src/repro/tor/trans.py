"""``Trans`` — normalisation into translatable form (paper Appendix B).

Definition 1 of the paper singles out *translatable expressions*::

    b ∈ baseExp   ::= Query(...) | top_e(s) | join_True(b1, b2) | agg(t)
    s ∈ sortedExp ::= pi_l(sort_ls(sigma_phi(b)))
    t ∈ transExp  ::= s | top_e(s)

and Theorem 1 shows every TOR expression without ``append`` (and with
``unique`` only outermost) converts into one.  This module implements
that conversion as a rewrite system built from the operator
equivalences of Theorem 2:

* ``sigma(pi(r)) = pi(sigma(r))`` — selections slide inside projections
  (with field names mapped through the projection);
* ``sigma(sigma(r)) = sigma'(r)`` — selections merge;
* ``sigma(sort(r)) = sort(sigma(r))`` — selections slide inside sorts;
* ``pi(pi(r))`` — projections compose;
* ``top(top(r))`` — tops merge to the smaller bound;
* ``join(pi(a), pi(b)) = pi(join(a, b))`` — projections pull out of
  joins;
* ``join(sort(a), sort(b)) = sort(join(a, b))`` — sorts pull out of
  joins (the property the paper states for sort as an uninterpreted
  function).

The result is the canonical layering ``[unique] [top] [pi] [sort]
[sigma] core`` with ``core`` a base relation or a join of bases, which
:mod:`repro.tor.sqlgen` then emits as SQL.  Expressions containing
``append``/``cat``/``singleton`` (invariant-only constructs) are
rejected with :class:`NotTranslatableError`, mirroring Sec. 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tor import ast as T


class NotTranslatableError(Exception):
    """The expression falls outside the translatable grammar."""


#: Constructs that only ever appear in invariants, never in SQL.
_FORBIDDEN = (T.Append, T.Concat, T.Singleton, T.PairLit, T.RemoveFirst)


def _map_pred_through_projection(pred: T.SelectPred,
                                 specs: Tuple[T.FieldSpec, ...]
                                 ) -> Optional[T.SelectPred]:
    """Rename a predicate's fields from projection targets to sources."""
    mapping: Dict[str, str] = {}
    for spec in specs:
        mapping[spec.target] = spec.source
        if spec.source in ("left", "right"):
            mapping["row"] = spec.source
    def rename(path: str) -> Optional[str]:
        head, _, rest = path.partition(".")
        if head in mapping:
            base = mapping[head]
            return base + ("." + rest if rest else "")
        return None

    if isinstance(pred, T.FieldCmpConst):
        renamed = rename(pred.field)
        if renamed is None:
            return None
        return T.FieldCmpConst(renamed, pred.op, pred.const)
    if isinstance(pred, T.FieldCmpField):
        f1, f2 = rename(pred.field1), rename(pred.field2)
        if f1 is None or f2 is None:
            return None
        return T.FieldCmpField(f1, pred.op, f2)
    if isinstance(pred, T.RecordIn):
        if pred.field is None:
            return pred
        renamed = rename(pred.field)
        if renamed is None:
            return None
        return T.RecordIn(pred.rel, renamed)
    return None


def normalize(expr: T.TorNode, max_passes: int = 40) -> T.TorNode:
    """Rewrite ``expr`` toward the canonical translatable layering."""
    for node in expr.walk():
        if isinstance(node, _FORBIDDEN):
            raise NotTranslatableError(
                "%s cannot be translated to SQL (invariant-only construct)"
                % type(node).__name__)

    current = expr
    for _ in range(max_passes):
        rewritten = _rewrite(current)
        if rewritten == current:
            return current
        current = rewritten
    return current


def _rewrite(expr: T.TorNode) -> T.TorNode:
    expr = T.rebuild(expr, _rewrite)

    # sigma(pi(r)) -> pi(sigma'(r))
    if isinstance(expr, T.Sigma) and isinstance(expr.rel, T.Pi):
        mapped = []
        for pred in expr.pred.preds:
            renamed = _map_pred_through_projection(pred, expr.rel.fields)
            if renamed is None:
                return expr
            mapped.append(renamed)
        return T.Pi(expr.rel.fields,
                    T.Sigma(T.SelectFunc(tuple(mapped)), expr.rel.rel))

    # sigma(sigma(r)) -> merged sigma
    if isinstance(expr, T.Sigma) and isinstance(expr.rel, T.Sigma):
        return T.Sigma(T.SelectFunc(expr.rel.pred.preds + expr.pred.preds),
                       expr.rel.rel)

    # sigma(sort(r)) -> sort(sigma(r))
    if isinstance(expr, T.Sigma) and isinstance(expr.rel, T.Sort):
        return T.Sort(expr.rel.fields, T.Sigma(expr.pred, expr.rel.rel))

    # pi(pi(r)) -> composed pi
    if isinstance(expr, T.Pi) and isinstance(expr.rel, T.Pi):
        inner = {spec.target: spec.source for spec in expr.rel.fields}
        composed = []
        for spec in expr.fields:
            head, _, rest = spec.source.partition(".")
            if head not in inner:
                return expr
            source = inner[head] + ("." + rest if rest else "")
            composed.append(T.FieldSpec(source, spec.target))
        return T.Pi(tuple(composed), expr.rel.rel)

    # top(top(r)) -> tighter top (when bounds are comparable constants)
    if isinstance(expr, T.Top) and isinstance(expr.rel, T.Top):
        outer, inner = expr.count, expr.rel.count
        if isinstance(outer, T.Const) and isinstance(inner, T.Const):
            return T.Top(expr.rel.rel,
                         outer if outer.value <= inner.value else inner)

    # pi(top(r)) -> top(pi(r)): hoist top outward
    if isinstance(expr, T.Pi) and isinstance(expr.rel, T.Top):
        return T.Top(T.Pi(expr.fields, expr.rel.rel), expr.rel.count)

    # join over projections -> projection over join
    if isinstance(expr, T.Join) and (isinstance(expr.left, T.Pi)
                                     or isinstance(expr.right, T.Pi)):
        return _hoist_join_projections(expr)

    # join over sorts -> sort over join (paper's sort/join property)
    if isinstance(expr, T.Join) and isinstance(expr.left, T.Sort):
        hoisted = tuple("left.%s" % f for f in expr.left.fields)
        return T.Sort(hoisted, T.Join(expr.pred, expr.left.rel, expr.right))
    if isinstance(expr, T.Join) and isinstance(expr.right, T.Sort):
        hoisted = tuple("right.%s" % f for f in expr.right.fields)
        return T.Sort(hoisted, T.Join(expr.pred, expr.left, expr.right.rel))

    # unique(unique(r)) -> unique(r)
    if isinstance(expr, T.Unique) and isinstance(expr.rel, T.Unique):
        return expr.rel

    return expr


def _hoist_join_projections(expr: T.Join) -> T.TorNode:
    """``join(pi(a), pi(b)) = pi'(join(a, b))`` with prefixed specs."""
    left, right = expr.left, expr.right
    specs: List[T.FieldSpec] = []

    def side_specs(side: T.TorNode, prefix: str) -> T.TorNode:
        if isinstance(side, T.Pi):
            for spec in side.fields:
                specs.append(T.FieldSpec("%s.%s" % (prefix, spec.source),
                                         "%s.%s" % (prefix, spec.target)))
            return side.rel
        specs.append(T.FieldSpec(prefix, prefix))
        return side

    new_left = side_specs(left, "left")
    new_right = side_specs(right, "right")

    # Join predicates referenced the projected field names; map them back.
    preds = []
    for pred in expr.pred.preds:
        lsrc = _back_map(pred.left_field, left)
        rsrc = _back_map(pred.right_field, right)
        if lsrc is None or rsrc is None:
            return expr
        preds.append(T.JoinFieldCmp(lsrc, pred.op, rsrc))
    return T.Pi(tuple(specs),
                T.Join(T.JoinFunc(tuple(preds)), new_left, new_right))


def _back_map(field_name: str, side: T.TorNode) -> Optional[str]:
    if not isinstance(side, T.Pi):
        return field_name
    for spec in side.fields:
        if spec.target == field_name:
            return spec.source
    return None
