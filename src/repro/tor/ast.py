"""Abstract syntax of the theory of ordered relations (paper Fig. 6).

Every node is an immutable, hashable dataclass.  Hashability matters: the
synthesizer deduplicates candidate expressions, the rewrite engine caches
normal forms, and the prover compares expressions syntactically after
normalisation.

The grammar (Fig. 6)::

    e  ::= c | [] | var | {fi = ei} | e1 op e2 | not e
         | Query(...) | size(e) | get_es(er) | top_es(er)
         | pi_[f...](e) | sigma_phi(e) | join_phi(e1, e2)
         | sum(e) | max(e) | min(e)
         | append(er, es) | sort_[f...](e) | unique(e)

    phi_sigma ::= p1 and ... and pN          (selection function)
    p_sigma   ::= e.fi op c | e.fi op e.fj | contains(e, er)
    phi_join  ::= p1 and ... and pN          (join function)
    p_join    ::= e1.fi op e2.fj

Scalar comparison/arithmetic operators beyond the paper's minimal
``{and, or, >, =}`` set are included because the kernel language needs
them to express real fragment guards (``<``, ``<=``, ``!=``, ``+``, ``-``);
each has an obvious SQL image so translatability is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from typing import Any, Dict, Iterator, Optional, Tuple

#: Field names per node class, in declaration order (see _field_names).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of ``cls``, looked up once per class."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dc_fields(cls))
    return names


class TorNode:
    """Base class for every node in a TOR expression tree.

    A node's hash is computed once and kept on the instance: the prover
    and the synthesizer use the same subtrees as memo keys over and
    over, and a dataclass hash would walk the whole tree each time.
    :func:`free_vars` keeps its answer beside the hash, for the same
    reason.  Pickles leave both out: string hashes differ from one
    process to the next, and the variable set is cheap to recompute.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Set on the class itself, so that @dataclass(frozen=True) keeps
        # it instead of generating a hash that recomputes the tree.
        if cls.__dict__.get("__hash__") is None:
            cls.__hash__ = TorNode.__hash__

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple([getattr(self, name)
                                for name in _field_names(type(self))]))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_free_vars", None)
        return state

    def children(self) -> Iterator["TorNode"]:
        """Yield direct child nodes (not tuples of strings etc.)."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, TorNode):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, TorNode):
                        yield item

    def walk(self) -> Iterator["TorNode"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of nodes; the synthesizer orders candidates by this."""
        return sum(1 for _ in self.walk())


# ---------------------------------------------------------------------------
# Scalar / record expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const(TorNode):
    """A literal constant: ``True``, ``False``, a number or a string.

    A bool never equals a number here, although ``True == 1`` in Python:
    the arithmetic engine reads ``1`` as a number and ``True`` as an
    opaque atom, so facts about the two must not share a memo key.
    ``Const(1)`` and ``Const(1.0)`` stay equal; arithmetic treats them
    alike.
    """

    value: Any

    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        a, b = self.value, other.value
        return a is b or (a == b and (a.__class__ is bool)
                          == (b.__class__ is bool))

    def __hash__(self) -> int:
        return hash((self.value, self.value.__class__ is bool))


@dataclass(frozen=True)
class EmptyRelation(TorNode):
    """The empty ordered relation ``[]``."""


@dataclass(frozen=True)
class Var(TorNode):
    """A program variable in scope at the point the predicate is evaluated."""

    name: str


@dataclass(frozen=True)
class FieldAccess(TorNode):
    """``e.f`` — read field ``f`` of the record produced by ``expr``."""

    expr: TorNode
    field: str


@dataclass(frozen=True)
class RecordLit(TorNode):
    """``{fi = ei}`` — construct a record from named sub-expressions."""

    items: Tuple[Tuple[str, TorNode], ...]

    def children(self) -> Iterator[TorNode]:
        for _, e in self.items:
            yield e


#: Binary operators understood by the evaluator and the SQL generator.
BINARY_OPS = ("and", "or", ">", "=", "<", ">=", "<=", "!=", "+", "-", "*")

#: Operators valid inside selection / join predicate functions.
PREDICATE_OPS = (">", "=", "<", ">=", "<=", "!=")


@dataclass(frozen=True)
class BinOp(TorNode):
    """``e1 op e2`` for ``op`` in :data:`BINARY_OPS`."""

    op: str
    left: TorNode
    right: TorNode

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError("unknown binary operator %r" % self.op)


@dataclass(frozen=True)
class Not(TorNode):
    """Boolean negation."""

    expr: TorNode


# ---------------------------------------------------------------------------
# Relation expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryOp(TorNode):
    """``Query(...)`` — a base relation fetched from the database.

    ``sql`` is the (possibly raw) SQL string issued by the original code;
    ``table`` names the primary table when the query is a simple
    ``SELECT * FROM table`` so the planner and the corpus can reason about
    it; ``schema`` lists the fields of the produced rows.
    """

    sql: str
    table: str = None
    schema: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Size(TorNode):
    """``size(e)`` — the number of rows in the relation."""

    rel: TorNode


@dataclass(frozen=True)
class Get(TorNode):
    """``get_es(er)`` — the record of ``rel`` at index ``idx`` (0-based)."""

    rel: TorNode
    idx: TorNode


@dataclass(frozen=True)
class Top(TorNode):
    """``top_es(er)`` — the first ``count`` records of ``rel``."""

    rel: TorNode
    count: TorNode


@dataclass(frozen=True)
class FieldSpec(TorNode):
    """One projected column: output field ``target`` = input field ``source``.

    ``source`` may carry a join-side prefix (``left.`` / ``right.``) after
    joins; replication of the same source under different targets is
    allowed, matching relational projection.
    """

    source: str
    target: str

    def children(self) -> Iterator[TorNode]:
        return iter(())


@dataclass(frozen=True)
class Pi(TorNode):
    """``pi_[f...](e)`` — ordered projection (paper Fig. 7)."""

    fields: Tuple[FieldSpec, ...]
    rel: TorNode


# -- selection functions -----------------------------------------------------


class SelectPred(TorNode):
    """Base class for atomic selection predicates (``p_sigma`` in Fig. 6)."""

    __slots__ = ()


@dataclass(frozen=True)
class FieldCmpConst(SelectPred):
    """``e.fi op c`` — compare a record field with a constant expression.

    ``const`` is an arbitrary scalar TOR expression evaluated in the
    *enclosing* environment (the paper allows program variables here:
    "a few use criteria that involve program variables passed into the
    method", Sec. 7.1).
    """

    field: str
    op: str
    const: TorNode

    def __post_init__(self):
        if self.op not in PREDICATE_OPS:
            raise ValueError("invalid predicate operator %r" % self.op)


@dataclass(frozen=True)
class FieldCmpField(SelectPred):
    """``e.fi op e.fj`` — compare two fields of the same record."""

    field1: str
    op: str
    field2: str

    def __post_init__(self):
        if self.op not in PREDICATE_OPS:
            raise ValueError("invalid predicate operator %r" % self.op)

    def children(self) -> Iterator[TorNode]:
        return iter(())


@dataclass(frozen=True)
class RecordIn(SelectPred):
    """``contains(e, er)`` — the record (or one of its fields) is in ``rel``.

    When ``field`` is ``None`` the whole candidate record is tested for
    membership; otherwise only ``record.field`` is compared against the
    rows of ``rel`` (which are then single-column rows).
    """

    rel: TorNode
    field: str = None


@dataclass(frozen=True)
class SelectFunc(TorNode):
    """``phi_sigma`` — a conjunction of selection predicates."""

    preds: Tuple[SelectPred, ...]

    def children(self) -> Iterator[TorNode]:
        return iter(self.preds)


@dataclass(frozen=True)
class Sigma(TorNode):
    """``sigma_phi(e)`` — ordered selection."""

    pred: SelectFunc
    rel: TorNode


# -- join functions ----------------------------------------------------------


@dataclass(frozen=True)
class JoinFieldCmp(TorNode):
    """``e1.fi op e2.fj`` — compare a left-side field with a right-side one."""

    left_field: str
    op: str
    right_field: str

    def __post_init__(self):
        if self.op not in PREDICATE_OPS:
            raise ValueError("invalid predicate operator %r" % self.op)

    def children(self) -> Iterator[TorNode]:
        return iter(())


@dataclass(frozen=True)
class JoinFunc(TorNode):
    """``phi_join`` — a conjunction of join predicates.

    ``JoinFunc(())`` is the constant-``True`` join function, i.e. a cross
    product (used by the translatable-expression grammar's ``join_True``).
    """

    preds: Tuple[JoinFieldCmp, ...]

    def children(self) -> Iterator[TorNode]:
        return iter(self.preds)

    @property
    def is_true(self) -> bool:
        return not self.preds


@dataclass(frozen=True)
class GroupAgg(TorNode):
    """``group_[keys, agg](e1, e2)`` — per-left-row grouped aggregation.

    For each row ``l`` of ``left`` (in order), the matching rows
    ``ms = [r in right | pred(l, r)]`` are collected; when ``ms`` is
    non-empty the output gains one record ``{keys(l)..., out: agg(ms)}``.
    Left rows without matches contribute nothing — exactly the value an
    inner-join ``SELECT keys, AGG(..) .. GROUP BY`` produces when groups
    are keyed on the left row's storage position, which is how
    :mod:`repro.tor.sqlgen` emits it (``GROUP BY t0._rowid``).

    Grouping per left-row *occurrence* (not per key value) makes the
    operator an exact homomorphism over the left operand::

        group(cat(a, b), r) = cat(group(a, r), group(b, r))
        group([], r)        = []

    which is what lets the prover discharge the loop invariants of
    GROUP BY-shaped accumulation fragments with the same unfold-one-row
    reasoning it uses for joins.

    ``agg`` is ``"count"`` or ``"sum"``; ``agg_field`` names the
    right-row column a sum aggregates (``None`` for count); ``out`` is
    the output field holding the aggregate.
    """

    fields: Tuple[FieldSpec, ...]   # key projection over left rows
    agg: str
    agg_field: Optional[str]
    out: str
    pred: "JoinFunc"
    left: TorNode
    right: TorNode

    def __post_init__(self):
        if self.agg not in ("count", "sum"):
            raise ValueError("unknown group aggregate %r" % self.agg)


@dataclass(frozen=True)
class Join(TorNode):
    """``join_phi(e1, e2)`` — ordered join (paper Fig. 7).

    The result pairs each left record with every matching right record,
    preserving left-major order.  Output records carry the left fields
    under prefix ``left_prefix`` and the right fields under
    ``right_prefix`` when field names would clash (empty prefixes when
    there is no clash, which keeps projections readable).
    """

    pred: JoinFunc
    left: TorNode
    right: TorNode


# -- aggregates --------------------------------------------------------------


@dataclass(frozen=True)
class SumOp(TorNode):
    """``sum(e)`` over a single-numeric-column relation."""

    rel: TorNode


@dataclass(frozen=True)
class MaxOp(TorNode):
    """``max(e)``; ``max([]) = -inf`` per the axioms."""

    rel: TorNode


@dataclass(frozen=True)
class MinOp(TorNode):
    """``min(e)``; ``min([]) = +inf`` per the axioms."""

    rel: TorNode


# -- list constructors / reorderings ----------------------------------------


@dataclass(frozen=True)
class Append(TorNode):
    """``append(er, es)`` — ``rel`` with row ``elem`` appended at the end."""

    rel: TorNode
    elem: TorNode


@dataclass(frozen=True)
class Concat(TorNode):
    """``cat(e1, e2)`` — list concatenation.

    ``cat`` appears in the join axiom and throughout the loop invariants
    of Fig. 12, which describe a partially built result as the
    concatenation of a completed outer part and a partial inner part.
    Like ``append`` it is *not* translatable to SQL; it only ever appears
    inside invariants, never in postconditions.
    """

    left: TorNode
    right: TorNode


@dataclass(frozen=True)
class Singleton(TorNode):
    """``[e]`` — the one-row relation containing ``elem``.

    Used to express the paper's ``join'(e, r)`` helper (join of a single
    record against a relation) as ``join(singleton(e), r)``, which is how
    the inner-loop invariant of the running example refers to the current
    outer record.
    """

    elem: TorNode


@dataclass(frozen=True)
class PairLit(TorNode):
    """``(e1, e2)`` — a join output pair, as built by the join axiom.

    Only produced by the prover's rewrite rules when it unfolds a join
    one row at a time; user-facing expressions never contain it.
    """

    left: TorNode
    right: TorNode


@dataclass(frozen=True)
class Sort(TorNode):
    """``sort_[f...](e)`` — stable sort of ``rel`` by the listed fields."""

    fields: Tuple[str, ...]
    rel: TorNode


@dataclass(frozen=True)
class Unique(TorNode):
    """``unique(e)`` — drop duplicate rows, keeping first occurrences."""

    rel: TorNode


@dataclass(frozen=True)
class RemoveFirst(TorNode):
    """``remove(er, es)`` — drop the first row equal to ``elem``.

    Models Java's ``List.remove(Object)`` when the frontend encounters
    in-place removal (Appendix A category N).  Evaluable — so traces and
    bounded checking work — but outside both the template space and the
    translatable grammar, so such fragments *fail* synthesis exactly as
    the paper reports, rather than being mistranslated.
    """

    rel: TorNode
    elem: TorNode


@dataclass(frozen=True)
class Contains(TorNode):
    """``contains(e, er)`` as a standalone boolean expression.

    Used for existence-check fragments (category H in Appendix A), which
    translate to ``SELECT COUNT(*) > 0 FROM ... WHERE ...``.
    """

    elem: TorNode
    rel: TorNode


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


#: Nodes without TorNode children: :func:`rebuild` returns them as they are.
_LEAVES = (Var, Const, EmptyRelation)


def substitute(expr: TorNode, mapping: dict) -> TorNode:
    """Return ``expr`` with every :class:`Var` named in ``mapping`` replaced.

    ``mapping`` maps variable names to replacement TOR nodes.  The
    substitution is capture-free because TOR has no binders.
    """
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    return rebuild(expr, lambda child: substitute(child, mapping))


def rebuild(expr: TorNode, fn) -> TorNode:
    """Rebuild ``expr`` applying ``fn`` to every direct TorNode child.

    Tuples of nodes (projection field lists, predicate conjunctions,
    record literals) are rebuilt element-wise.  Returns the original
    object when nothing changed, preserving identity for caching.
    """
    if isinstance(expr, _LEAVES):
        return expr
    changed = False
    new_values = []
    for name in _field_names(type(expr)):
        value = getattr(expr, name)
        if isinstance(value, TorNode):
            new = fn(value)
            changed = changed or new is not value
            new_values.append(new)
        elif isinstance(value, tuple) and value and isinstance(value[0], tuple):
            # RecordLit.items: tuple of (name, node) pairs.
            rebuilt = tuple((item, fn(node)) for item, node in value)
            changed = changed or any(a[1] is not b[1] for a, b in zip(rebuilt, value))
            new_values.append(rebuilt)
        elif isinstance(value, tuple) and any(isinstance(v, TorNode) for v in value):
            rebuilt = tuple(fn(v) if isinstance(v, TorNode) else v for v in value)
            changed = changed or any(a is not b for a, b in zip(rebuilt, value))
            new_values.append(rebuilt)
        else:
            new_values.append(value)
    if not changed:
        return expr
    return type(expr)(*new_values)


def free_vars(expr: TorNode) -> set:
    """The set of program variable names referenced by ``expr``.

    The names are collected once per node and kept on it; each call
    returns a fresh set, which the caller may change.
    """
    try:
        names = expr.__dict__["_free_vars"]
    except KeyError:
        names = frozenset([node.name for node in expr.walk()
                           if isinstance(node, Var)])
        object.__setattr__(expr, "_free_vars", names)
    return set(names)


def uses_operator(expr: TorNode, *node_types) -> bool:
    """True when any node of ``expr`` is an instance of ``node_types``."""
    return any(isinstance(node, node_types) for node in expr.walk())
