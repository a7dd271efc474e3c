"""A small linear-arithmetic entailment engine for the TOR prover.

The verification conditions' scalar obligations are linear facts over a
handful of *atoms* — loop counters, ``size(...)`` terms, aggregate terms
and record-field reads treated as opaque variables.  Examples from the
running example's proof:

    facts   i >= 0,  i <= size(users),  not (i < size(users))
    goal    i = size(users)                     (to collapse top_i)

    facts   i < size(users)
    goal    i + 1 <= size(users)                (integer reasoning)

This module implements Fourier-Motzkin elimination with strict and
non-strict constraints.  Coefficients are plain ints; a ``Fraction``
appears only where a non-integral float constant does, and elimination
clears it before it runs on integer rows.  The answers are those of
elimination over the rationals.  Integer-typed atoms (counters and
``size`` terms) get the usual tightening ``a < b  ==>  a + 1 <= b``;
other atoms (field values, aggregates of unknown type) keep real
semantics, which is sound for the mixed goals the prover asks about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.tor import ast as T

#: Atom — any non-linear scalar TOR expression, used as an FM variable.
Atom = T.TorNode

#: A coefficient: an int, or a Fraction from a non-integral float.
Number = Union[int, Fraction]


@dataclass
class LinExpr:
    """A linear expression: ``sum(coef * atom) + const``."""

    terms: Dict[Atom, Number] = field(default_factory=dict)
    const: Number = 0

    def __add__(self, other: "LinExpr") -> "LinExpr":
        terms = dict(self.terms)
        for atom, coef in other.terms.items():
            terms[atom] = terms.get(atom, 0) + coef
            if terms[atom] == 0:
                del terms[atom]
        return LinExpr(terms, self.const + other.const)

    def __neg__(self) -> "LinExpr":
        return LinExpr({a: -c for a, c in self.terms.items()}, -self.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + (-other)

    def scale(self, factor: Number) -> "LinExpr":
        if factor == 0:
            return LinExpr()
        return LinExpr({a: c * factor for a, c in self.terms.items()},
                       self.const * factor)

    def shift(self, delta: Number) -> "LinExpr":
        return LinExpr(dict(self.terms), self.const + delta)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def atoms(self) -> Set[Atom]:
        return set(self.terms)


def linearize(expr: T.TorNode) -> LinExpr:
    """Convert a scalar TOR expression into a :class:`LinExpr`.

    Numeric constants become the constant part; ``+``/``-`` and
    multiplication by a constant distribute; anything else is an opaque
    atom with coefficient one.
    """
    if isinstance(expr, T.Const) and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        value = expr.value
        if isinstance(value, float):
            if value in (float("inf"), float("-inf")):
                return LinExpr({expr: 1})
            value = int(value) if value.is_integer() else Fraction(value)
        return LinExpr({}, value)
    if isinstance(expr, T.BinOp) and expr.op == "+":
        return linearize(expr.left) + linearize(expr.right)
    if isinstance(expr, T.BinOp) and expr.op == "-":
        return linearize(expr.left) - linearize(expr.right)
    if isinstance(expr, T.BinOp) and expr.op == "*":
        left, right = linearize(expr.left), linearize(expr.right)
        if left.is_constant:
            return right.scale(left.const)
        if right.is_constant:
            return left.scale(right.const)
    return LinExpr({expr: 1})


def delinearize(lin: LinExpr) -> T.TorNode:
    """Rebuild a canonical TOR expression from a linear form.

    Used by the rewrite engine to normalise scalar sub-expressions:
    ``(i + 1) - 1`` round-trips to ``i``.
    """
    parts: List[T.TorNode] = []
    for atom in sorted(lin.terms, key=repr):
        coef = lin.terms[atom]
        if coef == 1:
            parts.append(atom)
        else:
            value = int(coef) if coef.denominator == 1 else float(coef)
            parts.append(T.BinOp("*", T.Const(value), atom))
    if lin.const != 0 or not parts:
        value = int(lin.const) if lin.const.denominator == 1 else float(lin.const)
        parts.append(T.Const(value))
    out = parts[0]
    for part in parts[1:]:
        out = T.BinOp("+", out, part)
    return out


@dataclass(frozen=True)
class Constraint:
    """``lin >= 0`` (non-strict) or ``lin > 0`` (strict)."""

    lin: LinExpr
    strict: bool = False


def _is_int_atom(atom: Atom, int_vars: Set[str]) -> bool:
    """Integer-typed atoms: sizes are cardinalities; counters are ints."""
    if isinstance(atom, T.Size):
        return True
    if isinstance(atom, T.Var):
        return atom.name in int_vars
    return False


class FactSet:
    """Accumulated arithmetic facts with entailment queries.

    Facts are added as comparison TOR expressions; queries ask whether a
    comparison is entailed.  ``size(...) >= 0`` is assumed implicitly
    for every ``size`` atom that appears anywhere in the system.

    ``memo``, when given, maps ``(signature(), op, left, right)`` to the
    answer of :meth:`entails`.  The prover passes one dict to every
    FactSet it builds, so a question asked again under the same facts —
    in another VC, case split or candidate — is answered without
    elimination.  Copies share their original's memo.
    """

    def __init__(self, int_vars: Optional[Set[str]] = None,
                 memo: Optional[Dict[Tuple, bool]] = None):
        self.constraints: List[Constraint] = []
        self.int_vars: Set[str] = set(int_vars or ())
        self._memo = memo
        # Content signature, used by the prover's memos.  Entailment is
        # a function of the ingested comparisons (plus int_vars), so two
        # FactSets with equal signatures answer every query identically.
        # That rests on TOR node equality matching what linearize reads:
        # T.Const keeps True apart from 1 for this reason.
        self._sig_entries: List[Tuple[str, T.TorNode, T.TorNode]] = []
        self._sig: Optional[Tuple] = None

    def copy(self) -> "FactSet":
        out = FactSet(self.int_vars, self._memo)
        out.constraints = list(self.constraints)
        out._sig_entries = list(self._sig_entries)
        out._sig = self._sig
        return out

    def signature(self) -> Tuple:
        """Hashable content fingerprint (order-insensitive)."""
        if self._sig is None:
            self._sig = (frozenset(self._sig_entries),
                         frozenset(self.int_vars))
        return self._sig

    # -- fact ingestion ------------------------------------------------------

    def add_comparison(self, op: str, left: T.TorNode, right: T.TorNode) -> None:
        """Record ``left op right`` as a fact."""
        self._sig_entries.append((op, left, right))
        self._sig = None
        l, r = linearize(left), linearize(right)
        if op == "=":
            self.constraints.append(Constraint(r - l, strict=False))
            self.constraints.append(Constraint(l - r, strict=False))
        elif op == "!=":
            pass  # disequalities are kept by the prover's boolean store
        elif op == "<":
            self._add_strict(r - l)
        elif op == ">":
            self._add_strict(l - r)
        elif op == "<=":
            self.constraints.append(Constraint(r - l, strict=False))
        elif op == ">=":
            self.constraints.append(Constraint(l - r, strict=False))
        else:
            raise ValueError("not a comparison operator: %r" % op)

    def _add_strict(self, lin: LinExpr) -> None:
        # Integer tightening: over integer atoms, lin > 0 means lin >= 1.
        if all(_is_int_atom(a, self.int_vars) for a in lin.atoms()):
            self.constraints.append(Constraint(lin.shift(-1), strict=False))
        else:
            self.constraints.append(Constraint(lin, strict=True))

    def known_int_constants(self) -> List[int]:
        """Integer constants mentioned by any constraint.

        Used by the prover to canonicalise scalar terms that the facts
        pin to a constant value (``i >= 10`` with ``i <= 10``).
        """
        out: List[int] = []
        for con in self.constraints:
            value = con.lin.const
            for candidate in (value, -value, value + 1, -(value + 1),
                              value - 1):
                if candidate.denominator == 1:
                    ivalue = int(candidate)
                    if 0 <= ivalue <= 1_000_000 and ivalue not in out:
                        out.append(ivalue)
        return out

    # -- entailment ------------------------------------------------------------

    def entails(self, op: str, left: T.TorNode, right: T.TorNode) -> bool:
        """Is ``left op right`` entailed by the facts?"""
        if self._memo is None:
            return self._decide(op, left, right)
        key = (self.signature(), op, left, right)
        answer = self._memo.get(key)
        if answer is None:
            answer = self._memo[key] = self._decide(op, left, right)
        return answer

    def _decide(self, op: str, left: T.TorNode, right: T.TorNode) -> bool:
        l, r = linearize(left), linearize(right)
        if op == "=":
            return (self._entails_geq(r - l, strict=False)
                    and self._entails_geq(l - r, strict=False))
        if op == "<":
            return self._entails_geq(r - l, strict=True)
        if op == ">":
            return self._entails_geq(l - r, strict=True)
        if op == "<=":
            return self._entails_geq(r - l, strict=False)
        if op == ">=":
            return self._entails_geq(l - r, strict=False)
        if op == "!=":
            return (self._entails_geq(r - l, strict=True)
                    or self._entails_geq(l - r, strict=True))
        raise ValueError("not a comparison operator: %r" % op)

    def refutes(self, op: str, left: T.TorNode, right: T.TorNode) -> bool:
        """Is the *negation* of ``left op right`` entailed?"""
        negated = {"=": "!=", "!=": "=", "<": ">=", ">=": "<",
                   ">": "<=", "<=": ">"}[op]
        return self.entails(negated, left, right)

    def _entails_geq(self, lin: LinExpr, strict: bool) -> bool:
        """Facts entail ``lin >= 0`` (or ``> 0`` when strict)?

        Checked by refutation: add the negation and test feasibility via
        Fourier-Motzkin.  Negation of ``lin >= 0`` is ``-lin > 0``;
        negation of ``lin > 0`` is ``-lin >= 0`` (with integer
        tightening when applicable).
        """
        system = list(self.constraints)
        neg = -lin
        if strict:
            system.append(Constraint(neg, strict=False))
        else:
            if all(_is_int_atom(a, self.int_vars) for a in neg.atoms()):
                system.append(Constraint(neg.shift(-1), strict=False))
            else:
                system.append(Constraint(neg, strict=True))
        # Implicit size(...) >= 0 facts, in order of first appearance.
        sizes = {atom: None for con in system for atom in con.lin.terms
                 if isinstance(atom, T.Size)}
        system.extend(Constraint(LinExpr({atom: 1})) for atom in sizes)
        return not _feasible(system)


#: A row of the elimination: coefficients (one per live atom, then the
#: constant) with all entries coprime, and whether it is strict.
_Row = Tuple[Tuple[int, ...], bool]


def _feasible(system: List[Constraint]) -> bool:
    """Is the system satisfiable?  Fourier-Motzkin elimination.

    Each atom is indexed to a column once, and each constraint becomes
    an integer row: denominators cleared, then divided by the gcd of its
    coefficients and constant.  Duplicate rows and rows that always hold
    are dropped, and a contradictory constant row ends the search at
    once.  Each round eliminates the atom that creates the fewest new
    rows (pairs of a positive and a negative coefficient).  Projection
    is exact over the rationals in any elimination order, so the choice
    changes the work and never the answer.  The integer tightening
    applied at ingestion recovers the integer consequences the prover
    needs.
    """
    columns: Dict[Atom, int] = {}
    for con in system:
        for atom in con.lin.terms:
            if atom not in columns:
                columns[atom] = len(columns)
    width = len(columns)
    rows: Set[_Row] = set()
    for con in system:
        vec = [0] * (width + 1)
        for atom, coef in con.lin.terms.items():
            vec[columns[atom]] = coef
        vec[width] = con.lin.const
        row = _normal_row(vec, con.strict)
        if row is False:
            return False
        if row is not None:
            rows.add(row)
    while rows:
        # Pick the atom whose elimination adds the fewest rows.
        best = None
        for index, column in enumerate(zip(*[vec for vec, _ in rows])):
            if index == width:
                break  # the constants
            pos = neg = 0
            for coef in column:
                if coef > 0:
                    pos += 1
                elif coef < 0:
                    neg += 1
            if best is None or pos * neg < best:
                best, col = pos * neg, index
                if best == 0:
                    break
        lower: List[_Row] = []  # coef > 0: a lower bound on the atom
        upper: List[_Row] = []  # coef < 0: an upper bound on the atom
        projected: Set[_Row] = set()
        for vec, strict in rows:
            coef = vec[col]
            if coef > 0:
                lower.append((vec, strict))
            elif coef < 0:
                upper.append((vec, strict))
            else:
                projected.add((vec[:col] + vec[col + 1:], strict))
        for lo, lo_strict in lower:
            a = lo[col]
            for hi, hi_strict in upper:
                b = -hi[col]
                vec = [b * x + a * y for x, y in zip(lo, hi)]
                del vec[col]
                row = _normal_row(vec, lo_strict or hi_strict)
                if row is False:
                    return False
                if row is not None:
                    projected.add(row)
        rows = projected
        width -= 1
    return True


def _normal_row(vec: List[Number], strict: bool) -> Union[_Row, bool, None]:
    """``vec`` (coefficients, then constant) as a canonical integer row.

    Returns the row, ``None`` when it holds whatever the atoms are, or
    ``False`` when it can never hold.
    """
    try:
        g = math.gcd(*vec)
    except TypeError:  # a Fraction from a non-integral float constant
        scale = math.lcm(*(x.denominator for x in vec))
        vec = [int(x * scale) for x in vec]
        g = math.gcd(*vec)
    if not any(vec[:-1]):
        const = vec[-1]
        if const > 0 or (const == 0 and not strict):
            return None
        return False
    if g != 1:
        vec = [x // g for x in vec]
    return tuple(vec), strict
