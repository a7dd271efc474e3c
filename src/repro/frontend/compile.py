"""Lowering Python application methods into kernel fragments (Sec. 6.3).

The supported source subset corresponds to the Java constructs the
paper's frontend handles: straight-line assignments, ``for``/``while``
loops over fetched collections, ``if`` filtering, list/set
accumulation, ``len``/indexing/membership, sorting with field keys, and
ORM fetches.  Everything else raises
:class:`~repro.frontend.errors.FrontendRejection` with a reason that
mirrors the paper's rejection classes (arrays and maps, relational
updates, polymorphic type dispatch, escaping values).

Key lowering decisions:

* ``for u in xs`` becomes a counter-indexed ``while`` scan, and ``u`` is
  *substituted* by ``get(xs, i)`` throughout the body — this is what
  lets the feature extractor recognise guard atoms (paper Fig. 2 shows
  the same shape);
* ``x.append(e)`` / ``x.add(e)`` become functional re-assignments
  (``x := append(x, e)``, ``x := unique(append(x, e))``), matching the
  kernel's immutable lists;
* ``sorted(xs, key=lambda r: r.f)`` and ``xs.sort(key=...)`` become the
  uninterpreted ``sort`` operator; non-field comparator keys lower to a
  marker field, which (correctly) dooms synthesis the way custom
  comparators doomed fragment #39/#10 in the paper.
"""

from __future__ import annotations

import ast
import copy
import inspect
import textwrap
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.frontend.analysis import check_fragment_safety
from repro.frontend.errors import FrontendRejection
from repro.frontend.inliner import DEFAULT_BUDGET, inline_calls
from repro.frontend.registry import AppRegistry
from repro.kernel import ast as K
from repro.kernel.ast import Assign, Fragment, If, Seq, Skip, VarInfo, While, seq
from repro.tor import ast as T

#: Marker sort key for comparators the predicate language cannot express.
CUSTOM_COMPARATOR_FIELD = "__custom_comparator__"

_CMP_OPS = {
    ast.Eq: "=", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}
_ARITH_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}


class PythonFrontend:
    """Compiles application methods to kernel fragments."""

    def __init__(self, registry: Optional[AppRegistry] = None,
                 inline_budget: int = DEFAULT_BUDGET):
        self.registry = registry or AppRegistry()
        self.inline_budget = inline_budget

    # -- public API ----------------------------------------------------------

    def compile_function(self, func: Union[Callable, ast.FunctionDef],
                         name: Optional[str] = None) -> Fragment:
        """Compile a Python function (or its AST) into a kernel fragment.

        A tree passed in is left as it is: compilation inlines calls in
        place, so it works on a copy.
        """
        if isinstance(func, ast.FunctionDef):
            tree = copy.deepcopy(func)
        else:
            source = textwrap.dedent(inspect.getsource(func))
            module = ast.parse(source)
            tree = next(n for n in module.body
                        if isinstance(n, ast.FunctionDef))
            tree.decorator_list = []
        return self._compile(tree, name or tree.name)

    def compile_source(self, source: str,
                       name: Optional[str] = None) -> Fragment:
        module = ast.parse(textwrap.dedent(source))
        tree = next(n for n in module.body if isinstance(n, ast.FunctionDef))
        return self._compile(tree, name or tree.name)

    # -- compilation -----------------------------------------------------------

    def _compile(self, tree: ast.FunctionDef, name: str) -> Fragment:
        tree = inline_calls(tree, self.registry, self.inline_budget)
        check_fragment_safety(tree, self.registry)

        state = _CompileState()
        for arg in tree.args.args:
            if arg.arg != "self":
                state.inputs[arg.arg] = VarInfo("scalar")

        commands = self._block(tree.body, state, top_level=True)
        if state.result_var is None:
            raise FrontendRejection("method does not return a value derived "
                                    "from persistent data")
        body = seq(*commands)
        return Fragment(body=body, result_var=state.result_var,
                        inputs=state.inputs, locals=state.locals, name=name)

    def _block(self, statements: List[ast.stmt], state: "_CompileState",
               top_level: bool = False) -> List[K.Command]:
        out: List[K.Command] = []
        for idx, stmt in enumerate(statements):
            if isinstance(stmt, ast.Return):
                if not top_level or idx != len(statements) - 1:
                    raise FrontendRejection(
                        "early return interrupts the fragment's single "
                        "control-flow exit")
                out.extend(self._return(stmt, state))
                return out
            out.extend(self._stmt(stmt, state))
        return out

    # -- statements ----------------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, state: "_CompileState"
              ) -> List[K.Command]:
        if isinstance(stmt, ast.Pass):
            return []

        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return []  # docstring / bare literal

        if isinstance(stmt, ast.Assign):
            return self._assign(stmt, state)

        if isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name):
                raise FrontendRejection("augmented assignment to non-variable")
            op = _ARITH_OPS.get(type(stmt.op))
            if op is None:
                raise FrontendRejection("unsupported augmented operator")
            var = stmt.target.id
            state.note_scalar(var)
            value = T.BinOp(op, T.Var(var), self._expr(stmt.value, state))
            return [Assign(var, value)]

        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            return self._call_statement(stmt.value, state)

        if isinstance(stmt, ast.If):
            cond = self._expr(stmt.test, state)
            then_branch = seq(*self._block(stmt.body, state))
            else_branch = seq(*self._block(stmt.orelse, state)) \
                if stmt.orelse else Skip()
            return [If(cond, then_branch, else_branch)]

        if isinstance(stmt, ast.While):
            cond = self._expr(stmt.test, state)
            body = seq(*self._block(stmt.body, state))
            return [While(cond, body, loop_id=state.next_loop_id())]

        if isinstance(stmt, ast.For):
            return self._for_loop(stmt, state)

        if isinstance(stmt, (ast.Break, ast.Continue)):
            raise FrontendRejection("break/continue control flow is outside "
                                    "the kernel language")

        raise FrontendRejection("unsupported statement %s"
                                % type(stmt).__name__)

    def _assign(self, stmt: ast.Assign, state: "_CompileState"
                ) -> List[K.Command]:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            raise FrontendRejection("only single-variable assignment is "
                                    "supported (no tuples, arrays or maps)")
        var = stmt.targets[0].id
        value = stmt.value

        if isinstance(value, ast.Dict):
            raise FrontendRejection("map/dictionary data structures are not "
                                    "supported by the kernel language")
        if isinstance(value, ast.List) and value.elts:
            raise FrontendRejection("non-empty list literals are not "
                                    "supported")

        expr = self._expr(value, state)
        state.infer_kind(var, expr)
        if isinstance(expr, T.Var):
            info = state.locals.get(expr.name) or state.inputs.get(expr.name)
            if info is not None and info.kind == "relation":
                state.copy_of[var] = state.copy_of.get(expr.name, expr.name)
        else:
            state.copy_of.pop(var, None)
        return [Assign(var, expr)]

    def _call_statement(self, call: ast.Call, state: "_CompileState"
                        ) -> List[K.Command]:
        if isinstance(call.func, ast.Attribute) and \
                isinstance(call.func.value, ast.Name):
            receiver = call.func.value.id
            method = call.func.attr
            state.copy_of.pop(receiver, None)  # mutated: no longer an alias
            if method == "append" and len(call.args) == 1:
                elem = self._element(call.args[0], state)
                state.note_relation(receiver)
                return [Assign(receiver,
                               T.Append(T.Var(receiver), elem))]
            if method == "add" and len(call.args) == 1:
                elem = self._element(call.args[0], state)
                state.note_relation(receiver)
                return [Assign(receiver, T.Unique(
                    T.Append(T.Var(receiver), elem)))]
            if method == "sort":
                fields = self._sort_fields(call)
                state.note_relation(receiver)
                return [Assign(receiver,
                               T.Sort(fields, T.Var(receiver)))]
            if method == "remove" and len(call.args) == 1:
                # List.remove(Object): modeled functionally so traces
                # still execute; synthesis has no template for it.
                elem = self._expr(call.args[0], state)
                state.note_relation(receiver)
                return [Assign(receiver,
                               T.RemoveFirst(T.Var(receiver), elem))]
        raise FrontendRejection("unsupported call statement")

    def _for_loop(self, stmt: ast.For, state: "_CompileState"
                  ) -> List[K.Command]:
        if not isinstance(stmt.target, ast.Name):
            raise FrontendRejection("destructuring loop targets are not "
                                    "supported")
        if stmt.orelse:
            raise FrontendRejection("for/else is not supported")

        prelude: List[K.Command] = []
        iterable = stmt.iter
        if isinstance(iterable, ast.Name):
            rel_var = state.copy_of.get(iterable.id, iterable.id)
        elif isinstance(iterable, ast.Call):
            # for u in sorted(xs, ...): bind a temporary first.
            rel_var = state.fresh("__scan")
            expr = self._expr(iterable, state)
            state.infer_kind(rel_var, expr)
            prelude.append(Assign(rel_var, expr))
        else:
            raise FrontendRejection("unsupported loop iterable")

        counter = state.fresh("__i")
        state.note_scalar(counter)
        elem = T.Get(T.Var(rel_var), T.Var(counter))
        state.push_elem(stmt.target.id, elem)
        try:
            body_cmds = self._block(stmt.body, state)
        finally:
            state.pop_elem(stmt.target.id)
        body_cmds.append(Assign(counter,
                                T.BinOp("+", T.Var(counter), T.Const(1))))
        loop = While(
            T.BinOp("<", T.Var(counter), T.Size(T.Var(rel_var))),
            seq(*body_cmds), loop_id=state.next_loop_id())
        return prelude + [Assign(counter, T.Const(0)), loop]

    def _return(self, stmt: ast.Return, state: "_CompileState"
                ) -> List[K.Command]:
        if stmt.value is None:
            raise FrontendRejection("fragment returns nothing")
        if isinstance(stmt.value, ast.Name) and \
                stmt.value.id not in state.elem_stack:
            state.result_var = stmt.value.id
            return []
        expr = self._expr(stmt.value, state)
        var = state.fresh("__result")
        state.infer_kind(var, expr)
        state.result_var = var
        return [Assign(var, expr)]

    # -- expressions -----------------------------------------------------------------

    def _expr(self, node: ast.expr, state: "_CompileState") -> T.TorNode:
        if isinstance(node, ast.Constant):
            if node.value is None:
                raise FrontendRejection("null values are not modeled (the "
                                        "kernel language has no three-valued "
                                        "logic)")
            if isinstance(node.value, (bool, int, float, str)):
                return T.Const(node.value)
            raise FrontendRejection("unsupported literal %r" % (node.value,))

        if isinstance(node, ast.Name):
            if node.id in state.elem_stack:
                return state.elem_stack[node.id]
            # Copy propagation: a plain alias of a fetched relation
            # reads through to the original, so templates and the SQL
            # generator see the base relation variable.
            return T.Var(state.copy_of.get(node.id, node.id))

        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                raise FrontendRejection("field access on the enclosing "
                                        "object escapes the fragment")
            base = self._expr(node.value, state)
            return T.FieldAccess(base, node.attr)

        if isinstance(node, ast.List):
            if node.elts:
                raise FrontendRejection("non-empty list literals are not "
                                        "supported")
            return T.EmptyRelation()

        if isinstance(node, ast.Compare):
            return self._compare(node, state)

        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            parts = [self._expr(v, state) for v in node.values]
            out = parts[0]
            for part in parts[1:]:
                out = T.BinOp(op, out, part)
            return out

        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return T.Not(self._expr(node.operand, state))
            if isinstance(node.op, ast.USub):
                inner = self._expr(node.operand, state)
                if isinstance(inner, T.Const) and isinstance(
                        inner.value, (int, float)):
                    return T.Const(-inner.value)
            raise FrontendRejection("unsupported unary operator")

        if isinstance(node, ast.BinOp):
            op = _ARITH_OPS.get(type(node.op))
            if op is None:
                raise FrontendRejection("unsupported arithmetic operator")
            return T.BinOp(op, self._expr(node.left, state),
                           self._expr(node.right, state))

        if isinstance(node, ast.Subscript):
            return self._subscript(node, state)

        if isinstance(node, ast.Call):
            return self._call_expr(node, state)

        raise FrontendRejection("unsupported expression %s"
                                % type(node).__name__)

    def _compare(self, node: ast.Compare, state: "_CompileState"
                 ) -> T.TorNode:
        parts: List[T.TorNode] = []
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, ast.In):
                parts.append(T.Contains(self._expr(left, state),
                                        self._expr(right, state)))
            elif isinstance(op, ast.NotIn):
                parts.append(T.Not(T.Contains(self._expr(left, state),
                                              self._expr(right, state))))
            else:
                sym = _CMP_OPS.get(type(op))
                if sym is None:
                    raise FrontendRejection("unsupported comparison")
                parts.append(T.BinOp(sym, self._expr(left, state),
                                     self._expr(right, state)))
            left = right
        out = parts[0]
        for part in parts[1:]:
            out = T.BinOp("and", out, part)
        return out

    def _subscript(self, node: ast.Subscript, state: "_CompileState"
                   ) -> T.TorNode:
        base = self._expr(node.value, state)
        index = node.slice
        if isinstance(index, ast.Slice):
            raise FrontendRejection("list slicing is not supported")
        if isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.USub) \
                and isinstance(index.operand, ast.Constant) \
                and index.operand.value == 1:
            return T.Get(base, T.BinOp("-", T.Size(base), T.Const(1)))
        return T.Get(base, self._expr(index, state))

    def _call_expr(self, node: ast.Call, state: "_CompileState"
                   ) -> T.TorNode:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "len" and len(node.args) == 1:
                return T.Size(self._expr(node.args[0], state))
            if func.id == "float" and len(node.args) == 1 and \
                    isinstance(node.args[0], ast.Constant) and \
                    node.args[0].value in ("inf", "-inf"):
                # Sentinels for running max/min accumulators; they match
                # the identity elements of the TOR aggregate axioms.
                return T.Const(float(node.args[0].value))
            if func.id == "sorted" and node.args:
                fields = self._sort_fields(node)
                return T.Sort(fields, self._expr(node.args[0], state))
            if func.id == "set" and not node.args:
                return T.EmptyRelation()
            if func.id == "set" and len(node.args) == 1:
                return T.Unique(self._expr(node.args[0], state))
            if func.id == "list" and not node.args:
                return T.EmptyRelation()
            if func.id == "list" and len(node.args) == 1:
                return self._expr(node.args[0], state)
            raise FrontendRejection("unsupported builtin call %r" % func.id)

        if isinstance(func, ast.Attribute):
            method = func.attr
            spec = self.registry.query_spec(method)
            if spec is not None:
                if node.args or node.keywords:
                    raise FrontendRejection(
                        "parameterized persistent-data call %r cannot be "
                        "modeled as a base relation" % method)
                return T.QueryOp(sql=spec.sql, table=spec.table,
                                 schema=spec.schema)
            if method == "contains" and len(node.args) == 1:
                receiver = self._expr(func.value, state)
                return T.Contains(self._expr(node.args[0], state), receiver)
        raise FrontendRejection("unsupported call expression")

    def _element(self, node: ast.expr, state: "_CompileState") -> T.TorNode:
        """Compile an accumulated element.

        A projected scalar field (``ids.add(u.id)``) is wrapped into a
        single-field record so the accumulated relation matches the
        output of the TOR projection operator — single-column rows, as
        SELECT DISTINCT id would produce.

        A dict literal with constant string keys builds a record
        (``result.append({"user_id": u.id, "n": n})`` — the Java idiom
        of accumulating value objects).  Dicts used as *containers*
        (assigned, mutated through subscripts) remain rejected.
        """
        if isinstance(node, ast.Dict):
            items = []
            for key, value in zip(node.keys, node.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    raise FrontendRejection(
                        "record literals need constant string field names")
                items.append((key.value, self._expr(value, state)))
            if not items:
                raise FrontendRejection("empty record literal")
            return T.RecordLit(tuple(items))
        expr = self._expr(node, state)
        if isinstance(expr, T.FieldAccess) and isinstance(expr.expr, T.Get):
            return T.RecordLit(((expr.field, expr),))
        return expr

    def _sort_fields(self, call: ast.Call) -> Tuple[str, ...]:
        """Extract sort keys from a ``key=lambda r: ...`` keyword."""
        key = next((kw.value for kw in call.keywords if kw.arg == "key"),
                   None)
        if key is None:
            # Natural ordering of single-column rows.
            return ("__natural__",)
        if isinstance(key, ast.Lambda):
            body = key.body
            if isinstance(body, ast.Attribute):
                return (body.attr,)
            if isinstance(body, ast.Tuple) and all(
                    isinstance(e, ast.Attribute) for e in body.elts):
                return tuple(e.attr for e in body.elts)
        # Custom comparator logic the predicate language cannot express.
        return (CUSTOM_COMPARATOR_FIELD,)


class _CompileState:
    """Mutable compilation context for one fragment."""

    def __init__(self):
        self.inputs: Dict[str, VarInfo] = {}
        self.locals: Dict[str, VarInfo] = {}
        self.elem_stack: Dict[str, T.TorNode] = {}
        #: plain relation aliases, read through by copy propagation.
        self.copy_of: Dict[str, str] = {}
        self.result_var: Optional[str] = None
        self._loop_seq = 0
        self._fresh_seq = 0

    def next_loop_id(self) -> str:
        loop_id = "loop%d" % self._loop_seq
        self._loop_seq += 1
        return loop_id

    def fresh(self, prefix: str) -> str:
        name = "%s%d" % (prefix, self._fresh_seq)
        self._fresh_seq += 1
        return name

    def push_elem(self, name: str, expr: T.TorNode) -> None:
        if name in self.elem_stack:
            raise FrontendRejection("shadowed loop variable %r" % name)
        self.elem_stack[name] = expr

    def pop_elem(self, name: str) -> None:
        self.elem_stack.pop(name, None)

    # -- variable kind inference ------------------------------------------------

    def note_scalar(self, var: str) -> None:
        if var not in self.inputs:
            self.locals.setdefault(var, VarInfo("scalar"))

    def note_relation(self, var: str) -> None:
        existing = self.locals.get(var)
        if existing is None or existing.kind != "relation":
            self.locals[var] = VarInfo("relation")

    def infer_kind(self, var: str, expr: T.TorNode) -> None:
        if isinstance(expr, T.QueryOp):
            self.locals[var] = VarInfo("relation", schema=expr.schema,
                                       table=expr.table)
            return
        if isinstance(expr, (T.EmptyRelation, T.Append, T.Unique, T.Concat,
                             T.Singleton)):
            self.locals.setdefault(var, VarInfo("relation"))
            if self.locals[var].kind != "relation":
                self.locals[var] = VarInfo("relation")
            return
        if isinstance(expr, T.Sort):
            inner = expr.rel
            if isinstance(inner, T.Var):
                info = self.locals.get(inner.name) or self.inputs.get(
                    inner.name)
                if info is not None:
                    self.locals[var] = VarInfo("relation", schema=info.schema)
                    return
            self.locals[var] = VarInfo("relation")
            return
        if isinstance(expr, T.Var):
            info = self.locals.get(expr.name) or self.inputs.get(expr.name)
            if info is not None:
                self.locals[var] = info
                return
        if isinstance(expr, T.Get):
            self.locals[var] = VarInfo("record")
            return
        self.locals.setdefault(var, VarInfo("scalar"))
