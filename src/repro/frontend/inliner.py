"""Call inlining (paper Sec. 6.1).

The paper inlines "a neighborhood of 5 callers and callees" around each
persistent-data method so that fragment identification sees through the
application's modularity.  This module inlines *callees*: calls to
registered application methods are replaced by their (renamed) bodies,
recursively, up to a budget.

Only single-return methods whose parameters receive simple argument
expressions are inlined; anything else is left in place for the
compiler, which will reject it if it touches persistent data (matching
the paper's conservative handling of ambiguous targets).
"""

from __future__ import annotations

import ast
import copy
from typing import Dict, List, Optional

from repro.frontend.registry import AppRegistry

DEFAULT_BUDGET = 5


def inline_calls(func: ast.FunctionDef, registry: AppRegistry,
                 budget: int = DEFAULT_BUDGET) -> ast.FunctionDef:
    """Inline registered callees into ``func``, in place; return it.

    The caller owns ``func``: the frontend passes a tree it has just
    parsed, or its own copy of a tree it was handed.  Callee bodies are
    copied before they are spliced in, so registered methods never
    change.
    """
    state = _InlineState(registry=registry, budget=budget)
    func.body = _inline_block(func.body, state)
    return func


class _InlineState:
    def __init__(self, registry: AppRegistry, budget: int):
        self.registry = registry
        self.budget = budget
        self.counter = 0


def _inline_block(statements: List[ast.stmt],
                  state: _InlineState) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    for stmt in statements:
        expanded = _try_inline_stmt(stmt, state)
        if expanded is not None:
            out.extend(expanded)
            continue
        # Recurse into compound statements.
        if isinstance(stmt, (ast.For, ast.While)):
            stmt.body = _inline_block(stmt.body, state)
            stmt.orelse = _inline_block(stmt.orelse, state)
        elif isinstance(stmt, ast.If):
            stmt.body = _inline_block(stmt.body, state)
            stmt.orelse = _inline_block(stmt.orelse, state)
        out.append(stmt)
    return out


def _try_inline_stmt(stmt: ast.stmt,
                     state: _InlineState) -> Optional[List[ast.stmt]]:
    """Inline ``target = self.method(...)`` when method is registered."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    call = stmt.value
    if not isinstance(call, ast.Call):
        return None
    method_name = _called_method(call)
    if method_name is None:
        return None
    if state.registry.query_spec(method_name) is not None:
        return None  # persistent-data call: handled by the compiler
    callee = state.registry.method(method_name)
    if callee is None or state.budget <= 0:
        return None

    returns = [s for s in ast.walk(callee) if isinstance(s, ast.Return)]
    if len(returns) != 1 or not isinstance(callee.body[-1], ast.Return):
        return None  # only tail-return methods inline cleanly

    state.budget -= 1
    state.counter += 1
    prefix = "__inl%d_" % state.counter
    body = copy.deepcopy(callee.body)

    # Bind parameters: simple argument expressions substitute directly.
    params = [a.arg for a in callee.args.args if a.arg != "self"]
    if len(call.args) != len(params) or call.keywords:
        state.budget += 1
        return None
    substitution: Dict[str, ast.expr] = dict(zip(params, call.args))

    renamer = _Renamer(prefix, substitution, params)
    body = [renamer.visit(s) for s in body]

    tail = body.pop()
    assert isinstance(tail, ast.Return)
    result_assign = ast.Assign(
        targets=[ast.Name(id=target.id, ctx=ast.Store())],
        value=tail.value if tail.value is not None
        else ast.Constant(value=None))
    inlined = _inline_block(body, state) + [result_assign]
    return [ast.fix_missing_locations(s) for s in inlined]


def _called_method(call: ast.Call) -> Optional[str]:
    """Method name of ``self.m(...)`` or ``self.obj.m(...)`` calls."""
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id == "self":
            return func.attr
        if isinstance(base, ast.Attribute) and \
                isinstance(base.value, ast.Name) and base.value.id == "self":
            return func.attr
    return None


class _Renamer(ast.NodeTransformer):
    """Prefix inlinee locals; substitute parameters by arguments."""

    def __init__(self, prefix: str, substitution: Dict[str, ast.expr],
                 params: List[str]):
        self.prefix = prefix
        self.substitution = substitution
        self.params = set(params)

    def visit_Name(self, node: ast.Name):
        if node.id in self.substitution and isinstance(node.ctx, ast.Load):
            return copy.deepcopy(self.substitution[node.id])
        if node.id in self.params:
            # A parameter being written: rename like a local.
            return ast.copy_location(
                ast.Name(id=self.prefix + node.id, ctx=node.ctx), node)
        if node.id == "self":
            return node
        return ast.copy_location(
            ast.Name(id=self.prefix + node.id, ctx=node.ctx), node)
