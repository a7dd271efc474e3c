"""Location tainting, value escapement and alias checks (paper Sec. 6.2).

These analyses decide whether a candidate fragment is *safe to replace*:

* **location tainting** — values derived from persistent-data calls are
  tainted; the fragment of interest is the region manipulating tainted
  data;
* **value escapement** — if tainted data escapes the method (stored
  into ``self``/globals, passed to an unknown call, mutated through the
  database) before the fragment ends, replacing the computation could
  break observers, so the fragment is rejected;
* **alias + mutation** — two names for the same tainted collection where
  one is mutated makes the kernel's immutable-list semantics unsound
  for the original, so such fragments are rejected too.

The implementation is a flow-insensitive over-approximation over the
Python AST, which is conservative in the same direction as the paper's
analyses: it may reject transformable fragments, never mis-translate.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.frontend.errors import FrontendRejection
from repro.frontend.registry import AppRegistry

#: Collection methods that mutate their receiver.
MUTATORS = {"append", "add", "sort", "remove", "insert", "pop", "clear",
            "extend", "discard", "update"}

#: Methods understood by the compiler; everything else on tainted data
#: is an unknown call.
SAFE_CALLS = {"append", "add", "sort", "len", "sorted", "set", "list",
              "get", "contains", "remove"}

#: DAO-style method names that signal relational updates (rejected).
UPDATE_CALLS = {"save", "delete", "update", "persist", "merge", "flush",
                "save_all", "delete_all"}


def check_fragment_safety(func: ast.FunctionDef,
                          registry: AppRegistry) -> None:
    """Raise :class:`FrontendRejection` when the fragment is unsafe.

    The fragment's AST is walked once; every pass reads the same node
    list, in ``ast.walk`` order.
    """
    nodes = list(ast.walk(func))
    tainted = _collect_tainted(nodes, registry)
    aliases = _collect_aliases(nodes, tainted)

    for node in nodes:
        # Escapement: self.x = tainted / global writes.
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and \
                        _mentions_tainted(node.value, tainted):
                    raise FrontendRejection(
                        "persistent data escapes into attribute %r"
                        % target.attr)
                if isinstance(target, ast.Subscript):
                    raise FrontendRejection(
                        "indexed store (array/map mutation) is outside the "
                        "kernel language")
        if isinstance(node, ast.Global):
            raise FrontendRejection("fragment writes global state")

        # Relational updates and unknown calls on tainted data.
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in UPDATE_CALLS:
                raise FrontendRejection(
                    "relational update operation %r is outside TOR" % name)
            if name is not None and name not in SAFE_CALLS \
                    and registry.query_spec(name) is None \
                    and registry.method(name) is None \
                    and _mentions_tainted(node, tainted):
                raise FrontendRejection(
                    "unknown call %r consumes persistent data" % name)

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance":
            raise FrontendRejection(
                "type-based selection over polymorphic records is not "
                "modeled by TOR")

    # Alias-and-mutate: mutation through one name of an aliased pair.
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if isinstance(receiver, ast.Name) and \
                    node.func.attr in MUTATORS - {"sort"}:
                group = aliases.get(receiver.id)
                if group and len(group) > 1 and receiver.id in tainted:
                    raise FrontendRejection(
                        "aliased persistent collection %r is mutated"
                        % receiver.id)


def _collect_tainted(nodes: List[ast.AST],
                     registry: AppRegistry) -> Set[str]:
    """Fixpoint taint: query-call results and anything derived."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            is_query = (isinstance(node.value, ast.Call)
                        and _call_name(node.value) is not None
                        and registry.query_spec(_call_name(node.value))
                        is not None)
            if (is_query or _mentions_tainted(node.value, tainted)) \
                    and target.id not in tainted:
                tainted.add(target.id)
                changed = True
    return tainted


def _collect_aliases(nodes: List[ast.AST],
                     tainted: Set[str]) -> Dict[str, Set[str]]:
    """Name -> alias group, for plain ``a = b`` copies of tainted lists."""
    groups: Dict[str, Set[str]] = {}
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in tainted:
                group = groups.get(node.value.id) or {node.value.id}
                group.add(target.id)
                for name in group:
                    groups[name] = group
    return groups


def _mentions_tainted(node: ast.AST, tainted: Set[str]) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in tainted:
            return True
    return False


def _call_name(call: ast.Call):
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None
