"""The application model the frontend analyses.

The paper's frontend scans a whole application for entry points
(servlet handlers) and persistent-data methods (ORM fetches), then
inlines a neighborhood of calls around each persistent-data method
(Sec. 6.1).  :class:`AppRegistry` is the reproduction's application
index: it records

* **query specs** — methods decorated with
  :func:`repro.orm.dao.query_method`, resolvable to ``Query(...)``
  kernel expressions by method name;
* **application methods** — plain methods whose source is available for
  inlining;
* **entry points** — methods marked with :func:`entry_point`, the roots
  from which fragments are harvested.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Dict, List, Optional

from repro.orm.dao import QuerySpec


def entry_point(func: Callable) -> Callable:
    """Mark an application method as an entry point (servlet handler)."""
    func.__entry_point__ = True
    return func


class AppRegistry:
    """Index of one application's methods for frontend analysis."""

    def __init__(self):
        self.query_specs: Dict[str, QuerySpec] = {}
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.entry_points: List[str] = []

    # -- registration ---------------------------------------------------------

    def register_function(self, func: Callable,
                          name: Optional[str] = None) -> Callable:
        """Register one function/method by source."""
        name = name or func.__name__
        tree = self._parse(func)
        self.methods[name] = tree
        if getattr(func, "__entry_point__", False):
            self.entry_points.append(name)
        return func

    def register_query(self, name: str, spec: QuerySpec) -> None:
        self.query_specs[name] = spec

    @staticmethod
    def _parse(func: Callable) -> ast.FunctionDef:
        source = textwrap.dedent(inspect.getsource(func))
        module = ast.parse(source)
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Strip decorators: they are registration artefacts, not
                # fragment semantics.
                node.decorator_list = []
                return node
        raise ValueError("no function definition found in source of %r"
                         % func)

    # -- lookup -------------------------------------------------------------------

    def query_spec(self, name: str) -> Optional[QuerySpec]:
        return self.query_specs.get(name)

    def method(self, name: str) -> Optional[ast.FunctionDef]:
        return self.methods.get(name)
