"""QBS — Query By Synthesis (PLDI 2013), reproduced in Python.

Turn imperative ORM-backed application code into SQL queries by
synthesizing loop invariants and postconditions over a theory of
ordered relations, formally validating them, and translating the
postcondition to SQL.

Quick tour::

    from repro import AppRegistry, PythonFrontend, QBS

    registry = AppRegistry()          # declare DAO query methods here
    frontend = PythonFrontend(registry)
    fragment = frontend.compile_function(MyService.hot_method)
    result = QBS().run(fragment)
    print(result.sql.sql)             # the inferred query

See ``examples/quickstart.py`` for the full walkthrough on the paper's
running example, README.md for the tour, and ``docs/architecture.md``
for the subsystem architecture and its one-engine-plus-one-oracle
contract.
"""

from repro.core.qbs import QBS, QBSOptions, QBSResult, QBSStatus
from repro.core.transform import TransformedFragment
from repro.frontend import AppRegistry, FrontendRejection, PythonFrontend
from repro.orm import Dao, Session, query_method
from repro.sql import Database

__version__ = "1.0.0"

__all__ = [
    "QBS",
    "QBSOptions",
    "QBSResult",
    "QBSStatus",
    "TransformedFragment",
    "AppRegistry",
    "FrontendRejection",
    "PythonFrontend",
    "Dao",
    "Session",
    "query_method",
    "Database",
]
