"""The SQL engine stands below the service layer.

``repro.service`` imports the engine (through the corpus and QBS), never
the other way round: importing the engine must load no service module
and no ``multiprocessing``.  A fresh interpreter checks it, so modules
other tests imported cannot hide a stray import.
"""

import os
import subprocess
import sys

import repro

_PROBE = """\
import sys
import repro.sql.database, repro.sql.plan
print(sorted(name for name in sys.modules
             if name.startswith("repro.service")
             or name.split(".")[0] == "multiprocessing"))
"""


def test_engine_imports_load_no_service_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
