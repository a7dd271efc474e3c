"""Shared fixtures for the SQL engine suites.

The corpus fixtures are session-scoped because running every fragment
through QBS is the expensive part; the planner-equivalence suites
iterate the inferred SQL statements.
"""

import pytest

from repro.corpus import ALL_FRAGMENTS, run_fragment_through_qbs
from repro.corpus.advanced import create_advanced_database
from repro.corpus.schema import (
    create_itracker_database,
    create_wilos_database,
    populate_itracker,
    populate_wilos,
)


@pytest.fixture(scope="session")
def corpus_sql():
    """Every SQL statement QBS infers over the whole corpus."""
    out = []
    for cf in ALL_FRAGMENTS:
        result = run_fragment_through_qbs(cf)
        if result.translated:
            out.append((cf.fragment_id, cf.app, result.sql.sql))
    return out


@pytest.fixture(scope="session")
def app_dbs():
    """Populated application databases, one per corpus app."""
    wilos = create_wilos_database()
    populate_wilos(db=wilos, n_users=40, n_roles=8)
    wilos.insert_many("workproduct", (
        {"id": i, "workproduct_name": "wp%d" % i, "state": i % 2,
         "project_id": i % 4} for i in range(16)))
    wilos.insert_many("workproduct_descriptor", (
        {"id": i, "workproduct_id": i % 20, "process_id": i % 5,
         "state": i % 2} for i in range(24)))
    wilos.insert_many("role_descriptor", (
        {"id": i, "role_id": i % 8, "process_id": i % 5,
         "descriptor_name": "rd%d" % i} for i in range(20)))
    wilos.insert_many("process", (
        {"id": i, "process_name": "proc%d" % i, "manager_id": i % 3}
        for i in range(5)))
    itracker = create_itracker_database()
    populate_itracker(itracker, n_issues=60)
    advanced = create_advanced_database()
    advanced.insert_many("r", ({"id": i, "a": i % 6} for i in range(30)))
    advanced.insert_many("s", ({"id": i, "b": i % 6} for i in range(20)))
    advanced.insert_many("t", ({"id": i} for i in range(25)))
    advanced.insert_many("u", ({"id": i, "c": i % 8} for i in range(15)))
    return {"wilos": wilos, "itracker": itracker, "advanced": advanced}
