"""Planner-vs-legacy outcome equivalence.

Two layers:

* a hand-written query battery over the application schemas, covering
  every operator combination the grammar admits (joins, index probes,
  IN subqueries, FROM subqueries, top-k, DISTINCT, aggregates, GROUP BY
  with HAVING, grouped ORDER BY / LIMIT);
* the full Fig. 13 + advanced corpus: every fragment QBS translates is
  executed against its populated application database under
  ``ExecutorOptions(planner=True)`` and ``planner=False``, asserting
  identical rows, columns and engine statistics, grouped fragments
  included.
"""

import re

import pytest

from repro.corpus.schema import create_wilos_database, populate_wilos
from repro.sql.executor import ExecutorOptions


def _assert_identical(db, sql, params=None):
    planned = db.execute(sql, params)
    legacy = db.view(ExecutorOptions(planner=False)).execute(sql, params)
    assert list(planned.rows) == list(legacy.rows), sql
    assert planned.columns == legacy.columns, sql
    for field in ("rows_scanned", "index_probes", "hash_joins",
                  "nested_loop_joins", "index_scans", "full_scans"):
        assert getattr(planned.stats, field) == \
            getattr(legacy.stats, field), (sql, field)


@pytest.fixture(scope="module")
def wilos_db():
    db = create_wilos_database()
    populate_wilos(db, n_users=50, n_roles=8, unfinished_fraction=0.3)
    db.insert_many("process", (
        {"id": i, "process_name": "proc%d" % i, "manager_id": i % 4}
        for i in range(6)))
    db.insert_many("role_descriptor", (
        {"id": i, "role_id": i % 8, "process_id": i % 6,
         "descriptor_name": "rd%d" % i} for i in range(25)))
    return db


BATTERY = [
    ("SELECT * FROM participant", None),
    ("SELECT p.login FROM participant p WHERE p.id = 7", None),
    ("SELECT p.login FROM participant p WHERE p.id = :pid", {"pid": 3}),
    ("SELECT p.login FROM participant p WHERE p.is_manager = 1 "
     "AND p.role_id > 2", None),
    ("SELECT p.login, r.role_name FROM participant p, role r "
     "WHERE p.role_id = r.role_id", None),
    ("SELECT p.login, d.descriptor_name "
     "FROM participant p, role r, role_descriptor d "
     "WHERE p.role_id = r.role_id AND d.role_id = r.role_id", None),
    ("SELECT COUNT(*) FROM participant p, role r "
     "WHERE p.role_id = r.role_id AND p.is_manager = 1", None),
    ("SELECT p.login FROM participant p ORDER BY p.login DESC LIMIT 5",
     None),
    ("SELECT DISTINCT p.role_id FROM participant p ORDER BY p.role_id",
     None),
    ("SELECT x.login FROM (SELECT p.login, p.role_id FROM participant p "
     "WHERE p.role_id = 2) x", None),
    ("SELECT p.login FROM participant p WHERE p.role_id IN "
     "(SELECT r.role_id FROM role r WHERE r.role_name = 'role1')", None),
    ("SELECT COUNT(*) > 0 FROM participant p WHERE p.login = 'user3'",
     None),
    ("SELECT SUM(p.id), MAX(p.role_id), MIN(p.id), AVG(p.id) "
     "FROM participant p WHERE p.is_manager = 0", None),
    ("SELECT p.login FROM participant p, process pr", None),
    ("SELECT p.login FROM participant p ORDER BY p.role_id, "
     "p._rowid DESC LIMIT 7", None),
    # Whole-input aggregates ignore ORDER BY / LIMIT / DISTINCT in the
    # seed pipeline; the planned path must match that exactly.
    ("SELECT COUNT(*) FROM participant p ORDER BY p.login", None),
    ("SELECT COUNT(*) FROM participant p LIMIT 0", None),
    ("SELECT DISTINCT COUNT(*) FROM participant p LIMIT 0", None),
    # Grouped queries: the seed pipeline groups independently.
    ("SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id", None),
    ("SELECT p.role_id, COUNT(*) AS n, MAX(p.id) AS hi "
     "FROM participant p, role r WHERE p.role_id = r.role_id "
     "GROUP BY p.role_id HAVING COUNT(*) > 3 ORDER BY n DESC", None),
    ("SELECT r.role_name, AVG(p.id) AS m FROM participant p, role r "
     "WHERE p.role_id = r.role_id GROUP BY r.role_name "
     "HAVING COUNT(*) > 1 AND MIN(p.id) < 10 ORDER BY m LIMIT 3", None),
    ("SELECT p.role_id, COUNT(*) AS n FROM participant p "
     "GROUP BY p.role_id HAVING p.role_id > 2 AND COUNT(*) > 1", None),
]


@pytest.mark.parametrize("case", range(len(BATTERY)))
def test_battery_equivalence(case, wilos_db):
    sql, params = BATTERY[case]
    _assert_identical(wilos_db, sql, params)


# -- full-corpus equivalence ---------------------------------------------------
# (corpus_sql / app_dbs are the session fixtures from conftest.py,
# shared with tests/sql/test_parallel_equivalence.py.)


def test_full_corpus_sql_equivalence(corpus_sql, app_dbs):
    assert len(corpus_sql) >= 40  # 33 Fig. 13 + 7 advanced
    for fragment_id, app, sql in corpus_sql:
        db = app_dbs[app]
        params = {name: 1 for name in
                  set(re.findall(r":(\w+)", sql))}
        _assert_identical(db, sql, params)
    assert any("GROUP BY" in sql for _, _, sql in corpus_sql)
