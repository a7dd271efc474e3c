"""Entity column reads vs. plain-object reads.

The paper's original code is Hibernate code over POJOs: reading a
loaded field is a plain field read.  ``repro.orm.session`` hydrates
each row into an instance of a slotted class built once per mapped
type and row shape, so reading a loaded column is a plain attribute
read too, and ``Entity.__getattr__`` runs only for a lazy association
not read yet or a missing name.  This benchmark holds that: it loads
2,000 Participants lazily (``populate_wilos``), reads every column of
every one, and times the same reads on plain objects built from the
same records.

Claims:

* **same values** (asserted unconditionally): every entity reads the
  values its plain object holds;
* **read floor** (asserted unconditionally — single-threaded, no
  core-count gate): entity reads take at most 2x the time of the
  plain-object reads, best of 3 each.  Reading a column through a
  Python-level ``__getattr__`` took 23-41x.
* **eager-query floor** (an exact count, so it holds on any hardware):
  an eager ``load_all("Participant")`` over 2,000 Participants, 20 roles
  and 200 projects issues at most 1 + 20 + 200 = 221 queries, the load
  and one lookup per distinct associated key, because a session
  resolves each association key once.  It issued 1 + 2 * 2,000 = 4,001,
  one lookup per row and association, before the session kept a
  persistence context.  Recorded as the reduction ``4001 / queries >=
  4001 / 221`` with the count beside it.

Run directly::

    PYTHONPATH=src python benchmarks/bench_orm_entities.py
    PYTHONPATH=src python benchmarks/bench_orm_entities.py --smoke

(``--smoke`` is the CI canary: fewer read passes per timing, non-zero
exit when the floor regresses.)
"""

import operator
import sys
import time

from repro.bench.harness import floor_entry, write_bench_artifact
from repro.corpus.schema import (
    WILOS_TABLES,
    create_wilos_database,
    populate_wilos,
    wilos_mappings,
)
from repro.orm.session import Session

#: Acceptance ceiling: entity reads over plain-object reads.
MAX_READ_SLOWDOWN = 2.0
N_PARTICIPANTS = 2_000
#: The eager load: roles, and projects as ``populate_wilos`` makes them.
N_ROLES = 20
N_PROJECTS = N_PARTICIPANTS // 10
#: Queries the eager load may issue: the load, then one lookup per
#: distinct role and project.  It issued one lookup per row and
#: association before the session resolved each key once.
MAX_EAGER_QUERIES = 1 + N_ROLES + N_PROJECTS
BASELINE_EAGER_QUERIES = 1 + 2 * N_PARTICIPANTS
REPEATS = 3
COLUMNS = WILOS_TABLES["participant"]
READ_ROW = operator.attrgetter(*COLUMNS)


class PlainParticipant:
    """A plain object holding one row's columns as attributes."""

    def __init__(self, record):
        self.__dict__.update(record)


def read_seconds(objects, passes: int) -> float:
    """Seconds to read every column of every object ``passes`` times."""
    start = time.perf_counter()
    for _ in range(passes):
        for obj in objects:
            READ_ROW(obj)
    return time.perf_counter() - start


def eager_queries():
    """(queries, entities) of one eager load of every Participant."""
    db = create_wilos_database()
    populate_wilos(db, n_users=N_PARTICIPANTS, n_roles=N_ROLES)
    session = Session(db, wilos_mappings(), fetch="eager")
    participants = session.load_all("Participant")
    assert len(participants) == N_PARTICIPANTS
    assert all(p.role.role_id == p.role_id and p.project.id == p.project_id
               for p in participants)
    print("%-28s %8d queries, %d entities (at most %d; %d before)"
          % ("eager load", session.queries_issued, session.objects_hydrated,
             MAX_EAGER_QUERIES, BASELINE_EAGER_QUERIES))
    return session.queries_issued, session.objects_hydrated


def run(smoke=False):
    passes = 5 if smoke else 20

    db = create_wilos_database()
    populate_wilos(db, n_users=N_PARTICIPANTS)
    session = Session(db, wilos_mappings(), fetch="lazy")
    entities = session.load_all("Participant")
    plain = [PlainParticipant(entity.record) for entity in entities]
    assert len(entities) == N_PARTICIPANTS
    assert [READ_ROW(e) for e in entities] == [READ_ROW(p) for p in plain]

    entity_times, plain_times = [], []
    for _ in range(REPEATS):     # interleaved, so host drift hits both
        entity_times.append(read_seconds(entities, passes))
        plain_times.append(read_seconds(plain, passes))
    entity_s, plain_s = min(entity_times), min(plain_times)
    slowdown = entity_s / plain_s
    reads = passes * N_PARTICIPANTS * len(COLUMNS)

    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("entity reads", entity_s * 1e3, entity_s / reads * 1e9))
    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("plain-object reads", plain_s * 1e3, plain_s / reads * 1e9))
    print()
    print("entity reads take %.2fx the plain-object time (ceiling %.1fx)"
          % (slowdown, MAX_READ_SLOWDOWN))
    queries, entities = eager_queries()

    failures = []
    if slowdown > MAX_READ_SLOWDOWN:
        failures.append("entity reads %.2fx > %.1fx of plain-object reads"
                        % (slowdown, MAX_READ_SLOWDOWN))
    if queries > MAX_EAGER_QUERIES:
        failures.append("eager load issued %d queries > %d"
                        % (queries, MAX_EAGER_QUERIES))
    write_bench_artifact(
        "orm_entities", not failures, smoke=smoke,
        # Floors are speedups (higher is better): the entity's read
        # speed relative to the plain object's, and the reduction in
        # eager-load queries, with the count beside it.
        floors={"entity_read_speed": floor_entry(
                    plain_s / entity_s, 1.0 / MAX_READ_SLOWDOWN,
                    asserted=True),
                "eager_queries": dict(floor_entry(
                    BASELINE_EAGER_QUERIES / queries,
                    BASELINE_EAGER_QUERIES / MAX_EAGER_QUERIES),
                    queries=queries, max_queries=MAX_EAGER_QUERIES)},
        extra={"participants": N_PARTICIPANTS, "columns": len(COLUMNS),
               "passes": passes, "repeats": REPEATS,
               "entity_seconds": entity_s, "plain_seconds": plain_s,
               "slowdown": slowdown, "roles": N_ROLES,
               "projects": N_PROJECTS, "eager_entities": entities})
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print("RESULT: PASS")
    return 0


def test_orm_entity_read_floor(benchmark):
    """pytest-benchmark flavor (part of ``make bench``)."""
    code = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1,
                              iterations=1)
    assert code == 0


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
