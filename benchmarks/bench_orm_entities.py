"""Entity column reads vs. plain-object reads.

The paper's original code is Hibernate code over POJOs: reading a
loaded field is a plain field read.  ``repro.orm.session`` hydrates
each row into an instance of a slotted class built once per mapped
type and row shape, so reading a loaded column is a plain slot read
too.  No entity class has a Python-level ``__getattr__``; an
association reads through a small data descriptor over its slot, which
resolves a lazy one on its first read.  This benchmark holds that: it
loads 2,000 Participants lazily (``populate_wilos``), reads every
column of every one, and times the same reads on plain objects built
from the same records.

Claims:

* **same values** (asserted unconditionally): every entity reads the
  values its plain object holds;
* **read floor** (asserted unconditionally — single-threaded, no
  core-count gate): entity reads through ``operator.attrgetter`` take
  at most 2x the time of the same reads on plain objects, best of 3
  each.  Reading a column through a Python-level ``__getattr__`` took
  23-41x.
* **bytecode-read ceiling** (asserted unconditionally): the same reads
  from Python code, a generated loop of one attribute read per column
  as application code writes them, take at most 1.3x the time of that
  loop over a plain ``__slots__`` class, best of 3, interleaved.
  ``attrgetter`` reads through C and bypasses the interpreter's
  specialised attribute reads, which a class with a ``__getattr__``
  does not get: a read cost 4.7-5.1x the plain one on Python 3.11
  while ``Entity.__getattr__`` existed (1.8-2.3x on 3.9), and about
  1.0x since.
* **eager-query floor** (an exact count, so it holds on any hardware):
  an eager ``load_all("Participant")`` over 2,000 Participants, 20 roles
  and 200 projects issues at most 1 + 20 + 200 = 221 queries, the load
  and one lookup per distinct associated key, because a session
  resolves each association key once.  It issued 1 + 2 * 2,000 = 4,001,
  one lookup per row and association, before the session kept a
  persistence context.  Recorded as the reduction ``4001 / queries >=
  4001 / 221`` with the count beside it.
* **eager-call floor** (an exact ``sys.setprofile`` count, as
  ``bench_planner.py`` counts a statement-cache hit): after a warm-up
  load, the same eager load enters at most 3,625 Python functions, a
  third of the 10,875 it entered while hydration stored one column at a
  time through a generic loop and resolved each association once per
  row.  A class's builder now hydrates a run of rows with no Python
  call per row, and each association is resolved once per result, so
  the count is about 15 per distinct key looked up.  Recorded as the
  reduction ``10875 / calls >= 3`` with the count beside it.

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
#: Acceptance ceiling: entity reads from Python code over the same
#: reads on a plain ``__slots__`` class.
MAX_BYTECODE_READ_SLOWDOWN = 1.3
N_PARTICIPANTS = 2_000
#: The eager load: roles, and projects as ``populate_wilos`` makes them.
N_ROLES = 20
N_PROJECTS = N_PARTICIPANTS // 10
#: Queries the eager load may issue: the load, then one lookup per
#: distinct role and project.  It issued one lookup per row and
#: association before the session resolved each key once.
MAX_EAGER_QUERIES = 1 + N_ROLES + N_PROJECTS
BASELINE_EAGER_QUERIES = 1 + 2 * N_PARTICIPANTS
#: Python functions the warm eager load entered while hydration stored
#: one column at a time and resolved associations row by row; it may
#: enter a third of that.
BASELINE_EAGER_CALLS = 10_875
MAX_EAGER_CALLS = BASELINE_EAGER_CALLS // 3
REPEATS = 3
COLUMNS = WILOS_TABLES["participant"]
READ_ROW = operator.attrgetter(*COLUMNS)


class PlainParticipant:
    """A plain object holding one row's columns as attributes."""

    def __init__(self, record):
        self.__dict__.update(record)


class SlottedParticipant:
    """A plain ``__slots__`` object holding one row's columns."""

    __slots__ = COLUMNS

    def __init__(self, record):
        for column in COLUMNS:
            setattr(self, column, record[column])


def read_seconds(objects, passes: int) -> float:
    """Seconds to read every column of every object ``passes`` times."""
    start = time.perf_counter()
    for _ in range(passes):
        for obj in objects:
            READ_ROW(obj)
    return time.perf_counter() - start


def bytecode_reader():
    """A function reading every column of every object ``passes``
    times, one attribute read per column written out, as application
    code reads them; each call makes a code object of its own, so each
    kind of object gets its own specialised reads."""
    source = "\n".join(
        ["def read(objects, passes):",
         "    for _ in range(passes):",
         "        for obj in objects:"]
        + ["            obj.%s" % column for column in COLUMNS])
    namespace = {}
    exec(source, namespace)
    return namespace["read"]


def bytecode_seconds(read, objects, passes: int) -> float:
    """Seconds ``read`` takes over ``objects``, ``passes`` times."""
    start = time.perf_counter()
    read(objects, passes)
    return time.perf_counter() - start


def eager_load():
    """(queries, entities, Python function entries) of one eager load of
    every Participant, after a warm-up load that builds the entity
    classes and caches the plans."""
    db = create_wilos_database()
    populate_wilos(db, n_users=N_PARTICIPANTS, n_roles=N_ROLES)
    registry = wilos_mappings()
    Session(db, registry, fetch="eager").load_all("Participant")
    session = Session(db, registry, fetch="eager")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        participants = session.load_all("Participant")
    finally:
        sys.setprofile(None)
    assert len(participants) == N_PARTICIPANTS
    assert all(p.role.role_id == p.role_id and p.project.id == p.project_id
               for p in participants)
    print("%-28s %8d queries, %d entities (at most %d; %d before)"
          % ("eager load", session.queries_issued, session.objects_hydrated,
             MAX_EAGER_QUERIES, BASELINE_EAGER_QUERIES))
    print("%-28s %8d calls (at most %d; %d before)"
          % ("eager load", calls, MAX_EAGER_CALLS, BASELINE_EAGER_CALLS))
    return session.queries_issued, session.objects_hydrated, calls


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

    slotted = [SlottedParticipant(entity.record) for entity in entities]
    read_entities, read_slotted = bytecode_reader(), bytecode_reader()
    bytecode_passes = 4 * passes
    code_times, slotted_times = [], []
    for _ in range(REPEATS):
        code_times.append(bytecode_seconds(read_entities, entities,
                                           bytecode_passes))
        slotted_times.append(bytecode_seconds(read_slotted, slotted,
                                              bytecode_passes))
    code_s, slotted_s = min(code_times), min(slotted_times)
    code_slowdown = code_s / slotted_s
    code_reads = bytecode_passes * N_PARTICIPANTS * len(COLUMNS)

    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("entity reads", entity_s * 1e3, entity_s / reads * 1e9))
    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("plain-object reads", plain_s * 1e3, plain_s / reads * 1e9))
    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("entity reads, bytecode", code_s * 1e3,
             code_s / code_reads * 1e9))
    print("%-28s %8.2fms  (%5.1f ns/read)"
          % ("__slots__ reads, bytecode", slotted_s * 1e3,
             slotted_s / code_reads * 1e9))
    print()
    print("entity reads take %.2fx the plain-object time (ceiling %.1fx)"
          % (slowdown, MAX_READ_SLOWDOWN))
    print("from Python code, %.2fx the __slots__ time (ceiling %.1fx)"
          % (code_slowdown, MAX_BYTECODE_READ_SLOWDOWN))
    queries, entities, calls = eager_load()

    failures = []
    if slowdown > MAX_READ_SLOWDOWN:
        failures.append("entity reads %.2fx > %.1fx of plain-object reads"
                        % (slowdown, MAX_READ_SLOWDOWN))
    if code_slowdown > MAX_BYTECODE_READ_SLOWDOWN:
        failures.append("entity reads from Python code %.2fx > %.1fx of "
                        "__slots__ reads" % (code_slowdown,
                                             MAX_BYTECODE_READ_SLOWDOWN))
    if queries > MAX_EAGER_QUERIES:
        failures.append("eager load issued %d queries > %d"
                        % (queries, MAX_EAGER_QUERIES))
    if calls > MAX_EAGER_CALLS:
        failures.append("eager load entered %d Python functions > %d"
                        % (calls, MAX_EAGER_CALLS))
    write_bench_artifact(
        "orm_entities", not failures, smoke=smoke,
        # Floors are speedups (higher is better): the entity's read
        # speed relative to the plain object's, through attrgetter and
        # from Python code, and the reductions in eager-load queries
        # and calls, with each count beside it.
        floors={"entity_read_speed": floor_entry(
                    plain_s / entity_s, 1.0 / MAX_READ_SLOWDOWN,
                    asserted=True),
                "bytecode_read_speed": floor_entry(
                    slotted_s / code_s, 1.0 / MAX_BYTECODE_READ_SLOWDOWN,
                    asserted=True),
                "eager_queries": dict(floor_entry(
                    BASELINE_EAGER_QUERIES / queries,
                    BASELINE_EAGER_QUERIES / MAX_EAGER_QUERIES),
                    queries=queries, max_queries=MAX_EAGER_QUERIES),
                "eager_calls": dict(floor_entry(
                    BASELINE_EAGER_CALLS / calls,
                    BASELINE_EAGER_CALLS / MAX_EAGER_CALLS),
                    calls=calls, max_calls=MAX_EAGER_CALLS)},
        extra={"participants": N_PARTICIPANTS, "columns": len(COLUMNS),
               "passes": passes, "repeats": REPEATS,
               "entity_seconds": entity_s, "plain_seconds": plain_s,
               "slowdown": slowdown, "bytecode_passes": bytecode_passes,
               "bytecode_entity_seconds": code_s,
               "bytecode_slotted_seconds": slotted_s,
               "bytecode_slowdown": code_slowdown, "roles": N_ROLES,
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
