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

    ok = slowdown <= MAX_READ_SLOWDOWN
    write_bench_artifact(
        "orm_entities", ok, smoke=smoke,
        # Floors are speedups (higher is better): the entity's read
        # speed relative to the plain object's.
        floors={"entity_read_speed": floor_entry(
            plain_s / entity_s, 1.0 / MAX_READ_SLOWDOWN, asserted=True)},
        extra={"participants": N_PARTICIPANTS, "columns": len(COLUMNS),
               "passes": passes, "repeats": REPEATS,
               "entity_seconds": entity_s, "plain_seconds": plain_s,
               "slowdown": slowdown})
    if not ok:
        print("FAIL: entity reads %.2fx > %.1fx of plain-object reads"
              % (slowdown, MAX_READ_SLOWDOWN))
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
