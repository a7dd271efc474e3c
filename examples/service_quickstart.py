"""Service quickstart: the corpus pipeline behind the scheduler.

Runs a handful of fragments through :class:`repro.service.Scheduler`
on two worker processes, streaming outcomes in submission order as
they complete, then runs the same batch again to show the persistent
cache answering instead of the synthesizer.

Run:  PYTHONPATH=src python examples/service_quickstart.py
"""

import shutil
import tempfile

from repro.corpus.registry import fragment_by_id
from repro.service import ResultCache, Scheduler

FRAGMENTS = ["w46", "w40", "i2", "adv_top10", "adv_joincnt"]


def demo(cache: ResultCache) -> None:
    scheduler = Scheduler(workers=2, cache=cache)
    fragments = [fragment_by_id(fragment_id) for fragment_id in FRAGMENTS]

    print("streaming first run (computes everything):")
    for outcome in scheduler.run_iter(fragments):
        result = outcome.result
        if result is None:
            print("  %-12s ! job failed: %s" % (outcome.job.fragment_id,
                                                outcome.error))
            continue
        print("  %-12s %s %-10s %s" % (
            outcome.job.fragment_id, result.status.marker,
            result.status.value,
            result.sql.sql if result.sql else result.reason[:50]))

    print("second run (answered from %s):" % cache.root)
    for outcome in scheduler.run(fragments).outcomes:
        print("  %-12s from_cache=%s  %.3fs" % (
            outcome.job.fragment_id, outcome.from_cache,
            outcome.elapsed_seconds))


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="qbs-quickstart-")
    try:
        demo(ResultCache(cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
