"""``repro-qbs`` — drive the QBS corpus as a service.

Subcommands::

    repro-qbs run            # run fragments through the scheduler + cache
    repro-qbs status         # corpus coverage of the current cache
    repro-qbs cache          # cache maintenance: info | list | clear | gc

``run`` prints the Appendix-A style marker table (X translated,
* failed, † rejected) with per-fragment timing, cache provenance and
the inferred SQL, then the Fig. 13 summary counts.  ``--check`` makes
mismatches against the paper's expected outcomes (and failed jobs)
exit non-zero, which is what ``make serve-smoke`` relies on.
``--json`` swaps the table for a machine-consumable JSON document (one
entry per fragment, carrying the ``QBSResult.to_json_dict`` payload).

``cache gc --max-bytes N`` evicts oldest-modification-time entries
until the store fits the budget — the persistent cache otherwise grows
without bound across corpus versions.

Observability (``docs/observability.md``): ``run --trace out.json``
executes the batch under a trace and writes the stitched span tree as
JSON; ``run --profile out.txt`` additionally samples the run and
writes a collapsed-stack profile (``.json`` for the JSON summary);
``run --metrics`` appends the metrics registry's Prometheus text
exposition (or a ``"metrics"`` key under ``--json``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter
from typing import List, Optional

from repro.core.qbs import QBSOptions
from repro.corpus.registry import select_fragments
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.cache import ResultCache, default_cache_dir
from repro.service.faults import RetryPolicy
from repro.service.jobs import job_for
from repro.service.scheduler import Scheduler


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", default="all",
                        choices=("all", "wilos", "itracker", "advanced"),
                        help="restrict to one application's fragments")
    parser.add_argument("--fragments", default=None, metavar="ID[,ID...]",
                        help="comma-separated fragment ids (e.g. w46,i2)")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="result cache location (default: %s, or "
                             "$REPRO_QBS_CACHE_DIR)" % default_cache_dir())
    parser.add_argument("--no-cache", action="store_true",
                        help="run without reading or writing the cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qbs",
        description="Run the QBS corpus pipeline as a parallel, "
                    "cached service.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run fragments through QBS")
    _add_selection_args(run)
    _add_cache_args(run)
    run.add_argument("--workers", type=_positive_int, default=1,
                     metavar="N",
                     help="worker processes (1 = in-process, no pool)")
    run.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="per-job timeout; timed-out jobs fail, the "
                          "batch continues (needs --workers >= 2)")
    run.add_argument("--retries", type=_nonnegative_int, default=0,
                     metavar="N",
                     help="retry retryable failures (crash/timeout/"
                          "corrupt/transient) up to N times per job "
                          "with deterministic backoff; 0 = seed "
                          "behaviour, fail on the first attempt")
    run.add_argument("--deadline", type=float, default=None,
                     metavar="SEC",
                     help="whole-run budget; jobs unfinished at the "
                          "deadline fail with a classified timeout "
                          "instead of blocking the run")
    run.add_argument("--refresh", action="store_true",
                     help="recompute even on cache hit")
    run.add_argument("--check", action="store_true",
                     help="exit non-zero on failed jobs or outcomes "
                          "that disagree with the paper's table")
    run.add_argument("--expect-cached", action="store_true",
                     help="exit non-zero if anything had to be "
                          "computed (cache-regression canary)")
    run.add_argument("--quiet", action="store_true",
                     help="summary only, no per-fragment table")
    run.add_argument("--json", action="store_true", dest="json_output",
                     help="emit one JSON document (per-fragment results "
                          "+ summary) instead of the table")
    run.add_argument("--trace", default=None, metavar="PATH",
                     dest="trace_path",
                     help="run under a trace and write the span tree "
                          "as JSON to PATH (job spans; plus synthesis "
                          "and query spans with --workers 1)")
    run.add_argument("--profile", default=None, metavar="PATH",
                     dest="profile_path",
                     help="sample the run with the span-attributed "
                          "profiler and write collapsed stacks to PATH "
                          "(.json extension writes the JSON summary "
                          "instead); implies an ambient trace; pool "
                          "workers are not sampled, so pair with "
                          "--workers 1 for full attribution")
    run.add_argument("--metrics", action="store_true",
                     dest="show_metrics",
                     help="print the metrics registry after the run "
                          "(text exposition, or a 'metrics' key with "
                          "--json)")

    status = sub.add_parser("status",
                            help="cache coverage of the corpus")
    _add_selection_args(status)
    _add_cache_args(status)

    cache = sub.add_parser("cache", help="cache maintenance")
    cache.add_argument("action", nargs="?", default="info",
                       choices=("info", "list", "clear", "gc"))
    cache.add_argument("--gc", action="store_true", dest="gc_flag",
                       help="alias for the gc action (repro-qbs cache "
                            "--gc --max-bytes N)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="N",
                       help="size budget for gc; oldest entries are "
                            "evicted until the store fits")
    _add_cache_args(cache)
    return parser


class SelectionError(Exception):
    """Bad --app/--fragments combination."""


def _selected(args) -> List:
    ids = None
    if args.fragments is not None:
        ids = [part.strip() for part in args.fragments.split(",")
               if part.strip()]
        if not ids:
            # An explicitly empty --fragments is a mistake, not a
            # request for the whole corpus (or for a 0-fragment run
            # that would green-light --check without checking anything).
            raise SelectionError("--fragments was given but names no "
                                 "fragment ids")
    try:
        return select_fragments(app=args.app, ids=ids)
    except KeyError as exc:
        raise SelectionError(exc.args[0] if exc.args else str(exc))


def _cache_for(args) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def cmd_run(args) -> int:
    fragments = _selected(args)
    cache = _cache_for(args)
    if args.timeout is not None and args.workers == 1:
        print("warning: --timeout has no effect with --workers 1 "
              "(the in-process path cannot preempt a job)",
              file=sys.stderr)
    scheduler = Scheduler(workers=args.workers, job_timeout=args.timeout,
                          cache=cache, options=QBSOptions(),
                          refresh=args.refresh,
                          retry=RetryPolicy(max_attempts=args.retries + 1),
                          deadline=args.deadline)
    profiler = None
    if args.trace_path or args.profile_path:
        # Profiling samples the run's spans, so --profile implies the
        # same ambient corpus-run trace --trace sets up.
        with contextlib.ExitStack() as stack:
            if args.profile_path:
                from repro.obs import profile as obs_profile

                profiler = obs_profile.Profiler()
                stack.enter_context(profiler.sampling())
            root = obs_trace.Span("corpus-run", workers=args.workers,
                                  fragments=len(fragments))
            stack.enter_context(root)
            report = scheduler.run(fragments)
        if args.trace_path:
            _write_trace(args.trace_path, root)
        if args.profile_path:
            _write_profile(args.profile_path, profiler)
    else:
        report = scheduler.run(fragments)

    if args.json_output:
        return _emit_run_json(args, fragments, report)

    if not args.quiet:
        print("%-12s %-30s %-10s %-2s %-12s %-6s %8s  %s" % (
            "id", "class:line", "category", "st", "failure", "src",
            "time", "SQL"))
        print("-" * 113)
    mismatches = 0
    counts = {}
    for corpus_fragment, outcome in zip(fragments, report.outcomes):
        if outcome.ok:
            status = outcome.result.status
            marker = status.marker
            detail = outcome.result.sql.sql if outcome.result.sql \
                else outcome.result.reason
            counts.setdefault(corpus_fragment.app,
                              Counter())[status.value] += 1
            if status is not corpus_fragment.expected:
                mismatches += 1
                detail += "   << paper says %s" % \
                    corpus_fragment.expected.marker
        else:
            marker = "!"
            detail = outcome.error
            counts.setdefault(corpus_fragment.app,
                              Counter())["job-failed"] += 1
        if not args.quiet:
            print("%-12s %-30s %-10s %-2s %-12.12s %-6s %7.2fs  %s" % (
                corpus_fragment.fragment_id,
                "%s:%d" % (corpus_fragment.java_class,
                           corpus_fragment.line),
                corpus_fragment.category, marker,
                _failure_cell(outcome),
                "cache" if outcome.from_cache else
                ("w%d" % args.workers if args.workers > 1 else "local"),
                outcome.elapsed_seconds, detail[:60]))

    print()
    print("Run: %d fragments in %.2fs  (%d computed, %d from cache, "
          "%d failed jobs, workers=%d)" % (
              len(report.outcomes), report.wall_seconds, report.computed,
              report.cache_hits, report.failed, args.workers))
    for app in sorted(counts):
        line = "  %-9s" % app
        for status, count in sorted(counts[app].items()):
            line += " %s=%d" % (status, count)
        print(line)
    if mismatches:
        print("  %d outcome(s) disagree with the paper's table" % mismatches)
    if args.trace_path:
        print("  trace written to %s" % args.trace_path)
    if args.profile_path:
        print("  profile written to %s  (%d samples, %d spans)" % (
            args.profile_path, profiler.samples_total,
            len(profiler.spans_seen)))
    if args.show_metrics:
        print()
        sys.stdout.write(obs_metrics.REGISTRY.exposition())
    if args.check and (mismatches or report.failed):
        return 1
    if args.expect_cached and report.cache_hits < len(report.outcomes):
        print("  expected a fully cached run, but %d fragment(s) were "
              "computed" % (len(report.outcomes) - report.cache_hits))
        return 1
    return 0


def _write_trace(path: str, root) -> None:
    """Persist one run's span tree as a JSON document."""
    document = {"schema": "repro-trace/v1", "trace": root.to_dict()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)


def _write_profile(path: str, profiler) -> None:
    """Persist a profile: collapsed stacks, or JSON for ``.json``."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            json.dump(profiler.summary(), handle, indent=1,
                      sort_keys=True)
        else:
            handle.write(profiler.collapsed())


def _failure_cell(outcome) -> str:
    """Failure-class table cell: taxonomy code (plus attempt count when
    the job was retried); ``-`` for clean first-attempt successes."""
    if outcome.ok:
        return "-" if outcome.attempts <= 1 else "ok x%d" % outcome.attempts
    kind = outcome.failure_kind or "failed"
    if outcome.attempts > 1:
        return "%s x%d" % (kind, outcome.attempts)
    return kind


def _emit_run_json(args, fragments, report) -> int:
    """``run --json``: one machine-consumable document on stdout."""
    entries = []
    mismatches = 0
    for corpus_fragment, outcome in zip(fragments, report.outcomes):
        entry = {
            "fragment_id": corpus_fragment.fragment_id,
            "app": corpus_fragment.app,
            "java_class": corpus_fragment.java_class,
            "line": corpus_fragment.line,
            "category": corpus_fragment.category,
            "expected": corpus_fragment.expected.value,
            "ok": outcome.ok,
            "from_cache": outcome.from_cache,
            "elapsed_seconds": outcome.elapsed_seconds,
            "result": outcome.result.to_json_dict() if outcome.ok else None,
            "error": outcome.error or None,
            "failure_kind": outcome.failure_kind,
            "attempts": outcome.attempts,
        }
        entry["matches_expected"] = bool(
            outcome.ok
            and outcome.result.status is corpus_fragment.expected)
        # Same definition as the table path: a crashed/timed-out job is
        # a failed job, not a disagreement with the paper's table.
        if outcome.ok and not entry["matches_expected"]:
            mismatches += 1
        entries.append(entry)
    document = {
        "fragments": entries,
        "summary": {
            "fragments": len(report.outcomes),
            "wall_seconds": report.wall_seconds,
            "computed": report.computed,
            "cache_hits": report.cache_hits,
            "failed_jobs": report.failed,
            "retried_jobs": report.retried,
            "retries": args.retries,
            "deadline": args.deadline,
            "workers": args.workers,
            "mismatches": mismatches,
        },
    }
    if args.show_metrics:
        document["metrics"] = obs_metrics.REGISTRY.snapshot()
    print(json.dumps(document, indent=1, sort_keys=True))
    if args.check and (mismatches or report.failed):
        return 1
    if args.expect_cached and report.cache_hits < len(report.outcomes):
        return 1
    return 0


def _print_cache_info(info) -> None:
    print("cache root   : %s" % info["root"])
    print("entries      : %d (%.1f KiB)" % (info["entries"],
                                            info["bytes"] / 1024.0))
    for label, bucket in (("by app", info["by_app"]),
                          ("by status", info["by_status"])):
        if bucket:
            print("%-13s: %s" % (label, ", ".join(
                "%s=%d" % kv for kv in sorted(bucket.items()))))


def cmd_status(args) -> int:
    fragments = _selected(args)
    cache = _cache_for(args)
    if cache is None:
        print("status needs a cache (drop --no-cache)")
        return 2
    _print_cache_info(cache.info())
    options = QBSOptions()
    hit, miss = [], []
    for corpus_fragment in fragments:
        payload = cache.load(job_for(corpus_fragment, options))
        (hit if payload is not None else miss).append(
            corpus_fragment.fragment_id)
    print("corpus cover : %d/%d fragments cached under current options"
          % (len(hit), len(hit) + len(miss)))
    if miss:
        print("uncached     : %s" % ", ".join(miss))
    return 0


def cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.gc_flag and args.action not in ("info", "gc"):
        # "info" is just the positional default; an explicit different
        # action combined with --gc is contradictory, not overridable.
        print("error: --gc conflicts with the %r action" % args.action,
              file=sys.stderr)
        return 2
    action = "gc" if args.gc_flag else args.action
    if action == "gc":
        if args.max_bytes is None or args.max_bytes < 0:
            print("error: cache gc needs --max-bytes N (N >= 0)",
                  file=sys.stderr)
            return 2
        accounting = cache.gc(args.max_bytes)
        print("evicted %d entr%s (%.1f KiB); %d left (%.1f KiB) in %s"
              % (accounting["removed"],
                 "y" if accounting["removed"] == 1 else "ies",
                 accounting["freed_bytes"] / 1024.0,
                 accounting["remaining_entries"],
                 accounting["remaining_bytes"] / 1024.0,
                 cache.root))
        return 0
    if action == "info":
        _print_cache_info(cache.info())
        return 0
    if action == "list":
        for entry in sorted(cache.entries(),
                            key=lambda e: e.get("fragment_id", "")):
            result = entry.get("result") or {}
            print("%-12s %-10s %s  %s" % (
                entry.get("fragment_id", "?"),
                result.get("status", "?"),
                entry.get("key", "")[:12],
                (result.get("sql") or {}).get("sql", "") or
                result.get("reason", "")[:50]))
        return 0
    removed = cache.clear()
    print("removed %d cache entr%s from %s"
          % (removed, "y" if removed == 1 else "ies", cache.root))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "status": cmd_status,
               "cache": cmd_cache}[args.command]
    try:
        return handler(args)
    except SelectionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
