"""Spans around each layer's public entry points, recorded from outside.

The program's own spans (``repro.obs``) stay off in every timed run.
Instead, :func:`install` replaces a fixed list of entry points with
thin wrappers that open a span on entry and close it on exit.  A span
is (name, start, end, parent, operation id); spans live in flat arrays
in memory and are written out once, at the end of a traced run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Child intervals are merged before they
are subtracted, so work that ran in parallel worker processes is not
counted twice.

Forked scheduler workers inherit the wrappers (they are installed
before the workers start).  The job-runner wrapper, installed through
the documented ``repro.service.scheduler._JOB_RUNNER`` seam, ships a
worker's spans and counts home inside the job's JSON payload; the
parent takes them out again in ``result_from_payload`` and hangs them
under its scheduler span.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import qbs, synthesizer
from repro.core.checker import BoundedChecker
from repro.core.prover import Prover
from repro.core.templates import TemplateGenerator
from repro.core.transform import TransformedFragment
from repro.frontend.compile import PythonFrontend
from repro.service import scheduler
from repro.sql import database, plan
from repro.sql.plan.physical import PhysicalPlan
from repro.tor.trans import NotTranslatableError

#: payload key carrying a worker's spans and counts back to the parent.
SHIPPED_KEY = "_perfbench_trace"

#: span name of one benchmark operation (recorded by the workload loop).
ROOT = "op"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.op_id = -1
        self.counts: Counter = Counter()
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.stack: List[int] = []

    def reset(self) -> None:
        self.counts.clear()
        self._reset_spans()

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    # -- cross-process transport ---------------------------------------------

    def export(self) -> Dict[str, Any]:
        return {"names": self.names, "starts": list(self.starts),
                "ends": list(self.ends), "parents": list(self.parents),
                "counts": dict(self.counts)}

    def absorb(self, shipped: Dict[str, Any]) -> None:
        """Append a worker's spans under the currently open span."""
        base = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        self.names.extend(shipped["names"])
        self.starts.extend(shipped["starts"])
        self.ends.extend(shipped["ends"])
        self.parents.extend(parent if p < 0 else p + base
                            for p in shipped["parents"])
        self.ops.extend([self.op_id] * len(shipped["names"]))
        self.counts.update(shipped["counts"])

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        totals: Dict[str, float] = {}
        for index, name in enumerate(self.names):
            start, end = self.starts[index], self.ends[index]
            covered = 0.0
            kids = children.get(index)
            if kids:
                reach = start
                for lo, hi in sorted((self.starts[k], self.ends[k])
                                     for k in kids):
                    lo, hi = max(lo, reach), min(hi, end)
                    if hi > lo:
                        covered += hi - lo
                        reach = hi
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def durations(self, name: str) -> float:
        """Summed wall time of every span called ``name``."""
        return sum(self.ends[i] - self.starts[i]
                   for i, n in enumerate(self.names) if n == name)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.names):
                out.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                          % (name, self.starts[i], self.ends[i],
                             self.parents[i], self.ops[i]))


def _span(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Callable] = None,
          on_error: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.close(index)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """The patched entry points; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point the benchmark reports on."""
    counts = tracer.counts
    inst = Installation()

    def wrap(owner: Any, attr: str, name: str, **hooks) -> None:
        inst.patch(owner, attr,
                   _span(tracer, name, owner.__dict__[attr], **hooks))

    # frontend, kernel, core, tor
    wrap(PythonFrontend, "compile_function", "frontend.compile")
    wrap(synthesizer, "execute", "kernel.interp")
    wrap(synthesizer, "generate_vcs", "core.vcgen")
    wrap(synthesizer, "generate_worlds", "core.worlds")
    for method in ("__init__", "postcondition_exprs", "loop_template"):
        wrap(TemplateGenerator, method, "core.templates")
    wrap(synthesizer.Synthesizer, "synthesize", "core.search")
    wrap(qbs.QBS, "run", "core.qbs")

    def checked(counterexample) -> None:
        counts["core.checker_calls"] += 1
        counts["core.checker_passes"] += counterexample is None

    wrap(BoundedChecker, "check", "core.checker", after=checked)

    def proved(proof) -> None:
        counts["core.prover_calls"] += 1
        counts["core.prover_proved"] += bool(proof.proved)

    wrap(Prover, "validate", "core.prover", after=proved)

    def emitted(_translation) -> None:
        counts["tor.sqlgen_calls"] += 1
        counts["tor.sqlgen_accepted"] += 1

    def rejected(exc) -> None:
        if isinstance(exc, NotTranslatableError):
            counts["tor.sqlgen_calls"] += 1

    wrap(qbs, "translate", "tor.sqlgen", after=emitted, on_error=rejected)

    # service: the scheduler, and the job runner every worker calls
    wrap(scheduler.Scheduler, "run", "service.scheduler")
    runner = scheduler._JOB_RUNNER

    def job_runner(fragment_id, options_dict):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.reset()
        index = tracer.open("service.jobs")
        try:
            payload = runner(fragment_id, options_dict)
        finally:
            tracer.close(index)
        if in_worker:
            payload = dict(payload)
            payload[SHIPPED_KEY] = tracer.export()
        return payload

    inst.patch(scheduler, "_JOB_RUNNER", job_runner)
    from_payload = scheduler.result_from_payload

    def result_from_payload(payload):
        shipped = payload.pop(SHIPPED_KEY, None)
        if shipped is not None:
            tracer.absorb(shipped)
        return from_payload(payload)

    inst.patch(scheduler, "result_from_payload", result_from_payload)

    # sql: statement entry, parse-cache misses, planning, execution
    def executed(result) -> None:
        stats = result.stats
        counts["sql.queries"] += 1
        counts["sql.rows_returned"] += len(result.rows)
        counts["sql.rows_scanned"] += stats.rows_scanned
        counts["sql.index_probes"] += stats.index_probes
        counts["sql.hash_joins"] += stats.hash_joins
        counts["sql.nested_loop_joins"] += stats.nested_loop_joins

    wrap(database.Database, "execute", "sql.db", after=executed)

    def parsed(_select) -> None:
        counts["sql.parse_calls"] += 1

    wrap(database, "parse", "sql.parse", after=parsed)

    def planned(_plan) -> None:
        counts["sql.plan_calls"] += 1

    wrap(plan, "plan_select", "sql.plan", after=planned)
    wrap(PhysicalPlan, "execute", "sql.exec")
    wrap(TransformedFragment, "execute", "core.transform")
    return inst
