"""The service job model: content-addressed QBS work units.

A *job* is one synthesize-prove-translate run over one corpus fragment
under one driver configuration.  Jobs are identified by a content hash
over the compiled kernel fragment (the code QBS actually reasons
about) and the full :class:`~repro.core.qbs.QBSOptions` fingerprint, so

* editing a fragment's source changes its key (stale cache entries are
  never served),
* changing any driver or synthesis knob changes every key (results are
  only reused under the exact configuration that produced them),
* re-running an unchanged corpus maps onto the exact same key set,
  which is what makes the persistent cache incremental.

Results cross process and disk boundaries as JSON via
:meth:`QBSResult.to_json_dict` / :meth:`QBSResult.from_json_dict`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.qbs import QBS, QBSOptions, QBSResult
from repro.core.synthesizer import SynthesisOptions
from repro.corpus.registry import (
    CorpusFragment,
    compile_fragment,
    fragment_by_id,
    run_fragment_through_qbs,
)
from repro.frontend import FrontendRejection
from repro.kernel.pretty import pretty_fragment
from repro.service import faults

#: bump when the serialized result layout changes incompatibly.
JOB_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QBSJob:
    """One schedulable unit: a fragment id plus its content-hash key."""

    fragment_id: str
    app: str
    key: str                 # sha256 over kernel text + options
    kernel_sha: str          # sha256 over the kernel text alone
    options_json: str        # canonical QBSOptions fingerprint


def options_payload(options: QBSOptions) -> Dict[str, Any]:
    """The complete, JSON-safe option fingerprint (nested dataclasses)."""
    return dataclasses.asdict(options)


def options_from_payload(payload: Dict[str, Any]) -> QBSOptions:
    """Rebuild driver options in a worker process."""
    synthesis = SynthesisOptions(**payload["synthesis"])
    rest = {k: v for k, v in payload.items() if k != "synthesis"}
    return QBSOptions(synthesis=synthesis, **rest)


def _canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: fragment_id -> kernel rendering.  Corpus fragments are static per
#: process, but job hashing happens on every run/submit/status call —
#: the memo keeps repeated hashing from re-running the frontend
#: (mirrors registry._REGISTRY_CACHE).
_KERNEL_TEXT_CACHE: Dict[str, str] = {}


def kernel_text(corpus_fragment: CorpusFragment) -> str:
    """The canonical content of a fragment: its kernel-language form.

    Frontend-rejected fragments have no kernel form; their content is
    the rejection itself, which still changes when the source (and
    hence the rejection reason) does.
    """
    cached = _KERNEL_TEXT_CACHE.get(corpus_fragment.fragment_id)
    if cached is None:
        try:
            cached = pretty_fragment(compile_fragment(corpus_fragment))
        except FrontendRejection as exc:
            cached = "// frontend rejection: %s" % exc.reason
        _KERNEL_TEXT_CACHE[corpus_fragment.fragment_id] = cached
    return cached


def job_for(corpus_fragment: CorpusFragment,
            options: Optional[QBSOptions] = None) -> QBSJob:
    """Content-hash one fragment + configuration into a stable job."""
    options = options or QBSOptions()
    text = kernel_text(corpus_fragment)
    options_json = _canonical_json(options_payload(options))
    kernel_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    key = hashlib.sha256(
        ("v%d\n%s\n%s\n%s" % (JOB_SCHEMA_VERSION,
                              corpus_fragment.fragment_id,
                              kernel_sha,
                              options_json)).encode("utf-8")).hexdigest()
    return QBSJob(fragment_id=corpus_fragment.fragment_id,
                  app=corpus_fragment.app, key=key, kernel_sha=kernel_sha,
                  options_json=options_json)


def jobs_for(fragments: List[CorpusFragment],
             options: Optional[QBSOptions] = None) -> List[QBSJob]:
    options = options or QBSOptions()
    return [job_for(cf, options) for cf in fragments]


def execute_job(fragment_id: str,
                options_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to a JSON result payload.

    This is the function pool workers execute (through
    :class:`PoolJob`); everything it takes and returns is
    picklable-by-value, so no AST ever crosses the process boundary.
    """
    corpus_fragment = fragment_by_id(fragment_id)
    qbs = QBS(options_from_payload(options_dict))
    result = run_fragment_through_qbs(corpus_fragment, qbs)
    return result.to_json_dict()


class PoolJob:
    """One fragment's QBS run in the picklable form a pool worker runs:
    a zero-argument callable, as
    :meth:`repro.service.pool.WorkerPool.stream` expects.

    The runner is looked up in the worker at run time
    (``scheduler._JOB_RUNNER``), so a swap made before the scheduler
    forked its pool reaches the workers.  A failure is classified
    inside the worker, where the exception lives, and travels home as
    a :class:`~repro.service.faults.JobFailed` (kind plus message): the
    exception itself may not pickle, and its kind decides the retry.
    """

    __slots__ = ("fragment_id", "options")

    def __init__(self, fragment_id: str, options: Dict[str, Any]):
        self.fragment_id = fragment_id
        self.options = options

    def __call__(self) -> Dict[str, Any]:
        from repro.service import scheduler

        try:
            return scheduler._JOB_RUNNER(self.fragment_id, self.options)
        except Exception as exc:
            raise faults.JobFailed(
                faults.classify_exception(exc),
                "%s: %s" % (type(exc).__name__, exc)) from None


def result_from_payload(payload: Dict[str, Any]) -> QBSResult:
    return QBSResult.from_json_dict(payload)
