"""The resilience layer: failure taxonomy, retries, deadlines, chaos.

Both callers of the worker pool — the service scheduler's QBS batches
and the SQL engine's partition-parallel fan-out — fail in the same small
set of ways, so this module gives them one shared vocabulary and one set
of policies:

* a **failure taxonomy** (`TIMEOUT | CRASH | CORRUPT_PAYLOAD |
  TRANSIENT_EXHAUSTED | PERMANENT`) with typed exceptions
  (:class:`TaskFault` and subclasses) that carry their classification;
* a :class:`RetryPolicy` — bounded attempts with deterministic
  exponential backoff and a retryable-vs-permanent split.  The attempt
  bound doubles as the per-job **circuit breaker**: a poison job stops
  consuming workers after ``max_attempts`` instead of respawn-looping;
* a :class:`Deadline` — a monotonic-clock budget threaded from the
  scheduler / executor down into partition tasks, so a hung
  substrate surfaces a *classified timeout* instead of blocking;
* a :class:`FaultPlan` — a **deterministic fault-injection harness**.
  Faults are decided by a seeded hash over the job id / partition
  index, never by wall-clock randomness, so a chaos run is exactly
  reproducible: the same plan injects the same crash into the same
  job on the same attempt, every time.

Everything here is stdlib-only; both ``repro.service.scheduler`` and
``repro.sql.plan.parallel`` import it without creating cycles.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional

# -- failure taxonomy ----------------------------------------------------------

#: The job/partition ran past its per-attempt or whole-run budget.
TIMEOUT = "timeout"
#: The worker process died (nonzero exit, signal, EOF before replying).
CRASH = "crash"
#: A result crossed the process boundary but could not be decoded
#: (unpicklable value, truncated or garbage pipe payload).
CORRUPT_PAYLOAD = "corrupt_payload"
#: In-flight classification of a retryable application error
#: (:class:`TransientFault`); never final — exhausting the attempt
#: budget converts it to :data:`TRANSIENT_EXHAUSTED`.
TRANSIENT = "transient"
#: A transient error survived every allowed attempt.
TRANSIENT_EXHAUSTED = "transient_exhausted"
#: A deterministic application error: retrying cannot help.
PERMANENT = "permanent"

#: Kinds worth retrying: environmental failures, not logic errors.
RETRYABLE_KINDS = frozenset((TIMEOUT, CRASH, CORRUPT_PAYLOAD, TRANSIENT))

#: The codes a *final* failure classification can carry.
FAILURE_KINDS = (TIMEOUT, CRASH, CORRUPT_PAYLOAD, TRANSIENT_EXHAUSTED,
                 PERMANENT)

#: Injection-only kind: the task stalls (surfaces as TIMEOUT when a
#: timeout or deadline is watching, as slowness otherwise).
HANG = "hang"

#: What a :class:`FaultPlan` may inject.
INJECTABLE_KINDS = (CRASH, HANG, TRANSIENT, CORRUPT_PAYLOAD)


def final_failure_kind(kind: str) -> str:
    """The taxonomy code a failure reports once retries are exhausted."""
    return TRANSIENT_EXHAUSTED if kind == TRANSIENT else kind


# -- typed faults --------------------------------------------------------------


class TaskFault(RuntimeError):
    """Base class for classified execution failures.

    Subclassing ``RuntimeError`` keeps pre-taxonomy callers working:
    code that caught the scheduler's old bare ``RuntimeError`` still
    catches the typed replacements.
    """

    kind = PERMANENT


class TransientFault(TaskFault):
    """A retryable application error: raise it from a job to request a
    retry under the active :class:`RetryPolicy`."""

    kind = TRANSIENT


class WorkerCrash(TaskFault):
    """A worker process died before delivering its result."""

    kind = CRASH


class CorruptPayload(TaskFault):
    """A result crossed the pipe but could not be decoded."""

    kind = CORRUPT_PAYLOAD


class TaskTimeout(TaskFault):
    """A job or partition ran past its budget."""

    kind = TIMEOUT


class DeadlineExceeded(TaskTimeout):
    """A whole-run :class:`Deadline` expired with work unfinished."""


class PermanentFault(TaskFault):
    """A deterministic failure transported across a process boundary
    (e.g. a child exception that could not itself be pickled)."""

    kind = PERMANENT


class JobFailed(TaskFault):
    """A job's own failure, classified inside the worker where the
    exception lives.  The pool ships it home as plain data (the
    original exception may not pickle) and retries it by ``kind``."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


class SubstrateUnavailable(TaskFault):
    """A parallel substrate could not start (fork refused, thread
    limit) — the degradation ladder's cue to fall back, never a final
    classification by itself."""

    kind = CRASH


def classify_exception(exc: BaseException) -> str:
    """Map an exception to its taxonomy kind (PERMANENT by default)."""
    if isinstance(exc, TaskFault):
        return exc.kind
    return PERMANENT


# -- deadlines -----------------------------------------------------------------


class Deadline:
    """A monotonic-clock budget shared down a call tree.

    >>> Deadline.after(0).expired()
    True
    >>> Deadline.after(None) is None
    True
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now; ``None`` stays ``None``."""
        if seconds is None:
            return None
        return cls(time.perf_counter() + seconds)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - time.perf_counter())

    def expired(self) -> bool:
        return time.perf_counter() >= self.expires_at

    def check(self, what: str = "work") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded("deadline expired before %s finished"
                                   % what)


# -- retry policy --------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts *total* attempts (1 = never retry) and is
    the circuit breaker: once a job has consumed its budget it fails
    permanently with its final taxonomy code instead of cycling
    through fresh workers forever.  Backoff is a pure function of the
    attempt number — no jitter, no wall-clock state — so retry
    schedules are exactly reproducible:

    >>> policy = RetryPolicy(max_attempts=4)
    >>> [policy.backoff(attempt) for attempt in (1, 2, 3)]
    [0.05, 0.1, 0.2]
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        return min(self.backoff_base
                   * self.backoff_multiplier ** (attempt - 1),
                   self.backoff_cap)

    def retryable(self, kind: str) -> bool:
        return kind in RETRYABLE_KINDS

    def allows_retry(self, kind: str, attempt: int) -> bool:
        """Whether a failure of ``kind`` on attempt ``attempt`` may
        try again under this policy."""
        return self.retryable(kind) and attempt < self.max_attempts


#: The seed behaviour: one attempt, no retries (mode flags, not forks).
NO_RETRY = RetryPolicy(max_attempts=1)


# -- per-process / per-attempt bookkeeping -------------------------------------

#: True in forked worker/child processes, where injected crashes are
#: real ``os._exit`` calls; False in the parent, where a crash is
#: simulated by raising :class:`WorkerCrash` (exiting would take the
#: whole engine down, not one worker).
_IN_CHILD_PROCESS = False

_ATTEMPT = threading.local()


def mark_child_process() -> None:
    """Record that this process is a forked worker (set by the worker
    pool's worker main)."""
    global _IN_CHILD_PROCESS
    _IN_CHILD_PROCESS = True


def in_child_process() -> bool:
    return _IN_CHILD_PROCESS


def set_current_attempt(attempt: int) -> None:
    """Publish the attempt number before invoking a job runner, so
    fault plans can decide per (job, attempt) inside the worker."""
    _ATTEMPT.value = attempt


def current_attempt() -> int:
    return getattr(_ATTEMPT, "value", 1)


# -- deterministic fault injection ---------------------------------------------


def _fraction(seed: int, key: str) -> float:
    """A stable draw in [0, 1) from (seed, key) — sha256, no clocks."""
    digest = hashlib.sha256(("%s:%s" % (seed, key)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") / float(1 << 64)


@dataclass
class FaultPlan:
    """Deterministic fault injection, seeded per job-id / partition key.

    Rate-based faults draw once per key from a seeded hash (the same
    key always draws the same fault under the same seed) and *heal*
    after ``faulty_attempts`` attempts — the shape retries must
    converge on.  ``faults`` pins specific keys to specific kinds with
    the same healing rule; ``poison`` entries never heal, which is how
    chaos suites model jobs the circuit breaker must give up on.

    >>> plan = FaultPlan(seed=11, crash=0.3, transient=0.2)
    >>> draws = [plan.decide("job-%d" % i) for i in range(6)]
    >>> draws == [plan.decide("job-%d" % i) for i in range(6)]
    True
    >>> FaultPlan(poison={"j": "crash"}).decide("j", attempt=99)
    'crash'
    >>> FaultPlan(faults={"j": "crash"}).decide("j", attempt=2) is None
    True
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    transient: float = 0.0
    corrupt: float = 0.0
    #: rate-based and ``faults`` injections fire on attempts
    #: ``1..faulty_attempts``, then heal.
    faulty_attempts: int = 1
    #: how long an injected hang stalls (keep small in tests).
    hang_seconds: float = 30.0
    #: exit code injected crashes die with.
    crash_exit_code: int = 23
    #: key -> kind, healing like rate-based faults.
    faults: Mapping[str, str] = field(default_factory=dict)
    #: key -> kind, never healing (poison jobs).
    poison: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for rate in (self.crash, self.hang, self.transient, self.corrupt):
            if rate < 0:
                raise ValueError("fault rates must be >= 0")
        if self.crash + self.hang + self.transient + self.corrupt > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        for mapping in (self.faults, self.poison):
            for key, kind in mapping.items():
                if kind not in INJECTABLE_KINDS:
                    raise ValueError(
                        "cannot inject %r for %r (one of %s)"
                        % (kind, key, ", ".join(INJECTABLE_KINDS)))

    def decide(self, key: str, attempt: int = 1) -> Optional[str]:
        """The fault (if any) this plan injects for ``key`` on
        ``attempt`` — a pure function of (plan, key, attempt)."""
        kind = self.poison.get(key)
        if kind is not None:
            return kind
        if attempt > self.faulty_attempts:
            return None
        kind = self.faults.get(key)
        if kind is not None:
            return kind
        if self.crash + self.hang + self.transient + self.corrupt <= 0:
            return None
        draw = _fraction(self.seed, key)
        threshold = 0.0
        for kind, rate in ((CRASH, self.crash), (HANG, self.hang),
                           (TRANSIENT, self.transient),
                           (CORRUPT_PAYLOAD, self.corrupt)):
            threshold += rate
            if draw < threshold:
                return kind
        return None


def _refuse_unpickle(key: str) -> None:
    raise RuntimeError("injected corrupt payload for %r" % (key,))


class CorruptResult:
    """A payload that pickles cleanly but explodes when unpickled —
    the reproducible stand-in for a truncated/garbage pipe message.
    In-process (the serial rung, the scheduler's ``workers=1`` path)
    it never occurs; corruption is a transport property, so
    :func:`perturb` raises :class:`CorruptPayload` directly there
    instead."""

    def __init__(self, key: str = "?"):
        self.key = key

    def __reduce__(self):
        return (_refuse_unpickle, (self.key,))


def perturb(plan: Optional[FaultPlan], key: str,
            attempt: Optional[int] = None) -> Optional[Any]:
    """Execute the plan's fault for (key, attempt), if any.

    Call at the top of a job runner or partition task.  Returns a
    poison payload to send in place of the real result (corrupt
    injection inside a forked child), or ``None`` when the caller
    should proceed normally.  Crash injection is a real ``os._exit``
    inside forked children and a raised :class:`WorkerCrash` in the
    parent (the serial rung, the scheduler's in-process path).
    """
    if plan is None:
        return None
    if attempt is None:
        attempt = current_attempt()
    kind = plan.decide(key, attempt)
    if kind is None:
        return None
    if kind == CRASH:
        if in_child_process():
            os._exit(plan.crash_exit_code)
        raise WorkerCrash("injected crash for %r (attempt %d)"
                          % (key, attempt))
    if kind == HANG:
        time.sleep(plan.hang_seconds)
        return None
    if kind == TRANSIENT:
        raise TransientFault("injected transient fault for %r (attempt %d)"
                             % (key, attempt))
    # CORRUPT_PAYLOAD
    if in_child_process():
        return CorruptResult(key)
    raise CorruptPayload("injected corrupt payload for %r (attempt %d)"
                         % (key, attempt))


# -- installed plan (consulted by the parallel substrates) ---------------------

_INSTALLED_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install a process-wide plan; returns the previous one.  Forked
    children inherit the installed plan, which is what lets one plan
    drive faults on both sides of the pipe."""
    global _INSTALLED_PLAN
    previous = _INSTALLED_PLAN
    _INSTALLED_PLAN = plan
    return previous


def installed_plan() -> Optional[FaultPlan]:
    return _INSTALLED_PLAN


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with injected(plan): ...`` — scoped chaos for tests."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


# -- transported error payloads ------------------------------------------------


def error_payload(kind: str, detail: str) -> Dict[str, str]:
    """A structured, always-picklable error to ship over a pipe when
    the real exception (or result) cannot be."""
    return {"kind": kind, "detail": detail}


_FAULT_TYPES = {TIMEOUT: TaskTimeout, CRASH: WorkerCrash,
                CORRUPT_PAYLOAD: CorruptPayload, TRANSIENT: TransientFault}


def fault_from_payload(payload: Mapping[str, str]) -> TaskFault:
    """Rebuild the typed fault a child shipped as plain data."""
    kind = payload.get("kind", PERMANENT)
    detail = payload.get("detail", "unknown child failure")
    return _FAULT_TYPES.get(kind, PermanentFault)(detail)
