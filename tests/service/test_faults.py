"""Chaos suite: deterministic fault injection against the scheduler.

The resilience contract (``docs/robustness.md``): every failure gets a
taxonomy code, retryable failures converge to the fault-free outcome
fingerprint under the :class:`RetryPolicy`, poison jobs trip the
per-job circuit breaker with the right final classification, and no
failure mode — crash, hang, corrupt payload, SIGTERM-ignoring worker —
leaks a zombie or hangs the parent.
"""

import functools
import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

from repro.corpus.registry import (
    ITRACKER_FRAGMENTS,
    WILOS_FRAGMENTS,
    select_fragments,
)
from repro.service import faults
from repro.service import pool as pool_mod
from repro.service import scheduler as scheduler_module
from repro.service.faults import (
    CorruptPayload,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    PermanentFault,
    RetryPolicy,
    TransientFault,
    WorkerCrash,
)
from repro.service.jobs import execute_job
from repro.service.pool import WorkerPool
from repro.service.scheduler import Scheduler, outcome_fingerprint

# -- taxonomy / policy units ---------------------------------------------------


def test_backoff_schedule_is_deterministic_and_capped():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.05,
                         backoff_multiplier=2.0, backoff_cap=0.15)
    assert [policy.backoff(a) for a in (1, 2, 3, 4)] \
        == [0.05, 0.1, 0.15, 0.15]


def test_retry_policy_splits_retryable_from_permanent():
    policy = RetryPolicy(max_attempts=3)
    for kind in (faults.TIMEOUT, faults.CRASH, faults.CORRUPT_PAYLOAD,
                 faults.TRANSIENT):
        assert policy.allows_retry(kind, 1)
        assert policy.allows_retry(kind, 2)
        assert not policy.allows_retry(kind, 3)      # circuit breaker
    assert not policy.allows_retry(faults.PERMANENT, 1)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_final_failure_kind_converts_transient():
    assert faults.final_failure_kind(faults.TRANSIENT) \
        == faults.TRANSIENT_EXHAUSTED
    for kind in (faults.TIMEOUT, faults.CRASH, faults.CORRUPT_PAYLOAD,
                 faults.PERMANENT):
        assert faults.final_failure_kind(kind) == kind


def test_classify_exception_reads_fault_kinds():
    assert faults.classify_exception(TransientFault("x")) == faults.TRANSIENT
    assert faults.classify_exception(WorkerCrash("x")) == faults.CRASH
    assert faults.classify_exception(ValueError("x")) == faults.PERMANENT
    # Typed faults are still RuntimeErrors: pre-taxonomy catchers work.
    assert isinstance(WorkerCrash("x"), RuntimeError)


def test_deadline_budget_and_check():
    assert Deadline.after(None) is None
    deadline = Deadline.after(60.0)
    assert 0 < deadline.remaining() <= 60.0 and not deadline.expired()
    spent = Deadline.after(0.0)
    assert spent.expired() and spent.remaining() == 0.0
    with pytest.raises(DeadlineExceeded):
        spent.check("unit test")


def test_error_payload_round_trips_typed_faults():
    corrupt = faults.fault_from_payload(
        faults.error_payload(faults.CORRUPT_PAYLOAD, "garbled"))
    assert isinstance(corrupt, CorruptPayload) and "garbled" in str(corrupt)
    assert isinstance(
        faults.fault_from_payload(
            faults.error_payload(faults.TRANSIENT, "flaky")),
        TransientFault)
    assert isinstance(
        faults.fault_from_payload(
            faults.error_payload(faults.PERMANENT, "bug")),
        PermanentFault)


# -- fault-plan determinism ----------------------------------------------------


def test_fault_plan_is_a_pure_function_of_seed_key_attempt():
    plan = FaultPlan(seed=3, crash=0.2, hang=0.1, transient=0.2,
                     corrupt=0.1)
    keys = ["job-%d" % i for i in range(50)]
    first = [plan.decide(k) for k in keys]
    assert first == [plan.decide(k) for k in keys]          # no clocks
    assert first == [FaultPlan(seed=3, crash=0.2, hang=0.1, transient=0.2,
                               corrupt=0.1).decide(k) for k in keys]
    assert any(first)                                       # it does inject
    # A different seed reshuffles which keys fault.
    other = [FaultPlan(seed=4, crash=0.2, hang=0.1, transient=0.2,
                       corrupt=0.1).decide(k) for k in keys]
    assert other != first


def test_fault_plan_heals_after_faulty_attempts_except_poison():
    plan = FaultPlan(faults={"flaky": faults.CRASH},
                     poison={"doomed": faults.CRASH}, faulty_attempts=2)
    assert plan.decide("flaky", attempt=1) == faults.CRASH
    assert plan.decide("flaky", attempt=2) == faults.CRASH
    assert plan.decide("flaky", attempt=3) is None          # healed
    assert plan.decide("doomed", attempt=99) == faults.CRASH  # never heals
    assert plan.decide("bystander", attempt=1) is None


def test_fault_plan_validates_rates_and_kinds():
    with pytest.raises(ValueError):
        FaultPlan(crash=0.6, hang=0.6)
    with pytest.raises(ValueError):
        FaultPlan(crash=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(faults={"j": "not-a-kind"})
    with pytest.raises(ValueError):
        FaultPlan(poison={"j": faults.TIMEOUT})  # timeout is not injectable


def test_perturb_in_parent_raises_instead_of_exiting():
    plan = FaultPlan(faults={"k": faults.CRASH})
    with pytest.raises(WorkerCrash):
        faults.perturb(plan, "k", attempt=1)
    assert faults.perturb(plan, "k", attempt=2) is None     # healed
    assert faults.perturb(None, "k") is None                # no plan, no-op
    with pytest.raises(CorruptPayload):
        faults.perturb(FaultPlan(poison={"k": faults.CORRUPT_PAYLOAD}), "k")
    with pytest.raises(TransientFault):
        faults.perturb(FaultPlan(poison={"k": faults.TRANSIENT}), "k")


def test_injected_scopes_the_installed_plan():
    assert faults.installed_plan() is None
    plan = FaultPlan(seed=1)
    with faults.injected(plan) as installed:
        assert installed is plan and faults.installed_plan() is plan
    assert faults.installed_plan() is None


# -- chaos runs through the scheduler ------------------------------------------

#: Chosen so the plan below faults >= 10% of the Fig. 13 corpus with
#: every injectable kind represented (asserted in the test, so a
#: corpus change that invalidates the seed fails loudly).
_CHAOS_PLAN = FaultPlan(seed=0, crash=0.06, hang=0.05, transient=0.06,
                        corrupt=0.06, faulty_attempts=1, hang_seconds=30.0)


def _chaos_runner(fragment_id, options_dict):
    """Worker entry that consults the installed fault plan first.

    Fork-started workers inherit both this swap and the installed plan,
    so one plan drives faults on both sides of the pipe."""
    poisoned = faults.perturb(faults.installed_plan(), fragment_id)
    if poisoned is not None:
        return poisoned     # CorruptResult: explodes when the parent recvs
    return execute_job(fragment_id, options_dict)


def test_chaos_corpus_converges_to_fault_free_fingerprint(monkeypatch):
    fragments = WILOS_FRAGMENTS + ITRACKER_FRAGMENTS
    decided = {cf.fragment_id: _CHAOS_PLAN.decide(cf.fragment_id)
               for cf in fragments}
    faulted = {k: v for k, v in decided.items() if v is not None}
    kinds = Counter(faulted.values())
    assert len(faulted) >= max(2, len(fragments) // 10)     # >= 10% chaos
    for kind in (faults.CRASH, faults.HANG, faults.CORRUPT_PAYLOAD,
                 faults.TRANSIENT):
        assert kinds[kind] >= 1, "plan seed no longer covers %s" % kind

    baseline = Scheduler(workers=3).run(fragments)
    assert baseline.failed == 0

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _chaos_runner)
    with faults.injected(_CHAOS_PLAN):
        chaotic = Scheduler(
            workers=3, job_timeout=0.75,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        ).run(fragments)

    assert chaotic.failed == 0      # every injected fault was absorbed
    assert outcome_fingerprint(chaotic.outcomes) \
        == outcome_fingerprint(baseline.outcomes)
    by_id = {o.job.fragment_id: o for o in chaotic.outcomes}
    for fragment_id, outcome in by_id.items():
        if fragment_id in faulted:
            assert outcome.attempts == 2, \
                "%s (%s) should heal on the retry" \
                % (fragment_id, faulted[fragment_id])
        else:
            assert outcome.attempts == 1, \
                "%s was not faulted but retried" % fragment_id
    assert chaotic.retried == len(faulted)


def test_chaos_inline_path_has_same_semantics(monkeypatch):
    # workers=1 runs in-process; crashes are raised, not exited.
    plan = FaultPlan(faults={"w40": faults.CRASH, "i2": faults.TRANSIENT})
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    baseline = Scheduler(workers=1).run(fragments)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _chaos_runner)
    with faults.injected(plan):
        chaotic = Scheduler(
            workers=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        ).run(fragments)

    assert chaotic.failed == 0
    assert outcome_fingerprint(chaotic.outcomes) \
        == outcome_fingerprint(baseline.outcomes)
    by_id = {o.job.fragment_id: o for o in chaotic.outcomes}
    assert by_id["w40"].attempts == 2
    assert by_id["i2"].attempts == 2
    assert by_id["w42"].attempts == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_poison_jobs_trip_the_circuit_breaker(monkeypatch, workers):
    plan = FaultPlan(poison={"w40": faults.CRASH, "w42": faults.TRANSIENT})
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _chaos_runner)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    with faults.injected(plan):
        report = Scheduler(
            workers=workers,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        ).run(fragments)

    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert not by_id["w40"].ok
    assert by_id["w40"].failure_kind == faults.CRASH
    assert by_id["w40"].attempts == 3           # breaker: bounded respawns
    assert not by_id["w42"].ok
    assert by_id["w42"].failure_kind == faults.TRANSIENT_EXHAUSTED
    assert by_id["w42"].attempts == 3
    assert by_id["i2"].ok and by_id["i2"].failure_kind is None
    assert report.failed == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_permanent_failures_never_retry(monkeypatch, workers):
    def buggy(fragment_id, options_dict):
        if fragment_id == "w42":
            raise ValueError("deterministic application bug")
        return execute_job(fragment_id, options_dict)

    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", buggy)
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    report = Scheduler(
        workers=workers, retry=RetryPolicy(max_attempts=4),
    ).run(fragments)
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert not by_id["w42"].ok
    assert by_id["w42"].failure_kind == faults.PERMANENT
    assert by_id["w42"].attempts == 1           # retrying cannot help
    assert "deterministic application bug" in by_id["w42"].error
    assert by_id["w40"].ok and by_id["i2"].ok


def test_poison_corrupt_payload_classified_after_retries(monkeypatch):
    plan = FaultPlan(poison={"w40": faults.CORRUPT_PAYLOAD})
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _chaos_runner)
    fragments = select_fragments(ids=["w40", "i2"])
    with faults.injected(plan):
        report = Scheduler(
            workers=2, retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        ).run(fragments)
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert not by_id["w40"].ok
    assert by_id["w40"].failure_kind == faults.CORRUPT_PAYLOAD
    assert by_id["w40"].attempts == 2
    assert by_id["i2"].ok


def _sleepy_runner(fragment_id, options_dict):
    time.sleep(60)
    return execute_job(fragment_id, options_dict)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_deadline_fails_unfinished_work_classified(monkeypatch, workers):
    if workers > 1:
        monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _sleepy_runner)
        monkeypatch.setattr(pool_mod, "_JOIN_GRACE", 0.5)
    else:
        # Inline: the deadline is checked between jobs, so let the
        # first job run normally and catch the rest at the boundary.
        monkeypatch.setattr(scheduler_module, "_JOB_RUNNER",
                            lambda f, o: (time.sleep(0.4),
                                          execute_job(f, o))[1])
    fragments = select_fragments(ids=["w40", "w42", "i2"])
    start = time.perf_counter()
    report = Scheduler(workers=workers, deadline=0.3).run(fragments)
    elapsed = time.perf_counter() - start

    assert elapsed < 10                       # wound down, did not block
    assert len(report.outcomes) == 3          # every job got an outcome
    timed_out = [o for o in report.outcomes if not o.ok]
    assert timed_out
    for outcome in timed_out:
        assert outcome.failure_kind == faults.TIMEOUT
        assert "deadline exceeded" in outcome.error


# -- worker shutdown escalation (zombie-leak regression) -----------------------


def _stubborn_worker_main(recv_fd, send_fd):
    """A worker that ignores both the shutdown frame and SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    pool_mod._write_frame(send_fd, b"ready")
    time.sleep(60)


def test_shutdown_escalates_to_sigkill_for_stubborn_workers(monkeypatch):
    monkeypatch.setattr(pool_mod, "_JOIN_GRACE", 0.3)
    monkeypatch.setattr(pool_mod, "_worker_main", _stubborn_worker_main)
    pool = WorkerPool(size=1)
    pool.ensure_workers()
    (worker,) = pool._workers
    # SIGTERM handler installed before the worker answers.
    assert pool_mod._read_frame(worker.recv_fd) == b"ready"

    start = time.perf_counter()
    pool.close()
    elapsed = time.perf_counter() - start

    assert not worker.process.is_alive()      # actually reaped, no zombie
    assert worker.process.exitcode == -signal.SIGKILL
    assert elapsed < 5                        # escalated, not grace x2


# -- exact attempt accounting under chaos --------------------------------------


@pytest.mark.parametrize("plan, deltas", [
    (FaultPlan(faults={"w40": faults.CRASH}),
     {"dispatches": 3, "respawns": 1, "retries": 1}),
    (FaultPlan(faults={"w40": faults.CRASH}, faulty_attempts=2),
     {"dispatches": 4, "respawns": 2, "retries": 2}),
    (FaultPlan(faults={"w40": faults.HANG}, hang_seconds=30.0),
     {"dispatches": 3, "respawns": 1, "retries": 1}),
    (FaultPlan(faults={"w40": faults.CORRUPT_PAYLOAD}),
     {"dispatches": 3, "respawns": 0, "retries": 1}),
], ids=["crash", "two-attempt-crash", "hang", "corrupt"])
def test_pool_recovery_counts_are_exact(monkeypatch, plan, deltas):
    """Two jobs, one faulted: a killed or hung worker is respawned and
    its job retried, once per faulty attempt; a reply that will not
    decode is retried on the same, still healthy, worker.  The run
    converges to the fault-free fingerprint."""
    fragments = select_fragments(ids=["w40", "w42"])
    baseline = Scheduler(workers=1).run(fragments)
    counters = {"dispatches": pool_mod._DISPATCHES,
                "respawns": pool_mod._RESPAWNS,
                "retries": pool_mod._RETRIES}
    before = {name: c.total() for name, c in counters.items()}
    monkeypatch.setattr(scheduler_module, "_JOB_RUNNER", _chaos_runner)
    with faults.injected(plan):
        report = Scheduler(
            workers=2, job_timeout=1.5,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        ).run(fragments)
    assert {name: c.total() - before[name]
            for name, c in counters.items()} == deltas
    assert outcome_fingerprint(report.outcomes) \
        == outcome_fingerprint(baseline.outcomes)
    by_id = {o.job.fragment_id: o for o in report.outcomes}
    assert by_id["w40"].attempts == 1 + plan.faulty_attempts
    assert by_id["w42"].attempts == 1


# -- the pool cannot start: the batch runs inline ------------------------------


def _no_fork(method=None):
    raise ValueError("cannot find context for %r" % method)


def _assert_runs_inline(fragments):
    dispatches = pool_mod._DISPATCHES.total()
    report = Scheduler(workers=2, cache=None).run(fragments)
    assert pool_mod._DISPATCHES.total() == dispatches
    assert report.failed == 0
    assert outcome_fingerprint(report.outcomes) == outcome_fingerprint(
        Scheduler(workers=1, cache=None).run(fragments).outcomes)


def test_no_fork_on_the_platform_runs_the_batch_inline(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    with pytest.raises(faults.SubstrateUnavailable, match="no fork"):
        WorkerPool(size=2)
    _assert_runs_inline(select_fragments(ids=["w40", "w42"]))


def test_daemonic_parent_runs_the_batch_inline(monkeypatch):
    """A daemonic process may not fork: the pool's first worker fails
    to start, as it would under a pool worker of another pool."""
    monkeypatch.setitem(multiprocessing.current_process()._config,
                        "daemon", True)
    with pytest.raises(faults.SubstrateUnavailable, match="cannot spawn"):
        WorkerPool(size=2).ensure_workers()
    _assert_runs_inline(select_fragments(ids=["w40", "w42"]))


# -- typed failures of pool jobs -----------------------------------------------


def _run(fn, items, deadline=None):
    """Stream ``fn`` over ``items`` on a fresh two-worker pool without
    retries: the first failure raises, else the values in item order."""
    pool = WorkerPool(size=2, retry=faults.NO_RETRY)
    try:
        done = sorted(pool.stream([functools.partial(fn, item)
                                   for item in items], deadline=deadline),
                      key=lambda d: d.index)
    finally:
        pool.close()
    for finished in done:
        if finished.error is not None:
            raise finished.error
    return [finished.value for finished in done]


def _lock_on_two(x):
    import threading

    return threading.Lock() if x == 2 else x


def test_pool_unpicklable_result_is_corrupt_payload():
    with pytest.raises(CorruptPayload, match="will not pickle"):
        _run(_lock_on_two, [1, 2, 3])


def _local_boom_on_two(x):
    class LocalBoom(Exception):     # local class: instance cannot pickle
        pass

    if x == 2:
        raise LocalBoom("original diagnosis %d" % x)
    return x


def test_pool_unpicklable_exception_keeps_its_message():
    with pytest.raises(PermanentFault, match="original diagnosis 2"):
        _run(_local_boom_on_two, [1, 2, 3])


def _die_on_two(x):
    if x == 2:
        os._exit(5)
    return x


def test_pool_worker_death_is_worker_crash():
    with pytest.raises(WorkerCrash, match="exit code 5"):
        _run(_die_on_two, [1, 2, 3])


def _corrupt_on_two(x):
    return faults.CorruptResult("item %d" % x) if x == 2 else x


def test_pool_corrupt_result_object_is_corrupt_payload():
    with pytest.raises(CorruptPayload):
        _run(_corrupt_on_two, [1, 2, 3])


def _slow(x):
    time.sleep(60)
    return x


def _double(x):
    return x * 2


def test_pool_deadline_reaps_workers():
    pool = WorkerPool(size=2)
    pool.ensure_workers()
    first = [worker.process for worker in pool._workers]
    start = time.perf_counter()
    try:
        done = list(pool.stream([functools.partial(_slow, 1),
                                 functools.partial(_slow, 2)],
                                deadline=Deadline.after(0.3)))
        assert sorted(d.index for d in done) == [0, 1]
        for finished in done:
            assert isinstance(finished.error, DeadlineExceeded)
            assert "while running" in str(finished.error)
        assert time.perf_counter() - start < 10   # workers terminated
        assert not any(process.is_alive() for process in first)
        # A deadline spent before dispatch starts nothing.
        (late,) = pool.stream([functools.partial(_slow, 1)],
                              deadline=Deadline.after(0.0))
        assert isinstance(late.error, DeadlineExceeded)
        assert "before start" in str(late.error) and late.attempts == 0
        # The reaped workers are replaced: the pool serves the next run.
        assert [d.value for d in pool.stream(
            [functools.partial(_double, 4)])] == [8]
    finally:
        pool.close()


def test_pool_still_succeeds_with_deadline_headroom():
    assert _run(_double, [1, 2, 3], deadline=Deadline.after(30.0)) \
        == [2, 4, 6]
