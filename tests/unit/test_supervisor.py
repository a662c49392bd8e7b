"""Worker supervision: heartbeat watchdog, hard-kill escalation, respawn.

The headline acceptance scenario: a batch with one hang-injected worker
(a worker that never runs a cooperative checkpoint) is terminated
within ``deadline + grace``, the pool respawns, the rest of the batch
completes, and the killed item comes back as a typed
``BatchItemError(kind="killed")`` with the kill recorded in
``engine.stats()``, the telemetry sinks, and the run registry.  Also
covers the ``hang`` fault-plan syntax, retry semantics for killed items
(remaining deadline, not a fresh one), cache hygiene (killed items are
never cached), and SIGINT during a kill escalation (exit 130 with a
partial dump).

Every hang here is bounded twice: explicitly via the fault's
``seconds`` and structurally by the supervisor's kill — no test can
wedge an unsupervised run (pytest-timeout is not installed locally).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
import repro.engine.supervisor as supervisor
from repro import (
    BatchItemError,
    BudgetExhausted,
    Cancelled,
    ExchangeEngine,
    FaultPlan,
    Instance,
    Limits,
    SchemaMapping,
    WorkerKilled,
    budget_scope,
    inject_faults,
)
from repro.engine.supervisor import (
    Job,
    WorkerPool,
    run_batch_supervised,
    supervision_available,
)
from repro.limits import Fault, trip
from repro.limits.budget import CancelToken, cancel_scope, current_budget
from repro.limits.faults import HANG_BACKSTOP, current_fault_plan
from repro.obs import JsonlSink, RunRegistry, tracing
from repro.obs.context import context_scope, current_context, mint_context
from repro.obs.tracer import current_tracer
from repro.store import open_store

MAPPING = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
#: A chase that never reaches a fixpoint on its own — used to exercise
#: cooperative (checkpointing) workers under supervision.
RECURSIVE = SchemaMapping.from_text("A(x) -> E(x, y) & A(y)")

pytestmark = pytest.mark.skipif(
    not supervision_available(), reason="multiprocessing unavailable"
)


def _instances(n=8):
    # Distinct instances so batch dedup cannot collapse items.
    return [Instance.parse(f"P(a{i}, b{i}, c{i})") for i in range(n)]


# -- module-scope task functions (must pickle by reference) -------------


def _echo_task(payload):
    value, limits, fault, attempt = payload
    trip(fault, attempt)
    return value * 2


def _deadline_probe_task(payload):
    """Hang on the first attempt; afterwards report the deadline received."""
    _value, limits, fault, attempt = payload
    trip(fault, attempt)
    return limits.deadline


def _sudden_death_task(payload):
    """Die without shipping a result on attempt 1 (a real worker crash)."""
    value, _limits, _fault, attempt = payload
    if attempt == 1:
        os._exit(1)
    return value


def _pid_task(payload):
    """Report which worker ran the item."""
    return os.getpid()


def _ambient_probe_task(payload):
    """Report, per kind of ambient state, whether the job started without it."""
    return tuple(
        state is None
        for state in (
            current_budget(), current_tracer(), current_fault_plan(), current_context()
        )
    )


# -- the idle table --------------------------------------------------------


def _key(grace):
    """The idle-table key of a batch on the default context."""
    return supervisor._lease_key(grace, multiprocessing.get_context())


def _parked(grace):
    """The worker processes of the idle pool under that key ([] if none)."""
    pool = supervisor._idle.get(_key(grace))
    return [slot.process for slot in pool.slots] if pool is not None else []


@pytest.fixture
def empty_idle_table():
    """Start and end the test with no idle pool, so its leases are its own."""
    supervisor._close_idle_pools()
    yield
    supervisor._close_idle_pools()


def _alive(pid):
    """Is *pid* a live process?  A zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _script(code):
    """Run *code* in a fresh interpreter that imports this library; its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: A script prelude: one supervised chase batch, checked against the
#: serial loop's answers.
BATCH_PRELUDE = """
import json, multiprocessing, os, sys
from repro import ExchangeEngine, Instance, Limits, SchemaMapping
M = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
ITEMS = [Instance.parse(f"P(a{i}, b{i}, c{i})") for i in range(4)]
SERIAL = [r.instance for r in ExchangeEngine().chase_many(M, ITEMS)]
def batch(jobs=2):
    results = ExchangeEngine().chase_many(
        M, ITEMS, jobs=jobs, limits=Limits(deadline=30, grace=5)
    )
    return [r.instance for r in results] == SERIAL
def workers():
    return sorted(p.pid for p in multiprocessing.active_children())
"""


class TestHangFaultPlan:
    def test_parse_hang_spec(self):
        plan = FaultPlan.parse("hang@3;hang@5=2.5;hang@7:2")
        assert plan.for_item(3).kind == "hang"
        assert plan.for_item(3).seconds == 0.0  # backstop applies at trip()
        assert plan.for_item(5).seconds == pytest.approx(2.5)
        assert plan.for_item(7).times == 2
        assert HANG_BACKSTOP > 0

    def test_hang_trip_is_bounded_and_attempt_scoped(self):
        fault = Fault(kind="hang", item=0, times=1, seconds=0.05)
        start = time.monotonic()
        trip(fault, attempt=1)
        assert 0.04 <= time.monotonic() - start < 2.0
        start = time.monotonic()
        trip(fault, attempt=2)  # past `times`: no hang at all
        assert time.monotonic() - start < 0.05


class TestRunBatchSupervised:
    def test_hung_worker_killed_exactly_once(self):
        limits = Limits(deadline=0.4, grace=0.3)
        payloads = [
            (i, limits, Fault("hang", 3, seconds=30.0) if i == 3 else None, 1)
            for i in range(8)
        ]
        start = time.monotonic()
        outcomes = run_batch_supervised(
            payloads, _echo_task, workers=4, grace=0.3
        )
        elapsed = time.monotonic() - start
        killed = outcomes[3]
        assert isinstance(killed.error, WorkerKilled)
        assert killed.kills == 1
        assert killed.error.diagnosis.resource == "killed"
        for i in (0, 1, 2, 4, 5, 6, 7):
            assert outcomes[i].ok and outcomes[i].value == i * 2
            assert outcomes[i].kills == 0
        # terminated within deadline + grace (+ scheduling slack), not
        # after the 30-second hang
        assert elapsed < 4.0

    def test_respawned_slot_finishes_remaining_items(self):
        # 6 items through 2 workers with the very first item hung: the
        # freed slot must keep draining the queue after the kill.
        limits = Limits(deadline=1.2, grace=0.3)
        payloads = [
            (i, limits, Fault("hang", 0, seconds=30.0) if i == 0 else None, 1)
            for i in range(6)
        ]
        outcomes = run_batch_supervised(
            payloads, _echo_task, workers=2, grace=0.3
        )
        assert isinstance(outcomes[0].error, WorkerKilled)
        assert all(outcomes[i].ok for i in range(1, 6))

    def test_retry_of_killed_item_gets_remaining_deadline(self):
        # The first attempt burns the whole deadline before the kill
        # lands, so the retry ships with the floored remainder (0.0) —
        # never a fresh full deadline.
        original = 0.5
        limits = Limits(deadline=original, grace=0.3)
        payloads = [(0, limits, Fault("hang", 0, times=1, seconds=30.0), 1)]
        outcomes = run_batch_supervised(
            payloads, _deadline_probe_task, workers=1, retries=1, grace=0.3
        )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert outcomes[0].kills == 1
        assert 0.0 <= outcomes[0].value < original

    def test_worker_death_without_result_is_retried(self):
        limits = Limits(deadline=2.0, grace=0.5)
        payloads = [(7, limits, None, 1)]
        outcomes = run_batch_supervised(
            payloads, _sudden_death_task, workers=1, retries=1, grace=0.5
        )
        assert outcomes[0].ok and outcomes[0].value == 7
        assert outcomes[0].attempts == 2
        assert outcomes[0].kills == 0  # it died by itself; no kill

    def test_empty_batch(self):
        assert run_batch_supervised([], _echo_task, grace=0.1) == []

    def test_unpicklable_payload_fails_without_a_respawn(self):
        pool = WorkerPool(_echo_task, workers=1, grace=0.3)
        try:
            bad = pool.submit(Job((lambda: None, None, None, 1)))
            assert bad.wait(10.0)
            assert bad.error is not None and not bad.killed
            assert bad.started is not None
            good = pool.submit(Job((21, None, None, 1)))
            assert good.wait(10.0)
            assert good.value == 42
            assert (pool.kills, pool.respawns) == (0, 0)
        finally:
            pool.close(10.0)

    def test_cooperative_pool_never_kills_a_silent_worker(self):
        # grace=None: no heartbeat cell, no cancel at the job's deadline,
        # no kill — a silent job past its deadline runs to its end.
        pool = WorkerPool(_echo_task, workers=1, grace=None)
        try:
            silent = (21, None, Fault("hang", 0, seconds=0.5), 1)
            job = pool.submit(Job(silent, deadline=0.1))
            assert job.wait(10.0)
            assert job.value == 42 and job.error is None and not job.killed
            assert (pool.kills, pool.respawns) == (0, 0)
            assert all(slot.cell is None for slot in pool.slots)
        finally:
            assert pool.close(10.0)


@pytest.mark.usefixtures("empty_idle_table")
class TestBatchStop:
    """How a supervised batch ends early, and what each item reports.

    One worker, a hung item 0 and two items queued behind it: a stop
    hard-kills the running item and fails the queued ones without ever
    starting them.  A stopped batch closes its pool, so it leaves no
    worker process behind; a clean batch parks its pool in the idle
    table, so the only worker it leaves is its lease's.
    """

    def _hung_first(self):
        return [
            (i, None, Fault("hang", 0, seconds=30.0) if i == 0 else None, 1)
            for i in range(3)
        ]

    def _run(self, payloads, stopped, **kw):
        before = set(multiprocessing.active_children())
        outcomes = run_batch_supervised(payloads, _echo_task, workers=1, **kw)
        left = set(multiprocessing.active_children()) - before
        if stopped:
            assert not left
            assert _key(kw.get("grace")) not in supervisor._idle
        else:
            assert left <= set(_parked(kw.get("grace")))
        return outcomes

    def test_batch_deadline_kills_running_and_fails_queued(self):
        outcomes = self._run(
            self._hung_first(), stopped=True, deadline=0.5, grace=0.3
        )
        assert isinstance(outcomes[0].error, WorkerKilled)
        assert outcomes[0].kills == 1
        for outcome in outcomes[1:]:
            assert isinstance(outcome.error, BudgetExhausted)
            diagnosis = outcome.error.diagnosis
            assert diagnosis.resource == "deadline"
            assert diagnosis.where == "engine.batch"
            assert outcome.attempts == 1
            assert outcome.elapsed == 0.0
            assert outcome.kills == 0

    def test_ambient_cancel_cancels_every_item(self):
        token = CancelToken()
        timer = threading.Timer(0.4, token.cancel)
        timer.daemon = True
        with cancel_scope(token):
            timer.start()
            try:
                outcomes = self._run(self._hung_first(), stopped=True, grace=0.3)
            finally:
                timer.cancel()
        assert all(isinstance(o.error, Cancelled) for o in outcomes)
        assert [o.kills for o in outcomes] == [1, 0, 0]

    def test_elapsed_runs_from_dispatch_not_submission(self):
        payloads = [(i, None, Fault("slow", i, seconds=0.2), 1) for i in range(3)]
        outcomes = self._run(payloads, stopped=False, grace=0.3)
        assert all(o.ok for o in outcomes)
        # Queued behind one worker, items finish at 0.2 / 0.4 / 0.6 s;
        # each one's own cost is still about 0.2 s.
        for outcome in outcomes:
            assert 0.2 <= outcome.elapsed < 0.4


@pytest.mark.usefixtures("empty_idle_table")
class TestLease:
    """A clean batch parks its pool in the idle table, and the next
    batch of the same supervision and context leases it: no fork, no
    reap, and jobs bring their own task function."""

    def _batch(self, fn, workers=2, grace=0.5):
        payloads = [(i, None, None, 1) for i in range(4)]
        return run_batch_supervised(payloads, fn, workers=workers, grace=grace)

    def test_second_clean_batch_starts_no_process(self):
        assert [o.value for o in self._batch(_echo_task)] == [0, 2, 4, 6]
        children = set(multiprocessing.active_children())
        parked = [p.pid for p in _parked(0.5)]
        assert len(parked) == 2 and set(parked) <= {p.pid for p in children}
        # Another task on the same workers: each job carries its function.
        outcomes = self._batch(_pid_task)
        assert set(multiprocessing.active_children()) == children
        assert [p.pid for p in _parked(0.5)] == parked
        assert {o.value for o in outcomes} <= set(parked)

    def test_pool_that_killed_and_respawned_goes_back_clean(self):
        payloads = [
            (i, Limits(deadline=0.3), Fault("hang", 0, seconds=30.0) if i == 0 else None, 1)
            for i in range(3)
        ]
        outcomes = run_batch_supervised(payloads, _echo_task, workers=1, grace=0.3)
        assert isinstance(outcomes[0].error, WorkerKilled)
        assert [o.value for o in outcomes[1:]] == [2, 4]
        (worker,) = _parked(0.3)  # the respawned worker, parked
        children = set(multiprocessing.active_children())
        again = run_batch_supervised([(5, None, None, 1)], _pid_task, workers=1, grace=0.3)
        assert again[0].value == worker.pid
        assert set(multiprocessing.active_children()) == children

    def test_idle_workers_leave_after_the_linger(self, monkeypatch):
        monkeypatch.setattr(supervisor, "IDLE_LINGER", 0.3)  # read as a pool starts
        self._batch(_echo_task)
        workers = _parked(0.5)
        start = time.monotonic()
        while any(w.is_alive() for w in workers) and time.monotonic() - start < 5:
            time.sleep(0.02)
        assert time.monotonic() - start < 0.3 + 2.0
        assert not any(w.is_alive() for w in workers)
        # The next lease respawns them.
        outcomes = self._batch(_pid_task)
        fresh = {p.pid for p in _parked(0.5)}
        assert fresh.isdisjoint(w.pid for w in workers)
        assert {o.value for o in outcomes} <= fresh

    def test_batches_across_linger_exits_keep_their_answers(self, monkeypatch):
        # A 3 ms linger and gaps of 0 to 6 ms between batches: workers
        # keep leaving, some as a batch sends them a job, and every job
        # still runs once, on a live or a respawned worker.
        monkeypatch.setattr(supervisor, "IDLE_LINGER", 0.003)
        for gap in range(60):
            time.sleep(gap % 4 * 0.002)
            outcomes = self._batch(_echo_task)
            assert [(o.value, o.error) for o in outcomes] == [
                (0, None), (2, None), (4, None), (6, None)
            ]
        assert supervisor._idle[_key(0.5)].respawns > 0

    def test_send_that_meets_a_goodbye_is_resent(self, monkeypatch):
        # Workers that left on their linger but still look alive, as one
        # does while it exits: the send fails on a closed pipe that holds
        # the goodbye, and the job runs on the respawned worker.
        monkeypatch.setattr(supervisor, "IDLE_LINGER", 0.1)
        self._batch(_echo_task)
        gone = _parked(0.5)
        for process in gone:
            process.join(5)
        with monkeypatch.context() as patch:
            patch.setattr(type(gone[0]), "is_alive", lambda process: True)
            outcomes = self._batch(_pid_task)
        fresh = {p.pid for p in _parked(0.5)}
        assert fresh.isdisjoint(p.pid for p in gone)
        assert all(o.ok for o in outcomes)
        assert {o.value for o in outcomes} <= fresh

    def test_batches_of_mixed_sizes_keep_at_most_jobs_workers(self):
        # One caller at jobs=3, batches of 1 to 6 unique items: each runs
        # on min(3, items) workers of the one lease, which grows to the
        # largest batch and leaves the rest idle for a smaller one.
        before = set(multiprocessing.active_children())
        limits = Limits(deadline=30, grace=5)
        started = []
        for n in (1, 2, 3, 2, 1, 6, 3):
            items = _instances(n)
            serial = [r.instance for r in ExchangeEngine().chase_many(MAPPING, items)]
            results = ExchangeEngine().chase_many(MAPPING, items, jobs=3, limits=limits)
            assert [r.instance for r in results] == serial
            started.append({p.pid for p in multiprocessing.active_children()} - {
                p.pid for p in before
            })
            assert len(started[-1]) <= 3
        # Grown to three by the third batch, the lease forks nothing after.
        assert [len(pids) for pids in started] == [1, 2, 3, 3, 3, 3, 3]
        assert all(pids == started[2] for pids in started[2:])

    def test_concurrent_batches_keep_one_idle_pool_per_key(self):
        serial = [r.instance for r in ExchangeEngine().chase_many(MAPPING, _instances(4))]
        answers = []

        def run():
            for _ in range(3):
                results = ExchangeEngine().chase_many(
                    MAPPING, _instances(4), jobs=2, limits=Limits(deadline=30, grace=5)
                )
                answers.append([r.instance for r in results])

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert answers == [serial] * 6
        # The pool that found its key taken was closed: every live child
        # is a parked worker, and there are at most jobs of them.
        parked = {
            slot.process.pid
            for pool in supervisor._idle.values()
            for slot in pool.slots
            if slot.process.is_alive()
        }
        assert {p.pid for p in multiprocessing.active_children()} == parked
        assert len(supervisor._idle) == 1 and len(parked) <= 2

    def test_forked_child_leaves_the_parents_lease_alone(self):
        # The child leases nothing of its parent's, runs its own batch,
        # and exits normally (atexit handlers run); the parent's workers
        # serve its next batch.
        out = _script(BATCH_PRELUDE + """
ok = batch()
before = workers()
child = os.fork()
if child == 0:
    sys.exit(0 if batch() else 1)
_, status = os.waitpid(child, 0)
ok = batch() and ok
print(json.dumps([ok, os.waitstatus_to_exitcode(status), before == workers()]))
""")
        assert json.loads(out) == [True, 0, True]

    def test_interpreter_exit_leaves_no_worker(self):
        out = _script(BATCH_PRELUDE + """
assert batch()
print(json.dumps(workers()))
""")
        pids = json.loads(out)
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    def test_consecutive_batches_never_fork_from_a_threaded_process(self):
        # CPython 3.12 warns (a DeprecationWarning) when a process forks
        # while it runs more than one thread.  A pool forks its workers
        # before it starts its manager threads, and an idle lease holds
        # no thread, so batches at jobs 2, 2, 3, 2, 1 fork 2 workers,
        # then one more, and raise no warning; none outlives the script.
        out = _script(BATCH_PRELUDE + """
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", DeprecationWarning)
    report = [[batch(jobs), workers()] for jobs in (2, 2, 3, 2, 1)]
print(json.dumps([report, [str(w.message) for w in caught]]))
""")
        report, caught = json.loads(out)
        assert caught == []
        assert all(ok for ok, _ in report)
        pids = [pids for _, pids in report]
        assert [len(batch) for batch in pids] == [2, 2, 3, 3, 3]
        assert pids[1] == pids[0] and set(pids[0]) < set(pids[2])
        assert pids[4] == pids[3] == pids[2]
        assert not any(_alive(pid) for pid in pids[-1])


@pytest.mark.usefixtures("empty_idle_table")
class TestLeasedJobState:
    """A worker runs each job under the job's own state only."""

    def test_job_starts_without_the_forking_threads_ambient_state(self, monkeypatch):
        # The table starts empty, so the lease forks its worker in here.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with budget_scope(Limits(max_rounds=3)), tracing(), context_scope(
            mint_context()
        ), inject_faults(FaultPlan.parse("crash@9")):
            first = run_batch_supervised(
                [(None, None, 1)], _ambient_probe_task, workers=1, grace=None
            )
            again = run_batch_supervised(
                [(None, None, 1)], _ambient_probe_task, workers=1, grace=None
            )
        assert first[0].value == again[0].value == (True, True, True, True)

    def test_pooled_items_each_get_the_ambient_budgets_cut(self, monkeypatch):
        # Three 10-edge chains under max_rounds=2: a chain chased for two
        # rounds has 34 facts, one cut before its first round keeps 10.
        # The serial loop shares the ambient budget, so the first item
        # spends it; on a pool each item gets its own copy of the limits,
        # whichever worker runs it and whatever it ran before.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool needs > 1
        closure = SchemaMapping.from_text("E(x, y) & E(y, z) -> E(x, z)")

        def chain(tag):
            return Instance.parse(
                ", ".join(f"E({tag}{i}, {tag}{i + 1})" for i in range(10))
            )

        engine = ExchangeEngine(process_threshold=1)
        engine.chase_many(closure, [chain("v"), chain("w")], jobs=2)
        parked = [p.pid for p in _parked(None)]
        assert len(parked) == 2
        items = [chain(tag) for tag in "abc"]
        with budget_scope(Limits(max_rounds=2)):
            pooled = ExchangeEngine(process_threshold=1).chase_many(
                closure, items, jobs=2
            )
            serial = ExchangeEngine().chase_many(closure, items, jobs=2)
        assert [p.pid for p in _parked(None)] == parked  # a reused lease
        assert [len(r.instance) for r in pooled] == [34, 34, 34]
        assert [len(r.instance) for r in serial] == [34, 10, 10]

    def test_pooled_batch_ends_with_the_ambient_deadline(self, monkeypatch):
        # Six chases that never terminate, two at a time, under a 0.5 s
        # ambient deadline.  The deadline is an instant: it ends the
        # running items and the batch, and the items still queued then
        # fail as deadline-exhausted, as under a batch's own deadline
        # (the batch notices within a tick, so a worker may start one
        # more item first, which the stop cancels).  Restarting the
        # deadline per item would take three rounds of 0.5 s.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool needs > 1
        items = [Instance.parse(f"A(a{i})") for i in range(6)]
        engine = ExchangeEngine(process_threshold=1, on_error="skip")
        start = time.monotonic()
        with budget_scope(Limits(deadline=0.5)):
            results = engine.chase_many(RECURSIVE, items, jobs=2)
        assert time.monotonic() - start < 0.5 + 0.9
        errors = [r.error for r in results if isinstance(r, BatchItemError)]
        assert 2 <= len(errors) <= 4
        for error in errors:
            assert isinstance(error, BudgetExhausted)
            assert error.diagnosis.resource == "deadline"
            assert error.diagnosis.where == "engine.batch"
        for result in results:
            if not isinstance(result, BatchItemError):
                assert result.exhausted.resource in ("deadline", "cancelled")


class TestEngineSupervision:
    def _engine(self, **kw):
        return ExchangeEngine(on_error="skip", **kw)

    def test_killed_item_is_typed_batch_error(self):
        engine = self._engine()
        with inject_faults(FaultPlan.parse("hang@3=30")):
            results = engine.chase_many(
                MAPPING,
                _instances(8),
                jobs=4,
                limits=Limits(deadline=0.5, grace=0.4),
            )
        killed = results[3]
        assert isinstance(killed, BatchItemError)
        assert killed.kind == "killed"
        assert isinstance(killed.error, WorkerKilled)
        assert killed.attempts == 1
        survivors = [r for i, r in enumerate(results) if i != 3]
        assert all(not isinstance(r, BatchItemError) for r in survivors)
        stats = engine.stats()
        assert stats["chase"]["kills"] == 1
        assert stats["chase"]["errors"] == 1
        assert stats["totals"]["kills"] == 1
        assert "kills" in engine.render_stats()

    def test_killed_item_never_cached(self):
        engine = self._engine()
        instances = _instances(6)
        with inject_faults(FaultPlan.parse("hang@2=30")):
            first = engine.chase_many(
                MAPPING, instances, jobs=3,
                limits=Limits(deadline=0.5, grace=0.4),
            )
        assert isinstance(first[2], BatchItemError)
        # Second run, no fault: the killed item recomputes (cache miss),
        # its former neighbors come back as hits.
        second = engine.chase_many(
            MAPPING, instances, jobs=3,
            limits=Limits(deadline=2.0, grace=0.5),
        )
        assert all(not isinstance(r, BatchItemError) for r in second)
        assert second[2].cached is False
        assert second[0].cached is True

    def test_cooperative_worker_is_never_killed(self):
        # A worker that checkpoints (and so heartbeats) earns its grace:
        # a diverging chase under a deadline stops cooperatively with a
        # partial result — zero kills.
        engine = self._engine()
        results = engine.chase_many(
            RECURSIVE,
            [Instance.parse("A(a)"), Instance.parse("A(b)")],
            jobs=2,
            limits=Limits(deadline=0.3, grace=5.0, max_rounds=10_000_000),
        )
        assert all(not isinstance(r, BatchItemError) for r in results)
        assert all(r.exhausted is not None for r in results)
        assert engine.stats()["chase"]["kills"] == 0

    def test_retried_kill_recovers_and_counts(self):
        # hang only the first attempt: the retry (fresh worker, remaining
        # deadline) succeeds, and the kill still shows up in stats.
        engine = self._engine(retries=1)
        with inject_faults(FaultPlan.parse("hang@1:1")):
            results = engine.chase_many(
                MAPPING,
                _instances(4),
                jobs=2,
                limits=Limits(deadline=0.5, grace=0.4),
            )
        assert all(not isinstance(r, BatchItemError) for r in results)
        assert engine.stats()["chase"]["kills"] == 1
        assert engine.stats()["chase"]["errors"] == 0

    @pytest.mark.parametrize(
        "engine_kw, limits",
        [({}, Limits(deadline=5, grace=1)), ({"process_threshold": 1}, None)],
        ids=["supervised", "process-pool"],
    )
    def test_sql_backed_items_match_memory_results(self, engine_kw, limits):
        # A SQL store's connection cannot cross the process boundary:
        # its instances travel to the workers as in-memory copies.
        def sql(instance):
            store = open_store("sqlite")
            store.add_all(instance.facts)
            return Instance(store=store)

        def run(many, mapping, items):
            engine = self._engine(**engine_kw)
            return getattr(engine, many)(mapping, items, jobs=2, limits=limits)

        sources = _instances(4)
        expected = run("chase_many", MAPPING, sources)
        results = run("chase_many", MAPPING, [sql(i) for i in sources])
        assert [r.instance for r in results] == [r.instance for r in expected]
        recovery = SchemaMapping.from_text("Q(x, y) -> P(x, y) | S(x)")
        targets = [Instance.parse(f"Q(a{i}, b{i}), Q(a{i}, c{i})") for i in range(3)]
        expected = run("reverse_many", recovery, targets)
        results = run("reverse_many", recovery, [sql(t) for t in targets])
        assert [r.candidates for r in results] == [r.candidates for r in expected]

    def test_reverse_many_supervised_kill(self):
        reverse = SchemaMapping.from_text("Q(x, y) -> P(x, y)")
        targets = [Instance.parse(f"Q(a{i}, b{i})") for i in range(4)]
        engine = self._engine()
        with inject_faults(FaultPlan.parse("hang@1=30")):
            results = engine.reverse_many(
                reverse, targets, jobs=2,
                limits=Limits(deadline=0.5, grace=0.4),
            )
        killed = results[1]
        assert isinstance(killed, BatchItemError)
        assert killed.op == "reverse"
        assert killed.kind == "killed"
        assert engine.stats()["chase"]["kills"] == 1  # routed via chase_many

    def test_sink_and_registry_record_the_kill(self, tmp_path):
        ops = tmp_path / "ops.jsonl"
        db = tmp_path / "runs.db"
        engine = ExchangeEngine(
            on_error="skip",
            sink=JsonlSink(str(ops)),
            registry=RunRegistry(str(db)),
        )
        with inject_faults(FaultPlan.parse("hang@1=30")):
            engine.chase_many(
                MAPPING, _instances(3), jobs=3,
                limits=Limits(deadline=0.5, grace=0.4),
            )
        engine.close_telemetry()
        records = [json.loads(line) for line in ops.read_text().splitlines()]
        killed = [r for r in records if r["error"] == "WorkerKilled"]
        assert len(killed) == 1
        assert killed[0]["kills"] == 1
        rows = RunRegistry(str(db)).list_runs(op="chase")
        assert any(row.error == "WorkerKilled" for row in rows)

    def test_tracer_receives_worker_killed_event(self):
        engine = self._engine()
        with tracing() as tracer:
            with inject_faults(FaultPlan.parse("hang@1=30")):
                engine.chase_many(
                    MAPPING, _instances(3), jobs=3,
                    limits=Limits(deadline=0.5, grace=0.4),
                )
        events = [e for e in tracer.events if e.kind == "worker_killed"]
        assert len(events) == 1
        assert events[0].op == "chase"
        assert events[0].batch_index == 1
        assert events[0].kills == 1
        assert events[0].final is True


class TestRunnerSelection:
    """``_run_batch`` picks the serial loop, a cooperative pool, or a
    supervised pool; all three return the serial answers."""

    RECOVERY = SchemaMapping.from_text("Q(x, y) -> P(x, y) | S(x)")

    @pytest.fixture
    def graces(self, monkeypatch):
        """The ``grace`` of every pool batch the engine starts."""
        import repro.engine.engine as engine_module

        recorded = []
        real = engine_module.run_batch_supervised

        def recorder(payloads, fn, **kwargs):
            recorded.append(kwargs["grace"])
            return real(payloads, fn, **kwargs)

        monkeypatch.setattr(engine_module, "run_batch_supervised", recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool needs > 1
        return recorded

    def _targets(self):
        return [Instance.parse(f"Q(a{i}, b{i}), Q(a{i}, c{i})") for i in range(4)]

    @pytest.mark.parametrize(
        "engine_kw, jobs, limits, pools",
        [
            ({}, 4, None, []),
            ({"process_threshold": 1}, 2, None, [None]),
            ({}, 2, Limits(deadline=5, grace=0.75), [0.75]),
        ],
        ids=["serial-loop", "cooperative-pool", "supervised-pool"],
    )
    def test_runner_choice_keeps_the_serial_answers(
        self, graces, engine_kw, jobs, limits, pools
    ):
        serial = ExchangeEngine()
        expected_chase = serial.chase_many(MAPPING, _instances(4))
        expected_reverse = serial.reverse_many(self.RECOVERY, self._targets())
        assert graces == []
        engine = ExchangeEngine(**engine_kw)
        chased = engine.chase_many(MAPPING, _instances(4), jobs=jobs, limits=limits)
        reversed_ = engine.reverse_many(
            self.RECOVERY, self._targets(), jobs=jobs, limits=limits
        )
        assert graces == pools * 2  # one batch each for chase and reverse
        assert [r.instance for r in chased] == [r.instance for r in expected_chase]
        assert [r.candidates for r in reversed_] == [
            r.candidates for r in expected_reverse
        ]

    def test_cooperative_pool_deadline_never_kills(self, graces):
        # Four 1 s items on two workers, batch deadline 0.3 s, no grace:
        # the queued items fail deadline-exhausted, the running ones get
        # the cooperative cancel and come back partial, nobody is killed.
        engine = ExchangeEngine(process_threshold=1, on_error="skip")
        slow = FaultPlan.parse(";".join(f"slow@{i}=1" for i in range(4)))
        results = engine.chase_many(
            MAPPING, _instances(4), jobs=2, limits=Limits(deadline=0.3), faults=slow
        )
        assert graces == [None]
        late = [r for r in results if isinstance(r, BatchItemError)]
        assert late and all(r.diagnosis.resource == "deadline" for r in late)
        assert all(
            r.exhausted is not None
            for r in results
            if not isinstance(r, BatchItemError)
        )
        assert engine.stats()["chase"]["kills"] == 0


@pytest.mark.skipif(
    not hasattr(signal, "raise_signal"), reason="needs signal.raise_signal"
)
class TestSigintDuringEscalation:
    def test_exits_130_with_partial_dump(self, capsys, tmp_path, monkeypatch):
        # SIGINT lands while the hung worker is still being escalated:
        # finished items must still print, the straggler is killed, and
        # the exit code is the conventional 130.
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "hang@1=30")
        timer = threading.Timer(
            0.7, lambda: signal.raise_signal(signal.SIGINT)
        )
        timer.daemon = True
        timer.start()
        try:
            code = main([
                "chase",
                "--mapping", "P(x, y, z) -> Q(x, y) & R(y, z)",
                "--instance", "P(a0, b0, c0)",
                "--instance", "P(a1, b1, c1)",
                "--instance", "P(a2, b2, c2)",
                "--instance", "P(a3, b3, c3)",
                "--jobs", "4",
                "--deadline", "5",
                "--grace", "0.5",
                "--on-error", "skip",
                "--registry", str(tmp_path / "sigint.db"),
            ])
        finally:
            timer.cancel()
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupt: stopping at the next checkpoint" in captured.err
        # the three healthy items finished long before the SIGINT
        assert "Q(a0, b0)" in captured.out
        assert "Q(a2, b2)" in captured.out
