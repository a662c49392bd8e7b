"""The worker pool: the only code in the library that starts processes.

:class:`WorkerPool` runs ``fn(payload)`` jobs on N persistent worker
processes.  Engine batches lease one (:func:`run_batch_supervised`)
and ``repro serve`` keeps its own
(:class:`repro.service.pool.WarmPool`); batches that do not need one
run on the serial loop (:func:`repro.engine.parallel.run_batch_isolated`).

A pool with a ``grace`` period is **supervised**.  Supervision is the
escalation path for a worker that neither honors its budget
checkpoints nor crashes — a pathological chase wedged inside hom
search, a deadlocked native call — and would otherwise hang the whole
batch forever.  It is modeled on the supervision patterns of
production serving stacks (bound each scenario's runtime; kill and
respawn stragglers instead of awaiting them).  A pool with
``grace=None`` is **cooperative**: its workers do not heartbeat, it
sends no per-job cancel, and it never kills a worker, so jobs stop
through the deadlines in their own budgets, as on the serial loop.

* The pool keeps **N persistent worker processes**, each holding a
  shared heartbeat cell; the ambient progress-reporter hook inside the
  worker turns each cooperative :class:`repro.limits.Budget` checkpoint
  into a heartbeat (live budget gauges), so the supervisor sees not
  just *that* the worker is alive but *where* it is.  Jobs stream to
  the workers over pipes from one shared queue.
* One manager thread per slot feeds and watches its worker.  A job
  past its cooperative deadline first receives a **cooperative cancel**
  (a shared lock-free byte that the job's ambient
  :class:`repro.limits.CancelToken` reads at its next checkpoint).
* A worker whose heartbeat then stays stale for more than ``grace``
  seconds is **terminated** (``SIGTERM``, escalating to ``SIGKILL``)
  and its slot **respawned in place**; the job fails as a
  :class:`repro.errors.WorkerKilled`.  A worker that exits on its own
  without replying (a crash, an OOM kill) is not a kill: its job fails
  with a transient ``OSError`` and the slot respawns.
* The other slots keep running throughout: each manager supervises
  only its own worker, and the shared queue keeps feeding the healthy
  ones.

Heartbeats extend a worker's life: the hard-kill instant for a job is
``max(deadline passed, last heartbeat) + grace``, so a worker that is
still cooperating (checkpointing while it unwinds a partial result) is
given time, while one that has gone silent is killed within
``deadline + grace`` of its start — the bound the CI smoke test
asserts.

A pool batch adds the batch rules on top: a transiently failed or
killed item is re-queued when retries remain (resuming with its
remaining deadline via :func:`repro.engine.parallel._rebudgeted`), and
the batch deadline and SIGINT stop the batch.  The ambient
:class:`repro.limits.CancelToken` is polled every supervisor tick; on
cancellation every running worker gets the cooperative cancel
immediately, a supervised pool kills stragglers after one grace period,
finished results are kept, and unfinished items resolve as
``Cancelled`` — so Ctrl-C during a kill escalation still produces the
partial dump and exit code 130.

Killed items are never cached (they produce no result) and never
poison telemetry: the engine records one error ``OpRecord`` per killed
item and counts kills in ``stats()``.

Batches **lease** their pools from a process-wide idle table that
holds at most one parked pool per (supervised or cooperative,
``multiprocessing`` context).  Starting a pool, a fresh worker's first
job and closing the pool cost more than a batch of small items
computes, so a batch that ends clean (every job resolved, no stop)
parks its pool instead of closing it: the manager threads exit and
the workers stay, so an idle lease holds no thread and the next batch
forks nothing.  A batch runs managers on the first ``min(workers,
items)`` slots of its lease only, so it never runs more jobs at once
than it asked for; a lease with fewer slots grows, and slots a smaller
batch leaves unmanaged idle until their linger ends.  The workers a
process keeps are thus at most the largest batch it ran.  A stopped
batch closes its pool as before.  Three rules make a reused worker as
good as a fresh one:

* a leased job carries its task function (pickled by reference), so
  chase, reverse, traced and untraced batches share one set of
  workers;
* a worker starts every job with no ambient tracer, budget, trace
  context or fault plan, so nothing a batch (or the forking parent)
  left in it reaches the next job;
* an idle leased worker exits by itself after :data:`IDLE_LINGER`
  seconds, saying goodbye first: a job sent as it left was never read,
  so the manager respawns the slot and resends it.  A lease respawns
  lingered-out workers before its manager threads start.

A forked child forgets its parent's idle pools without touching them;
at interpreter exit ``multiprocessing`` terminates the idle workers
with every other daemonic child.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import Cancelled, WorkerKilled
from ..limits import Exhausted, Limits
from ..limits.budget import (
    CancelToken,
    current_cancel_token,
    set_budget,
    set_cancel_token,
)
from ..limits.faults import set_fault_plan
from ..obs.context import set_context
from ..obs.progress import set_reporter
from ..obs.tracer import set_tracer
from .parallel import ItemOutcome, _deadline_exhausted, _rebudgeted, is_transient

#: How often a supervisor wakes to poll pipes, heartbeats, and the
#: ambient cancel token (seconds).  Kills therefore land within one
#: tick of their due time — negligible against any realistic grace.
SUPERVISOR_TICK = 0.05

#: How long an idle worker of a leased pool waits for its next job
#: before it exits by itself (seconds).  Back-to-back batches never
#: see it; a process that stops running batches gets its memory back.
IDLE_LINGER = 2.0

#: Gauge slots in the shared heartbeat cell, in order.
_GAUGES = ("rounds", "steps", "facts", "nulls", "branches")


class HeartbeatCell:
    """One worker's shared-memory heartbeat: a timestamp plus gauges.

    The worker side writes (monotonic timestamp, rounds, steps, facts,
    nulls, branches) on every budget checkpoint; the supervisor side
    reads them.  The cell is a **lock-free** ``RawArray``, deliberately:
    any cross-process lock here can be orphaned — a worker terminated
    (or exiting) mid-critical-section leaves the lock held forever and
    the supervisor's next read deadlocks.  Aligned 8-byte loads and
    stores are atomic on every platform CPython runs on, so the worst
    a lockless reader can see is a one-tick-stale gauge, never a hang.
    Created from the same multiprocessing context as the worker process
    so it travels by inheritance (fork) or pickling (spawn).
    """

    def __init__(self, ctx) -> None:
        """A fresh cell in *ctx*'s shared memory, beating 'now'."""
        self._cells = ctx.RawArray("d", 1 + len(_GAUGES))
        self._cells[0] = time.monotonic()

    def heartbeat(
        self,
        where: str = "",
        rounds: Optional[int] = None,
        steps: Optional[int] = None,
        facts: Optional[int] = None,
        nulls: Optional[int] = None,
        branches: Optional[int] = None,
    ) -> None:
        """Record one heartbeat (worker side).

        This is the :class:`repro.obs.ProgressReporter` duck-type hook:
        the worker installs the cell as its ambient reporter, and
        budgets adopt the ambient reporter at construction
        (:func:`repro.obs.progress.current_reporter`), so every
        cooperative checkpoint the chase/hom kernels already execute
        pumps the cell — no kernel changes needed for supervision.
        Gauges land before the timestamp so a reader that observes a
        fresh beat never pairs it with older gauges.
        """
        gauges = (rounds, steps, facts, nulls, branches)
        for slot, value in enumerate(gauges, start=1):
            if value is not None:
                self._cells[slot] = float(value)
        self._cells[0] = time.monotonic()

    @property
    def last_beat(self) -> float:
        """Monotonic timestamp of the latest heartbeat (supervisor side)."""
        return self._cells[0]

    def gauges(self) -> Dict[str, int]:
        """The latest budget gauges shipped by the worker."""
        return {
            name: int(self._cells[slot])
            for slot, name in enumerate(_GAUGES, start=1)
        }


class _FlagToken(CancelToken):
    """A job's cancel token, tripped by the supervisor's shared cancel byte.

    The supervisor's cooperative-cancel signal is a lock-free shared
    byte (``RawValue``), not a ``multiprocessing.Event``: an Event's
    internal lock can be orphaned by a worker that exits while waiting
    on it — after which the supervisor's ``set()`` blocks forever.  A
    raw byte has no lock to orphan.  Budgets poll ``cancelled`` at each
    checkpoint, so that is where the token reads the byte; every job
    gets a fresh token, and the supervisor clears the byte before it
    ships the next job, so a finished job's cancel never leaks into it.
    """

    __slots__ = ("_flag",)

    def __init__(self, flag) -> None:
        super().__init__()
        self._flag = flag

    @property
    def cancelled(self) -> bool:
        if self._flag.value and self.reason is None:
            self.cancel("supervisor")
        return super().cancelled


#: A worker's last message when it leaves on its linger.
_GOODBYE = ("goodbye", None)


def _worker_main(
    fn, conn, cell: Optional[HeartbeatCell], cancel_flag, linger: Optional[float]
) -> None:
    """Entry point of one pool worker process: serve jobs until told to stop.

    Installs the heartbeat cell as this process's ambient progress
    reporter (``None`` on a cooperative pool, which watches no
    heartbeat), then answers each ``(task, payload)`` message from the
    parent with exactly one ``(status, value)`` message: ``("ok",
    task(payload))`` — *task* is the job's own function, or the
    resident *fn* when it is ``None`` — or ``("error", exception)``,
    with unpicklable values degraded to a picklable error so the job
    fails loudly, not silently.  Every job starts with no ambient
    tracer, budget, trace context or fault plan: the payload scopes its
    own, and a reused worker must not run one batch's job under
    another's (or under what the forking thread had).  A ``None``
    message (or a closed pipe) ends the worker, and so do *linger*
    seconds without a message, after a :data:`_GOODBYE` that tells the
    parent any job it sent meanwhile went unread.  Runs at module scope
    so it pickles by reference under spawn-based contexts.
    """
    set_reporter(cell)
    while True:
        try:
            if linger is not None and not conn.poll(linger):
                conn.send(_GOODBYE)
                break
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task, payload = message
        set_tracer(None)
        set_budget(None)
        set_context(None)
        set_fault_plan(None)
        set_cancel_token(_FlagToken(cancel_flag))
        if cell is not None:
            # Gauges restart per job: a kill must not report the last job's.
            cell.heartbeat(rounds=0, steps=0, facts=0, nulls=0, branches=0)
        try:
            reply = ("ok", (task or fn)(payload))
        except BaseException as error:  # ship the failure, whatever it is
            reply = ("error", error)
        try:
            conn.send(reply)
        except Exception:
            try:
                conn.send(
                    ("error", RuntimeError(f"worker result unpicklable: {reply[1]!r}"))
                )
            except Exception:  # pragma: no cover - parent is gone
                break
    conn.close()


def _terminate(process, patience: float = 0.5) -> None:
    """SIGTERM the worker, escalating to SIGKILL if it lingers."""
    process.terminate()
    process.join(patience)
    if process.is_alive():  # pragma: no cover - SIGTERM blocked
        process.kill()
        process.join(patience)


class Job:
    """One payload submitted to a :class:`WorkerPool`, and its outcome.

    ``deadline`` (seconds from dispatch, or ``None``) is when the job
    gets its cooperative cancel on a supervised pool; ``item`` tags the
    :class:`~repro.errors.WorkerKilled` a kill produces; ``fn`` is the
    task that runs the payload, pickled by reference with it (``None``
    runs the pool's resident task).  The pool sets
    ``started`` (monotonic time of dispatch to a worker; ``None`` for a
    job that never ran), ``finished`` (for a killed job, the kill
    instant, before the terminate and the respawn), ``killed``, and
    exactly one of ``value``/``error``, then calls *on_done* with the
    job before :meth:`wait` returns.
    """

    #: The ``where`` of the diagnosis a hard kill reports.
    kill_site = "engine.supervisor"

    def __init__(
        self,
        payload: Any,
        deadline: Optional[float] = None,
        item: int = -1,
        on_done: Optional[Callable[["Job"], None]] = None,
        fn: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """A pending job for *payload*."""
        self.payload = payload
        self.fn = fn
        self.deadline = deadline
        self.item = item
        self.on_done = on_done
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.killed = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job resolves; ``False`` if *timeout* elapsed."""
        return self._done.wait(timeout)

    def _resolve(
        self,
        value: Any = None,
        error: Optional[BaseException] = None,
        finished: Optional[float] = None,
    ) -> None:
        self.value = value
        self.error = error
        self.finished = time.monotonic() if finished is None else finished
        if self.on_done is not None:
            self.on_done(self)
        self._done.set()


@dataclass
class _Slot:
    """One worker slot: the live process and its supervision channels."""

    index: int
    process: Any = None
    conn: Any = None
    cell: Optional[HeartbeatCell] = None
    cancel_flag: Any = None
    tasks: int = 0
    job: Optional[Job] = None
    soft_at: Optional[float] = None  # cooperative-cancel instant


#: The queue sentinel that tells a slot manager to exit its worker.
_EXIT = None
#: The queue sentinel that tells a slot manager to leave its worker be.
_PARK = object()


class WorkerPool:
    """N persistent supervised workers running ``fn(payload)`` jobs.

    Parameters
    ----------
    fn:
        The workers' resident task: a module-level function, or a
        picklable callable object (pickles by reference under spawn)
        that may keep state in the worker across jobs.  ``None`` when
        every :class:`Job` carries its own ``fn``.
    workers:
        Worker process count (≥ 1), started at construction.
    grace:
        Heartbeat staleness past a job's cooperative deadline that
        triggers the kill, seconds; ``None`` for a cooperative pool,
        whose workers do not heartbeat and which sends no per-job
        cancel and never kills.
    context:
        A ``multiprocessing`` context; default
        :func:`multiprocessing.get_context`.
    linger:
        Seconds an idle worker waits for a job before it exits by
        itself; ``None`` (the default) waits forever.  The slot's
        manager respawns a worker that left the next time it has a job.
    """

    def __init__(
        self,
        fn: Optional[Callable[[Any], Any]],
        workers: int,
        grace: Optional[float],
        context=None,
        linger: Optional[float] = None,
    ) -> None:
        """Start the workers and one manager thread per slot."""
        self.fn = fn
        self.grace = grace
        self.linger = linger
        self.ctx = context if context is not None else multiprocessing.get_context()
        self.kills = 0
        self.respawns = 0
        self._lock = threading.Lock()
        self._stop_error: Optional[BaseException] = None
        self._closed = False
        self._queue: "queue.Queue" = queue.Queue()
        #: The worker slots, in order (read-only outside the pool).
        self.slots = [_Slot(index=i) for i in range(workers)]
        for slot in self.slots:
            self._spawn(slot)
        self._managers: List[threading.Thread] = []
        self._start_managers()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start *slot*'s worker: fresh process, pipe, cell, flag."""
        # A cooperative pool never kills, so it watches no heartbeat.
        slot.cell = HeartbeatCell(self.ctx) if self.grace is not None else None
        # Lock-free cancel signal — see _FlagToken for why not Event.
        slot.cancel_flag = self.ctx.RawValue("b", 0)
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        slot.process = self.ctx.Process(
            target=_worker_main,
            args=(self.fn, child_conn, slot.cell, slot.cancel_flag, self.linger),
            daemon=True,
        )
        slot.process.start()
        child_conn.close()
        slot.conn = parent_conn

    def _respawn(self, slot: _Slot) -> None:
        """Respawn a slot in place after a kill, a crash or a linger."""
        slot.conn.close()
        self._spawn(slot)
        with self._lock:
            self.respawns += 1

    def _exit_worker(self, slot: _Slot) -> None:
        """Politely stop one worker, escalating if it ignores the request."""
        try:
            slot.conn.send(_EXIT)
        except (OSError, ValueError):
            pass
        slot.process.join(2.0)
        if slot.process.is_alive():
            _terminate(slot.process)
        slot.conn.close()

    def _start_managers(self, count: Optional[int] = None) -> None:
        """Start one manager thread on each of the first *count* slots (all)."""
        self._managers = [
            threading.Thread(
                target=self._manage, args=(slot,), daemon=True,
                name=f"pool-manager-{slot.index}",
            )
            for slot in self.slots[:count]
        ]
        for manager in self._managers:
            manager.start()

    def _park(self) -> None:
        """Stop the slot managers and keep the workers.

        For a pool whose every job has resolved and that was never
        stopped: afterwards it holds no thread, its workers wait for
        their next job (or leave on their linger), and :meth:`_resume`
        takes it back into service.
        """
        for _ in self._managers:
            self._queue.put(_PARK)
        for manager in self._managers:
            manager.join()
        self._managers = []

    def _resume(self, workers: int) -> None:
        """Take a parked pool back into service on its first *workers* slots.

        The pool grows to *workers* slots if it has fewer; slots past
        them stay unmanaged, so their workers run no job and leave on
        their linger.  New workers and those that left on their linger
        start here, before any manager thread starts, so they fork from
        a process that runs no thread of this pool.
        """
        while len(self.slots) < workers:
            slot = _Slot(index=len(self.slots))
            self._spawn(slot)
            self.slots.append(slot)
        for slot in self.slots[:workers]:
            if not slot.process.is_alive():
                self._respawn(slot)
        self._start_managers(workers)

    # -- jobs ------------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Queue *job* for the next free worker; returns it."""
        self._queue.put(job)
        return job

    def stop(self, error: BaseException) -> None:
        """Soft-cancel running jobs now and fail queued ones with *error*.

        Jobs submitted afterwards fail with *error* too.  A running job
        keeps whatever it returns; on a supervised pool, a worker that
        goes silent for ``grace`` seconds is killed as usual.  Call it
        before :meth:`close`.
        """
        now = time.monotonic()
        with self._lock:
            self._stop_error = error
            for slot in self.slots:
                if slot.job is not None:
                    slot.cancel_flag.value = 1
                    slot.soft_at = min(slot.soft_at or now, now)
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            job._resolve(error=error)

    def close(self, timeout: Optional[float] = None) -> bool:
        """Exit every worker once the queued jobs are done.

        Idempotent.  Returns ``True`` when every slot manager joined
        within *timeout* (``None`` = wait forever).
        """
        with self._lock:
            first, self._closed = not self._closed, True
        if first:
            for _ in self._managers:
                self._queue.put(_EXIT)
            # Slots without a manager (all of them, parked) exit here.
            for slot in self.slots[len(self._managers):]:
                self._exit_worker(slot)
        deadline = None if timeout is None else time.monotonic() + timeout
        for manager in self._managers:
            manager.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        return all(not manager.is_alive() for manager in self._managers)

    # -- the slot manager ------------------------------------------------

    def _manage(self, slot: _Slot) -> None:
        """Manager-thread body: feed and supervise one worker slot."""
        while True:
            job = self._queue.get()
            if job is _PARK:
                return
            if job is _EXIT:
                self._exit_worker(slot)
                return
            with self._lock:
                error = self._stop_error
                if error is None:
                    slot.cancel_flag.value = 0
                    slot.job = job
                    job.started = time.monotonic()
                    slot.soft_at = (
                        None if job.deadline is None else job.started + job.deadline
                    )
            if error is not None:
                job._resolve(error=error)
                continue
            try:
                self._run(slot, job)
            except Exception as failure:  # e.g. a failed respawn (fork)
                if job.finished is None:
                    self._finish(slot, job, error=failure)

    def _run(self, slot: _Slot, job: Job) -> None:
        """Ship *job* to the slot's worker and supervise it to the end."""
        try:
            # Pickle first: an unpicklable payload never reaches the
            # worker, so it fails the job without costing a respawn.
            message = ForkingPickler.dumps((job.fn, job.payload))
        except Exception as error:
            self._finish(slot, job, error=error)
            return
        if not slot.process.is_alive():  # died, or lingered out, while idle
            self._respawn(slot)
        while True:
            try:
                slot.conn.send_bytes(message)
            except OSError as error:  # the worker is gone: a broken pipe
                if self._said_goodbye(slot):
                    self._replace(slot)
                    continue
                self._respawn(slot)
                self._finish(slot, job, error=error)
                return
            slot.tasks += 1
            reply = self._await_reply(slot, job)
            if reply is None:  # the job ended in a kill or a crash
                return
            if reply != _GOODBYE:
                break
            # The worker left on its linger before it read the job.
            self._replace(slot)
        status, value = reply
        if status == "ok":
            self._finish(slot, job, value=value)
        else:
            self._finish(slot, job, error=value)

    def _await_reply(self, slot: _Slot, job: Job) -> Optional[tuple]:
        """The worker's reply to *job*, or ``None`` once a kill or the
        worker's own death has resolved the job."""
        while not slot.conn.poll(SUPERVISOR_TICK):
            now = time.monotonic()
            soft_at = slot.soft_at
            if self.grace is None or soft_at is None or now < soft_at:
                continue
            slot.cancel_flag.value = 1  # the cooperative cancel
            # The worker earns grace by heartbeating: kill only once it
            # has been silent for a full grace period after the soft
            # signal.
            if now - max(slot.cell.last_beat, soft_at) >= self.grace:
                self._kill(slot, job, now)
                return None
        try:
            return slot.conn.recv()
        except (EOFError, OSError):
            # The worker died on its own without replying (a crash, an
            # OOM kill, os._exit): infra-level breakage, transient and
            # retryable — not a kill.
            now, pid = time.monotonic(), slot.process.pid
            slot.process.join(0.5)
            self._respawn(slot)
            error = OSError(f"worker pid {pid} exited without a result")
            self._finish(slot, job, error=error, finished=now)
            return None

    @staticmethod
    def _said_goodbye(slot: _Slot) -> bool:
        """Did the slot's worker leave on its linger (its pipe holds the goodbye)?"""
        try:
            return bool(slot.conn.poll(0)) and slot.conn.recv() == _GOODBYE
        except (EOFError, OSError):
            return False

    def _replace(self, slot: _Slot) -> None:
        """Respawn the slot of a worker that said goodbye and is exiting."""
        slot.process.join(0.5)
        self._respawn(slot)

    def _kill(self, slot: _Slot, job: Job, now: float) -> None:
        """Terminate a silent worker, respawn the slot, fail the job."""
        gauges = slot.cell.gauges()
        stale = now - max(slot.cell.last_beat, job.started)
        pid = slot.process.pid
        _terminate(slot.process)
        with self._lock:
            self.kills += 1
        self._respawn(slot)
        job.killed = True
        diagnosis = Exhausted(
            resource="killed",
            where=job.kill_site,
            limit=self.grace,
            used=f"heartbeat stale {stale:.2f}s past deadline",
            rounds=gauges.get("rounds", 0),
            steps=gauges.get("steps", 0),
        )
        # The job ends at the kill instant: the SIGTERM and the fork of
        # the replacement worker are the pool's cost, not the item's.
        error = WorkerKilled(item=job.item, pid=pid, diagnosis=diagnosis)
        self._finish(slot, job, error=error, finished=now)

    def _finish(
        self,
        slot: _Slot,
        job: Job,
        value: Any = None,
        error=None,
        finished: Optional[float] = None,
    ) -> None:
        with self._lock:
            slot.job = None
        job._resolve(value, error, finished)


def _cancelled_error() -> Cancelled:
    """The typed error for items abandoned by a batch-wide cancellation."""
    return Cancelled(
        diagnosis=Exhausted(
            resource="cancelled", where="engine.supervisor", used="SIGINT"
        )
    )


#: The idle table: at most one parked pool per lease key.
_idle: Dict[tuple, WorkerPool] = {}
_idle_lock = threading.Lock()


def _lease_key(grace: Optional[float], ctx) -> tuple:
    """Pools that share a key are interchangeable: same supervision (a
    supervised pool's workers heartbeat) and ``multiprocessing``
    context.  The worker count is not part of it: a lease grows to the
    batch's size, and a batch manages only the slots it asked for."""
    return (grace is not None, ctx)


def _lease(workers: int, grace: Optional[float], context) -> WorkerPool:
    """The idle pool for this batch's key, resumed on *workers* slots, or a new one."""
    ctx = context if context is not None else multiprocessing.get_context()
    with _idle_lock:
        pool = _idle.pop(_lease_key(grace, ctx), None)
    if pool is None:
        return WorkerPool(None, workers, grace, ctx, linger=IDLE_LINGER)
    pool.grace = grace
    try:
        pool._resume(workers)
    except BaseException:
        pool.close()
        raise
    return pool


def _give_back(pool: WorkerPool) -> None:
    """Park a clean pool in the idle table; close it when its key is taken."""
    pool._park()
    key = _lease_key(pool.grace, pool.ctx)
    with _idle_lock:
        if key not in _idle:
            _idle[key] = pool
            return
    pool.close()


def _close_idle_pools() -> None:
    """Close every idle pool of this process and empty the table.

    A lease afterwards starts a new pool.  Nothing needs to call it at
    exit: pool workers are daemonic, so ``multiprocessing`` terminates
    them when the interpreter exits.
    """
    with _idle_lock:
        pools = list(_idle.values())
        _idle.clear()
    for pool in pools:
        pool.close()


def _forget_idle_pools() -> None:
    """In a forked child, forget the parent's idle pools without closing them.

    Their workers are the parent's: the child sends nothing down their
    pipes (dropping the pools only closes the child's copies of the
    descriptors), and the workers leave the child's ``multiprocessing``
    child list, whose exit handler would otherwise terminate them.  The
    lock is replaced, since another thread may have held it at the fork.
    """
    global _idle, _idle_lock
    for pool in _idle.values():
        for slot in pool.slots:
            multiprocessing.process._children.discard(slot.process)
    _idle, _idle_lock = {}, threading.Lock()


os.register_at_fork(after_in_child=_forget_idle_pools)


def run_batch_supervised(
    payloads: Sequence[tuple],
    fn: Callable[[tuple], Any],
    workers: int = 1,
    retries: int = 0,
    deadline: Optional[float] = None,
    grace: Optional[float] = 1.0,
    context=None,
) -> List[ItemOutcome]:
    """Run *fn* over *payloads* on a leased worker pool.

    The process counterpart of
    :func:`repro.engine.parallel.run_batch_isolated`: same payload
    contract (``(..., limits, fault, attempt)``), same ordered
    :class:`ItemOutcome` list, same transient-retry and batch-deadline
    semantics.  The batch leases a :class:`WorkerPool` and runs its
    jobs on ``min(workers, len(payloads))`` of its workers: the idle
    pool of that supervision and context when the table holds one
    (grown to that size if smaller), else a new one.  A batch that ends
    clean — every item resolved and no stop — parks the pool back, so
    its workers serve the next batch; a stopped or failed batch closes
    it, so no worker outlives it.  Each job carries
    *fn*, so batches of different tasks share the workers.  With a
    *grace* the pool is supervised: a worker silent for more than
    *grace* seconds past its cooperative deadline is terminated and
    its slot respawned; the item retries (with its remaining deadline)
    while attempts remain, then fails as
    :class:`repro.errors.WorkerKilled`.  ``ItemOutcome.kills`` counts
    the terminations each item needed; ``elapsed`` runs from the item's
    first dispatch to a worker (0.0 for an item that never started).

    When the batch deadline passes or the ambient cancel token fires,
    running items get the cooperative cancel at once, items not yet
    started fail (deadline-exhausted or ``Cancelled``), and nothing is
    retried; a straggler killed after a cancellation resolves as
    ``Cancelled``.

    Parameters
    ----------
    payloads:
        One task payload per batch item, ending with
        ``(limits, fault, attempt)`` as in :mod:`repro.engine.parallel`.
    fn:
        Module-level task function (must pickle by reference).
    workers:
        Max concurrently running worker processes (≥ 1).
    retries:
        Extra attempts for transiently failing *or killed* items.
    deadline:
        Wall-clock bound for the whole batch, seconds.
    grace:
        Heartbeat staleness past the deadline that triggers the kill;
        ``None`` runs the batch on a cooperative pool that never kills.
    context:
        A ``multiprocessing`` context; default
        :func:`multiprocessing.get_context`.
    """
    if not payloads:
        return []
    done: "queue.Queue[Job]" = queue.Queue()
    deadline_at = None if deadline is None else time.monotonic() + deadline
    outcomes = [ItemOutcome(attempts=0) for _ in payloads]
    first_started: Dict[int, float] = {}
    kills = [0] * len(payloads)
    pool = _lease(min(max(1, workers), len(payloads)), grace, context)
    clean = False

    def submit(index: int, payload: tuple) -> None:
        limits = payload[-3]  # the per-item cooperative deadline rides here
        item_deadline = limits.deadline if isinstance(limits, Limits) else None
        pool.submit(Job(payload, item_deadline, item=index, on_done=done.put, fn=fn))

    try:
        for index, payload in enumerate(payloads):
            submit(index, payload)
        unresolved = len(payloads)
        stopped = cancelled = False
        while unresolved:
            try:
                job: Optional[Job] = done.get(timeout=SUPERVISOR_TICK)
            except queue.Empty:
                job = None
            token = current_cancel_token()
            cancelled = cancelled or (token is not None and token.cancelled)
            if not stopped and (
                cancelled
                or (deadline_at is not None and time.monotonic() >= deadline_at)
            ):
                stopped = True
                pool.stop(
                    _cancelled_error() if cancelled else _deadline_exhausted(1).error
                )
            if job is None:
                continue
            index, attempt, error = job.item, job.payload[-1], job.error
            if job.started is None:  # failed by the stop before it ever ran
                attempt = max(attempt - 1, 1)
            else:
                first_started.setdefault(index, job.started)
            if job.killed:
                kills[index] += 1
                if cancelled:
                    error = _cancelled_error()
            elapsed = (
                job.finished - first_started[index] if index in first_started else 0.0
            )
            retryable = is_transient(error) or isinstance(error, WorkerKilled)
            if retryable and attempt <= retries and not stopped:
                payload = _rebudgeted(job.payload, elapsed)
                submit(index, payload[:-1] + (attempt + 1,))
                continue
            outcomes[index] = ItemOutcome(
                value=job.value,
                error=error,
                attempts=attempt,
                elapsed=elapsed,
                kills=kills[index],
            )
            unresolved -= 1
        clean = not stopped
    finally:
        if clean:
            _give_back(pool)
        else:
            pool.stop(_cancelled_error())
            pool.close()
    return outcomes


def supervision_available() -> bool:
    """True when this host can run worker pools at all.

    Needs working ``multiprocessing`` process spawning; sandboxed hosts
    without ``/dev/shm`` or fork permission (or ``REPRO_NO_SUPERVISOR=1``)
    run every engine batch on the serial loop.
    """
    if os.environ.get("REPRO_NO_SUPERVISOR", "").strip() in ("1", "true", "yes"):
        return False
    try:
        multiprocessing.get_context()
        return True
    except Exception:  # pragma: no cover - exotic hosts
        return False


__all__ = [
    "HeartbeatCell",
    "IDLE_LINGER",
    "Job",
    "SUPERVISOR_TICK",
    "WorkerPool",
    "run_batch_supervised",
    "supervision_available",
]
