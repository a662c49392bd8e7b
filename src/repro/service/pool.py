"""The warm supervised worker pool behind ``repro serve``.

Serving runs on the library's one process supervisor,
:class:`repro.engine.supervisor.WorkerPool`: N persistent workers, one
manager thread per slot, a cooperative cancel at the request's
deadline, a hard kill after ``grace`` seconds of heartbeat silence,
and a respawn in place — so one wedged request costs one worker
restart, never the pool.  Supervised engine batches lease pools of the
same kind; what this module adds is only what a service needs on top:

* **a warm engine per worker** — each worker process builds one
  :class:`repro.engine.ExchangeEngine` (imports done, disk tier
  attached) on its first request and keeps it for every later one;
* **admission control** — :meth:`WarmPool.submit` raises
  :class:`PoolSaturated` when the pending backlog is full (HTTP 429)
  and :class:`PoolDraining` once a drain has begun (HTTP 503);
* **the dict view** — :meth:`PoolJob.result` renders a worker's
  response or failure as a JSON-ready dict (``kind: "killed"`` for a
  hard kill; a worker that crashes on its own reports ``internal``);
* **drain and stats** — :meth:`WarmPool.drain` is the graceful-SIGTERM
  path (intake stops, queued and in-flight requests finish, then every
  worker exits), and :meth:`WarmPool.stats` is the ``/healthz`` ledger.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from typing import Any, Dict, Optional

from ..errors import ReproError
from ..engine.supervisor import Job, WorkerPool, supervision_available
from .ops import error_payload, execute_op


class PoolSaturated(ReproError):
    """The pending backlog is full; the caller should shed load (429)."""


class PoolDraining(ReproError):
    """The pool is draining (SIGTERM); no new work is admitted (503)."""


class _WarmTask:
    """The pool's task: serve one request on the worker's warm engine.

    Each worker process holds its own copy (inherited at fork, pickled
    under spawn) and builds its engine from the picklable *config* —
    ``cache_dir``/``store``/``sql_chase`` — once, on its first request.

    The engine keeps no in-memory result tier (``cache_size=0``): a
    request reaches a worker only after it has missed the service's
    response LRU and the disk tier, and the engine writes every result
    through to that disk tier (``cache_dir``), so a per-worker LRU
    would only hold a second copy in each worker's memory.
    ``meta.engine_cache_hit`` reports disk-tier hits.
    """

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.engine = None

    def __call__(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.engine is None:
            from ..engine import ExchangeEngine
            from .diskcache import DiskCache

            cache_dir = self.config.get("cache_dir")
            self.engine = ExchangeEngine(
                cache_size=0,
                store=self.config.get("store", "memory"),
                sql_chase=self.config.get("sql_chase", False),
                disk_cache=DiskCache(cache_dir) if cache_dir else None,
            )
        return execute_op(self.engine, request)


class PoolJob(Job):
    """A future-lite: one submitted request and its eventual outcome."""

    kill_site = "service.pool"

    def __init__(
        self,
        task_id: int,
        request: Dict[str, Any],
        deadline: Optional[float] = None,
        on_done=None,
    ) -> None:
        """A pending job for *request*, resolved by a slot manager."""
        super().__init__(request, deadline, item=task_id, on_done=on_done)
        self.task_id = task_id
        self.request = request

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block for the outcome and return it as a dict.

        Returns the response dict, or a structured error dict
        (``{"type", "message", "kind"}``) on failure.

        Raises ``TimeoutError`` only when *timeout* elapses with the job
        still unresolved — worker failures resolve, they don't raise.
        """
        if not self.wait(timeout):
            raise TimeoutError(
                f"pool job {self.task_id} unresolved after {timeout}s"
            )
        if self.error is not None:
            return {"ok": False, "error": error_payload(self.error)}
        return self.value


class WarmPool:
    """N persistent supervised workers fed from one shared queue.

    Parameters
    ----------
    workers:
        Worker process count (≥ 1).  Each holds a warm engine.
    engine_config:
        Picklable dict shipped to every worker:
        ``cache_dir``/``store``/``sql_chase`` (see :class:`_WarmTask`).
    deadline:
        Per-request cooperative deadline, seconds.  A request's own
        ``limits.deadline`` can only lower it: the job runs under the
        smaller of the two, so a request asking for more time than the
        server allows is still cancelled — and, after ``grace``, killed
        — at the server's deadline.  Non-finite limits never reach the
        pool: validation answers them with a 400.
    grace:
        Heartbeat staleness past the deadline that triggers the kill,
        exactly as in :mod:`repro.engine.supervisor`.
    max_pending:
        Admission bound on queued-plus-running requests; ``None``
        defaults to ``4 × workers``.
    context:
        A ``multiprocessing`` context (tests pass one; default
        :func:`multiprocessing.get_context`).
    """

    def __init__(
        self,
        workers: int = 2,
        engine_config: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = 30.0,
        grace: float = 2.0,
        max_pending: Optional[int] = None,
        context=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.engine_config = dict(engine_config or {})
        self.deadline = deadline
        self.grace = grace
        self.max_pending = max_pending if max_pending is not None else 4 * workers
        self._task_ids = itertools.count(1)
        self._pending = 0
        # Pool-lifetime counters: submitted, completed, failed, rejected.
        self._counts: Counter = Counter()
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._pool = WorkerPool(
            _WarmTask(self.engine_config), workers, grace, context
        )
        self._slots = self._pool.slots

    def submit(
        self, request: Dict[str, Any], deadline: Optional[float] = None
    ) -> PoolJob:
        """Queue one normalized request; returns its :class:`PoolJob`.

        The job's deadline is the smaller of *deadline* (the request's
        own ``limits.deadline``) and the pool's: a request can lower
        the server's deadline, never lift it.

        Raises :class:`PoolDraining` once :meth:`drain` has begun and
        :class:`PoolSaturated` when admitting the request would push the
        pending count past ``max_pending``.
        """
        with self._lock:
            if self._draining.is_set():
                self._counts["rejected"] += 1
                raise PoolDraining("pool is draining; not accepting work")
            if self._pending >= self.max_pending:
                self._counts["rejected"] += 1
                raise PoolSaturated(
                    f"{self._pending} requests pending (limit {self.max_pending})"
                )
            self._pending += 1
            self._counts["submitted"] += 1
        deadlines = [d for d in (deadline, self.deadline) if d is not None]
        job = PoolJob(
            next(self._task_ids), request, min(deadlines, default=None), on_done=self._finish
        )
        self._pool.submit(job)
        return job

    def _finish(self, job: PoolJob) -> None:
        with self._lock:
            self._pending -= 1
            self._counts["completed" if job.error is None else "failed"] += 1

    # -- lifecycle -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Has a drain begun?  (New submissions are rejected once true.)"""
        return self._draining.is_set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown of the pool.

        Stops intake, finishes queued and in-flight work, then exits
        every worker.  Returns ``True`` when every manager joined
        within *timeout* (``None`` = wait forever).
        """
        self._draining.set()
        return self._pool.close(timeout)

    def stats(self) -> Dict[str, Any]:
        """A snapshot of pool health for ``/healthz`` and tests."""
        with self._lock:
            snapshot = {
                "workers": self.workers,
                "pending": self._pending,
                "draining": self.draining,
                "submitted": self._counts["submitted"],
                "completed": self._counts["completed"],
                "failed": self._counts["failed"],
                "kills": self._pool.kills,
                "respawns": self._pool.respawns,
                "rejected": self._counts["rejected"],
                "worker_pids": [
                    slot.process.pid
                    for slot in self._slots
                    if slot.process is not None
                ],
                "worker_tasks": [slot.tasks for slot in self._slots],
            }
        return snapshot


#: Can this host run the warm pool?  The same gate as the supervisor.
pool_available = supervision_available


__all__ = [
    "PoolDraining",
    "PoolJob",
    "PoolSaturated",
    "WarmPool",
    "pool_available",
]
