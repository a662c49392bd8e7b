"""Unit tests for the warm supervised worker pool behind ``repro serve``."""

import multiprocessing
import os
import time

import pytest

from repro.service import pool as pool_module
from repro.service.ops import execute_op, validate_request
from repro.service.pool import (
    PoolDraining,
    PoolSaturated,
    WarmPool,
    pool_available,
)

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="multiprocessing unavailable"
)

MAPPING = "P(x) -> Q(x)"


def _request(instance="P(a)", **extra):
    body = {"mapping": MAPPING, "instance": instance}
    body.update(extra)
    return validate_request(
        "chase", body, allow_faults="fault" in extra
    )


def _exit_on_die(engine, request):
    """``execute_op`` that dies without replying on ``P(die)``."""
    if request["instance"] == "P(die)":
        os._exit(1)
    return execute_op(engine, request)


@pytest.fixture
def pool(tmp_path):
    pool = WarmPool(
        workers=2,
        engine_config={"cache_dir": str(tmp_path / "cache")},
        deadline=20.0,
        grace=1.0,
    )
    yield pool
    pool.drain(timeout=30)


class TestHappyPath:
    def test_submit_and_result(self, pool):
        response = pool.submit(_request()).result(60)
        assert response["ok"] and response["facts"] == 1

    def test_warm_worker_reuses_engine_cache(self, pool):
        first = pool.submit(_request("P(w1)")).result(60)
        assert not first["meta"]["engine_cache_hit"]
        # Same request again: whichever worker serves it finds it in the
        # shared disk tier (worker engines keep no memory tier).
        second = pool.submit(_request("P(w1)")).result(60)
        assert second["meta"]["engine_cache_hit"]

    def test_worker_engine_is_backed_by_disk_only(self, tmp_path):
        task = pool_module._WarmTask({"cache_dir": str(tmp_path / "cache")})
        assert not task(_request("P(m1)"))["meta"]["engine_cache_hit"]
        assert task(_request("P(m1)"))["meta"]["engine_cache_hit"]
        # The hit came from disk: the engine holds no copy in memory.
        assert task.engine.stats()["chase"]["entries"] == 0

    def test_distinct_requests_in_flight(self, pool):
        jobs = [pool.submit(_request(f"P(c{i})")) for i in range(6)]
        results = [job.result(60) for job in jobs]
        assert all(r["ok"] for r in results)
        stats = pool.stats()
        assert stats["completed"] == 6 and stats["failed"] == 0

    def test_worker_error_is_structured(self, pool):
        request = _request("P(x9)", fault={"kind": "crash"})
        response = pool.submit(request).result(60)
        assert not response["ok"]
        assert response["error"]["type"] == "FaultInjected"
        assert response["error"]["kind"] == "internal"
        # The worker survives a Python-level error: next request works.
        assert pool.submit(_request("P(after)")).result(60)["ok"]


class TestSupervision:
    def test_hung_worker_killed_and_respawned_in_place(self, pool):
        pids_before = sorted(pool.stats()["worker_pids"])
        hang = _request("P(h1)", fault={"kind": "hang", "seconds": 60})
        job = pool.submit(hang, deadline=0.5)
        response = job.result(60)
        assert not response["ok"]
        assert response["error"]["type"] == "WorkerKilled"
        assert response["error"]["kind"] == "killed"
        assert job.killed
        stats = pool.stats()
        assert stats["kills"] == 1 and stats["respawns"] == 1
        assert sorted(stats["worker_pids"]) != pids_before
        assert len(stats["worker_pids"]) == 2  # still fully staffed

    def test_concurrent_requests_unaffected_by_kill(self, pool):
        hang = _request("P(h2)", fault={"kind": "hang", "seconds": 60})
        hung_job = pool.submit(hang, deadline=0.5)
        healthy = [pool.submit(_request(f"P(ok{i})")) for i in range(3)]
        results = [job.result(60) for job in healthy]
        assert all(r["ok"] for r in results)
        assert not hung_job.result(60)["ok"]

    def test_pool_usable_after_kill(self, pool):
        hang = _request("P(h3)", fault={"kind": "hang", "seconds": 60})
        pool.submit(hang, deadline=0.5).result(60)
        response = pool.submit(_request("P(recovered)")).result(60)
        assert response["ok"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched execute_op reaches workers only by fork",
    )
    def test_worker_that_dies_on_its_own_is_not_a_kill(self, tmp_path, monkeypatch):
        # A crash (os._exit, an OOM kill) is infra breakage, not a hard
        # kill: the request fails as an internal OSError, the kill
        # counter stays put, and the slot respawns in place.
        monkeypatch.setattr(pool_module, "execute_op", _exit_on_die)
        pool = WarmPool(
            workers=1,
            engine_config={"cache_dir": str(tmp_path / "cache")},
            deadline=20.0,
            grace=1.0,
            context=multiprocessing.get_context("fork"),
        )
        try:
            pids_before = pool.stats()["worker_pids"]
            job = pool.submit(_request("P(die)"))
            response = job.result(60)
            assert not response["ok"]
            assert response["error"]["type"] == "OSError"
            assert response["error"]["kind"] == "internal"
            assert not job.killed
            stats = pool.stats()
            assert stats["kills"] == 0 and stats["respawns"] == 1
            assert stats["worker_pids"] != pids_before
            assert pool.submit(_request("P(alive)")).result(60)["ok"]
        finally:
            pool.drain(timeout=30)

    def test_cooperative_cancel_before_hard_kill(self, pool):
        # A slow-but-checkpointing task honors the soft cancel: the
        # result is a budget error, not a kill.
        slow = _request("P(s1)", fault={"kind": "slow", "seconds": 3.0})
        response = pool.submit(slow, deadline=60.0).result(60)
        # 'slow' sleeps before the chase, then completes normally.
        assert response["ok"]
        assert pool.stats()["kills"] == 0


class TestAdmission:
    def test_saturated_rejects(self, tmp_path):
        pool = WarmPool(
            workers=1,
            engine_config={"cache_dir": str(tmp_path / "cache")},
            deadline=30.0,
            grace=2.0,
            max_pending=2,
        )
        try:
            slow = _request("P(s2)", fault={"kind": "slow", "seconds": 2.0})
            first = pool.submit(slow)
            second = pool.submit(_request("P(q1)"))
            with pytest.raises(PoolSaturated):
                pool.submit(_request("P(q2)"))
            assert pool.stats()["rejected"] == 1
            assert first.result(60)["ok"] and second.result(60)["ok"]
            # Backlog drained: admission opens again.
            assert pool.submit(_request("P(q3)")).result(60)["ok"]
        finally:
            pool.drain(timeout=30)

    def test_drain_rejects_new_work(self, pool):
        job = pool.submit(_request("P(d1)"))
        assert pool.drain(timeout=30)
        with pytest.raises(PoolDraining):
            pool.submit(_request("P(d2)"))
        # Work admitted before the drain still completed.
        assert job.result(5)["ok"]

    def test_drain_is_idempotent(self, pool):
        assert pool.drain(timeout=30)
        assert pool.drain(timeout=30)
        assert pool.draining

    def test_drain_stops_workers(self, pool):
        pids = pool.stats()["worker_pids"]
        assert pool.drain(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(not slot.process.is_alive() for slot in pool._slots):
                break
            time.sleep(0.05)
        assert all(not slot.process.is_alive() for slot in pool._slots)
        assert pids  # sanity: there were workers to stop


class TestServerDeadline:
    def test_request_cannot_lift_the_pool_deadline(self):
        from repro.service.http import ExchangeService

        pool = WarmPool(workers=1, deadline=0.5, grace=0.5)
        body = {"mapping": MAPPING, "instance": "P(long)", "limits": {"deadline": 1000}}
        body["fault"] = {"kind": "hang", "seconds": 4}
        started = time.monotonic()
        try:
            status, response = ExchangeService(pool, allow_faults=True).handle("chase", body)
        finally:
            pool.drain(timeout=30)
        assert status == 500 and response["error"]["kind"] == "killed"
        assert time.monotonic() - started < 3.0


class TestResultTimeout:
    def test_result_timeout_raises(self, pool):
        hang = _request("P(t1)", fault={"kind": "hang", "seconds": 30}, limits=None)
        job = pool.submit(hang, deadline=5.0)
        with pytest.raises(TimeoutError):
            job.result(0.2)
        # Eventually resolves (killed) — don't leak the hung worker.
        assert not job.result(60)["ok"]
