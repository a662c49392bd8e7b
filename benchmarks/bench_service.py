"""SV-7 — service mode: warm pool + persistent cache vs. cold CLI.

The exchange-service PR's acceptance bar:

* **Warm repeats are >= 10x faster** — the p50 round trip of a repeated
  ``POST /v1/chase`` against a running ``repro serve`` (warm workers,
  response caches primed) beats the p50 of the same exchange through a
  cold ``python -m repro chase`` subprocess — interpreter start, imports
  and engine construction included — by at least :data:`SPEEDUP_FLOOR`.
* **Keep-alive costs no more than a fresh connection** — the same warm
  repeat sent over one persistent ``http.client`` connection has a p50
  no higher than the fresh-connection lane's.  A reply held back by
  Nagle's algorithm until the client's delayed ACK (about 40 ms) shows
  only on a kept-alive connection, which is how ``perfbench`` and most
  HTTP clients talk to the service.
* **The cache survives restarts** — after a SIGTERM drain and a fresh
  server start over the same ``--cache-dir``, the first repeat is
  served from the **disk** layer (content address, not process memory).

Runs as a plain script (``python benchmarks/bench_service.py``): prints
the latency table, records the measurements in the run registry
(``$REPRO_RUNS_DB`` or ``--registry``), and exits nonzero if any claim
fails.  There is no pytest-benchmark entry point — the subject is
cross-process wall time, which per-function timers cannot see.
"""

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script mode without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.registry import RunRegistry
from repro.obs.sinks import OpRecord
from repro.mappings.schema_mapping import SchemaMapping

MAPPING = "P(x, y, z) -> Q(x, y) & R(y, z)"
INSTANCE = "P(a, b, c), P(a, b, d), P(c, d, e)"
PORT = int(os.environ.get("REPRO_BENCH_PORT", "8643"))
COLD_RUNS = 5
WARM_RUNS = 20
SPEEDUP_FLOOR = 10.0
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cold_once(cache_dir: str) -> float:
    """One full cold CLI exchange: subprocess, imports, engine, chase."""
    start = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "repro", "chase",
            "--mapping", MAPPING, "--instance", INSTANCE,
            "--cache-dir", cache_dir, "--no-registry",
        ],
        check=True,
        capture_output=True,
        env=_cli_env(),
    )
    return time.perf_counter() - start


def _start_server(cache_dir: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(PORT), "--cache-dir", cache_dir,
            "--pool-workers", "2", "--no-registry",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_cli_env(),
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{PORT}/healthz", timeout=1
            ):
                return proc
        except (urllib.error.URLError, OSError):
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early with {proc.returncode}"
                )
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not become healthy within 30s")


BODY = json.dumps({"mapping": MAPPING, "instance": INSTANCE}).encode("utf-8")
HEADERS = {"Content-Type": "application/json"}


def _post_chase() -> dict:
    """One ``POST /v1/chase`` on a fresh urllib connection."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{PORT}/v1/chase", data=BODY, headers=HEADERS
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _post_kept_alive(conn: http.client.HTTPConnection) -> dict:
    """One ``POST /v1/chase`` on the persistent connection *conn*."""
    conn.request("POST", "/v1/chase", body=BODY, headers=HEADERS)
    return json.loads(conn.getresponse().read().decode("utf-8"))


def _warm_once(post) -> float:
    start = time.perf_counter()
    response = post()
    elapsed = time.perf_counter() - start
    assert response["ok"], response
    return elapsed


def _drain(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGTERM)
    return proc.wait(timeout=30)


def _registry(path=None):
    path = path or os.environ.get("REPRO_RUNS_DB")
    return RunRegistry(path) if path else RunRegistry()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--registry", metavar="DB", default=None,
        help="run-registry database to record results in "
        "(default: $REPRO_RUNS_DB or the user registry)",
    )
    opts = parser.parse_args(argv)

    registry = _registry(opts.registry)
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_service") as tmpdir:
        cold_dir = os.path.join(tmpdir, "cold-cache")
        warm_dir = os.path.join(tmpdir, "warm-cache")

        cold = sorted(_cold_once(cold_dir) for _ in range(COLD_RUNS))
        cold_p50 = statistics.median(cold)

        server = _start_server(warm_dir)
        try:
            first = _post_chase()
            assert first["ok"] and not first["cache"]["hit"], first
            warm = sorted(_warm_once(_post_chase) for _ in range(WARM_RUNS))
            conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=30)
            try:
                kept = sorted(
                    _warm_once(lambda: _post_kept_alive(conn))
                    for _ in range(WARM_RUNS)
                )
            finally:
                conn.close()
        finally:
            drain_status = _drain(server)
        warm_p50 = statistics.median(warm)
        keepalive_p50 = statistics.median(kept)

        speedup = cold_p50 / warm_p50 if warm_p50 else float("inf")
        fast_enough = speedup >= SPEEDUP_FLOOR
        no_stall = keepalive_p50 <= warm_p50
        drained = drain_status == 0

        # A fresh server over the same cache dir serves from disk.
        restarted = _start_server(warm_dir)
        try:
            repeat = _post_chase()
        finally:
            restart_drain = _drain(restarted)
        persistent = repeat["cache"] == {"hit": True, "layer": "disk"}
        restart_drained = restart_drain == 0

        ok = (
            fast_enough and no_stall and drained and persistent
            and restart_drained
        )

        print(
            f"cold CLI   p50 : {cold_p50 * 1e3:9.1f} ms  "
            f"(n={COLD_RUNS}, min {cold[0] * 1e3:.1f} max {cold[-1] * 1e3:.1f})"
        )
        print(
            f"warm serve p50 : {warm_p50 * 1e3:9.1f} ms  "
            f"(n={WARM_RUNS}, min {warm[0] * 1e3:.1f} max {warm[-1] * 1e3:.1f})"
        )
        print(
            f"keep-alive p50 : {keepalive_p50 * 1e3:9.1f} ms  "
            f"(n={WARM_RUNS}, min {kept[0] * 1e3:.1f} max {kept[-1] * 1e3:.1f}; "
            f"<= warm serve p50) -> {no_stall}"
        )
        print(
            f"speedup        : {speedup:9.1f} x  (floor {SPEEDUP_FLOOR:.0f}x) "
            f"-> {fast_enough}"
        )
        print(f"SIGTERM drain  : exit {drain_status} -> {drained}")
        print(
            f"restart repeat : cache {repeat['cache']} -> {persistent} "
            f"(drain exit {restart_drain} -> {restart_drained})"
        )

        registry.record(
            OpRecord(
                op="bench_service",
                mapping_digest=SchemaMapping.from_text(MAPPING).digest(),
                wall_time=warm_p50,
            ),
            metrics={
                "cold_p50": cold_p50,
                "warm_p50": warm_p50,
                "keepalive_p50": keepalive_p50,
                "speedup": speedup,
                "speedup_floor": SPEEDUP_FLOOR,
                "drain_exit": drain_status,
                "restart_disk_hit": persistent,
            },
        )
    registry.close()
    print(
        f"acceptance: warm serve >= {SPEEDUP_FLOOR:.0f}x over cold CLI, "
        f"keep-alive no slower than fresh connections, drain clean, "
        f"cache survives restart — {ok}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
