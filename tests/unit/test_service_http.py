"""Unit tests for the service core and its HTTP front end."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.cache import LRUCache
from repro.service import ops
from repro.service.http import ExchangeService, ServiceServer, _Handler
from repro.service.ops import (
    PARSE_MEMO_ENTRIES,
    PARSE_MEMO_MAX_CHARS,
    ServiceRequestError,
    execute_op,
    parse_memo_stats,
    parse_text,
    request_key,
    validate_request,
)
from repro.service.pool import PoolDraining, PoolSaturated

MAPPING = "P(x) -> Q(x)"


class _FakeJob:
    def __init__(self, response):
        self._response = response

    def result(self, timeout=None):
        return self._response


class _FakePool:
    """A pool double running requests inline on an in-process engine."""

    def __init__(self, engine=None, saturated=False):
        from repro.engine import ExchangeEngine

        self.engine = engine or ExchangeEngine()
        self.saturated = saturated
        self._draining = False
        self.submitted = 0

    @property
    def draining(self):
        return self._draining

    def submit(self, request, deadline=None):
        if self._draining:
            raise PoolDraining("draining")
        if self.saturated:
            raise PoolSaturated("full")
        self.submitted += 1
        try:
            return _FakeJob(execute_op(self.engine, request))
        except BaseException as error:
            from repro.service.ops import error_payload

            return _FakeJob({"ok": False, "error": error_payload(error)})

    def drain(self, timeout=None):
        self._draining = True
        return True

    def stats(self):
        return {
            "workers": 0, "pending": 0, "draining": self._draining,
            "submitted": self.submitted, "completed": self.submitted,
            "failed": 0, "kills": 0, "respawns": 0, "rejected": 0,
            "worker_pids": [], "worker_tasks": [],
        }


def _service(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExchangeService(_FakePool(), **kw)


def _body(instance="P(a)", **extra):
    body = {"mapping": MAPPING, "instance": instance}
    body.update(extra)
    return body


class TestValidation:
    def test_unknown_op(self):
        with pytest.raises(ServiceRequestError):
            validate_request("frobnicate", _body())

    def test_missing_mapping(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", {"instance": "P(a)"})

    def test_bad_mapping_text(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(mapping="((("))

    def test_bad_limits(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(limits={"deadline": -1}))
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(limits={"nope": 1}))

    @pytest.mark.parametrize(
        "field", ["deadline", "max_rounds", "max_facts", "max_nulls", "max_branches"]
    )
    def test_non_finite_limits_are_400(self, tmp_path, field):
        service = _service(tmp_path)
        for literal in ("NaN", "Infinity", "-Infinity"):
            limits = json.loads(f'{{"{field}": {literal}}}')
            status, response = service.handle("chase", _body(limits=limits))
            assert status == 400, (field, literal)
            assert response["error"]["kind"] == "invalid"

    def test_unexpected_limits_error_is_not_a_400(self, monkeypatch):
        from repro.limits import Limits

        def broken(self):
            raise RuntimeError("bug in Limits")

        monkeypatch.setattr(Limits, "__post_init__", broken)
        with pytest.raises(RuntimeError, match="bug in Limits"):
            validate_request("chase", _body(limits={"deadline": 5}))

    def test_fault_needs_opt_in(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(fault={"kind": "hang"}))
        request = validate_request(
            "chase", _body(fault={"kind": "hang"}), allow_faults=True
        )
        assert request["fault"]["kind"] == "hang"

    def test_bad_query(self):
        with pytest.raises(ServiceRequestError):
            validate_request(
                "answer", _body(query="not a query ((", max_nulls=2)
            )

    def test_key_excludes_limits(self):
        plain = validate_request("chase", _body())
        limited = validate_request(
            "chase", _body(limits={"deadline": 5})
        )
        assert request_key(plain) == request_key(limited)

    def test_key_separates_variants(self):
        restricted = validate_request("chase", _body())
        oblivious = validate_request("chase", _body(variant="oblivious"))
        assert request_key(restricted) != request_key(oblivious)


@pytest.fixture
def parses(monkeypatch):
    """Clear the parse memo; count mapping and query parses by text."""
    import repro.mappings.schema_mapping as schema_mapping

    ops._parse_memo.cache_clear()
    counts = {}
    dependencies = schema_mapping.parse_dependencies

    def count_dependencies(text, *args, **kwargs):
        counts[text] = counts.get(text, 0) + 1
        return dependencies(text, *args, **kwargs)

    query = ops.parse_query

    def count_query(text):
        counts[text] = counts.get(text, 0) + 1
        return query(text)

    monkeypatch.setattr(schema_mapping, "parse_dependencies", count_dependencies)
    monkeypatch.setattr(ops, "parse_query", count_query)
    yield counts
    ops._parse_memo.cache_clear()


class TestParseMemo:
    def test_texts_are_parsed_once_per_process(self, parses):
        from repro.engine import ExchangeEngine

        engine = ExchangeEngine()
        bodies = [
            ("chase", _body()),
            ("reverse", {"mapping": "Q(x) -> P(x)", "instance": "Q(a)"}),
            ("audit", {"mapping": MAPPING, "reverse": "Q(x) -> P(x)"}),
            (
                "answer",
                _body(recovery="Q(x) -> P(x)", query="q(x) :- P(x)"),
            ),
        ]
        for _ in range(3):
            for op, body in bodies:
                execute_op(engine, validate_request(op, body))
        assert parses == {
            MAPPING: 1,
            "Q(x) -> P(x)": 1,
            "q(x) :- P(x)": 1,
        }
        stats = parse_memo_stats()
        assert stats["misses"] == 3 and stats["size"] == 3
        assert stats["hits"] > 0

    @pytest.fixture
    def derivations(self, monkeypatch):
        """Count full-tgd recovery derivations."""
        import repro.inverses.quasi_inverse as quasi_inverse

        derived = []
        derive = quasi_inverse.maximum_extended_recovery_for_full_tgds

        def counting(mapping):
            derived.append(mapping)
            return derive(mapping)

        monkeypatch.setattr(
            quasi_inverse, "maximum_extended_recovery_for_full_tgds", counting
        )
        return derived

    @pytest.mark.parametrize("padding, derives", [(0, 1), (PARSE_MEMO_MAX_CHARS, 3)])
    def test_answer_derives_its_recovery_once_per_text(
        self, parses, derivations, padding, derives
    ):
        """Without a ``recovery`` field, an ``answer`` derives Theorem
        5.1's recovery once per mapping text; an over-cap text, every
        time."""
        from repro.engine import ExchangeEngine

        engine = ExchangeEngine()
        body = _body(mapping=MAPPING + " " * padding, query="q(x) :- P(x)")
        rows = [
            execute_op(engine, validate_request("answer", body))["rows"]
            for _ in range(3)
        ]
        assert len(derivations) == derives
        assert rows == [[["a"]]] * 3

    def test_long_text_is_parsed_every_time_and_never_kept(self, parses):
        text = "\n".join(
            f"P{i}(x) -> Q{i}(x)" for i in range(PARSE_MEMO_MAX_CHARS // 10)
        )
        assert len(text) > PARSE_MEMO_MAX_CHARS
        for _ in range(3):
            validate_request("audit", {"mapping": text})
        assert parses == {text: 3}
        assert parse_memo_stats()["size"] == 0

    def test_memo_holds_at_most_its_entry_limit(self, parses):
        for i in range(PARSE_MEMO_ENTRIES + 8):
            parse_text("query", f"q(x) :- P{i}(x)")
        assert parse_memo_stats()["size"] == PARSE_MEMO_ENTRIES

    def test_malformed_mapping_is_rejected_on_every_repeat(self, parses):
        for _ in range(3):
            with pytest.raises(ServiceRequestError, match="cannot parse"):
                validate_request("chase", _body(mapping="P(x) -> Q("))
        assert parses == {"P(x) -> Q(": 3}
        assert parse_memo_stats()["size"] == 0

    def test_whitespace_variants_share_a_request_key(self, parses):
        spaced = "  P(x)   ->\tQ(x)  \n"
        plain = validate_request("chase", _body())
        padded = validate_request("chase", _body(mapping=spaced))
        assert padded["mapping"] == spaced
        assert request_key(plain) == request_key(padded)
        assert parse_memo_stats()["size"] == 2

    def test_handler_threads_share_the_memo(self, parses):
        import sys

        texts = [f"P{i}(x) -> Q{i}(x)" for i in range(40)]
        digests = {text: parse_text("mapping", text).digest() for text in texts}
        wrong = []

        def work():
            for _ in range(20):
                for text in texts:
                    if parse_text("mapping", text).digest() != digests[text]:
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = parse_memo_stats()
        assert stats["hits"] + stats["misses"] == 40 + 8 * 20 * 40
        assert stats["misses"] == 40 and stats["size"] == 40

    def test_health_reports_the_server_memo(self, tmp_path, parses):
        service = _service(tmp_path, response_cache_size=0)
        for _ in range(3):
            assert service.handle("chase", _body())[0] == 200
        _, health = service.health()
        assert health["parse"]["misses"] == 1
        assert health["parse"]["size"] == 1
        assert health["parse"]["hits"] >= 2


class TestHandle:
    def test_chase_roundtrip(self, tmp_path):
        service = _service(tmp_path)
        status, response = service.handle("chase", _body())
        assert status == 200 and response["ok"]
        assert response["facts"] == 1
        assert response["cache"] == {"hit": False, "layer": None}

    def test_memory_then_disk_layers(self, tmp_path):
        service = _service(tmp_path)
        service.handle("chase", _body())
        status, second = service.handle("chase", _body())
        assert status == 200
        assert second["cache"] == {"hit": True, "layer": "memory"}
        # A fresh service over the same directory: disk hit.
        fresh = _service(tmp_path)
        status, third = fresh.handle("chase", _body())
        assert third["cache"] == {"hit": True, "layer": "disk"}
        assert fresh.pool.submitted == 0  # never reached the pool

    def test_zero_memory_tier_always_disk(self, tmp_path):
        service = _service(tmp_path, response_cache_size=0)
        service.handle("chase", _body())
        status, second = service.handle("chase", _body())
        assert second["cache"]["layer"] == "disk"

    def test_validation_maps_to_400(self, tmp_path):
        service = _service(tmp_path)
        status, response = service.handle("chase", {"mapping": "((("})
        assert status == 400
        assert response["error"]["kind"] == "invalid"

    def test_saturated_maps_to_429(self, tmp_path):
        service = ExchangeService(
            _FakePool(saturated=True), cache_dir=str(tmp_path / "cache")
        )
        status, response = service.handle("chase", _body())
        assert status == 429
        assert response["error"]["kind"] == "saturated"

    def test_draining_maps_to_503(self, tmp_path):
        service = _service(tmp_path)
        service.drain()
        status, response = service.handle("chase", _body())
        assert status == 503
        assert response["error"]["kind"] == "draining"

    def test_worker_error_maps_to_500_and_not_cached(self, tmp_path):
        service = _service(tmp_path, allow_faults=True)
        crash = _body("P(c1)", fault={"kind": "crash"})
        status, response = service.handle("chase", crash)
        assert status == 500 and not response["ok"]
        # A crash response must never be served from cache afterwards.
        ok_body = _body("P(c1)")
        status, response = service.handle("chase", ok_body)
        assert status == 200 and response["cache"]["hit"] is False

    def test_partial_results_not_cached(self, tmp_path):
        service = _service(tmp_path)
        body = _body(
            mapping="E(x, y) & E(y, z) -> E(x, z)",
            instance="E(a, b), E(b, c), E(c, d), E(d, e)",
            limits={"max_rounds": 1},
        )
        status, response = service.handle("chase", body)
        assert status == 200 and response["exhausted"] == "rounds"
        status, again = service.handle("chase", body)
        assert again["cache"]["hit"] is False

    def test_reverse_and_audit_and_answer(self, tmp_path):
        service = _service(tmp_path)
        status, reverse = service.handle(
            "reverse", {"mapping": "Q(x) -> P(x)", "instance": "Q(a)"}
        )
        assert status == 200 and reverse["candidates"]
        status, audit = service.handle("audit", {"mapping": MAPPING})
        assert status == 200 and "invertible" in audit
        status, answer = service.handle(
            "answer",
            {
                "mapping": MAPPING,
                "instance": "P(a)",
                "query": "q(x) :- P(x)",
            },
        )
        assert status == 200 and answer["rows"] == [["a"]]

    def test_metrics_exposition(self, tmp_path):
        service = _service(tmp_path)
        service.handle("chase", _body())
        service.handle("chase", _body())
        text = service.metrics_text()
        assert text.endswith("# EOF\n")
        assert "repro_service_requests_chase_total 2" in text
        assert "repro_service_cache_hits_memory_total 1" in text

    def test_health_reports_tiers(self, tmp_path):
        service = _service(tmp_path)
        status, health = service.health()
        assert status == 200 and health["status"] == "ok"
        assert "memory" in health["cache"] and health["cache"]["disk"] is not None
        service.drain()
        status, health = service.health()
        assert status == 503 and health["status"] == "draining"

    def test_registry_records_requests(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(str(tmp_path / "runs.db"))
        service = ExchangeService(
            _FakePool(),
            cache_dir=str(tmp_path / "cache"),
            registry=registry,
        )
        service.handle("chase", _body())
        service.handle("chase", _body())
        rows = registry.list_runs(limit=10)
        assert len(rows) == 2
        assert all(row.op == "serve.chase" for row in rows)


class _LiveServer:
    """A ServiceServer on an ephemeral port, driven over real HTTP."""

    def __init__(self, service):
        self.server = ServiceServer(("127.0.0.1", 0), service)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        host, port = self.server.server_address
        self.base = f"http://{host}:{port}"

    def post(self, path, body):
        status, _, response = self.post_raw(path, body)
        return status, response

    def post_raw(self, path, body, headers=None):
        """POST returning ``(status, response headers, parsed body)``."""
        data = json.dumps(body).encode()
        request_headers = {"Content-Type": "application/json"}
        request_headers.update(headers or {})
        request = urllib.request.Request(
            self.base + path, data, request_headers
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (
                    response.status,
                    dict(response.headers),
                    json.loads(response.read()),
                )
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, r.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10)


@pytest.fixture
def live(tmp_path):
    server = _LiveServer(_service(tmp_path))
    yield server
    server.close()


class TestWire:
    def test_post_roundtrip(self, live):
        status, response = live.post("/v1/chase", _body())
        assert status == 200 and response["ok"]

    def test_unknown_route_404(self, live):
        status, response = live.post("/v1/frobnicate", _body())
        assert status == 404
        status, _ = live.get("/nope")
        assert status == 404

    def test_malformed_json_400(self, live):
        request = urllib.request.Request(
            live.base + "/v1/chase", b"{not json",
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    def test_metrics_endpoint(self, live):
        live.post("/v1/chase", _body())
        status, text = live.get("/metrics")
        assert status == 200
        assert text.endswith("# EOF\n")

    def test_healthz_endpoint(self, live):
        status, text = live.get("/healthz")
        assert status == 200
        assert json.loads(text)["status"] == "ok"


class TestKeepAlive:
    """Requests sharing one HTTP/1.1 connection, as ``http.client`` keeps it.

    Each framing case is followed by a good request on the same
    connection object: it must get its own reply, whether the server
    kept the socket open or closed it (``http.client`` then reconnects).
    """

    @staticmethod
    def _connect(live):
        host, port = live.server.server_address
        return http.client.HTTPConnection(host, port, timeout=5)

    @staticmethod
    def _chase(conn):
        conn.request(
            "POST", "/v1/chase", json.dumps(_body()).encode(),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def test_replies_do_not_wait_for_delayed_ack(self, live):
        conn = self._connect(live)
        try:
            assert self._chase(conn)[0] == 200  # primes the memory tier
            times = []
            for _ in range(20):
                started = time.perf_counter()
                status, response = self._chase(conn)
                times.append(time.perf_counter() - started)
                assert status == 200
                assert response["cache"]["layer"] == "memory"
        finally:
            conn.close()
        # Nagle's algorithm against the client's delayed ACK holds each
        # reply about 40 ms; a memory hit takes about 1 ms.
        assert statistics.median(times) < 0.015, times

    def test_unknown_route_body_is_read(self, live):
        conn = self._connect(live)
        try:
            conn.request("POST", "/v1/frobnicate", json.dumps(_body()).encode())
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]["type"] == "NotFound"
            status, response = self._chase(conn)
            assert status == 200 and response["ok"]
        finally:
            conn.close()

    def test_get_body_is_read(self, live):
        conn = self._connect(live)
        try:
            conn.request("GET", "/healthz", json.dumps(_body()).encode())
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            status, response = self._chase(conn)
            assert status == 200 and response["ok"]
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "headers",
        [
            [("Content-Length", "abc")],
            [("Content-Length", "-1")],
            [("Content-Length", "2"), ("Content-Length", "3")],
            [("Transfer-Encoding", "chunked")],
        ],
        ids=["non-numeric", "negative", "conflicting", "chunked"],
    )
    def test_unframeable_body_is_400_and_closes(self, live, headers):
        conn = self._connect(live)
        try:
            conn.putrequest("POST", "/v1/chase")
            for name, value in headers:
                conn.putheader(name, value)
            conn.endheaders(b"2\r\n{}\r\n0\r\n\r\n")
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            error = json.loads(response.read())["error"]
            assert error["type"] == "ServiceRequestError"
            assert error["kind"] == "invalid"
            status, response = self._chase(conn)
            assert status == 200 and response["ok"]
        finally:
            conn.close()

    def test_oversized_body_is_413_and_never_read(self, live):
        conn = self._connect(live)
        try:
            conn.putrequest("POST", "/v1/chase")
            conn.putheader("Content-Length", str(_Handler.MAX_BODY + 1))
            # Were the declared body read as the next request, this line
            # would get a reply of its own.
            conn.endheaders(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            response = conn.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["op"] == "chase"
            status, response = self._chase(conn)
            assert status == 200 and response["ok"]
        finally:
            conn.close()


class TestAbandonedBody:
    """A request whose declared body never fully arrives frees its thread.

    Each client sends headers declaring 100 bytes and then 5 of them.
    The server closes the connection without a reply, prints no
    traceback, and answers the next connection.
    """

    @staticmethod
    def _partial_request(live):
        sock = socket.create_connection(live.server.server_address, timeout=5)
        sock.sendall(
            b"POST /v1/chase HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n{\"map"
        )
        return sock

    @staticmethod
    def _assert_still_serving(live, capfd):
        status, response = live.post("/v1/chase", _body())
        assert status == 200 and response["ok"]
        assert "Traceback" not in capfd.readouterr().err

    def test_stalled_body_closes_without_reply(self, live, monkeypatch, capfd):
        monkeypatch.setattr(_Handler, "BODY_TIMEOUT", 0.2)
        sock = self._partial_request(live)
        try:
            started = time.perf_counter()
            assert sock.recv(1024) == b""
            assert time.perf_counter() - started < 3
        finally:
            sock.close()
        self._assert_still_serving(live, capfd)

    def test_body_cut_short_by_close_gets_no_reply(
        self, live, monkeypatch, capfd
    ):
        monkeypatch.setattr(_Handler, "BODY_TIMEOUT", 0.2)
        sock = self._partial_request(live)
        try:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1024) == b""
        finally:
            sock.close()
        self._assert_still_serving(live, capfd)

    def test_broken_connections_are_dropped_quietly(self, live, capfd):
        try:
            raise BrokenPipeError("client went away")
        except BrokenPipeError:
            live.server.handle_error(None, ("127.0.0.1", 0))
        assert capfd.readouterr().err == ""
        try:
            raise RuntimeError("handler bug")
        except RuntimeError:
            live.server.handle_error(None, ("127.0.0.1", 0))
        assert "RuntimeError: handler bug" in capfd.readouterr().err


class TestRequestTracing:
    """End-to-end trace propagation over the wire (ISSUE 9 tentpole)."""

    def _traced(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(str(tmp_path / "runs.db"))
        service = ExchangeService(
            _FakePool(),
            cache_dir=str(tmp_path / "cache"),
            registry=registry,
        )
        return _LiveServer(service), registry

    def test_client_request_id_echoed_and_recorded(self, tmp_path):
        server, registry = self._traced(tmp_path)
        try:
            status, headers, response = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "r1"}
            )
        finally:
            server.close()
        assert status == 200 and response["ok"]
        assert headers["X-Repro-Request-Id"] == "r1"
        (row,) = registry.list_runs(limit=10)
        assert row.op == "serve.chase"
        assert row.request_id == "r1"
        assert row.trace_id

    def test_request_id_minted_when_absent(self, live):
        status, headers, _ = live.post_raw("/v1/chase", _body())
        assert status == 200
        assert headers["X-Repro-Request-Id"].startswith("req-")

    def test_header_echoed_on_error_replies(self, live):
        status, headers, _ = live.post_raw(
            "/v1/frobnicate", _body(),
            headers={"X-Repro-Request-Id": "r-err"},
        )
        assert status == 404
        assert headers["X-Repro-Request-Id"] == "r-err"

    def test_registry_row_reconstructs_the_span_tree(self, tmp_path):
        from repro.obs import render_span_tree, spans_from_payload

        server, registry = self._traced(tmp_path)
        try:
            server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "r1"}
            )
        finally:
            server.close()
        (row,) = registry.list_runs(limit=10)
        spans = row.metrics["spans"]
        state = spans_from_payload(spans)
        by_name = {span.name: span for span in state.spans}
        service_span = by_name["service.chase"]
        worker_span = by_name["worker.chase"]
        assert service_span.parent_id is None
        assert worker_span.parent_id == service_span.span_id
        assert all(span.request_id == "r1" for span in state.spans)
        tree = render_span_tree(state)
        assert tree.splitlines()[0].startswith("service.chase")
        assert "worker.chase" in tree

    def test_cached_replay_stays_json_safe(self, tmp_path):
        server, registry = self._traced(tmp_path)
        try:
            first = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "a"}
            )
            second = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "b"}
            )
        finally:
            server.close()
        # Replay serves the same result under the new request id; the
        # worker trace never leaks into the client-visible payload.
        assert first[2]["instance"] == second[2]["instance"]
        assert second[1]["X-Repro-Request-Id"] == "b"
        assert "trace" not in second[2]
        rows = registry.list_runs(limit=10)
        assert [row.request_id for row in rows] == ["b", "a"]
