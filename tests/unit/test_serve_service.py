"""Unit tests for the search service core and its HTTP front-end.

Thread backend, plus one process-backend db-sweep check (fast,
deterministic — tier-1); the process-backend fault story lives in
``tests/integration/test_serve_faults.py``.
"""

import asyncio
import json
import logging
import socket
import time
import urllib.error
import urllib.request

import pytest

from concurrent.futures import Future

from repro.engine.procpool import RemoteTaskError
from repro.serve import (
    OverloadedError,
    SearchService,
    ServeHandle,
    ServiceClosedError,
)
from repro.serve.http import SearchHttpServer, _HttpRequest
from repro.verify.canonical import payload_from_bytes, result_from_payload

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def queries(tiny_spec):
    from repro.io import generate_query

    return [generate_query(90 + 10 * i, tiny_spec, query_seed=50 + i) for i in range(6)]


class TestSearchService:
    @pytest.fixture(autouse=True)
    def _witnessed(self, lock_witness):
        """Each test's service runs under the runtime lock witness."""

    def test_results_match_direct_engine_run(self, tiny_db, tiny_query):
        from repro.engine import make_engine
        from repro.verify.canonical import result_digest

        with SearchService(tiny_db, backend="thread", window_ms=0) as svc:
            outcome = svc.search("q", tiny_query, timeout=120)
        result = result_from_payload(payload_from_bytes(outcome.payload))
        engine = make_engine("cublastp")
        direct = engine.run(engine.compile(tiny_query), tiny_db, query_id="q")
        assert result_digest(result) == result_digest(direct)

    def test_concurrent_burst_coalesces_and_keeps_order(self, tiny_db, queries):
        with SearchService(
            tiny_db, backend="thread", window_ms=50, max_batch=4
        ) as svc:
            futures = [
                svc.submit(f"q{i}", q) for i, q in enumerate(queries)
            ]
            outcomes = [f.result(timeout=120) for f in futures]
        assert [o.query_id for o in outcomes] == [f"q{i}" for i in range(6)]
        assert svc.coalescer.stats.batches >= 1
        assert svc.coalescer.stats.emitted == 6

    def test_per_query_error_isolated(self, tiny_db, tiny_query):
        with SearchService(
            tiny_db, backend="thread", window_ms=30, max_batch=8, mode="per-query"
        ) as svc:
            bad = svc.submit("bad", "X")  # too short to compile
            good = svc.submit("good", tiny_query)
            with pytest.raises(Exception):
                bad.result(timeout=120)
            assert good.result(timeout=120).query_id == "good"
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1

    def test_overload_sheds_with_429_semantics(self, tiny_db, queries):
        svc = SearchService(
            tiny_db, backend="thread", window_ms=5000, max_batch=64, max_pending=2
        )
        try:
            # Dispatcher not started: admissions stay pending deterministically.
            svc.submit("a", queries[0])
            svc.submit("b", queries[1])
            with pytest.raises(OverloadedError):
                svc.submit("c", queries[2])
            assert svc.stats.shed == 1
        finally:
            svc.close()

    def test_cache_hit_bypasses_admission(self, tiny_db, tiny_query):
        with SearchService(
            tiny_db, backend="thread", window_ms=0, max_batch=1, max_pending=1
        ) as svc:
            svc.search("warm", tiny_query, timeout=120)
        # Closed service still cannot take new work…
        with pytest.raises(ServiceClosedError):
            svc.submit("late", tiny_query)

    def test_close_pending_orders_cond_before_coalescer(
        self, tiny_db, tiny_query, queries, lock_witness
    ):
        # The first arrival primes the gap estimate: the second comes well
        # inside the long window, so the policy holds it in the coalescer
        # (alone, or with the first if the dispatcher has not taken that
        # yet) until close() flushes it while holding the service condition.
        with SearchService(tiny_db, backend="thread", window_ms=5000) as svc:
            prime = svc.submit("prime", queries[0])
            fut = svc.submit("pending", tiny_query)
        assert prime.result(timeout=120).query_id == "prime"
        assert fut.result(timeout=120).query_id == "pending"
        edges = {(e["src"], e["dst"]) for e in lock_witness.snapshot()["edges"]}
        assert ("SearchService._cond", "Coalescer._lock") in edges
        assert lock_witness.cycles() == []

    def test_close_fails_undispatched_requests(self, tiny_db, queries):
        svc = SearchService(tiny_db, backend="thread", window_ms=5000)
        gone = svc.submit("cancelled", queries[1])
        fut = svc.submit("stranded", queries[0])
        assert gone.cancel()
        svc.close()  # dispatcher never started
        with pytest.raises(ServiceClosedError):
            fut.result(timeout=10)

    def test_cancelled_request_does_not_stop_the_dispatcher(self, tiny_db, queries):
        svc = SearchService(tiny_db, backend="thread", window_ms=0)
        try:
            # Cancelled before the dispatcher starts, so it is still queued
            # when its batch is taken.
            gone = svc.submit("cancelled", queries[0])
            assert gone.cancel()
            svc.start()
            outcome = svc.submit("after", queries[1]).result(timeout=120)
            assert outcome.query_id == "after"
            assert svc._dispatcher.is_alive()
        finally:
            svc.close()
        assert svc.pending == 0  # the cancelled request's slot was released
        assert svc.stats.completed == 1
        assert svc.stats.failed == 0

    def test_lone_request_on_idle_service_is_not_held(self, tiny_db, tiny_query):
        # No arrival has come before it, so nothing predicts a companion:
        # the idle dispatcher takes it at once instead of waiting 5 s.
        with SearchService(tiny_db, backend="thread", window_ms=5000) as svc:
            t0 = time.monotonic()
            svc.search("lone", tiny_query, timeout=120)
            elapsed = time.monotonic() - t0
        assert elapsed < 2.5

    def test_stats_counters_exact_under_concurrent_cache_hits(
        self, tiny_db, tiny_query
    ):
        """Regression: stats updates are serialized under the service lock.

        The cache-hit path used to bump ``requests``/``cache_hits``/
        ``completed`` without holding ``_cond``; under a burst of
        concurrent hits the read-modify-write races lost increments.
        Counters must come out exact, not approximately right.
        """
        import threading

        hits = 24
        with SearchService(tiny_db, backend="thread", window_ms=0) as svc:
            svc.search("warm", tiny_query, timeout=120)
            base = svc.stats.requests
            threads = [
                threading.Thread(
                    target=svc.search, args=("warm", tiny_query), kwargs={"timeout": 120}
                )
                for _ in range(hits)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert svc.stats.requests == base + hits
            assert svc.stats.cache_hits == hits
            assert svc.stats.completed == base + hits

    def test_rejects_bad_configuration(self, tiny_db):
        with pytest.raises(ValueError):
            SearchService(tiny_db, window_ms=-1)
        with pytest.raises(ValueError):
            SearchService(tiny_db, max_pending=0)


class TestProcessSweepService:
    """``repro serve --backend process`` in its default db-sweep mode."""

    @pytest.fixture(autouse=True)
    def _witnessed(self, lock_witness):
        """The service runs under the runtime lock witness."""

    @staticmethod
    def _serve_two_batches(db, backend, queries):
        svc = SearchService(db, backend=backend, jobs=2, window_ms=50, cache_capacity=0)
        with svc:
            payloads = []
            for first in (0, 3):
                futures = [
                    svc.submit(f"q{i}", queries[i]) for i in range(first, first + 3)
                ]
                payloads += [f.result(timeout=120).payload for f in futures]
        return svc, payloads

    def test_batches_match_thread_backend_and_leave_no_worker(self, tiny_db, queries):
        import multiprocessing

        _, expected = self._serve_two_batches(tiny_db, "thread", queries)
        svc, payloads = self._serve_two_batches(tiny_db, "process", queries)
        assert svc.executor.mode == "db-sweep"
        assert svc.coalescer.stats.batches >= 2
        assert payloads == expected
        assert svc.executor.process_pool is None
        assert multiprocessing.active_children() == []


class TestHttpServer:
    @pytest.fixture(scope="class")
    def server(self, tiny_db):
        service = SearchService(
            tiny_db, backend="thread", window_ms=10, max_batch=8
        )
        with ServeHandle(service) as handle:
            yield handle

    @staticmethod
    def _post(handle, path, obj, timeout=120):
        req = urllib.request.Request(
            f"http://127.0.0.1:{handle.port}{path}",
            data=json.dumps(obj).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)

    @staticmethod
    def _get(handle, path, timeout=30):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{handle.port}{path}", timeout=timeout
        ) as resp:
            return resp.status, resp.read()

    def test_search_cold_then_hit_byte_identical(self, server, tiny_query):
        status, body, headers = self._post(
            server, "/search", {"query_id": "h1", "sequence": tiny_query}
        )
        assert status == 200
        assert headers["X-Cache"] == "MISS"
        status2, body2, headers2 = self._post(
            server, "/search", {"query_id": "h2", "sequence": tiny_query}
        )
        assert status2 == 200
        assert headers2["X-Cache"] == "HIT"
        assert body2 == body
        # The body is the canonical payload: it parses back to a result.
        result = result_from_payload(payload_from_bytes(body))
        assert result.query_length == len(tiny_query)

    def test_resolved_future_failures_keep_their_status(self):
        # A future that is done before the handler looks at it (a cache
        # hit is) is read without awaiting; a failure stored in one must
        # map to the status an awaited failure maps to.
        class Resolved:
            def __init__(self, exc):
                self.exc = exc

            def submit(self, query_id, sequence):
                future = Future()
                future.set_exception(self.exc)
                return future

        request = _HttpRequest(
            "POST", "/search", {}, json.dumps({"query_id": "q", "sequence": "MKT"}).encode()
        )
        for exc, expected in (
            (RemoteTaskError("ValueError", "boom"), 500),
            (ServiceClosedError("shut down"), 503),
        ):
            status, body, _ = asyncio.run(SearchHttpServer(Resolved(exc))._search(request))
            assert status == expected
            assert json.loads(body)["error"] == type(exc).__name__

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_hostile_content_length_400(self, server, length, caplog):
        # Used to raise ValueError out of handle_connection: an empty reply
        # and "Unhandled exception in client_connected_cb" in the log.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(
                    f"POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n".encode()
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert json.loads(body)["error"] == "BadRequest"
        assert not [r for r in caplog.records if r.name == "asyncio"]
        # The listener survived the bad connection.
        assert self._get(server, "/healthz")[0] == 200

    def test_healthz_and_stats(self, server):
        status, body = self._get(server, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = self._get(server, "/stats")
        payload = json.loads(body)
        assert payload["requests"] >= 1
        assert set(payload["cache"]) >= {"hits", "misses", "evictions"}

    def test_bad_request_bodies_400(self, server):
        for obj in ({}, {"query_id": "x"}, {"query_id": "x", "sequence": ""}):
            status, body, _ = self._post(server, "/search", obj)
            assert status == 400, obj
            assert json.loads(body)["error"] == "BadRequest"

    def test_unknown_route_404_known_route_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/search")  # GET on a POST route
        assert err.value.code == 405

    def test_keep_alive_connection_reuse(self, server, tiny_query):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            for i in range(3):
                conn.request(
                    "POST",
                    "/search",
                    json.dumps({"query_id": f"ka{i}", "sequence": tiny_query}),
                )
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_refresh_endpoint_reports_stamp(self, server):
        status, body, _ = self._post(server, "/admin/refresh-db", {})
        assert status == 200
        payload = json.loads(body)
        # In-memory database: no file stamp to watch, generation stays 0.
        assert payload == {"old": 0, "new": 0, "invalidated": 0}
