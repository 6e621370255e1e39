"""Fault injection against the always-on service (process backend).

The serving contract under partial failure, exercised end to end:

* a request whose worker hard-dies mid-search fails *alone* — sibling
  requests queued behind the corpse requeue onto live/respawned workers
  and complete with correct results;
* the service survives every worker of the pool being killed (a full
  respawn) and keeps serving afterwards;
* a pool whose respawn budget is exhausted fails requests *fast* — over
  HTTP that is a bounded-time 503, never a hang;
* overload sheds with 429 at the HTTP layer while the backend is busy.

The kill switch is the same one the procpool unit tests use: sabotage
:meth:`QueryTaskSpec.run` to ``os._exit`` on a marker query id. The
default ``fork`` start method copies the patched module into workers, so
the sabotage rides along without any IPC.

Everything here spawns real worker processes and real sockets — marked
``slow`` (and ``serve``), excluded from tier-1.
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import WorkerCrashError, make_engine
from repro.io import generate_query
from repro.serve import SearchService, ServeHandle

pytestmark = [pytest.mark.serve, pytest.mark.slow]

#: Query id prefix the sabotaged worker entry point hard-exits on.
KILL = "kill"


@pytest.fixture(autouse=True)
def _witnessed(lock_witness):
    """Every fault-injection test runs under the runtime lock witness.

    Each test constructs (and closes) its own service, so all witnessed
    locks live and die inside the test body; teardown asserts the
    observed acquisition-order graph acyclic and the violation log empty.
    """


@pytest.fixture()
def sabotage(monkeypatch):
    """Patch QueryTaskSpec.run: any query id starting with 'kill' dies."""
    import repro.engine.procpool as procpool

    orig_run = procpool.QueryTaskSpec.run

    def sabotaged(self, state, task):
        if task[0].startswith(KILL):
            time.sleep(0.05)  # let the begin announcement flush
            os._exit(41)
        return orig_run(self, state, task)

    monkeypatch.setattr(procpool.QueryTaskSpec, "run", sabotaged)


@pytest.fixture(scope="module")
def db_path(tiny_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("servedb") / "tiny.rpdb"
    tiny_db.save(path)
    return path


@pytest.fixture(scope="module")
def queries(tiny_spec):
    return [
        generate_query(90 + 12 * i, tiny_spec, query_seed=300 + i) for i in range(6)
    ]


def make_service(db_path, **kwargs):
    """A process-backend per-query service (the crash-isolating config)."""
    defaults = dict(
        backend="process",
        mode="per-query",
        jobs=1,
        window_ms=20,
        max_batch=8,
        cache_capacity=0,  # every request must reach the pool
    )
    defaults.update(kwargs)
    return SearchService(db_path, engine=make_engine("reference"), **defaults)


class TestWorkerCrashIsolation:
    def test_only_inflight_query_fails_siblings_complete(
        self, sabotage, db_path, queries
    ):
        with make_service(db_path) as svc:
            futures = [svc.submit("a", queries[0]), svc.submit(KILL, queries[1])]
            futures += [svc.submit(f"s{i}", q) for i, q in enumerate(queries[2:])]
            outcomes = []
            for fut in futures:
                try:
                    outcomes.append(fut.result(timeout=240))
                except WorkerCrashError as exc:
                    outcomes.append(exc)
            assert isinstance(outcomes[1], WorkerCrashError)
            survivors = [o for i, o in enumerate(outcomes) if i != 1]
            assert [o.query_id for o in survivors] == ["a", "s0", "s1", "s2", "s3"]
        assert svc.stats.failed == 1
        assert svc.stats.completed == len(queries) - 1

    def test_service_survives_full_pool_respawn(self, sabotage, db_path, queries):
        """Kill every worker slot's process; the pool respawns and the
        service keeps answering with correct results."""
        with make_service(db_path, jobs=1, max_respawns=3) as svc:
            before = svc.search("warm", queries[0], timeout=240)
            pids_before = svc.worker_pids()
            assert pids_before  # warm pool is up
            for round_ in range(2):  # two full kill/respawn cycles
                with pytest.raises(WorkerCrashError):
                    svc.search(f"{KILL}-{round_}", queries[1], timeout=240)
            after = svc.search("warm-again", queries[0], timeout=240)
            pids_after = svc.worker_pids()
            assert pids_after
            assert set(pids_after).isdisjoint(pids_before)  # really respawned
            assert after.payload == before.payload  # same result post-respawn

    def test_crash_budget_carries_across_batches(self, sabotage, db_path, queries):
        """The warm pool's respawn budget is per-slot across the service's
        life: one more kill than the budget exhausts the pool."""
        with make_service(db_path, jobs=1, max_respawns=1) as svc:
            with pytest.raises(WorkerCrashError):
                svc.search(f"{KILL}-1", queries[0], timeout=240)
            # Budget spent; the next kill leaves no slot to respawn.
            with pytest.raises(WorkerCrashError):
                svc.search(f"{KILL}-2", queries[1], timeout=240)
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError):
                svc.search("after-death", queries[2], timeout=240)
            assert time.monotonic() - t0 < 30  # fail-fast, not a hang


def _post_search(port, query_id, sequence, timeout=240):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/search",
        data=json.dumps({"query_id": query_id, "sequence": sequence}).encode(),
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestHttpFaultSurface:
    def test_dead_pool_turns_into_bounded_503s(self, sabotage, db_path, queries):
        """Exhaust the respawn budget, then watch HTTP: every subsequent
        request is a prompt 503 — the server itself stays alive."""
        service = make_service(db_path, jobs=1, max_respawns=0)
        with ServeHandle(service) as handle:
            status, body = _post_search(handle.port, KILL, queries[0])
            assert status == 503
            assert json.loads(body)["error"] == "WorkerCrashError"
            t0 = time.monotonic()
            status2, _body2 = _post_search(handle.port, "after", queries[1])
            elapsed = time.monotonic() - t0
            assert status2 == 503
            assert elapsed < 30  # fail-fast contract: no hang
            # The HTTP plane is still healthy even with a dead backend.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200

    def test_overload_sheds_429_over_http(self, db_path, queries):
        """Saturate admission with a long window; excess requests get 429
        immediately (shed), not a queue slot."""
        service = make_service(
            db_path, window_ms=10_000, max_batch=64, max_pending=2
        )
        with ServeHandle(service) as handle:
            import threading

            # A completed first request primes the gap estimate: the burst
            # arrives well inside the 10 s window after it, so the policy
            # holds the admitted requests there instead of running them.
            status, _body = _post_search(handle.port, "prime", queries[0])
            assert status == 200
            results = []
            lock = threading.Lock()

            def fire(i):
                status, body = _post_search(
                    handle.port, f"load-{i}", queries[i % len(queries)]
                )
                with lock:
                    results.append((i, status, body))

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(5)]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            # The shed responses come back while admitted requests are
            # still parked in the 10s coalescing window.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    shed = [r for r in results if r[1] == 429]
                if len(shed) >= 3:
                    break
                time.sleep(0.05)
            assert len(shed) >= 3  # 2 admitted, the rest shed
            assert time.monotonic() - t0 < 30
            for _i, status, body in shed:
                assert json.loads(body)["error"] == "Overloaded"
            for t in threads:
                t.join(timeout=240)
