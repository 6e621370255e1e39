"""Unit tests for the process-pool backend.

Two layers under test:

* :class:`~repro.engine.procpool.ProcessPool` on synthetic task specs —
  crash isolation, respawn, requeue, dead-pool fail-fast (cheap specs, no
  search work);
* :class:`~repro.engine.executor.BatchExecutor` with
  ``backend="process"`` on real searches — inline equivalence, the
  temp-file spill path, per-query error isolation, and a worker killed
  mid-batch.
"""

import os
import time

import pytest

from repro.engine import (
    BatchExecutor,
    EngineSpec,
    EventLog,
    ProcessPool,
    RemoteTaskError,
    WorkerCrashError,
    database_path_for_workers,
    make_engine,
)
from repro.io import generate_query
from repro.io.database import SequenceDatabase
from repro.verify.canonical import result_digest


class EchoSpec:
    """Upper-cases strings; 'die' hard-kills the worker, 'raise' raises."""

    def setup(self):
        return {}

    def run(self, state, item):
        if item == "die":
            time.sleep(0.1)  # let the begin announcement flush
            os._exit(37)
        if item == "raise":
            raise ValueError(f"boom: {item}")
        return item.upper()


class BadSetupSpec:
    def setup(self):
        raise RuntimeError("no database here")

    def run(self, state, item):
        return item


class DelaySpec:
    """``(seconds, dies)`` tasks: sleep, then answer ``(seconds, pid)`` —
    or hard-kill the worker instead."""

    def setup(self):
        return {}

    def run(self, state, item):
        seconds, dies = item
        time.sleep(seconds)
        if dies:
            os._exit(37)
        return seconds, os.getpid()


class TestProcessPool:
    @pytest.fixture(autouse=True)
    def _witnessed(self, lock_witness):
        """Pool tests run under the runtime lock witness."""

    @pytest.fixture
    def make_pool(self):
        """Build pools that are shut down when the test ends (a pool lives
        until its owner calls ``shutdown``)."""
        built = []

        def make(*args, **kwargs):
            pool = ProcessPool(*args, **kwargs)
            built.append(pool)
            return pool

        yield make
        for pool in built:
            pool.shutdown()

    def test_results_in_input_order(self, make_pool):
        pool = make_pool(EchoSpec(), jobs=2)
        out = list(pool.run(iter(["a", "b", "c", "d", "e"])))
        assert [i for i, _, _ in out] == [0, 1, 2, 3, 4]
        assert [p for _, p, _ in out] == ["A", "B", "C", "D", "E"]

    def test_remote_exception_is_typed_and_isolated(self, make_pool):
        pool = make_pool(EchoSpec(), jobs=2)
        out = list(pool.run(iter(["a", "raise", "b"])))
        assert out[0][1] == "A" and out[2][1] == "B"
        err = out[1][2]
        assert isinstance(err, RemoteTaskError)
        assert err.exc_type == "ValueError"
        assert "boom" in str(err)

    def test_worker_crash_fails_only_inflight_task(self, make_pool):
        """A dying worker fails its in-flight task; everything else —
        including tasks queued behind the corpse — still completes."""
        tasks = ["a", "die", "b", "raise", "c", "d", "e", "f"]
        pool = make_pool(EchoSpec(), jobs=2)
        out = list(pool.run(iter(tasks)))
        assert [i for i, _, _ in out] == list(range(len(tasks)))
        for index, payload, error in out:
            task = tasks[index]
            if task == "die":
                assert isinstance(error, WorkerCrashError)
            elif task == "raise":
                assert isinstance(error, RemoteTaskError)
            else:
                assert error is None and payload == task.upper()

    def test_single_worker_respawns_after_crash(self, make_pool):
        pool = make_pool(EchoSpec(), jobs=1)
        out = list(pool.run(iter(["x", "die", "y"])))
        assert out[0][1] == "X"
        assert isinstance(out[1][2], WorkerCrashError)
        assert out[2][1] == "Y"  # the respawned worker finished the batch

    def test_dead_pool_fails_fast(self, make_pool):
        """Setup that always fails must exhaust the respawn budget and
        fail the stream, not hang."""
        pool = make_pool(BadSetupSpec(), jobs=2, max_respawns=1)
        t0 = time.time()
        out = list(pool.run(iter(["a", "b", "c", "d"])))
        assert time.time() - t0 < 30
        assert len(out) == 4
        assert all(
            isinstance(e, (WorkerCrashError, RemoteTaskError)) for _, _, e in out
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ProcessPool(EchoSpec(), jobs=0)

    def test_backpressure_bounds_tasks_in_flight(self, make_pool):
        """Never more than ``2 * jobs`` tasks are dispatched-unanswered,
        and a stalled consumer pulls nothing further from the stream."""
        jobs = 2
        pool = make_pool(DelaySpec(), jobs=jobs)
        in_flight_at_pull = []

        def tasks():
            for _ in range(12):
                in_flight_at_pull.append(len(pool._items))
                yield (0.02, False)

        stream = pool.run(tasks())
        assert next(stream)[0] == 0
        pulled = len(in_flight_at_pull)
        time.sleep(0.3)  # the consumer stalls; workers drain what they hold
        assert len(in_flight_at_pull) == pulled < 12
        assert len(pool._items) <= 2 * jobs
        assert [i for i, _, _ in stream] == list(range(1, 12))
        # One more is pulled only while under the cap, and the cap is reached.
        assert max(in_flight_at_pull) == 2 * jobs - 1

    def test_crash_fails_the_started_task_and_requeues_each_queued_one(self, make_pool):
        """A worker killed with one task started and two queued behind it
        fails exactly the started one; each queued task is re-sent on its
        own to the surviving sibling, and emission stays in input order."""
        tasks = [
            (0.8, True),   # 0 -> slot 0: started, dies late
            (1.2, False),  # 1 -> slot 1: keeps the sibling loaded
            (0.1, True),   # 2 -> slot 2: dies first ...
            (0.0, False),  # 3 -> slot 0, queued
            (0.0, False),  # 4 -> slot 1, queued
            (0.0, False),  # 5 -> slot 2: ... so this requeues onto slot 0
        ]
        pool = make_pool(DelaySpec(), jobs=3, max_respawns=0)
        out = list(pool.run(iter(tasks)))
        assert [i for i, _, _ in out] == list(range(6))
        for index in (0, 2):
            assert isinstance(out[index][2], WorkerCrashError)
            assert f"query #{index} in flight" in str(out[index][2])
        survivors = [out[i] for i in (1, 3, 4, 5)]
        assert all(error is None for _, _, error in survivors)
        assert {pid for _, (_, pid), _ in survivors} == {out[1][1][1]}
        assert pool.alive_workers == 1

    def test_abandoned_stream_leaves_nothing_for_the_next_run(self, make_pool):
        """A stream dropped mid-flight: the next run discards the
        stragglers' answers and starts from clean state."""
        pool = make_pool(DelaySpec(), jobs=2)
        stream = pool.run(iter([(0.2, False)] * 4))
        assert next(stream)[0] == 0
        stream.close()  # three tasks still dispatched-unanswered
        assert pool._items
        out = list(pool.run(iter([(0.0, False)] * 3)))
        assert [i for i, _, _ in out] == [0, 1, 2]
        assert [payload[0] for _, payload, _ in out] == [0.0, 0.0, 0.0]
        assert not pool._items
        assert not any(slot.pending or slot.started for slot in pool._slots)

    def test_workers_outlive_a_run_until_shutdown(self, make_pool):
        """A finished run leaves the workers warm for the next one; only
        ``shutdown`` stops them."""
        pool = make_pool(DelaySpec(), jobs=2)
        first = {pid for _, (_, pid), _ in pool.run(iter([(0.0, False)] * 4))}
        warm = set(pool.worker_pids())
        assert first <= warm and len(warm) == 2
        second = {pid for _, (_, pid), _ in pool.run(iter([(0.0, False)] * 4))}
        assert second <= warm
        pool.shutdown()
        assert pool.worker_pids() == []
        with pytest.raises(RuntimeError):
            list(pool.run(iter([(0.0, False)])))


@pytest.fixture(scope="module")
def proc_queries(tiny_spec):
    return [
        (f"q{i}", generate_query(100 + 30 * i, tiny_spec, query_seed=i))
        for i in range(4)
    ]


class TestDatabaseSpill:
    def test_in_memory_database_spills_to_binary(self, tiny_db):
        path, cleanup = database_path_for_workers(tiny_db)
        assert cleanup is not None
        try:
            assert path.suffix == ".rpdb" and path.exists()
            loaded = SequenceDatabase.load(path, mmap=True)
            assert len(loaded) == len(tiny_db)
            assert loaded.sequence_str(0) == tiny_db.sequence_str(0)
        finally:
            cleanup()
        assert not path.exists()

    def test_saved_binary_path_passes_through(self, tiny_db, tmp_path):
        saved = tmp_path / "db.rpdb"
        tiny_db.save(saved)
        path, cleanup = database_path_for_workers(saved)
        assert path == saved
        assert cleanup is None


class TestProcessBackendExecutor:
    def test_jobs1_matches_inline_execution(self, proc_queries, tiny_db, tiny_params):
        """backend='process', jobs=1 must reproduce the inline thread
        backend digest for digest — the marshalling is lossless."""
        engine = make_engine("reference", tiny_params)
        inline = BatchExecutor(engine, jobs=1).run(proc_queries, tiny_db)
        proc = BatchExecutor(engine, jobs=1, backend="process").run(
            proc_queries, tiny_db
        )
        assert [r.query_id for r in proc.records] == [
            r.query_id for r in inline.records
        ]
        for a, b in zip(inline.records, proc.records):
            assert a.ok and b.ok
            assert result_digest(a.result) == result_digest(b.result)

    def test_jobs2_order_and_digests(self, proc_queries, tiny_db, tiny_params):
        engine = make_engine("reference", tiny_params)
        inline = BatchExecutor(engine, jobs=1).run(proc_queries, tiny_db)
        proc = BatchExecutor(engine, jobs=2, backend="process").run(
            proc_queries, tiny_db
        )
        assert [r.index for r in proc.records] == [0, 1, 2, 3]
        for a, b in zip(inline.records, proc.records):
            assert result_digest(a.result) == result_digest(b.result)

    def test_query_error_is_isolated(self, proc_queries, tiny_db, tiny_params):
        engine = make_engine("reference", tiny_params)
        queries = list(proc_queries)
        queries.insert(2, ("bad", ""))  # shorter than the word length
        batch = BatchExecutor(engine, jobs=2, backend="process").run(
            queries, tiny_db
        )
        assert len(batch.errors) == 1
        assert batch.errors[0][0] == "bad"
        assert isinstance(batch.errors[0][1], RemoteTaskError)
        assert len(batch.results) == len(proc_queries)

    def test_events_cross_the_boundary(self, proc_queries, tiny_db, tiny_params):
        events = EventLog()
        engine = make_engine("reference", tiny_params)
        BatchExecutor(engine, jobs=1, backend="process", events=events).run(
            proc_queries[:2], tiny_db
        )
        wall = events.wall_breakdown()
        assert "hit_detection" in wall and wall["hit_detection"] > 0
        # Per-query attribution survives the re-emission.
        assert events.wall_breakdown(query_id="q0")

    @pytest.mark.parametrize("name", ["reference", "cublastp"])
    def test_both_backends_log_the_same_closing_events(
        self, name, proc_queries, tiny_db, tiny_params
    ):
        """The executor's log receives each query's closing events on the
        thread backend too, as it does from the workers — for an engine
        built without a log of its own."""

        def closing(backend):
            events = EventLog()
            engine = make_engine(name, tiny_params)
            BatchExecutor(engine, jobs=1, backend=backend, events=events).run(
                proc_queries[:2], tiny_db
            )
            return sorted(
                (e.engine, e.phase, e.work_items, e.query_id) for e in events.ends()
            )

        thread = closing("thread")
        assert thread and {q for *_, q in thread} == {"q0", "q1"}
        assert thread == closing("process")

    def test_worker_crash_mid_batch_preserves_siblings(
        self, tiny_db, tiny_params, monkeypatch
    ):
        """A query that hard-kills its worker is reported as a crash;
        every other query in the batch still succeeds, in input order."""
        import repro.engine.procpool as procpool

        orig_run = procpool.QueryTaskSpec.run

        def sabotaged(self, state, task):
            if task[0] == "kill":
                time.sleep(0.05)
                os._exit(41)
            return orig_run(self, state, task)

        monkeypatch.setattr(procpool.QueryTaskSpec, "run", sabotaged)
        seq = "ACDEFGHIKLMNPQRSTVWY" * 5
        queries = [("q0", seq), ("kill", seq), ("q2", seq), ("q3", seq)]
        engine = make_engine("reference", tiny_params)
        batch = BatchExecutor(engine, jobs=2, backend="process").run(
            queries, tiny_db
        )
        assert [r.query_id for r in batch.records] == ["q0", "kill", "q2", "q3"]
        crash = batch.records[1]
        assert isinstance(crash.error, WorkerCrashError)
        others = [batch.records[0], batch.records[2], batch.records[3]]
        assert all(r.ok for r in others)
        # Identical queries must produce identical results regardless of
        # which worker (original or respawned) ran them.
        digests = {result_digest(r.result) for r in others}
        assert len(digests) == 1


class TestEngineSpec:
    def test_from_engine_round_trip(self, tiny_params):
        for name in ("reference", "fsa", "ncbi", "cublastp"):
            engine = make_engine(name, tiny_params)
            spec = EngineSpec.from_engine(engine)
            assert spec.name == name
            rebuilt = spec.build()
            assert type(rebuilt) is type(engine)

    def test_hand_rolled_engine_is_rejected(self):
        class NotAnEngine:
            pass

        with pytest.raises(TypeError):
            EngineSpec.from_engine(NotAnEngine())
