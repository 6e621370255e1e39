"""Unit tests for db-sweep batch mode: driver, executor, store blocks."""

import numpy as np
import pytest

from repro.core.pipeline import BlastpPipeline
from repro.core.sweep import (
    DEFAULT_BLOCK_RESIDUES,
    BlockSweep,
    num_sweep_blocks,
    search_batch_sweep,
)
from repro.engine.events import EventLog
from repro.engine.executor import BatchExecutor
from repro.engine.protocol import make_engine
from repro.io import generate_query
from repro.io.store import DatabaseStore
from repro.seeding.multi_query import MultiQueryIndex


@pytest.fixture(scope="module")
def batch_queries(tiny_spec):
    return [
        (f"q{i}", generate_query(n, tiny_spec))
        for i, n in enumerate((64, 120, 200))
    ]


@pytest.fixture(scope="module")
def per_query_results(batch_queries, tiny_db, tiny_params):
    engine = make_engine("cublastp", tiny_params)
    return [
        engine.run(engine.compile(q), tiny_db, query_id=qid)
        for qid, q in batch_queries
    ]


class TestSweepDriver:
    def test_matches_per_query_results(
        self, batch_queries, tiny_db, tiny_params, per_query_results
    ):
        pipes = [
            BlastpPipeline(q, tiny_params, query_id=qid) for qid, q in batch_queries
        ]
        outcomes = search_batch_sweep(pipes, tiny_db, block_residues=400)
        assert len(outcomes) == len(batch_queries)
        for (result, counts), expected in zip(outcomes, per_query_results):
            assert result == expected
            assert counts.num_hits == expected.num_hits
            assert counts.num_seeds == expected.num_seeds

    def test_empty_batch(self, tiny_db):
        assert search_batch_sweep([], tiny_db) == []

    def test_num_sweep_blocks(self, tiny_db):
        assert num_sweep_blocks(tiny_db) >= 1
        assert num_sweep_blocks(tiny_db, 1) == len(tiny_db)
        big = num_sweep_blocks(tiny_db, 10)
        assert big <= len(tiny_db)
        with pytest.raises(ValueError):
            num_sweep_blocks(tiny_db, 0)
        assert DEFAULT_BLOCK_RESIDUES > 0

    def test_preswept_blocks_build_no_index(
        self, batch_queries, tiny_db, tiny_params, per_query_results, monkeypatch
    ):
        """Blocks swept elsewhere (a pool's workers) only accumulate and
        finish here: the driver builds no index and cuts no blocks."""
        pipes = [
            BlastpPipeline(q, tiny_params, query_id=qid) for qid, q in batch_queries
        ]
        swept = list(BlockSweep.build(pipes, tiny_db, tiny_db.blocks(4)))

        def refuse(*_args, **_kwargs):
            raise AssertionError("the parent must not sweep")

        monkeypatch.setattr(MultiQueryIndex, "from_compiled", refuse)
        monkeypatch.setattr(type(tiny_db), "blocks", refuse)
        outcomes = search_batch_sweep(pipes, tiny_db, swept=swept)
        assert [result for result, _ in outcomes] == per_query_results


class TestExecutorSweepMode:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            BatchExecutor(mode="turbo")

    def test_bad_block_residues_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(mode="db-sweep", block_residues=0)

    def test_thread_sweep_matches_per_query(
        self, batch_queries, tiny_db, tiny_params, per_query_results
    ):
        ex = BatchExecutor(
            make_engine("cublastp", tiny_params), mode="db-sweep", block_residues=400
        )
        records = ex.run(batch_queries, tiny_db).records
        assert [r.ok for r in records] == [True] * len(batch_queries)
        assert [r.result for r in records] == per_query_results
        assert [r.query_id for r in records] == [qid for qid, _ in batch_queries]

    def test_thread_sweep_honours_block_residues(
        self, batch_queries, tiny_db, tiny_params, per_query_results, monkeypatch
    ):
        """An in-memory database is cut into ``block_residues`` blocks, not
        swept as one default-size block."""
        calls = []
        sweep_block = MultiQueryIndex.sweep_block

        def counting(self, block, window):
            calls.append(len(block))
            return sweep_block(self, block, window)

        monkeypatch.setattr(MultiQueryIndex, "sweep_block", counting)
        ex = BatchExecutor(
            make_engine("cublastp", tiny_params), mode="db-sweep", block_residues=400
        )
        records = ex.run(batch_queries, tiny_db).records
        assert [r.result for r in records] == per_query_results
        assert len(calls) == num_sweep_blocks(tiny_db, 400) > 1
        assert sum(calls) == len(tiny_db)

    @staticmethod
    def _sweep_events(backend, queries, db, params):
        log = EventLog()
        ex = BatchExecutor(
            make_engine("cublastp", params),
            mode="db-sweep",
            backend=backend,
            jobs=2,
            block_residues=400,
            events=log,
        )
        assert all(r.ok for r in ex.run(queries, db).records)
        return [(e.engine, e.phase, e.work_items, e.query_id) for e in log.events]

    @pytest.mark.parametrize("batch", [slice(None), slice(1)], ids=["batch", "one-query"])
    def test_sweep_events_match_across_backends(self, batch, batch_queries, tiny_db, tiny_params):
        queries = batch_queries[batch]
        thread = self._sweep_events("thread", queries, tiny_db, tiny_params)
        process = self._sweep_events("process", queries, tiny_db, tiny_params)
        # Blocks arrive in block order on both backends and phases 3–4
        # run in the parent, so the logs agree event for event.
        assert thread == process
        num_blocks = num_sweep_blocks(tiny_db, 400)
        phases = [phase for _, phase, _, _ in thread]
        assert phases.count("hit_detection") == num_blocks
        assert phases.count("ungapped_extension") == num_blocks
        assert phases.count("gapped_extension") == len(queries)
        assert {engine for engine, _, _, _ in thread} == {"cuBLASTP"}
        if len(queries) == 1:
            assert {qid for _, _, _, qid in thread} == {queries[0][0]}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fsa_sweep_matches_per_query(self, backend, batch_queries, tiny_db, tiny_params):
        """db-sweep runs the reference sweep whatever engine compiled the
        batch; an engine without a sweep of its own gets its own results."""
        engine = make_engine("fsa", tiny_params)
        per_query = BatchExecutor(engine).run(batch_queries, tiny_db).records
        swept = BatchExecutor(
            engine, mode="db-sweep", backend=backend, jobs=2, block_residues=400
        ).run(batch_queries, tiny_db).records
        assert [r.result for r in swept] == [r.result for r in per_query]

    def test_process_sweep_matches_per_query(
        self, batch_queries, tiny_db, tiny_params, per_query_results
    ):
        ex = BatchExecutor(
            make_engine("cublastp", tiny_params),
            mode="db-sweep",
            backend="process",
            jobs=2,
            block_residues=400,
        )
        records = ex.run(batch_queries, tiny_db).records
        assert [r.ok for r in records] == [True] * len(batch_queries)
        assert [r.result for r in records] == per_query_results

    def test_spawned_workers_match_thread_backend(
        self, batch_queries, tiny_db, tiny_params, monkeypatch
    ):
        """Spawned workers start with an empty neighbour table and fill
        their own rows; forked ones inherit the parent's. Same results."""
        import repro.engine.procpool as procpool

        monkeypatch.setattr(procpool, "default_start_method", lambda: "spawn")
        engine = make_engine("cublastp", tiny_params)
        threaded = BatchExecutor(engine, mode="db-sweep", block_residues=400)
        spawned = BatchExecutor(
            engine, mode="db-sweep", backend="process", jobs=2, block_residues=400
        )
        expected = threaded.run(batch_queries, tiny_db).records
        records = spawned.run(batch_queries, tiny_db).records
        assert [r.ok for r in records] == [True] * len(batch_queries)
        assert [r.result for r in records] == [r.result for r in expected]

    def test_compile_errors_stay_per_query(
        self, batch_queries, tiny_db, tiny_params, per_query_results
    ):
        """A query that cannot compile is excluded before the sweep; the
        rest of the batch completes normally."""
        bad = batch_queries[:1] + [("broken", "")] + batch_queries[1:]
        ex = BatchExecutor(
            make_engine("cublastp", tiny_params), mode="db-sweep", block_residues=400
        )
        records = ex.run(bad, tiny_db).records
        assert len(records) == len(bad)
        assert records[1].error is not None and records[1].query_id == "broken"
        good = [r for r in records if r.ok]
        assert [r.result for r in good] == per_query_results

    def test_jobs_clamped_on_process_backend(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ex = BatchExecutor(backend="process", jobs=8)
        assert ex.jobs == 2
        assert ex.requested_jobs == 8
        assert ex.jobs_clamped

    def test_thread_backend_unclamped(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        ex = BatchExecutor(backend="thread", jobs=8)
        assert ex.jobs == 8 and not ex.jobs_clamped

    def test_process_sweep_hands_its_respawn_budget_to_the_pool(
        self, batch_queries, tiny_db, tiny_params, monkeypatch
    ):
        import repro.engine.procpool as procpool

        budgets = []

        class RecordingPool(procpool.ProcessPool):
            def __init__(self, spec, jobs, **kwargs):
                budgets.append(kwargs.get("max_respawns"))
                super().__init__(spec, jobs, **kwargs)

        monkeypatch.setattr(procpool, "ProcessPool", RecordingPool)
        ex = BatchExecutor(
            make_engine("cublastp", tiny_params),
            mode="db-sweep",
            backend="process",
            block_residues=400,
            max_respawns=0,
        )
        assert all(r.ok for r in ex.run(batch_queries[:1], tiny_db).records)
        assert budgets == [0]


class TestStoreBlocks:
    def test_blocks_cached_per_partitioning(self, tiny_db, tmp_path):
        path = tmp_path / "tiny.rpdb"
        tiny_db.save(path)
        store = DatabaseStore()
        first = store.blocks(path, 4)
        assert len(first) == 4
        assert store.blocks(path, 4) is first  # cached
        assert store.blocks(path, 2) is not first  # different cut
        # Eviction drops the cached cut with the residency entry.
        store.evict(path)
        assert store.blocks(path, 4) is not first

    def test_blocks_cover_database(self, tiny_db, tmp_path):
        path = tmp_path / "tiny.rpdb"
        tiny_db.save(path)
        store = DatabaseStore()
        blocks = store.blocks(path, 3)
        assert sum(len(b) for b in blocks) == len(tiny_db)
