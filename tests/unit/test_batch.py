"""Unit tests for the multi-query batch API."""

import pytest

from repro.engine import BatchExecutor, BatchResult, make_engine
from repro.errors import SequenceError
from repro.io import generate_query
from repro.io.database import SequenceDatabase


@pytest.fixture(scope="module")
def queries(tiny_spec):
    return [
        (f"q{i}", generate_query(120 + 20 * i, tiny_spec, query_seed=i))
        for i in range(3)
    ]


@pytest.fixture(autouse=True)
def _witnessed(lock_witness):
    """Executor tests run under the runtime lock witness."""


def run_batch(queries, db, params, jobs=1) -> BatchResult:
    return BatchExecutor(make_engine("cublastp", params), jobs=jobs).run(queries, db)


class TestBatchSearch:
    def test_results_in_input_order(self, queries, tiny_db, tiny_params):
        batch = run_batch(queries, tiny_db, tiny_params)
        assert [qid for qid, _ in batch.results] == ["q0", "q1", "q2"]
        assert len(batch) == 3

    def test_matches_individual_searches(self, queries, tiny_db, tiny_params):
        from repro.cublastp import CuBlastp

        batch = run_batch(queries, tiny_db, tiny_params)
        for qid, seq in queries:
            solo = CuBlastp(seq, tiny_params).search(tiny_db)
            got = batch.result_for(qid)
            assert [(a.seq_id, a.score) for a in got.alignments] == [
                (a.seq_id, a.score) for a in solo.alignments
            ]

    def test_result_for_missing(self, queries, tiny_db, tiny_params):
        batch = run_batch(queries[:1], tiny_db, tiny_params)
        with pytest.raises(KeyError):
            batch.result_for("nope")

    def test_summary_lines(self, queries, tiny_db, tiny_params):
        batch = run_batch(queries, tiny_db, tiny_params)
        text = batch.summary()
        assert len(text.splitlines()) == 4  # header + one per query
        assert "q2" in text

    def test_total_reported(self, queries, tiny_db, tiny_params):
        batch = run_batch(queries, tiny_db, tiny_params)
        assert batch.total_reported == sum(
            r.num_reported for _, r in batch.results
        )

    def test_empty_batch(self, tiny_db, tiny_params):
        batch = run_batch([], tiny_db, tiny_params)
        assert len(batch) == 0
        assert isinstance(batch, BatchResult)

    def test_jobs_match_serial(self, queries, tiny_db, tiny_params):
        serial = run_batch(queries, tiny_db, tiny_params)
        threaded = run_batch(queries, tiny_db, tiny_params, jobs=4)
        assert [qid for qid, _ in threaded.results] == [
            qid for qid, _ in serial.results
        ]
        for (_, a), (_, b) in zip(serial.results, threaded.results):
            assert [(x.seq_id, x.score) for x in a.alignments] == [
                (x.seq_id, x.score) for x in b.alignments
            ]

    def test_bad_query_isolated(self, queries, tiny_db, tiny_params):
        bad = [("broken", "MK")] + list(queries)
        batch = run_batch(bad, tiny_db, tiny_params)
        assert [qid for qid, _ in batch.errors] == ["broken"]
        assert [qid for qid, _ in batch.results] == [qid for qid, _ in queries]

    def test_result_for_uses_index(self, queries, tiny_db, tiny_params):
        batch = run_batch(queries, tiny_db, tiny_params)
        assert "q1" in batch._by_id
        assert batch.result_for("q1") is batch._by_id["q1"].result


class _PoisonedEngine:
    """Reference engine that raises mid-run for one designated query id."""

    name = "poisoned"

    def __init__(self, params, poison_id):
        self._inner = make_engine("reference", params)
        self.params = params
        self.poison_id = poison_id

    def compile(self, query):
        return self._inner.compile(query)

    def run(self, compiled, db, query_id=None, events=None):
        if query_id == self.poison_id:
            raise RuntimeError("engine exploded mid-stream")
        return self._inner.run(compiled, db, query_id=query_id, events=events)


class TestExecutorErrorIsolation:
    """An engine raising mid-stream must not poison siblings or reorder."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_mid_stream_failure_is_isolated(self, queries, tiny_db, tiny_params, jobs):
        engine = _PoisonedEngine(tiny_params, poison_id="q1")
        executor = BatchExecutor(engine, jobs=jobs)
        outcomes = list(executor.stream(queries, tiny_db))
        assert [o.query_id for o in outcomes] == ["q0", "q1", "q2"]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, RuntimeError)
        assert outcomes[1].result is None

    def test_sibling_results_unperturbed_by_failure(self, queries, tiny_db, tiny_params):
        clean = BatchExecutor(make_engine("reference", tiny_params))
        expected = {
            o.query_id: [(a.seq_id, a.score) for a in o.result.alignments]
            for o in clean.stream(queries, tiny_db)
        }
        poisoned = BatchExecutor(_PoisonedEngine(tiny_params, poison_id="q1"), jobs=3)
        for o in poisoned.stream(queries, tiny_db):
            if o.query_id == "q1":
                continue
            assert [(a.seq_id, a.score) for a in o.result.alignments] == expected[
                o.query_id
            ]

    def test_all_queries_failing_still_streams_in_order(self, queries, tiny_db, tiny_params):
        engine = _PoisonedEngine(tiny_params, poison_id=None)
        engine.run = lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        executor = BatchExecutor(engine, jobs=2)
        outcomes = list(executor.stream(queries, tiny_db))
        assert [o.query_id for o in outcomes] == ["q0", "q1", "q2"]
        assert all(not o.ok for o in outcomes)


class TestExecutorEdgeCases:
    def test_empty_database_rejected_at_construction(self):
        with pytest.raises(SequenceError, match="at least one sequence"):
            SequenceDatabase.from_strings([])

    def test_empty_sequence_rejected(self):
        with pytest.raises(SequenceError, match="empty sequences"):
            SequenceDatabase.from_strings(["MKTAYI", ""])

    def test_single_residue_query_is_isolated_not_fatal(self, queries, tiny_db, tiny_params):
        executor = BatchExecutor(make_engine("reference", tiny_params))
        mixed = [queries[0], ("tiny", "M"), queries[1]]
        outcomes = list(executor.stream(mixed, tiny_db))
        assert [o.query_id for o in outcomes] == [queries[0][0], "tiny", queries[1][0]]
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "word length" in str(outcomes[1].error)

    def test_single_residue_subject_database_searchable(self, tiny_params):
        db = SequenceDatabase.from_strings(["M"])
        executor = BatchExecutor(make_engine("reference", tiny_params))
        [outcome] = list(executor.stream([("q", "MKTAYIAKQRQISFVKSHFSRQL")], db))
        assert outcome.ok
        assert outcome.result.num_hits == 0  # subject shorter than a word
        assert outcome.result.alignments == []
