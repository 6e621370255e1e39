"""Unit tests for the engine layer: compiled queries, the engine
protocol, the batch executor, and the phase-event stream."""

import threading

import pytest

from repro.core import BlastpPipeline, SearchParams
from repro.engine import (
    BatchExecutor,
    CompiledQuery,
    Engine,
    EventLog,
    ReportingEngine,
    compile_query,
    compile_signature,
    make_engine,
)
from repro.errors import ConfigError
from repro.io import generate_query

from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def queries(tiny_spec):
    return [
        (f"q{i}", generate_query(120 + 20 * i, tiny_spec, query_seed=i))
        for i in range(3)
    ]


class TestCompiledQuery:
    def test_compile_matches_pipeline_build(self, tiny_query, tiny_params):
        compiled = compile_query(tiny_query, tiny_params)
        pipe = BlastpPipeline(tiny_query, tiny_params)
        assert (compiled.query_codes == pipe.query_codes).all()
        assert (compiled.pssm == pipe.pssm).all()
        assert (
            compiled.lookup.neighborhood.positions
            == pipe.lookup.neighborhood.positions
        ).all()

    def test_pipeline_accepts_compiled(self, tiny_query, tiny_params):
        compiled = compile_query(tiny_query, tiny_params)
        pipe = BlastpPipeline(compiled)
        # Structure sharing, not a rebuild.
        assert pipe.pssm is compiled.pssm
        assert pipe.lookup is compiled.lookup
        assert pipe.params is tiny_params

    def test_too_short_query_raises(self, tiny_params):
        with pytest.raises(ValueError):
            compile_query("MK", tiny_params)

    def test_dfa_lazy_and_cached(self, tiny_query, tiny_params):
        compiled = compile_query(tiny_query, tiny_params)
        assert compiled.dfa is compiled.dfa

    def test_with_params_shares_structures(self, tiny_query, tiny_params):
        import dataclasses

        compiled = compile_query(tiny_query, tiny_params)
        rebound = compiled.with_params(
            dataclasses.replace(tiny_params, evalue=1e-3)
        )
        assert rebound.lookup is compiled.lookup
        assert rebound.pssm is compiled.pssm
        # evalue here is the configured cutoff, compared to its own literal.
        assert rebound.params.evalue == 1e-3
        # The DFA cache is shared across rebindings.
        assert rebound.dfa is compiled.dfa

    def test_with_params_recompiles_on_signature_change(
        self, tiny_query, tiny_params
    ):
        import dataclasses

        compiled = compile_query(tiny_query, tiny_params)
        changed = dataclasses.replace(tiny_params, threshold=tiny_params.threshold + 2)
        assert compile_signature(changed) != compile_signature(tiny_params)
        rebound = compiled.with_params(changed)
        assert rebound.lookup is not compiled.lookup


ENGINE_SPECS = ["reference", "fsa", "ncbi", "cublastp", "cuda-blastp", "gpu-blastp"]


class TestEngineProtocol:
    @pytest.mark.parametrize("name", ENGINE_SPECS)
    def test_conformance(self, name, tiny_query, tiny_params, tiny_db):
        """Every engine satisfies the protocol and matches the reference."""
        engine = make_engine(name, tiny_params)
        assert isinstance(engine, Engine)
        compiled = engine.compile(tiny_query)
        assert isinstance(compiled, CompiledQuery)
        result = engine.run(compiled, tiny_db)
        expected = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        assert alignment_keys(result.alignments) == alignment_keys(
            expected.alignments
        )
        assert [a.midline for a in result.alignments] == [
            a.midline for a in expected.alignments
        ]

    @pytest.mark.parametrize("name", ENGINE_SPECS)
    def test_run_with_report(self, name, tiny_query, tiny_params, tiny_db):
        engine = make_engine(name, tiny_params)
        assert isinstance(engine, ReportingEngine)
        compiled = engine.compile(tiny_query)
        result, report = engine.run_with_report(compiled, tiny_db)
        assert result.num_reported == len(result.alignments)
        assert report is not None

    def test_shared_compiled_across_engines(self, tiny_query, tiny_params, tiny_db):
        """One CompiledQuery drives every implementation."""
        compiled = compile_query(tiny_query, tiny_params)
        results = [
            make_engine(name, tiny_params).run(compiled, tiny_db)
            for name in ENGINE_SPECS
        ]
        keys = [alignment_keys(r.alignments) for r in results]
        assert all(k == keys[0] for k in keys)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            make_engine("mystery")

    def test_cublastp_word_length_check(self, tiny_query):
        engine = make_engine("cublastp", SearchParams(word_length=4))
        with pytest.raises(ConfigError):
            engine.compile(tiny_query)

    def test_per_query_shim_still_works(self, tiny_query, tiny_params, tiny_db):
        """Old construction style is preserved (the thin-shim guarantee)."""
        from repro.cublastp import CuBlastp

        old_style = CuBlastp(tiny_query, tiny_params).search(tiny_db)
        engine = make_engine("cublastp", tiny_params)
        new_style = engine.run(engine.compile(tiny_query), tiny_db)
        assert alignment_keys(old_style.alignments) == alignment_keys(
            new_style.alignments
        )


class TestBatchExecutor:
    def test_parallel_matches_serial(self, queries, tiny_db, tiny_params):
        engine = make_engine("cublastp", tiny_params)
        serial = BatchExecutor(engine, jobs=1).run(queries, tiny_db)
        parallel = BatchExecutor(engine, jobs=4).run(queries, tiny_db)
        assert [qid for qid, _ in parallel.results] == [
            qid for qid, _ in serial.results
        ]
        for (_, a), (_, b) in zip(serial.results, parallel.results):
            assert alignment_keys(a.alignments) == alignment_keys(b.alignments)

    def test_streaming_preserves_input_order(self, queries, tiny_db, tiny_params):
        engine = make_engine("fsa", tiny_params)
        executor = BatchExecutor(engine, jobs=2)
        seen = [o.query_id for o in executor.stream(queries, tiny_db)]
        assert seen == [qid for qid, _ in queries]

    def test_error_isolation(self, queries, tiny_db, tiny_params):
        bad = queries[:1] + [("broken", "MK")] + queries[1:]
        engine = make_engine("cublastp", tiny_params)
        batch = BatchExecutor(engine, jobs=2).run(bad, tiny_db)
        assert len(batch) == len(bad)
        assert [qid for qid, _ in batch.errors] == ["broken"]
        assert isinstance(batch.errors[0][1], ValueError)
        assert [qid for qid, _ in batch.results] == [qid for qid, _ in queries]
        with pytest.raises(ValueError):
            batch.result_for("broken")

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            BatchExecutor(jobs=0)


class TestEventLog:
    def test_reference_pipeline_emits_counts(self, tiny_query, tiny_params, tiny_db):
        events = EventLog()
        pipe = BlastpPipeline(tiny_query, tiny_params, events=events)
        result = pipe.search(tiny_db)
        phases = [e.phase for e in events.ends(engine="reference")]
        assert phases == [
            "hit_detection",
            "ungapped_extension",
            "gapped_extension",
            "final_alignment",
        ]
        assert events.work_items("hit_detection") == result.num_hits
        assert events.work_items("final_alignment") == result.num_reported

    def test_reference_events_carry_the_query_id(self, tiny_query, tiny_params, tiny_db):
        """Per-query search is a one-query sweep; its block events are
        still attributed to the query, as every other phase's are."""
        events = EventLog()
        pipe = BlastpPipeline(tiny_query, tiny_params, events=events, query_id="q7")
        result = pipe.search(tiny_db)
        assert events.work_items("hit_detection", query_id="q7") == result.num_hits
        assert set(events.wall_breakdown(query_id="q7")) == {
            "hit_detection",
            "ungapped_extension",
            "gapped_extension",
            "final_alignment",
        }

    def test_cublastp_attributes_modelled_ms(self, tiny_query, tiny_params, tiny_db):
        from repro.cublastp import CuBlastp

        events = EventLog()
        _, report = CuBlastp(tiny_query, tiny_params, events=events).search_with_report(
            tiny_db
        )
        breakdown = events.breakdown(engine=CuBlastp.name)
        assert breakdown == report.breakdown
        assert events.modelled_ms(engine=CuBlastp.name) == pytest.approx(
            report.serial_ms
        )

    def test_start_end_pairing_and_order(self):
        events = EventLog()
        with events.phase("x", "p") as ev:
            ev["work_items"] = 7
        kinds = [(e.kind, e.seq) for e in events.events]
        assert kinds == [("start", 0), ("end", 1)]
        assert events.events[1].work_items == 7

    def test_thread_safety_of_emit(self):
        events = EventLog()

        def spam():
            for _ in range(200):
                # Thread-stress on the log itself; pairing is irrelevant here.
                events.emit("t", "p", "end", modelled_ms=1.0)

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(events) == 800
        assert sorted(e.seq for e in events.events) == list(range(800))

    def test_executor_shared_log_tags_queries(self, queries, tiny_db, tiny_params):
        events = EventLog()
        engine = make_engine("cublastp", tiny_params, events=events)
        BatchExecutor(engine, jobs=2).run(queries, tiny_db)
        tagged = {e.query_id for e in events.ends()}
        assert tagged == {qid for qid, _ in queries}
