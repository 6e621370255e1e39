"""Unit tests for search parameters, cutoffs, and the reference pipeline."""

import pytest

from repro.core import BlastpPipeline, SearchParams, resolve_cutoffs
from repro.core.statistics import bits_to_raw, raw_drop_from_bits
from repro.errors import ConfigError
from repro.io import SequenceDatabase
from repro.matrices import BLOSUM62, ungapped_params


class TestSearchParams:
    def test_defaults_are_blastp_standards(self):
        p = SearchParams()
        assert (p.word_length, p.threshold, p.two_hit_window) == (3, 11, 40)
        assert (p.gap_open, p.gap_extend) == (11, 1)
        # The configured cutoff round-trips exactly; not a computed statistic.
        assert p.evalue == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"word_length": 1},
            {"two_hit_window": 2},
            {"evalue": 0},
            {"gap_extend": 0},
            {"gap_open": -1},
            {"max_alignments": 0},
            {"max_alignments": -1},
            {"effective_db_residues": 0},
            {"effective_db_residues": -5},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SearchParams(**kwargs)


class TestCutoffs:
    def test_raw_cutoffs_for_defaults(self):
        c = resolve_cutoffs(SearchParams(), 517, 10**6)
        ug = ungapped_params(BLOSUM62)
        assert c.x_drop_ungapped == raw_drop_from_bits(7.0, ug)
        assert c.gap_trigger == bits_to_raw(22.0, ug)
        assert 10 <= c.x_drop_ungapped <= 20
        assert 38 <= c.gap_trigger <= 45
        assert c.x_drop_gapped == pytest.approx(15 * 0.6931 / 0.267, abs=1)

    def test_report_cutoff_grows_with_db(self):
        small = resolve_cutoffs(SearchParams(), 517, 10**5)
        big = resolve_cutoffs(SearchParams(), 517, 10**9)
        assert big.report_cutoff > small.report_cutoff

    def test_effective_db_residues_override(self):
        params = SearchParams(effective_db_residues=10**8)
        c = resolve_cutoffs(params, 517, 1000)
        ref = resolve_cutoffs(SearchParams(), 517, 10**8)
        assert c.report_cutoff == ref.report_cutoff
        assert c.effective_db_residues == 10**8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            resolve_cutoffs(SearchParams(), 0, 100)


class TestPipeline:
    def test_query_too_short_rejected(self):
        with pytest.raises(ValueError):
            BlastpPipeline("MK")

    def test_search_counts_consistent(self, tiny_pipeline, tiny_db):
        result, counts = tiny_pipeline.search_with_counts(tiny_db)
        assert counts.num_seeds <= counts.num_hits
        assert counts.num_ungapped_extensions <= counts.num_seeds
        assert counts.num_gapped_extensions <= counts.num_gapped_triggers
        assert counts.num_reported <= counts.num_gapped_extensions
        assert result.num_hits == counts.num_hits

    def test_seed_fraction_in_paper_band(self, small_pipeline, small_db):
        """§3.3: 5-11 % of hits survive to ungapped extension."""
        _, counts = small_pipeline.search_with_counts(small_db)
        ratio = counts.num_seeds / counts.num_hits
        assert 0.03 <= ratio <= 0.13

    def test_alignments_sorted_by_score(self, tiny_pipeline, tiny_db):
        result = tiny_pipeline.search(tiny_db)
        scores = [a.score for a in result.alignments]
        assert scores == sorted(scores, reverse=True)

    def test_finds_planted_homologs(self, tiny_pipeline, tiny_db):
        result = tiny_pipeline.search(tiny_db)
        assert result.num_reported >= 1
        best = result.best()
        assert best.evalue < 1e-3
        assert best.identities / best.length > 0.3

    def test_deterministic(self, tiny_query, tiny_params, tiny_db):
        r1 = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        r2 = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        assert [(a.seq_id, a.score) for a in r1.alignments] == [
            (a.seq_id, a.score) for a in r2.alignments
        ]

    def test_max_alignments_cap(self, tiny_query, tiny_db, tiny_params):
        import dataclasses

        capped = dataclasses.replace(tiny_params, max_alignments=1)
        result = BlastpPipeline(tiny_query, capped).search(tiny_db)
        assert len(result.alignments) <= 1

    def test_alignment_coordinates_within_sequences(self, tiny_pipeline, tiny_db):
        result = tiny_pipeline.search(tiny_db)
        for a in result.alignments:
            assert 0 <= a.query_start <= a.query_end < tiny_pipeline.query_length
            slen = int(tiny_db.lengths[a.seq_id])
            assert 0 <= a.subject_start <= a.subject_end < slen

    def test_summary_strings(self, tiny_pipeline, tiny_db):
        result = tiny_pipeline.search(tiny_db)
        assert "hits=" in result.summary()

    def test_search_on_single_sequence_db(self, tiny_pipeline):
        db = SequenceDatabase.from_strings(["MKTAYIAKQRQISFVKSHFSRQ"])
        result = tiny_pipeline.search(db)  # should simply not crash
        assert result.db_sequences == 1
