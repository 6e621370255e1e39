"""Tests for ungapped-only mode, length adjustment, word sizes, persistence,
and the statistical validity of reported E-values."""

import dataclasses
import math

import numpy as np
import pytest

from repro.baselines import FsaBlast
from repro.core import BlastpPipeline, SearchParams
from repro.cublastp import CuBlastp
from repro.engine import make_engine
from repro.errors import ConfigError
from repro.io import SequenceDatabase, generate_database
from repro.io.workloads import WorkloadSpec
from repro.matrices import BLOSUM62, ungapped_params
from repro.matrices.karlin import effective_search_space, length_adjustment
from repro.verify.canonical import result_digest
from tests.conftest import swept


class TestUngappedOnly:
    def test_reports_hsp_without_gaps(self, tiny_query, tiny_db, tiny_params):
        params = dataclasses.replace(tiny_params, ungapped_only=True)
        result = BlastpPipeline(tiny_query, params).search(tiny_db)
        assert result.num_reported >= 1
        for a in result.alignments:
            assert a.gaps == 0
            assert "-" not in a.aligned_query
            assert a.length == a.query_end - a.query_start + 1

    def test_uses_ungapped_statistics(self, tiny_query, tiny_db, tiny_params):
        params = dataclasses.replace(tiny_params, ungapped_only=True)
        pipe = BlastpPipeline(tiny_query, params)
        result = pipe.search(tiny_db)
        cut = pipe.cutoffs(tiny_db)
        best = result.best()
        assert best.evalue == pytest.approx(
            cut.ungapped.evalue(best.score, pipe.query_length, cut.effective_db_residues)
        )

    def test_scores_bounded_by_gapped_mode(self, tiny_query, tiny_db, tiny_params):
        gapped = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        ung = BlastpPipeline(
            tiny_query, dataclasses.replace(tiny_params, ungapped_only=True)
        ).search(tiny_db)
        if gapped.best() and ung.best():
            assert ung.best().score <= gapped.best().score

    def test_cublastp_matches_reference_in_ungapped_mode(
        self, small_query, small_params, small_db
    ):
        """Every ungapped-mode entry point renders the reference's HSPs,
        the timed and reporting ones included."""
        params = dataclasses.replace(small_params, ungapped_only=True)
        ref = BlastpPipeline(small_query, params).search(small_db)
        assert ref.alignments and all(a.gaps == 0 for a in ref.alignments)
        fsa_timed, _, counts = FsaBlast(small_query, params).search_with_timing(small_db)
        ncbi = make_engine("ncbi", params)
        ncbi_reported, _ = ncbi.run_with_report(ncbi.compile(small_query), small_db)
        for got in (
            FsaBlast(small_query, params).search(small_db),
            fsa_timed,
            ncbi_reported,
            CuBlastp(small_query, params).search(small_db),
        ):
            assert result_digest(got) == result_digest(ref)
        assert counts.num_gapped_triggers == counts.num_gapped_extensions == 0


class TestWordSizes:
    @pytest.mark.parametrize("w", [2, 4])
    def test_reference_supports_other_word_sizes(self, w, tiny_db, tiny_query):
        threshold = {2: 9, 4: 13}[w]
        params = SearchParams(
            word_length=w, threshold=threshold, effective_db_residues=10**8
        )
        pipe = BlastpPipeline(tiny_query, params)
        result = pipe.search(tiny_db)
        assert result.num_hits > 0
        assert result.num_reported >= 1  # planted homologs still found

    def test_gpu_path_requires_w3(self, tiny_query):
        params = SearchParams(word_length=4, threshold=13)
        with pytest.raises(ConfigError, match="W=3"):
            CuBlastp(tiny_query, params)

    def test_smaller_word_more_hits(self, tiny_db, tiny_query):
        h3 = BlastpPipeline(tiny_query, SearchParams()).search(tiny_db).num_hits
        h4 = (
            BlastpPipeline(tiny_query, SearchParams(word_length=4, threshold=13))
            .search(tiny_db)
            .num_hits
        )
        assert h4 < h3


class TestLengthAdjustment:
    def test_positive_for_real_search_spaces(self):
        p = ungapped_params(BLOSUM62)
        ell = length_adjustment(p, 517, 10**8, 300_000)
        assert 20 < ell < 120

    def test_grows_with_search_space(self):
        p = ungapped_params(BLOSUM62)
        small = length_adjustment(p, 517, 10**6, 3_000)
        big = length_adjustment(p, 517, 10**9, 3_000_000)
        assert big > small

    def test_effective_space_below_raw(self):
        p = ungapped_params(BLOSUM62)
        eff = effective_search_space(p, 517, 10**8, 300_000)
        assert eff < 517 * 10**8
        assert eff > 0

    def test_clamped_for_tiny_query(self):
        p = ungapped_params(BLOSUM62)
        ell = length_adjustment(p, 25, 10**8, 300_000)
        assert 0 <= ell <= 24

    def test_invalid_inputs(self):
        p = ungapped_params(BLOSUM62)
        with pytest.raises(ValueError):
            length_adjustment(p, 0, 100, 10)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_db, tmp_path):
        path = tmp_path / "db.rpdb"
        tiny_db.save(path)
        back = SequenceDatabase.load(path)
        assert np.array_equal(back.codes, tiny_db.codes)
        assert np.array_equal(back.offsets, tiny_db.offsets)
        assert back.identifiers == tiny_db.identifiers

    def test_loaded_db_searchable(self, tiny_db, tiny_query, tiny_params, tmp_path):
        path = tmp_path / "db.rpdb"
        tiny_db.save(path)
        back = SequenceDatabase.load(path)
        a = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        b = BlastpPipeline(tiny_query, tiny_params).search(back)
        assert [(x.seq_id, x.score) for x in a.alignments] == [
            (x.seq_id, x.score) for x in b.alignments
        ]


class TestEvalueCalibration:
    """Statistical validation: chance HSP counts track Karlin-Altschul.

    On a homolog-free database, the expected number of ungapped HSPs
    scoring >= S is K*m*n*exp(-lambda*S). Seeded two-hit extension is a
    biased sampler of HSPs, so we only demand the right order of
    magnitude and the right exponential decay *rate* — which is what makes
    reported E-values meaningful.
    """

    @pytest.fixture(scope="class")
    def chance_scores(self):
        spec = WorkloadSpec(
            name="rand", num_sequences=400, mean_length=220,
            homolog_fraction=0.0, seed=21,
        )
        db = generate_database(spec)
        from repro.io import generate_query

        pipe = BlastpPipeline(generate_query(300, spec), SearchParams())
        cut = pipe.cutoffs(db)
        exts, _, _ = swept(pipe, db, cut)
        return pipe, db, np.array([e.score for e in exts])

    def test_decay_rate_matches_lambda(self, chance_scores):
        pipe, db, scores = chance_scores
        p = ungapped_params(BLOSUM62)
        # Regress log-counts of the exceedance curve over the *tail*
        # (s >= 24): below that, the fixed word-score floor of two-hit
        # seeds distorts the distribution; in the tail the Gumbel decay
        # emerges cleanly.
        s_lo, s_hi = 24, 38
        svals = np.arange(s_lo, s_hi + 1)
        counts = np.array([(scores >= s).sum() for s in svals], dtype=float)
        assert counts[0] > 100, "need enough chance HSPs to regress"
        valid = counts > 3
        slope = np.polyfit(svals[valid], np.log(counts[valid]), 1)[0]
        # Observed decay within 25 % of -lambda.
        assert slope == pytest.approx(-p.lam, rel=0.25)

    def test_exceedance_magnitude(self, chance_scores):
        pipe, db, scores = chance_scores
        p = ungapped_params(BLOSUM62)
        m, n = pipe.query_length, int(db.codes.size)
        s = 30
        expected = p.K * m * n * math.exp(-p.lam * s)
        observed = int((scores >= s).sum())
        # Order of magnitude: two-hit seeding under-samples maximal HSPs,
        # so observed sits below the Karlin prediction but within ~8x.
        assert expected / 8 < max(observed, 0.5) <= expected * 2
