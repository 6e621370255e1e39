"""Tests for word sizes, persistence, and the statistical validity of
reported E-values."""

import math

import numpy as np
import pytest

from repro.core import BlastpPipeline, SearchParams
from repro.cublastp import CuBlastp
from repro.errors import ConfigError
from repro.io import SequenceDatabase, generate_database
from repro.io.workloads import WorkloadSpec
from repro.matrices import BLOSUM62, ungapped_params
from tests.conftest import swept


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
