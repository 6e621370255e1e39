"""Unit tests for SEG low-complexity filtering and its pipeline hook."""

import dataclasses

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core import BlastpPipeline
from repro.seeding.seg import seg_mask, window_entropy
from repro.verify.oracle import detect_hits


class TestEntropy:
    def test_homopolymer_zero(self):
        ent = window_entropy(encode("A" * 20), 12)
        assert np.allclose(ent, 0.0)

    def test_two_letter_repeat_one_bit(self):
        ent = window_entropy(encode("ASASASASASAS"), 12)
        assert ent[0] == pytest.approx(1.0)

    def test_diverse_window_high_entropy(self):
        ent = window_entropy(encode("ARNDCQEGHILK"), 12)
        assert ent[0] == pytest.approx(np.log2(12))

    def test_short_sequence_empty(self):
        assert window_entropy(encode("ARND"), 12).size == 0

    def test_sliding_values(self):
        # AAAAAAAAAAAA then diversity: entropy rises as the window slides.
        ent = window_entropy(encode("A" * 12 + "RNDCQEGHILKM"), 12)
        assert ent[0] == 0.0
        assert np.all(np.diff(ent) >= -1e-12)


class TestMask:
    def test_homopolymer_fully_masked(self):
        mask = seg_mask(encode("A" * 30))
        assert mask.all()

    def test_random_protein_unmasked(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 20, 300).astype(np.uint8)
        assert seg_mask(codes).mean() < 0.05

    def test_low_complexity_island(self):
        rng = np.random.default_rng(2)
        flank = rng.integers(0, 20, 60).astype(np.uint8)
        seq = np.concatenate([flank, encode("PPPPPPPPPPPPPPPPPPPP"), flank])
        mask = seg_mask(seq)
        assert mask[60:80].all()  # the poly-proline island
        assert not mask[:40].any()  # flanks stay live
        assert not mask[-40:].any()

    def test_hysteresis_extends_past_trigger(self):
        # A strict 2-letter region around a homopolymer core: the core
        # triggers (entropy 0 < locut) and masking extends through the
        # 1-bit shoulder (entropy < hicut).
        seq = encode("ASASASAS" + "A" * 16 + "ASASASAS")
        mask = seg_mask(seq)
        assert mask.all()

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            seg_mask(encode("A" * 20), locut=3.0, hicut=2.0)

    def test_empty_sequence(self):
        assert seg_mask(np.zeros(0, dtype=np.uint8)).size == 0


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def lc_query(self):
        """A query with a low-complexity middle third."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 20, 60).astype(np.uint8)
        b = rng.integers(0, 20, 60).astype(np.uint8)
        from repro.alphabet import decode

        return decode(np.concatenate([a, encode("QQQQQQQQQQQQQQQQQQQQ"), b]))

    def test_seg_removes_low_complexity_seeding(self, lc_query, tiny_db, tiny_params):
        plain = BlastpPipeline(lc_query, tiny_params)
        seg = BlastpPipeline(lc_query, dataclasses.replace(tiny_params, seg=True))
        assert seg.seg_mask is not None and seg.seg_mask.any()
        # Fewer neighbourhood entries -> fewer hits.
        assert seg.neighborhood.total_entries < plain.neighborhood.total_entries
        h_plain = detect_hits(plain.neighborhood, tiny_db)
        h_seg = detect_hits(seg.neighborhood, tiny_db)
        assert len(h_seg) < len(h_plain)
        # No hit seeds inside the masked region.
        masked_pos = np.nonzero(seg.seg_mask)[0]
        assert not np.isin(h_seg.query_pos, masked_pos).any()

    def test_seg_keeps_real_alignments(self, tiny_query, tiny_db, tiny_params):
        """On a normal-complexity query, SEG changes (almost) nothing."""
        plain = BlastpPipeline(tiny_query, tiny_params).search(tiny_db)
        seg = BlastpPipeline(
            tiny_query, dataclasses.replace(tiny_params, seg=True)
        ).search(tiny_db)
        assert [(a.seq_id, a.score) for a in seg.alignments] == [
            (a.seq_id, a.score) for a in plain.alignments
        ]

    def test_gpu_path_consistent_with_seg(self, lc_query, tiny_db, tiny_params):
        """cuBLASTP inherits the masked neighbourhood via the shared DFA."""
        from repro.cublastp import CuBlastp

        params = dataclasses.replace(tiny_params, seg=True)
        ref = BlastpPipeline(lc_query, params).search(tiny_db)
        gpu = CuBlastp(lc_query, params).search(tiny_db)
        assert [(a.seq_id, a.score) for a in gpu.alignments] == [
            (a.seq_id, a.score) for a in ref.alignments
        ]
