"""Unit tests for hit containers, diagonals, and two-hit seed selection."""

import numpy as np
import pytest

from repro.core import HitArray, diagonal_of
from repro.core.hits import KeyLayout
from repro.core.pipeline import phase_ungapped_tagged
from repro.core.two_hit import seed_mask
from repro.errors import ConfigError
from repro.io import SequenceDatabase
from repro.verify.oracle import detect_hits, tag_hits
from tests.conftest import seed_flags, swept


def make_hits(tuples, qlen):
    seq, qp, sp = (np.array(x, dtype=np.int64) for x in zip(*tuples)) if tuples else (
        np.zeros(0, dtype=np.int64),
    ) * 3
    return HitArray(seq_id=seq, query_pos=qp, subject_pos=sp, query_length=qlen)


class TestHitArray:
    def test_diagonal_definition(self):
        # Algorithm 1 line 6: diagonal = sub_pos - query_pos + query_length
        d = diagonal_of(np.array([3]), np.array([10]), 20)
        assert d.tolist() == [27]

    def test_diagonal_nonnegative_for_valid_hits(self):
        # query_pos <= query_length, so diagonals never go negative.
        d = diagonal_of(np.array([20]), np.array([0]), 20)
        assert d.tolist() == [0]

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            HitArray(
                seq_id=np.zeros(2, dtype=np.int64),
                query_pos=np.zeros(3, dtype=np.int64),
                subject_pos=np.zeros(2, dtype=np.int64),
                query_length=5,
            )


class TestSeedMask:
    """The pinned two-hit rule: a hit seeds iff some earlier hit on its
    diagonal lies within subject distance [W, window]."""

    W = 3
    WINDOW = 40

    def mask(self, tuples, qlen=50):
        return seed_flags(make_hits(tuples, qlen), self.WINDOW, self.W).tolist()

    def test_single_hit_never_seeds(self):
        assert self.mask([(0, 5, 10)]) == [False]

    def test_pair_within_window(self):
        assert self.mask([(0, 5, 10), (0, 15, 20)]) == [False, True]

    def test_pair_beyond_window(self):
        assert self.mask([(0, 0, 0), (0, 41, 41)], qlen=50) == [False, False]

    def test_pair_at_exact_window(self):
        assert self.mask([(0, 0, 0), (0, 40, 40)], qlen=50) == [False, True]

    def test_overlapping_words_do_not_seed(self):
        # distance 1 and 2 < W: one similarity region, not two matches.
        assert self.mask([(0, 0, 0), (0, 1, 1), (0, 2, 2)]) == [False, False, False]

    def test_run_seeds_at_distance_w(self):
        # 4th overlapping hit is W from the run start.
        tuples = [(0, i, i) for i in range(5)]
        assert self.mask(tuples) == [False, False, False, True, True]

    def test_predecessor_skips_overlapping_neighbors(self):
        # Neighbours at distance 1 and 2 don't seed, but the hit at
        # distance 22 (within window) does.
        tuples = [(0, 0, 0), (0, 20, 20), (0, 21, 21), (0, 22, 22)]
        assert self.mask(tuples) == [False, True, True, True]

    def test_different_diagonals_independent(self):
        tuples = [(0, 0, 0), (0, 1, 10)]  # diagonals 0 and 9
        assert self.mask(tuples) == [False, False]

    def test_different_sequences_independent(self):
        tuples = [(0, 0, 0), (1, 0, 10)]
        assert self.mask(tuples) == [False, False]

    def test_mask_alignment_with_unsorted_input(self):
        # Hits given out of order: mask must align with the input order.
        tuples = [(0, 15, 20), (0, 5, 10)]  # second is the earlier hit
        assert self.mask(tuples) == [True, False]

    def test_empty(self):
        assert self.mask([]) == []

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(5)
        n = 400
        tuples = [
            (int(rng.integers(0, 3)), int(q), int(rng.integers(0, 120)))
            for q in rng.integers(0, 40, n)
        ]
        # de-duplicate (seq, qpos, spos) triples
        tuples = sorted(set(tuples))
        got = self.mask(tuples, qlen=40)
        expect = []
        for s, q, p in tuples:
            d = p - q
            expect.append(
                any(
                    s2 == s and p2 - q2 == d and self.W <= p - p2 <= self.WINDOW
                    for (s2, q2, p2) in tuples
                )
            )
        assert got == expect


class TestPackedKeys:
    """The packed (query, seq, diagonal, subject_pos) key and its guards."""

    def test_positions_beyond_2_to_20_do_not_alias_groups(self):
        # Regression: the retired seed_mask flattened (seq, diag, spos) with
        # hard-coded, unchecked 2**20 strides. A subject position >= 2**20
        # carried into the diagonal field and a diagonal >= 2**20 into the
        # sequence field, so these sequence-0 keys interleaved with
        # sequence 1's, the binary search ran on an unsorted array, and the
        # genuine pair at distance 6 on one diagonal was lost.
        big = 1 << 20
        tuples = [(0, 40, big + 27), (0, 46, big + 33), (1, 4, 58), (1, 43, 7)]
        assert seed_flags(make_hits(tuples, 50), 40, 3).tolist() == [False, True, False, False]
        # Neighbouring diagonals out there stay separate groups.
        tuples = [(0, 0, big - 10), (0, 1, big + 20)]
        assert seed_flags(make_hits(tuples, 50), 40, 3).tolist() == [False, False]

    def test_widths_follow_the_stream_maxima(self):
        layout = KeyLayout.fit(3, 199, 2136, 1082, 40)
        assert (layout.seq_bits, layout.diag_bits, layout.pos_bits) == (8, 12, 11)
        fields = (np.array([0, 2, 3]), np.array([0, 199, 0]),
                  np.array([1, 2136, 0]), np.array([0, 1082, 0]))
        keys = layout.pack(*fields)
        assert np.all(np.diff(keys) > 0)  # query-major, then seq, diag, spos
        assert [f.tolist() for f in layout.unpack(keys)] == [f.tolist() for f in fields]
        assert layout.query_starts(3).tolist() == layout.pack([0, 1, 2, 3], 0, 0, 0).tolist()

    def test_key_wider_than_63_bits_is_refused(self):
        # 2**20 queries x 2**20 sequences x 2**12 diagonals x 2**12 positions.
        with pytest.raises(ConfigError, match="needs 64 bits"):
            KeyLayout.fit((1 << 20) - 1, (1 << 20) - 1, (1 << 12) - 1, (1 << 12) - 41, 40)
        KeyLayout.fit((1 << 19) - 1, (1 << 20) - 1, (1 << 12) - 1, (1 << 12) - 41, 40)

    def test_sweep_refuses_a_batch_whose_key_cannot_fit(self, tiny_pipeline):
        from repro.seeding.multi_query import MultiQueryIndex

        index = MultiQueryIndex.from_compiled([tiny_pipeline.compiled])
        db = SequenceDatabase.from_strings(["ARNDCQEGH"])
        with pytest.raises(ConfigError, match="> 63"):
            index.sweep_block(db, two_hit_window=1 << 62)

    def test_one_query_tagging_sorts_and_counts(self):
        hits = make_hits([(1, 0, 7), (0, 5, 3), (0, 1, 3)], 10)
        tagged = tag_hits(hits, 40)
        assert len(tagged) == 3 and tagged.per_query.tolist() == [3]
        _, seq, diag, spos = tagged.layout.unpack(tagged.keys)
        assert list(zip(seq.tolist(), diag.tolist(), spos.tolist())) == [
            (0, 8, 3), (0, 12, 3), (1, 17, 7),
        ]

    def test_mismatched_window_is_refused(self, tiny_pipeline, tiny_db, tiny_cutoffs):
        hits = detect_hits(tiny_pipeline.neighborhood, tiny_db)
        tagged = tag_hits(hits, tiny_pipeline.params.two_hit_window + 1)
        with pytest.raises(ConfigError, match="two-hit window"):
            phase_ungapped_tagged([tiny_pipeline], tagged, tiny_db, [tiny_cutoffs])


class TestSelectSeedsAndExtend:
    def test_coverage_skips_covered_seeds(self, tiny_pipeline, tiny_db, tiny_cutoffs):
        exts, _, num_seeds = swept(tiny_pipeline, tiny_db, tiny_cutoffs)
        assert 0 < len(exts) <= num_seeds
        # No two extensions on the same diagonal may overlap their seeds:
        by_diag = {}
        for e in exts:
            by_diag.setdefault((e.seq_id, e.subject_start - e.query_start), []).append(e)
        for group in by_diag.values():
            group.sort(key=lambda e: e.subject_start)
            # extensions are recorded in seed order; a later extension's
            # seed lay beyond the previous extension's subject end

    def test_extensions_contain_seed_word(self, tiny_pipeline, tiny_db, tiny_cutoffs):
        exts, _, _ = swept(tiny_pipeline, tiny_db, tiny_cutoffs)
        for e in exts:
            assert e.length >= tiny_pipeline.params.word_length

    def test_no_hits_no_extensions(self, tiny_pipeline, tiny_cutoffs):
        db = SequenceDatabase.from_strings(["PPPP"])  # poly-proline: no hits vs query
        hits = detect_hits(tiny_pipeline.neighborhood, db)
        tagged = tag_hits(hits, tiny_pipeline.params.two_hit_window)
        exts, seeds, bounds, per_query = phase_ungapped_tagged(
            [tiny_pipeline], tagged, db, [tiny_cutoffs]
        )
        assert seeds == 0 and len(exts) == 0
        assert bounds.tolist() == [0, 0] and per_query.tolist() == [0]
