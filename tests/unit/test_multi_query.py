"""Unit tests for the merged multi-query seeding index."""

import numpy as np
import pytest

from repro.core.statistics import SearchParams
from repro.engine.compiled import compile_query
from repro.errors import ConfigError
from repro.io import generate_query
from repro.seeding.multi_query import MultiQueryIndex
from repro.seeding.words import build_neighborhood
from repro.verify.oracle import detect_hits
from tests.conftest import tagged_columns

WINDOW = 40


@pytest.fixture(scope="module")
def batch(tiny_spec, tiny_params):
    queries = [generate_query(n, tiny_spec) for n in (64, 120, 200)]
    return [compile_query(q, tiny_params) for q in queries]


@pytest.fixture(scope="module")
def index(batch):
    return MultiQueryIndex.from_compiled(batch)


def _entries(index, word):
    """``(query_ids, query_positions)`` of one word's slice of the index."""
    lo, hi = index.offsets[word], index.offsets[word + 1]
    return index.query_ids[lo:hi], index.positions[lo:hi]


class TestBuild:
    def test_needs_at_least_one_query(self):
        with pytest.raises(ConfigError):
            MultiQueryIndex.build([])

    def test_rejects_mixed_word_lengths(self, tiny_query_codes):
        from repro.matrices import BLOSUM62

        n3 = build_neighborhood(tiny_query_codes, BLOSUM62, word_length=3)
        n2 = build_neighborhood(tiny_query_codes, BLOSUM62, word_length=2)
        with pytest.raises(ConfigError, match="word length"):
            MultiQueryIndex.build([n3, n2])

    def test_total_entries_is_sum_of_neighbourhoods(self, batch, index):
        assert index.total_entries == sum(
            c.neighborhood.total_entries for c in batch
        )
        assert index.num_queries == len(batch)
        assert index.query_lengths == [
            int(c.query_codes.size) for c in batch
        ]

    def test_entries_grouped_by_query_then_position(self, batch, index):
        """Inside one word's slice: batch order, ascending position per
        query (the merge keeps each neighbourhood's own order)."""
        checked = 0
        for word in range(index.offsets.size - 1):
            qids, positions = _entries(index, word)
            if qids.size == 0:
                continue
            assert np.all(np.diff(qids) >= 0)  # batch order
            for q in np.unique(qids):
                pos_q = positions[qids == q]
                assert np.all(np.diff(pos_q) > 0)  # strictly ascending
            checked += 1
            if checked >= 50:
                break
        assert checked > 0

    def test_per_word_entries_match_single_query_tables(self, batch, index):
        solo = [c.neighborhood for c in batch]
        for word in (0, 137, 2400):
            qids, positions = _entries(index, word)
            merged = [
                (int(q), int(p)) for q, p in zip(qids, positions)
            ]
            expected = []
            for q, nbr in enumerate(solo):
                lo, hi = nbr.offsets[word], nbr.offsets[word + 1]
                expected.extend((q, int(p)) for p in nbr.positions[lo:hi])
            assert merged == expected


class TestSweep:
    def test_untagged_sweep_equals_detect_hits(self, batch, index, tiny_db):
        tagged = index.sweep_block(tiny_db, WINDOW)
        query, seq_id, query_pos, subject_pos = tagged_columns(tagged, index.query_lengths)
        for q, c in enumerate(batch):
            solo = detect_hits(c.neighborhood, tiny_db)
            mine = query == q
            assert int(tagged.per_query[q]) == solo.seq_id.size
            # Same multiset of (seq, qpos, spos) triples.
            a = sorted(zip(seq_id[mine].tolist(), query_pos[mine].tolist(), subject_pos[mine].tolist()))
            b = sorted(zip(solo.seq_id.tolist(), solo.query_pos.tolist(), solo.subject_pos.tolist()))
            assert a == b
        assert len(tagged) == int(tagged.per_query.sum())
        # The stream is the sorted key stream phase 2 consumes: query-major.
        assert np.all(np.diff(tagged.keys) > 0)
        assert np.all(np.diff(query) >= 0)

    def test_sweep_of_block_view_is_local(self, batch, index, tiny_db):
        block = tiny_db.view(3, 9)
        tagged = index.sweep_block(block, WINDOW)
        if len(tagged):
            assert int(tagged_columns(tagged, index.query_lengths)[1].max()) < len(block)

    def test_empty_block_yields_empty_tagged(self, index):
        from repro.io.database import SequenceDatabase

        db = SequenceDatabase.from_strings(["AR"])  # shorter than W=3
        tagged = index.sweep_block(db, WINDOW)
        assert len(tagged) == 0
        assert tagged.per_query.tolist() == [0] * index.num_queries

    def test_word_length_mismatch_with_params(self, tiny_spec):
        """Batches compiled under W=2 sweep too (the index is W-agnostic)."""
        params = SearchParams(word_length=2, threshold=8)
        q = generate_query(50, tiny_spec)
        compiled = [compile_query(q, params)]
        index = MultiQueryIndex.from_compiled(compiled)
        assert index.word_length == 2


class TestUntag:
    def test_untag_is_a_zero_copy_slice_of_the_extension_stream(self, index):
        from repro.core.results import ExtensionArray

        n = np.arange(6, dtype=np.int64)
        stream = ExtensionArray(n, n, n + 4, n + 10, n + 14, n * 7)
        bounds = np.array([0, 2, 2, 6])
        parts = [index.untag(stream, bounds, q) for q in range(index.num_queries)]
        assert [p.score.tolist() for p in parts] == [[0, 7], [], [14, 21, 28, 35]]
        assert all(np.shares_memory(p.score, stream.score) for p in parts if len(p))
        with pytest.raises(IndexError):
            index.untag(stream, bounds, index.num_queries)
