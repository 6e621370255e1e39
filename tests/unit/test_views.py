"""Unit tests for zero-copy database views and the vectorised gather."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.io import DatabaseView, SequenceDatabase


@pytest.fixture()
def db():
    return SequenceDatabase.from_strings(
        ["MKTAY", "AR", "NDCQEGHILK", "WWW", "CCGG"], ["a", "b", "c", "d", "e"]
    )


class TestView:
    def test_view_contents(self, db):
        v = db.view(1, 4)
        assert len(v) == 3
        assert [v.sequence_str(i) for i in range(3)] == ["AR", "NDCQEGHILK", "WWW"]
        assert v.identifiers == ["b", "c", "d"]

    def test_view_shares_codes_memory(self, db):
        v = db.view(1, 4)
        assert isinstance(v, DatabaseView)
        assert np.shares_memory(v.codes, db.codes)

    def test_view_offsets_rebased(self, db):
        v = db.view(2, 4)
        assert v.offsets[0] == 0
        assert int(v.offsets[-1]) == int(v.codes.size)

    def test_full_range_view_is_self(self, db):
        assert db.view(0, len(db)) is db

    def test_view_of_view_collapses_to_root(self, db):
        v = db.view(1, 5)
        vv = v.view(1, 3)
        assert (vv.start, len(vv)) == (2, 2)
        assert vv.sequence_str(0) == "NDCQEGHILK"
        assert np.shares_memory(vv.codes, db.codes)

    def test_identifier_delegation(self, db):
        v = db.view(3, 5)
        assert v.identifier(0) == "d"
        assert v.identifier(1) == "e"
        with pytest.raises(IndexError):
            v.identifier(2)

    def test_bad_bounds(self, db):
        with pytest.raises(SequenceError):
            db.view(3, 3)
        with pytest.raises(SequenceError):
            db.view(-1, 2)
        with pytest.raises(SequenceError):
            db.view(0, 6)

    def test_view_stats_match_slice(self, db):
        v = db.view(0, 2)
        st = v.stats()
        assert st.num_sequences == 2
        assert st.total_residues == 7

    def test_view_searchable_sequences_match_parent(self, db):
        v = db.view(1, 4)
        for i in range(len(v)):
            assert np.array_equal(v.sequence(i), db.sequence(v.start + i))


class TestSubsetPolicy:
    def test_contiguous_subset_is_view(self, db):
        sub = db.subset(np.array([1, 2, 3]))
        assert isinstance(sub, DatabaseView)
        assert np.shares_memory(sub.codes, db.codes)

    def test_single_index_subset_is_view(self, db):
        sub = db.subset(np.array([2]))
        assert isinstance(sub, DatabaseView)
        assert sub.sequence_str(0) == "NDCQEGHILK"

    def test_non_contiguous_subset_copies(self, db):
        sub = db.subset(np.array([3, 0]))
        assert not isinstance(sub, DatabaseView)
        assert not np.shares_memory(sub.codes, db.codes)
        assert [sub.sequence_str(i) for i in range(2)] == ["WWW", "MKTAY"]
        assert sub.identifiers == ["d", "a"]

    def test_empty_subset_raises(self, db):
        with pytest.raises(SequenceError, match="zero sequences"):
            db.subset(np.array([], dtype=np.int64))

    def test_out_of_range_subset(self, db):
        with pytest.raises(IndexError):
            db.subset(np.array([0, 5]))

    def test_gather_matches_per_sequence_loop(self, db):
        rng = np.random.default_rng(7)
        for _ in range(10):
            idx = rng.integers(0, len(db), size=rng.integers(1, 8))
            sub = db.subset(idx)
            expect = [db.sequence_str(int(i)) for i in idx]
            assert [sub.sequence_str(k) for k in range(len(sub))] == expect


class TestBlocksAndCaching:
    def test_blocks_are_views(self, db):
        for b in db.blocks(3):
            assert np.shares_memory(b.codes, db.codes)

    def test_blocks_cover_in_order(self, db):
        blocks = db.blocks(2)
        joined = [b.sequence_str(i) for b in blocks for i in range(len(b))]
        assert joined == [db.sequence_str(i) for i in range(len(db))]

    def test_block_bounds_properties(self, db):
        bounds = db.block_bounds(3)
        assert bounds[0] == 0 and bounds[-1] == len(db)
        assert np.all(np.diff(bounds) >= 1)

    def test_block_global_ids_partition_parent(self, db):
        ids = np.concatenate([np.arange(b.start, b.start + len(b)) for b in db.blocks(3)])
        assert np.array_equal(ids, np.arange(len(db)))

    def test_lengths_cached_and_readonly(self, db):
        first = db.lengths
        assert db.lengths is first
        with pytest.raises(ValueError):
            first[0] = 99

    def test_identifiers_not_copied_per_access(self, db):
        assert db.identifiers is db.identifiers

    def test_view_identifiers_lazy_and_cached(self, db):
        v = db.view(1, 3)
        assert v._identifiers is None  # not built yet
        ids = v.identifiers
        assert ids == ["b", "c"]
        assert v.identifiers is ids
