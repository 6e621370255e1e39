"""Storage-layer identity: views, copies and mmap reloads search the same.

The tentpole guarantee of the zero-copy storage refactor — every engine
produces identical alignments whether it scans the original database, a
zero-copy view, a materialised copy of the same sequences, or an
mmap-reloaded file.
"""

import numpy as np
import pytest

from repro.baselines import FsaBlast
from repro.core import BlastpPipeline
from repro.cublastp import CuBlastp
from repro.io import DatabaseView, SequenceDatabase

from tests.conftest import alignment_keys

ENGINES = {
    "reference": lambda q, p: BlastpPipeline(q, p),
    "fsa": lambda q, p: FsaBlast(q, p),
    "cublastp": lambda q, p: CuBlastp(q, p),
}


@pytest.fixture(scope="module")
def half_view(small_db):
    """The first residue-balanced half of the database, as a view."""
    view = small_db.blocks(2)[0]
    assert isinstance(view, DatabaseView)
    assert np.shares_memory(view.codes, small_db.codes)
    return view


class TestViewVsCopyIdentity:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_engines_identical_on_view_and_copy(
        self, engine, small_query, small_params, half_view
    ):
        copy = SequenceDatabase(
            half_view.codes.copy(), half_view.offsets.copy(), half_view.identifiers
        )
        assert not np.shares_memory(copy.codes, half_view.codes)
        on_view = ENGINES[engine](small_query, small_params).search(half_view)
        on_copy = ENGINES[engine](small_query, small_params).search(copy)
        assert alignment_keys(on_view.alignments) == alignment_keys(on_copy.alignments)

    def test_view_ids_map_back_into_the_parent(
        self, small_query, small_params, small_db, half_view
    ):
        whole = FsaBlast(small_query, small_params).search(small_db)
        part = FsaBlast(small_query, small_params).search(half_view)
        whole_keys = set(alignment_keys(whole.alignments))
        for a in part.alignments:
            remapped = (half_view.start + a.seq_id, a.score, a.query_start, a.subject_start)
            key = alignment_keys([a])[0]
            fixed = (remapped[0],) + tuple(key[1:])
            assert fixed in whole_keys

    def test_mmap_reload_searches_identically(
        self, small_query, small_params, small_db, tmp_path
    ):
        path = tmp_path / "db.rpdb"
        small_db.save(path)
        reloaded = SequenceDatabase.load(path)
        a = CuBlastp(small_query, small_params).search(small_db)
        b = CuBlastp(small_query, small_params).search(reloaded)
        assert alignment_keys(a.alignments) == alignment_keys(b.alignments)

    def test_block_views_union_covers_whole_database_hits(
        self, small_query, small_params, small_db
    ):
        whole = FsaBlast(small_query, small_params).search(small_db)
        per_block = []
        for block in small_db.blocks(3):
            res = FsaBlast(small_query, small_params).search(block)
            for al in res.alignments:
                per_block.append(block.start + al.seq_id)
        # Every globally reported subject is found by exactly the block
        # that owns it (per-block statistics differ only through database
        # size, which the fixture pins via emulated_residues).
        assert {a.seq_id for a in whole.alignments} <= set(per_block)
