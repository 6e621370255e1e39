"""Property: the batched sweep is the union of per-query hit detection.

The db-sweep inversion rests on one claim — for every query in a batch,
:meth:`MultiQueryIndex.sweep_block` restricted to one query's tag yields
exactly the hits :func:`detect_hits` finds for that query alone (the tag
and the other three fields are decoded from the packed keys). These
properties pin the claim over the verify subsystem's workload families
(the same generators the pinned conformance corpus is drawn from), plus
the block-decomposition corollary the sweep driver relies on: hits of a
block partition, rebased, union to the whole-database hits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compiled import compile_query
from repro.seeding.multi_query import MultiQueryIndex
from repro.verify.cases import FAMILIES, build_case
from repro.verify.oracle import detect_hits
from tests.conftest import tagged_columns

# A workload case: one of the conformance families at an arbitrary seed.
cases = st.tuples(
    st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=2**32 - 1)
)
# A batch is 1-4 cases; the first case's database is searched by all the
# batch's queries (queries of different families stress asymmetric
# neighbourhood sizes in one merged table).
batches = st.lists(cases, min_size=1, max_size=4)


def _build_batch(draws):
    base = build_case(*draws[0])
    queries = [build_case(*d).query for d in draws]
    compiled = [compile_query(q, base.params) for q in queries]
    return base.db, compiled


def _hit_set(hits):
    return sorted(
        zip(
            np.asarray(hits.seq_id).tolist(),
            np.asarray(hits.query_pos).tolist(),
            np.asarray(hits.subject_pos).tolist(),
        )
    )


def _tagged_hit_set(tagged, index, q):
    query, seq_id, query_pos, subject_pos = tagged_columns(tagged, index.query_lengths)
    mine = query == q
    return sorted(
        zip(seq_id[mine].tolist(), query_pos[mine].tolist(), subject_pos[mine].tolist())
    )


class TestSweepEqualsPerQueryUnion:
    @settings(max_examples=25, deadline=None)
    @given(batches)
    def test_untagged_sweep_equals_per_query_hits(self, draws):
        db, compiled = _build_batch(draws)
        index = MultiQueryIndex.from_compiled(compiled)
        tagged = index.sweep_block(db, compiled[0].params.two_hit_window)
        total = 0
        for q, c in enumerate(compiled):
            solo = detect_hits(c.neighborhood, db)
            assert _tagged_hit_set(tagged, index, q) == _hit_set(solo)
            assert int(tagged.per_query[q]) == len(solo.seq_id)
            total += len(solo.seq_id)
        assert len(tagged) == total

    @settings(max_examples=15, deadline=None)
    @given(batches, st.integers(min_value=1, max_value=6))
    def test_block_union_equals_whole_database(self, draws, num_blocks):
        """Rebased per-block sweeps union to the one-shot sweep — the
        decomposition the blocked driver (and the process-backend block
        ownership) is built on."""
        db, compiled = _build_batch(draws)
        index = MultiQueryIndex.from_compiled(compiled)
        window = compiled[0].params.two_hit_window
        whole = index.sweep_block(db, window)
        pieces = []
        for block in db.blocks(min(num_blocks, len(db))):
            query, seq_id, query_pos, subject_pos = tagged_columns(
                index.sweep_block(block, window), index.query_lengths
            )
            base = getattr(block, "start", 0)  # blocks(1) is db itself
            pieces.extend(
                zip(
                    query.tolist(),
                    (seq_id + base).tolist(),
                    query_pos.tolist(),
                    subject_pos.tolist(),
                )
            )
        whole_set = sorted(zip(*(col.tolist() for col in tagged_columns(whole, index.query_lengths))))
        assert sorted(pieces) == whole_set

    @settings(max_examples=10, deadline=None)
    @given(cases)
    def test_single_query_batch_is_transparent(self, draw):
        """A batch of one must reduce exactly to per-query seeding."""
        case = build_case(*draw)
        compiled = [compile_query(case.query, case.params)]
        index = MultiQueryIndex.from_compiled(compiled)
        tagged = index.sweep_block(case.db, case.params.two_hit_window)
        assert _tagged_hit_set(tagged, index, 0) == _hit_set(
            detect_hits(compiled[0].neighborhood, case.db)
        )
        assert np.all(tagged_columns(tagged, index.query_lengths)[0] == 0)
