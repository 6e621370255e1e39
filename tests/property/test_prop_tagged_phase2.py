"""Property: phase 2 on the query-tagged key stream is phase 2 per query.

The batched sweep keeps the query tag through two-hit seeding, ungapped
extension and the coverage rule, and cuts the result per query only at
the block boundary. Three claims carry that:

* **tagged ≡ per-query** — for every query of a batch and every block,
  the extension columns, hit count and seed count coming out of
  :func:`repro.core.sweep.sweep_extend_block` equal, column for column
  and in order, what the query's own hits give — both through the
  one-query stream of the same code and through a per-record loop written
  here from the pinned semantics (two-hit rule, scalar x-drop walk,
  coverage rule). Batches carry duplicate queries, blocks of a single
  sequence, queries with no hit at all in a block, and a different
  ``x_drop`` per query;
* **shifted differences ≡ the two-hit rule** — :func:`seed_mask`'s ``W``
  key differences select exactly the hits the brute-force definition
  selects, for ``W`` in {2, 3, 4} and gaps drawn around the rule's edges
  (exactly ``W``, exactly ``window``, one either side);
* **the key is the record** — pack/unpack round-trips and sorting packed
  keys is sorting ``(query, seq_id, diagonal, subject_pos)`` tuples.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hits import KeyLayout
from repro.core.pipeline import BlastpPipeline, phase_ungapped_tagged
from repro.core.sweep import sweep_extend_block
from repro.core.two_hit import seed_mask
from repro.core.ungapped import ungapped_extend
from repro.engine.compiled import compile_query
from repro.seeding.multi_query import MultiQueryIndex
from repro.verify.cases import FAMILIES, build_case
from repro.verify.oracle import detect_hits, tag_hits

cases = st.tuples(
    st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=2**32 - 1)
)


def _reference_phase2(pipe, db, x_drop):
    """Phase 2 of one query as a per-record loop over the pinned rules."""
    hits = detect_hits(pipe.neighborhood, db)
    w, window = pipe.params.word_length, pipe.params.two_hit_window
    records = sorted(zip(hits.seq_id.tolist(), hits.diagonal.tolist(), hits.subject_pos.tolist()))
    rows, num_seeds = [], 0
    group, earlier, reach = None, [], -1
    for seq, diag, spos in records:
        if (seq, diag) != group:
            group, earlier, reach = (seq, diag), [], -1
        is_seed = any(w <= spos - p <= window for p in earlier)
        earlier.append(spos)
        if not is_seed:
            continue
        num_seeds += 1
        if spos <= reach:
            continue
        ext = ungapped_extend(
            pipe.pssm, db.sequence(seq), seq, spos - diag + pipe.query_length, spos, w, x_drop
        )
        reach = ext.subject_end
        rows.append(
            [ext.seq_id, ext.query_start, ext.query_end, ext.subject_start, ext.subject_end, ext.score]
        )
    return [list(col) for col in zip(*rows)] or [[]] * 6, len(records), num_seeds


class TestTaggedEqualsPerQuery:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(cases, min_size=1, max_size=3),
        st.lists(st.integers(0, 2), max_size=2),
        st.lists(st.integers(1, 40), min_size=5, max_size=5),
        st.sampled_from(["one", "few", "single-sequence"]),
    )
    def test_block_outputs_equal_each_querys_own(self, draws, duplicates, x_drops, cut):
        base = build_case(*draws[0])
        db = base.db
        compiled = [compile_query(build_case(*d).query, base.params) for d in draws]
        compiled += [compiled[k % len(compiled)] for k in duplicates]
        pipes = [BlastpPipeline(c) for c in compiled]
        cutoffs = [
            replace(p.cutoffs(db), x_drop_ungapped=xd) for p, xd in zip(pipes, x_drops)
        ]
        index = MultiQueryIndex.from_compiled(compiled)
        num_blocks = {"one": 1, "few": min(3, len(db)), "single-sequence": len(db)}[cut]
        for block in db.blocks(num_blocks):
            extensions, num_hits, num_seeds, _ = sweep_extend_block(
                index, pipes, block, cutoffs
            )
            for q, pipe in enumerate(pipes):
                # The oracle's one-query stream through the same code ...
                tagged = tag_hits(detect_hits(pipe.neighborhood, block), pipe.params.two_hit_window)
                solo, solo_seeds, _, _ = phase_ungapped_tagged(
                    [pipe], tagged, block, [cutoffs[q]]
                )
                assert extensions[q].to_columns() == solo.to_columns()
                # ... and the per-record loop over the pinned rules.
                ref_cols, ref_hits, ref_seeds = _reference_phase2(
                    pipe, block, cutoffs[q].x_drop_ungapped
                )
                assert extensions[q].to_columns() == ref_cols
                assert (num_hits[q], num_seeds[q]) == (ref_hits, ref_seeds)
                assert solo_seeds == ref_seeds

    def test_queries_without_a_hit_in_the_block(self):
        """First, middle and last query of the batch starve in turn."""
        from repro.core.statistics import SearchParams
        from repro.io.database import SequenceDatabase

        params = SearchParams()
        db = SequenceDatabase.from_strings(["W" * 30, "P" * 30])
        pipes = [
            BlastpPipeline(compile_query(residue * 20, params)) for residue in "WCP"
        ]
        cutoffs = [p.cutoffs(db) for p in pipes]
        index = MultiQueryIndex.from_compiled([p.compiled for p in pipes])
        for block, fed in zip(db.blocks(2), (0, 2)):
            extensions, num_hits, num_seeds, _ = sweep_extend_block(
                index, pipes, block, cutoffs
            )
            for q, pipe in enumerate(pipes):
                ref_cols, ref_hits, ref_seeds = _reference_phase2(
                    pipe, block, cutoffs[q].x_drop_ungapped
                )
                assert extensions[q].to_columns() == ref_cols
                assert (num_hits[q], num_seeds[q]) == (ref_hits, ref_seeds)
                assert (ref_hits > 0) == (q == fed)
                assert (len(extensions[q]) > 0) == (q == fed)

    @settings(max_examples=10, deadline=None)
    @given(cases, st.integers(min_value=1, max_value=4))
    def test_seq_id_base_rebases_every_querys_rows(self, draw, num_blocks):
        case = build_case(*draw)
        compiled = [compile_query(case.query, case.params)] * 2
        pipes = [BlastpPipeline(c) for c in compiled]
        cutoffs = [p.cutoffs(case.db) for p in pipes]
        index = MultiQueryIndex.from_compiled(compiled)
        whole, _, _, _ = sweep_extend_block(index, pipes, case.db, cutoffs)
        pieces = [[], []]
        for block in case.db.blocks(min(num_blocks, len(case.db))):
            part, _, _, _ = sweep_extend_block(
                index, pipes, block, cutoffs, seq_id_base=getattr(block, "start", 0)
            )
            for q in range(2):
                pieces[q].append(part[q])
        for q in range(2):
            joined = type(whole[q]).concat(pieces[q])
            assert joined.to_columns() == whole[q].to_columns()


def _edge_gaps(word_length, window):
    """Subject-position gaps around every edge of the two-hit rule."""
    return st.sampled_from(
        sorted({1, 2, word_length - 1, word_length, word_length + 1,
                window - 1, window, window + 1, 2 * window} - {0})
    )


@st.composite
def key_streams(draw):
    word_length = draw(st.sampled_from([2, 3, 4]))
    window = draw(st.integers(word_length + 1, 45))
    groups = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 5)),
            min_size=1, max_size=8, unique=True,
        )
    )
    records = []
    for query, seq, diag in groups:
        gaps = draw(st.lists(_edge_gaps(word_length, window), min_size=1, max_size=8))
        spos = draw(st.integers(0, 6))
        for gap in gaps:
            records.append((query, seq, diag, spos))
            spos += gap
    return word_length, window, records


class TestShiftedDifferenceFilter:
    @settings(max_examples=200, deadline=None)
    @given(key_streams())
    def test_equals_the_brute_force_two_hit_rule(self, stream):
        word_length, window, records = stream
        cols = [np.array(c, dtype=np.int64) for c in zip(*records)]
        layout = KeyLayout.fit(3, 3, 5, int(cols[3].max()), window)
        keys = np.sort(layout.pack(*cols))
        got = seed_mask(keys, layout, word_length).tolist()
        expect = [
            any(
                (q2, s2, d2) == (q, s, d) and word_length <= p - p2 <= window
                for (q2, s2, d2, p2) in records
            )
            for (q, s, d, p) in sorted(records)
        ]
        assert got == expect

    def test_edges_exactly(self):
        # One group, gaps exactly W-1, W, window, window+1 between neighbours
        # far enough apart that only the named pair can qualify.
        for word_length in (2, 3, 4):
            window = 40
            for gap, seeds in (
                (word_length - 1, False), (word_length, True),
                (window, True), (window + 1, False),
            ):
                layout = KeyLayout.fit(1, 0, 0, gap, window)
                keys = layout.pack(0, 0, 0, np.array([0, gap]))
                assert seed_mask(keys, layout, word_length).tolist() == [False, seeds]

    def test_streams_shorter_than_the_word(self):
        layout = KeyLayout.fit(1, 0, 0, 10, 40)
        assert seed_mask(np.zeros(0, dtype=np.int64), layout, 3).tolist() == []
        assert seed_mask(layout.pack(0, 0, 0, np.array([4])), layout, 3).tolist() == [False]
        assert seed_mask(layout.pack(0, 0, 0, np.array([4, 9])), layout, 4).tolist() == [False, True]


class TestPackedKeyRoundTrip:
    fields = st.lists(
        st.tuples(
            st.integers(0, 40), st.integers(0, 10**5),
            st.integers(0, 2**18), st.integers(0, 2**17),
        ),
        min_size=1, max_size=40,
    )

    @settings(max_examples=100, deadline=None)
    @given(fields, st.integers(4, 2000))
    def test_round_trip_and_order(self, records, window):
        cols = [np.array(c, dtype=np.int64) for c in zip(*records)]
        layout = KeyLayout.fit(
            int(cols[0].max()) + 1, int(cols[1].max()), int(cols[2].max()),
            int(cols[3].max()), window,
        )
        keys = layout.pack(*cols)
        assert [c.tolist() for c in layout.unpack(keys)] == [c.tolist() for c in cols]
        # Sorting keys is sorting (query, seq, diagonal, spos) tuples.
        decoded = list(zip(*(c.tolist() for c in layout.unpack(np.sort(keys)))))
        assert decoded == sorted(records)
        # Keys of different groups are further apart than the window.
        order = np.argsort(keys)
        same_group = (keys[order][1:] >> layout.pos_bits) == (keys[order][:-1] >> layout.pos_bits)
        assert np.all(np.diff(keys[order])[~same_group] > window)
        # Every query's keys lie inside its own query_starts interval.
        starts = layout.query_starts(int(cols[0].max()) + 1)
        assert np.all((starts[cols[0]] <= keys) & (keys < starts[cols[0] + 1]))
