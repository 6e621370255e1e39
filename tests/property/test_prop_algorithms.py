"""Property-based tests on the alignment algorithms (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import encode
from repro.core.hits import HitArray
from tests.conftest import seed_flags
from repro.core.ungapped import (
    _batch_direction,
    batch_ungapped_extend,
    ungapped_extend,
)
from repro.cublastp.ext_window import WalkState, chunk_update
from repro.baselines.smith_waterman import smith_waterman_score
from repro.io import SequenceDatabase
from repro.matrices import BLOSUM62, build_pssm

# Strategy: protein strings over the 20 standard residues.
residues = "ARNDCQEGHILKMFPSTWYV"
protein = st.text(alphabet=residues, min_size=8, max_size=60)
deltas_lists = st.lists(st.integers(-8, 8), min_size=0, max_size=80)


def scalar_gain(deltas, x_drop):
    cur = best = best_steps = steps = 0
    for d in deltas:
        cur += d
        steps += 1
        if cur > best:
            best = cur
            best_steps = steps
        if best - cur > x_drop:
            break
    return (best, best_steps) if best > 0 else (0, 0)


def direction_gain(deltas, x_drop):
    """The batched direction reduction on one unwindowed row."""
    row = np.array(deltas, dtype=np.int64).reshape(1, -1)
    gain, steps, _ = _batch_direction(row, x_drop)
    return int(gain[0]), int(steps[0])


class TestDirectionGain:
    @given(deltas_lists, st.integers(1, 30))
    def test_matches_scalar(self, deltas, x_drop):
        assert direction_gain(deltas, x_drop) == scalar_gain(deltas, x_drop)

    @given(deltas_lists, st.integers(1, 30))
    def test_gain_nonnegative_and_bounded(self, deltas, x_drop):
        gain, steps = direction_gain(deltas, x_drop)
        assert gain >= 0
        assert 0 <= steps <= len(deltas)
        if steps:
            assert gain == sum(deltas[:steps])

    @given(deltas_lists, st.integers(1, 30))
    def test_gain_is_max_over_allowed_prefixes(self, deltas, x_drop):
        gain, steps = direction_gain(deltas, x_drop)
        # No prefix ending at or before the stop point scores higher.
        _, stop_steps = scalar_gain(deltas, 10**9)  # unbounded best prefix
        cum = 0
        best_seen = 0
        for k, d in enumerate(deltas, start=1):
            cum += d
            if cum > best_seen:
                best_seen = cum
            if best_seen - cum > x_drop:
                break
        assert gain == best_seen if best_seen > 0 else gain == 0


class TestChunkWalkProperty:
    @given(deltas_lists, st.integers(1, 30), st.sampled_from([2, 4, 8, 16]))
    def test_chunked_equals_scalar(self, deltas, x_drop, wsize):
        state = WalkState()
        arr = np.array(deltas, dtype=np.int64)
        for start in range(0, len(deltas), wsize):
            chunk = np.full(wsize, -(2**40), dtype=np.int64)
            seg = arr[start : start + wsize]
            chunk[: seg.size] = seg
            chunk_update(state, chunk, x_drop)
            if state.stopped:
                break
        got = (state.best, state.best_steps) if state.best > 0 else (0, 0)
        assert got == scalar_gain(deltas, x_drop)


class TestUngappedProperties:
    @given(protein, protein, st.integers(1, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reference_and_batch_agree(self, q, s, x_drop, data):
        qc, sc = encode(q), encode(s)
        pssm = build_pssm(qc, BLOSUM62)
        qp = data.draw(st.integers(0, len(q) - 3))
        sp = data.draw(st.integers(0, len(s) - 3))
        a = ungapped_extend(pssm, sc, 0, qp, sp, 3, x_drop)
        db = SequenceDatabase.from_strings([s])
        qs_, qe_, ss_, se_, sc_ = batch_ungapped_extend(
            pssm, db.codes, db.offsets[:1], db.offsets[1:],
            0, pssm.shape[1], np.array([qp]), np.array([sp]), 3, x_drop,
        )
        assert (int(qs_[0]), int(qe_[0]), int(ss_[0]), int(se_[0]), int(sc_[0])) == (
            a.query_start, a.query_end, a.subject_start, a.subject_end, a.score,
        )

    @given(protein, protein, st.data())
    @settings(max_examples=40, deadline=None)
    def test_extension_contains_seed_and_stays_in_bounds(self, q, s, data):
        qc, sc = encode(q), encode(s)
        pssm = build_pssm(qc, BLOSUM62)
        qp = data.draw(st.integers(0, len(q) - 3))
        sp = data.draw(st.integers(0, len(s) - 3))
        e = ungapped_extend(pssm, sc, 0, qp, sp, 3, 15)
        assert 0 <= e.query_start <= qp
        assert qp + 2 <= e.query_end < len(q)
        assert 0 <= e.subject_start <= sp
        assert sp + 2 <= e.subject_end < len(s)
        assert e.subject_start - e.query_start == sp - qp

    @given(protein, protein, st.data())
    @settings(max_examples=30, deadline=None)
    def test_ungapped_never_beats_smith_waterman(self, q, s, data):
        qc, sc = encode(q), encode(s)
        pssm = build_pssm(qc, BLOSUM62)
        qp = data.draw(st.integers(0, len(q) - 3))
        sp = data.draw(st.integers(0, len(s) - 3))
        e = ungapped_extend(pssm, sc, 0, qp, sp, 3, 100)
        if e.score > 0:
            assert e.score <= smith_waterman_score(pssm, sc, 11, 1)


class TestSeedMaskProperty:
    hits = st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 30), st.integers(0, 90)),
        min_size=1,
        max_size=60,
        unique=True,
    )

    @given(hits, st.integers(4, 50))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, tuples, window):
        W = 3
        seq, qp, sp = (np.array(x, dtype=np.int64) for x in zip(*tuples))
        mask = seed_flags(
            HitArray(seq_id=seq, query_pos=qp, subject_pos=sp, query_length=31),
            window,
            W,
        )
        for k, (s0, q0, p0) in enumerate(tuples):
            d0 = p0 - q0
            expect = any(
                s1 == s0 and p1 - q1 == d0 and W <= p0 - p1 <= window
                for (s1, q1, p1) in tuples
            )
            assert mask[k] == expect
