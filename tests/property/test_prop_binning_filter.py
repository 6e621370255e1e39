"""Property tests: binning–sorting–filtering is permutation-then-subset.

The paper's GPU front end re-arranges phase-1 hits (binning + segmented
sort) and then prunes them (two-hit filter). Neither step may invent or
lose information:

* **permutation** — for any workload and any ``num_bins``, the multiset
  of packed hits after binning/assembly/sorting equals the multiset of
  raw hits from the reference hit detector;
* **subset** — the filter's survivors are exactly the hits selected by
  the reference two-hit rule (:func:`repro.core.two_hit.seed_mask` on the
  packed-key stream, mapped back by ``tests.conftest.seed_flags``),
  regardless of ``num_bins``.

Workloads are derived from a drawn integer seed, so a shrunk hypothesis
failure prints the ``(seed, num_bins, ...)`` tuple that replays it; the
same seed is embedded in every assertion message.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.alphabet import decode
from repro.core.hits import diagonal_of
from repro.core.pipeline import BlastpPipeline
from repro.core.statistics import SearchParams
from repro.cublastp.binning import bin_of_diagonal, pack_hits, unpack_hits
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.filter_kernel import run_filter
from repro.cublastp.hit_detection_kernel import run_hit_detection
from repro.cublastp.session import DeviceSession
from repro.cublastp.sort_kernel import run_assemble, run_segmented_sort
from repro.io.database import SequenceDatabase
from repro.io.workloads import sample_background
from repro.seeding import QueryDFA
from repro.verify.oracle import detect_hits
from tests.conftest import seed_flags


def _workload(seed: int):
    """A tiny seed-pinned (pipeline, db) pair (replayable from ``seed``)."""
    rng = np.random.default_rng(seed)
    query = decode(sample_background(rng, int(rng.integers(12, 48))))
    nseq = int(rng.integers(1, 6))
    seqs = [decode(sample_background(rng, int(rng.integers(4, 80)))) for _ in range(nseq)]
    db = SequenceDatabase.from_strings(seqs)
    pipe = BlastpPipeline(query, SearchParams())
    return pipe, db


def _gpu_front_end(pipe, db, num_bins):
    """Hit detection → assembly → segmented sort → two-hit filter."""
    session = DeviceSession(
        pipe.query_codes,
        QueryDFA(pipe.neighborhood),
        db,
        CuBlastpConfig(num_bins=num_bins, bin_capacity=2048),
        pipe.params.matrix,
    )
    binned, _ = run_hit_detection(session)
    binned, _ = run_assemble(binned, session.device)
    sorted_b, _ = run_segmented_sort(binned, session.device)
    seeds, _ = run_filter(
        session, sorted_b, pipe.params.word_length, pipe.params.two_hit_window
    )
    return binned, sorted_b, seeds


def _reference_packed(pipe, db):
    """The reference hit detector's hits, packed like the bin elements."""
    hits = detect_hits(pipe.neighborhood, db)
    return pack_hits(hits.seq_id, hits.diagonal, hits.subject_pos), hits


NUM_BINS = st.sampled_from([1, 2, 3, 7, 32, 128, 509])


class TestBinningSortFilterProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_bins=NUM_BINS)
    def test_binning_is_a_permutation_of_raw_hits(self, seed, num_bins):
        pipe, db = _workload(seed)
        binned, sorted_b, _ = _gpu_front_end(pipe, db, num_bins)
        ref_packed, _ = _reference_packed(pipe, db)
        note = f"(replay: seed={seed}, num_bins={num_bins})"
        assert np.array_equal(
            np.sort(binned.packed), np.sort(ref_packed)
        ), f"binning changed the hit multiset {note}"
        assert np.array_equal(
            np.sort(sorted_b.packed), np.sort(ref_packed)
        ), f"sorting changed the hit multiset {note}"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_bins=NUM_BINS)
    def test_filter_survivors_are_exactly_the_two_hit_seeds(self, seed, num_bins):
        pipe, db = _workload(seed)
        _, _, seeds = _gpu_front_end(pipe, db, num_bins)
        _, hits = _reference_packed(pipe, db)
        mask = seed_flags(hits, pipe.params.two_hit_window, pipe.params.word_length)
        expected = set(
            zip(
                hits.seq_id[mask].tolist(),
                hits.query_pos[mask].tolist(),
                hits.subject_pos[mask].tolist(),
            )
        )
        s, d, p = unpack_hits(seeds.packed)
        q = p - (d - seeds.query_length)
        got = set(zip(s.tolist(), q.tolist(), p.tolist()))
        note = f"(replay: seed={seed}, num_bins={num_bins})"
        all_hits = set(zip(hits.seq_id.tolist(), hits.query_pos.tolist(),
                           hits.subject_pos.tolist()))
        assert got <= all_hits, f"filter invented hits {note}"
        assert got == expected, (
            f"filter survivors != reference two-hit seeds "
            f"({len(got - expected)} extra, {len(expected - got)} missing) {note}"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seq_id=st.integers(0, 2**31 - 1),
        diagonal=st.integers(0, 2**16 - 1),
        subject_pos=st.integers(0, 2**16 - 1),
    )
    def test_pack_unpack_roundtrip(self, seq_id, diagonal, subject_pos):
        packed = pack_hits(
            np.array([seq_id]), np.array([diagonal]), np.array([subject_pos])
        )
        s, d, p = unpack_hits(packed)
        assert (int(s[0]), int(d[0]), int(p[0])) == (seq_id, diagonal, subject_pos)

    @settings(max_examples=100, deadline=None)
    @given(
        qpos=st.integers(0, 500),
        spos=st.integers(0, 500),
        qlen=st.integers(1, 600),
        num_bins=st.integers(1, 512),
    )
    def test_bin_assignment_consistent_with_diagonal(self, qpos, spos, qlen, num_bins):
        diag = diagonal_of(np.array([qpos]), np.array([spos]), qlen)
        b = bin_of_diagonal(diag, num_bins)
        assert 0 <= int(b[0]) < num_bins
        assert int(b[0]) == int(diag[0]) % num_bins
