"""Property tests pinning the batched wavefront gapped extension.

Two equivalences, each the load-bearing claim of one layer of the PR:

* lane level — :func:`~repro.core.gapped_batch.batch_half_extend` run on
  a stack of random half-extensions equals the scalar
  :func:`~repro.core.gapped._half_extend` lane for lane on every
  :class:`~repro.core.gapped.HalfExtension` field (score, best cell,
  reach, cell count), on random lanes and on ragged ones (one long
  homolog among short lanes, so band widths differ widely in every row);
* schedule level — the wave scheduler's accepted set, field values, and
  output order equal the oracle's serial best-first loop
  (:func:`~repro.verify.oracle.serial_gapped`) on workloads built to
  stress the containment rule (many triggers per sequence with
  overlapping bounding boxes).

Plus the phase-4 rider: batched box fills
(:func:`~repro.core.traceback.batch_traceback_align`) equal per-box
:func:`~repro.core.traceback.traceback_align`.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import encode
from repro.core.gapped import _half_extend, gapped_extend
from repro.core import gapped_batch as gb_module
from repro.core.gapped_batch import batch_gapped_extend, batch_half_extend
from repro.core.pipeline import BlastpPipeline
from repro.core.statistics import SearchParams
from repro.core import traceback as tb_module
from repro.core.traceback import batch_traceback_align, traceback_align
from repro.engine import make_engine
from repro.io.database import SequenceDatabase
from repro.matrices import (
    BLOSUM62,
    build_pssm,
    build_score_table,
    match_mismatch_matrix,
)
from repro.verify.oracle import serial_gapped
from tests.conftest import swept

RESIDUES = "ARNDCQEGHILKMFPSTWYV"


def _random_pssm(rng, ncodes, qlen):
    """A random PSSM-shaped score table with BLOSUM-like magnitudes."""
    return rng.integers(-6, 8, size=(ncodes, qlen)).astype(np.int64)


def _materialise(table, codes, qa, qd, sa, sd, n, m):
    """The scalar walk-order score matrix a lane's parameters denote."""
    rows = qa + qd * np.arange(1, n + 1)
    cols = codes[sa + sd * np.arange(1, m + 1)]
    return table[rows[:, None], cols[None, :]].astype(np.int64)


def _assert_lanes_match_scalar(table, codes, lanes, go, ge, xd):
    """``batch_half_extend`` on ``lanes`` — rows of ``(q_anchor, q_step,
    s_anchor, s_step, n_rows, m_cols)`` — equals ``_half_extend`` on each
    lane's materialised scores, on all six fields."""
    qa, qd, sa, sd, nn, mm = np.asarray(lanes, dtype=np.int64).reshape(-1, 6).T
    got = batch_half_extend(table, codes, qa, qd, sa, sd, nn, mm, go, ge, xd)
    for k in range(qa.size):
        scores = _materialise(
            table, codes, int(qa[k]), int(qd[k]), int(sa[k]), int(sd[k]),
            int(nn[k]), int(mm[k]),
        )
        want = _half_extend(scores, go, ge, xd)
        assert tuple(int(field[k]) for field in got) == (
            want.best, want.best_i, want.best_j,
            want.reach_i, want.reach_j, want.cells,
        ), (k, [int(field[k]) for field in got], want)


@st.composite
def _ragged_case(draw):
    """One call's lanes, built so band widths differ widely in each row:
    the query's homolog walked forward and backward in full, a forward
    walk over a prefix of it (its band runs into ``m``), and short lanes
    over unrelated subjects (few rows or columns, or x-drop deaths within
    a few rows), in a random order. Besides real matrices, the scores may
    be a random positive-drift PSSM, where cells the band's left edge
    dropped can be outscored by their neighbours' gaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = draw(
        st.sampled_from(
            [
                BLOSUM62,
                match_mismatch_matrix(5, -4),
                match_mismatch_matrix(5, -12),
                None,  # a random positive-drift PSSM
            ]
        )
    )
    ge = draw(st.integers(1, 3))
    go = ge + draw(st.integers(0, 11))
    xd = draw(st.integers(25, 120))
    query = "".join(RESIDUES[i] for i in rng.integers(0, 20, int(rng.integers(40, 100))))
    qc = encode(query)
    if matrix is None:
        pssm = _random_pssm(rng, 24, qc.size)
    else:
        pssm = build_pssm(qc, matrix)
    table = build_score_table(pssm)
    homolog = list(_edited(rng, query))
    for _ in range(int(rng.integers(0, 4))):
        homolog[int(rng.integers(0, len(homolog)))] = RESIDUES[int(rng.integers(0, 20))]
    homolog = "".join(homolog)
    prefix = homolog[: int(rng.integers(5, len(homolog) // 2))]
    subjects = [homolog, prefix] + [
        "".join(RESIDUES[i] for i in rng.integers(0, 20, int(rng.integers(1, 40))))
        for _ in range(draw(st.integers(1, 12)))
    ]
    starts = np.cumsum([0] + [len(t) for t in subjects])
    codes = encode("".join(subjects))
    qlen, hlen = qc.size, len(homolog)
    lanes = [
        (-1, 1, -1, 1, qlen, hlen),
        (qlen, -1, hlen, -1, qlen, hlen),
        (-1, 1, starts[1] - 1, 1, qlen, len(prefix)),
    ]
    for k in range(2, len(subjects)):
        slen = len(subjects[k])
        q0 = int(rng.integers(0, qlen))
        if rng.integers(0, 2):  # forward from one before (q0, the subject's start)
            n = int(rng.integers(1, qlen - q0 + 1))
            lanes.append((q0 - 1, 1, starts[k] - 1, 1, n, int(rng.integers(1, slen + 1))))
        else:  # backward from one past (q0, the subject's end)
            n = int(rng.integers(1, q0 + 2))
            lanes.append((q0 + 1, -1, starts[k + 1], -1, n, int(rng.integers(1, slen + 1))))
    rng.shuffle(lanes)
    return table, codes, lanes, go, ge, xd


class TestBatchHalfExtendEquivalence:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 14),
        st.integers(1, 4),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_lane_for_lane(self, seed, lanes, go, ge, xd):
        rng = np.random.default_rng(seed)
        qlen, clen, ncodes = 40, 120, 24
        pssm = _random_pssm(rng, ncodes, qlen)
        codes = rng.integers(0, ncodes, size=clen).astype(np.uint8)
        qa = np.empty(lanes, dtype=np.int64)
        sa = np.empty(lanes, dtype=np.int64)
        qd = np.empty(lanes, dtype=np.int64)
        sd = np.empty(lanes, dtype=np.int64)
        nn = np.empty(lanes, dtype=np.int64)
        mm = np.empty(lanes, dtype=np.int64)
        for k in range(lanes):
            d = 1 if rng.integers(0, 2) else -1
            qd[k] = sd[k] = d
            if d < 0:
                qa[k] = rng.integers(0, qlen)
                sa[k] = rng.integers(0, clen)
                nn[k] = rng.integers(0, qa[k] + 1)
                mm[k] = rng.integers(0, sa[k] + 1)
            else:
                qa[k] = rng.integers(0, qlen)
                sa[k] = rng.integers(0, clen)
                nn[k] = rng.integers(0, qlen - qa[k])
                mm[k] = rng.integers(0, clen - sa[k])
        _assert_lanes_match_scalar(
            build_score_table(pssm), codes,
            np.stack([qa, qd, sa, sd, nn, mm], axis=1), go, ge, xd,
        )

    @given(_ragged_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_on_ragged_rows(self, case):
        """Lanes of very unequal band width share every row: a long,
        near-identical homolog (both directions, and one cut short so its
        band reaches ``m``) widens its window under a large x-drop while
        short lanes die or run out of rows around it. Windows touch
        ``j = 0``, lose cells to x-drop at both band edges, and retire
        mid-run, so every segment boundary of the flat row moves."""
        _assert_lanes_match_scalar(*case)

    @given(_ragged_case(), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_calls_past_the_lane_cap_split(self, case, cap):
        """More lanes than one segmented scan holds run in slices."""
        with patch.object(gb_module, "_MAX_LANES", cap):
            _assert_lanes_match_scalar(*case)


class TestBatchGappedExtendEquivalence:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_per_seed(self, seed, num_seeds):
        rng = np.random.default_rng(seed)
        params = SearchParams()
        query = "".join(RESIDUES[i] for i in rng.integers(0, 20, 60))
        qc = encode(query)
        pssm = build_pssm(qc, BLOSUM62)
        db = SequenceDatabase.from_strings(
            [
                "".join(RESIDUES[i] for i in rng.integers(0, 20, int(n)))
                for n in rng.integers(10, 200, size=8)
            ]
        )
        seq_ids = rng.integers(0, len(db), size=num_seeds).astype(np.int64)
        lens = db.offsets[seq_ids + 1] - db.offsets[seq_ids]
        seed_q = rng.integers(0, len(query), size=num_seeds).astype(np.int64)
        seed_s = (rng.random(num_seeds) * lens).astype(np.int64)
        go, ge, xd = params.gap_open, params.gap_extend, 38
        got = batch_gapped_extend(
            build_score_table(pssm), db, seq_ids, seed_q, seed_s, go, ge, xd
        )
        for k in range(num_seeds):
            want = gapped_extend(
                pssm, db.sequence(int(seq_ids[k])), int(seq_ids[k]),
                int(seed_q[k]), int(seed_s[k]), go, ge, xd,
            )
            g = got[k]
            assert (
                g.score, g.query_start, g.query_end,
                g.subject_start, g.subject_end,
                g.box_query_start, g.box_query_end,
                g.box_subject_start, g.box_subject_end, g.cells,
            ) == (
                want.score, want.query_start, want.query_end,
                want.subject_start, want.subject_end,
                want.box_query_start, want.box_query_end,
                want.box_subject_start, want.box_subject_end, want.cells,
            ), (k, g, want)


def _adversarial_db(rng, query, num_seqs):
    """Sequences spliced from query fragments: many triggers per sequence
    whose bounding boxes overlap — the containment rule's worst case."""
    seqs = []
    for _ in range(num_seqs):
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            a = int(rng.integers(0, len(query) - 8))
            b = int(rng.integers(a + 6, min(len(query), a + 40) + 1))
            frag = list(query[a:b])
            for _ in range(int(rng.integers(0, 3))):
                frag[int(rng.integers(0, len(frag)))] = RESIDUES[
                    int(rng.integers(0, 20))
                ]
            parts.append("".join(frag))
            if rng.integers(0, 2):
                parts.append(
                    "".join(RESIDUES[i] for i in rng.integers(0, 20, 5))
                )
        seqs.append("".join(parts))
    return SequenceDatabase.from_strings(seqs)


class TestWaveEqualsSerial:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_phase_gapped_identical(self, seed):
        rng = np.random.default_rng(seed)
        params = SearchParams()
        query = "".join(RESIDUES[i] for i in rng.integers(0, 20, 90))
        db = _adversarial_db(rng, query, 12)
        pipe = BlastpPipeline(query, params)
        cutoffs = pipe.cutoffs(db)
        extensions, _, _ = swept(pipe, db, cutoffs)
        got, got_triggers = pipe.phase_gapped(extensions, db, cutoffs)
        want, want_triggers = serial_gapped(pipe, extensions, db, cutoffs)
        assert got_triggers == want_triggers
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_search_identical(self, seed):
        rng = np.random.default_rng(seed)
        params = SearchParams()
        query = "".join(RESIDUES[i] for i in rng.integers(0, 20, 70))
        db = _adversarial_db(rng, query, 8)
        got, got_counts = BlastpPipeline(query, params).search_with_counts(db)
        oracle = make_engine("reference:serial-gapped", params)
        want, want_counts = oracle.run_with_report(oracle.compile(query), db)
        assert got.alignments == want.alignments
        assert got_counts == want_counts
        assert got.num_gapped_extensions == want.num_gapped_extensions
        assert got.num_reported == want.num_reported


def _runs(rng, letters, length):
    """A sequence of homopolymer runs over ``letters``."""
    out = ""
    while len(out) < length:
        out += letters[int(rng.integers(0, len(letters)))] * int(rng.integers(1, 9))
    return out[:length]


def _edited(rng, text):
    """``text`` with a few short insertions and deletions, most of them
    inside homopolymer runs, where a gap's placement is ambiguous."""
    out = list(text)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(out) + 1))
        span = int(rng.integers(1, 4))
        if rng.integers(0, 2) and len(out) > span:
            del out[at : at + span]
        else:
            out[at:at] = out[max(at - 1, 0)] * span
    return "".join(out)


@st.composite
def _tie_heavy_case(draw):
    """Boxes built for ties: a match/mismatch matrix, homopolymer runs over
    a small alphabet, subjects that are edited copies of the query,
    ``gap_open`` a multiple of ``gap_extend``, 1-row and 1-column boxes, a
    last box that scores negative everywhere, and a chunk budget small
    enough to cut at least two chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    match, mismatch = draw(st.sampled_from([(1, -1), (2, -1), (2, -3), (5, -4)]))
    ge = draw(st.integers(1, 3))
    go = ge * draw(st.integers(1, 4))
    letters = draw(st.sampled_from(["A", "AC", "ACD", "ACDEFGHIK"]))
    query = _runs(rng, letters, int(rng.integers(1, 60)))
    qc = encode(query)
    pssm = build_pssm(qc, match_mismatch_matrix(match, mismatch))
    subjects, boxes = [], []
    for _ in range(draw(st.integers(1, 12))):
        if rng.integers(0, 2):
            subject = _edited(rng, query)
        else:
            subject = _runs(rng, letters, int(rng.integers(1, 60)))
        subjects.append(encode(subject))
        shape = draw(st.sampled_from(["whole", "box", "row", "column"]))
        if shape == "whole":
            boxes.append((0, qc.size - 1, 0, len(subject) - 1))
            continue
        qs, ss = int(rng.integers(0, qc.size)), int(rng.integers(0, len(subject)))
        qe = qs if shape == "row" else int(rng.integers(qs, qc.size))
        se = ss if shape == "column" else int(rng.integers(ss, len(subject)))
        boxes.append((qs, qe, ss, se))
    subjects.append(encode("W" * int(rng.integers(1, 30))))  # W is in no query
    boxes.append((0, qc.size - 1, 0, subjects[-1].size - 1))
    padded = max((qe - qs + 2) * (se - ss + 2) for qs, qe, ss, se in boxes)
    budget = draw(st.integers(1, padded))
    return pssm, qc, subjects, boxes, go, ge, budget


class TestBatchTracebackEquivalence:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25))
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_per_box(self, seed, num_boxes):
        rng = np.random.default_rng(seed)
        params = SearchParams()
        query = "".join(RESIDUES[i] for i in rng.integers(0, 20, 50))
        qc = encode(query)
        pssm = build_pssm(qc, BLOSUM62)
        subjects, boxes = [], []
        for _ in range(num_boxes):
            slen = int(rng.integers(5, 120))
            subjects.append(
                encode("".join(RESIDUES[i] for i in rng.integers(0, 20, slen)))
            )
            qs = int(rng.integers(0, len(query)))
            ss = int(rng.integers(0, slen))
            boxes.append(
                (
                    qs,
                    int(rng.integers(qs, len(query))),
                    ss,
                    int(rng.integers(ss, slen)),
                )
            )
        got = batch_traceback_align(
            build_score_table(pssm), qc, subjects, boxes,
            params.gap_open, params.gap_extend,
        )
        for k, (s, box) in enumerate(zip(subjects, boxes)):
            want = traceback_align(
                pssm, qc, s, box, params.gap_open, params.gap_extend
            )
            assert got[k] == want, (k, box)

    @given(_tie_heavy_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_on_ties(self, case):
        """Equal-scoring paths everywhere: the batch fill's direction bytes
        must encode exactly the scalar walk's precedence (stop, diagonal,
        E, F) and its first row-major best cell, across chunk cuts."""
        pssm, qc, subjects, boxes, go, ge, budget = case
        cut = patch.object(tb_module, "_CHUNK_CELL_BUDGET", budget)
        spy = patch.object(tb_module, "_fill_chunk", wraps=tb_module._fill_chunk)
        with cut, spy as fill:
            got = batch_traceback_align(
                build_score_table(pssm), qc, subjects, boxes, go, ge
            )
        assert fill.call_count >= 2
        assert got[-1] is None  # the all-negative box
        for k, (s, box) in enumerate(zip(subjects, boxes)):
            assert got[k] == traceback_align(pssm, qc, s, box, go, ge), (k, box)

