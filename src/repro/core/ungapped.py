"""X-drop ungapped extension (phase 2 inner loop).

From a seed word at ``(query_pos, subject_pos)`` the extension walks outward
in both directions along the diagonal, accumulating PSSM scores and keeping
the best prefix seen; a direction stops when the running score falls more
than ``x_drop`` below that direction's best. The result is the
maximal-scoring ungapped segment through the seed word.

Tie-breaking is pinned library-wide: each direction keeps the *shortest*
prefix achieving its maximum (first ``argmax``). Every implementation — the
batched hot path :func:`batch_ungapped_extend`, the per-residue reference
loop :func:`ungapped_extend` and the three GPU kernels — follows the same
rule, which is what makes cross-implementation output-equality tests exact
instead of fuzzy.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import UngappedExtension


#: First-pass window of the escalating batched extension. With the BLASTP
#: default x-drop (~16 raw) roughly nine in ten walks through random
#: protein sequence terminate within 32 residues, so the bulk of the score
#: gathering happens at this width.
FIRST_WINDOW = 32

#: Second-pass window for walks that overrun :data:`FIRST_WINDOW`. Only
#: genuinely homologous segments overrun *this* one, and those few are
#: re-done exactly in a final bounded pass.
BATCH_WINDOW = 128


def _batch_direction(
    deltas: np.ndarray, x_drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One x-drop direction for many extensions at once.

    Per row, the best prefix sum of the score series (0 when every prefix
    is negative) and its length, under :func:`ungapped_extend`'s rule:
    the walk stops once ``best_so_far - current > x_drop``, and the
    shortest prefix reaching the best wins.

    Parameters
    ----------
    deltas:
        ``(n, L)`` per-step contributions; exhausted positions must hold a
        large negative sentinel so the x-drop fires there.
    x_drop:
        X-drop threshold: one per row, or a scalar for all.

    Returns
    -------
    (gain, steps, overran):
        Per-row best prefix sum and its length, plus a mask of rows whose
        walk reached the end of the window without the drop firing — those
        rows need the exact (unwindowed) scalar path.
    """
    n, L = deltas.shape
    if L == 0:
        z = np.zeros(n, dtype=np.int64)
        return z, z.copy(), np.zeros(n, dtype=bool)
    cum = np.cumsum(deltas, axis=1, dtype=np.int64)
    # Best-so-far includes the empty prefix (score 0): a walk that dives
    # x_drop below zero stops even if it would later recover.
    run = np.maximum.accumulate(np.maximum(cum, 0), axis=1)
    dropped = run - cum > np.reshape(x_drop, (-1, 1))
    any_drop = dropped.any(axis=1)
    limit = np.where(any_drop, np.argmax(dropped, axis=1), L - 1)
    # Mask positions beyond each row's stop point, then take the best prefix.
    cols = np.arange(L)
    masked = np.where(cols[None, :] <= limit[:, None], cum, NEG_SENTINEL)
    steps = np.argmax(masked, axis=1).astype(np.int64) + 1
    gain = masked[np.arange(n), steps - 1]
    dead = gain <= 0
    gain = np.where(dead, 0, gain)
    steps = np.where(dead, 0, steps)
    return gain, steps, ~any_drop


#: Sentinel well below any reachable score yet safe under int64 cumsum.
NEG_SENTINEL = np.int64(-(2**40))

#: Window cells (lanes x residues per direction) one windowed pass may hold.
#: A pass keeps about ten ``int64`` temporaries of that shape, so this caps
#: phase 2's working set near 5 MB (cache-sized) however many seeds a
#: block's whole query batch brings; a walk longer than the budget still
#: runs, alone.
_CHUNK_CELL_BUDGET = 65_536


def batch_ungapped_extend(
    pssm: np.ndarray,
    db_codes: np.ndarray,
    seq_starts: np.ndarray,
    seq_ends: np.ndarray,
    query_lo: np.ndarray,
    query_hi: np.ndarray,
    query_pos: np.ndarray,
    subject_pos: np.ndarray,
    word_length: int,
    x_drop: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extend many seeds at once (the hot path of phase 2).

    Works directly on the packed database code array: for each seed, a
    window of :data:`BATCH_WINDOW` score contributions per direction is
    gathered with fancy indexing and reduced with the same x-drop rule as
    :func:`ungapped_extend`. Seeds whose walk overruns the window (rare:
    only long homologous segments) are redone exactly in one batched
    second pass whose window covers the longest possible walk, so results
    are bit-identical to running the reference loop
    :func:`ungapped_extend` per seed — a property the test suite checks.

    Parameters
    ----------
    pssm:
        Query PSSM — or a whole batch's, stacked column-wise: each lane
        walks only its own query's column range, under its own x-drop.
    db_codes:
        Packed residue codes of the whole database.
    seq_starts, seq_ends:
        Absolute [start, end) offsets of each seed's sequence in
        ``db_codes``.
    query_lo, query_hi:
        Per-seed [first, past-last) PSSM column of the seed's query
        (``0`` and ``query_length`` when there is one query).
    query_pos, subject_pos:
        Per-seed word start: PSSM column and sequence-local position.
    word_length:
        Seed word length ``W``.
    x_drop:
        Per-seed raw-score X-drop. The lane arguments broadcast, so a
        scalar serves every seed.

    Returns
    -------
    (query_start, query_end, subject_start, subject_end, score):
        Aligned ``int64`` arrays, one entry per seed; query coordinates
        are PSSM columns, like ``query_pos``.
    """
    s0 = np.asarray(subject_pos, dtype=np.int64)
    n = s0.size
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy(), z.copy(), z.copy()
    q0, starts, ends, lo, hi, xd = (
        np.broadcast_to(np.asarray(a, dtype=np.int64), (n,))
        for a in (query_pos, seq_starts, seq_ends, query_lo, query_hi, x_drop)
    )
    abs0 = starts + s0

    # Seed word score.
    k = np.arange(word_length)
    word_codes = db_codes[abs0[:, None] + k[None, :]]
    word_score = pssm[word_codes, q0[:, None] + k[None, :]].sum(axis=1, dtype=np.int64)

    # Escalating windows: every seed gets a FIRST_WINDOW pass; the minority
    # whose walk overruns it (no drop, residues left) escalates to
    # BATCH_WINDOW, and the few that overrun that too are redone with a
    # window one slot wider than the longest walk any of them could take
    # (both directions are bounded by the query and the subject slack).
    # A windowed result is exact whenever the drop fired or the sequence
    # ran out inside the window — in the last pass the slot past a row's
    # last in-range residue always holds the sentinel, so it degenerates
    # to the exact (unwindowed) walk, bit-identical to a scalar redo
    # without the per-row Python loop.
    gains = np.zeros((2, n), dtype=np.int64)
    steps = np.zeros((2, n), dtype=np.int64)
    pending = np.arange(n)
    for window in (FIRST_WINDOW, BATCH_WINDOW, None):
        if window is None:
            p = pending
            window = 1 + max(
                int(np.max(np.minimum(hi[p] - (q0[p] + word_length),
                                      ends[p] - (abs0[p] + word_length)))),
                int(np.max(np.minimum(q0[p] - lo[p], abs0[p] - starts[p]))),
            )
        open_rows = []
        lanes = max(1, _CHUNK_CELL_BUDGET // window)
        for at in range(0, pending.size, lanes):
            p = pending[at : at + lanes]
            gain, step, over = _windowed_directions(
                pssm, db_codes, starts[p], ends[p], lo[p], hi[p],
                q0[p], abs0[p], word_length, xd[p], window,
            )
            gains[:, p], steps[:, p] = gain, step
            open_rows.append(p[over])
        pending = np.concatenate(open_rows)
        if pending.size == 0:
            break
    assert pending.size == 0, "the last window must cover every walk"

    q_start = q0 - steps[0]
    q_end = q0 + word_length - 1 + steps[1]
    s_start = s0 - steps[0]
    s_end = s0 + word_length - 1 + steps[1]
    score = word_score + gains[0] + gains[1]
    return q_start, q_end, s_start, s_end, score


def _windowed_directions(
    pssm: np.ndarray,
    db_codes: np.ndarray,
    seq_starts: np.ndarray,
    seq_ends: np.ndarray,
    query_lo: np.ndarray,
    query_hi: np.ndarray,
    q0: np.ndarray,
    abs0: np.ndarray,
    word_length: int,
    x_drop: np.ndarray,
    L: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both x-drop directions for a row subset, ``L`` residues per window.

    Returns ``(gain, steps, over)``: the first two are ``(2, n)`` with
    row 0 the left walk and row 1 the right; ``over`` flags rows of which
    either walk used the whole window without the drop firing (their
    results are lower bounds, not exact).
    """
    steps_arr = np.arange(1, L + 1, dtype=np.int64)

    # Right direction: pairs (q0 + W - 1 + t, s0 + W - 1 + t), t = 1..L.
    # Out-of-range slots gather a clamped (garbage) score and are then
    # overwritten with the sentinel — one dense fancy-index beats the
    # nonzero + scatter pair on these mostly-valid windows.
    qr = q0[:, None] + word_length - 1 + steps_arr[None, :]
    ar = abs0[:, None] + word_length - 1 + steps_arr[None, :]
    valid_r = (qr < query_hi[:, None]) & (ar < seq_ends[:, None])
    dr = np.where(
        valid_r,
        pssm[db_codes[np.minimum(ar, db_codes.size - 1)], np.minimum(qr, pssm.shape[1] - 1)],
        NEG_SENTINEL,
    )
    gain_r, steps_r, over_r = _batch_direction(dr, x_drop)
    # A row only truly overruns if its last window slot was a real residue.
    over_r &= valid_r[:, -1]

    # Left direction: pairs (q0 - t, s0 - t), t = 1..L.
    ql = q0[:, None] - steps_arr[None, :]
    al = abs0[:, None] - steps_arr[None, :]
    valid_l = (ql >= query_lo[:, None]) & (al >= seq_starts[:, None])
    dl = np.where(
        valid_l,
        pssm[db_codes[np.maximum(al, 0)], np.maximum(ql, 0)],
        NEG_SENTINEL,
    )
    gain_l, steps_l, over_l = _batch_direction(dl, x_drop)
    over_l &= valid_l[:, -1]
    return np.stack([gain_l, gain_r]), np.stack([steps_l, steps_r]), over_l | over_r


def ungapped_extend(
    pssm: np.ndarray,
    subject_codes: np.ndarray,
    seq_id: int,
    query_pos: int,
    subject_pos: int,
    word_length: int,
    x_drop: int,
) -> UngappedExtension:
    """Extend one seed word in both directions (the reference loop).

    Follows the textbook x-drop loop one residue at a time, written
    independently of :func:`batch_ungapped_extend`'s windowed reduction
    so tests can pit the hot path against it; never used on hot paths.

    Parameters
    ----------
    pssm:
        Query PSSM, shape ``(ALPHABET_SIZE, query_length)``.
    subject_codes:
        Residue codes of the subject sequence.
    seq_id:
        Subject index, passed through into the result.
    query_pos, subject_pos:
        Seed word start positions.
    word_length:
        Seed word length ``W``.
    x_drop:
        Raw-score X-drop for both directions.

    Returns
    -------
    UngappedExtension
        The maximal segment (inclusive coordinates) and its score. The
        segment always contains the seed word, even when the word score is
        negative (mirroring FSA-BLAST, which anchors on the word).
    """
    qlen = pssm.shape[1]
    slen = subject_codes.size
    q0, s0 = query_pos, subject_pos
    score = 0
    for k in range(word_length):
        score += int(pssm[subject_codes[s0 + k], q0 + k])
    word_score = score

    def walk(qstart: int, sstart: int, step: int) -> tuple[int, int]:
        cur = 0
        best = 0
        best_steps = 0
        steps = 0
        q, s = qstart, sstart
        while 0 <= q < qlen and 0 <= s < slen:
            cur += int(pssm[subject_codes[s], q])
            steps += 1
            if cur > best:
                best = cur
                best_steps = steps
            if best - cur > x_drop:
                break
            q += step
            s += step
        return best, best_steps

    right_gain, right_steps = walk(q0 + word_length, s0 + word_length, +1)
    left_gain, left_steps = walk(q0 - 1, s0 - 1, -1)
    return UngappedExtension(
        seq_id=seq_id,
        query_start=q0 - left_steps,
        query_end=q0 + word_length - 1 + right_steps,
        subject_start=s0 - left_steps,
        subject_end=s0 + word_length - 1 + right_steps,
        score=word_score + left_gain + right_gain,
    )
