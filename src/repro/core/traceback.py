"""Phase 4: alignment with traceback.

Re-solves the affine-gap local DP inside the bounding box that the gapped
extension reached and walks the optimal path back from the box's first
row-major best cell, with a fixed precedence at every cell — diagonal,
then vertical gap, then horizontal gap — so the walk is deterministic.
There are two solvers and one renderer:

* :func:`traceback_align` keeps one box's full ``H``/``E``/``F`` score
  matrices and recovers each cell's provenance by score comparison. It
  is the independent reference (the property suite, the Smith-Waterman
  baseline).
* :func:`batch_traceback_align` is what the pipeline runs. It fills many
  boxes in lockstep but keeps only two rolling ``int32`` rows of scores,
  and stores one direction byte per cell (NCBI's semi-gapped layout);
  the walk reads the bytes.

This mirrors BLAST's design, where traceback is a separate pass run only
for the alignments that survive the score cutoffs, which is also why
cuBLASTP leaves it on the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alphabet import ALPHABET, GAP_CHAR
from repro.matrices.pssm import PAD_SCORE

#: Minus infinity for int64 score arithmetic (same convention as gapped.py).
_NEG = np.int64(-(2**40))

#: Minus infinity for the batched fill's int32 rows, and the score of the
#: padding residue right-padded lanes carry (the score table's padding
#: column): far below any reachable cell, far enough above the int32
#: floor that subtracting a penalty cannot wrap.
_NEG32 = PAD_SCORE

# Direction byte of the batched fill, one per cell. The walk tests the
# low three bits in its precedence order (stop, diagonal, E; else F).
_STOP = 1  # H == 0
_DIAG = 2  # H == H[i-1, j-1] + sub(i, j)
_FROM_E = 4  # H == E
_F_EXT = 8  # F[i, j] came from F[i, j-1] - ge, not from H[i, j-1] - go
_E_EXT = 16  # E[i, j] came from E[i-1, j] - ge, not from H[i-1, j] - go

# Walk moves, one per alignment column.
_MOVE_DIAG = 0  # query residue over subject residue
_MOVE_E = 1  # query residue over a gap
_MOVE_F = 2  # gap over subject residue

#: Rendering table: residue codes, then the gap, ``+`` and space columns.
_CHARS = np.frombuffer((ALPHABET + GAP_CHAR + "+ ").encode("ascii"), dtype=np.uint8)
_GAP, _PLUS, _SPACE = len(ALPHABET), len(ALPHABET) + 1, len(ALPHABET) + 2


@dataclass(frozen=True)
class TracebackAlignment:
    """A fully rendered local alignment.

    Coordinates are inclusive and absolute (query/subject indices, not
    box-relative). ``aligned_query`` and ``aligned_subject`` include
    ``-`` gap characters; ``midline`` follows BLAST convention (residue for
    identity, ``+`` for a positive substitution score, space otherwise).
    """

    score: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    aligned_query: str
    aligned_subject: str
    midline: str
    identities: int
    positives: int
    gaps: int

    @property
    def length(self) -> int:
        """Alignment length including gap columns."""
        return len(self.aligned_query)


def traceback_align(
    pssm: np.ndarray,
    query_codes: np.ndarray,
    subject_codes: np.ndarray,
    box: tuple[int, int, int, int],
    gap_open: int,
    gap_extend: int,
) -> TracebackAlignment | None:
    """Optimal local alignment within ``box``.

    Parameters
    ----------
    pssm:
        Query PSSM.
    query_codes, subject_codes:
        Full encoded sequences (the box selects the active region).
    box:
        ``(query_start, query_end, subject_start, subject_end)`` inclusive
        bounds, typically the reach of a gapped extension.
    gap_open, gap_extend:
        Affine penalties (positive numbers).

    Returns
    -------
    TracebackAlignment or None
        ``None`` when the box contains no positively scoring alignment.
    """
    qs, qe, ss, se = box
    if not (0 <= qs <= qe < pssm.shape[1] and 0 <= ss <= se < subject_codes.size):
        raise ValueError(f"box {box} out of bounds")
    s = np.asarray(subject_codes[ss : se + 1], dtype=np.uint8)
    n, m = qe - qs + 1, s.size
    # Substitution scores for the box: sub[i, j] scores q[i] vs s[j].
    sub = pssm[s[:, None], np.arange(qs, qe + 1)[None, :]].T.astype(np.int64)

    go, ge = int(gap_open), int(gap_extend)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    E = np.full((n + 1, m + 1), _NEG, dtype=np.int64)
    F = np.full((n + 1, m + 1), _NEG, dtype=np.int64)
    jj = np.arange(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        E[i, 1:] = np.maximum(H[i - 1, 1:] - go, E[i - 1, 1:] - ge)
        diag = H[i - 1, :-1] + sub[i - 1]
        g = np.maximum.reduce([np.zeros(m, dtype=np.int64), diag, E[i, 1:]])
        # Horizontal gaps via the running-max unrolling (see gapped.py).
        g_full = np.concatenate(([np.int64(0)], g))  # j = 0 column is 0
        t = g_full + ge * jj
        run = np.maximum.accumulate(t)
        F[i, 1:] = run[:-1] - go - ge * (jj[1:] - 1)
        H[i, 1:] = np.maximum(g, F[i, 1:])

    best = int(H.max())
    if best <= 0:
        return None
    bi, bj = np.unravel_index(int(np.argmax(H)), H.shape)
    i, j, moves = _walk(pssm, H, E, F, s, qs, int(bi), int(bj), ge)
    return _render(pssm, query_codes, subject_codes, best, qs + i, ss + j, moves)


#: Padded-cell budget per batched-fill chunk (lanes x rows x cols). The
#: fill stores one direction byte per cell, so a chunk's slab stays near
#: ~2 MB; a single box larger than the budget still fills alone in its
#: own chunk.
_CHUNK_CELL_BUDGET = 2_000_000


def batch_traceback_align(
    table: np.ndarray,
    query_codes: np.ndarray,
    subjects: "list[np.ndarray]",
    boxes: "list[tuple[int, int, int, int]]",
    gap_open: int,
    gap_extend: int,
) -> "list[TracebackAlignment | None]":
    """Traceback-align every box, filling the DP rows in lockstep.

    The lockstep-lanes batching of the gapped-extension phase, applied to
    the phase-4 re-score: every box advances one query row per step with
    whole-row vectorised ``int32`` ops over all live lanes at once. Lanes
    are sorted longest-first so the lanes still holding row ``i`` always
    form a prefix, and chunks are cut to :data:`_CHUNK_CELL_BUDGET`
    padded cells. Only two rows of ``H`` and one of ``E`` are kept; what
    the walk needs is one direction byte per cell (:data:`_STOP`,
    :data:`_DIAG`, :data:`_FROM_E`, :data:`_F_EXT`, :data:`_E_EXT`) and
    each row's first maximum.

    ``table`` is the query's score table
    (:func:`~repro.matrices.pssm.build_score_table`, built once per
    compiled query). Lanes are right-padded with its padding residue,
    which scores :data:`_NEG32`, so a padded cell never exceeds the best
    real cell above or left of it and never wins the first row-major
    maximum; real cells never read a padded one (every dependency flows
    left-to-right or down). Results are element-wise identical to per-box
    :func:`traceback_align` with the PSSM ``table`` was built from — the
    property suite pins it.

    ``subjects`` carries one full encoded subject per box (duplicates
    are fine); returns one entry per box, in input order.

    Raises
    ------
    ValueError
        When a box is out of bounds, or ``subjects`` and ``boxes`` differ
        in length.
    """
    out: "list[TracebackAlignment | None]" = [None] * len(boxes)
    go, ge = int(gap_open), int(gap_extend)
    qlen = table.shape[0]
    lanes: list[tuple[int, int, int, int, int]] = []
    for k, (box, subject) in enumerate(zip(boxes, subjects, strict=True)):
        qs, qe, ss, se = box
        if not (0 <= qs <= qe < qlen and 0 <= ss <= se < subject.size):
            raise ValueError(f"box {box} out of bounds")
        lanes.append((k, qs, ss, qe - qs + 1, se - ss + 1))
    if not lanes:
        return out
    lanes.sort(key=lambda lane: -lane[3])
    start = 0
    while start < len(lanes):
        n_max = lanes[start][3]
        m_max = lanes[start][4]
        stop = start + 1
        while stop < len(lanes):
            m_next = max(m_max, lanes[stop][4])
            if (stop + 1 - start) * (n_max + 1) * (m_next + 1) > _CHUNK_CELL_BUDGET:
                break
            m_max = m_next
            stop += 1
        _fill_chunk(table, query_codes, subjects, lanes[start:stop], go, ge, out)
        start = stop
    return out


def _fill_chunk(
    table: np.ndarray,
    query_codes: np.ndarray,
    subjects: "list[np.ndarray]",
    chunk: "list[tuple[int, int, int, int, int]]",
    go: int,
    ge: int,
    out: "list[TracebackAlignment | None]",
) -> None:
    """Fill one n-descending chunk of ``(k, qs, ss, n, m)`` lanes, then
    walk and render each lane, writing results into ``out[k]``."""
    count = len(chunk)
    n_max = chunk[0][3]
    m_max = max(lane[4] for lane in chunk)
    # Substitution scores from the flat score table: a lane's index at
    # row 1 is ``qs * width + code``, and row i reads the table from
    # offset ``(i - 1) * width``. The last code is the padding residue.
    width = table.shape[1]
    scores = table.reshape(-1)
    # Every per-row array is flat: lane r's columns j = 0..m_max sit at
    # r * w + j, so each step is one contiguous op over the live lanes,
    # and the j - 1 neighbour is the flat x - 1 (at j = 0 it reads the
    # previous lane's last column, which the j = 0 terms below mask).
    w = m_max + 1
    index = np.full((count, w), width - 1, dtype=np.intp)
    for r, (k, qs, ss, _n, m) in enumerate(chunk):
        index[r, 1 : m + 1] = subjects[k][ss : ss + m]
        index[r] += qs * width
    index = index.reshape(-1)
    size = count * w
    # H rows carry one leading guard cell, so h[x] is H[x - 1]: H[i-1, j-1]
    # is h_prev[x] and H[i-1, j] is h_prev[x + 1]. The same goes for run.
    # Column j = 0 of H stays 0: its substitution score is the padding
    # residue's, its E is negative, and its F is pushed negative by the
    # f_penalty entry below.
    h_rows = np.zeros((2, size + 1), dtype=np.int32)
    run = np.zeros(size + 1, dtype=np.int32)
    e = np.full(size, _NEG32, dtype=np.int32)  # row 0 has no vertical gap
    sub = np.empty(size, dtype=np.int32)
    g = np.empty(size, dtype=np.int32)
    f = np.empty(size, dtype=np.int32)
    flag = np.empty(size, dtype=bool)
    # Horizontal gaps via the running-max unrolling (see gapped.py):
    # F[j] = max_{k<j} (g[k] + ge*k) - (go + ge*(j-1)).
    cols = np.arange(w)
    ramp = np.tile(ge * cols, count).astype(np.int32)
    f_penalty = np.tile(np.where(cols > 0, go + ge * (cols - 1), -_NEG32), count)
    f_penalty = f_penalty.astype(np.int32)
    dirs = np.empty((n_max, size), dtype=np.uint8)
    row_max = np.zeros((n_max, count), dtype=np.int32)
    row_arg = np.zeros((n_max, count), dtype=np.intp)
    lane_start = np.arange(0, size, w)
    # Lanes are n-descending: those still holding row i are a prefix.
    n_desc = np.array([-lane[3] for lane in chunk])
    lives = np.searchsorted(n_desc, -np.arange(1, n_max + 1), side="right").tolist()
    as_flag = flag.view(np.uint8)
    for i in range(1, n_max + 1):
        live = lives[i - 1]
        span = live * w
        h_prev, h_cur = h_rows[(i - 1) & 1], h_rows[i & 1]
        h = h_cur[1 : span + 1]
        d = dirs[i - 1, :span]
        diag = sub[:span]
        # Indices are in range by construction; "clip" skips the checked,
        # buffered path of take.
        scores[(i - 1) * width :].take(index[:span], out=diag, mode="clip")
        diag += h_prev[:span]
        h_go = np.subtract(h_prev[1 : span + 1], go, out=f[:span])
        ei = e[:span]
        ei -= ge
        np.greater_equal(ei, h_go, out=d.view(bool))  # _E_EXT
        np.maximum(ei, h_go, out=ei)
        gi = np.maximum(diag, ei, out=g[:span])
        np.maximum(gi, 0, out=gi)
        ri = run[1 : span + 1]
        np.add(gi, ramp[:span], out=ri)
        np.maximum.accumulate(ri.reshape(live, w), axis=1, out=ri.reshape(live, w))
        fi = np.subtract(run[:span], f_penalty[:span], out=f[:span])
        np.maximum(gi, fi, out=h)
        # The byte is built high bit first: each ``d += d`` shifts the
        # bits so far up by one and the next flag fills bit 0.
        d += d
        np.equal(run[1:span], run[: span - 1], out=flag[1:span])  # _F_EXT
        flag[0] = False
        d += as_flag[:span]
        for other in (ei, diag, 0):  # _FROM_E, _DIAG, _STOP
            d += d
            np.equal(h, other, out=flag[:span])
            d += as_flag[:span]
        arg = h.reshape(live, w).argmax(axis=1, out=row_arg[i - 1, :live])
        h.take(arg + lane_start[:live], out=row_max[i - 1, :live])
    # Each lane's best cell is its first row-major maximum: the first row
    # holding the lane's largest row maximum, at that row's first maximum.
    lane_ids = np.arange(count)
    best_row = row_max.argmax(axis=0)
    best = row_max[best_row, lane_ids].tolist()
    best_col = row_arg[best_row, lane_ids].tolist()
    cells = memoryview(dirs.reshape(-1))
    pssm = table[:, :-1].T  # the PSSM again, for the midline's positives
    for r, ((k, qs, ss, _n, _m), row) in enumerate(zip(chunk, best_row.tolist())):
        if best[r] <= 0:
            continue
        i, j, moves = _walk_bytes(cells, r * w - size, size, row + 1, best_col[r])
        out[k] = _render(pssm, query_codes, subjects[k], best[r], qs + i, ss + j, moves)


def _walk_bytes(
    cells: memoryview, base: int, stride: int, i: int, j: int
) -> tuple[int, int, bytes]:
    """Walk one lane's direction bytes back from cell ``(i, j)``.

    Cell ``(i, j)`` (1-based) is ``cells[base + i * stride + j]``. Returns
    the box-relative ``(i, j)`` the walk stopped at — the 0-based start
    of the alignment — and its moves in forward order.
    """
    moves = bytearray()
    state = _MOVE_DIAG  # the H state: the cell's own provenance decides
    while i > 0 and j > 0:
        c = cells[base + i * stride + j]
        if state == _MOVE_DIAG:
            if c & _STOP:
                break
            if c & _DIAG:
                moves.append(_MOVE_DIAG)
                i -= 1
                j -= 1
            elif c & _FROM_E:
                state = _MOVE_E
            else:
                state = _MOVE_F
        elif state == _MOVE_E:
            moves.append(_MOVE_E)
            i -= 1
            if not c & _E_EXT:
                state = _MOVE_DIAG
        else:
            moves.append(_MOVE_F)
            j -= 1
            if not c & _F_EXT:
                state = _MOVE_DIAG
    moves.reverse()
    return i, j, bytes(moves)


def _walk(
    pssm: np.ndarray,
    H: np.ndarray,
    E: np.ndarray,
    F: np.ndarray,
    s: np.ndarray,
    qs: int,
    i: int,
    j: int,
    ge: int,
) -> tuple[int, int, bytes]:
    """Walk one box's full score matrices back from cell ``(i, j)``.

    Each cell's provenance is recovered by score comparison (no pointer
    matrices); substitution scores are re-read from ``pssm`` on the path.
    Returns what :func:`_walk_bytes` returns.
    """
    def sub(i: int, j: int) -> int:
        return int(pssm[s[j - 1], qs + i - 1])

    moves = bytearray()
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            if H[i, j] == 0:
                break
            if H[i, j] == H[i - 1, j - 1] + sub(i, j):
                moves.append(_MOVE_DIAG)
                i -= 1
                j -= 1
            elif H[i, j] == E[i, j]:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            moves.append(_MOVE_E)
            came_ext = E[i, j] == E[i - 1, j] - ge
            i -= 1
            state = "E" if came_ext else "H"
        else:  # state == "F"
            moves.append(_MOVE_F)
            came_ext = F[i, j] == F[i, j - 1] - ge
            j -= 1
            state = "F" if came_ext else "H"
    moves.reverse()
    return i, j, bytes(moves)


def _render(
    pssm: np.ndarray,
    query_codes: np.ndarray,
    subject_codes: np.ndarray,
    score: int,
    query_start: int,
    subject_start: int,
    moves: bytes,
) -> TracebackAlignment:
    """Render a walked path starting at the absolute ``(query_start,
    subject_start)``: the three rows are one gather from :data:`_CHARS`."""
    ops = np.frombuffer(moves, dtype=np.uint8)
    has_q = ops != _MOVE_F
    has_s = ops != _MOVE_E
    pair = has_q & has_s
    nq, ns = int(np.count_nonzero(has_q)), int(np.count_nonzero(has_s))
    rows = np.full((3, ops.size), _GAP, dtype=np.intp)
    aq, asub, mid = rows
    aq[has_q] = query_codes[query_start : query_start + nq]
    asub[has_s] = subject_codes[subject_start : subject_start + ns]
    eq = pair & (aq == asub)
    # Absolute query position of each column: the start plus the query
    # residues consumed before it.
    qpos = query_start + np.cumsum(has_q) - has_q
    positive = np.zeros(ops.size, dtype=bool)
    positive[pair] = pssm[asub[pair], qpos[pair]] > 0
    plus = positive & ~eq
    mid[:] = _SPACE
    mid[plus] = _PLUS
    mid[eq] = aq[eq]
    text = _CHARS[rows].tobytes().decode("ascii")
    size = ops.size
    identities = int(np.count_nonzero(eq))
    return TracebackAlignment(
        score=score,
        query_start=query_start,
        query_end=query_start + nq - 1,
        subject_start=subject_start,
        subject_end=subject_start + ns - 1,
        aligned_query=text[:size],
        aligned_subject=text[size : 2 * size],
        midline=text[2 * size :],
        identities=identities,
        positives=identities + int(np.count_nonzero(plus)),
        gaps=size - int(np.count_nonzero(pair)),
    )
