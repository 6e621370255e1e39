"""Phase 3: gapped extension — affine-gap x-drop dynamic programming.

A gapped extension grows from a *seed point* (one aligned residue pair
inside a high-scoring ungapped segment) in two independent half-extensions:
backward over the prefixes ending at the seed and forward over the suffixes
starting after it. Each half is a banded DP pruned by the x-drop rule: a
cell dies once its score falls more than ``x_drop`` below the best score
seen so far, and the live window shrinks from both ends as rows advance.

Vectorisation note: the horizontal-gap array ``F`` of an affine DP row has a
serial dependency (``F[j] = max(H[j-1] - open, F[j-1] - extend)``), which
normally forces a scalar loop. Unrolled, it is ``F[j] = max_{k<j} (G[k] +
extend*k) - open - extend*(j-1)`` with ``G`` the gapless part of ``H`` — a
running maximum, computed with ``np.maximum.accumulate``. Every row of the
DP is therefore a handful of whole-window numpy operations.

Path recording: every computed cell also gets one direction byte, so
phase 4 (:mod:`repro.core.traceback`) walks the path this DP found from
its best cell back to the seed anchor ``(0, 0)`` instead of solving the
alignment again. The bits are those of NCBI's semi-gapped traceback
(``ALIGN_EX``): how ``H``, ``E`` and ``F`` were reached, ties resolved
towards the diagonal, then ``E``, and towards extending a gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Effectively minus infinity for int64 score arithmetic without overflow.
NEG_INF = np.int64(-(2**40))

# Direction bits of one DP cell. The walk tests them in this precedence:
# diagonal, then E, else F.
DIAG = 1  # H == H[i-1, j-1] + s(i, j)
FROM_E = 2  # H == E
F_EXT = 4  # F[i, j] came from F[i, j-1] - ge, not from H[i, j-1] - go
E_EXT = 8  # E[i, j] came from E[i-1, j] - ge, not from H[i-1, j] - go


@dataclass(frozen=True, eq=False)
class HalfPath:
    """The direction bytes one half-extension recorded.

    Cell ``(i, j)`` of DP row ``i >= 1`` is ``dirs[origin[i - 1] + j]``;
    only the cells the x-drop DP computed are meaningful. Row 0 and
    column 0 need no bytes: a path that reaches either ends in one gap
    run from the anchor.
    """

    dirs: np.ndarray
    origin: np.ndarray


@dataclass(frozen=True)
class HalfExtension:
    """Result of one direction of the gapped DP.

    ``best`` is the maximum cell score (0 for the empty alignment);
    ``best_i``/``best_j`` its row/column (0 means no residue consumed);
    ``reach_i``/``reach_j`` the furthest row/column that held a live cell —
    the extension's bounding box.
    """

    best: int
    best_i: int
    best_j: int
    reach_i: int
    reach_j: int
    #: DP cells actually computed (the live band, not the bounding box) —
    #: what the CPU cost model charges for this half.
    cells: int
    #: The cells' direction bytes.
    path: HalfPath = field(compare=False, repr=False)


@dataclass(frozen=True)
class GappedExtension:
    """A gapped extension through one seed point.

    Coordinates are inclusive and cover the best-scoring path of the two
    halves. ``score`` is the sum of both halves; the seed residue pair is
    counted by the backward half (which starts *at* the seed).
    """

    seq_id: int
    score: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    seed_query: int
    seed_subject: int
    # Bounding box reached by live DP cells: a later seed inside it is
    # contained (BLAST's containment rule).
    box_query_start: int
    box_query_end: int
    box_subject_start: int
    box_subject_end: int
    #: DP cells the two x-drop halves actually computed (a diagonal band,
    #: typically far smaller than the bounding box).
    cells: int = 0
    #: The (backward, forward) halves' direction bytes, which phase 4
    #: walks; ``None`` where the extension scores below the report cutoff
    #: and no walk will read them.
    paths: tuple[HalfPath, HalfPath] | None = field(
        default=None, compare=False, repr=False
    )


def _half_extend(
    row_scores: "np.ndarray",
    gap_open: int,
    gap_extend: int,
    x_drop: int,
) -> HalfExtension:
    """Run one half of the x-drop DP.

    Parameters
    ----------
    row_scores:
        ``(n, m)`` substitution scores in walk order: ``row_scores[i-1,
        j-1]`` scores aligning the ``i``-th residue of the vertical
        sequence against the ``j``-th of the horizontal one.
    gap_open:
        Penalty of the first residue of a gap (positive number).
    gap_extend:
        Penalty of each further gap residue (positive number).
    x_drop:
        Prune cells scoring more than this below the running best.
    """
    n, m = row_scores.shape
    best = 0
    best_i = best_j = 0
    reach_i = reach_j = 0
    if n == 0 or m == 0:
        # No room to move diagonally; a gap-only alignment never scores > 0,
        # so the empty alignment is optimal.
        path = HalfPath(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64))
        return HalfExtension(0, 0, 0, 0, 0, 0, path)

    go = int(gap_open)
    ge = int(gap_extend)
    h_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    e_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    # Row 0: empty prefix plus leading gaps in the horizontal sequence.
    h_prev[0] = 0
    j0 = np.arange(1, m + 1, dtype=np.int64)
    h_prev[1:] = -go - (j0 - 1) * ge
    live = np.nonzero(h_prev >= -x_drop)[0]
    lo, hi = int(live[0]), int(live[-1])
    reach_j = hi

    jj = np.arange(m + 1, dtype=np.int64)
    cells = hi - lo + 1  # row 0's live span
    dir_rows: list[bytes] = []
    origin: list[int] = []  # per row: where its column 0 would sit
    size = 0
    for i in range(1, n + 1):
        hi_new = min(hi + 1, m)
        w = slice(lo, hi_new + 1)
        width = hi_new + 1 - lo
        cells += width

        # Diagonal moves: H(i-1, j-1) + s(i, j); undefined at j == 0.
        diag = np.full(width, NEG_INF, dtype=np.int64)
        jstart = max(lo, 1)
        diag[jstart - lo :] = (
            h_prev[jstart - 1 : hi_new] + row_scores[i - 1, jstart - 1 : hi_new]
        )
        # Vertical gaps (consume the vertical sequence).
        e_cur = np.maximum(h_prev[w] - go, e_prev[w] - ge)
        g = np.maximum(diag, e_cur)
        # Horizontal gaps via the running-max unrolling (see module docstring).
        t = g + ge * jj[w]
        run = np.maximum.accumulate(t)
        f = np.full(width, NEG_INF, dtype=np.int64)
        if width > 1:
            f[1:] = run[:-1] - go - ge * (jj[w][1:] - 1)
        h_cur = np.maximum(g, f)
        # Direction bits. F extends where F[j-1] - ge is at least the
        # opening H[j-1] - go (F[lo] is minus infinity: nothing to extend).
        f_ext = np.zeros(width, dtype=bool)
        f_ext[1:] = f[:-1] - ge >= h_cur[:-1] - go
        bits = (
            (h_cur == diag) * DIAG
            + (h_cur == e_cur) * FROM_E
            + f_ext * F_EXT
            + (e_prev[w] - ge >= h_prev[w] - go) * E_EXT
        )
        origin.append(size - lo)
        dir_rows.append(bits.astype(np.uint8).tobytes())
        size += width

        row_best = int(h_cur.max())
        if row_best > best:
            best = row_best
            best_i = i
            best_j = lo + int(np.argmax(h_cur))
        # Prune against the updated best; trim dead cells from both ends.
        alive = h_cur >= best - x_drop
        if not alive.any():
            reach_i = i
            break
        first = int(np.argmax(alive))
        last = width - 1 - int(np.argmax(alive[::-1]))
        new_lo, new_hi = lo + first, lo + last

        h_next = np.full(m + 1, NEG_INF, dtype=np.int64)
        e_next = np.full(m + 1, NEG_INF, dtype=np.int64)
        h_next[w] = h_cur
        e_next[w] = e_cur
        h_prev, e_prev = h_next, e_next
        lo, hi = new_lo, new_hi
        reach_i = i
        reach_j = max(reach_j, hi)
        if lo > m:  # pragma: no cover - defensive; lo <= m by construction
            break
    path = HalfPath(
        np.frombuffer(b"".join(dir_rows), dtype=np.uint8), np.array(origin, dtype=np.int64)
    )
    return HalfExtension(best, best_i, best_j, reach_i, reach_j, int(cells), path)


def gapped_extend(
    pssm: np.ndarray,
    subject_codes: np.ndarray,
    seq_id: int,
    seed_query: int,
    seed_subject: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
) -> GappedExtension:
    """Gapped extension through the seed pair ``(seed_query, seed_subject)``.

    The backward half walks ``query[seed_query], query[seed_query-1], ...``
    against ``subject[seed_subject], ...`` (so it scores the seed pair
    itself); the forward half starts one residue past the seed. The two
    optima are independent, and their sum is the extension score — the same
    decomposition NCBI's ``ALIGN_EX`` uses.
    """
    qlen = pssm.shape[1]
    subject_codes = np.asarray(subject_codes, dtype=np.uint8)
    slen = subject_codes.size
    if not (0 <= seed_query < qlen and 0 <= seed_subject < slen):
        raise ValueError("seed point outside sequence bounds")

    # Backward: rows are query residues seed_query, seed_query-1, ...;
    # columns subject residues seed_subject, seed_subject-1, ...
    back_scores = pssm[
        subject_codes[seed_subject::-1][:, None],
        np.arange(seed_query, -1, -1, dtype=np.int64)[None, :],
    ].T.astype(np.int64)
    back = _half_extend(back_scores, gap_open, gap_extend, x_drop)

    # Forward: rows seed_query+1, ...; columns seed_subject+1, ...
    fwd_scores = pssm[
        subject_codes[seed_subject + 1 :][:, None],
        np.arange(seed_query + 1, qlen, dtype=np.int64)[None, :],
    ].T.astype(np.int64)
    fwd = _half_extend(fwd_scores, gap_open, gap_extend, x_drop)

    q_start = seed_query - (back.best_i - 1) if back.best_i > 0 else seed_query + 1
    s_start = seed_subject - (back.best_j - 1) if back.best_j > 0 else seed_subject + 1
    q_end = seed_query + fwd.best_i if fwd.best_i > 0 else seed_query
    s_end = seed_subject + fwd.best_j if fwd.best_j > 0 else seed_subject
    return GappedExtension(
        seq_id=seq_id,
        score=back.best + fwd.best,
        query_start=q_start,
        query_end=q_end,
        subject_start=s_start,
        subject_end=s_end,
        seed_query=seed_query,
        seed_subject=seed_subject,
        box_query_start=max(0, seed_query - back.reach_i),
        box_query_end=min(seed_query + fwd.reach_i, qlen - 1),
        box_subject_start=max(0, seed_subject - back.reach_j),
        box_subject_end=min(seed_subject + fwd.reach_j, slen - 1),
        cells=back.cells + fwd.cells,
        paths=(back.path, fwd.path),
    )
