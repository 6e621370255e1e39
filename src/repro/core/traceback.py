"""Phase 4: alignment with traceback.

Phase 3's x-drop DP (:mod:`repro.core.gapped`, batched in
:mod:`repro.core.gapped_batch`) records one direction byte per cell it
computes. Phase 4 re-solves nothing: :func:`batch_traceback_align` walks
each reported extension's two halves back over those bytes, from each
half's best cell to the seed anchor, with a fixed precedence at every
cell — diagonal, then vertical gap, then horizontal gap — and renders
the backward half reversed, then the forward half. So every alignment
carries its extension's score and endpoints. This is BLAST's design:
its traceback re-runs the seed-anchored x-drop DP with path bookkeeping
(NCBI's semi-gapped ``ALIGN_EX``), and only for the alignments that
survive the score cutoffs, which is also why cuBLASTP leaves it on the
CPU.

:func:`traceback_align` is a different thing: the optimal local
(Smith-Waterman) alignment inside a box, from full ``H``/``E``/``F``
score matrices, each cell's provenance recovered by score comparison.
Only the Smith-Waterman baseline runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.alphabet import ALPHABET, GAP_CHAR
from repro.core.gapped import DIAG, E_EXT, F_EXT, FROM_E, NEG_INF, HalfPath

if TYPE_CHECKING:
    from repro.core.gapped import GappedExtension

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
    E = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
    F = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
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


def batch_traceback_align(
    pssm: np.ndarray,
    query_codes: np.ndarray,
    subjects: "list[np.ndarray]",
    gapped: "list[GappedExtension]",
) -> list[TracebackAlignment]:
    """Walk and render every extension's recorded path.

    Each half of an extension is walked back over the direction bytes
    phase 3 recorded (its ``paths``), from the half's best cell, which
    the extension's endpoints give, to the seed anchor. The alignment is
    the backward half's walk as it comes (it runs from the query start
    towards the seed), then the forward half's walk reversed. Its score
    and endpoints are the extension's.

    ``pssm`` is the query PSSM (for the midline's positives);
    ``subjects`` carries one full encoded subject per extension
    (duplicates are fine). Returns one alignment per extension, in input
    order.

    Raises
    ------
    ValueError
        When ``subjects`` and ``gapped`` differ in length.
    """
    out = []
    for g, subject in zip(gapped, subjects, strict=True):
        back, fwd = g.paths
        moves = _walk_half(
            back, g.seed_query + 1 - g.query_start, g.seed_subject + 1 - g.subject_start
        ) + _walk_half(
            fwd, g.query_end - g.seed_query, g.subject_end - g.seed_subject
        )[::-1]
        out.append(
            _render(pssm, query_codes, subject, g.score, g.query_start, g.subject_start, moves)
        )
    return out


def _walk_half(path: HalfPath, i: int, j: int) -> bytes:
    """Walk one half's direction bytes back from cell ``(i, j)`` to the
    anchor ``(0, 0)``; returns the moves in walk order (last cell first).

    Precedence at every cell: diagonal, then vertical gap, then
    horizontal gap. Row 0 and column 0 hold no bytes: a walk that
    reaches either ends in one gap run from the anchor.
    """
    dirs = memoryview(path.dirs)
    origin = path.origin[:i].tolist()
    moves = bytearray()
    state = _MOVE_DIAG  # the H state: the cell's own provenance decides
    while i > 0 and j > 0:
        c = dirs[origin[i - 1] + j]
        if state == _MOVE_DIAG:
            if c & DIAG:
                moves.append(_MOVE_DIAG)
                i -= 1
                j -= 1
            elif c & FROM_E:
                state = _MOVE_E
            else:
                state = _MOVE_F
        elif state == _MOVE_E:
            moves.append(_MOVE_E)
            i -= 1
            if not c & E_EXT:
                state = _MOVE_DIAG
        else:
            moves.append(_MOVE_F)
            j -= 1
            if not c & F_EXT:
                state = _MOVE_DIAG
    moves += bytes([_MOVE_E]) * i + bytes([_MOVE_F]) * j
    return bytes(moves)


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
    Returns the box-relative ``(i, j)`` the walk stopped at — the 0-based
    start of the alignment — and its moves in forward order.
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
