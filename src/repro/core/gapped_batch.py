"""Batched wavefront gapped extension: lockstep x-drop DP across seeds.

:func:`~repro.core.gapped._half_extend` is already row-vectorised (the
``maximum.accumulate`` unrolling of the F-array), but an x-drop band is
tens of cells wide, so each numpy op touches a handful of values and
Python-level dispatch dominates — the same pathology PR 7 cured for
ungapped extension. The cure is the same shape: every live
half-extension (backward and forward halves are independent DPs, so they
ride as separate lanes) advances one DP row per step, all lanes at once,
with per-lane band bounds, x-drop kills and retirement.

A row is *ragged*: it holds only each live lane's window ``[lo, hi_new]``
— the scalar DP's computed cells — concatenated into one flat vector,
each window framed by one guard cell per side. Work is therefore
proportional to live cells, not to lanes times the widest band. The
previous row is read through one index map (lane base plus column), so
retiring a lane just drops its column of the per-lane state. Each row
also yields one direction byte per cell (:mod:`repro.core.gapped`'s
bits), kept in the same flat layout, which phase 4 walks
(:class:`LanePaths`).

Exactness (the conformance argument, enforced by
``tests/property/test_prop_gapped_batch.py``):

* Every row resets its guard cells to ``NEG_INF`` (``-2**40``) in ``H``,
  ``E`` and the gapless part ``G``, and an interior cell reads the
  previous row only at columns ``[lo - 1, hi_new]``, which lie inside its
  own lane's previous window or on that window's guards. The scalar
  DP's ``h_prev``/``e_prev`` hold ``NEG_INF`` outside the computed
  window, so every value an interior cell reads is the scalar's value,
  and every real (scalar-reachable) cell is computed bit for bit.
* Cells derived only from ``NEG_INF`` ("garbage": the guard cells, and
  the scalar's own out-of-window reads, e.g. the diagonal at ``j = 0``)
  stay within ``NEG_INF -/+ (n * max|score| + gap_open)`` after ``n``
  rows, while real values are bounded by roughly ``(n + m)`` times the
  largest score or penalty — under ``~10**6`` for any real query. So
  garbage never wins a ``max`` against a real value, never passes an
  x-drop liveness test (``best >= 0``), and never steals an ``argmax``:
  every window holds a real cell (its ``lo`` column extends an alive
  cell of the previous row), so the row best is real and its first
  occurrence is the scalar's.
* The F running max is one ``maximum.accumulate`` over the whole flat
  row of ``g + gap_extend * j + rank * BIG``, with ``rank`` the lane's
  position in the row and ``BIG = 2**42``. Every term of lane ``r``
  (garbage included, at least ``NEG_INF`` minus the drift above) exceeds
  every term of lane ``r - 1`` (at most real plus ``gap_extend * m``),
  so the scan restarts at each window: within a window it sees exactly
  the scalar's terms, plus the left guard's ``NEG_INF``, and subtracting
  the offset back leaves the scalar's F at every column where that is
  real. The offset stays inside ``int64`` for up to :data:`_MAX_LANES`
  lanes per scan; larger calls are split.
* A garbage cell never matches a real predecessor's byte. A walk reads
  bytes only on an optimal path from a real best cell, and each step
  goes to the predecessor whose value made the current cell's, so it
  only ever reads real cells. A real cell's bits compare its real ``H``
  with its diagonal and ``E`` candidates (``DIAG``, ``FROM_E``), its
  ``E`` extension with its ``E`` opening (``E_EXT``), and the F scan one
  column left with the scan two columns left (``F_EXT``). Where a
  candidate derives from a garbage cell (a guard, or the scalar's
  out-of-window ``NEG_INF``), its value is within the drift above of
  ``NEG_INF``: it never equals a real ``H``, so it sets no ``DIAG`` or
  ``FROM_E``; and it never reaches a real alternative, so ``E_EXT`` and
  ``F_EXT`` name the real one, exactly as the scalar's bits do. The
  scan restarts at every window, so ``F_EXT`` at a window's first
  column (the scan at its left guard against the previous lane's last
  term) is never set, and no byte compares across lanes. Guard bytes
  are written and never read.

Wave scheduling lives in :meth:`BlastpPipeline.phase_gapped`, not here:
this module only answers "extend these (seq, seed) pairs, all at once".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gapped import NEG_INF, GappedExtension, HalfPath

#: Per-lane offset of the segmented F scan: above the spread between any
#: real DP value and any garbage value (module docstring).
_BIG = np.int64(2**42)
#: Lanes per segmented scan: ``_MAX_LANES * _BIG`` stays well inside int64.
_MAX_LANES = 2**19


@dataclass(frozen=True)
class LanePaths:
    """The direction bytes of one :func:`batch_half_extend` call.

    ``dirs`` is every ragged row's bytes, guards included, one row after
    the other. ``records`` has one column per lane window, in buffer
    order: ``(lane, length, lo)``, the window's length with its two
    guards and its first column. The windows tile ``dirs``, so a
    window's start is the sum of the lengths before it.
    """

    dirs: np.ndarray
    records: np.ndarray

    @classmethod
    def concat(cls, parts: "list[LanePaths]", lane_offsets: "list[int]") -> "LanePaths":
        """One call's paths from the paths of its consecutive lane slices."""
        return cls(
            np.concatenate([p.dirs for p in parts]),
            np.concatenate(
                [p.records + [[k], [0], [0]] for p, k in zip(parts, lane_offsets)], axis=1
            ),
        )

    def select(self, keep: np.ndarray) -> "list[HalfPath | None]":
        """Each lane's :class:`~repro.core.gapped.HalfPath` where ``keep``
        is set, else ``None``.

        The paths share this call's buffer, so it is freed once no kept
        lane's path is referenced, at once when no lane is kept. The kept
        windows are not compacted into a buffer of their own: the copy
        and its mask would cost more memory at the peak than the dropped
        windows free."""
        lane, length, lo = self.records
        origin = np.cumsum(length, dtype=np.int64) - length + 1 - lo
        # A lane's windows are in row order; a stable sort groups them.
        order = np.argsort(lane, kind="stable")
        origin = origin[order]
        bounds = np.searchsorted(lane[order], np.arange(keep.size + 1)).tolist()
        return [
            HalfPath(self.dirs, origin[bounds[k] : bounds[k + 1]]) if keep[k] else None
            for k in range(keep.size)
        ]


def batch_half_extend(
    table: np.ndarray,
    codes: np.ndarray,
    q_anchor: np.ndarray,
    q_step: np.ndarray,
    s_anchor: np.ndarray,
    s_step: np.ndarray,
    n_rows: np.ndarray,
    m_cols: np.ndarray,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All half-extensions at once, one ragged row per DP row.

    Lane ``l`` runs the scalar :func:`~repro.core.gapped._half_extend` DP
    whose walk cell ``(i, j)`` (``1 <= i <= n_rows[l]``, ``1 <= j <=
    m_cols[l]``) scores ``table[q_anchor[l] + q_step[l] * i,
    codes[s_anchor[l] + s_step[l] * j]]``, with ``table`` the query's
    score table (:func:`~repro.matrices.pssm.build_score_table`) — the
    anchor/step parameterisation covers both walk directions without
    materialising per-lane score matrices.

    Returns the six :class:`~repro.core.gapped.HalfExtension` fields as
    aligned int64 columns: ``(best, best_i, best_j, reach_i, reach_j,
    cells)``, then the direction bytes of every computed cell of every
    lane (:class:`LanePaths`), the scalar DP's bits bit for bit.
    """
    columns = [
        np.asarray(a, dtype=np.int64)
        for a in (q_anchor, q_step, s_anchor, s_step, n_rows, m_cols)
    ]
    num = columns[0].size
    if num > _MAX_LANES:
        parts = [
            batch_half_extend(
                table, codes, *(c[k : k + _MAX_LANES] for c in columns),
                gap_open, gap_extend, x_drop,
            )
            for k in range(0, num, _MAX_LANES)
        ]
        *fields, paths = zip(*parts)
        return (
            *(np.concatenate(field) for field in fields),
            LanePaths.concat(list(paths), list(range(0, num, _MAX_LANES))),
        )
    q_anchor, q_step, s_anchor, s_step, n_rows, m_cols = columns
    go, ge, xd = int(gap_open), int(gap_extend), int(x_drop)
    # The six result rows, filled in as lanes retire. Degenerate lanes (no
    # room to move diagonally) keep the all-zero empty-alignment result,
    # exactly like the scalar early return.
    result = np.zeros((6, num), dtype=np.int64)
    lanes = np.flatnonzero((n_rows > 0) & (m_cols > 0))
    dirs = bytearray()
    records: list[np.ndarray] = [np.zeros((3, 0), dtype=np.int32)]
    if lanes.size == 0:
        return (*result, LanePaths(np.frombuffer(dirs, dtype=np.uint8), records[0]))
    scores = table.reshape(-1)
    width = table.shape[1]

    # Row 0: empty prefix plus leading horizontal gaps. The live span is
    # [0, hi] with hi the last j where -go - (j-1)*ge >= -x_drop.
    hi_cap = 1 + (xd - go) // ge if go <= xd else 0
    mm = m_cols[lanes]
    hi = np.minimum(mm, hi_cap)
    # Scalar row 0 is computed for *every* j <= m (the whole gap ramp);
    # store the columns row 1 reads, [0, min(hi + 1, m)], plus guards.
    seglen = np.minimum(hi + 1, mm) + 3
    ends = np.cumsum(seglen)
    starts = ends - seglen
    j = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(starts + 1, seglen)
    h_prev = np.where(j == 0, np.int64(0), -go - (j - 1) * ge)
    h_prev[starts] = NEG_INF
    h_prev[ends - 1] = NEG_INF
    e_prev = np.full(h_prev.size, NEG_INF, dtype=np.int64)

    # Per-lane state: one row per field, one column per live lane, so
    # retiring lanes is one column selection. The first six rows are the
    # result fields; ``cells`` also counts each row's two guard cells
    # until retirement takes them off.
    zero = np.zeros(lanes.size, dtype=np.int64)
    state = np.stack([
        zero,  # best
        zero,  # best_i
        zero,  # best_j
        zero,  # reach_i, set at retirement
        hi,  # reach_j
        hi + 1,  # cells: row 0's live span
        lanes,
        n_rows[lanes],
        mm,
        q_anchor[lanes] * width,  # table offset of the query position
        q_step[lanes] * width,
        s_anchor[lanes],
        s_step[lanes],
        zero,  # lo
        hi,
        starts + 1,  # base: the previous row's flat index of column 0
    ])
    x_all = ge_x_all = np.arange(0, dtype=np.int64)  # flat indices, grown on demand

    i = 0
    while True:
        (p_best, p_best_i, p_best_j, _, p_reach_j, p_cells, lanes, nn, mm,
         q_row, q_row_step, sa, sd, lo, hi, base) = state
        rank = np.arange(lanes.size, dtype=np.int64) * _BIG
        while True:  # one DP row per step, until some lane retires
            i += 1
            seglen = np.minimum(hi + 1, mm)
            seglen -= lo
            seglen += 3  # the window [lo, hi_new] and its two guards
            p_cells += seglen
            ends = np.cumsum(seglen)
            starts = ends - seglen
            size = int(ends[-1])
            # This row's flat index of each lane's column 0; every per-cell
            # quantity below is affine in the flat index x, per lane.
            col0 = starts + 1 - lo
            q_row += q_row_step
            per_lane = np.repeat(
                np.stack([
                    base - col0,  # x + this: the same column one row up
                    sa - sd * col0,  # + sd * x: the subject position
                    sd,
                    rank - ge * col0,  # + ge * x: the F scan's offset
                    q_row,
                ]),
                seglen,
                axis=1,
            )
            up, s_pos, s_dir, offset, row = per_lane
            if size > x_all.size:
                x_all = np.arange(2 * size, dtype=np.int64)
                ge_x_all = ge * x_all
            x = x_all[:size]
            up += x
            s_dir *= x
            s_pos += s_dir
            offset += ge_x_all[:size]
            # Substitution scores; positions off the sequence (guards, j = 0)
            # only ever meet a NEG_INF neighbour, so clipping them is safe.
            row += codes.take(s_pos, mode="clip")
            h_up = h_prev.take(up, mode="clip")
            e_cur = h_up - go
            e_ext = e_prev.take(up, mode="clip")
            e_ext -= ge
            # The direction byte is built high bit first: each ``d += d``
            # shifts the bits so far up by one, and the next flag fills bit 0.
            d = np.greater_equal(e_ext, e_cur).view(np.uint8)  # E_EXT
            np.maximum(e_cur, e_ext, out=e_cur)
            # Diagonal moves: H(i-1, j-1) is the previous cell's H(i-1, j), as
            # a window's columns are consecutive (a left guard's is reset below).
            diag = np.empty(size, dtype=np.int64)
            diag[0] = NEG_INF
            np.add(h_up[:-1], scores.take(row[1:], mode="clip"), out=diag[1:])
            g = np.maximum(diag, e_cur)
            guards = np.concatenate([starts, ends - 1])
            g[guards] = NEG_INF
            e_cur[guards] = NEG_INF
            # Horizontal gaps via the running-max unrolling (gapped.py), one
            # segmented scan over the whole row (module docstring).
            run = g + offset
            np.maximum.accumulate(run, out=run)
            h_cur = np.empty(size, dtype=np.int64)
            h_cur[0] = NEG_INF
            np.subtract(run[:-1], offset[1:], out=h_cur[1:])
            h_cur[1:] += ge - go
            np.maximum(h_cur, g, out=h_cur)
            h_cur[guards] = NEG_INF
            # F at column j extends when the scan did not rise at j - 1.
            flag = np.zeros(size, dtype=bool)
            np.equal(run[1:-1], run[:-2], out=flag[2:])
            d += d
            d += flag.view(np.uint8)  # F_EXT
            for other in (e_cur, diag):  # FROM_E, DIAG
                np.equal(h_cur, other, out=flag)
                d += d
                d += flag.view(np.uint8)
            dirs += d.data
            records.append(np.stack([lanes, seglen, lo]).astype(np.int32))
            h_prev, e_prev = h_cur, e_cur

            row_best = np.maximum.reduceat(h_cur, starts)
            improved = row_best > p_best
            np.maximum(p_best, row_best, out=p_best)
            top = np.repeat(p_best, seglen)
            if improved.any():
                at_top = np.flatnonzero(h_cur == top)
                first = at_top.take(np.searchsorted(at_top, starts), mode="clip")
                np.copyto(p_best_i, i, where=improved)
                np.subtract(first, col0, out=p_best_j, where=improved)
            # The live cells, and each window's first and last of them.
            alive = np.flatnonzero(h_cur >= top - xd)
            a = np.searchsorted(alive, starts)
            b = np.searchsorted(alive, ends)
            live = b > a
            retired = ~live | (nn <= i)
            if alive.size:  # else every lane dies and retires
                # A dead lane's lo/hi are garbage, but it retires now.
                np.subtract(alive.take(a, mode="clip"), col0, out=lo)
                np.subtract(alive.take(b - 1, mode="clip"), col0, out=hi)
                np.maximum(p_reach_j, hi, out=p_reach_j, where=live)
            np.copyto(base, col0)
            if retired.any():
                break

        done = state[:, retired]
        done[3] = i  # reach_i
        done[5] -= 2 * i  # the guard cells
        result[:, done[6]] = done[:6]
        # Retired lanes just drop out: survivors read their previous row
        # through ``base``, wherever it sits in the flat vector.
        state = state[:, ~retired]
        if state.shape[1] == 0:
            paths = LanePaths(
                np.frombuffer(dirs, dtype=np.uint8), np.concatenate(records, axis=1)
            )
            return (*result, paths)


def batch_gapped_extend(
    table: np.ndarray,
    db,
    seq_ids: np.ndarray,
    seed_query: np.ndarray,
    seed_subject: np.ndarray,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    report_cutoff: int,
) -> list[GappedExtension]:
    """Gapped-extend every ``(seq_id, seed)`` triple in one batched DP.

    Result-identical, element for element, to calling
    :func:`~repro.core.gapped.gapped_extend` on each triple with the PSSM
    ``table`` was built from: the backward and forward halves of all seeds
    run as ``2 * len(seq_ids)`` lanes of one :func:`batch_half_extend`
    call, and the halves are combined with the same coordinate
    arithmetic. ``table`` is the query's score table
    (:func:`~repro.matrices.pssm.build_score_table`). Seeds must be in
    bounds (the pipeline derives them from extension columns, which
    guarantees it).

    Extensions scoring at least ``report_cutoff`` carry their halves'
    direction bytes (``paths``) for phase 4 to walk; the others hold
    none, as no walk will read them.
    """
    seq_ids = np.asarray(seq_ids, dtype=np.int64)
    seed_query = np.asarray(seed_query, dtype=np.int64)
    seed_subject = np.asarray(seed_subject, dtype=np.int64)
    num = seq_ids.size
    if num == 0:
        return []
    qlen = int(table.shape[0])
    starts = db.offsets[seq_ids]
    slen = db.offsets[seq_ids + 1] - starts

    # Lanes [0, num) walk backward from the seed (scoring the seed pair),
    # lanes [num, 2*num) forward from one past it.
    q_anchor = np.concatenate([seed_query + 1, seed_query])
    s_anchor = np.concatenate(
        [starts + seed_subject + 1, starts + seed_subject]
    )
    step = np.repeat(np.array([-1, 1], dtype=np.int64), num)
    n_rows = np.concatenate([seed_query + 1, qlen - seed_query - 1])
    m_cols = np.concatenate([seed_subject + 1, slen - seed_subject - 1])
    best, bi, bj, ri, rj, ncells, lane_paths = batch_half_extend(
        table, db.codes, q_anchor, step, s_anchor, step,
        n_rows, m_cols, gap_open, gap_extend, x_drop,
    )

    back, fwd = slice(0, num), slice(num, 2 * num)
    q_start = np.where(bi[back] > 0, seed_query - (bi[back] - 1), seed_query + 1)
    s_start = np.where(bj[back] > 0, seed_subject - (bj[back] - 1), seed_subject + 1)
    q_end = np.where(bi[fwd] > 0, seed_query + bi[fwd], seed_query)
    s_end = np.where(bj[fwd] > 0, seed_subject + bj[fwd], seed_subject)
    score = best[back] + best[fwd]
    box_qs = np.maximum(0, seed_query - ri[back])
    box_qe = np.minimum(seed_query + ri[fwd], qlen - 1)
    box_ss = np.maximum(0, seed_subject - rj[back])
    box_se = np.minimum(seed_subject + rj[fwd], slen - 1)
    total_cells = ncells[back] + ncells[fwd]
    reported = score >= report_cutoff
    halves = lane_paths.select(np.concatenate([reported, reported]))
    return [
        GappedExtension(
            seq_id=int(seq_ids[k]),
            score=int(score[k]),
            query_start=int(q_start[k]),
            query_end=int(q_end[k]),
            subject_start=int(s_start[k]),
            subject_end=int(s_end[k]),
            seed_query=int(seed_query[k]),
            seed_subject=int(seed_subject[k]),
            box_query_start=int(box_qs[k]),
            box_query_end=int(box_qe[k]),
            box_subject_start=int(box_ss[k]),
            box_subject_end=int(box_se[k]),
            cells=int(total_cells[k]),
            paths=(halves[k], halves[num + k]) if reported[k] else None,
        )
        for k in range(num)
    ]
