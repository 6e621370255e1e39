"""Shared machinery of the three ungapped-extension kernels.

All three strategies (Algorithms 3-5) need the same ingredients: a score
lookup routed through the §3.5 matrix placement, an x-drop walk whose
semantics are bit-identical to the reference loop
:func:`repro.core.ungapped.ungapped_extend` and so to the CPU hot path
:func:`~repro.core.ungapped.batch_ungapped_extend` (same
strict-improvement, first-argmax tie-break), and an output buffer
written through an atomic cursor. The walk state helpers here are careful
to express every update as masked numpy so that lanes at different walk
stages coexist in one warp — which is precisely the divergence the three
strategies trade off differently. The coarse baseline kernel reuses the
per-lane word score and walk with its own score lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import ExtensionArray
from repro.cublastp.buffering import MatrixMode
from repro.cublastp.session import DeviceSession
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp

#: Output encoding: ``ext_b = (subject_end << 32) | (score + SCORE_BIAS)``.
SCORE_BIAS = 1 << 20


#: Shared-memory matrix row stride (32 data columns + 1 padding column).
SHARED_STRIDE = 33


def setup_matrix_shared(session: DeviceSession, shared: SharedMemory) -> int:
    """Allocate the placement-dependent shared regions for one block.

    Returns the bytes cooperatively loaded from global memory (the padding
    column is written locally, not transferred).
    """
    placement = session.placement
    if placement.mode is MatrixMode.PSSM_SHARED:
        shared.alloc_from("pssm", session.pssm_shared.reshape(-1))
        return int(session.pssm_padded.nbytes)
    if placement.mode is MatrixMode.BLOSUM_SHARED:
        shared.alloc_from("blosum", session.blosum_shared.reshape(-1))
        shared.alloc_from("qcodes", session.query_codes)
        return int(session.blosum_padded.nbytes) + int(session.query_codes.nbytes)
    return 0  # PSSM_GLOBAL: nothing resident in shared memory


def score_lookup(warp: Warp, session: DeviceSession, qpos: np.ndarray, scode: np.ndarray) -> np.ndarray:
    """Score subject residue codes against query positions (per lane).

    Indices must already be clamped in-range for inactive lanes. Issue
    cost: one shared/read-only load for the PSSM placements, two shared
    loads for BLOSUM (Fig. 2c's extra access).
    """
    mode = session.placement.mode
    qpos = np.asarray(qpos, dtype=np.int64)
    scode = np.asarray(scode, dtype=np.int64)
    if mode is MatrixMode.PSSM_SHARED:
        return warp.load_shared("pssm", qpos * SHARED_STRIDE + scode).astype(np.int64)
    if mode is MatrixMode.PSSM_GLOBAL:
        return warp.load(session.pssm_buf, qpos * 32 + scode).astype(np.int64)
    qc = warp.load_shared("qcodes", qpos).astype(np.int64)
    return warp.load_shared("blosum", qc * SHARED_STRIDE + scode).astype(np.int64)


def lane_word_score(
    warp: Warp,
    session: DeviceSession,
    off: np.ndarray,
    q0: np.ndarray,
    s0: np.ndarray,
    word_length: int,
    score_fn=None,
) -> np.ndarray:
    """Per-lane seed-word score (scattered subject loads, W score lookups).

    ``score_fn(warp, qpos, scode)`` overrides the placement-routed lookup:
    the coarse baseline kernel (``baselines/coarse_kernel.py``) passes its
    global-memory PSSM path, so its word scores and walks are this code
    while its memory behaviour differs.
    """
    score = np.zeros(warp.device.warp_size, dtype=np.int64)
    for t in range(word_length):
        code = warp.load(session.db_codes, off + s0 + t).astype(np.int64)
        if score_fn is None:
            sc = score_lookup(warp, session, q0 + t, code)
        else:
            sc = score_fn(warp, q0 + t, code)
        warp.alu()
        score += sc
    return score


def lane_walk(
    warp: Warp,
    session: DeviceSession,
    off: np.ndarray,
    end_or_start: np.ndarray,
    q0: np.ndarray,
    s0: np.ndarray,
    qlen: int,
    x_drop: int,
    direction: int,
    word_length: int,
    score_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane scalar x-drop walk (one residue per lane per iteration).

    ``direction=+1`` walks right from past the word's end (bounds checked
    against ``end_or_start`` = sequence end offset); ``direction=-1`` walks
    left from before the word (``end_or_start`` = sequence start offset).
    All lanes active in the caller's mask walk simultaneously; lanes whose
    walk terminates drop out of the loop while the rest continue — the
    load-imbalance signature of Algorithms 3 and 4, and of the coarse
    baseline kernel, which calls this walk per lane. ``score_fn`` is as
    in :func:`lane_word_score`.

    Returns
    -------
    (gain, steps):
        Per-lane best prefix gain (>= 0) and its length.
    """
    dev = warp.device
    n = dev.warp_size
    cur = np.zeros(n, dtype=np.int64)
    best = np.zeros(n, dtype=np.int64)
    best_steps = np.zeros(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    stopped = ~warp.active  # lanes outside the caller's mask never walk

    for _ in warp.loop_while(lambda: ~stopped):
        act = warp.active
        steps_next = steps + 1
        if direction > 0:
            q = q0 + word_length - 1 + steps_next
            sabs = off + s0 + word_length - 1 + steps_next
            inb = (q < qlen) & (sabs < end_or_start)
        else:
            q = q0 - steps_next
            sabs = off + s0 - steps_next
            inb = (q >= 0) & (sabs >= end_or_start)
        stopped |= act & ~inb
        with warp.where(inb):
            inner = warp.active
            code = warp.load(
                session.db_codes, np.where(inner, sabs, 0)
            ).astype(np.int64)
            qsafe = np.where(inner, np.clip(q, 0, qlen - 1), 0)
            if score_fn is None:
                sc = score_lookup(warp, session, qsafe, code)
            else:
                sc = score_fn(warp, qsafe, code)
            warp.alu(3)  # accumulate, best update, drop test
            cur = np.where(inner, cur + sc, cur)
            steps = np.where(inner, steps_next, steps)
            improved = inner & (cur > best)
            best = np.where(improved, cur, best)
            best_steps = np.where(improved, steps, best_steps)
            stopped |= inner & (best - cur > x_drop)
    gain = np.where(best > 0, best, 0)
    steps_out = np.where(best > 0, best_steps, 0)
    return gain, steps_out


@dataclass
class ExtensionOutput:
    """Raw extension records read back from the device output buffers."""

    seq_id: np.ndarray
    query_start: np.ndarray
    query_end: np.ndarray
    subject_start: np.ndarray
    subject_end: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return int(self.seq_id.size)

    def to_extension_array(self) -> ExtensionArray:
        """Columnar readback in canonical (seq, query, subject) order.

        The device buffers decode straight into six aligned columns; one
        lexsort puts them in the order the record path always used, and
        the CPU phases consume the columns without ever materialising
        per-record objects.
        """
        order = np.lexsort((self.subject_start, self.query_start, self.seq_id))
        return ExtensionArray(
            seq_id=self.seq_id[order],
            query_start=self.query_start[order],
            query_end=self.query_end[order],
            subject_start=self.subject_start[order],
            subject_end=self.subject_end[order],
            score=self.score[order],
        )


class WarpOutputBuffer:
    """Two-level extension output: warp-local buffer, batched global flush.

    Per-record global atomics serialise device-wide; §3.3's "dedicated
    buffer maintained by each thread block" exists precisely to avoid
    them. Records accumulate in registers/local memory (2 ALU per append)
    and one flush reserves the whole batch with a single atomic, then
    streams it out with coalesced consecutive stores.
    """

    def __init__(self) -> None:
        self._records: list[tuple[int, int]] = []

    def append(
        self,
        warp: Warp,
        seq: np.ndarray,
        diag: np.ndarray,
        s_start: np.ndarray,
        s_end: np.ndarray,
        score: np.ndarray,
    ) -> None:
        """Buffer one extension per active lane (lane order)."""
        warp.alu(2)  # pack both output words
        a = (seq << 32) | (diag << 16) | s_start
        b = (s_end << 32) | (score + SCORE_BIAS)
        warp.alu(2)  # local-buffer store
        for lane in np.nonzero(warp.active)[0]:
            self._records.append((int(a[lane]), int(b[lane])))

    def flush(self, warp: Warp, ctx_mem) -> None:
        """Reserve slots with one atomic and store the batch coalesced."""
        n = len(self._records)
        if n == 0:
            return
        out_a = ctx_mem.buffers["ext_out_a"]
        out_b = ctx_mem.buffers["ext_out_b"]
        counter = ctx_mem.buffers["ext_count"]
        wsz = warp.device.warp_size
        with warp.where(warp.lane_id == 0):
            base_arr = warp.atomic_add_global(
                counter, np.zeros(wsz, dtype=np.int64),
                np.where(warp.lane_id == 0, n, 0),
            )
        base = int(base_arr[0])
        recs_a = np.array([r[0] for r in self._records], dtype=np.int64)
        recs_b = np.array([r[1] for r in self._records], dtype=np.int64)
        for start in range(0, n, wsz):
            chunk = min(wsz, n - start)
            vals_a = np.zeros(wsz, dtype=np.int64)
            vals_b = np.zeros(wsz, dtype=np.int64)
            vals_a[:chunk] = recs_a[start : start + chunk]
            vals_b[:chunk] = recs_b[start : start + chunk]
            idx = np.minimum(base + start + warp.lane_id, out_a.data.size - 1)
            with warp.where(warp.lane_id < chunk):
                warp.store(out_a, idx, vals_a)
                warp.store(out_b, idx, vals_b)
        self._records.clear()


def store_extension_at(
    warp: Warp,
    ctx_mem,
    slot: np.ndarray,
    seq: np.ndarray,
    diag: np.ndarray,
    s_start: np.ndarray,
    s_end: np.ndarray,
    score: np.ndarray,
) -> None:
    """Store one extension per active lane at a caller-chosen slot.

    Hit-based extension produces exactly one record per seed, so it writes
    to per-seed slots instead of an atomic cursor (the paper's per-thread
    output stores) — which also keeps records aligned with seeds for the
    host-side de-duplication pass.
    """
    out_a = ctx_mem.buffers["ext_out_a"]
    out_b = ctx_mem.buffers["ext_out_b"]
    warp.alu(2)  # pack both output words
    a = (seq << 32) | (diag << 16) | s_start
    b = (s_end << 32) | (score + SCORE_BIAS)
    warp.store(out_a, slot, a)
    warp.store(out_b, slot, b)


def read_extensions(session: DeviceSession, query_length: int) -> ExtensionOutput:
    """Decode the device output buffers into host arrays."""
    mem = session.ctx.memory
    count = int(mem.buffers["ext_count"].data[0])
    a = mem.buffers["ext_out_a"].data[:count]
    b = mem.buffers["ext_out_b"].data[:count]
    seq = a >> 32
    diag = (a >> 16) & 0xFFFF
    s_start = a & 0xFFFF
    s_end = b >> 32
    score = (b & 0xFFFFFFFF) - SCORE_BIAS
    q_start = s_start - (diag - query_length)
    q_end = q_start + (s_end - s_start)
    return ExtensionOutput(
        seq_id=seq,
        query_start=q_start,
        query_end=q_end,
        subject_start=s_start,
        subject_end=s_end,
        score=score,
    )
