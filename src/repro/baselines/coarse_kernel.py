"""The coarse-grained one-thread-per-sequence BLASTP kernel (Fig. 4).

This is the design CUDA-BLASTP and GPU-BLASTP share and the paper argues
against: each lane runs the *whole* fused hit-detection + ungapped-
extension loop (Algorithm 1) over its own subject sequence. Every memory
touch is a per-lane scatter (32 lanes, 32 different sequences), the hit
and extension branches diverge lane by lane, and a warp is held hostage by
its longest sequence — the three pathologies Fig. 19 quantifies.

Semantics are pinned to the library-wide rules (two-hit with overlap
exclusion via a depth-``W`` ring of previous hit positions, coverage via
``ext_reach``), so the extension set is identical to the reference and to
cuBLASTP; only the execution pattern differs.

The two systems differ in scheduling and output policy:

* **CUDA-BLASTP** pre-sorts the database by sequence length and assigns
  sequences statically (lane ``i`` takes sequences ``i, i+stride, ...``);
  extensions are appended through a global atomic cursor.
* **GPU-BLASTP** pops sequences from a global work-queue atomic (a lane
  grabs its next sequence the moment it finishes) and buffers extensions
  per thread, flushing per sequence — its "two-level buffering".
"""

from __future__ import annotations

import numpy as np

from repro.core.results import ExtensionArray
from repro.cublastp.ext_common import (
    ExtensionOutput,
    SCORE_BIAS,
    lane_walk,
    lane_word_score,
)
from repro.cublastp.hit_detection_kernel import _alloc_unique
from repro.cublastp.session import DeviceSession, WORD_ENTRY_COUNT_MASK, WORD_ENTRY_SHIFT
from repro.alphabet import ALPHABET_SIZE
from repro.gpusim.kernel import Kernel, KernelContext, launch
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.warp import Warp

#: A depth-W ring of previous hit positions per diagonal implements the
#: "some predecessor within [W, window]" rule exactly (see two_hit.py);
#: the three 16-bit slots live packed in one int64 per diagonal.


class CoarseBlastpKernel(Kernel):
    """Fused coarse-grained hit detection + ungapped extension."""

    name = "coarse_blastp"
    block_threads = 128
    registers_per_thread = 63  # fused kernels are register-hungry

    def __init__(
        self,
        session: DeviceSession,
        x_drop: int,
        word_length: int,
        two_hit_window: int,
        work_queue: bool,
        buffered_output: bool,
        registers_per_thread: int | None = None,
    ) -> None:
        self.session = session
        self.x_drop = x_drop
        self.word_length = word_length
        self.window = two_hit_window
        self.work_queue = work_queue
        self.buffered_output = buffered_output
        if registers_per_thread is not None:
            self.registers_per_thread = registers_per_thread

    #: Sequences each thread processes over its lifetime. The published
    #: coarse kernels ran far more sequences than threads (300 k sequences
    #: on a few thousand threads); 4 per thread keeps that regime — where
    #: assignment policy matters — at sandbox database sizes.
    seqs_per_thread = 4

    def grid_blocks(self, ctx: KernelContext) -> int:
        return max(
            1,
            -(-len(self.session.db) // (self.block_threads * self.seqs_per_thread)),
        )

    # -- memory helpers ------------------------------------------------------

    def _score(self, warp: Warp, qpos: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Global-memory PSSM lookup (no shared staging in the coarse codes)."""
        s = self.session
        qsafe = np.clip(qpos, 0, s.query_length - 1)
        return warp.load(s.pssm_buf, qsafe * 32 + code).astype(np.int64)

    def run_warp(self, ctx: KernelContext, warp: Warp, block_id: int, warp_in_block: int) -> None:
        s = self.session
        dev = ctx.device
        qlen = s.query_length
        W = self.word_length
        n_seqs = len(s.db)
        lanes = dev.warp_size
        lane = warp.lane_id
        tid = warp.warp_id * lanes + lane
        total_threads = warp.num_warps * lanes
        ndiag = ctx.params["ndiag"]
        lasthit = ctx.memory.buffers["lasthit_rings"]
        reach_buf = ctx.memory.buffers["ext_reach"]
        out_a = ctx.memory.buffers["ext_out_a"]
        out_b = ctx.memory.buffers["ext_out_b"]
        counter = ctx.memory.buffers["ext_count"]
        queue = ctx.memory.buffers.get("work_queue")

        # Per-lane current sequence (static stride or work-queue pop).
        if self.work_queue:
            seq = warp.atomic_add_global(
                queue, np.zeros(lanes, dtype=np.int64), np.ones(lanes, dtype=np.int64)
            ).astype(np.int64)
        else:
            seq = tid.copy()
        j = np.zeros(lanes, dtype=np.int64)
        off = np.zeros(lanes, dtype=np.int64)
        end = np.zeros(lanes, dtype=np.int64)
        n_words = np.zeros(lanes, dtype=np.int64)
        fresh = np.ones(lanes, dtype=bool)
        pending: list[list[tuple[int, ...]]] = [[] for _ in range(lanes)]

        def flush(lane_mask: np.ndarray) -> None:
            """GPU-BLASTP two-level buffering: per-sequence output flush."""
            counts = np.array([len(pending[x]) for x in range(lanes)], dtype=np.int64)
            todo = lane_mask & (counts > 0)
            if not todo.any():
                return
            with warp.where(todo):
                base = warp.atomic_add_global(
                    counter, np.zeros(lanes, dtype=np.int64), counts
                ).astype(np.int64)
                depth = int(counts[todo].max())
                for d in range(depth):
                    has = todo & (counts > d)
                    a = np.zeros(lanes, dtype=np.int64)
                    b = np.zeros(lanes, dtype=np.int64)
                    for x in np.nonzero(has)[0]:
                        a[x], b[x] = pending[x][d]
                    with warp.where(has):
                        warp.store(out_a, base + d, a)
                        warp.store(out_b, base + d, b)
            for x in np.nonzero(todo)[0]:
                pending[x].clear()

        def emit(mask: np.ndarray, seq_v, diag_v, s_start, s_end, score) -> None:
            a = (seq_v << 32) | (diag_v << 16) | s_start
            b = (s_end << 32) | (score + SCORE_BIAS)
            warp.alu(2)
            if self.buffered_output:
                warp.alu(2)  # local-buffer store (registers / local memory)
                for x in np.nonzero(mask & warp.active)[0]:
                    pending[x].append((int(a[x]), int(b[x])))
            else:
                with warp.where(mask):
                    ones = (mask & warp.active).astype(np.int64)
                    slot = warp.atomic_add_global(
                        counter, np.zeros(lanes, dtype=np.int64), ones
                    )
                    warp.store(out_a, slot, a)
                    warp.store(out_b, slot, b)

        # Main fused loop: lanes advance word-by-word through their own
        # sequences; a lane finishing a sequence picks up its next one.
        def has_work():
            return seq < n_seqs

        for _ in warp.loop_while(has_work):
            start_mask = fresh & warp.active
            if start_mask.any():
                with warp.where(start_mask):
                    o = warp.load(s.db_offsets, np.minimum(seq, n_seqs - 1))
                    e = warp.load(s.db_offsets, np.minimum(seq, n_seqs - 1) + 1)
                warp.alu()
                off = np.where(start_mask, o, off)
                end = np.where(start_mask, e, end)
                n_words = np.where(start_mask, end - off - W + 1, n_words)
                j = np.where(start_mask, 0, j)
                fresh = fresh & ~start_mask

            scanning = warp.active & (j < n_words)
            with warp.where(scanning):
                inner = warp.active
                ji = np.where(inner, j, 0)
                base = off + ji
                c0 = warp.load(s.db_codes, np.where(inner, base, 0)).astype(np.int64)
                c1 = warp.load(s.db_codes, np.where(inner, base + 1, 0)).astype(np.int64)
                c2 = warp.load(s.db_codes, np.where(inner, base + 2, 0)).astype(np.int64)
                warp.alu()
                word = (c0 * ALPHABET_SIZE + c1) * ALPHABET_SIZE + c2
                entry = warp.load(s.word_entries, word)
                warp.alu()
                p_off = entry >> WORD_ENTRY_SHIFT
                count = entry & WORD_ENTRY_COUNT_MASK
                k = np.zeros(lanes, dtype=np.int64)
                for _ in warp.loop_while(lambda: k < count):
                    hact = warp.active
                    ki = np.where(hact, k, 0)
                    qpos = warp.load(
                        s.positions, np.where(hact, p_off + ki, 0)
                    ).astype(np.int64)
                    warp.alu(2)
                    diag = ji - qpos + qlen
                    ring_idx = tid * ndiag + np.clip(diag, 0, ndiag - 1)
                    # Two-hit test against the last W hit positions of this
                    # diagonal, packed into ONE 64-bit word per diagonal
                    # ([seq_tag:16 | p2:16 | p1:16 | p0:16], 0xFFFF = empty)
                    # so the per-hit bookkeeping costs one load and one
                    # store, like the lasthit word in the real codes. The
                    # sequence tag invalidates entries left by the lane's
                    # previous sequence without any per-sequence clear.
                    ring = warp.load(lasthit, ring_idx, fill=-1)
                    warp.alu(4)  # unpack three slots + tag, window tests
                    tag_ok = ((ring >> 48) & 0xFFFF) == (seq & 0xFFFF)
                    is_seed = np.zeros(lanes, dtype=bool)
                    for shift in (0, 16, 32):
                        p = (ring >> shift) & 0xFFFF
                        dist = ji - p
                        is_seed |= (
                            hact
                            & tag_ok
                            & (p != 0xFFFF)
                            & (dist >= W)
                            & (dist <= self.window)
                        )
                    warp.alu()  # shift the ring, retag, insert the new hit
                    p0 = np.where(tag_ok, ring & 0xFFFF, 0xFFFF)
                    p1 = np.where(tag_ok, (ring >> 16) & 0xFFFF, 0xFFFF)
                    new_ring = (
                        ((seq & 0xFFFF) << 48) | (p1 << 32) | (p0 << 16) | ji
                    )
                    warp.store(lasthit, ring_idx, new_ring)

                    reach = warp.load(
                        reach_buf, tid * ndiag + np.clip(diag, 0, ndiag - 1), fill=-1
                    ).astype(np.int64)
                    warp.alu()
                    # reach is absolute too; stale values from earlier
                    # sequences are below ``off`` and never mask a trigger.
                    trigger = is_seed & (base > reach)
                    with warp.where(trigger):
                        text = warp.active
                        word_sc = lane_word_score(
                            warp, s, off, qpos, ji, W, score_fn=self._score
                        )
                        gain_r, steps_r = lane_walk(
                            warp, s, off, end, qpos, ji, qlen, self.x_drop, +1, W,
                            score_fn=self._score,
                        )
                        gain_l, steps_l = lane_walk(
                            warp, s, off, off, qpos, ji, qlen, self.x_drop, -1, W,
                            score_fn=self._score,
                        )
                        warp.alu(2)
                        s_start = ji - steps_l
                        s_end = ji + W - 1 + steps_r
                        score = word_sc + gain_l + gain_r
                        warp.store(
                            reach_buf,
                            tid * ndiag + np.clip(diag, 0, ndiag - 1),
                            off + s_end,
                        )
                        emit(text, seq, diag, s_start, s_end, score)
                    k += 1
            j = np.where(scanning, j + 1, j)

            finished = warp.active & (j >= n_words) & ~fresh
            if finished.any():
                if self.buffered_output:
                    flush(finished)
                if self.work_queue:
                    # GPU-BLASTP: a finished lane immediately pops its next
                    # sequence while warp-mates keep scanning.
                    with warp.where(finished):
                        nxt = warp.atomic_add_global(
                            queue,
                            np.zeros(lanes, dtype=np.int64),
                            finished.astype(np.int64),
                        ).astype(np.int64)
                    seq = np.where(finished, nxt, seq)
                    fresh = fresh | finished
                elif not bool((warp.active & ~fresh & (j < n_words)).any()):
                    # CUDA-BLASTP: the statically-strided sequence loop
                    # reconverges the warp at its head — every lane waits
                    # (masked, issuing nothing useful) until the slowest
                    # warp-mate finishes its current sequence, then all
                    # advance one stride together. Length-sorting the
                    # database (done by the wrapper) is their mitigation.
                    warp.alu()
                    live = warp.active
                    seq = np.where(live, seq + total_threads, seq)
                    fresh = fresh | live


def run_coarse(
    session: DeviceSession,
    x_drop: int,
    word_length: int,
    two_hit_window: int,
    work_queue: bool,
    buffered_output: bool,
    kernel_name: str,
    registers_per_thread: int | None = None,
) -> tuple[ExtensionArray, KernelProfile]:
    """Launch the coarse kernel and decode its extension output."""
    mem = session.ctx.memory
    db = session.db
    kernel = CoarseBlastpKernel(
        session,
        x_drop,
        word_length,
        two_hit_window,
        work_queue,
        buffered_output,
        registers_per_thread,
    )
    kernel.name = kernel_name
    grid = kernel.grid_blocks(session.ctx)
    total_threads = grid * kernel.block_threads
    ndiag = session.query_length + int(db.lengths.max()) + 1
    session.ctx.params["ndiag"] = ndiag

    rings = _alloc_unique(mem, "lasthit_rings", total_threads * ndiag, np.int64)
    rings.data[:] = -1  # every slot 0xFFFF = empty
    reach = _alloc_unique(mem, "ext_reach", total_threads * ndiag, np.int32)
    reach.data[:] = -1
    # Worst case one extension per hit; size generously from the word count.
    cap = max(1024, int(db.codes.size))
    _alloc_unique(mem, "ext_out_a", cap)
    _alloc_unique(mem, "ext_out_b", cap)
    _alloc_unique(mem, "ext_count", 1)
    if work_queue:
        q = _alloc_unique(mem, "work_queue", 1)
        q.data[0] = 0

    profile = launch(kernel, session.ctx, grid_blocks=grid)

    count = int(mem.buffers["ext_count"].data[0])
    a = mem.buffers["ext_out_a"].data[:count]
    b = mem.buffers["ext_out_b"].data[:count]
    raw = ExtensionOutput(
        seq_id=a >> 32,
        query_start=(a & 0xFFFF) - (((a >> 16) & 0xFFFF) - session.query_length),
        query_end=np.zeros(count, dtype=np.int64),
        subject_start=a & 0xFFFF,
        subject_end=b >> 32,
        score=(b & 0xFFFFFFFF) - SCORE_BIAS,
    )
    raw.query_end = raw.query_start + (raw.subject_end - raw.subject_start)
    extensions = raw.to_extension_array()
    profile.extra["num_extensions"] = len(extensions)
    profile.extra["d2h_bytes"] = len(extensions) * 16
    return extensions, profile
