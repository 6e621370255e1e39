"""Window-based ungapped extension (Algorithm 5, Fig. 8, Fig. 9d).

A warp is split into window *pairs*: each diagonal being extended owns two
``window_size``-lane windows that walk the two directions of Fig. 8
concurrently — the right window from past the seed word, the left window
from before it. Per step a window loads ``window_size`` *consecutive*
subject residues (coalesced, unlike the per-lane scatter of the other two
strategies), computes the chunk's prefix sums with a window-local scan,
and applies the Fig. 8 logic: running best (PrefixSum), change-since-best
(ChangeSinceBest), drop flags (DropFlag). Walk divergence is quantised to
chunks and the two directions overlap, so the warp-level imbalance that
plagues hit-based extension collapses — the paper's argument for why this
strategy wins (Fig. 16).

Chunk semantics are bit-identical to the scalar walk: :func:`chunk_update`
advances the same (cur, best, best_steps) state the scalar loop maintains,
with the same strict-improvement, first-argmax tie-breaks; property tests
drive both over random series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cublastp.ext_common import (
    SHARED_STRIDE,
    WarpOutputBuffer,
    setup_matrix_shared,
)
from repro.cublastp.buffering import MatrixMode
from repro.cublastp.filter_kernel import SeedList
from repro.cublastp.session import DeviceSession
from repro.gpusim.kernel import Kernel, KernelContext
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp

#: Sentinel for exhausted chunk positions (drop fires immediately).
_NEG = np.int64(-(2**40))


@dataclass
class WalkState:
    """One direction's walk state for one window (Fig. 8's registers)."""

    cur: int = 0
    best: int = 0
    best_steps: int = 0
    steps: int = 0
    stopped: bool = False


def chunk_update(state: WalkState, deltas: np.ndarray, x_drop: int) -> None:
    """Advance a walk by one window-sized chunk of score contributions.

    ``deltas`` holds the chunk's per-position scores with exhausted
    positions already set to a large negative sentinel (so the x-drop
    fires there, ending the walk at the boundary exactly like the scalar
    code).
    """
    if state.stopped:
        return
    w = deltas.size
    c = state.cur + np.cumsum(deltas.astype(np.int64))
    # Best-so-far *after* processing each position (scalar updates best
    # before testing the drop).
    run_best = np.maximum.accumulate(np.maximum(c, state.best))
    drop = run_best - c > x_drop
    if drop.any():
        ve = int(np.argmax(drop))
        state.stopped = True
    else:
        ve = w - 1
    cmax = int(c[: ve + 1].max())
    if cmax > state.best:
        state.best = cmax
        state.best_steps = state.steps + int(np.argmax(c[: ve + 1])) + 1
    if not state.stopped:
        state.cur = int(c[-1])
        state.steps += w


class WindowExtensionKernel(Kernel):
    """Window-pair-per-diagonal extension with cooperative chunked walks."""

    name = "ungapped_extension[window]"
    block_threads = 256
    registers_per_thread = 40

    def __init__(self, session: DeviceSession, seeds: SeedList, x_drop: int, word_length: int) -> None:
        self.session = session
        self.seeds = seeds
        self.x_drop = x_drop
        self.word_length = word_length

    def setup_block(self, ctx: KernelContext, shared: SharedMemory, block_id: int) -> int:
        return setup_matrix_shared(self.session, shared)

    # -- window-cooperative score lookup ------------------------------------

    def _window_scores(
        self,
        warp: Warp,
        sabs: np.ndarray,
        qpos: np.ndarray,
        valid: np.ndarray,
    ) -> np.ndarray:
        """One chunk's score loads for every window at once (whole-warp ops).

        ``sabs``/``qpos`` are per-lane absolute subject offsets and query
        positions; ``valid`` masks exhausted positions. Subject loads are
        consecutive within each window — the coalescing win this strategy
        exists for.
        """
        s = self.session
        sc = np.full(warp.device.warp_size, _NEG, dtype=np.int64)
        with warp.where(valid):
            inner = warp.active
            code = warp.load(
                s.db_codes, np.where(inner, sabs, 0)
            ).astype(np.int64)
            q = np.where(inner, np.clip(qpos, 0, s.query_length - 1), 0)
            mode = s.placement.mode
            if mode is MatrixMode.PSSM_SHARED:
                val = warp.load_shared("pssm", q * SHARED_STRIDE + code).astype(np.int64)
            elif mode is MatrixMode.PSSM_GLOBAL:
                val = warp.load(s.pssm_buf, q * 32 + code).astype(np.int64)
            else:
                qc = warp.load_shared("qcodes", q).astype(np.int64)
                val = warp.load_shared("blosum", qc * SHARED_STRIDE + code).astype(np.int64)
            sc = np.where(inner, val, sc)
        return sc

    def run_warp(self, ctx: KernelContext, warp: Warp, block_id: int, warp_in_block: int) -> None:
        s = self.session
        dev = ctx.device
        cfg = s.config
        qlen = s.query_length
        W = self.word_length
        wsize = cfg.window_size
        pair = 2 * wsize  # a diagonal slot: right window + left window
        nslots = dev.warp_size // pair
        n_groups = self.seeds.num_groups
        n_seeds = len(self.seeds)
        if n_seeds == 0:
            return
        seeds_buf = ctx.memory.buffers["seed_list"]
        groups_buf = ctx.memory.buffers["seed_groups"]
        out = WarpOutputBuffer()

        slot_of_lane = warp.lane_id // pair
        sub = warp.lane_id % pair
        is_right = sub < wsize  # per-lane walk direction (Fig. 8's windows)
        wlane = sub % wsize

        g = warp.warp_id * nslots + np.arange(nslots, dtype=np.int64)
        stride = warp.num_warps * nslots

        while True:
            slot_live = g < n_groups
            warp.alu()  # outer loop bookkeeping
            if not slot_live.any():
                break
            gi = np.minimum(g, n_groups - 1)
            lane_live = slot_live[slot_of_lane]
            with warp.where(lane_live):
                lo_l = warp.load(groups_buf, gi[slot_of_lane]).astype(np.int64)
                hi_l = warp.load(groups_buf, gi[slot_of_lane] + 1).astype(np.int64)
                head = warp.load(seeds_buf, np.minimum(lo_l, n_seeds - 1))
                warp.alu()
                seq_l = head >> 32
                off_l = warp.load(s.db_offsets, seq_l).astype(np.int64)
                end_l = warp.load(s.db_offsets, seq_l + 1).astype(np.int64)
            # Slot-level copies of the uniform values (lane 0 of each slot).
            lo = lo_l[::pair].copy()
            hi = hi_l[::pair].copy()
            seq_w = (head >> 32)[::pair].copy()
            off_w = off_l[::pair].copy()
            end_w = end_l[::pair].copy()

            h = lo.copy()
            reach = np.full(nslots, -1, dtype=np.int64)
            # Hit loop: slots with remaining seeds iterate; finished slots
            # idle (divergence across slots, as in Alg. 5).
            hit_live = slot_live & (h < hi)
            while hit_live.any():
                warp.alu()  # hit-loop bookkeeping
                hi_idx = np.minimum(h, n_seeds - 1)
                with warp.where(hit_live[slot_of_lane]):
                    elem_l = warp.load(seeds_buf, hi_idx[slot_of_lane])
                warp.alu(2)
                elem = elem_l[::pair]
                diag_w = (elem >> 16) & 0xFFFF
                spos_w = elem & 0xFFFF
                qpos_w = spos_w - (diag_w - qlen)
                trig = hit_live & (spos_w > reach)

                if trig.any():
                    # Seed word score: lanes 0..W-1 of each right window
                    # score the word positions in one load round.
                    word_valid = is_right & (wlane < W) & trig[slot_of_lane]
                    sabs = off_w[slot_of_lane] + spos_w[slot_of_lane] + wlane
                    qp = qpos_w[slot_of_lane] + wlane
                    sc = self._window_scores(warp, sabs, qp, word_valid)
                    warp.alu()  # window reduction of the word score
                    word_w = np.where(
                        trig,
                        np.where(sc == _NEG, 0, sc).reshape(nslots, pair).sum(axis=1),
                        0,
                    )

                    right = [WalkState(stopped=not t) for t in trig]
                    left = [WalkState(stopped=not t) for t in trig]
                    self._walk_both(
                        warp, right, left, trig, off_w, end_w, qpos_w, spos_w,
                        slot_of_lane, is_right, wlane, nslots, wsize,
                    )
                    warp.alu(2)  # assemble the extension record
                    gain_r = np.array([st.best if st.best > 0 else 0 for st in right])
                    steps_r = np.array([st.best_steps if st.best > 0 else 0 for st in right])
                    gain_l = np.array([st.best if st.best > 0 else 0 for st in left])
                    steps_l = np.array([st.best_steps if st.best > 0 else 0 for st in left])
                    s_start_w = spos_w - steps_l
                    s_end_w = spos_w + W - 1 + steps_r
                    score_w = word_w + gain_l + gain_r
                    reach = np.where(trig, s_end_w, reach)

                    # Lane 0 of each triggered slot buffers the result.
                    store_mask = (sub == 0) & trig[slot_of_lane]
                    with warp.where(store_mask):
                        out.append(
                            warp,
                            seq_w[slot_of_lane],
                            diag_w[slot_of_lane],
                            s_start_w[slot_of_lane],
                            s_end_w[slot_of_lane],
                            score_w[slot_of_lane],
                        )

                h = np.where(hit_live, h + 1, h)
                hit_live = slot_live & (h < hi)
            g = g + stride
        out.flush(warp, ctx.memory)

    def _walk_both(
        self,
        warp: Warp,
        right: list[WalkState],
        left: list[WalkState],
        trig: np.ndarray,
        off_w: np.ndarray,
        end_w: np.ndarray,
        qpos_w: np.ndarray,
        spos_w: np.ndarray,
        slot_of_lane: np.ndarray,
        is_right: np.ndarray,
        wlane: np.ndarray,
        nslots: int,
        wsize: int,
    ) -> None:
        """Chunked cooperative walk, both directions of every slot at once.

        The right and left windows of a slot advance in the same warp
        iteration (Fig. 8 runs them concurrently), so a lopsided extension
        only stalls one window while the other direction — and the other
        slots — keep issuing useful work.
        """
        s = self.session
        qlen = s.query_length
        W = self.word_length
        while True:
            walk_r = np.array([not st.stopped for st in right]) & trig
            walk_l = np.array([not st.stopped for st in left]) & trig
            warp.alu()  # walk-loop bookkeeping
            if not (walk_r.any() or walk_l.any()):
                return
            steps_r = np.array([st.steps for st in right], dtype=np.int64)
            steps_l = np.array([st.steps for st in left], dtype=np.int64)
            # Per-lane step index: right lanes advance from past the word's
            # end, left lanes from before its start.
            t_r = steps_r[slot_of_lane] + 1 + wlane
            t_l = steps_l[slot_of_lane] + 1 + wlane
            q = np.where(
                is_right,
                qpos_w[slot_of_lane] + W - 1 + t_r,
                qpos_w[slot_of_lane] - t_l,
            )
            sabs = np.where(
                is_right,
                off_w[slot_of_lane] + spos_w[slot_of_lane] + W - 1 + t_r,
                off_w[slot_of_lane] + spos_w[slot_of_lane] - t_l,
            )
            inb = np.where(
                is_right,
                (q < qlen) & (sabs < end_w[slot_of_lane]),
                (q >= 0) & (sabs >= off_w[slot_of_lane]),
            )
            lane_walk = np.where(is_right, walk_r[slot_of_lane], walk_l[slot_of_lane])
            valid = inb & lane_walk
            sc = self._window_scores(warp, sabs, q, valid)
            # Window-local scan + Fig. 8 chunk logic (PrefixSum,
            # ChangeSinceBest, DropFlag): a log2(w) scan + a few ALU ops.
            warp.alu(3 + 3)
            chunks = sc.reshape(nslots, 2, wsize)  # [slot, direction, lane]
            for slot in range(nslots):
                if walk_r[slot]:
                    chunk_update(right[slot], chunks[slot, 0], self.x_drop)
                if walk_l[slot]:
                    chunk_update(left[slot], chunks[slot, 1], self.x_drop)
