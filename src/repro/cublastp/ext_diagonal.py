"""Diagonal-based ungapped extension (Algorithm 3, Fig. 9b).

One thread per diagonal group: the lane iterates its diagonal's seeds in
ascending subject position and extends each seed not covered by the
previous extension (`ext_reach`). The covered-hit check is the divergent
branch the paper calls out — lanes whose seed is covered idle while their
warp-mates extend — and the per-lane scalar walk adds the usual
load-imbalance serialisation on top.
"""

from __future__ import annotations

import numpy as np

from repro.cublastp.ext_common import (
    WarpOutputBuffer,
    lane_walk,
    lane_word_score,
    score_lookup,  # noqa: F401  (re-exported for tests poking the kernel)
    setup_matrix_shared,
)
from repro.cublastp.filter_kernel import SeedList
from repro.cublastp.session import DeviceSession
from repro.gpusim.kernel import Kernel, KernelContext
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp


class DiagonalExtensionKernel(Kernel):
    """Thread-per-diagonal extension."""

    name = "ungapped_extension[diagonal]"
    block_threads = 256
    registers_per_thread = 48

    def __init__(self, session: DeviceSession, seeds: SeedList, x_drop: int, word_length: int) -> None:
        self.session = session
        self.seeds = seeds
        self.x_drop = x_drop
        self.word_length = word_length

    def setup_block(self, ctx: KernelContext, shared: SharedMemory, block_id: int) -> int:
        return setup_matrix_shared(self.session, shared)

    def run_warp(self, ctx: KernelContext, warp: Warp, block_id: int, warp_in_block: int) -> None:
        s = self.session
        dev = ctx.device
        qlen = s.query_length
        seeds_buf = ctx.memory.buffers["seed_list"]
        groups_buf = ctx.memory.buffers["seed_groups"]
        n_groups = self.seeds.num_groups
        n_seeds = len(self.seeds)
        if n_seeds == 0:
            return
        lane = warp.lane_id
        g = warp.warp_id * dev.warp_size + lane
        stride = warp.num_warps * dev.warp_size
        out = WarpOutputBuffer()

        for _ in warp.loop_while(lambda: g < n_groups):
            gi = np.minimum(g, n_groups - 1)
            lo = warp.load(groups_buf, gi).astype(np.int64)
            hi = warp.load(groups_buf, gi + 1).astype(np.int64)
            # Hoist the group's sequence bounds: a diagonal group lives in
            # exactly one subject sequence.
            head = warp.load(seeds_buf, np.minimum(lo, n_seeds - 1))
            warp.alu()
            seq = head >> 32
            off = warp.load(s.db_offsets, seq).astype(np.int64)
            end = warp.load(s.db_offsets, seq + 1).astype(np.int64)
            h = lo.copy()
            reach = np.full(dev.warp_size, -1, dtype=np.int64)
            for _ in warp.loop_while(lambda: h < hi):
                elem = warp.load(seeds_buf, np.minimum(h, n_seeds - 1))
                warp.alu(2)  # unpack diagonal / subject position, query pos
                diag = (elem >> 16) & 0xFFFF
                spos = elem & 0xFFFF
                qpos = spos - (diag - qlen)
                with warp.where(spos > reach):
                    inner = warp.active
                    word = lane_word_score(warp, s, off, qpos, spos, self.word_length)
                    gain_r, steps_r = lane_walk(
                        warp, s, off, end, qpos, spos, qlen, self.x_drop, +1, self.word_length
                    )
                    gain_l, steps_l = lane_walk(
                        warp, s, off, off, qpos, spos, qlen, self.x_drop, -1, self.word_length
                    )
                    warp.alu(2)  # assemble segment bounds and score
                    s_start = spos - steps_l
                    s_end = spos + self.word_length - 1 + steps_r
                    score = word + gain_l + gain_r
                    reach = np.where(inner, s_end, reach)
                    out.append(warp, seq, diag, s_start, s_end, score)
                h += 1
            g += stride
        out.flush(warp, ctx.memory)
