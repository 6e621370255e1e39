"""Hit-based ungapped extension (Algorithm 4, Fig. 9c).

One thread per seed hit: every surviving hit is extended independently,
trading the diagonal kernel's covered-hit branch for redundant computation
— seeds covered by a neighbour's extension still walk, and their duplicate
results are removed in the mandatory host-side de-duplication pass the
paper describes. Divergence now comes only from walk-length imbalance
across the 32 lanes of a warp.
"""

from __future__ import annotations

import numpy as np

from repro.cublastp.ext_common import (
    lane_walk,
    lane_word_score,
    setup_matrix_shared,
    store_extension_at,
)
from repro.cublastp.filter_kernel import SeedList
from repro.cublastp.session import DeviceSession
from repro.gpusim.kernel import Kernel, KernelContext
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp


class HitExtensionKernel(Kernel):
    """Thread-per-seed extension."""

    name = "ungapped_extension[hit]"
    block_threads = 256
    registers_per_thread = 44

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
        n_seeds = len(self.seeds)
        if n_seeds == 0:
            return
        i = warp.warp_id * dev.warp_size + warp.lane_id
        stride = warp.num_warps * dev.warp_size

        for _ in warp.loop_while(lambda: i < n_seeds):
            ii = np.minimum(i, n_seeds - 1)
            elem = warp.load(seeds_buf, ii)
            warp.alu(2)  # unpack fields, recover query position
            seq = elem >> 32
            diag = (elem >> 16) & 0xFFFF
            spos = elem & 0xFFFF
            qpos = spos - (diag - qlen)
            off = warp.load(s.db_offsets, seq).astype(np.int64)
            end = warp.load(s.db_offsets, seq + 1).astype(np.int64)
            word = lane_word_score(warp, s, off, qpos, spos, self.word_length)
            gain_r, steps_r = lane_walk(
                warp, s, off, end, qpos, spos, qlen, self.x_drop, +1, self.word_length
            )
            gain_l, steps_l = lane_walk(
                warp, s, off, off, qpos, spos, qlen, self.x_drop, -1, self.word_length
            )
            warp.alu(2)
            s_start = spos - steps_l
            s_end = spos + self.word_length - 1 + steps_r
            score = word + gain_l + gain_r
            store_extension_at(warp, ctx.memory, ii, seq, diag, s_start, s_end, score)
            i += stride


def dedup_hit_based(
    seed_packed: np.ndarray,
    ext_s_end_by_seed: np.ndarray,
) -> np.ndarray:
    """The host-side de-duplication mask for hit-based extension.

    Replays the covered-hit rule over the per-seed results: walking each
    (sequence, diagonal) group in ascending seed position, a seed's
    extension is kept iff the seed starts beyond the previous *kept*
    extension's subject end — reproducing exactly what the diagonal-based
    kernel computes inline, so both strategies yield identical final sets.

    Parameters
    ----------
    seed_packed:
        Packed seed elements in diagonal-major order (the kernel input).
    ext_s_end_by_seed:
        Subject end of each seed's extension, aligned with ``seed_packed``.

    Returns
    -------
    numpy.ndarray
        Boolean keep-mask aligned with ``seed_packed``.
    """
    n = seed_packed.size
    keep = np.zeros(n, dtype=bool)
    key = seed_packed >> 16
    spos = seed_packed & 0xFFFF
    reach = -1
    prev_key = None
    for k in range(n):
        if prev_key is None or key[k] != prev_key:
            prev_key = key[k]
            reach = -1
        if spos[k] > reach:
            keep[k] = True
            reach = int(ext_s_end_by_seed[k])
    return keep
