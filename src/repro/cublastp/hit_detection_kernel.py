"""Fine-grained hit detection with binning (Algorithm 2, Fig. 5).

One warp per subject sequence (grid-strided): lane ``j`` handles word ``j``,
``j + 32``, ... of the sequence. Each lane reads its word's residues
(coalesced — lanes cover consecutive positions), resolves the DFA state
from the shared-memory state table, fetches the packed word entry and the
query-position list through the read-only cache, and scatters packed hits
into its warp's bins with a shared-memory ``atomicAdd`` on the ``top``
counters — exactly the paper's recipe for turning the column-major scan
into coalesced, atomically-binned output.
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import ALPHABET_SIZE
from repro.cublastp.binning import BinnedHits
from repro.cublastp.session import DeviceSession, WORD_ENTRY_COUNT_MASK, WORD_ENTRY_SHIFT
from repro.errors import GpuSimError
from repro.gpusim.kernel import Kernel, KernelContext, launch
from repro.gpusim.occupancy import occupancy
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp

#: Bits of the packed bin element (duplicated from binning.py for kernel-local
#: arithmetic; the packing tests pin both to the same layout).
_POS_BITS = 16
_DIAG_BITS = 16


class HitDetectionKernel(Kernel):
    """Warp-based hit detection + binning."""

    name = "hit_detection"
    block_threads = 256
    registers_per_thread = 40

    def __init__(self, session: DeviceSession) -> None:
        self.session = session

    def setup_block(self, ctx: KernelContext, shared: SharedMemory, block_id: int) -> int:
        s = self.session
        warps_per_block = self.block_threads // ctx.device.warp_size
        shared.alloc_from("dfa_states", s.dfa_state_records)
        shared.alloc("tops", warps_per_block * s.config.num_bins, np.int32)
        # Cooperative memset: the flush loop reads every bin counter,
        # including bins no hit ever incremented, so the region must be
        # initialised, not just allocated (initcheck enforces this).
        shared.fill("tops", 0)
        return int(s.dfa_state_records.nbytes)

    def run_warp(self, ctx: KernelContext, warp: Warp, block_id: int, warp_in_block: int) -> None:
        s = self.session
        cfg = s.config
        dev = ctx.device
        qlen = s.query_length
        word_len = s.dfa.word_length
        num_seqs = len(s.db)
        bins = ctx.memory.buffers["bins"]
        tops_global = ctx.memory.buffers["bin_tops"]
        lane = warp.lane_id
        top_base = warp_in_block * cfg.num_bins

        for seq_i in range(warp.warp_id, num_seqs, warp.num_warps):
            # Sequence bounds: uniform values, one broadcast load each.
            off = int(warp.load(s.db_offsets, seq_i)[0])
            end = int(warp.load(s.db_offsets, seq_i + 1)[0])
            n_words = (end - off) - word_len + 1
            if n_words <= 0:
                continue
            seq_len = end - off
            # Sequence tile: the warp fetches 128-code tiles cooperatively
            # (full coalescing) and lanes pick their word's residues out of
            # the tile through registers — the tiling idiom real kernels
            # use, and the reason fine-grained hit detection reports high
            # global load efficiency (Fig. 19a).
            tile = None
            tile_start = 0
            tile_len = 0
            j = lane.copy()
            for it in warp.loop_while(lambda: j < n_words):
                base = it * dev.warp_size
                need_end = min(base + dev.warp_size + word_len - 1, seq_len)
                if tile is None or need_end > tile_start + tile_len:
                    tile_start = base
                    tile_len = min(128, seq_len - base)
                    tile = warp.load_span(s.db_codes, off + base, tile_len)
                ji = np.minimum(j, n_words - 1)  # clamped for masked lanes
                rel = np.clip(ji - tile_start, 0, tile_len - word_len)
                warp.alu(3)  # three register/shuffle reads from the tile
                c0 = tile[rel].astype(np.int64)
                c1 = tile[rel + 1].astype(np.int64)
                c2 = tile[rel + 2].astype(np.int64)
                warp.alu()  # state = c0 * A + c1
                state = c0 * ALPHABET_SIZE + c1
                base = warp.load_shared("dfa_states", state)
                entry = warp.load(s.word_entries, base + c2)
                warp.alu()  # unpack offset / count
                p_off = entry >> WORD_ENTRY_SHIFT
                count = entry & WORD_ENTRY_COUNT_MASK
                k = np.zeros(dev.warp_size, dtype=np.int64)
                for _ in warp.loop_while(lambda: k < count):
                    ki = np.minimum(k, np.maximum(count - 1, 0))
                    qpos = warp.load(s.positions, p_off + ki).astype(np.int64)
                    warp.alu(2)  # diagonal and bin number
                    diag = ji - qpos + qlen
                    bin_id = diag % cfg.num_bins
                    slot = warp.atomic_add_shared(
                        "tops", top_base + bin_id, np.ones(dev.warp_size, dtype=np.int32)
                    ).astype(np.int64)
                    if bool((slot[warp.active] >= cfg.bin_capacity).any()):
                        raise GpuSimError(
                            "bin overflow: raise CuBlastpConfig.bin_capacity "
                            f"(capacity {cfg.bin_capacity})"
                        )
                    warp.alu()  # pack the bin element
                    packed = (
                        (np.int64(seq_i) << (_DIAG_BITS + _POS_BITS))
                        | (diag << _POS_BITS)
                        | ji
                    )
                    dst = (
                        (np.int64(warp.warp_id) * cfg.num_bins + bin_id)
                        * cfg.bin_capacity
                        + slot
                    )
                    warp.store(bins, dst, packed)
                    k += 1
                j += dev.warp_size

        # Flush this warp's top counters to global memory (coalesced).
        for b0 in range(0, cfg.num_bins, dev.warp_size):
            idx = b0 + lane
            with warp.where(idx < cfg.num_bins):
                safe = np.minimum(idx, cfg.num_bins - 1)
                v = warp.load_shared("tops", top_base + safe)
                warp.store(tops_global, np.int64(warp.warp_id) * cfg.num_bins + safe, v)


def shared_bytes_for(session: DeviceSession) -> int:
    """Shared-memory bill per block (state table + top counters)."""
    warps_per_block = HitDetectionKernel.block_threads // session.device.warp_size
    return int(session.dfa_state_records.nbytes) + warps_per_block * session.config.num_bins * 4


def run_hit_detection(session: DeviceSession) -> tuple[BinnedHits, KernelProfile]:
    """Launch hit detection and return the raw (unsorted) binned hits.

    The grid is sized to fill the device at the kernel's occupancy, the
    bins buffer is allocated to match, and the kernel's functional output
    is assembled host-side into a :class:`BinnedHits` in (warp, bin)
    segment order — the assembly kernel's cost is charged separately by
    :func:`repro.cublastp.sort_kernel.run_assemble`.
    """
    cfg = session.config
    dev = session.device
    kernel = HitDetectionKernel(session)
    occ = occupancy(dev, kernel.block_threads, shared_bytes_for(session), kernel.registers_per_thread)
    warps_per_block = kernel.block_threads // dev.warp_size
    # Persistent-blocks launch, capped at the work: one warp per sequence
    # is the finest useful decomposition, so never launch more warps than
    # sequences (idle warps would only fragment the bins).
    grid_blocks = min(
        dev.num_sms * occ.blocks_per_sm,
        max(1, -(-len(session.db) // warps_per_block)),
    )
    num_warps = grid_blocks * warps_per_block

    mem = session.ctx.memory
    # Allocate fresh working buffers sized to this launch (sweeps re-launch
    # within one session; the allocator is append-only, so stale buffers
    # just stay resident like freed-but-cached CUDA allocations).
    bins = _alloc_unique(mem, "bins", num_warps * cfg.num_bins * cfg.bin_capacity)
    tops = _alloc_unique(mem, "bin_tops", num_warps * cfg.num_bins, np.int32)

    profile = launch(kernel, session.ctx, grid_blocks=grid_blocks)

    # Reused buffers may be larger than this launch needs: slice to the
    # launch's extent before viewing.
    counts = (
        tops.data[: num_warps * cfg.num_bins]
        .reshape(num_warps, cfg.num_bins)
        .astype(np.int64)
    )
    segments = counts.reshape(-1)
    offsets = np.zeros(segments.size + 1, dtype=np.int64)
    np.cumsum(segments, out=offsets[1:])
    # Single ragged gather: element t of segment seg lives at flat bin
    # index seg * bin_capacity + (t - offsets[seg]); building the source
    # index vector with repeat + arange replaces the per-segment Python
    # copy loop (num_warps * num_bins iterations) with one fancy-index.
    total = int(offsets[-1])
    flat = bins.data[: num_warps * cfg.num_bins * cfg.bin_capacity]
    src = np.repeat(
        np.arange(segments.size, dtype=np.int64) * cfg.bin_capacity - offsets[:-1],
        segments,
    ) + np.arange(total, dtype=np.int64)
    packed = flat[src]
    binned = BinnedHits(
        packed=packed,
        segment_offsets=offsets,
        num_bins=cfg.num_bins,
        query_length=session.query_length,
        is_sorted=False,
    )
    profile.extra["num_hits"] = int(packed.size)
    profile.extra["num_warps"] = num_warps
    return binned, profile


def _alloc_unique(mem, name: str, size: int, dtype=np.int64):
    """Working buffer for ``name``, reused across re-launches when possible.

    Re-launches within one session (parameter sweeps, repeated searches)
    used to append a fresh ``name.N`` allocation every time — unbounded
    growth of the simulated heap. The active allocation is now reused
    (zeroed) whenever its dtype matches and it is large enough; only
    genuine growth allocates a successor. The canonical name in
    ``mem.buffers`` always points at the active allocation, so kernels
    that look buffers up by name see this launch's.
    """
    existing = mem.buffers.get(name)
    if existing is None:
        return mem.alloc_zeros(name, size, dtype)
    if existing.data.dtype == np.dtype(dtype) and existing.data.size >= size:
        existing.data[:] = 0
        return existing
    i = 1
    while f"{name}.{i}" in mem.buffers:
        i += 1
    buf = mem.alloc_zeros(f"{name}.{i}", size, dtype)
    mem.buffers[name] = buf
    return buf
