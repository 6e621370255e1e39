"""Unit tests for occupancy, kernel launch, and transfers."""

import numpy as np
import pytest

from repro.errors import ConfigError, GpuSimError
from repro.gpusim import (
    K20C,
    Kernel,
    KernelContext,
    MemorySpace,
    TransferModel,
    launch,
    occupancy,
)


class TestOccupancy:
    def test_full_occupancy_small_kernel(self):
        occ = occupancy(K20C, 128, 0, registers_per_thread=16)
        assert occ.occupancy == 1.0
        assert occ.limited_by == "blocks"

    def test_shared_memory_limits_blocks(self):
        # 9 kB/block -> 5 blocks/SM -> 20 warps of 64 = 31.25 %
        occ = occupancy(K20C, 128, 9 * 1024, registers_per_thread=16)
        assert occ.blocks_per_sm == 5
        assert occ.limited_by == "shared"
        assert occ.occupancy == pytest.approx(20 / 64)

    def test_registers_limit(self):
        occ = occupancy(K20C, 256, 0, registers_per_thread=63)
        assert occ.limited_by == "registers"
        assert occ.blocks_per_sm == 65536 // (63 * 256)

    def test_thread_limit(self):
        occ = occupancy(K20C, 1024, 0, registers_per_thread=16)
        assert occ.blocks_per_sm == 2
        assert occ.occupancy == 1.0

    def test_monotone_in_shared_bytes(self):
        last = 2.0
        for sb in (1024, 4 * 1024, 12 * 1024, 24 * 1024, 48 * 1024):
            occ = occupancy(K20C, 128, sb, 16)
            assert occ.occupancy <= last
            last = occ.occupancy

    def test_invalid_block_size(self):
        with pytest.raises(ConfigError):
            occupancy(K20C, 0, 0)
        with pytest.raises(ConfigError):
            occupancy(K20C, 2048, 0)

    def test_too_much_shared_rejected(self):
        with pytest.raises(ConfigError):
            occupancy(K20C, 128, 49 * 1024)


class _CopyKernel(Kernel):
    name = "copy"
    block_threads = 64

    def run_warp(self, ctx, warp, block_id, warp_in_block):
        src = ctx.memory.buffers["src"]
        dst = ctx.memory.buffers["dst"]
        n = ctx.params["n"]
        i = warp.warp_id * 32 + warp.lane_id
        stride = warp.num_warps * 32
        for _ in warp.loop_while(lambda: i < n):
            v = warp.load(src, np.minimum(i, n - 1))
            warp.store(dst, np.minimum(i, n - 1), v + 1)
            i = i + stride * warp.active


class _LateAllocKernel(Kernel):
    """Reserves shared memory from the warp body, past occupancy's measure."""

    name = "late-alloc"
    block_threads = 32

    def run_warp(self, ctx, warp, block_id, warp_in_block):
        scratch = warp.shared  # an alias no name-based check would follow
        scratch.alloc("late", 64, np.int32)


class TestLaunch:
    def make_ctx(self, n=1000):
        ctx = KernelContext(device=K20C)
        ctx.memory.alloc("src", np.arange(n, dtype=np.int32), MemorySpace.GLOBAL)
        ctx.memory.alloc_zeros("dst", n, np.int32)
        ctx.params["n"] = n
        return ctx

    def test_functional_result(self):
        ctx = self.make_ctx()
        launch(_CopyKernel(), ctx, grid_blocks=4)
        assert np.array_equal(ctx.memory.buffers["dst"].data, np.arange(1000) + 1)

    def test_profile_counts_blocks_and_warps(self):
        ctx = self.make_ctx()
        prof = launch(_CopyKernel(), ctx, grid_blocks=4)
        assert prof.blocks_launched == 4
        assert prof.warps_executed == 8

    def test_default_grid_fills_device(self):
        ctx = self.make_ctx()
        prof = launch(_CopyKernel(), ctx)
        assert prof.blocks_launched == K20C.num_sms * 16

    def test_elapsed_positive(self):
        ctx = self.make_ctx()
        prof = launch(_CopyKernel(), ctx, grid_blocks=2)
        assert prof.elapsed_ms() > 0

    def test_block_threads_must_be_warp_multiple(self):
        k = _CopyKernel()
        k.block_threads = 48
        with pytest.raises(ConfigError):
            launch(k, self.make_ctx(), grid_blocks=1)

    def test_occupancy_in_profile(self):
        prof = launch(_CopyKernel(), self.make_ctx(), grid_blocks=1)
        assert 0 < prof.occupancy <= 1.0
        assert "occupancy_limited_by" in prof.extra

    def test_shared_alloc_outside_setup_block_raises(self):
        with pytest.raises(GpuSimError, match="'late-alloc'.*after setup_block"):
            launch(_LateAllocKernel(), KernelContext(device=K20C), grid_blocks=2)


class TestTransferModel:
    def test_latency_floor(self):
        t = TransferModel(bandwidth_gbps=8, latency_us=10)
        assert t.h2d_ms(0) == pytest.approx(0.01)

    def test_bandwidth_scaling(self):
        t = TransferModel(bandwidth_gbps=8, latency_us=0)
        assert t.h2d_ms(8 * 10**9) == pytest.approx(1000.0)
        assert t.d2h_ms(8 * 10**6) == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TransferModel().h2d_ms(-1)


class TestProfileMetrics:
    def test_merge_accumulates(self):
        from repro.gpusim.profiler import KernelProfile

        a = KernelProfile(name="x", device=K20C, issue_cycles=10, instructions=5,
                          active_lane_slots=100, global_transactions=3)
        b = KernelProfile(name="x", device=K20C, issue_cycles=7, instructions=2,
                          active_lane_slots=50, global_transactions=1)
        a.merge(b)
        assert a.issue_cycles == 17
        assert a.instructions == 7
        assert a.global_transactions == 4

    def test_elapsed_scales_with_occupancy(self):
        from repro.gpusim.profiler import KernelProfile

        hi = KernelProfile(name="x", device=K20C, issue_cycles=10**6, occupancy=1.0)
        lo = KernelProfile(name="x", device=K20C, issue_cycles=10**6, occupancy=0.25)
        assert lo.elapsed_ms() > hi.elapsed_ms()

    def test_single_warp_floor(self):
        from repro.gpusim.profiler import KernelProfile

        p = KernelProfile(name="x", device=K20C, issue_cycles=10**6, occupancy=0.01)
        # Even at negligible occupancy, each SM still issues one warp.
        assert p.elapsed_ms() == pytest.approx(
            K20C.cycles_to_ms(10**6 / K20C.num_sms)
        )
