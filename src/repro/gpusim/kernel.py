"""Kernel definition and launch machinery.

A :class:`Kernel` is a per-warp program plus its launch configuration
(block size, register footprint, per-block shared-memory setup). The
launcher iterates blocks and warps, accumulating all counters into one
:class:`~repro.gpusim.profiler.KernelProfile` whose occupancy is computed
from the *measured* shared-memory usage of the first block — so a kernel
that allocates bigger shared ``top`` arrays automatically reports (and
pays for) lower occupancy, which is the mechanism behind Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError, GpuSimError
from repro.gpusim.cache import ReadOnlyCache
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.occupancy import occupancy
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.sanitizer import Sanitizer
from repro.gpusim.shared import SharedMemory
from repro.gpusim.warp import Warp


@dataclass
class KernelContext:
    """Shared state of a simulated device session.

    One context corresponds to one CUDA context: buffers allocated here are
    visible to every kernel launched against it, and the read-only cache
    persists across launches within one pipeline stage.

    ``memory`` and ``cache`` accept ``None`` only as a construction-time
    default: ``__post_init__`` always narrows them to real instances, so
    after construction they are never ``None`` (``l2`` and ``sanitizer``
    stay genuinely optional — present only when their mode is enabled).
    """

    device: DeviceSpec
    use_readonly_cache: bool = True
    #: Enable the optional L2 model (default timing omits it; see
    #: DESIGN.md §5b and benchmarks/bench_ablation_l2.py).
    use_l2: bool = False
    #: Enable the memory sanitizer (racecheck/initcheck/boundscheck; see
    #: repro.gpusim.sanitizer and docs/ANALYSIS.md). Off by default — the
    #: recording roughly doubles per-access overhead.
    sanitize: bool = False
    memory: DeviceMemory | None = None
    cache: ReadOnlyCache | None = None
    l2: ReadOnlyCache | None = None
    sanitizer: Sanitizer | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = DeviceMemory(self.device.device_memory_bytes)
        if self.cache is None:
            self.cache = ReadOnlyCache(self.device)
        if self.l2 is None and self.use_l2:
            from repro.gpusim.cache import make_l2_cache

            self.l2 = make_l2_cache(self.device)
        if self.sanitizer is None and self.sanitize:
            self.sanitizer = Sanitizer()


class Kernel:
    """Base class for lane-simulated kernels.

    Subclasses set :attr:`block_threads` / :attr:`registers_per_thread`,
    allocate shared regions in :meth:`setup_block`, and implement the
    per-warp program in :meth:`run_warp`.
    """

    name: str = "kernel"
    block_threads: int = 128
    registers_per_thread: int = 32

    def setup_block(self, ctx: KernelContext, shared: SharedMemory, block_id: int) -> int:
        """Allocate shared regions for one block.

        Returns
        -------
        int
            Bytes cooperatively loaded from global memory into shared
            memory during block setup (charged as coalesced transactions).
        """
        return 0

    def run_warp(self, ctx: KernelContext, warp: Warp, block_id: int, warp_in_block: int) -> None:
        """The per-warp program body."""
        raise NotImplementedError

    def grid_blocks(self, ctx: KernelContext) -> int:
        """Default grid size: enough blocks to fill every SM at occupancy."""
        # Computed by the launcher after occupancy is known; kernels may
        # override for fixed-size grids.
        return -1


def launch(
    kernel: Kernel,
    ctx: KernelContext,
    grid_blocks: int | None = None,
) -> KernelProfile:
    """Execute ``kernel`` and return its accumulated profile.

    Occupancy is derived from the shared memory that block 0's
    ``setup_block`` reserves, so every block's footprint is fixed when
    its ``setup_block`` returns: a ``SharedMemory.alloc`` reached from
    ``run_warp`` — through any alias — would be memory the occupancy
    figure never paid for, and raises :class:`GpuSimError` naming the
    kernel once the block's warps have run.

    Parameters
    ----------
    grid_blocks:
        Blocks in the grid. Defaults to filling the device at the
        kernel's achieved occupancy (``num_sms * blocks_per_sm``), the
        usual persistent-blocks launch for grid-stride kernels.
    """
    device = ctx.device
    if kernel.block_threads % device.warp_size != 0:
        raise ConfigError(
            f"kernel {kernel.name!r}: block_threads must be a multiple of "
            f"warp size {device.warp_size}"
        )
    warps_per_block = kernel.block_threads // device.warp_size
    profile = KernelProfile(name=kernel.name, device=device)
    cache = ctx.cache
    assert cache is not None  # narrowed in KernelContext.__post_init__
    san = ctx.sanitizer if ctx.sanitize else None

    # Dry block 0 to measure shared usage for occupancy. The same SharedMemory
    # is then reused as block 0's real shared memory.
    first_shared = SharedMemory(device, sanitizer=san)
    init_bytes = kernel.setup_block(ctx, first_shared, 0)
    occ = occupancy(
        device,
        kernel.block_threads,
        first_shared.used_bytes,
        kernel.registers_per_thread,
    )
    profile.occupancy = occ.occupancy
    profile.extra["occupancy_limited_by"] = occ.limited_by
    profile.extra["shared_bytes_per_block"] = first_shared.used_bytes

    if grid_blocks is None:
        requested = kernel.grid_blocks(ctx)
        grid_blocks = (
            requested if requested > 0 else device.num_sms * occ.blocks_per_sm
        )
    num_warps = grid_blocks * warps_per_block

    line = device.cache_line_bytes
    for block_id in range(grid_blocks):
        if block_id == 0:
            shared = first_shared
        else:
            shared = SharedMemory(device, sanitizer=san)
            init_bytes = kernel.setup_block(ctx, shared, block_id)
        setup_shared_bytes = shared.used_bytes
        if init_bytes:
            tx = -(-init_bytes // line)
            profile.global_transactions += tx
            profile.global_requested_bytes += init_bytes
            profile.issue_cycles += tx * device.global_tx_cycles
        profile.blocks_launched += 1
        for w in range(warps_per_block):
            warp = Warp(
                device=device,
                profile=profile,
                shared=shared,
                cache=cache,
                warp_id=block_id * warps_per_block + w,
                num_warps=num_warps,
                use_readonly_cache=ctx.use_readonly_cache,
                l2=ctx.l2 if ctx.use_l2 else None,
                sanitizer=san,
            )
            profile.warps_executed += 1
            kernel.run_warp(ctx, warp, block_id, w)
        if shared.used_bytes != setup_shared_bytes:
            raise GpuSimError(
                f"kernel {kernel.name!r}: block {block_id} allocated shared "
                f"memory after setup_block ({setup_shared_bytes} -> "
                f"{shared.used_bytes} bytes); occupancy only pays for what "
                "setup_block reserves"
            )
        if san is not None:
            san.finish_block(kernel.name, block_id)
    if san is not None:
        san.finish_launch(kernel.name)
    return profile
