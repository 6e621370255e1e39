"""End-to-end cuBLASTP execution: kernels, CPU phases, and the Fig. 12
pipeline that overlaps them.

The GPU kernels run once over the whole database (the simulator's work
counters are additive, so per-block times are the measured totals split by
block residue share — DESIGN.md §2); the pipeline schedule then streams
``NUM_DB_BLOCKS`` blocks through the four resources (H2D channel, GPU, D2H
channel, CPU) and reports both the overlapped wall time and the per-stage
breakdown Fig. 19(d) plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.gapped import GappedExtension
from repro.core.pipeline import BlastpPipeline
from repro.core.results import ExtensionArray, SearchResult
from repro.core.statistics import Cutoffs
from repro.core.sweep import finish_phases
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.extension import run_extension
from repro.cublastp.filter_kernel import run_filter
from repro.cublastp.hit_detection_kernel import run_hit_detection
from repro.cublastp.session import DeviceSession
from repro.cublastp.sort_kernel import run_assemble, run_segmented_sort
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.transfer import TransferModel
from repro.io.database import SequenceDatabase
from repro.perfmodel.calibration import CPU_CLOCK_GHZ
from repro.perfmodel.cpu_cost import cpu_phase_times

if TYPE_CHECKING:
    from repro.engine.events import EventLog

#: Database blocks streamed through the GPU/CPU pipeline (Fig. 12).
NUM_DB_BLOCKS = 4


@dataclass
class GpuPhaseResult:
    """Kernel outputs + profiles of the GPU side of one search."""

    profiles: dict[str, KernelProfile]
    extensions: ExtensionArray
    num_hits: int
    num_seeds: int
    survival_ratio: float
    h2d_bytes: int
    d2h_bytes: int

    def kernel_ms(self, name: str) -> float:
        return self.profiles[name].elapsed_ms() if name in self.profiles else 0.0

    @property
    def critical_ms(self) -> float:
        """Total modelled time of all GPU kernels (the critical phases)."""
        return sum(p.elapsed_ms() for p in self.profiles.values())


@dataclass
class CpuPhaseResult:
    """The CPU side of one cuBLASTP search (§3.6): phase 3's accepted
    extensions and the pipelined price of phases 3–4 at ``threads``
    threads — the sum of the per-block prices the Fig. 12 schedule runs."""

    gapped_extensions: list[GappedExtension]
    num_triggers: int
    gapped_ms: float
    traceback_ms: float
    threads: int


@dataclass
class CuBlastpReport:
    """Complete timing story of one cuBLASTP search."""

    gpu: GpuPhaseResult
    cpu: CpuPhaseResult
    h2d_ms: float
    d2h_ms: float
    other_ms: float
    overall_ms: float
    #: Sum of all stage times had nothing overlapped.
    serial_ms: float
    num_db_blocks: int
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def overlap_saved_ms(self) -> float:
        """Time hidden by the Fig. 12 pipeline."""
        return max(0.0, self.serial_ms - self.overall_ms)


def run_gpu_phases(
    session: DeviceSession,
    pipe: BlastpPipeline,
    cutoffs: Cutoffs,
) -> GpuPhaseResult:
    """Run the five GPU kernels over the whole database."""
    binned, p_hit = run_hit_detection(session)
    binned, p_asm = run_assemble(binned, session.device)
    sorted_b, p_sort = run_segmented_sort(binned, session.device)
    seeds, p_filter = run_filter(
        session, sorted_b, pipe.params.word_length, pipe.params.two_hit_window
    )
    extensions, p_ext = run_extension(
        session, seeds, cutoffs.x_drop_ungapped, pipe.params.word_length
    )
    # Under CuBlastpConfig(sanitize=True) every launch above recorded its
    # accesses; any accumulated hazard fails the search here, after the
    # whole GPU side ran (one report covers all five kernels).
    if session.ctx.sanitizer is not None:
        session.ctx.sanitizer.raise_if_dirty()
    profiles = {
        "hit_detection": p_hit,
        "hit_assembling": p_asm,
        "hit_sorting": p_sort,
        "hit_filtering": p_filter,
        "ungapped_extension": p_ext,
    }
    return GpuPhaseResult(
        profiles=profiles,
        extensions=extensions,
        num_hits=len(binned),
        num_seeds=len(seeds),
        survival_ratio=float(p_filter.extra.get("survival_ratio", 0.0)),
        h2d_bytes=session.h2d_bytes,
        d2h_bytes=int(p_ext.extra.get("d2h_bytes", 0)),
    )


def host_other_ms(db: SequenceDatabase, query_length: int) -> float:
    """Modelled host-side 'Other' time: database read, DFA/PSSM build, output.

    Charged at a couple of cycles per database byte (read + encode) plus
    the neighbourhood construction over all words x query positions — the
    residual the paper measures at ~18 % of the *accelerated* total
    (Fig. 19d, 'Other') and ~2 % of FSA-BLAST's.
    """
    db_cycles = int(db.codes.size) * 2.0
    build_cycles = query_length * 13824 * 0.01
    return (db_cycles + build_cycles) / (CPU_CLOCK_GHZ * 1e9) * 1e3


def pipeline_schedule(
    block_share: np.ndarray,
    gpu_total_ms: float,
    h2d_total_ms: float,
    d2h_total_ms: float,
    cpu_block_ms: np.ndarray,
) -> float:
    """Event-driven schedule of the Fig. 12 pipeline; returns the makespan.

    Four resources: the H2D PCIe channel, the GPU, the D2H channel (PCIe
    is full duplex) and the CPU. Block ``b`` flows H2D -> GPU -> D2H ->
    CPU, each resource processing blocks in order.
    """
    n = block_share.size
    h2d_free = gpu_free = d2h_free = cpu_free = 0.0
    done = 0.0
    for b in range(n):
        h2d_done = h2d_free + h2d_total_ms * block_share[b]
        h2d_free = h2d_done
        gpu_done = max(h2d_done, gpu_free) + gpu_total_ms * block_share[b]
        gpu_free = gpu_done
        d2h_done = max(gpu_done, d2h_free) + d2h_total_ms * block_share[b]
        d2h_free = d2h_done
        cpu_done = max(d2h_done, cpu_free) + float(cpu_block_ms[b])
        cpu_free = cpu_done
        done = cpu_done
    return done


def run_cublastp(
    pipe: BlastpPipeline,
    db: SequenceDatabase,
    session: DeviceSession,
    config: CuBlastpConfig,
    events: "EventLog | None" = None,
) -> tuple[SearchResult, CuBlastpReport]:
    """Full cuBLASTP search: GPU phases, CPU phases, pipeline timing.

    Phases 3–4 are the shared tail (:func:`~repro.core.sweep.finish_phases`)
    on the kernels' extensions, priced block by block at
    ``config.cpu_threads`` threads. With an
    :class:`~repro.engine.events.EventLog`, every stage emits a
    start/end event pair carrying its work-item count and the modelled
    time the report attributes to it (kernel profile times, blocked CPU
    makespans, PCIe transfers, host 'other') — the stream sums to the
    report's ``serial_ms``.
    """
    cutoffs = pipe.cutoffs(db)
    gpu = run_gpu_phases(session, pipe, cutoffs)
    result, counts, gapped = finish_phases(
        pipe, db, gpu.extensions, gpu.num_hits, gpu.num_seeds, cutoffs
    )

    transfer = TransferModel()
    h2d_ms = transfer.h2d_ms(gpu.h2d_bytes)
    d2h_ms = transfer.d2h_ms(gpu.d2h_bytes)
    other_ms = host_other_ms(db, pipe.query_length)

    # Block split: the storage layer's residue-balanced contiguous cuts —
    # the same bounds ``db.blocks()`` turns into zero-copy views, so the
    # streamed blocks share the resident code buffer instead of copying
    # it. CPU work is assigned by the block that owns each sequence.
    bounds = db.block_bounds(NUM_DB_BLOCKS)
    blocks = bounds.size - 1
    residues = db.offsets[bounds[1:]] - db.offsets[bounds[:-1]]
    share = residues / max(1, int(db.codes.size))
    gap_block = np.zeros(blocks)
    tb_block = np.zeros(blocks)
    for b in range(blocks):
        lo, hi = bounds[b], bounds[b + 1]
        price = cpu_phase_times(
            [g for g in gapped if lo <= g.seq_id < hi],
            cutoffs.report_cutoff,
            [a for a in result.alignments if lo <= a.seq_id < hi],
            config.cpu_threads,
        )
        gap_block[b] = price.gapped_ms
        tb_block[b] = price.traceback_ms
    cpu_block = gap_block + tb_block
    cpu = CpuPhaseResult(
        gapped_extensions=gapped,
        num_triggers=counts.num_gapped_triggers,
        gapped_ms=float(gap_block.sum()),
        traceback_ms=float(tb_block.sum()),
        threads=config.cpu_threads,
    )

    gpu_ms = gpu.critical_ms
    pipelined = pipeline_schedule(share, gpu_ms, h2d_ms, d2h_ms, cpu_block)
    overall = pipelined + other_ms

    # The breakdown is the canonical stage decomposition; its CPU entries
    # are the *blocked* phase times (what the pipeline actually executes),
    # so the serial reference is exactly the breakdown's sum and the
    # overlap saving isolates the pipeline's effect.
    breakdown = {
        "hit_detection": gpu.kernel_ms("hit_detection"),
        "hit_sorting": gpu.kernel_ms("hit_assembling") + gpu.kernel_ms("hit_sorting"),
        "hit_filtering": gpu.kernel_ms("hit_filtering"),
        "ungapped_extension": gpu.kernel_ms("ungapped_extension"),
        "data_transfer": h2d_ms + d2h_ms,
        "gapped_extension": cpu.gapped_ms,
        "final_alignment": cpu.traceback_ms,
        "other": other_ms,
    }
    serial = sum(breakdown.values())
    if events is not None:
        stage_items = {
            "hit_detection": gpu.num_hits,
            "hit_sorting": gpu.num_hits,
            "hit_filtering": gpu.num_seeds,
            "ungapped_extension": len(gpu.extensions),
            "data_transfer": gpu.h2d_bytes + gpu.d2h_bytes,
            "gapped_extension": len(gapped),
            "final_alignment": result.num_reported,
            "other": None,
        }
        for stage, ms in breakdown.items():
            with events.phase("cuBLASTP", stage, query_id=pipe.query_id) as ev:
                ev["work_items"] = stage_items.get(stage)
                ev["modelled_ms"] = ms
    report = CuBlastpReport(
        gpu=gpu,
        cpu=cpu,
        h2d_ms=h2d_ms,
        d2h_ms=d2h_ms,
        other_ms=other_ms,
        overall_ms=overall,
        serial_ms=serial,
        num_db_blocks=blocks,
        breakdown=breakdown,
    )
    return result, report

