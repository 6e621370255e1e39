"""CUDA-BLASTP (Liu et al., TCBB 2011) — coarse-grained GPU baseline.

One thread per subject sequence, database pre-sorted by length descending
(their load-balancing measure), extensions appended through a global
atomic cursor. Gapped extension and traceback run host-side at one thread
(CUDA-BLASTP ported gapped extension to the GPU with a modified DP, but
reported its gains as modest; the shared CPU model keeps the comparison's
output-equality intact, as DESIGN.md notes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.coarse_kernel import run_coarse
from repro.core.results import SearchResult
from repro.core.statistics import SearchParams
from repro.core.sweep import finish_phases
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.pipeline import host_other_ms
from repro.cublastp.session import DeviceSession
from repro.engine.compiled import CompiledQuery
from repro.engine.events import EventLog
from repro.engine.modelled import ModelledEngine
from repro.gpusim.device import DeviceSpec, K20C
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.transfer import TransferModel
from repro.io.database import SequenceDatabase
from repro.perfmodel.cpu_cost import cpu_phase_times


@dataclass
class CoarseReport:
    """Timing story of a coarse-grained GPU baseline run."""

    kernel: KernelProfile
    h2d_ms: float
    d2h_ms: float
    gapped_ms: float
    traceback_ms: float
    other_ms: float

    @property
    def critical_ms(self) -> float:
        """The fused hit-detection + ungapped-extension kernel time."""
        return self.kernel.elapsed_ms()

    @property
    def overall_ms(self) -> float:
        return (
            self.critical_ms
            + self.h2d_ms
            + self.d2h_ms
            + self.gapped_ms
            + self.traceback_ms
            + self.other_ms
        )


class CudaBlastp(ModelledEngine):
    """Coarse-grained baseline searcher (CUDA-BLASTP flavour)."""

    name = "CUDA-BLASTP"
    work_queue = False
    buffered_output = False
    sort_by_length = True
    cpu_threads = 1
    #: Route this baseline's global traffic through the optional L2 model.
    use_l2 = False
    #: Register footprint of the fused kernel. CUDA-BLASTP's inlined
    #: extension state pushes it to the 63-register ceiling; GPU-BLASTP's
    #: restructured kernel (queue + buffered output) reported a leaner
    #: footprint, buying it occupancy.
    kernel_registers = 63

    def __init__(
        self,
        query: "str | np.ndarray | CompiledQuery | None" = None,
        params: SearchParams | None = None,
        device: DeviceSpec = K20C,
        *,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(query, params, events=events)
        self.device = device

    def _prepare_db(self, db: SequenceDatabase) -> tuple[SequenceDatabase, np.ndarray]:
        """Length-sort the database, returning the old->new id map."""
        if not self.sort_by_length:
            return db, np.arange(len(db), dtype=np.int64)
        order = np.argsort(db.lengths, kind="stable")[::-1]
        return db.subset(order), order

    def search_with_report(self, db: SequenceDatabase) -> tuple[SearchResult, CoarseReport]:
        """Search ``db``; results are in the original database's ids."""
        pipe = self.pipe
        cutoffs = pipe.cutoffs(db)
        run_db, order = self._prepare_db(db)
        session = DeviceSession(
            pipe.query_codes,
            pipe.compiled.dfa,
            run_db,
            CuBlastpConfig(use_readonly_cache=False, use_l2=self.use_l2),
            pipe.params.matrix,
            self.device,
        )
        extensions, profile = run_coarse(
            session,
            cutoffs.x_drop_ungapped,
            pipe.params.word_length,
            pipe.params.two_hit_window,
            self.work_queue,
            self.buffered_output,
            kernel_name=self.name,
            registers_per_thread=self.kernel_registers,
        )
        # Map sequence ids back to the caller's database ordering — one
        # columnar gather — then restore the full-field sorted order the
        # record path produced (sorted() over the dataclass tuple).
        extensions = extensions.with_seq_ids(
            np.asarray(order, dtype=np.int64)[extensions.seq_id]
        ).sorted_full()
        # The fused kernel never materialises raw hits or seeds.
        result, _counts, gapped = finish_phases(
            pipe, db, extensions, 0, 0, cutoffs, engine_name=self.name, events=self.events
        )
        cpu = cpu_phase_times(
            gapped, cutoffs.report_cutoff, result.alignments, self.cpu_threads
        )
        transfer = TransferModel()
        report = CoarseReport(
            kernel=profile,
            h2d_ms=transfer.h2d_ms(session.h2d_bytes),
            d2h_ms=transfer.d2h_ms(int(profile.extra.get("d2h_bytes", 0))),
            gapped_ms=cpu.gapped_ms,
            traceback_ms=cpu.traceback_ms,
            other_ms=host_other_ms(db, pipe.query_length),
        )
        return result, report
