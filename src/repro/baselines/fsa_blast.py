"""FSA-BLAST: the sequential CPU baseline.

Functionally this *is* the reference pipeline — the paper holds every
implementation to FSA-BLAST's output, and here that output is the
reference search's (checked in turn against the differential oracle,
:mod:`repro.verify.oracle`). The wrapper adds the timing story: per-phase
times from the CPU cost model priced over the search's actual work counts
(DESIGN.md §2's substitution for wall-clock on the paper's i5-2400).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import BlastpPipeline, PhaseCounts
from repro.core.results import SearchResult
from repro.core.statistics import SearchParams
from repro.core.sweep import sweep_extensions
from repro.cublastp.cpu_phases import run_cpu_phases
from repro.cublastp.pipeline import host_other_ms
from repro.engine.compiled import CompiledQuery, compile_query
from repro.io.database import SequenceDatabase
from repro.perfmodel.calibration import CostConstants, DEFAULT_COSTS
from repro.perfmodel.cpu_cost import critical_phase_ms, ungapped_cells


@dataclass
class FsaBlastTiming:
    """Per-phase modelled times of a CPU BLASTP run."""

    critical_ms: float  # hit detection + ungapped extension
    gapped_ms: float
    traceback_ms: float
    other_ms: float
    threads: int

    @property
    def overall_ms(self) -> float:
        return self.critical_ms + self.gapped_ms + self.traceback_ms + self.other_ms

    def breakdown(self) -> dict[str, float]:
        """Fig. 11-style stage map."""
        return {
            "hit_detection_and_ungapped": self.critical_ms,
            "gapped_extension": self.gapped_ms,
            "alignment_with_traceback": self.traceback_ms,
            "other": self.other_ms,
        }


class FsaBlast:
    """Sequential CPU BLASTP (FSA-BLAST).

    Parameters mirror :class:`~repro.cublastp.search.CuBlastp`; ``search``
    returns the canonical result, ``search_with_timing`` adds the model.
    Satisfies the :class:`~repro.engine.protocol.Engine` protocol
    (``compile`` / ``run`` / ``run_with_report``); ``run_with_report``'s
    report is the :class:`FsaBlastTiming`.
    """

    threads = 1
    costs: CostConstants = DEFAULT_COSTS
    name = "FSA-BLAST"

    def __init__(
        self,
        query: "str | np.ndarray | CompiledQuery | None" = None,
        params: SearchParams | None = None,
    ) -> None:
        self.pipe = BlastpPipeline(query, params)

    @property
    def params(self) -> SearchParams:
        return self.pipe.params

    # -- engine protocol ---------------------------------------------------

    def compile(self, query: str | np.ndarray) -> CompiledQuery:
        """Compile ``query`` under this engine's parameters."""
        return compile_query(query, self.pipe.params)

    def _bind(self, compiled: CompiledQuery) -> "FsaBlast":
        """This engine (subclass settings included) bound to a compiled query."""
        if self.pipe.compiled is compiled:
            return self
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.pipe = BlastpPipeline(compiled)
        return clone

    def run(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
    ) -> SearchResult:
        """Search ``db`` with an already-compiled query."""
        return self._bind(compiled).search(db)

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
    ) -> tuple[SearchResult, FsaBlastTiming]:
        """Like :meth:`run`, with the per-phase cost model as the report."""
        result, timing, _ = self._bind(compiled).search_with_timing(db)
        return result, timing

    # -- per-query API -----------------------------------------------------

    def search(self, db: SequenceDatabase) -> SearchResult:
        return self.pipe.search(db)

    def search_with_timing(self, db: SequenceDatabase) -> tuple[SearchResult, FsaBlastTiming, PhaseCounts]:
        """Search and attach the per-phase cost model.

        Phases 1–2 run as the one-query sweep, phases 3–4 as the CPU
        phases priced at this engine's thread count
        (:func:`~repro.cublastp.cpu_phases.run_cpu_phases`, which also
        honours ``ungapped_only``).
        """
        pipe = self.pipe
        cutoffs = pipe.cutoffs(db)
        [(extensions, num_hits, num_seeds)] = sweep_extensions([pipe], db, [cutoffs])
        cpu = run_cpu_phases(pipe, extensions, db, cutoffs, self.threads, self.costs)

        num_words = int(
            np.maximum(db.lengths - pipe.params.word_length + 1, 0).sum()
        )
        cells = ungapped_cells(extensions, cutoffs.x_drop_ungapped)
        timing = FsaBlastTiming(
            critical_ms=critical_phase_ms(
                num_words, num_hits, cells, self.costs, threads=self.threads
            ),
            gapped_ms=cpu.gapped_ms,
            traceback_ms=cpu.traceback_ms,
            other_ms=host_other_ms(db, pipe.query_length),
            threads=self.threads,
        )
        result, counts = pipe.assemble(
            db,
            extensions,
            num_hits,
            num_seeds,
            cpu.gapped_extensions,
            cpu.num_triggers,
            cpu.alignments,
        )
        return result, timing, counts
