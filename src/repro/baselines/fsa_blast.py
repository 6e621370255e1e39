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

from repro.core.pipeline import PhaseCounts
from repro.core.results import SearchResult
from repro.core.sweep import finish_phases, sweep_extensions
from repro.cublastp.pipeline import host_other_ms
from repro.engine.modelled import ModelledEngine
from repro.io.database import SequenceDatabase
from repro.perfmodel.calibration import CostConstants, DEFAULT_COSTS
from repro.perfmodel.cpu_cost import cpu_phase_times, critical_phase_ms, ungapped_cells


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


class FsaBlast(ModelledEngine):
    """Sequential CPU BLASTP (FSA-BLAST).

    Parameters mirror :class:`~repro.engine.modelled.ModelledEngine`;
    ``search`` returns the canonical result, ``search_with_timing`` adds
    the model and the per-phase counts. ``run_with_report``'s report is
    the :class:`FsaBlastTiming`.
    """

    threads = 1
    costs: CostConstants = DEFAULT_COSTS
    name = "FSA-BLAST"

    def search_with_report(self, db: SequenceDatabase) -> tuple[SearchResult, FsaBlastTiming]:
        result, timing, _ = self.search_with_timing(db)
        return result, timing

    def search_with_timing(self, db: SequenceDatabase) -> tuple[SearchResult, FsaBlastTiming, PhaseCounts]:
        """Search and attach the per-phase cost model.

        Phases 1–2 run as the one-query sweep, phases 3–4 as the shared
        tail (:func:`~repro.core.sweep.finish_phases`), priced at this
        engine's thread count
        (:func:`~repro.perfmodel.cpu_cost.cpu_phase_times`).
        """
        pipe = self.pipe
        cutoffs = pipe.cutoffs(db)
        [(extensions, num_hits, num_seeds)] = sweep_extensions(
            [pipe], db, [cutoffs], engine_name=self.name, events=self.events
        )
        result, counts, gapped = finish_phases(
            pipe, db, extensions, num_hits, num_seeds, cutoffs,
            engine_name=self.name, events=self.events,
        )
        cpu = cpu_phase_times(gapped, cutoffs.report_cutoff, self.threads, self.costs)
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
        return result, timing, counts
