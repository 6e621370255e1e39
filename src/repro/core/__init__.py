"""The four-phase BLASTP pipeline (hit detection, ungapped extension,
gapped extension, alignment with traceback) plus its statistics and results.

This package is the *semantic* definition of protein search in this repo:
the sequential CPU reference (FSA-BLAST baseline) calls these functions
directly, and every GPU kernel in :mod:`repro.cublastp` is tested to produce
byte-identical phase outputs — which is how the paper's "output identical to
FSA-BLAST" claim is enforced rather than asserted.
"""

from repro.core.gapped import GappedExtension, gapped_extend
from repro.core.hits import HitArray, diagonal_of
from repro.core.pipeline import BlastpPipeline, PhaseCounts
from repro.core.results import (
    Alignment,
    ExtensionArray,
    SearchResult,
    UngappedExtension,
)
from repro.core.statistics import SearchParams, resolve_cutoffs
from repro.core.sweep import (
    DEFAULT_BLOCK_RESIDUES,
    num_sweep_blocks,
    search_batch_sweep,
    sweep_extend_block,
    sweep_finish,
)
from repro.core.traceback import (
    TracebackAlignment,
    batch_traceback_align,
    traceback_align,
)
from repro.core.two_hit import select_seeds_and_extend
from repro.core.ungapped import ungapped_extend

__all__ = [
    "Alignment",
    "DEFAULT_BLOCK_RESIDUES",
    "BlastpPipeline",
    "ExtensionArray",
    "GappedExtension",
    "HitArray",
    "PhaseCounts",
    "SearchParams",
    "SearchResult",
    "TracebackAlignment",
    "UngappedExtension",
    "batch_traceback_align",
    "diagonal_of",
    "gapped_extend",
    "num_sweep_blocks",
    "resolve_cutoffs",
    "search_batch_sweep",
    "select_seeds_and_extend",
    "sweep_extend_block",
    "sweep_finish",
    "traceback_align",
    "ungapped_extend",
]
