"""cuBLASTP: fine-grained BLASTP on the simulated GPU (the paper's system).

The package decomposes the two critical phases into five GPU kernels —

1. :mod:`~repro.cublastp.hit_detection_kernel` — warp-based hit detection
   with diagonal binning (Algorithm 2);
2. :mod:`~repro.cublastp.sort_kernel` — hit assembling + segmented sort of
   the packed 64-bit bin elements (Fig. 6a/6b, Fig. 7);
3. :mod:`~repro.cublastp.filter_kernel` — two-hit filtering of sorted bins
   (Fig. 6c);
4. one of three ungapped-extension kernels (Algorithms 3-5):
   :mod:`~repro.cublastp.ext_diagonal`, :mod:`~repro.cublastp.ext_hit`,
   :mod:`~repro.cublastp.ext_window`;

— plus the GPU/CPU overlap pipeline (:mod:`~repro.cublastp.pipeline`,
Fig. 12). Gapped extension and traceback are not cuBLASTP's own: they are
the phase 3–4 tail every engine shares (:func:`repro.core.sweep.finish_phases`),
priced per pipeline block at the configured CPU thread count
(:func:`repro.perfmodel.cpu_cost.cpu_phase_times`).
:class:`~repro.cublastp.search.CuBlastp` is the public entry point; its
search results are identical to the reference pipeline's (enforced by
tests), so every performance number compares equal-output implementations.
"""

from repro.cublastp.binning import (
    BinnedHits,
    bin_of_diagonal,
    pack_hits,
    unpack_hits,
)
from repro.cublastp.buffering import MatrixMode, MatrixPlacement, choose_matrix_placement
from repro.cublastp.config import CuBlastpConfig, ExtensionMode
from repro.cublastp.pipeline import CpuPhaseResult, CuBlastpReport, GpuPhaseResult
from repro.cublastp.search import CuBlastp

__all__ = [
    "BinnedHits",
    "CpuPhaseResult",
    "CuBlastp",
    "CuBlastpConfig",
    "CuBlastpReport",
    "ExtensionMode",
    "GpuPhaseResult",
    "MatrixMode",
    "MatrixPlacement",
    "bin_of_diagonal",
    "choose_matrix_placement",
    "pack_hits",
    "unpack_hits",
]
