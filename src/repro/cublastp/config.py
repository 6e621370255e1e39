"""cuBLASTP configuration.

The paper exposes three run-time knobs — number of bins per warp, ungapped
extension strategy, and PSSM-vs-BLOSUM placement — plus the hierarchical
buffering toggle its Fig. 17 ablates. All live here; the launch geometry
is a class attribute of each kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class ExtensionMode(enum.Enum):
    """The three fine-grained ungapped-extension strategies (Fig. 9 b-d)."""

    DIAGONAL = "diagonal"
    HIT = "hit"
    WINDOW = "window"


@dataclass(frozen=True)
class CuBlastpConfig:
    """Tunable parameters of the cuBLASTP GPU path.

    Attributes
    ----------
    num_bins:
        Bins per warp for hit binning (the Fig. 14 sweep; 128 is the
        paper's chosen default).
    bin_capacity:
        Hit slots per bin. Overflow raises
        :class:`~repro.errors.GpuSimError` — sizing follows §3.3's
        "maximally possible size" argument, with headroom for the multiple
        sequences a warp processes under grid-striding.
    extension_mode:
        Which of Algorithms 3-5 runs phase 2 (paper default: window).
    window_size:
        Lanes per window for window-based extension (Fig. 8 uses 8).
    matrix_mode:
        ``"auto"`` applies §3.5's policy (PSSM in shared memory while it
        fits, BLOSUM62 otherwise); ``"pssm"``/``"blosum"`` force a choice
        for the Fig. 15 sweep.
    use_readonly_cache:
        Hierarchical buffering toggle (Fig. 17).
    cpu_threads:
        Threads for the CPU phases (gapped extension + traceback).
    """

    num_bins: int = 128
    bin_capacity: int = 256
    extension_mode: ExtensionMode = ExtensionMode.WINDOW
    window_size: int = 8
    matrix_mode: str = "auto"
    use_readonly_cache: bool = True
    #: Enable the simulator's optional L2 model for this search's kernels
    #: (default timing omits L2; see DESIGN.md §5b and the L2 ablation).
    use_l2: bool = False
    #: Run every kernel under the memory sanitizer (racecheck/initcheck/
    #: boundscheck); any hazard fails the search with SanitizerError.
    #: Functional output is unchanged — only checked (docs/ANALYSIS.md).
    sanitize: bool = False
    cpu_threads: int = 4

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise ConfigError("num_bins must be positive")
        if self.bin_capacity < 1:
            raise ConfigError("bin_capacity must be positive")
        if self.matrix_mode not in ("auto", "pssm", "blosum"):
            raise ConfigError(f"unknown matrix_mode {self.matrix_mode!r}")
        if self.window_size not in (2, 4, 8, 16):
            raise ConfigError(
                "window_size must be 2/4/8/16 (a diagonal slot needs a "
                "left and a right window within one warp)"
            )
        if self.cpu_threads < 1:
            raise ConfigError("cpu_threads must be positive")
