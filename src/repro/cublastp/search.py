"""Public cuBLASTP search API.

:class:`CuBlastp` is what a downstream user calls::

    from repro import CuBlastp, CuBlastpConfig, SequenceDatabase

    searcher = CuBlastp("MKTAYIAKQR...")           # the query
    result = searcher.search(db)                    # identical to FSA-BLAST
    result, report = searcher.search_with_report(db)  # + timing/profiles

It also satisfies the :class:`~repro.engine.protocol.Engine` protocol, so
a query-less instance (``CuBlastp(None, params, config)``) can compile
queries once and run them against any database::

    engine = CuBlastp(None, params, config)
    compiled = engine.compile("MKTAYIAKQR...")
    result = engine.run(compiled, db)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import SearchResult
from repro.core.statistics import SearchParams
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.pipeline import CuBlastpReport, run_cublastp
from repro.cublastp.session import DeviceSession
from repro.engine.compiled import CompiledQuery
from repro.engine.modelled import ModelledEngine
from repro.gpusim.device import DeviceSpec, K20C
from repro.io.database import SequenceDatabase

if TYPE_CHECKING:
    from repro.engine.events import EventLog


class CuBlastp(ModelledEngine):
    """Fine-grained BLASTP searcher for one query.

    Parameters
    ----------
    query:
        Query sequence (residue string, encoded array, or a
        :class:`~repro.engine.compiled.CompiledQuery`); ``None`` builds a
        query-less engine-protocol instance.
    params:
        BLASTP search parameters (word length, thresholds, gaps, E-value).
    config:
        cuBLASTP execution configuration (bins, extension strategy,
        buffering, CPU threads).
    device:
        Simulated GPU (defaults to the paper's K20c).
    events:
        Optional :class:`~repro.engine.events.EventLog` kernel and CPU
        phases emit into.

    The search result is guaranteed identical to
    :class:`repro.core.BlastpPipeline` — the paper's closing claim — and
    the test suite enforces it.
    """

    #: Engine-protocol name.
    name = "cuBLASTP"

    def __init__(
        self,
        query: str | np.ndarray | CompiledQuery | None = None,
        params: SearchParams | None = None,
        config: CuBlastpConfig | None = None,
        device: DeviceSpec = K20C,
        *,
        events: EventLog | None = None,
        query_id: str | None = None,
    ) -> None:
        self.config = config or CuBlastpConfig()
        self.device = device
        super().__init__(query, params, events=events, query_id=query_id)

    def check_params(self, params: SearchParams) -> None:
        if params.word_length != 3:
            from repro.errors import ConfigError

            raise ConfigError(
                "the GPU kernels implement the BLASTP W=3 word path "
                "(packed indices, DFA layout); use BlastpPipeline / "
                "FsaBlast for other word sizes"
            )

    def make_session(self, db: SequenceDatabase) -> DeviceSession:
        """Upload this search's structures for ``db`` (one device context)."""
        return DeviceSession(
            self.pipe.query_codes,
            self.compiled.dfa,
            db,
            self.config,
            self.params.matrix,
            self.device,
        )

    def search_with_report(self, db: SequenceDatabase) -> tuple[SearchResult, CuBlastpReport]:
        """Search ``db`` returning alignments plus the full timing report."""
        return run_cublastp(
            self.pipe, db, self.make_session(db), self.config, events=self.events
        )
