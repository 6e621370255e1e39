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

from repro.core.pipeline import BlastpPipeline
from repro.core.results import SearchResult
from repro.core.statistics import SearchParams
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.pipeline import CuBlastpReport, run_cublastp
from repro.cublastp.session import DeviceSession
from repro.engine.compiled import CompiledQuery, compile_query
from repro.gpusim.device import DeviceSpec, K20C
from repro.io.database import SequenceDatabase

if TYPE_CHECKING:
    from repro.engine.events import EventLog
    from repro.seeding.dfa import QueryDFA


class CuBlastp:
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
        self.pipe = BlastpPipeline(query, params, events=None, query_id=query_id)
        self.events = events
        self.query_id = query_id
        if self.pipe.compiled is not None:
            self._check_word_length(self.pipe.params)
        self.device = device

    @staticmethod
    def _check_word_length(params: SearchParams) -> None:
        if params.word_length != 3:
            from repro.errors import ConfigError

            raise ConfigError(
                "the GPU kernels implement the BLASTP W=3 word path "
                "(packed indices, DFA layout); use BlastpPipeline / "
                "FsaBlast for other word sizes"
            )

    @property
    def params(self) -> SearchParams:
        return self.pipe.params

    @property
    def compiled(self) -> CompiledQuery | None:
        return self.pipe.compiled

    @property
    def dfa(self) -> QueryDFA:
        """The compiled query's DFA (built lazily, shared across engines)."""
        return self.pipe.compiled.dfa

    @property
    def query_length(self) -> int:
        return self.pipe.query_length

    # -- engine protocol ---------------------------------------------------

    def compile(self, query: str | np.ndarray) -> CompiledQuery:
        """Compile ``query`` under this engine's parameters."""
        self._check_word_length(self.params)
        return compile_query(query, self.params)

    def _bind(self, compiled: CompiledQuery, query_id: str | None) -> CuBlastp:
        if compiled is self.compiled and query_id == self.query_id:
            return self
        return CuBlastp(
            compiled,
            None,
            self.config,
            self.device,
            events=self.events,
            query_id=query_id,
        )

    def run(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
    ) -> SearchResult:
        """Search ``db`` with an already-compiled query."""
        return self._bind(compiled, query_id).search(db)

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
    ) -> tuple[SearchResult, CuBlastpReport]:
        """Like :meth:`run`, returning the full timing report as well."""
        return self._bind(compiled, query_id).search_with_report(db)

    # -- per-query API -----------------------------------------------------

    def make_session(self, db: SequenceDatabase) -> DeviceSession:
        """Upload this search's structures for ``db`` (one device context)."""
        return DeviceSession(
            self.pipe.query_codes,
            self.dfa,
            db,
            self.config,
            self.pipe.params.matrix,
            self.device,
        )

    def search(self, db: SequenceDatabase) -> SearchResult:
        """Search ``db`` and return alignments (drops the timing report)."""
        result, _ = self.search_with_report(db)
        return result

    def search_with_report(self, db: SequenceDatabase) -> tuple[SearchResult, CuBlastpReport]:
        """Search ``db`` returning alignments plus the full timing report."""
        session = self.make_session(db)
        alignments, report = run_cublastp(
            self.pipe, db, session, self.config, events=self.events, query_id=self.query_id
        )
        result, _counts = self.pipe.assemble(
            db,
            report.gpu.extensions,
            report.gpu.num_hits,
            report.gpu.num_seeds,
            report.cpu.gapped_extensions,
            report.cpu.num_triggers,
            alignments,
        )
        return result, report
