"""Multi-GPU cuBLASTP: per-node searches + head-node merge.

Execution model (mpiBLAST-style, one GPU per node):

1. the query's structures (DFA, PSSM) are broadcast to every node;
2. each node runs the complete cuBLASTP pipeline (GPU kernels + CPU
   phases, Fig. 12 overlap included) on its database partition;
3. nodes ship their reported alignments to the head node over the
   interconnect;
4. the head node merges the sorted per-node lists, re-ranks globally, and
   truncates to ``max_alignments``.

Nodes run concurrently, so the compute span is the *slowest* node; the
merge is serial at the head — which is exactly why the paper expects it to
become the bottleneck as nodes are added, and what
``benchmarks/bench_cluster_scaling.py`` measures.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.results import Alignment, SearchResult
from repro.core.statistics import SearchParams
from repro.cublastp.config import CuBlastpConfig
from repro.cublastp.pipeline import CuBlastpReport
from repro.cublastp.search import CuBlastp
from repro.cluster.partition import Partition, partition_database
from repro.engine.compiled import CompiledQuery, compile_query
from repro.gpusim.device import DeviceSpec, K20C
from repro.io.database import SequenceDatabase
from repro.io.store import DatabaseStore, get_default_store

#: Serialized size of one alignment record on the wire (coordinates,
#: scores, and the rendered alignment rows — BLAST ships the traceback).
RESULT_RECORD_BYTES = 160

#: Interconnect model: FDR InfiniBand-era effective point-to-point
#: bandwidth and per-message latency.
INTERCONNECT_GBPS = 5.0
MESSAGE_LATENCY_US = 15.0

#: Head-node merge cost: cycles per record for the heap merge + re-rank.
MERGE_CYCLES_PER_RECORD = 220.0
HEAD_CLOCK_GHZ = 3.1


def _remap_alignments(alignments: list[Alignment], part: Partition) -> list[Alignment]:
    """Alignments with partition-local ``seq_id`` rebased to global ids.

    The id gather is one vectorised :meth:`Partition.to_global` call over
    the whole column; only the (small, reported) record rebuild is
    per-alignment.
    """
    if not alignments:
        return []
    local = np.fromiter(
        (a.seq_id for a in alignments), dtype=np.int64, count=len(alignments)
    )
    global_ids = part.to_global(local)
    return [
        dataclasses.replace(a, seq_id=int(g))
        for a, g in zip(alignments, global_ids)
    ]


@dataclass
class NodeResult:
    """One node's search outcome; counts and timing read from its report."""

    node: int
    num_sequences: int
    alignments: list[Alignment]
    report: CuBlastpReport

    @property
    def elapsed_ms(self) -> float:
        return float(self.report.overall_ms)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "num_hits": int(self.report.gpu.num_hits),
            "num_seeds": int(self.report.gpu.num_seeds),
            "num_ungapped_extensions": len(self.report.gpu.extensions),
            "num_gapped_extensions": len(self.report.cpu.gapped_extensions),
        }

    @property
    def breakdown(self) -> dict[str, float]:
        return dict(self.report.breakdown)


@dataclass
class ClusterReport:
    """Timing story of one cluster search."""

    nodes: list[NodeResult]
    compute_ms: float  # slowest node (nodes run concurrently)
    gather_ms: float  # shipping per-node results to the head
    merge_ms: float  # head-node merge + re-rank + truncate
    overall_ms: float
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def merge_share(self) -> float:
        """Fraction of wall time spent past the compute span — the §6
        bottleneck indicator."""
        return (self.gather_ms + self.merge_ms) / self.overall_ms


class MultiGpuBlastp:
    """cuBLASTP across ``num_nodes`` simulated GPU nodes.

    Parameters mirror :class:`~repro.cublastp.search.CuBlastp` plus the
    node count. The merged result is identical to a single-node search of
    the whole database (enforced by tests).
    """

    def __init__(
        self,
        query: str | np.ndarray | CompiledQuery,
        num_nodes: int,
        params: SearchParams | None = None,
        config: CuBlastpConfig | None = None,
        device: DeviceSpec = K20C,
        *,
        store: DatabaseStore | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        #: Store resolving database paths and caching shard partitions.
        self.store = store
        # One shared query compilation (the broadcast structures): every
        # node binds this CompiledQuery instead of rebuilding the
        # neighbourhood/DFA/PSSM per node.
        self.compiled = compile_query(query, params)
        self.params = self.compiled.params
        self.config = config or CuBlastpConfig()
        self.device = device
        # The per-node engine prototype (an Engine-protocol instance; swap
        # it to run the cluster on a different implementation).
        self.searcher = CuBlastp(self.compiled, None, self.config, device)

    # -- per-node execution --------------------------------------------------

    def _run_node(self, part: Partition, full_db_residues: int) -> NodeResult:
        # Statistics must be evaluated against the *whole* search space,
        # not the partition — else per-node cutoffs would differ from the
        # single-node reference and merged output would diverge. The
        # rebind is cheap: effective_db_residues is execution-side, so the
        # compiled structures are shared untouched.
        node_params = dataclasses.replace(
            self.params,
            effective_db_residues=self.params.effective_db_residues
            or full_db_residues,
        )
        node_compiled = self.compiled.with_params(node_params)
        result, report = self.searcher.run_with_report(node_compiled, part.db)
        remapped = _remap_alignments(result.alignments, part)
        return NodeResult(
            node=part.node,
            num_sequences=len(part.db),
            alignments=remapped,
            report=report,
        )

    # -- the head-node merge ---------------------------------------------------

    @staticmethod
    def _merge(per_node: list[list[Alignment]], cap: int) -> list[Alignment]:
        """K-way merge of the per-node sorted lists, then truncate."""
        key = lambda a: (-a.score, a.seq_id, a.query_start, a.subject_start)
        merged = list(heapq.merge(*per_node, key=key))
        return merged[:cap]

    def search_with_report(
        self, db: SequenceDatabase | str | Path
    ) -> tuple[SearchResult, ClusterReport]:
        """Run the cluster search over ``db`` (a database or a saved path).

        Paths resolve through the :class:`~repro.io.store.DatabaseStore`,
        which also caches the node partitioning — successive queries
        against the same resident database fragment it once.
        """
        if isinstance(db, (str, Path)):
            if self.store is None:
                self.store = get_default_store()
            parts = [h.partition for h in self.store.shards(db, self.num_nodes)]
            db = self.store.open(db)
        else:
            parts = partition_database(db, self.num_nodes)
        full_residues = int(db.codes.size)
        nodes = [self._run_node(p, full_residues) for p in parts]

        compute_ms = max(n.elapsed_ms for n in nodes)
        total_records = sum(len(n.alignments) for n in nodes)
        # Gather: per-node message latency + records over the interconnect
        # (serialised at the head's NIC).
        gather_ms = (
            len(nodes) * MESSAGE_LATENCY_US / 1e3
            + total_records * RESULT_RECORD_BYTES / (INTERCONNECT_GBPS * 1e9) * 1e3
        )
        merge_ms = (
            total_records * MERGE_CYCLES_PER_RECORD / (HEAD_CLOCK_GHZ * 1e9) * 1e3
            + len(nodes) * 0.001
        )
        merged = self._merge(
            [n.alignments for n in nodes], self.params.max_alignments
        )
        overall = compute_ms + gather_ms + merge_ms
        report = ClusterReport(
            nodes=nodes,
            compute_ms=compute_ms,
            gather_ms=gather_ms,
            merge_ms=merge_ms,
            overall_ms=overall,
            breakdown={
                "compute (slowest node)": compute_ms,
                "result gather": gather_ms,
                "merge + rank": merge_ms,
            },
        )
        result = SearchResult(
            query_length=self.searcher.query_length,
            db_sequences=len(db),
            db_residues=full_residues,
            alignments=merged,
            num_hits=sum(n.counts["num_hits"] for n in nodes),
            num_seeds=sum(n.counts["num_seeds"] for n in nodes),
            num_ungapped_extensions=sum(
                n.counts["num_ungapped_extensions"] for n in nodes
            ),
            num_gapped_extensions=sum(
                n.counts["num_gapped_extensions"] for n in nodes
            ),
            num_reported=len(merged),
        )
        return result, report

    def search(self, db: SequenceDatabase | str | Path) -> SearchResult:
        result, _ = self.search_with_report(db)
        return result
