"""Sequence input/output: FASTA parsing, packed databases and zero-copy
views, the versioned on-disk format, the resident store, synthetic
workloads."""

from repro.io.database import DatabaseStats, DatabaseView, SequenceDatabase
from repro.io.fasta import FastaRecord, read_fasta, read_fasta_file, write_fasta
from repro.io.report import format_pairwise, tabular_line, write_tabular
from repro.io.store import DatabaseStore, ShardHandle, StoreStats, get_default_store
from repro.io.workloads import (
    WorkloadSpec,
    generate_database,
    generate_query,
    standard_queries,
    standard_workloads,
)

__all__ = [
    "DatabaseStats",
    "DatabaseStore",
    "DatabaseView",
    "FastaRecord",
    "SequenceDatabase",
    "ShardHandle",
    "StoreStats",
    "get_default_store",
    "WorkloadSpec",
    "format_pairwise",
    "generate_database",
    "generate_query",
    "read_fasta",
    "read_fasta_file",
    "standard_queries",
    "standard_workloads",
    "tabular_line",
    "write_fasta",
    "write_tabular",
]
