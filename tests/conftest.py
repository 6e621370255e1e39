"""Shared fixtures: small deterministic workloads and pre-built pipelines.

Expensive artifacts (databases, neighbourhoods, device sessions) are
session-scoped — tests treat them as immutable. Anything a test mutates it
must build itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core import BlastpPipeline, SearchParams
from repro.io import generate_database, generate_query
from repro.io.workloads import WorkloadSpec


@pytest.fixture(scope="session")
def tiny_spec() -> WorkloadSpec:
    """A 24-sequence homolog-rich workload for fast functional tests."""
    return WorkloadSpec(
        name="tiny",
        num_sequences=24,
        mean_length=150,
        homolog_fraction=0.3,
        seed=1234,
        emulated_residues=110_000_000,
    )


@pytest.fixture(scope="session")
def tiny_db(tiny_spec):
    return generate_database(tiny_spec)


@pytest.fixture(scope="session")
def tiny_query(tiny_spec) -> str:
    return generate_query(160, tiny_spec)


@pytest.fixture(scope="session")
def tiny_query_codes(tiny_query) -> np.ndarray:
    return encode(tiny_query)


@pytest.fixture(scope="session")
def tiny_params(tiny_spec) -> SearchParams:
    return SearchParams(**tiny_spec.search_params_kwargs)


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_query, tiny_params) -> BlastpPipeline:
    return BlastpPipeline(tiny_query, tiny_params)


@pytest.fixture(scope="session")
def tiny_cutoffs(tiny_pipeline, tiny_db):
    return tiny_pipeline.cutoffs(tiny_db)


@pytest.fixture(scope="session")
def small_spec() -> WorkloadSpec:
    """A 60-sequence workload for the GPU-kernel integration tests."""
    return WorkloadSpec(
        name="small",
        num_sequences=60,
        mean_length=180,
        homolog_fraction=0.1,
        seed=77,
        emulated_residues=110_000_000,
    )


@pytest.fixture(scope="session")
def small_db(small_spec):
    return generate_database(small_spec)


@pytest.fixture(scope="session")
def small_query(small_spec) -> str:
    return generate_query(220, small_spec)


@pytest.fixture(scope="session")
def small_params(small_spec) -> SearchParams:
    return SearchParams(**small_spec.search_params_kwargs)


@pytest.fixture(scope="session")
def small_pipeline(small_query, small_params) -> BlastpPipeline:
    return BlastpPipeline(small_query, small_params)


@pytest.fixture(scope="session")
def small_cutoffs(small_pipeline, small_db):
    return small_pipeline.cutoffs(small_db)


@pytest.fixture()
def lock_witness():
    """Run one test under the runtime lock witness, asserting it clean.

    Enables the process-global registry *before* the test body runs, so
    every lock constructed through :func:`repro.analysis.witness.new_lock`
    inside the test becomes a witnessed lock. At teardown the observed
    acquisition-order graph must be acyclic and the violation log empty —
    a lock inversion or a blocking call under a lock anywhere in the test
    fails it, even when the run happened not to deadlock.
    """
    from repro.analysis.witness import get_witness_registry

    registry = get_witness_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    try:
        yield registry
        registry.assert_clean()
        assert registry.cycles() == [], registry.snapshot()["cycles"]
    finally:
        registry.reset()
        registry.enabled = was_enabled


def extension_keys(extensions):
    """Canonical comparable form of an extension list."""
    return sorted(
        (e.seq_id, e.query_start, e.query_end, e.subject_start, e.subject_end, e.score)
        for e in extensions
    )


def alignment_keys(alignments):
    """Canonical comparable form of reported alignments."""
    return [
        (a.seq_id, a.score, a.query_start, a.query_end, a.subject_start, a.subject_end)
        for a in alignments
    ]


def seed_flags(hits, two_hit_window, word_length=3):
    """Two-hit flags aligned with ``hits``' own order.

    :func:`repro.core.two_hit.seed_mask` runs on the *sorted* packed-key
    stream; this maps its survivors back onto the (unsorted) input by key.
    """
    from repro.core.two_hit import seed_mask
    from repro.verify.oracle import tag_hits

    tagged = tag_hits(hits, two_hit_window)
    seeds = tagged.keys[seed_mask(tagged.keys, tagged.layout, word_length)]
    keys = tagged.layout.pack(0, hits.seq_id, hits.diagonal, hits.subject_pos)
    return np.isin(keys, seeds)


def swept(pipe, db, cutoffs):
    """``(extensions, num_hits, num_seeds)`` of one query through the
    sweep's phase 1–2 function."""
    from repro.core.sweep import sweep_extensions

    return sweep_extensions([pipe], db, [cutoffs])[0]


def tagged_columns(tagged, query_lengths):
    """``(query, seq_id, query_pos, subject_pos)`` columns of a tagged hit
    stream, decoded from its packed keys (a key is the whole record)."""
    query, seq_id, diag, spos = tagged.layout.unpack(tagged.keys)
    return query, seq_id, spos - diag + np.asarray(query_lengths)[query], spos
