"""Seeded generative workloads for differential testing.

Each *case* is one (query, database, parameters) triple, generated
deterministically from a ``(family, seed)`` pair — recording those two
values is enough to rebuild the exact case anywhere (the reproducer
protocol in :mod:`repro.verify.shrink` depends on this).

The families target the corner cases where GPU seed-filter-extend
pipelines are known to diverge from their CPU references (SaLoBa's
workload-dependence analysis; PAPERS.md):

``random``
    Pure Robinson-Robinson background — mostly chance hits, exercising
    the zero-/few-alignment paths and statistics cutoffs.
``homolog``
    Homolog-enriched databases built on the standard workload generator
    (:mod:`repro.io.workloads`), so gapped extension and traceback see
    real work.
``lowcomplexity``
    Long single- and dual-residue runs in both the query and subjects
    (unmasked): one word at many positions, dense seeds on neighbouring
    diagonals, overlapping gapped candidates and equal-score traceback
    paths.
``pileup``
    Periodic sequences sharing short words with the query — pathological
    diagonal pileups that stress binning, the segmented sort, and the
    two-hit filter's backward scan.
``boundary``
    Degenerate dimensions: word-length queries, single-residue subjects,
    exact self-matches, and hits spaced exactly at the two-hit window
    and word-overlap boundaries (inclusive/exclusive disagreements
    between implementations live on these edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alphabet import decode
from repro.core.statistics import SearchParams
from repro.io.database import SequenceDatabase
from repro.io.workloads import (
    WorkloadSpec,
    generate_database,
    generate_query,
    sample_background,
)

#: Families in generation (round-robin) order.
FAMILIES = ("random", "homolog", "lowcomplexity", "pileup", "boundary")

#: Master seed of the pinned conformance corpus (the paper's IPDPS date).
CORPUS_SEED = 20140519

#: Size of the pinned conformance corpus.
CORPUS_SIZE = 64


@dataclass
class Case:
    """One generated differential-test case.

    ``(family, seed)`` fully determines the case; everything else is
    derived and carried only for convenience.
    """

    family: str
    seed: int
    query_id: str
    query: str
    db: SequenceDatabase
    params: SearchParams
    notes: str = ""

    @property
    def case_id(self) -> str:
        return f"{self.family}-{self.seed:010d}"

    def describe(self) -> str:
        """One-line human summary (sizes, seed, the replay coordinates)."""
        return (
            f"{self.case_id}: query {len(self.query)} aa, "
            f"db {len(self.db)} seqs / {int(self.db.codes.size)} residues"
            + (f" ({self.notes})" if self.notes else "")
        )


def _case_params(rng: np.random.Generator) -> SearchParams:
    """Draw search parameters — defaults most of the time, edges sometimes."""
    return SearchParams(
        threshold=int(rng.choice([10, 11, 11, 11, 12])),
        two_hit_window=int(rng.choice([20, 40, 40, 40])),
        evalue=float(rng.choice([1.0, 10.0, 10.0])),
        max_alignments=int(rng.choice([5, 500, 500])),
    )


def _random_case(seed: int) -> Case:
    rng = np.random.default_rng(seed)
    num = int(rng.integers(5, 14))
    seqs = [sample_background(rng, int(rng.integers(30, 150))) for _ in range(num)]
    query = decode(sample_background(rng, int(rng.integers(24, 100))))
    db = SequenceDatabase.from_strings(
        [decode(s) for s in seqs], [f"rand|{seed}|{i}" for i in range(num)]
    )
    return Case("random", seed, f"q-random-{seed}", query, db, _case_params(rng))


def _homolog_case(seed: int) -> Case:
    rng = np.random.default_rng(seed)
    spec = WorkloadSpec(
        name=f"homolog{seed}",
        num_sequences=int(rng.integers(8, 18)),
        mean_length=int(rng.integers(70, 160)),
        homolog_fraction=float(rng.uniform(0.3, 0.7)),
        num_domains=int(rng.integers(3, 8)),
        mutation_rate=float(rng.uniform(0.05, 0.35)),
        seed=seed,
    )
    db = generate_database(spec)
    qlen = int(rng.integers(40, 180))
    query = generate_query(qlen, spec, query_seed=int(rng.integers(0, 1 << 16)))
    params = SearchParams(
        **spec.search_params_kwargs,
        threshold=int(rng.choice([10, 11, 12])),
    )
    return Case("homolog", seed, f"q-homolog-{seed}", query, db, params)


def _lowcomplexity_piece(rng: np.random.Generator, length: int) -> np.ndarray:
    """A low-entropy stretch over one or two residue codes."""
    codes = rng.choice(20, size=int(rng.integers(1, 3)), replace=False)
    return rng.choice(codes, size=length).astype(np.uint8)


def _lowcomplexity_case(seed: int) -> Case:
    rng = np.random.default_rng(seed)
    num = int(rng.integers(4, 10))
    seqs = []
    for _ in range(num):
        parts = [sample_background(rng, int(rng.integers(8, 30)))]
        for _ in range(int(rng.integers(1, 4))):
            parts.append(_lowcomplexity_piece(rng, int(rng.integers(15, 60))))
            parts.append(sample_background(rng, int(rng.integers(5, 25))))
        seqs.append(np.concatenate(parts))
    # Query: background flanks around a low-complexity core.
    q = np.concatenate(
        [
            sample_background(rng, int(rng.integers(12, 30))),
            _lowcomplexity_piece(rng, int(rng.integers(20, 50))),
            sample_background(rng, int(rng.integers(12, 30))),
        ]
    )
    db = SequenceDatabase.from_strings(
        [decode(s) for s in seqs], [f"lc|{seed}|{i}" for i in range(num)]
    )
    return Case(
        "lowcomplexity", seed, f"q-lc-{seed}", decode(q), db, _case_params(rng),
        notes="low-complexity runs",
    )


def _pileup_case(seed: int) -> Case:
    rng = np.random.default_rng(seed)
    # A small shared word set guarantees dense, repeated diagonals.
    words = [sample_background(rng, 3) for _ in range(int(rng.integers(1, 4)))]

    def weave(n_words: int) -> np.ndarray:
        picks = [words[int(rng.integers(0, len(words)))] for _ in range(n_words)]
        return np.concatenate(picks)

    num = int(rng.integers(3, 8))
    seqs = [
        np.concatenate([weave(int(rng.integers(8, 30))), sample_background(rng, 6)])
        for _ in range(num)
    ]
    q = np.concatenate(
        [sample_background(rng, 8), weave(int(rng.integers(6, 16))),
         sample_background(rng, 8)]
    )
    db = SequenceDatabase.from_strings(
        [decode(s) for s in seqs], [f"pile|{seed}|{i}" for i in range(num)]
    )
    return Case(
        "pileup", seed, f"q-pileup-{seed}", decode(q), db, _case_params(rng),
        notes="diagonal pileups",
    )


def _boundary_case(seed: int) -> Case:
    rng = np.random.default_rng(seed)
    params = _case_params(rng)
    window = params.two_hit_window
    kind = int(rng.integers(0, 4))
    filler = sample_background(rng, 120)
    if kind == 0:
        # Word-length query: the smallest compilable query (one word).
        query = decode(sample_background(rng, int(rng.integers(3, 8))))
        seqs = [decode(sample_background(rng, int(rng.integers(20, 80))))
                for _ in range(3)]
        notes = "minimal query"
    elif kind == 1:
        # Exact self-match: the query itself is a subject.
        query = decode(sample_background(rng, int(rng.integers(30, 90))))
        seqs = [query, decode(sample_background(rng, 40))]
        notes = "exact self-match"
    elif kind == 2:
        # Single- and sub-word-length subjects mixed with a normal one.
        query = decode(sample_background(rng, 50))
        seqs = [decode(sample_background(rng, n)) for n in (1, 2, 3, 4)]
        seqs.append(decode(filler[:70]))
        notes = "sub-word subjects"
    else:
        # Two query words recur in a subject spaced exactly at the two-hit
        # window and exactly at the word-overlap bound — the inclusive/
        # exclusive edges of the seeding rule.
        word = sample_background(rng, 3)
        qbg = sample_background(rng, 46)
        q = qbg.copy()
        q[10:13] = word
        sub = sample_background(rng, window + 40)
        sub[5:8] = word
        sub[5 + 3 : 5 + 6] = word          # distance == word_length
        sub[5 + window : 5 + window + 3] = word  # distance == window
        query = decode(q)
        seqs = [decode(sub), decode(sample_background(rng, 30))]
        notes = f"window-edge spacing (A={window})"
    db = SequenceDatabase.from_strings(
        seqs, [f"bnd|{seed}|{i}" for i in range(len(seqs))]
    )
    return Case("boundary", seed, f"q-boundary-{seed}", query, db, params, notes=notes)


_BUILDERS = {
    "random": _random_case,
    "homolog": _homolog_case,
    "lowcomplexity": _lowcomplexity_case,
    "pileup": _pileup_case,
    "boundary": _boundary_case,
}


def build_case(family: str, seed: int) -> Case:
    """Rebuild the case identified by ``(family, seed)`` — the replay entry."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ValueError(
            f"unknown case family {family!r} (choose from {', '.join(FAMILIES)})"
        ) from None
    return builder(int(seed))


def generate_cases(
    count: int, seed: int, families: "tuple[str, ...] | list[str] | None" = None
) -> list[Case]:
    """Generate ``count`` cases, round-robin over ``families``.

    Child seeds derive from ``seed`` through :class:`numpy.random.SeedSequence`,
    so one master seed yields a well-spread, fully replayable batch.
    """
    if count < 1:
        raise ValueError("count must be positive")
    fams = tuple(families) if families else FAMILIES
    for f in fams:
        if f not in _BUILDERS:
            raise ValueError(
                f"unknown case family {f!r} (choose from {', '.join(FAMILIES)})"
            )
    child_seeds = np.random.SeedSequence(seed).generate_state(count)
    return [
        build_case(fams[i % len(fams)], int(child_seeds[i])) for i in range(count)
    ]


def pinned_corpus() -> list[Case]:
    """The 64-case pinned conformance corpus (golden-snapshot locked)."""
    return generate_cases(CORPUS_SIZE, CORPUS_SEED)
