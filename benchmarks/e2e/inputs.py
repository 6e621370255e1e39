"""Seeded, stratified inputs for the end-to-end benchmark.

Every random draw descends from ``--seed`` through explicit
:class:`numpy.random.SeedSequence` children, so one seed always gives the
same database, queries and arrival schedule.

The generator is *stratified* rather than a reuse of
:func:`repro.io.workloads.generate_database`: residues, implant positions,
mutations and sequence order are all random, but the quantities the
pipeline's work scales with are fixed by construction — the multiset of
sequence lengths (log-normal quantiles), the number of homologous
subjects, how many carry one or two domains, the domain length, and how
many distinct domains a query batch embeds. Measured on this host,
``generate_database`` moved a 3-query batch's wall by 10 % (IQR / median)
from seed to seed, which no 10-15 % regression bound survives; the
stratified inputs move it by ~4 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.alphabet import decode
from repro.io.database import SequenceDatabase
from repro.io.workloads import sample_background

#: Substitutions draw from the 20 standard residues only.
_STANDARD = np.arange(20, dtype=np.uint8)
#: Shared domain library: 12 domains of one length, so a batch that embeds
#: ten of them does the same work whichever two it leaves out.
NUM_DOMAINS, DOMAIN_LENGTH = 12, 54
LENGTH_SIGMA = 0.45


@dataclass
class Seeds:
    """The benchmark's independent random streams, all children of ``--seed``."""

    domains: np.random.SeedSequence
    database: np.random.SeedSequence
    queries: np.random.SeedSequence
    schedule: np.random.SeedSequence

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        return cls(*np.random.SeedSequence(seed).spawn(4))


def make_domains(seed: np.random.SeedSequence) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [sample_background(rng, DOMAIN_LENGTH) for _ in range(NUM_DOMAINS)]


def _mutate(
    rng: np.random.Generator, domain: np.ndarray, rate: float, indel: bool
) -> np.ndarray:
    out = domain.copy()
    mask = rng.random(out.size) < rate
    out[mask] = rng.choice(_STANDARD, size=int(mask.sum()))
    if indel:  # one short indel, so gapped extension has gaps to find
        pos = int(rng.integers(3, out.size - 6))
        gap = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            out = np.delete(out, slice(pos, pos + gap))
        else:
            out = np.insert(out, pos, rng.choice(_STANDARD, size=gap))
    return out


def _implant(
    rng: np.random.Generator, seq: np.ndarray, piece: np.ndarray, slot: int, slots: int
) -> None:
    """Overwrite a window inside the ``slot``-th of ``slots`` equal parts
    of ``seq`` (in place), so implants of one sequence never overlap."""
    width = seq.size // slots
    piece = piece[: max(1, width - 2)]
    start = slot * width + int(rng.integers(0, width - piece.size + 1))
    seq[start : start + piece.size] = piece


def make_database(
    seed: np.random.SeedSequence,
    domains: list[np.ndarray],
    num_sequences: int,
    mean_length: int,
    homolog_fraction: float,
) -> SequenceDatabase:
    """A database whose size and homolog structure do not depend on the seed."""
    rng = np.random.default_rng(seed)
    mu = np.log(mean_length) - LENGTH_SIGMA**2 / 2.0
    normal = NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / num_sequences) for i in range(num_sequences)])
    lengths = np.clip(np.exp(mu + LENGTH_SIGMA * z).round().astype(np.int64), 24, 36805)
    rng.shuffle(lengths)
    sequences = [sample_background(rng, int(n)) for n in lengths]
    carriers = rng.choice(
        num_sequences, size=int(round(homolog_fraction * num_sequences)), replace=False
    )
    pick = 0
    for j, carrier in enumerate(carriers):
        implants = 1 + j % 2
        for slot in range(implants):
            domain = domains[pick % len(domains)]
            piece = _mutate(rng, domain, 0.25, indel=pick % 5 < 2)
            _implant(rng, sequences[carrier], piece, slot, implants)
            pick += 1
    offsets = np.zeros(num_sequences + 1, dtype=np.int64)
    np.cumsum([s.size for s in sequences], out=offsets[1:])
    identifiers = [f"e2e|{i}" for i in range(num_sequences)]
    return SequenceDatabase(np.concatenate(sequences), offsets, identifiers)


def make_queries(
    seed: np.random.SeedSequence,
    domains: list[np.ndarray],
    lengths: list[int],
) -> list[tuple[str, str]]:
    """Distinct ``(query_id, sequence)`` pairs, one per entry of ``lengths``.

    A query embeds ``length // 160`` (at least one) lightly mutated
    domains; picks walk one seeded permutation of the library, so a batch
    covers the library evenly whatever the seed.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(domains))
    pick = 0
    queries = []
    for i, length in enumerate(lengths):
        seq = sample_background(rng, length)
        implants = max(1, length // 160)
        for slot in range(implants):
            domain = domains[order[pick % len(domains)]]
            _implant(rng, seq, _mutate(rng, domain, 0.08, indel=False), slot, implants)
            pick += 1
        queries.append((f"q{i:04d}", decode(seq)))
    return queries


#: Arrivals per schedule cell (see :func:`poisson_schedule`).
SCHEDULE_CELL = 14


def poisson_schedule(seed: np.random.SeedSequence, rate: float, count: int) -> np.ndarray:
    """Arrival offsets (seconds from the start) of ``count`` Poisson-like arrivals.

    The gaps are the ``count`` quantiles of the exponential distribution,
    dealt round-robin into cells of :data:`SCHEDULE_CELL` arrivals and
    shuffled by the seed within and across cells. Every seed therefore
    offers the same multiset of gaps — the same duration, the same number
    of gaps shorter than a coalescing window — at a rate that is even from
    cell to cell, and differs in where the bursts fall. A 7 s phase holds
    ~200 arrivals: independent exponential draws moved its median latency
    by 14-20 % from seed to seed, one global shuffle by 9 %, this by ~5 %.
    """
    rng = np.random.default_rng(seed)
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / rate
    cells = -(-count // SCHEDULE_CELL)
    dealt = [gaps[c::cells].copy() for c in range(cells)]
    for cell in dealt:
        rng.shuffle(cell)
    return np.cumsum(np.concatenate([dealt[c] for c in rng.permutation(cells)]))
