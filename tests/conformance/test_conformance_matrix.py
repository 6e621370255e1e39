"""Conformance: the full engine matrix over the 64-case pinned corpus.

Every engine on the direct path (cuBLASTP under all three extension
strategies and under the sanitizer, all baselines) and every execution
path on the reference engine (zero-copy view, mmap round-trip, threaded
and process batches, thread and process db-sweeps) must reproduce the
reference oracle hit-for-hit and score-for-score on every corpus case.
The oracle itself is locked by the golden snapshots in
``tests/conformance/golden/`` — a refactor that changes any reported
alignment shows up as a text diff there, not as a silent drift.
"""

from pathlib import Path

import pytest

from repro.verify import (
    DEFAULT_VARIANTS,
    GoldenStore,
    OracleRunner,
    first_divergence,
    pinned_corpus,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def corpus():
    return pinned_corpus()


@pytest.fixture(scope="module")
def oracle_results(corpus):
    """Reference results for every corpus case, computed once."""
    oracle = OracleRunner()
    return {case.case_id: oracle(case) for case in corpus}


class TestPinnedCorpus:
    def test_corpus_shape(self, corpus):
        assert len(corpus) == 64
        families = {c.family for c in corpus}
        assert families == {"random", "homolog", "lowcomplexity", "pileup", "boundary"}
        # Case ids are unique and derive from recorded seeds.
        assert len({c.case_id for c in corpus}) == 64

    def test_corpus_is_replayable(self, corpus):
        """(family, seed) rebuilds the exact case — the reproducer contract."""
        from repro.verify import build_case

        for case in corpus[:10]:
            again = build_case(case.family, case.seed)
            assert again.query == case.query
            assert len(again.db) == len(case.db)
            assert again.db.sequence_str(0) == case.db.sequence_str(0)

    def test_sweep_paths_cut_every_multi_sequence_case(self, corpus):
        """The sweep variants run the cross-block merge on every case
        whose database has more than one sequence."""
        from repro.core.sweep import num_sweep_blocks
        from repro.verify.matrix import SWEEP_BLOCK_RESIDUES

        single_block = [
            c.case_id
            for c in corpus
            if len(c.db) >= 2 and num_sweep_blocks(c.db, SWEEP_BLOCK_RESIDUES) < 2
        ]
        assert not single_block

    def test_corpus_produces_alignments(self, oracle_results):
        """The corpus must exercise the full pipeline, not just phase 1."""
        reported = sum(len(r.alignments) for r in oracle_results.values())
        assert reported >= 30, "corpus lost its alignment-producing cases"


@pytest.mark.parametrize("variant", DEFAULT_VARIANTS, ids=lambda v: v.name)
class TestEngineMatrix:
    def test_variant_matches_oracle_on_all_corpus_cases(
        self, variant, corpus, oracle_results
    ):
        failures = []
        for case in corpus:
            try:
                result = variant.run_case(case)
            except Exception as exc:  # conformance: errors are divergences
                failures.append(f"{case.case_id}: raised {type(exc).__name__}: {exc}")
                continue
            detail = first_divergence(oracle_results[case.case_id], result)
            if detail is not None:
                failures.append(f"{case.case_id}: {detail}")
        assert not failures, (
            f"{variant.name} diverged on {len(failures)}/64 corpus cases:\n"
            + "\n".join(failures[:5])
        )



def test_no_two_variants_share_an_implementation():
    """Each variant runs a distinct (engine class, config, path, sanitize)
    — a second name for the same implementation only costs matrix time.
    The db-sweep paths run the reference sweep whatever engine compiled
    the queries, so they are keyed by the path alone."""
    from repro.core.statistics import SearchParams

    seen = {}
    for variant in DEFAULT_VARIANTS:
        engine = variant.make(SearchParams())
        if variant.path in ("sweep", "sweep-process"):
            key = (variant.path,)
        else:
            key = (
                type(engine),
                getattr(engine, "config", None),
                variant.path,
                variant.sanitize,
            )
        assert key not in seen, f"{variant.name} == {seen[key]}"
        seen[key] = variant.name

class TestGoldenSnapshots:
    def test_every_corpus_case_is_pinned(self, corpus):
        store = GoldenStore(GOLDEN_DIR)
        missing = [c.case_id for c in corpus if not store.path_for(c.case_id).exists()]
        assert not missing, (
            f"{len(missing)} corpus cases lack golden snapshots "
            f"(run: repro verify --corpus tests/conformance/golden --update-golden)"
        )

    def test_oracle_matches_golden(self, corpus, oracle_results):
        store = GoldenStore(GOLDEN_DIR)
        mismatches = []
        for case in corpus:
            detail = store.compare(case, oracle_results[case.case_id])
            if detail is not None:
                mismatches.append(f"{case.case_id}: {detail}")
        assert not mismatches, (
            "oracle output departed from the pinned golden snapshots — if "
            "intentional, regenerate with --update-golden and review the "
            "diff:\n" + "\n".join(mismatches[:5])
        )

    def test_no_orphan_snapshots(self, corpus):
        """Every pinned file corresponds to a live corpus case."""
        store = GoldenStore(GOLDEN_DIR)
        live = {c.case_id for c in corpus}
        orphans = [cid for cid in store.known_ids() if cid not in live]
        assert not orphans, f"stale golden files: {orphans}"
