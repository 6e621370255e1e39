"""The net has no holes: an injected defect must be caught and minimised.

The acceptance bar for the verification subsystem itself — a deliberate
one-point scoring bug (and a dropped-alignment bug) must be detected by
the differential runner well within 200 generated cases, and the
resulting reproducer must be minimised and independently replayable.
"""

import pytest

from repro.core.statistics import SearchParams
from repro.engine import make_engine
from repro.io.database import SequenceDatabase
from repro.verify import (
    BuggedEngine,
    BuggedVariant,
    DifferentialRunner,
    generate_cases,
    results_equal,
)

SELFTEST_SEED = 987654321


@pytest.fixture(scope="module")
def report():
    bugged = [
        BuggedVariant("bugged-score", "cublastp", score_delta=1),
        BuggedVariant("bugged-drop", "reference", drop_last=True, score_delta=0),
    ]
    cases = generate_cases(24, SELFTEST_SEED)
    return DifferentialRunner(bugged).run(cases)


class TestBugInjection:
    def test_both_bugs_caught_within_budget(self, report):
        caught = {d.variant for d in report.divergences}
        assert {"bugged-score", "bugged-drop"} <= caught
        assert report.cases_run <= 200  # the acceptance budget, with margin

    def test_score_bug_detail_names_the_field(self, report):
        d = next(x for x in report.divergences if x.variant == "bugged-score")
        assert "score" in d.detail

    def test_drop_bug_detail_names_the_count(self, report):
        d = next(x for x in report.divergences if x.variant == "bugged-drop")
        assert "count differs" in d.detail

    def test_reproducer_is_minimised(self, report):
        rep = next(
            x.reproducer for x in report.divergences if x.reproducer is not None
        )
        assert rep.probes > 0
        assert len(rep.db_sequences) >= 1
        assert len(rep.query) >= 3
        # The describe() block must carry the replay coordinates.
        text = rep.describe()
        assert str(rep.seed) in text
        assert rep.family in text
        assert "replay" in text

    def test_reproducer_replays_standalone(self, report):
        """The minimised (query, db) pair still diverges when rebuilt
        from nothing but the reproducer's recorded strings."""
        rep = next(
            x.reproducer
            for x in report.divergences
            if x.reproducer is not None and x.variant == "bugged-score"
        )
        db = SequenceDatabase.from_strings(rep.db_sequences)
        params = rep.params or SearchParams()
        oracle = make_engine("reference", params)
        good = oracle.run(oracle.compile(rep.query), db)
        bugged = BuggedEngine(make_engine("cublastp", params), score_delta=1)
        bad = bugged.run(bugged.compile(rep.query), db)
        assert not results_equal(good, bad)

    def test_one_reproducer_per_variant(self, report):
        """Shrinking happens once per diverging variant (first case), not
        per divergence — later cases are the same root cause."""
        shrunk = [d for d in report.divergences if d.reproducer is not None]
        assert len(shrunk) == 2
        assert {d.variant for d in shrunk} == {"bugged-score", "bugged-drop"}


def test_a_variant_named_like_the_oracle_is_still_checked():
    """``repro verify --engines reference`` puts the production reference
    pipeline under test: its divergence is reported and minimised, not
    filed as an oracle error because the variant shares the oracle's
    name."""
    bugged = BuggedVariant("reference", "reference", score_delta=1)
    report = DifferentialRunner([bugged]).run(generate_cases(4, 7))
    assert not report.oracle_errors
    assert report.divergences
    assert {d.variant for d in report.divergences} == {"reference"}
    assert report.divergences[0].reproducer is not None


def test_a_wrong_subject_name_is_a_divergence(tiny_query, tiny_db, tiny_params):
    """Two results that differ only in an alignment's subject identifier
    are not conformant. The rendered canonical text (golden payload,
    digests) does not carry the identifier and stays the same."""
    from dataclasses import replace

    from repro.verify.canonical import canonical_text, first_divergence

    engine = make_engine("reference", tiny_params)
    good = engine.run(engine.compile(tiny_query), tiny_db)
    assert good.alignments
    bad = replace(good, alignments=list(good.alignments))
    bad.alignments[0] = replace(bad.alignments[0], subject_identifier="not-the-subject")
    assert not results_equal(good, bad)
    assert "subject_identifier" in first_divergence(good, bad)
    assert canonical_text(good) == canonical_text(bad)
