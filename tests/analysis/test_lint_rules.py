"""reprolint: every rule fires on its fixture, and the shipped tree is clean.

Each file in ``_fixtures/`` violates exactly one rule; running the *full*
rule set over it must report that rule and nothing else (cross-firing
would make findings unactionable). The inverse property — ``repro lint``
exits 0 on ``src/`` — is asserted here too, so a rule that starts
false-positiving on the real tree fails this suite, not just CI. So is
the suppression audit: every ``reprolint: disable`` comment in the
linted roots names a live rule that really fires on its line.
"""

import io
import tokenize
from pathlib import Path

import pytest

from repro.analysis import ModuleSource, Rule, iter_python_files, run_lint
from repro.analysis.base import (
    _FILE_SUPPRESS,
    _FILE_SUPPRESS_WINDOW,
    _INLINE_SUPPRESS,
    check_module,
)
from repro.analysis.rules import ALL_RULES, RULE_NAMES, rule_by_name
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "_fixtures"

#: The roots CI lints.
LINTED_ROOTS = ("src", "tests", "benchmarks", "examples")

#: fixture file -> the one rule it must trigger.
FIXTURE_RULES = {
    "rng_violation.py": "no-unseeded-rng",
    "wallclock_violation.py": "no-wall-clock-in-kernels",
    "picklable_violation.py": "picklable-spec-fields",
    "record_loop_violation.py": "no-per-record-loop-in-phase",
    "thread_ownership_violation.py": "thread-ownership",
}


class TestRuleRegistry:
    def test_every_rule_has_a_fixture(self):
        assert set(FIXTURE_RULES.values()) == set(RULE_NAMES)

    def test_rules_satisfy_the_protocol(self):
        for rule in ALL_RULES:
            assert isinstance(rule, Rule)
            assert rule.name == rule.name.lower()
            assert rule.description

    def test_rule_by_name_rejects_unknown(self):
        with pytest.raises(KeyError):
            rule_by_name("no-such-rule")


@pytest.mark.parametrize(("filename", "rule_name"), sorted(FIXTURE_RULES.items()))
class TestFixtures:
    def test_fixture_triggers_exactly_its_rule(self, filename, rule_name):
        module = ModuleSource.parse(FIXTURES / filename)
        fired = {f.rule for f in check_module(module, ALL_RULES)}
        assert fired == {rule_name}, (
            f"{filename} should trigger only {rule_name!r}, got {sorted(fired)}"
        )

    def test_findings_carry_locations(self, filename, rule_name):
        module = ModuleSource.parse(FIXTURES / filename)
        for finding in check_module(module, ALL_RULES):
            assert finding.line >= 1
            assert filename in finding.path
            assert finding.message


class TestPerQueryHitLoop:
    """The Q x B un-batching of phase 2 must not creep back."""

    def test_flags_hit_loops_but_not_the_block_boundary_split(self):
        module = ModuleSource.parse(FIXTURES / "record_loop_violation.py")
        rule = rule_by_name("no-per-record-loop-in-phase")
        per_query = [f for f in check_module(module, [rule]) if "per-query loop" in f.message]
        # Both loops of the fixture's sweep_extend_block, and nothing in its
        # phase_ungapped_tagged (PSSM stacking, the extension-stream split).
        assert len(per_query) == 2
        assert all("'sweep_extend_block'" in f.message for f in per_query)
        assert {f.message.split("'")[1] for f in per_query} == {"keys", "tagged"}


def _suppression_comments(module):
    """``(line, rules, whole_file)`` for every real disable comment.

    Tokenized, so a marker quoted inside a string (docstring examples,
    inline test sources) is not a suppression.
    """
    tokens = tokenize.generate_tokens(io.StringIO(module.text).readline)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        for pattern, whole_file in ((_INLINE_SUPPRESS, False), (_FILE_SUPPRESS, True)):
            m = pattern.search(tok.string)
            if m:
                rules = [r.strip() for r in m.group(1).split(",")]
                yield tok.start[0], rules, whole_file


class TestSuppression:
    def test_inline_disable_drops_the_finding(self, tmp_path):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=no-unseeded-rng\n"
        )
        findings, errors = run_lint([target], ALL_RULES)
        assert not errors
        assert findings == []

    def test_file_level_disable(self, tmp_path):
        target = tmp_path / "filewide.py"
        target.write_text(
            "# reprolint: disable-file=no-unseeded-rng\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        findings, _ = run_lint([target], ALL_RULES)
        assert findings == []

    def test_unrelated_rule_in_disable_list_does_not_mask(self, tmp_path):
        target = tmp_path / "wrong_rule.py"
        target.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=thread-ownership\n"
        )
        findings, _ = run_lint([target], ALL_RULES)
        assert [f.rule for f in findings] == ["no-unseeded-rng"]

    def test_every_suppression_names_a_rule_that_fires_there(self):
        roots = [REPO / root for root in LINTED_ROOTS if (REPO / root).exists()]
        stale = []
        count = 0
        for path in iter_python_files(roots):
            module = ModuleSource.parse(path)
            for line, rules, whole_file in _suppression_comments(module):
                for name in rules:
                    count += 1
                    where = f"{path.relative_to(REPO)}:{line} disable={name}"
                    if name not in RULE_NAMES:
                        stale.append(f"{where}: no such rule")
                        continue
                    if whole_file and line > _FILE_SUPPRESS_WINDOW:
                        stale.append(f"{where}: past the disable-file window")
                        continue
                    fired = {f.line for f in rule_by_name(name).check(module)}
                    if not (fired if whole_file else line in fired):
                        stale.append(f"{where}: suppresses nothing")
        assert stale == [], "dead suppressions:\n" + "\n".join(stale)
        assert count == 4  # three thread-ownership, one no-per-record-loop-in-phase


class TestTreeIsClean:
    def test_src_tree_has_no_findings(self):
        findings, errors = run_lint([REPO / "src"], ALL_RULES)
        assert not errors
        assert findings == [], "shipped tree must lint clean:\n" + "\n".join(
            str(f) for f in findings
        )

    def test_walker_never_scans_fixtures(self):
        scanned = list(iter_python_files([REPO / "tests"]))
        assert not any("_fixtures" in str(p) for p in scanned)
        # ...but explicit file arguments always pass through.
        explicit = list(iter_python_files([FIXTURES / "rng_violation.py"]))
        assert len(explicit) == 1


class TestCli:
    def test_clean_tree_exits_zero(self):
        assert main(["lint", str(REPO / "src")]) == 0

    def test_findings_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "rng_violation.py")])
        assert code == 1
        assert "no-unseeded-rng" in capsys.readouterr().out

    def test_rule_filter(self):
        # The rng fixture is clean under an unrelated rule.
        assert (
            main(["lint", "--rule", "thread-ownership", str(FIXTURES / "rng_violation.py")])
            == 0
        )

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "no-such-rule", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self):
        assert main(["lint", "definitely/not/here"]) == 2

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "broken.py" in capsys.readouterr().err

    def test_list_exits_zero_and_names_all_rules(self, capsys):
        assert main(["lint", "--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "no-unseeded-rng",
            "no-wall-clock-in-kernels",
            "picklable-spec-fields",
            "no-per-record-loop-in-phase",
            "thread-ownership",
        ]
