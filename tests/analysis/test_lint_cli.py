"""``repro lint`` CLI: the 0/1/2 exit protocol and the flag surface.

The protocol is what CI scripts key on: 0 = scanned clean, 1 = findings,
2 = the run itself failed (infrastructure error, not a lint failure).
``--selftest`` must speak the same protocol — these tests pin both.
"""

import textwrap
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

UNGUARDED = textwrap.dedent(
    """
    import threading


    class A:
        def __init__(self):
            self._a = threading.Lock()
            self.n = 0  # guarded-by: self._a

        def bump(self):
            self.n += 1
    """
)

CLEAN = textwrap.dedent(
    """
    import threading


    class A:
        def __init__(self):
            self._a = threading.Lock()
            self.n = 0  # guarded-by: self._a

        def bump(self):
            with self._a:
                self.n += 1
    """
)


@pytest.fixture()
def unguarded_file(tmp_path):
    path = tmp_path / "unguarded.py"
    path.write_text(UNGUARDED)
    return path


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


class TestExitProtocol:
    def test_clean_scan_exits_zero(self, clean_file):
        assert main(["lint", str(clean_file)]) == 0

    def test_findings_exit_one(self, unguarded_file, capsys):
        assert main(["lint", str(unguarded_file)]) == 1
        out = capsys.readouterr().out
        assert "thread-ownership" in out and "A.n" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("class Broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "broken.py" in capsys.readouterr().err

    def test_selftest_exits_zero_when_injections_are_caught(self, capsys):
        assert main(["lint", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_shipped_tree_is_concurrency_clean(self):
        assert main(["lint", "--rule", "thread-ownership", str(REPO / "src")]) == 0

    @pytest.mark.parametrize("flag", ["--concurrency", "--json"])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", flag, "src"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
