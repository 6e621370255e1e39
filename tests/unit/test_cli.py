"""Unit tests for the command-line interface (run in-process)."""

import pytest

from repro.cli import main
from repro.io import read_fasta_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny generated database plus a query drawn from it."""
    d = tmp_path_factory.mktemp("cli")
    db_path = d / "db.fasta"
    assert (
        main(
            [
                "makedb",
                str(db_path),
                "--sequences",
                "40",
                "--mean-length",
                "140",
                "--homologs",
                "0.3",
                "--seed",
                "5",
            ]
        )
        == 0
    )
    recs = read_fasta_file(db_path)
    q_path = d / "query.fasta"
    q_path.write_text(f">q0 from db\n{recs[2].sequence[:100]}\n")
    return {"db": str(db_path), "query": str(q_path), "dir": d}


class TestMakedb:
    def test_fasta_valid(self, workspace):
        recs = read_fasta_file(workspace["db"])
        assert len(recs) == 40
        assert all(len(r.sequence) >= 20 for r in recs)

    def test_deterministic(self, workspace, tmp_path):
        other = tmp_path / "again.fasta"
        main(["makedb", str(other), "--sequences", "40", "--mean-length", "140",
              "--homologs", "0.3", "--seed", "5"])
        assert [r.sequence for r in read_fasta_file(other)] == [
            r.sequence for r in read_fasta_file(workspace["db"])
        ]


class TestSearch:
    def test_pairwise_output(self, workspace, capsys):
        rc = main(
            ["search", workspace["query"], workspace["db"],
             "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Query= q0" in out
        assert "Score =" in out  # the planted self-match must be found

    def test_tabular_output(self, workspace, capsys):
        main(
            ["search", workspace["query"], workspace["db"], "--outfmt", "tabular",
             "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines
        assert all(len(l.split("\t")) == 12 for l in lines)

    def test_literal_query(self, workspace, capsys):
        recs = read_fasta_file(workspace["db"])
        rc = main(
            ["search", recs[2].sequence[:60], workspace["db"],
             "--outfmt", "tabular"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("engine", ["fsa", "cublastp"])
    def test_engines_agree(self, workspace, capsys, engine):
        main(
            ["search", workspace["query"], workspace["db"], "--outfmt", "tabular",
             "--engine", engine, "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        if not hasattr(self, "_outputs"):
            type(self)._outputs = {}
        self._outputs[engine] = out
        if len(self._outputs) == 2:
            assert self._outputs["fsa"] == self._outputs["cublastp"]

    def test_bad_query_argument(self, workspace):
        with pytest.raises(SystemExit):
            main(["search", "not_a_file_123", workspace["db"]])

    def test_multi_query_fasta(self, workspace, capsys):
        recs = read_fasta_file(workspace["db"])
        multi = workspace["dir"] / "multi.fasta"
        multi.write_text(
            f">qa\n{recs[2].sequence[:90]}\n>qb\n{recs[5].sequence[:90]}\n"
        )
        rc = main(
            ["search", str(multi), workspace["db"], "--outfmt", "tabular",
             "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        qids = {l.split("\t")[0] for l in out.splitlines() if not l.startswith("#")}
        assert qids == {"qa", "qb"}

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_jobs_output_identical(self, workspace, capsys, jobs):
        recs = read_fasta_file(workspace["db"])
        multi = workspace["dir"] / "jobs.fasta"
        multi.write_text(
            f">j0\n{recs[2].sequence[:90]}\n"
            f">j1\n{recs[5].sequence[:90]}\n"
            f">j2\n{recs[9].sequence[:90]}\n"
        )
        rc = main(
            ["search", str(multi), workspace["db"], "--outfmt", "tabular",
             "--jobs", jobs, "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        if not hasattr(type(self), "_jobs_outputs"):
            type(self)._jobs_outputs = {}
        self._jobs_outputs[jobs] = out
        if len(self._jobs_outputs) == 2:
            assert self._jobs_outputs["1"] == self._jobs_outputs["3"]

    def test_jobs_zero_rejected(self, workspace, capsys):
        with pytest.raises(SystemExit):
            main(["search", workspace["query"], workspace["db"], "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-alignments", "-1"),
            ("--max-alignments", "0"),
            ("--effective-db-size", "-5"),
            ("--effective-db-size", "0"),
        ],
    )
    def test_out_of_range_limits_rejected(self, workspace, capsys, flag, value):
        with pytest.raises(SystemExit):
            main(["search", workspace["query"], workspace["db"], flag, value])
        assert "must be >= 1" in capsys.readouterr().err

    def test_empty_database_file(self, workspace):
        empty = workspace["dir"] / "empty.fasta"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no FASTA records") as exc:
            main(["search", "MKVLAAGIVG", str(empty)])
        assert str(exc.value) == f"error: {empty}: no FASTA records"

    def test_jobs_with_repeated_query_hits_cache(self, workspace, capsys):
        recs = read_fasta_file(workspace["db"])
        multi = workspace["dir"] / "repeat.fasta"
        seq = recs[2].sequence[:90]
        multi.write_text(f">r0\n{seq}\n>r1\n{seq}\n")
        rc = main(
            ["search", str(multi), workspace["db"], "--outfmt", "tabular",
             "--jobs", "2", "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        r0 = sorted(l.split("\t", 1)[1] for l in lines if l.startswith("r0"))
        r1 = sorted(l.split("\t", 1)[1] for l in lines if l.startswith("r1"))
        assert r0 == r1  # identical rows for the identical query


class TestProfile:
    def test_profile_sections(self, workspace, capsys):
        rc = main(
            ["profile", workspace["query"], workspace["db"],
             "--effective-db-size", "100000000"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "hit_detection" in out
        assert "pipelined end-to-end" in out
        assert "gapped_extension" in out


@pytest.mark.parametrize("command", ["search", "serve", "profile"])
def test_threads_reach_the_engine(command, workspace, monkeypatch, capsys):
    """Every engine-building command hands ``--threads`` to the engine."""
    import repro.cli as cli
    import repro.serve as serve
    from repro.engine import make_engine

    built = []

    def recording_make_engine(*args, **kwargs):
        built.append(make_engine(*args, **kwargs))
        return built[-1]

    class ServiceBuilt(Exception):
        pass

    def no_service(*args, **kwargs):
        raise ServiceBuilt

    monkeypatch.setattr(cli, "make_engine", recording_make_engine)
    monkeypatch.setattr(serve, "SearchService", no_service)
    argv = [command, workspace["query"], workspace["db"], "--threads", "2"]
    if command == "serve":
        with pytest.raises(ServiceBuilt):
            main(argv[:1] + argv[2:])
    else:
        assert main(argv) == 0
    capsys.readouterr()
    assert [engine.config.cpu_threads for engine in built] == [2]


class TestDbCommands:
    @pytest.fixture(scope="class")
    def binary_db(self, workspace):
        out = workspace["dir"] / "db.rpdb"
        assert main(["db", "build", workspace["db"], str(out)]) == 0
        return str(out)

    def test_build_reports_stats(self, workspace, capsys):
        out = workspace["dir"] / "built.rpdb"
        rc = main(["db", "build", workspace["db"], str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "40 sequences" in captured
        assert "mmap-loadable" in captured

    def test_build_output_is_binary_format(self, binary_db):
        from repro.io import storage

        assert storage.sniff_format(binary_db) == "binary"

    def test_inspect(self, binary_db, capsys):
        rc = main(["db", "inspect", binary_db, "--identifiers", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "format version  1" in out
        assert "sequences       40" in out
        assert "[0]" in out and "[2]" in out

    def test_inspect_rejects_non_database(self, workspace):
        with pytest.raises(SystemExit):
            main(["db", "inspect", workspace["db"]])  # FASTA, not a saved db

    def test_search_accepts_binary_database(self, workspace, binary_db, capsys):
        args = ["--outfmt", "tabular", "--effective-db-size", "100000000"]
        assert main(["search", workspace["query"], workspace["db"], *args]) == 0
        on_fasta = capsys.readouterr().out
        assert main(["search", workspace["query"], binary_db, *args]) == 0
        on_binary = capsys.readouterr().out
        assert on_binary == on_fasta

    def test_profile_accepts_binary_database(self, workspace, binary_db, capsys):
        rc = main(
            ["profile", workspace["query"], binary_db,
             "--effective-db-size", "100000000"]
        )
        assert rc == 0
        assert "pipelined end-to-end" in capsys.readouterr().out

    def test_npz_archive_is_not_a_database(self, workspace):
        """A pickled-identifier ``.npz`` is neither format: every command
        names the path and nothing unpickles it."""
        import numpy as np

        from repro.errors import FastaFormatError

        legacy = workspace["dir"] / "legacy.npz"
        np.savez_compressed(legacy, identifiers=np.array(["a", "b"], dtype=object))
        with pytest.raises(FastaFormatError, match="legacy.npz: not a FASTA file"):
            main(["db", "build", str(legacy), str(workspace["dir"] / "out.rpdb")])
        with pytest.raises(FastaFormatError, match="legacy.npz: not a FASTA file"):
            main(["search", workspace["query"], str(legacy)])
        with pytest.raises(SystemExit, match="legacy.npz: not a saved database"):
            main(["db", "inspect", str(legacy)])
