"""Harness tests: ``PYTHONPATH=src python -m pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths`` is ``tests``); they check the ruler, not
the program.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from benchstats import percentile, spread  # noqa: E402
from compare import verdict  # noqa: E402
from inputs import Seeds, make_database, make_domains, make_queries, poisson_schedule  # noqa: E402
from run import count_mismatches, load_spec  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SPEC = load_spec()


class TestPercentile:
    def test_nearest_rank_uses_ceil(self):
        # round(q/100*n + 0.5) is half-even: it would give 2 and 4 here.
        assert percentile([1, 2], 50) == 1
        assert percentile([1, 2, 3, 4, 5, 6], 50) == 3
        assert percentile(list(range(1, 11)), 90) == 9
        assert percentile(list(range(1, 11)), 99) == 10
        assert percentile([7], 50) == 7

    def test_is_an_observed_sample_and_order_free(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 75) == 5.0
        assert values == [5.0, 1.0, 9.0, 3.0]

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_spread_is_iqr_over_median(self):
        assert spread([10.0] * 8) == 0.0
        assert spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(4 / 4)


class TestInputs:
    def test_same_seed_same_inputs(self):
        a, b = Seeds.from_seed(7), Seeds.from_seed(7)
        db_a = make_database(a.database, make_domains(a.domains), 40, 120, 0.25)
        db_b = make_database(b.database, make_domains(b.domains), 40, 120, 0.25)
        assert np.array_equal(db_a.codes, db_b.codes)
        assert np.array_equal(db_a.offsets, db_b.offsets)
        qa = make_queries(a.queries, make_domains(a.domains), [80, 127, 517])
        qb = make_queries(b.queries, make_domains(b.domains), [80, 127, 517])
        assert qa == qb
        assert np.array_equal(
            poisson_schedule(a.schedule, 28.0, 50), poisson_schedule(b.schedule, 28.0, 50)
        )

    def test_other_seed_other_content_same_shape(self):
        a, b = Seeds.from_seed(7), Seeds.from_seed(8)
        db_a = make_database(a.database, make_domains(a.domains), 40, 120, 0.25)
        db_b = make_database(b.database, make_domains(b.domains), 40, 120, 0.25)
        assert not np.array_equal(db_a.codes, db_b.codes)
        # Stratified: the work-determining shape does not move with the seed.
        assert sorted(db_a.lengths) == sorted(db_b.lengths)
        sched_a = poisson_schedule(a.schedule, 28.0, 50)
        sched_b = poisson_schedule(b.schedule, 28.0, 50)
        assert not np.array_equal(sched_a, sched_b)
        assert sched_a[-1] == pytest.approx(sched_b[-1])
        assert np.allclose(
            np.sort(np.diff(sched_a, prepend=0)), np.sort(np.diff(sched_b, prepend=0))
        )

    def test_schedule_is_poisson_like(self):
        sched = poisson_schedule(Seeds.from_seed(3).schedule, 20.0, 400)
        gaps = np.diff(sched, prepend=0)
        assert (gaps > 0).all()
        assert gaps.mean() == pytest.approx(1 / 20.0, rel=0.02)
        assert np.mean(gaps < 0.02) == pytest.approx(1 - np.exp(-0.4), abs=0.01)

    def test_queries_are_distinct_and_sized(self):
        seeds = Seeds.from_seed(1)
        queries = make_queries(seeds.queries, make_domains(seeds.domains), [80, 100] * 20)
        assert len({seq for _, seq in queries}) == 40
        assert [len(seq) for _, seq in queries] == [80, 100] * 20


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        tree = [
            spans.Span("a.outer", 0.0, 1.0),
            spans.Span("b.mid", 0.1, 0.7, parent=0),
            spans.Span("c.leaf", 0.2, 0.5, parent=1),
            spans.Span("c.leaf", 0.8, 0.9, parent=0),
        ]
        own = spans.self_times(tree)
        assert own == pytest.approx([300.0, 300.0, 300.0, 100.0])
        assert sum(own) == pytest.approx(tree[0].ms)

    @pytest.fixture
    def fake(self):
        module = types.ModuleType("e2e_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return module.inner(x) * 2

        def stream(n):
            yield from range(n)

        module.inner, module.outer, module.stream = inner, outer, stream
        sys.modules[module.__name__] = module
        yield module
        del sys.modules[module.__name__]

    def test_install_records_nesting_and_uninstall_restores(self, fake):
        probes = (
            spans.Probe("fake.layer.outer", fake.__name__, "outer", ("w",)),
            spans.Probe(
                "fake.layer.inner", fake.__name__, "inner", ("w",),
                after=lambda out: {"out": out},
            ),
            spans.Probe(
                "fake.layer.stream", fake.__name__, "stream", ("w",),
                each=lambda item: {"items": 1}, generator=True,
            ),
        )
        originals = (fake.outer, fake.inner, fake.stream)
        recorder = spans.Recorder()
        with spans.tracing(recorder, probes):
            assert fake.outer(1) == 4
            assert list(fake.stream(3)) == [0, 1, 2]
        assert (fake.outer, fake.inner, fake.stream) == originals
        assert fake.outer(1) == 4 and len(recorder.spans) == 3
        outer, inner, stream = recorder.spans
        assert inner.parent == 0 and outer.parent is None
        assert inner.attrs == {"out": 2} and stream.attrs == {"items": 3}
        assert inner.layer == "fake.layer"
        spans.check_exercised(recorder, "w", probes)

    def test_missing_callable_is_stale_and_installs_nothing(self, fake):
        probes = (
            spans.Probe("fake.layer.outer", fake.__name__, "outer", ("w",)),
            spans.Probe("fake.layer.gone", fake.__name__, "renamed_away", ("w",)),
        )
        original = fake.outer
        with pytest.raises(spans.StaleSpanTable, match="span table stale: fake.layer.gone"):
            spans.install(spans.Recorder(), probes)
        assert fake.outer is original

    def test_uncalled_probe_is_stale_only_where_declared(self, fake):
        probes = (spans.Probe("fake.layer.outer", fake.__name__, "outer", ("w",)),)
        recorder = spans.Recorder()
        spans.check_exercised(recorder, "other_workload", probes)
        with pytest.raises(spans.StaleSpanTable, match="no call on w"):
            spans.check_exercised(recorder, "w", probes)

    def test_the_real_table_resolves(self):
        # Every declared callable exists at this commit, and comes back out.
        from repro.core import two_hit

        original = two_hit.seed_mask
        with spans.tracing(spans.Recorder()):
            assert two_hit.seed_mask is not original
        assert two_hit.seed_mask is original
        declared = {w for probe in spans.PROBES for w in probe.workloads}
        assert declared == set(WORKLOADS)


class TestCorrectnessCheck:
    def test_corrupted_payload_counts_as_failed(self):
        payload = b'{"alignments":[],"canonical_version":1}'
        oracle = {"q0": digest(payload), "q1": digest(payload)}
        outputs = Counter({("q0", digest(payload)): 5, ("q1", digest(payload[:-1] + b" }")): 2})
        assert count_mismatches(outputs, oracle) == 2
        assert count_mismatches(Counter({("q0", digest(payload)): 5}), oracle) == 0
        # A result for a query the oracle never saw cannot pass.
        assert count_mismatches(Counter({("q9", digest(payload)): 1}), oracle) == 1


class TestCompare:
    def test_single_runs_judged_against_the_bound(self):
        assert verdict([100.0], [109.0], "lower", 0.10) == "pass"
        assert verdict([100.0], [112.0], "lower", 0.10) == "regression"
        assert verdict([100.0], [89.0], "higher", 0.10) == "regression"
        assert verdict([100.0], [130.0], "higher", 0.10) == "pass"

    def test_wide_spread_is_unresolved_unless_b_wins_every_run(self):
        noisy = [80.0, 90.0, 100.0, 110.0, 120.0]
        assert verdict(noisy, [85.0, 95.0, 105.0, 115.0, 125.0], "lower", 0.10) == "unresolved"
        assert verdict(noisy, [50.0, 55.0, 60.0, 65.0, 70.0], "lower", 0.10) == "pass"


class TestBenchmarkJson:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_shape(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert SPEC["paths"] == ["benchmarks/e2e"]
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
        assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        assert all(self.NAME.match(n) for n in names)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
        assert 1 <= len(SPEC["per_layer"]) <= 128

    def test_layers_are_repro_modules(self):
        import importlib

        for metric in SPEC["per_layer"]:
            layer = metric["name"].rsplit(".", 1)[0]
            if layer != "bench":
                importlib.import_module(f"repro.{layer}")


def _run(*args: str, cwd: Path = ROOT, timeout: int = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


class TestSmoke:
    def test_all_workloads_print_exactly_the_declared_metrics(self, tmp_path):
        out = tmp_path / "smoke.json"
        done = _run(str(HERE / "run.py"), "--smoke", "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        record = json.loads(out.read_text())
        assert sorted(record["workloads"]) == sorted(WORKLOADS)
        assert {"nproc", "jobs", "platform", "python", "numpy", "seed"} <= set(record["host"])
        for name, entry in record["workloads"].items():
            assert entry["failed"] == 0 and entry["attempted"] >= 1, name
            for kind in ("end_to_end", "per_layer"):
                declared = {m["name"]: m["unit"] for m in SPEC[kind]}
                assert {m: c["unit"] for m, c in entry[kind].items()} == declared, (name, kind)
                for metric in declared:  # printed by name with its unit
                    assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {declared[metric]}$",
                                     done.stdout, re.M), metric
            assert all(c["values"][0] > 0 for c in entry["end_to_end"].values()), name

    def test_contract_line_and_seed_determinism(self):
        args = (str(HERE / "run.py"), "--workload", "sweep_rich", "--seconds", "0.2",
                "--trace", "1", "--smoke", "--seed")
        first, second = _run(*args, "5"), _run(*args, "5")
        assert first.returncode == 0, first.stdout + first.stderr
        a, b = (json.loads(r.stdout.strip().splitlines()[-1]) for r in (first, second))
        assert set(a) == {"correct", "attempted", "failed", "metrics"} and a["correct"]
        # Counts made by the program repeat exactly for one seed.
        for metric in ("seeding.multi_query.hits", "core.two_hit.seeds", "core.gapped.triggers"):
            assert a["metrics"][metric]["value"] == b["metrics"][metric]["value"] > 0

    def test_refuses_to_run_without_the_program(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        import shutil

        shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        done = _run("benchmarks/e2e/run.py", "--workload", "http_cached", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
        assert done.returncode != 0
        assert not done.stdout.strip().endswith("}")
