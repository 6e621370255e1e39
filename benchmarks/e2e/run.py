"""End-to-end benchmark of the search stack: five workloads, one ledger.

Two ways in, one measurement path::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last stdout line is the result
        object (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--runs K]
                                 [--no-trace] [--smoke] [--out FILE]
        the suite: each selected workload in fresh child processes (so peak
        RSS and cache warmth are per workload), every metric printed by
        name with its unit, then one traced run per workload.

    python benchmarks/e2e/run.py --compare A.json B.json
        two ``--out`` files side by side, judged against each metric's bound.

Metric names, units and bounds are read from ``BENCHMARK.json``; a run
whose metric set differs from it fails instead of printing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

DEFAULT_SEED = 20140519
#: ``setup_s`` is the median of at least this many set-ups; cheap set-ups
#: repeat until they have filled SETUP_BUDGET_S, up to MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 1.5
SMOKE_SECONDS = 0.5


def pin_allocator() -> bool:
    """Make glibc recycle freed arrays instead of returning them to the kernel.

    On this VM the kernel's cost for the same ~5.5 k minor faults per batch
    swings between 0.05 and 0.3 s of system time, a +-10 % wall noise that
    has nothing to do with the program. With the mmap threshold and trim
    threshold raised, the arrays of batch *n+1* reuse the pages of batch
    *n* — the steady state of a long-lived server — and batch walls repeat
    within 2 %. Worker processes inherit the setting through ``fork``.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_top_pad, m_mmap_threshold, m_arena_max = -1, -2, -3, -8
        return bool(
            libc.mallopt(m_mmap_threshold, 1 << 30)
            and libc.mallopt(m_trim_threshold, (1 << 31) - 1)
            and libc.mallopt(m_top_pad, 1 << 28)
            # One arena: which thread allocated no longer decides what is reused
            # (peak RSS of the serve workloads read 196, 218 or 241 MB otherwise).
            and libc.mallopt(m_arena_max, 1)
        )
    except (OSError, AttributeError):
        return False


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_info(seed: int, allocator_pinned: bool) -> dict[str, Any]:
    import numpy
    from workloads import JOBS

    return {
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "allocator_pinned": allocator_pinned,
    }


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def peak_rss_mb() -> float:
    """This process's high-water RSS plus its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def oracle_digests(workload: Any, wanted: set[str]) -> dict[str, str]:
    """Reference digests of the ``wanted`` queries: ``reference:serial-gapped``,
    one query at a time through the per-query path."""
    from repro.engine import make_engine
    from repro.io.database import SequenceDatabase
    from workloads import PARAMS, result_digest

    oracle = make_engine("reference:serial-gapped", PARAMS)
    db = SequenceDatabase.load(workload.db_path)
    return {
        qid: result_digest(oracle.run(oracle.compile(seq), db, query_id=qid))
        for qid, seq in workload.queries
        if qid in wanted
    }


def count_mismatches(outputs: Any, oracle: dict[str, str]) -> int:
    return sum(n for (qid, got), n in outputs.items() if oracle.get(qid) != got)


def emit(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """The metrics object, after checking it is exactly what is declared."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        missing, extra = sorted(set(names) - set(values)), sorted(set(values) - set(names))
        raise SystemExit(
            f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    out = {}
    for m in declared:
        print(f"{m['name']:<44} {values[m['name']]:>16.4f} {m['unit']}")
        out[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    return out


def _measured(measure: Any, recorder: Any) -> Any:
    """``measure()``, once more if a host stall invalidated the first try."""
    from workloads import InvalidRun

    mark = len(recorder.spans)
    try:
        return measure()
    except InvalidRun as exc:
        print(f"# measuring again, once: {exc}")
        del recorder.spans[mark:]
        return measure()


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Contract mode: one workload, in this process. Returns the exit code."""
    pinned = pin_allocator()
    from ledger import per_layer_metrics
    from spans import Recorder, StaleSpanTable, check_exercised, tracing
    from workloads import JOBS, WORKLOADS, InvalidRun

    spec = load_spec()
    print(f"# {name}: {json.dumps(host_info(seed, pinned), sort_keys=True)}")
    if name == "pool_sweep" and JOBS < 2:
        print("# pool_sweep: not measurable as scaling data on a 1-core host", file=sys.stderr)
    workdir = ROOT / ".bench_e2e" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    recorder = Recorder()
    setups: list[float] = []
    try:
        workload = WORKLOADS[name](seed, workdir, seconds, smoke)
        try:
            if trace:
                # One traced set-up (the database is opened there), then
                # untraced and traced operations sharing the window.
                recorder.stage = "setup"
                with tracing(recorder):
                    workload.setup()
                recorder.stage = "measure"
                passes = list(
                    _measured(lambda: workload.measure_traced(seconds, recorder), recorder)
                )
                check_exercised(recorder, name)
            else:
                budget = 0.0 if smoke else SETUP_BUDGET_S
                while len(setups) < MIN_SETUPS or (
                    sum(setups) < budget and len(setups) < MAX_SETUPS
                ):
                    if setups:
                        workload.teardown()
                    t0 = time.perf_counter()
                    workload.setup()
                    setups.append(time.perf_counter() - t0)
                cpu0 = cpu_seconds()
                passes = [_measured(lambda: workload.measure(seconds), recorder)]
            store_stats = workload.store_stats()
        finally:
            workload.teardown()
        # Read after teardown, so a pool kept across batches is reaped and
        # counted, and before the oracle, which must not raise the peak.
        cpu_s, rss_mb = cpu_seconds(), peak_rss_mb()
        t0 = time.perf_counter()
        oracle = oracle_digests(workload, {qid for p in passes for qid, _ in p.outputs})
        failed = sum(p.errors + count_mismatches(p.outputs, oracle) for p in passes)
        verify_s = time.perf_counter() - t0
        attempted = sum(p.attempted for p in passes)
        if trace:
            untraced, traced = passes
            values = per_layer_metrics(name, recorder, traced, untraced, store_stats, verify_s)
            metrics = emit(values, spec["per_layer"])
        else:
            (measured,) = passes
            print(f"# verify_s {verify_s:.3f}; operations {measured.operations}")
            values = {
                "latency_p50_ms": measured.latency_p50_ms,
                "queries_per_s": measured.queries_per_s,
                "cpu_ms_per_query": measured.cpu_ms_per_query
                or (cpu_s - cpu0) * 1e3 / measured.queries,
                "peak_rss_mb": rss_mb,
                "setup_s": statistics.median(setups),
            }
            metrics = emit(values, spec["end_to_end"])
    except (InvalidRun, StaleSpanTable) as exc:
        print(f"invalid run, nothing published: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    print(f"# attempted {attempted}, failed {failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- the suite ---------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(f"  {line}\n" for line in lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else float(args.seconds or spec["run_seconds"])
    record: dict[str, Any] = {
        "host": host_info(args.seed, pin_allocator()), "seconds": seconds, "workloads": {},
    }
    ok = True
    for name in names:
        if name == "pool_sweep" and record["host"]["jobs"] < 2 and not args.smoke:
            print(f"== {name}: not_measurable (nproc < 2), no numbers published")
            record["workloads"][name] = {"not_measurable": "nproc < 2"}
            continue
        entry: dict[str, Any] = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        runs = [(0, k) for k in range(args.runs)] + ([] if args.no_trace else [(1, 0)])
        for trace, k in runs:
            print(f"== {name} ({'traced' if trace else f'run {k + 1}/{args.runs}'})")
            result = _child(name, args.seed, seconds, trace, args.smoke)
            ok = ok and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, cell in result["metrics"].items():
                kind = entry["per_layer" if trace else "end_to_end"]
                kind.setdefault(metric, {"unit": cell["unit"], "values": []})["values"].append(
                    cell["value"]
                )
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        print(f"== {name}: failed_share {entry['failed_share']:.4f}")
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one workload in-process")
    parser.add_argument("--runs", type=int, default=1, help="end-to-end runs per workload (suite)")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 0.5 s windows")
    parser.add_argument("--out", help="suite: write the record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, load_spec())
    if args.trace is None:
        return run_suite(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        parser.error("--trace needs exactly one --workload and --seconds")
    return run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
