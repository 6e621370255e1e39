"""Fig. 13: strong scaling of gapped extension + traceback on the CPU.

Paper series: speedup of the multithreaded CPU phases at 1, 2, 4 threads
(roughly 1.0 / 1.8 / 2.8-3.3 — strong but sub-linear, capped by the
biggest DP boxes and thread overhead).
"""

from common import print_table

from repro.core import BlastpPipeline
from repro.core.sweep import finish_phases, sweep_extensions
from repro.perfmodel import cpu_phase_times


def compute_scaling(lab):
    db = lab.db("swissprot_rich")
    pipe = BlastpPipeline(lab.query("swissprot_rich", "query517"), lab.params("swissprot_rich"))
    cutoffs = pipe.cutoffs(db)
    [(exts, hits, seeds)] = sweep_extensions([pipe], db, [cutoffs])
    result, _, gapped = finish_phases(pipe, db, exts, hits, seeds, cutoffs)
    times = {}
    for threads in (1, 2, 4):
        r = cpu_phase_times(gapped, cutoffs.report_cutoff, threads)
        times[threads] = {"gapped": r.gapped_ms, "traceback": r.traceback_ms, "total": r.total_ms}
    return times


def test_fig13_cpu_scaling(benchmark, lab):
    times = benchmark.pedantic(compute_scaling, args=(lab,), rounds=1, iterations=1)

    base = times[1]["total"]
    rows = [
        [t, v["gapped"], v["traceback"], v["total"], base / v["total"]]
        for t, v in times.items()
    ]
    print_table(
        "Fig. 13 — Gapped extension + traceback strong scaling (swissprot_rich, query517)",
        ["threads", "gapped ms", "traceback ms", "total ms", "speedup"],
        rows,
    )

    s2 = base / times[2]["total"]
    s4 = base / times[4]["total"]
    # Strong scaling: monotone, meaningfully above 1, below ideal.
    assert 1.2 < s2 <= 2.05
    assert s2 < s4 <= 4.05
    assert s4 > 1.6

    benchmark.extra_info["speedups"] = {"2": round(s2, 3), "4": round(s4, 3)}
