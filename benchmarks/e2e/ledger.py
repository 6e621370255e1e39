"""The per-layer ledger: spans and public counters turned into named metrics.

Conventions. A layer is a ``repro`` module name. ``*_ms`` metrics are busy
time summed over calls and, like the counts, divided by the operations of
the traced pass (a batch, or a request), so they do not move with how many
operations fitted in the window; ``io.*`` metrics are whole-run totals,
because the database is opened during set-up. Self time is a span minus
what its child spans cover. A layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any

from benchstats import percentile
from spans import Recorder, Span, self_times
from workloads import JOBS, InvalidRun, Pass

#: Glue, not work: its self time is what ``bench.unattributed_share`` reports.
GLUE_LAYER = "engine.executor"


class _Spans:
    """Sums over the measured spans of one traced pass."""

    def __init__(self, recorder: Recorder, operations: int) -> None:
        self.all = recorder.spans
        own = self_times(self.all)
        self.measured = [(s, own[i]) for i, s in enumerate(self.all) if s.stage == "measure"]
        self.operations = max(1, operations)

    def of(self, name: str) -> list[Span]:
        return [s for s, _ in self.measured if s.name == name]

    def ms(self, name: str) -> float:
        return sum(s.ms for s in self.of(name)) / self.operations

    def self_ms(self, name: str) -> float:
        return sum(own for s, own in self.measured if s.name == name) / self.operations

    def calls(self, name: str) -> float:
        return len(self.of(name)) / self.operations

    def attr(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.of(name)) / self.operations

    def whole_run_ms(self, name: str) -> float:
        return sum(s.ms for s in self.all if s.name == name)

    def whole_run_calls(self, name: str) -> int:
        return sum(1 for s in self.all if s.name == name)

    def attributed_ms(self) -> float:
        """Self time of every measured span outside the glue layer (total ms)."""
        return sum(own for s, own in self.measured if s.layer != GLUE_LAYER)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _coalescer(prefix: str, delta: list[int], sizes: list[int]) -> dict[str, float]:
    batches, emitted, size_closes = delta
    return {
        f"serve.coalescer.{prefix}_mean_batch_size": _ratio(emitted, batches),
        f"serve.coalescer.{prefix}_batch_size_p90": percentile(sizes, 90) if sizes else 0.0,
        f"serve.coalescer.{prefix}_size_close_share": _ratio(size_closes, batches),
    }


def _serve_open_rows(spans: _Spans, traced: Pass) -> dict[str, float]:
    """Queue wait / execute split and per-phase batch shapes of ``serve_open``."""
    detail = traced.detail
    streams = spans.of("engine.executor.stream")
    stream_of = {qid: s for s in streams for qid in s.attrs["query_ids"]}
    waits, accounted = [], 0.0
    for request in detail["requests"]:
        stream = stream_of.get(request.query_id)
        if stream is None:
            raise InvalidRun(f"serve_open: no executor.stream span carries {request.query_id}")
        if request.phase == "open":  # the burst's waits are its own making
            waits.append((stream.start - request.submitted) * 1e3)
            accounted += (stream.end - request.due) * 1e3
    sizes = {
        phase: [s.attrs["queries"] for s in streams if f"-{phase}-" in s.attrs["query_ids"][0]]
        for phase in ("open", "drain")
    }
    return {
        "serve.service.queue_wait_p50_ms": percentile(waits, 50),
        "serve.service.queue_wait_p90_ms": percentile(waits, 90),
        "serve.service.execute_p50_ms": percentile([s.ms for s in streams], 50),
        "serve.service.shed": detail["shed"],
        "serve.service.generator_lag_p99_ms": detail["generator_lag_p99_ms"],
        "serve.coalescer.batches": detail["open"][0] + detail["drain"][0],
        **_coalescer("open", detail["open"], sizes["open"]),
        **_coalescer("drain", detail["drain"], sizes["drain"]),
        # What queue wait + execute leave unexplained of phase A's latency:
        # serialisation, the cache put and the future's resolution.
        "bench.unattributed_share": 1.0 - _ratio(accounted, traced.latency_sum_ms),
    }


#: The ``serve_open``-only rows, as every other workload reports them.
_NOT_SERVE_OPEN: dict[str, float] = {
    **dict.fromkeys(
        (
            "serve.service.queue_wait_p50_ms", "serve.service.queue_wait_p90_ms",
            "serve.service.execute_p50_ms", "serve.service.shed",
            "serve.service.generator_lag_p99_ms", "serve.coalescer.batches",
        ),
        0.0,
    ),
    **_coalescer("open", [0, 0, 0], []),
    **_coalescer("drain", [0, 0, 0], []),
}


def per_layer_metrics(
    workload: str,
    recorder: Recorder,
    traced: Pass,
    untraced: Pass,
    store_stats: Any,
    verify_s: float,
) -> dict[str, float]:
    """Every per-layer metric, by name (units live in ``BENCHMARK.json``)."""
    spans = _Spans(recorder, traced.operations)
    hits = spans.attr("seeding.multi_query.sweep_block", "hits")
    seeds = spans.attr("core.two_hit.select", "seeds")
    kept = spans.attr("core.two_hit.select", "kept")
    run_wait = spans.ms("engine.procpool.run")
    worker_busy = spans.attr("engine.procpool.run", "worker_busy_ms")
    submit_p50 = percentile([s.ms for s in spans.of("serve.service.submit")] or [0.0], 50)
    detail = traced.detail
    out: dict[str, float] = {
        "engine.compiled.compile_ms": spans.ms("engine.compiled.compile"),
        "engine.compiled.calls": spans.calls("engine.compiled.compile"),
        "seeding.multi_query.index_build_ms": spans.ms("seeding.multi_query.index_build"),
        "seeding.multi_query.sweep_block_ms": spans.ms("seeding.multi_query.sweep_block"),
        "seeding.multi_query.untag_ms": spans.ms("seeding.multi_query.untag"),
        "seeding.multi_query.untag_calls": spans.calls("seeding.multi_query.untag"),
        "seeding.multi_query.hits": hits,
        "core.two_hit.seed_mask_ms": spans.ms("core.two_hit.seed_mask"),
        "core.two_hit.seed_mask_calls": spans.calls("core.two_hit.seed_mask"),
        "core.two_hit.select_self_ms": spans.self_ms("core.two_hit.select"),
        "core.two_hit.covered_mask_ms": spans.ms("core.two_hit.covered_mask"),
        "core.two_hit.seeds": seeds,
        "core.two_hit.seed_survival": _ratio(seeds, hits),
        "core.ungapped.extend_ms": spans.ms("core.ungapped.extend"),
        "core.ungapped.extend_calls": spans.calls("core.ungapped.extend"),
        "core.ungapped.extensions": kept,
        "core.ungapped.kept_share": _ratio(kept, seeds),
        "core.gapped.phase_ms": spans.ms("core.gapped.phase"),
        "core.gapped.batch_extend_ms": spans.ms("core.gapped.batch_extend"),
        "core.gapped.waves": spans.calls("core.gapped.batch_extend"),
        "core.gapped.triggers": spans.attr("core.gapped.phase", "triggers"),
        "core.gapped.extensions": spans.attr("core.gapped.phase", "extensions"),
        "core.traceback.phase_ms": spans.ms("core.traceback.phase"),
        "core.traceback.batch_align_ms": spans.ms("core.traceback.batch_align"),
        "core.traceback.alignments": spans.attr("core.traceback.phase", "alignments"),
        "core.sweep.self_ms": spans.self_ms("core.sweep.search_batch")
        + spans.self_ms("core.sweep.finish"),
        "core.sweep.blocks": spans.calls("seeding.multi_query.sweep_block")
        + spans.attr("engine.procpool.run", "tasks"),
        "engine.executor.run_ms": spans.ms("engine.executor.stream"),
        "engine.executor.self_ms": spans.self_ms("engine.executor.stream"),
        "engine.procpool.spawn_ms": spans.ms("engine.procpool.spawn"),
        "engine.procpool.pools_started": spans.calls("engine.procpool.pool_init"),
        "engine.procpool.run_wait_ms": run_wait,
        "engine.procpool.shutdown_ms": spans.ms("engine.procpool.shutdown"),
        "engine.procpool.worker_busy_ms": worker_busy,
        "engine.procpool.parallel_efficiency": _ratio(worker_busy, JOBS * run_wait),
        "engine.procpool.tasks": spans.attr("engine.procpool.run", "tasks"),
        "io.storage.load_ms": spans.whole_run_ms("io.storage.load"),
        "io.store.open_calls": spans.whole_run_calls("io.store.open"),
        "io.store.hit_rate": store_stats.hit_rate,
        "io.store.blocks_ms": spans.ms("io.store.blocks"),
        "verify.canonical.serialise_ms": spans.ms("verify.canonical.result_to_payload")
        + spans.ms("verify.canonical.payload_to_bytes")
        + spans.ms("verify.canonical.extensions_from_payload"),
        "verify.canonical.payload_bytes": spans.attr("verify.canonical.payload_to_bytes", "bytes"),
        "serve.cache.get_ms": spans.ms("serve.cache.get"),
        "serve.cache.put_ms": spans.ms("serve.cache.put"),
        "serve.cache.hit_rate": detail.get("cache_hit_rate", 0.0),
        "serve.service.latency_p90_ms": detail.get("latency_p90_ms", 0.0),
        "serve.service.latency_p99_ms": detail.get("latency_p99_ms", 0.0),
        "serve.service.submit_p50_ms": submit_p50,
        "serve.http.overhead_p50_ms": (
            traced.latency_p50_ms - submit_p50 if workload == "http_cached" else 0.0
        ),
        "serve.http.bytes_out": _ratio(detail.get("bytes_out", 0), traced.operations),
        # Time inside no layer's span: executor glue and the harness's own call.
        "bench.unattributed_share": 1.0 - _ratio(spans.attributed_ms(), traced.latency_sum_ms),
        "bench.trace_overhead_share": traced.latency_p50_ms / untraced.latency_p50_ms - 1.0,
        "bench.verify_s": verify_s,
    }
    out.update(_serve_open_rows(spans, traced) if workload == "serve_open" else _NOT_SERVE_OPEN)
    if workload == "http_cached":
        # The engine must be off the path: every timed request is a cache hit.
        busy = sorted(
            {s.layer for s, _ in spans.measured if s.layer.startswith(("engine.", "core."))}
        )
        if busy:
            raise InvalidRun(f"http_cached: engine layers ran in the timed window: {busy}")
    return out
