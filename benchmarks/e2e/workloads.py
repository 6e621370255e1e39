"""The five workloads: what runs, how it is timed, what it must return.

Each workload builds its inputs from the seed (untimed, and not part of
``setup_s`` — fabricating inputs is the benchmark's cost, not the
program's), then offers ``setup`` / ``measure`` / ``teardown``. ``setup``
is everything the program does before it can take its first timed
operation, including one light warm-up operation; ``measure`` runs for the
requested seconds and returns a :class:`Pass`.

Load comes from this one process with at most ``min(2, nproc)``
threads / connections / workers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import time
from bisect import bisect_left
from collections import Counter
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchstats import percentile
from inputs import Seeds, make_database, make_domains, make_queries, poisson_schedule
from spans import Recorder, tracing

from repro.core import SearchParams
from repro.engine import BatchExecutor, make_engine
from repro.io.store import DatabaseStore, get_default_store
from repro.serve import SearchService, ServeError, ServeHandle
from repro.verify.canonical import payload_to_bytes, result_to_payload

#: Effective jobs everywhere a workload is parallel.
JOBS = min(2, os.cpu_count() or 1)
#: E-value statistics as against a swissprot-sized database, so cutoffs do
#: not move with the synthetic database's size.
PARAMS = SearchParams(effective_db_residues=110_000_000)
#: The paper's three query regimes (and a cheap-to-compile trio for --smoke).
PAPER_LENGTHS = (127, 517, 1054)
SMOKE_LENGTHS = (64, 127, 254)
SERVE_LENGTHS = (80, 100, 120, 140)
#: A batch workload times at least this many batches, however short the window.
MIN_BATCHES = 3
#: Batch and ``http_cached`` timings are cut into slices (one batch; half a
#: second of requests) and report this percentile of the per-slice values.
BETTER_QUARTILE = 25


class InvalidRun(RuntimeError):
    """The run broke a validity rule; no number from it may be published."""


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def result_digest(result: Any) -> str:
    return digest(payload_to_bytes(result_to_payload(result)))


@dataclass
class Pass:
    """One measured pass of a workload."""

    latency_p50_ms: float
    queries_per_s: float
    #: Operations timed (batches, or requests): the per-layer metrics' divisor.
    operations: int
    #: Queries answered, for ``cpu_ms_per_query``.
    queries: int
    attempted: int
    #: Errors, refusals and timeouts (oracle mismatches are counted later).
    errors: int
    #: Set by a workload that meters CPU itself; else the harness divides the
    #: process's (and its reaped children's) CPU over the window by ``queries``.
    cpu_ms_per_query: float | None = None
    #: ``(query_id, payload digest)`` -> times observed.
    outputs: Counter = field(default_factory=Counter)
    #: Total latency the ledger apportions (ms): sum over operations.
    latency_sum_ms: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Inputs shared by every workload: one saved database, distinct queries."""

    name = ""
    sequences = 0
    mean_length = 0
    homolog_fraction = 0.0
    smoke_sequences = 0

    def __init__(self, seed: int, workdir: Path, seconds: float, smoke: bool = False) -> None:
        self.seeds = Seeds.from_seed(seed)
        self.smoke = smoke
        self.domains = make_domains(self.seeds.domains)
        db = make_database(
            self.seeds.database,
            self.domains,
            self.smoke_sequences if smoke else self.sequences,
            self.mean_length,
            self.homolog_fraction,
        )
        self.db_path = workdir / f"{self.name}.rpdb"
        db.save(self.db_path)
        self.queries: list[tuple[str, str]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Pass:
        raise NotImplementedError

    def measure_traced(self, seconds: float, recorder: Recorder) -> tuple[Pass, Pass]:
        """``(untraced, traced)`` passes sharing the window, half each."""
        untraced = self.measure(seconds / 2)
        with tracing(recorder):
            traced = self.measure(seconds / 2)
        return untraced, traced

    def teardown(self) -> None:
        raise NotImplementedError

    def store_stats(self) -> Any:
        raise NotImplementedError


# -- batch workloads ---------------------------------------------------------


class _BatchWorkload(Workload):
    mean_length = 250
    backend = "thread"
    #: Distinct query groups the batches cycle through.
    groups = 1

    def __init__(self, seed: int, workdir: Path, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, workdir, seconds, smoke)
        lengths = SMOKE_LENGTHS if smoke else PAPER_LENGTHS
        self.queries = make_queries(self.seeds.queries, self.domains, list(lengths) * self.groups)
        self.store: DatabaseStore | None = None
        self.executor: BatchExecutor | None = None

    def _executor(self) -> BatchExecutor:
        return BatchExecutor(
            make_engine("reference", PARAMS),
            backend=self.backend,
            mode="db-sweep",
            jobs=JOBS if self.backend == "process" else 1,
            keep_pool=self.backend == "process",
            store=self.store,
        )

    def setup(self) -> None:
        self.store = DatabaseStore()
        self.executor = self._executor()
        # Warm up on one whole group: a lighter batch would leave the first
        # timed batch to grow the heap to working size.
        warm = self.executor.run(self.queries[: len(PAPER_LENGTHS)], self.db_path)
        if warm.errors:
            raise warm.errors[0][1]

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.close()
        self.executor = None
        self.store = None

    def store_stats(self) -> Any:
        assert self.store is not None
        return self.store.stats

    def _next_executor(self) -> BatchExecutor:
        """Thread sweeps take a fresh executor per batch (and no
        ``QueryCache``), so no repeat can be served from an earlier one;
        the process workload keeps one executor, as a service would."""
        assert self.executor is not None
        return self.executor if self.backend == "process" else self._executor()

    def _batches(self, seconds: float, recorder: Recorder | None) -> list[tuple]:
        """Back-to-back batches for ``seconds``: ``(traced, wall, cpu, records)`` each.

        With a recorder, rounds of untraced and traced batches alternate
        (one round = every query group once), so both halves see the same
        groups and the same drift and their difference is the tracing
        overhead; at least one round of each is run.
        """
        size = len(PAPER_LENGTHS)
        minimum = MIN_BATCHES if recorder is None else 2 * self.groups
        runs: list[tuple] = []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(runs) < minimum:
            group = len(runs) % self.groups
            batch = self.queries[group * size : (group + 1) * size]
            traced = recorder is not None and (len(runs) // self.groups) % 2 == 1
            executor = self._next_executor()
            with tracing(recorder) if traced else nullcontext():
                t0, cpu0 = time.perf_counter(), time.process_time()
                result = executor.run(batch, self.db_path)
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            runs.append((traced, wall, cpu, result.records))
        return runs

    def _pass(self, runs: list[tuple]) -> Pass:
        walls = [wall for _, wall, _, _ in runs]
        records = [record for _, _, _, batch in runs for record in batch]
        done = [record for record in records if record.ok]
        # Workers' CPU is only known once they are reaped, so the process
        # backend leaves CPU to the harness's whole-window reading.
        cpu_per_batch = (
            percentile([cpu for _, _, cpu, _ in runs], BETTER_QUARTILE)
            if self.backend == "thread"
            else None
        )
        # The better quartile of the batch walls, not their median: what
        # disturbs a batch on this host (a neighbour, a stall) only ever adds
        # time, and a change to the program moves every batch.
        wall = percentile(walls, BETTER_QUARTILE)
        return Pass(
            latency_p50_ms=wall * 1e3,
            queries_per_s=len(done) / len(walls) / wall,
            cpu_ms_per_query=cpu_per_batch and cpu_per_batch * 1e3 * len(walls) / len(done),
            operations=len(walls),
            queries=len(done),
            attempted=len(records),
            errors=len(records) - len(done),
            outputs=Counter((r.query_id, result_digest(r.result)) for r in done),
            latency_sum_ms=sum(walls) * 1e3,
        )

    def measure(self, seconds: float) -> Pass:
        return self._pass(self._batches(seconds, None))

    def measure_traced(self, seconds: float, recorder: Recorder) -> tuple[Pass, Pass]:
        runs = self._batches(seconds, recorder)
        return (
            self._pass([run for run in runs if not run[0]]),
            self._pass([run for run in runs if run[0]]),
        )


class SweepSparse(_BatchWorkload):
    name = "sweep_sparse"
    sequences, smoke_sequences, homolog_fraction = 2000, 60, 0.05


class SweepRich(_BatchWorkload):
    name = "sweep_rich"
    sequences, smoke_sequences, homolog_fraction = 800, 40, 0.5


class PoolSweep(_BatchWorkload):
    name = "pool_sweep"
    sequences, smoke_sequences, homolog_fraction = 2000, 60, 0.05
    backend = "process"
    groups = 2


# -- serve workloads ---------------------------------------------------------


class _ServeWorkload(Workload):
    sequences, smoke_sequences, mean_length, homolog_fraction = 100, 40, 120, 0.05
    cache_capacity = 0

    def __init__(self, seed: int, workdir: Path, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, workdir, seconds, smoke)
        self.service: SearchService | None = None
        # Load generator and server share the GIL, so they share one CPU:
        # left free on two vCPUs, every request crosses CPUs and its wake-up
        # cost follows the hypervisor's mood (same code, 1.5-2.9 k req/s
        # free; pinned it is twice as fast and half as noisy).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _service(self) -> SearchService:
        return SearchService(
            self.db_path,
            engine=make_engine("reference", PARAMS),
            backend="thread",
            mode="db-sweep",
            window_ms=20,
            max_batch=16,
            max_pending=512,
            cache_capacity=self.cache_capacity,
        )

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
        self.service = None
        # The service resolves its path through the process-wide store;
        # drop the residency so the next set-up opens the file again.
        get_default_store().evict(self.db_path)

    def store_stats(self) -> Any:
        return get_default_store().stats

    def _cache_lookups(self) -> tuple[int, int]:
        assert self.service is not None
        stats = self.service.cache.stats
        return stats.hits, stats.hits + stats.misses


def _hit_rate(before: tuple[int, int], after: tuple[int, int]) -> float:
    lookups = after[1] - before[1]
    return (after[0] - before[0]) / lookups if lookups else 0.0


@dataclass
class Request:
    """One open-loop request, stamped on the load generator's clock."""

    query_id: str
    #: The query's own id, which the oracle knows it by.
    key: str
    #: ``"open"`` (phase A) or ``"drain"`` (phase B).
    phase: str
    due: float
    submitted: float
    future: Future
    done: float | None = None

    def succeeded(self) -> bool:
        return self.done is not None and self.future.exception() is None


class ServeOpen(_ServeWorkload):
    """Open loop at a fixed Poisson rate, then a saturating burst."""

    name = "serve_open"
    #: Offered rate of phase A (req/s): a third of the measured drain capacity.
    #: At 28 req/s (45 %) queueing amplified host noise: the median latency
    #: spread by 4.8 % over ten seeds, at 20 req/s by 2.7 %, side by side.
    rate = 20.0
    #: Past these the load offered was not the load described.
    max_generator_lag_p99_ms = 50.0
    max_rate_error = 0.02
    #: Share of the window phase A offers load for; phase B drains after it.
    open_share = 0.7
    #: Phase B burst size per second of window (128 requests at 10 s).
    burst_per_second = 12.8

    def __init__(self, seed: int, workdir: Path, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, workdir, seconds, smoke)
        n_open, n_burst = self._sized(seconds)  # the longest pass measure() may be asked for
        lengths = [SERVE_LENGTHS[i % len(SERVE_LENGTHS)] for i in range(n_open + n_burst)]
        # All distinct: with the result cache off nothing is shared today,
        # and a later compile cache must not be flattered by repeats.
        self.queries = make_queries(self.seeds.queries, self.domains, lengths)
        self.schedule = poisson_schedule(self.seeds.schedule, self.rate, n_open)
        #: Passes measured so far; tags request ids, which spans are matched by.
        self.passes = 0

    def _sized(self, seconds: float) -> tuple[int, int]:
        n_open = max(8, round(self.rate * self.open_share * seconds))
        n_burst = max(8, round(self.burst_per_second * seconds))
        return n_open, n_burst

    def setup(self) -> None:
        self.service = self._service().start()
        self.service.search("warm-up", self.queries[0][1], timeout=60)

    def measure(self, seconds: float) -> Pass:
        service = self.service
        assert service is not None
        n_open, n_burst = self._sized(seconds)
        tag = f"p{self.passes}"
        self.passes += 1
        requests: list[Request] = []
        refused = 0

        def submit(query: tuple[str, str], phase: str, due: float) -> None:
            nonlocal refused
            query_id = f"{tag}-{phase}-{query[0]}"
            submitted = time.perf_counter()
            try:
                future = service.submit(query_id, query[1])
            except ServeError:
                refused += 1
                return
            request = Request(query_id, query[0], phase, due, submitted, future)
            future.add_done_callback(lambda _f: setattr(request, "done", time.perf_counter()))
            requests.append(request)

        def settle() -> None:
            wait_futures([r.future for r in requests], timeout=120)
            # ``wait`` can return before the last done-callback has run.
            deadline = time.perf_counter() + 1.0
            while time.perf_counter() < deadline and any(
                r.done is None and r.future.done() for r in requests
            ):
                time.sleep(0.0005)

        def coalescer() -> tuple[int, int, int]:
            stats = service.coalescer.stats
            return stats.batches, stats.emitted, stats.size_closes

        cache0 = self._cache_lookups()
        # Phase A: open loop. Latency runs from the *scheduled* arrival, so
        # a stall charges every request it delays.
        c0 = coalescer()
        offsets = self.schedule[:n_open]
        start = time.perf_counter() + 0.02
        for query, offset in zip(self.queries[:n_open], offsets):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submit(query, "open", due)
        settle()
        c1 = coalescer()
        # Phase B: everything at once; the server is never idle until the last.
        burst_start = time.perf_counter()
        for query in self.queries[n_open : n_open + n_burst]:
            submit(query, "drain", burst_start)
        settle()
        c2 = coalescer()

        ok = [r for r in requests if r.succeeded()]
        opened = [r for r in ok if r.phase == "open"]
        drained = [r for r in ok if r.phase == "drain"]
        if len(opened) < 2 or not drained:
            raise InvalidRun("serve_open: a phase completed (almost) no request")
        outputs = Counter((r.key, digest(r.future.result().payload)) for r in ok)
        latencies = [(r.done - r.due) * 1e3 for r in opened]
        sent = [r for r in requests if r.phase == "open"]
        offered = (len(sent) - 1) / (sent[-1].submitted - sent[0].submitted)
        scheduled = (n_open - 1) / float(offsets[-1] - offsets[0])
        drain_s = max(r.done for r in drained) - burst_start
        lag_p99 = percentile([(r.submitted - r.due) * 1e3 for r in sent], 99)
        rate_error = abs(offered / scheduled - 1.0)
        if not self.smoke and (
            lag_p99 > self.max_generator_lag_p99_ms or rate_error > self.max_rate_error
        ):
            raise InvalidRun(
                f"serve_open: load generator off schedule (lag p99 {lag_p99:.1f} ms, "
                f"offered rate off by {rate_error:.1%})"
            )
        return Pass(
            latency_p50_ms=percentile(latencies, 50),
            queries_per_s=len(drained) / drain_s,
            operations=len(ok),
            queries=len(ok),
            attempted=n_open + n_burst,
            errors=n_open + n_burst - len(ok),
            outputs=outputs,
            latency_sum_ms=sum(latencies),
            detail={
                "requests": ok,
                "latency_p90_ms": percentile(latencies, 90),
                "latency_p99_ms": percentile(latencies, 99),
                "generator_lag_p99_ms": lag_p99,
                "shed": refused,
                "open": [b - a for a, b in zip(c0, c1)],
                "drain": [b - a for a, b in zip(c1, c2)],
                "cache_hit_rate": _hit_rate(cache0, self._cache_lookups()),
            },
        )


class HttpCached(_ServeWorkload):
    """Closed loop over real sockets; every timed request is a cache hit."""

    name = "http_cached"
    cache_capacity = 1024
    distinct = 32
    #: The window is cut into slices this long and each end-to-end metric is
    #: the better quartile of its per-slice values. A request is ~0.2 ms of
    #: interpreter and system calls, which neighbours on the host slow by
    #: 10-50 % for seconds to minutes at a time: the whole-window median
    #: spread by 23 % over ten runs in a bad spell, while within every run
    #: the calm slices agreed to 2 %. A change to the program moves every
    #: slice; the host moves some.
    slice_s = 0.5

    def __init__(self, seed: int, workdir: Path, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, workdir, seconds, smoke)
        lengths = [SERVE_LENGTHS[i % len(SERVE_LENGTHS)] for i in range(self.distinct)]
        self.queries = make_queries(self.seeds.queries, self.domains, lengths)
        self.handle: ServeHandle | None = None
        #: Response bodies of the pre-fill, which every timed body must equal.
        self.expected: dict[str, bytes] = {}

    def setup(self) -> None:
        self.service = self._service()
        self.handle = ServeHandle(self.service)
        futures = [(qid, self.service.submit(qid, seq)) for qid, seq in self.queries]
        self.expected = {qid: f.result(timeout=120).payload for qid, f in futures}

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.close()  # closes the service it owns
        self.handle = None
        super().teardown()

    def _client(self, lane: int, t_end: float, out: dict[str, Any]) -> None:
        """One keep-alive connection in closed loop until ``t_end``."""
        assert self.handle is not None
        conn = http.client.HTTPConnection(*self.handle.address, timeout=30)
        mine = self.queries[lane::JOBS]
        sent = 0
        try:
            while time.perf_counter() < t_end:
                qid, seq = mine[sent % len(mine)]
                sent += 1
                body = json.dumps({"query_id": qid, "sequence": seq})
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/search", body)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    out["errors"] += 1
                    conn.close()
                    continue
                done = time.perf_counter()
                out["done"].append(done)
                out["rtts"].append((done - t0) * 1e3)
                if response.status != 200:
                    out["errors"] += 1
                    continue
                if response.getheader("X-Cache") != "HIT":
                    out["non_hit"] += 1
                out["bytes"] += len(data)
                # Bodies are compared as received; only a differing one is hashed.
                same = data == self.expected[qid]
                out["outputs"][(qid, None if same else digest(data))] += 1
        finally:
            conn.close()

    def measure(self, seconds: float) -> Pass:
        cache0 = self._cache_lookups()
        lanes = [
            {"rtts": [], "done": [], "errors": 0, "non_hit": 0, "bytes": 0, "outputs": Counter()}
            for _ in range(JOBS)
        ]
        slices = max(1, round(seconds / self.slice_s))
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(lane, t0 + slices * self.slice_s, out))
            for lane, out in enumerate(lanes)
        ]
        for thread in threads:
            thread.start()
        # This thread only stamps the slice boundaries with the process's CPU clock.
        marks = [(t0, time.process_time())]
        for k in range(1, slices + 1):
            time.sleep(max(0.0, t0 + k * self.slice_s - time.perf_counter()))
            marks.append((time.perf_counter(), time.process_time()))
        for thread in threads:
            thread.join(timeout=60)
        if any(thread.is_alive() for thread in threads):
            raise InvalidRun("http_cached: a client did not finish")
        if any(out["non_hit"] for out in lanes):
            raise InvalidRun("http_cached: a timed response was not X-Cache: HIT")
        errors = sum(out["errors"] for out in lanes)
        expected = {qid: digest(data) for qid, data in self.expected.items()}
        outputs: Counter = Counter()
        for out in lanes:
            for (qid, differing), count in out["outputs"].items():
                outputs[(qid, differing or expected[qid])] += count
        succeeded = sum(outputs.values())
        exchanges = sorted((t, ms) for out in lanes for t, ms in zip(out["done"], out["rtts"]))
        times, rtts = [t for t, _ in exchanges], [ms for _, ms in exchanges]
        p50s, rates, cpus = [], [], []
        for (lo, cpu_lo), (hi, cpu_hi) in zip(marks, marks[1:]):
            inside = rtts[bisect_left(times, lo) : bisect_left(times, hi)]
            if inside:
                p50s.append(percentile(inside, 50))
                rates.append(len(inside) / (hi - lo))
                cpus.append((cpu_hi - cpu_lo) * 1e3 / len(inside))
        if not succeeded or not p50s:
            raise InvalidRun("http_cached: no request succeeded")
        return Pass(
            # The quartile of the slices the host disturbed least (see slice_s).
            latency_p50_ms=percentile(p50s, BETTER_QUARTILE),
            queries_per_s=percentile(rates, 100 - BETTER_QUARTILE),
            cpu_ms_per_query=percentile(cpus, BETTER_QUARTILE),
            operations=succeeded,
            queries=succeeded,
            attempted=succeeded + errors,
            errors=errors,
            outputs=outputs,
            latency_sum_ms=sum(rtts),
            detail={
                "latency_p90_ms": percentile(rtts, 90),
                "latency_p99_ms": percentile(rtts, 99),
                "bytes_out": sum(out["bytes"] for out in lanes),
                "cache_hit_rate": _hit_rate(cache0, self._cache_lookups()),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepSparse, SweepRich, PoolSweep, ServeOpen, HttpCached)
}
