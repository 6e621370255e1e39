"""Outside-in tracing: timing wrappers around the layers' public callables.

The benchmark may not edit ``src/``, so a layer is measured from outside:
:data:`PROBES` names, as data, each callable to wrap and the namespace it
is looked up in; :func:`install` swaps a timing wrapper in and returns
the undo. Spans nest per thread (a span's parent is whatever span its
thread had open), which is all :func:`self_times` needs.

A probe also declares which workloads must exercise it. A traced run in
which a declared callable is missing, or records no call on such a
workload, raises :class:`StaleSpanTable` instead of publishing a zero — a
refactor cannot silently empty a layer's row.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Iterator

#: Workloads whose *parent* process runs phases 1-2 (pool_sweep's run in workers).
IN_PROCESS_ENGINE = ("sweep_sparse", "sweep_rich", "serve_open")
ENGINE_ON_PATH = (*IN_PROCESS_ENGINE, "pool_sweep")
EVERY_WORKLOAD = (*ENGINE_ON_PATH, "http_cached")


class StaleSpanTable(RuntimeError):
    """A probe's callable is gone, or was never called where it must be."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: ``"setup"`` or ``"measure"`` — which part of the run opened it.
    stage: str = "measure"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``attribute`` is looked up on ``module`` (``Class.method`` walks one
    level). ``before(args, kwargs)`` / ``after(result)`` / ``each(item)``
    return span attributes — numeric ones from ``each`` (called per
    yielded item of a generator) are summed.
    """

    name: str
    module: str
    attribute: str
    workloads: tuple[str, ...]
    before: Callable[[tuple, dict], dict] | None = None
    after: Callable[[Any], dict] | None = None
    each: Callable[[Any], dict] | None = None
    generator: bool = False


class Recorder:
    """In-memory span sink; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stage = "measure"
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, 0.0, parent=stack[-1] if stack else None, stage=self.stage)
        with self._lock:  # index and append must not interleave across threads
            stack.append(len(self.spans))
            self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        if probe.generator:

            @wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any):
                span = self.begin(probe.name)
                if probe.before is not None:
                    span.attrs.update(probe.before(args, kwargs))
                try:
                    for item in fn(*args, **kwargs):
                        if probe.each is not None:
                            for key, value in probe.each(item).items():
                                span.attrs[key] = span.attrs.get(key, 0) + value
                        yield item
                finally:
                    self.end(span)

            return traced_generator

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            span = self.begin(probe.name)
            if probe.before is not None:
                span.attrs.update(probe.before(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if probe.after is not None:
                span.attrs.update(probe.after(result))
            return result

        return traced


def _stream_before(args: tuple, kwargs: dict) -> dict:
    queries = list(args[1])
    return {"queries": len(queries), "query_ids": [qid for qid, _ in queries]}


def _pool_item(item: tuple) -> dict:
    _index, payload, error = item
    if error is not None:
        return {"tasks": 1}
    return {"tasks": 1, "worker_busy_ms": float(payload["wall_ms"])}


_CORE = "repro.core.pipeline"
_TWO_HIT = "repro.core.two_hit"
_MQ = "repro.seeding.multi_query"
_POOL = "repro.engine.procpool"

PROBES: tuple[Probe, ...] = (
    Probe("engine.compiled.compile", _CORE, "BlastpPipeline.compile", ENGINE_ON_PATH),
    Probe("seeding.multi_query.index_build", _MQ, "MultiQueryIndex.build", IN_PROCESS_ENGINE),
    Probe(
        "seeding.multi_query.sweep_block", _MQ, "MultiQueryIndex.sweep_block",
        IN_PROCESS_ENGINE, after=lambda tagged: {"hits": len(tagged)},
    ),
    Probe("seeding.multi_query.untag", _MQ, "MultiQueryIndex.untag", IN_PROCESS_ENGINE),
    Probe(
        "core.two_hit.select", _CORE, "select_seeds_and_extend", IN_PROCESS_ENGINE,
        after=lambda out: {"kept": len(out[0]), "seeds": out[1]},
    ),
    Probe("core.two_hit.seed_mask", _TWO_HIT, "seed_mask", IN_PROCESS_ENGINE),
    Probe("core.two_hit.covered_mask", _TWO_HIT, "covered_seed_mask", IN_PROCESS_ENGINE),
    Probe("core.ungapped.extend", _TWO_HIT, "batch_ungapped_extend", IN_PROCESS_ENGINE),
    Probe(
        "core.gapped.phase", _CORE, "BlastpPipeline.phase_gapped", ENGINE_ON_PATH,
        after=lambda out: {"extensions": len(out[0]), "triggers": out[1]},
    ),
    Probe("core.gapped.batch_extend", _CORE, "batch_gapped_extend", ENGINE_ON_PATH),
    Probe(
        "core.traceback.phase", _CORE, "BlastpPipeline.phase_traceback", ENGINE_ON_PATH,
        after=lambda alignments: {"alignments": len(alignments)},
    ),
    Probe("core.traceback.batch_align", _CORE, "batch_traceback_align", ENGINE_ON_PATH),
    Probe("core.sweep.search_batch", "repro.core.sweep", "search_batch_sweep", IN_PROCESS_ENGINE),
    Probe("core.sweep.finish", "repro.core.sweep", "sweep_finish", ENGINE_ON_PATH),
    Probe(
        "engine.executor.stream", "repro.engine.executor", "BatchExecutor.stream",
        ENGINE_ON_PATH, before=_stream_before, generator=True,
    ),
    Probe("engine.procpool.pool_init", _POOL, "ProcessPool.__init__", ("pool_sweep",)),
    Probe("engine.procpool.spawn", _POOL, "ProcessPool.ensure_started", ("pool_sweep",)),
    Probe(
        "engine.procpool.run", _POOL, "ProcessPool.run", ("pool_sweep",),
        each=_pool_item, generator=True,
    ),
    Probe("engine.procpool.shutdown", _POOL, "ProcessPool.shutdown", ("pool_sweep",)),
    Probe("io.storage.load", "repro.io.storage", "load_database", EVERY_WORKLOAD),
    Probe("io.store.open", "repro.io.store", "DatabaseStore.open", EVERY_WORKLOAD),
    Probe("io.store.blocks", "repro.io.store", "DatabaseStore.blocks", IN_PROCESS_ENGINE),
    Probe(
        "verify.canonical.result_to_payload", "repro.serve.service", "result_to_payload",
        ("serve_open",),
    ),
    Probe(
        "verify.canonical.payload_to_bytes", "repro.serve.service", "payload_to_bytes",
        ("serve_open",), after=lambda data: {"bytes": len(data)},
    ),
    Probe(
        "verify.canonical.extensions_from_payload", "repro.verify.canonical",
        "extensions_from_payload", ("pool_sweep",),
    ),
    Probe("serve.cache.get", "repro.serve.cache", "ResultCache.get", ("serve_open", "http_cached")),
    Probe("serve.cache.put", "repro.serve.cache", "ResultCache.put", ("serve_open", "http_cached")),
    Probe(
        "serve.service.submit", "repro.serve.service", "SearchService.submit",
        ("serve_open", "http_cached"),
    ),
)


def _resolve(probe: Probe) -> tuple[Any, str, Any]:
    """``(owner, attribute_name, raw_attribute)`` or :class:`StaleSpanTable`."""
    try:
        owner: Any = importlib.import_module(probe.module)
        *path, leaf = probe.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf, inspect.getattr_static(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise StaleSpanTable(f"span table stale: {probe.name} ({exc})") from None


def install(recorder: Recorder, probes: tuple[Probe, ...] = PROBES) -> Callable[[], None]:
    """Wrap every probe's callable; the returned function undoes it."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for probe in probes:
            owner, leaf, raw = _resolve(probe)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(recorder.wrap(probe, raw.__func__))
            else:
                wrapped = recorder.wrap(probe, raw)
            setattr(owner, leaf, wrapped)
            undo.append((owner, leaf, raw))
    except StaleSpanTable:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)
        raise

    def uninstall() -> None:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)

    return uninstall


@contextmanager
def tracing(recorder: Recorder, probes: tuple[Probe, ...] = PROBES) -> Iterator[None]:
    """Wrappers are in place inside the block and nowhere else."""
    uninstall = install(recorder, probes)
    try:
        yield
    finally:
        uninstall()


def check_exercised(
    recorder: Recorder, workload: str, probes: tuple[Probe, ...] = PROBES
) -> None:
    """Every probe declared for ``workload`` recorded at least one call."""
    seen = {span.name for span in recorder.spans}
    for probe in probes:
        if workload in probe.workloads and probe.name not in seen:
            raise StaleSpanTable(f"span table stale: {probe.name} (no call on {workload})")


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus what its direct children cover (ms)."""
    own = [span.ms for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.ms
    return own
