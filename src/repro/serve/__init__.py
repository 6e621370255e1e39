"""The always-on serving layer: coalescer → executor → cache.

``repro serve`` turns the batch machinery into a long-lived HTTP service:
concurrent arrivals coalesce into executor batches, held at most one
window and only when a companion is predicted
(:mod:`repro.serve.coalescer`), run on a resident database with warm
process workers (:mod:`repro.serve.service`), and repeat queries are
answered from a db-version-keyed canonical-payload cache
(:mod:`repro.serve.cache`). The HTTP transport itself is a thin stdlib
asyncio layer (:mod:`repro.serve.http`). See ``docs/SERVING.md``.
"""

from repro.serve.cache import CacheKey, CacheStats, ResultCache, params_key, query_key
from repro.serve.coalescer import Coalescer, CoalescerStats
from repro.serve.http import SearchHttpServer, ServeHandle, serve_forever
from repro.serve.service import (
    OverloadedError,
    SearchService,
    ServeError,
    ServeOutcome,
    ServiceClosedError,
    ServiceStats,
)

__all__ = [
    "CacheKey",
    "CacheStats",
    "Coalescer",
    "CoalescerStats",
    "OverloadedError",
    "ResultCache",
    "SearchHttpServer",
    "SearchService",
    "ServeError",
    "ServeHandle",
    "ServeOutcome",
    "ServiceClosedError",
    "ServiceStats",
    "serve_forever",
    "params_key",
    "query_key",
]
