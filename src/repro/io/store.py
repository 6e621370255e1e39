"""Resident database store: open-by-path, LRU residency, shard handles.

Production BLAST servers keep hot databases resident and stream queries
against them; a :class:`DatabaseStore` is that residency policy in one
place. Callers open databases by path (``mmap``-loaded through
:mod:`repro.io.storage`) or register in-memory databases under a name;
the store keeps at most ``capacity`` path-opened databases alive,
evicting least-recently-used ones, and counts hits/misses/evictions so a
deployment can size its residency budget.

Shard handles expose a database's cluster partitions without recomputing
them per query: :meth:`DatabaseStore.shards` partitions once per
``(key, num_shards, scheme)`` and hands out lightweight
:class:`ShardHandle` references — under the contiguous scheme each shard
is a zero-copy :class:`~repro.io.database.DatabaseView`, so residency is
paid once for the whole node set.

The batch executor, the cluster layer, the CLI and the benchmark harness
all resolve databases through a store instead of ad-hoc loading; the
module-level :func:`get_default_store` is the shared per-process default.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.analysis.witness import new_lock, thread_shared
from repro.errors import SequenceError
from repro.io.database import SequenceDatabase

if TYPE_CHECKING:
    from repro.cluster.partition import Partition


@dataclass
class StoreStats:
    """Residency counters of one :class:`DatabaseStore`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class ShardHandle:
    """One shard of a partitioned, store-resident database.

    Resolving :attr:`db` (or :attr:`partition`) goes through the owning
    store's partition cache, so every handle of the same partitioning
    shares one computation — and, under the contiguous scheme, one
    underlying code buffer.
    """

    store: "DatabaseStore" = field(repr=False)
    key: str
    node: int
    num_shards: int
    interleaved: bool = True

    @property
    def partition(self) -> "Partition":
        parts = self.store._partitions(self.key, self.num_shards, self.interleaved)
        return parts[self.node]

    @property
    def db(self) -> SequenceDatabase:
        return self.partition.db


@thread_shared
class DatabaseStore:
    """LRU-resident database handles, opened by path or registered name.

    Parameters
    ----------
    capacity:
        Maximum number of path-opened databases kept resident; the least
        recently used is evicted past that. Registered (named, in-memory)
        databases are pinned and never evicted.
    mmap:
        Whether path opens map the file (the default) or read it eagerly.
    """

    def __init__(self, capacity: int = 4, *, mmap: bool = True) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.mmap = mmap
        self.stats = StoreStats()  # guarded-by: self._lock
        self._lock = new_lock("DatabaseStore._lock")
        self._resident: OrderedDict[str, SequenceDatabase] = OrderedDict()  # guarded-by: self._lock
        self._pinned: dict[str, SequenceDatabase] = {}  # guarded-by: self._lock
        self._shards: dict[tuple[str, int, bool], list] = {}  # guarded-by: self._lock
        self._blocks: dict[tuple[str, int], list] = {}  # guarded-by: self._lock

    # -- keys --------------------------------------------------------------

    @staticmethod
    def _key_for(path) -> str:
        p = Path(path)
        try:
            return str(p.resolve())
        except OSError:  # pragma: no cover - exotic filesystems
            return str(p)

    # -- residency ---------------------------------------------------------

    def open(self, path) -> SequenceDatabase:
        """The database at ``path``, loading it on first use (LRU-cached).

        ``path`` may also be a name previously registered with
        :meth:`add`.
        """
        name = str(path)
        with self._lock:
            if name in self._pinned:
                self.stats.hits += 1
                return self._pinned[name]
            key = self._key_for(path)
            if key in self._resident:
                self.stats.hits += 1
                self._resident.move_to_end(key)
                return self._resident[key]
        # Load outside the lock: opens of different paths proceed in
        # parallel; a racing duplicate load is benign (last one wins).
        db = SequenceDatabase.load(path, mmap=self.mmap)
        with self._lock:
            self.stats.misses += 1
            self._resident[key] = db
            self._resident.move_to_end(key)
            while len(self._resident) > self.capacity:
                evicted_key, _ = self._resident.popitem(last=False)
                self.stats.evictions += 1
                self._drop_shards(evicted_key)
        return db

    def add(self, name: str, db: SequenceDatabase) -> SequenceDatabase:
        """Register an in-memory database under ``name`` (pinned).

        Re-registering a name with a different database drops the shard
        and block partitions cut from the old one.
        """
        with self._lock:
            if self._pinned.get(name) is not db:
                self._drop_shards(name)
            self._pinned[name] = db
        return db

    def get(
        self, name: str, build: Callable[[], SequenceDatabase] | None = None
    ) -> SequenceDatabase:
        """A registered or path database; ``build`` constructs-and-pins on miss."""
        with self._lock:
            if name in self._pinned:
                self.stats.hits += 1
                return self._pinned[name]
        if build is not None:
            with self._lock:
                self.stats.misses += 1
            return self.add(name, build())
        return self.open(name)

    def resolve(self, db) -> SequenceDatabase:
        """Coerce a database-or-path argument to a database.

        :class:`SequenceDatabase` instances pass through untouched;
        strings and paths go through :meth:`open`.
        """
        if isinstance(db, SequenceDatabase):
            return db
        if isinstance(db, (str, Path)):
            return self.open(db)
        raise SequenceError(f"not a database or path: {db!r}")

    @property
    def resident(self) -> int:
        """Number of databases currently held (pinned + LRU)."""
        with self._lock:
            return len(self._resident) + len(self._pinned)

    def evict(self, path) -> bool:
        """Drop a path-opened database from residency (if present)."""
        key = self._key_for(path)
        with self._lock:
            present = key in self._resident
            if present:
                del self._resident[key]
                self.stats.evictions += 1
                self._drop_shards(key)
            return present

    def clear(self) -> None:
        """Drop every resident and pinned database."""
        with self._lock:
            self._resident.clear()
            self._pinned.clear()
            self._shards.clear()
            self._blocks.clear()

    # -- sharding ----------------------------------------------------------

    def shards(
        self, path, num_shards: int, *, interleaved: bool = True
    ) -> list[ShardHandle]:
        """Shard handles for the database at ``path`` (or registered name).

        The underlying partitioning is computed once per
        ``(database, num_shards, scheme)`` and cached alongside the
        residency entry.
        """
        db = self.resolve(path)
        name = str(path)
        key = name if name in self._pinned else self._key_for(path)
        parts = self._partitions(key, num_shards, interleaved, db=db)
        return [
            ShardHandle(self, key, node=p.node, num_shards=num_shards, interleaved=interleaved)
            for p in parts
        ]

    def _partitions(
        self,
        key: str,
        num_shards: int,
        interleaved: bool,
        db: SequenceDatabase | None = None,
    ) -> list:
        from repro.cluster.partition import partition_database

        cache_key = (key, num_shards, interleaved)
        with self._lock:
            cached = self._shards.get(cache_key)
        if cached is not None:
            return cached
        if db is None:
            db = self._pinned.get(key)
        if db is None:
            db = self.open(key)
        parts = partition_database(db, num_shards, interleaved=interleaved)
        with self._lock:
            self._shards[cache_key] = parts
        return parts

    # -- sweep blocks ------------------------------------------------------

    def blocks(self, path, num_blocks: int) -> list[SequenceDatabase]:
        """The residue-balanced block partition of the database at ``path``.

        The db-sweep executor cuts the same blocks for every batch against
        a database; caching the cut per ``(database, num_blocks)`` means
        successive batches share one list of zero-copy views, alongside
        the residency entry (dropped together on eviction).
        """
        db = self.resolve(path)
        name = str(path)
        key = name if name in self._pinned else self._key_for(path)
        cache_key = (key, num_blocks)
        with self._lock:
            cached = self._blocks.get(cache_key)
        if cached is not None:
            return cached
        cut = db.blocks(num_blocks)
        with self._lock:
            self._blocks[cache_key] = cut
        return cut

    def _drop_shards(self, key: str) -> None:
        # Caller holds the lock.
        for cache_key in [k for k in self._shards if k[0] == key]:
            del self._shards[cache_key]
        for cache_key in [k for k in self._blocks if k[0] == key]:
            del self._blocks[cache_key]


_DEFAULT_STORE: DatabaseStore | None = None
_DEFAULT_LOCK = new_lock("store._DEFAULT_LOCK")


def get_default_store() -> DatabaseStore:
    """The process-wide default store (created on first use)."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = DatabaseStore()
        return _DEFAULT_STORE
