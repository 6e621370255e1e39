"""Unit tests for the binary on-disk format and the resident store."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.io import DatabaseStore, SequenceDatabase, get_default_store
from repro.io import storage


@pytest.fixture()
def db():
    return SequenceDatabase.from_strings(
        ["MKTAY", "AR", "NDCQEGHILK", "WWW"],
        ["sp|P001|ALPHA", "ünïcode·ßeq", "日本語タンパク質", "d"],
    )


def _memmap_backed(arr: np.ndarray) -> bool:
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = arr.base
    return False


class TestBinaryFormat:
    def test_roundtrip_with_non_ascii_identifiers(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        back = SequenceDatabase.load(path)
        assert np.array_equal(back.codes, db.codes)
        assert np.array_equal(back.offsets, db.offsets)
        assert back.identifiers == db.identifiers

    def test_mmap_load_is_lazy_and_readonly(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        back = SequenceDatabase.load(path)
        assert _memmap_backed(back.codes)
        assert _memmap_backed(back.offsets)
        assert not back.codes.flags.writeable
        with pytest.raises(ValueError):
            back.codes[0] = 1

    def test_eager_load(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        back = SequenceDatabase.load(path, mmap=False)
        assert not _memmap_backed(back.codes)
        assert np.array_equal(back.codes, db.codes)

    def test_header_fields(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        head = storage.read_header(path)
        assert head["version"] == storage.FORMAT_VERSION
        assert head["num_sequences"] == len(db)
        assert head["codes_len"] == int(db.codes.size)
        assert head["file_bytes"] == head["off_codes"] + head["codes_len"]

    def test_sniff_format(self, db, tmp_path):
        binary = tmp_path / "a.rpdb"
        db.save(binary)
        assert storage.sniff_format(binary) == "binary"
        text = tmp_path / "b.fasta"
        text.write_text(">x\nMKTAY\n")
        assert storage.sniff_format(text) == "unknown"
        assert storage.sniff_format(tmp_path / "missing") == "unknown"

    def test_unknown_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.rpdb"
        bogus.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(SequenceError, match="unknown magic"):
            SequenceDatabase.load(bogus)

    def test_future_version_rejected(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (storage.FORMAT_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(SequenceError, match="newer than this reader"):
            SequenceDatabase.load(path)

    def test_truncated_file_rejected(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(SequenceError, match="truncated"):
            SequenceDatabase.load(path)

    def test_loaded_db_views_share_mapped_memory(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        back = SequenceDatabase.load(path)
        v = back.view(1, 3)
        assert np.shares_memory(v.codes, back.codes)
        assert _memmap_backed(v.codes)


class TestDbVersionStamp:
    """The content-version stamp the serving cache keys on."""

    def test_fresh_save_stamps_default(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        assert storage.read_db_version(path) == storage.DEFAULT_DB_VERSION
        assert storage.read_header(path)["db_version"] == storage.DEFAULT_DB_VERSION

    def test_explicit_stamp_on_save(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path, db_version=42)
        assert storage.read_db_version(path) == 42

    def test_stamp_bump_and_set(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        assert storage.stamp_db_version(path) == storage.DEFAULT_DB_VERSION + 1
        assert storage.stamp_db_version(path, 9) == 9
        assert storage.read_db_version(path) == 9

    def test_stamp_leaves_content_intact(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        storage.stamp_db_version(path, 7)
        back = SequenceDatabase.load(path)
        assert np.array_equal(back.codes, db.codes)
        assert back.identifiers == db.identifiers

    def test_pre_stamp_file_reads_as_version_zero(self, db, tmp_path):
        # Files written before the stamp existed carry zero padding where
        # the stamp now lives — they must read back as generation 0, not
        # fail. Simulate one by zeroing the stamp bytes.
        path = tmp_path / "db.rpdb"
        db.save(path)
        raw = bytearray(path.read_bytes())
        raw[storage._STAMP_OFFSET : storage._STAMP_OFFSET + 8] = b"\x00" * 8
        path.write_bytes(bytes(raw))
        assert storage.read_db_version(path) == 0
        back = SequenceDatabase.load(path)
        assert np.array_equal(back.codes, db.codes)

    def test_stamp_rejects_non_binary(self, tmp_path):
        bogus = tmp_path / "bogus.rpdb"
        bogus.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(SequenceError):
            storage.stamp_db_version(bogus)


class TestLegacyNpz:
    @pytest.mark.parametrize("kind", ["npz", "random"])
    def test_non_database_rejected_without_unpickling(self, db, tmp_path, monkeypatch, kind):
        import pickle

        from repro.errors import FastaFormatError
        from repro.io import read_fasta_file

        path = tmp_path / f"db.{kind}"
        if kind == "npz":
            np.savez(
                path,
                codes=db.codes,
                offsets=db.offsets,
                identifiers=np.array(db.identifiers, dtype=object),
            )
        else:
            path.write_bytes(np.random.default_rng(7).bytes(4096))

        def forbidden(*args, **kwargs):
            raise AssertionError("a non-database file must never be unpickled")

        monkeypatch.setattr(np, "load", forbidden)
        monkeypatch.setattr(pickle, "load", forbidden)
        monkeypatch.setattr(pickle, "loads", forbidden)
        assert storage.sniff_format(path) == "unknown"
        with pytest.raises(SequenceError, match=f"db.{kind}: not a database file"):
            SequenceDatabase.load(path)
        with pytest.raises(FastaFormatError, match=f"db.{kind}: not a FASTA file"):
            read_fasta_file(path)

    def test_save_no_longer_writes_npz(self, db, tmp_path):
        path = tmp_path / "db.npz"  # suffix is irrelevant to the writer
        db.save(path)
        assert storage.sniff_format(path) == "binary"
        back = SequenceDatabase.load(path)
        assert np.array_equal(back.codes, db.codes)


class TestDatabaseStore:
    def test_open_caches_and_counts(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        store = DatabaseStore(capacity=2)
        first = store.open(path)
        again = store.open(path)
        assert first is again
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.hit_rate == 0.5  # exact: 1/2

    def test_lru_eviction(self, db, tmp_path):
        store = DatabaseStore(capacity=2)
        paths = []
        for i in range(3):
            p = tmp_path / f"db{i}.rpdb"
            db.save(p)
            paths.append(p)
        a = store.open(paths[0])
        store.open(paths[1])
        store.open(paths[2])  # evicts paths[0]
        assert store.stats.evictions == 1
        assert store.resident == 2
        b = store.open(paths[0])  # reload
        assert b is not a
        assert store.stats.misses == 4

    def test_lru_order_refreshed_by_access(self, db, tmp_path):
        store = DatabaseStore(capacity=2)
        paths = []
        for i in range(3):
            p = tmp_path / f"db{i}.rpdb"
            db.save(p)
            paths.append(p)
        first = store.open(paths[0])
        store.open(paths[1])
        store.open(paths[0])  # refresh: paths[1] is now LRU
        store.open(paths[2])  # evicts paths[1], not paths[0]
        assert store.open(paths[0]) is first

    def test_add_pins_in_memory_databases(self, db):
        store = DatabaseStore(capacity=1)
        store.add("mydb", db)
        assert store.open("mydb") is db
        assert store.get("mydb") is db

    def test_get_builds_on_miss(self, db):
        store = DatabaseStore()
        calls = []

        def build():
            calls.append(1)
            return db

        assert store.get("synth", build) is db
        assert store.get("synth", build) is db
        assert calls == [1]

    def test_evict_and_clear(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        store = DatabaseStore()
        store.open(path)
        assert store.evict(path)
        assert not store.evict(path)
        store.add("x", db)
        store.clear()
        assert store.resident == 0

    def test_resolve(self, db, tmp_path):
        path = tmp_path / "db.rpdb"
        db.save(path)
        store = DatabaseStore()
        assert store.resolve(db) is db
        assert np.array_equal(store.resolve(str(path)).codes, db.codes)
        with pytest.raises(SequenceError):
            store.resolve(42)

    def test_shard_handles_contiguous_are_views(self, db):
        store = DatabaseStore()
        store.add("mydb", db)
        handles = store.shards("mydb", 2, interleaved=False)
        assert [h.node for h in handles] == [0, 1]
        for h in handles:
            assert np.shares_memory(h.db.codes, db.codes)

    def test_shard_partitions_cached(self, db):
        store = DatabaseStore()
        store.add("mydb", db)
        first = store.shards("mydb", 2)
        second = store.shards("mydb", 2)
        assert first[0].partition is second[0].partition

    def test_readd_serves_new_database_shards_and_blocks(self):
        old = SequenceDatabase.from_strings(["MKTAY", "ARNDC", "WWWW"])
        new = SequenceDatabase.from_strings(["MKTAY", "ARNDC", "WWWW", "QEGH"])
        store = DatabaseStore()
        store.add("x", old)
        assert sum(len(h.db) for h in store.shards("x", 2)) == 3
        assert sum(len(b) for b in store.blocks("x", 2)) == 3
        store.add("x", new)
        assert store.open("x") is new
        shards = store.shards("x", 2)
        assert sum(len(h.db) for h in shards) == 4
        assert sum(len(b) for b in store.blocks("x", 2)) == 4
        # Re-adding the same database keeps the cached cut.
        store.add("x", new)
        assert store.shards("x", 2)[0].partition is shards[0].partition

    def test_default_store_is_singleton(self):
        assert get_default_store() is get_default_store()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DatabaseStore(capacity=0)
