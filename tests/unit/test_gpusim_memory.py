"""Unit tests for the GPU simulator's memory subsystem."""

import numpy as np
import pytest

from repro.errors import GpuSimError
from repro.gpusim import K20C, GlobalBuffer, MemorySpace, ReadOnlyCache
from repro.gpusim.memory import DeviceMemory, coalesce_transactions


class TestDeviceMemory:
    def test_alloc_assigns_aligned_addresses(self):
        mem = DeviceMemory(1 << 20)
        a = mem.alloc("a", np.zeros(100, dtype=np.int32))
        b = mem.alloc("b", np.zeros(100, dtype=np.int32))
        assert a.address % 256 == 0
        assert b.address % 256 == 0
        assert b.address >= a.address + a.nbytes

    def test_out_of_memory(self):
        mem = DeviceMemory(1024)
        with pytest.raises(GpuSimError, match="out of memory"):
            mem.alloc("big", np.zeros(4096, dtype=np.int64))

    def test_duplicate_name_rejected(self):
        mem = DeviceMemory(1 << 20)
        mem.alloc("x", np.zeros(4, dtype=np.int8))
        with pytest.raises(GpuSimError, match="already allocated"):
            mem.alloc("x", np.zeros(4, dtype=np.int8))

    def test_readonly_buffer_immutable(self):
        mem = DeviceMemory(1 << 20)
        buf = mem.alloc("ro", np.arange(4, dtype=np.int32), MemorySpace.READONLY)
        with pytest.raises(ValueError):
            buf.data[0] = 9

    def test_multidim_flattened(self):
        mem = DeviceMemory(1 << 20)
        buf = mem.alloc("m", np.zeros((4, 4), dtype=np.int8))
        assert buf.data.shape == (16,)


class TestBufferBounds:
    def test_check_bounds_accepts_valid(self):
        buf = GlobalBuffer("b", np.zeros(10, dtype=np.int8), 0)
        buf.check_bounds(np.array([0, 9]))

    @pytest.mark.parametrize("bad", [[-1], [10], [0, 100]])
    def test_check_bounds_rejects(self, bad):
        buf = GlobalBuffer("b", np.zeros(10, dtype=np.int8), 0)
        with pytest.raises(GpuSimError, match="out of bounds"):
            buf.check_bounds(np.array(bad))

    def test_byte_addresses(self):
        buf = GlobalBuffer("b", np.zeros(10, dtype=np.int32), 1024)
        assert buf.byte_addresses(np.array([0, 3])).tolist() == [1024, 1036]


class TestCoalescing:
    LINE = 128

    def addr(self, elems, itemsize, base=0):
        return base + np.asarray(elems, dtype=np.int64) * itemsize

    def test_fully_coalesced_4byte(self):
        # 32 consecutive 4-byte words = 128 bytes = one transaction.
        assert coalesce_transactions(self.addr(range(32), 4), 4, self.LINE) == 1

    def test_stride_2_doubles_transactions(self):
        assert coalesce_transactions(self.addr(range(0, 64, 2), 4), 4, self.LINE) == 2

    def test_fully_scattered(self):
        addrs = self.addr([i * 1000 for i in range(32)], 4)
        assert coalesce_transactions(addrs, 4, self.LINE) == 32

    def test_broadcast_is_one_transaction(self):
        assert coalesce_transactions(self.addr([7] * 32, 4), 4, self.LINE) == 1

    def test_straddling_element_counts_both_lines(self):
        # an 8-byte element at byte 124 spans lines 0 and 1.
        assert coalesce_transactions(np.array([124]), 8, self.LINE) == 2

    def test_misaligned_warp_touches_two_lines(self):
        addrs = self.addr(range(32), 4, base=64)
        assert coalesce_transactions(addrs, 4, self.LINE) == 2

    def test_empty(self):
        assert coalesce_transactions(np.zeros(0, dtype=np.int64), 4, self.LINE) == 0

    def test_uint8_warp_quarter_line(self):
        # 32 consecutive bytes sit in one line: 1 transaction but only a
        # quarter of the line is requested (the gld-efficiency cap that
        # motivated tile loading in the hit-detection kernel).
        assert coalesce_transactions(self.addr(range(32), 1), 1, self.LINE) == 1


class TestReadOnlyCache:
    def test_miss_then_hit(self):
        c = ReadOnlyCache(K20C)
        assert c.access_lines([5]) == (0, 1)
        assert c.access_lines([5]) == (1, 0)
        assert c.hit_ratio == 0.5  # exact: 1/2 of 2

    def test_capacity_eviction(self):
        c = ReadOnlyCache(K20C, ways=2)
        # Three lines mapping to the same set: the first gets evicted.
        s = c.num_sets
        c.access_lines([0 * s, 1 * s])
        c.access_lines([2 * s])
        hits, misses = c.access_lines([0 * s])
        assert misses == 1  # evicted by LRU

    def test_lru_order(self):
        c = ReadOnlyCache(K20C, ways=2)
        s = c.num_sets
        c.access_lines([0 * s])
        c.access_lines([1 * s])
        c.access_lines([0 * s])  # refresh line 0
        c.access_lines([2 * s])  # evicts line 1*s (LRU)
        assert c.access_lines([0 * s]) == (1, 0)
        assert c.access_lines([1 * s]) == (0, 1)

    def test_reset(self):
        c = ReadOnlyCache(K20C)
        c.access_lines([1, 2, 3])
        c.reset()
        assert c.hits == 0 and c.misses == 0
        assert c.access_lines([1]) == (0, 1)

    def test_capacity_matches_device(self):
        c = ReadOnlyCache(K20C)
        assert c.num_sets * c.ways * c.line_bytes == K20C.readonly_cache_bytes
