"""Cache-level behaviour of the memory model: geometry, LRU order, set
independence, inclusive invalidation and the prefetched-unused marker.

Every case drives :class:`~repro.mem.hierarchy.MemorySystem` through
:class:`tests.test_mem_stateful.Twin`, so each step is also compared
with the independent model.  The L1 geometry varies per test; the L2
and LLC are large enough that only the L1 evicts unless a test says
otherwise.
"""

import pytest

from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig

from tests.test_mem_stateful import Twin

L1_LAT = 4


def make_twin(sets=4, assoc=2, llc=None) -> tuple[Twin, int]:
    """A twin with an ``sets`` x ``assoc`` L1 and no hardware
    prefetchers; returns it and the data segment's first line (line
    numbers below are relative to it, and it maps to set 0)."""
    space = AddressSpace()
    space.allocate("data", 1 << 13, elem_size=8)  # 1024 lines
    config = MemoryConfig(
        l1=CacheConfig("L1D", sets * assoc * 64, assoc, L1_LAT),
        l2=CacheConfig("L2", 16 * 1024, 4, 12),
        llc=llc or CacheConfig("LLC", 64 * 1024, 8, 40),
        dram_latency=100,
        stride_prefetcher=False,
        next_line_prefetcher=False,
    )
    return Twin(config, space), space.segment("data").base >> 6


class Lines:
    """Loads and stores by relative line number at a rising clock."""

    def __init__(self, twin: Twin, base: int):
        self.twin = twin
        self.base = base
        self.now = 0

    def load(self, line: int):
        self.now += 1_000
        return self.twin.load((self.base + line) * 64, self.now, pc=1)

    def store(self, line: int):
        self.now += 1_000
        return self.twin.store((self.base + line) * 64, self.now, pc=2)

    def prefetch(self, line: int):
        self.now += 1_000
        self.twin.prefetch((self.base + line) * 64, self.now, pc=3)

    def resident(self, level: str = "l1") -> set:
        return {line - self.base for line in self.twin.lines()[level]}


class TestBasics:
    def test_miss_then_hit(self):
        lines = Lines(*make_twin())
        assert lines.load(10) > L1_LAT
        assert lines.load(10) == L1_LAT
        counters = lines.twin.mem.counters
        assert (counters.l1_misses, counters.l1_hits) == (1, 1)
        assert 10 in lines.resident()

    def test_config_geometry(self):
        config = CacheConfig("g", 8 * 1024, 8, 4)
        assert config.lines == 128
        assert config.sets == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("b", 100, 8, 4)  # not multiple of 64
        with pytest.raises(ValueError):
            CacheConfig("b", 3 * 64, 2, 4)  # non-power-of-two sets

    def test_prefetched_marker_roundtrip(self):
        lines = Lines(*make_twin())
        lines.prefetch(3)
        lines.load(50)  # a later demand miss drains the fill
        assert lines.twin.mem._unused == {lines.base + 3: True}
        assert lines.load(3) == L1_LAT
        assert lines.twin.mem._unused == {}
        assert lines.twin.mem.counters.sw_prefetch_useful == 1

    def test_invalidate(self):
        # An LLC eviction invalidates the line in every inner level.
        llc = CacheConfig("LLC", 2 * 64, 2, 40)  # 1 set x 2 ways
        lines = Lines(*make_twin(sets=1, assoc=2, llc=llc))
        lines.load(5)
        lines.load(6)
        lines.load(7)  # evicts 5 from the LLC, hence from L1 and L2
        for level in ("l1", "l2", "llc"):
            assert 5 not in lines.resident(level)
        assert lines.load(5) > 40  # back from DRAM

    def test_flush_and_occupancy(self):
        lines = Lines(*make_twin())
        for line in range(8):
            lines.load(line)
        mem = lines.twin.mem
        assert mem.l1.occupancy() == 8
        lines.twin.flush()
        assert mem.l1.occupancy() == 0
        assert mem.l1.resident_lines() == []


class TestLRU:
    def test_eviction_order_is_lru(self):
        lines = Lines(*make_twin(sets=1, assoc=2))
        for line in (0, 1, 2):  # 2 evicts 0
            lines.load(line)
        assert lines.resident() == {1, 2}

    def test_hit_refreshes_lru(self):
        lines = Lines(*make_twin(sets=1, assoc=2))
        lines.load(0)
        lines.load(1)
        lines.load(0)  # 0 becomes MRU
        lines.load(2)  # evicts 1, not 0
        assert lines.resident() == {0, 2}

    def test_refill_of_resident_line_does_not_evict(self):
        # A store write-allocate of an LLC-resident line refreshes it to
        # MRU without evicting anything.
        llc = CacheConfig("LLC", 4 * 64, 4, 40)  # 1 set x 4 ways
        twin, base = make_twin(sets=1, assoc=1, llc=llc)
        lines = Lines(twin, base)
        for line in range(4):
            lines.load(line)
        assert twin.lines()["llc"] == [base, base + 1, base + 2, base + 3]
        lines.store(0)
        assert twin.lines()["llc"] == [base + 1, base + 2, base + 3, base]

    def test_sets_are_independent(self):
        lines = Lines(*make_twin(sets=4, assoc=1))
        lines.load(0)  # set 0
        lines.load(1)  # set 1
        lines.load(4)  # set 0 again -> evicts 0 only
        assert lines.resident() == {1, 4}

    def test_llc_eviction_of_unused_prefetch_counts_early(self):
        llc = CacheConfig("LLC", 64, 1, 40)  # a single line
        lines = Lines(*make_twin(sets=1, assoc=1, llc=llc))
        lines.prefetch(7)
        lines.load(8)  # drains 7, then evicts it for 8
        counters = lines.twin.mem.counters
        assert counters.sw_prefetch_early_evicted == 1
        assert counters.sw_prefetch_useful == 0
        assert lines.twin.mem._unused == {}
