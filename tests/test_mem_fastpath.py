"""The line-removal paths and the fill-buffer drain of the memory
model's demand fast path (``MemorySystem.load`` / ``store`` /
``prefetch``).

A line leaves the hierarchy only through an LLC eviction, which
back-invalidates it from the L1 and L2 and settles its prefetch
accounting.  These tests drive each way to reach that eviction — LLC
capacity misses, hardware-prefetch fills displacing a victim, store
write-allocates — through :class:`tests.test_mem_stateful.Twin`, which
compares every step with the independent model (lines in LRU order,
MSHR, unused table, counters) and checks inclusivity.
"""

from __future__ import annotations

from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig

from tests.test_mem_stateful import Twin


def make_twin(stride=False, next_line=False, mshr=8) -> tuple[Twin, int]:
    """A deliberately tiny hierarchy: 8-line L1, 16-line L2, 32-line
    LLC over a 4096-line segment, so every burst of traffic forces
    evictions and inclusive back-invalidations.  Returns the twin and
    the segment's first line."""
    space = AddressSpace()
    space.allocate("data", 1 << 15, elem_size=8)  # 256 KiB = 4096 lines
    config = MemoryConfig(
        l1=CacheConfig("L1D", 512, 2, 2),
        l2=CacheConfig("L2", 1024, 2, 12),
        llc=CacheConfig("LLC", 2048, 4, 40),
        dram_latency=360,
        mshr_entries=mshr,
        stride_prefetcher=stride,
        next_line_prefetcher=next_line,
    )
    return Twin(config, space), space.segment("data").base >> 6


class TestRandomTraffic:
    def test_sequential_traffic_with_hw_prefetchers(self):
        """Striding loads keep both hardware prefetchers firing; their
        fills displace victims through the same eviction arm."""
        twin, base = make_twin(stride=True, next_line=True)
        now = 0
        for i in range(512):
            now += twin.load((base + i) * 64, now, pc=77)
        assert twin.mem.counters.hw_prefetch_issued > 0


class TestInvalidationPaths:
    def test_llc_capacity_eviction_back_invalidates(self):
        """Touching more distinct lines than the LLC holds forces
        capacity evictions; the victims leave every level."""
        twin, base = make_twin()
        now = 0
        for i in range(64):  # 2x LLC capacity (32 lines)
            now += twin.load((base + i) * 64, now, pc=5)
        lines = twin.lines()
        assert len(lines["llc"]) == 32  # full, having evicted half
        for level in ("l1", "l2", "llc"):
            assert base not in lines[level]

    def test_hw_prefetch_fill_displaces_victim(self):
        """A next-line prefetch fill evicts through the same path as a
        demand fill; the displaced victim leaves every level."""
        twin, base = make_twin(next_line=True)
        now = 0
        # Fill the LLC with far-away lines first.
        for i in range(2048, 2048 + 32):
            now += twin.load((base + i) * 64, now, pc=5)
        assert len(twin.lines()["llc"]) == 32
        # Misses issue next-line prefetches; once drained, their fills
        # displace residents.
        for i in range(0, 32, 2):
            now += twin.load((base + i) * 64, now, pc=6)
        issued = twin.mem.counters.hw_prefetch_issued
        assert issued > 0
        now += 10_000
        twin.load((base + 4000) * 64, now, pc=7)  # drains every fill
        assert twin.mem.inflight() <= 1  # only the newest next-line
        assert twin.mem.counters.hw_prefetch_issued == issued + 1
        llc = twin.lines()["llc"]
        assert base + 1 in llc and base + 2048 not in llc

    def test_store_write_allocate_evicts_consistently(self):
        """Store misses write-allocate; the fills evict residents and
        settle the evicted lines' prefetch accounting."""
        twin, base = make_twin()
        now = 0
        for i in range(8):
            twin.prefetch((base + i) * 64, now, pc=8)
        now += 1_000  # every prefetch lands, unused
        for i in range(100, 164):
            now += twin.store((base + i) * 64, now, pc=9)
        assert twin.mem.counters.sw_prefetch_early_evicted == 8
        assert twin.mem._unused == {}


class TestDrainOrdering:
    def test_drain_fills_in_ready_order(self):
        """MSHR entries complete strictly in issue order (uniform DRAM
        latency at a monotone clock), and a partial drain leaves the
        next-ready bound on the first still-pending entry."""
        twin, base = make_twin(mshr=8)
        mem = twin.mem
        first = base + 1000
        for i in range(4):
            twin.prefetch((first + i) * 64, i * 10, pc=2)
        assert mem.inflight() == 4
        # DRAM latency is 400 total; at now=415 exactly the first two
        # fills (ready at 400 and 410) are due.
        twin.load(base * 64, 415, pc=3)
        assert mem.inflight() == 2
        assert mem._mshr_next_ready == 420
        llc = twin.lines()["llc"]
        assert first in llc and first + 1 in llc
        assert first + 3 not in llc
        # Far in the future everything lands and the bound resets.
        twin.load((base + 1) * 64, 100_000, pc=3)
        assert mem.inflight() == 0
        assert mem._mshr_next_ready == float("inf")
