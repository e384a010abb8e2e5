"""Unit tests for the full memory hierarchy: latencies, MSHR coalescing,
late/early prefetch accounting, hardware prefetchers, inclusivity."""

import pytest

from repro.machine.pmu import Counters
from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig
from repro.mem.hierarchy import MemorySystem


def make_system(
    stride=False, next_line=False, mshr=8, llc_kib=16
) -> tuple[MemorySystem, AddressSpace, Counters]:
    space = AddressSpace()
    space.allocate("data", 1 << 16, elem_size=8)  # 512 KiB
    counters = Counters()
    config = MemoryConfig(
        l1=CacheConfig("L1D", 1024, 4, 2),
        l2=CacheConfig("L2", 4096, 4, 12),
        llc=CacheConfig("LLC", llc_kib * 1024, 8, 40),
        dram_latency=360,
        mshr_entries=mshr,
        stride_prefetcher=stride,
        next_line_prefetcher=next_line,
    )
    return MemorySystem(config, space, counters), space, counters


def addr(space: AddressSpace, index: int) -> int:
    return space.segment("data").address_of(index)


MEM_LAT = 400.0  # llc 40 + dram 360


class TestDemandPath:
    def test_cold_miss_pays_full_latency(self):
        system, space, counters = make_system()
        latency = system.load(addr(space, 0), 0, pc=1)
        assert latency == MEM_LAT
        assert counters.offcore_demand_data_rd == 1
        assert counters.llc_misses == 1

    def test_fill_then_l1_hit(self):
        system, space, counters = make_system()
        system.load(addr(space, 0), 0, pc=1)
        latency = system.load(addr(space, 0), 1000, pc=1)
        assert latency == 2
        assert counters.l1_hits == 1

    def test_same_line_different_word_hits(self):
        system, space, counters = make_system()
        system.load(addr(space, 0), 0, pc=1)
        assert system.load(addr(space, 4), 1000, pc=1) == 2  # 4*8B < 64B

    def test_l2_hit_after_l1_eviction(self):
        system, space, counters = make_system()
        # L1: 16 lines (1KiB/64B), 4 sets x 4 ways; L2 64 lines.
        for i in range(0, 40 * 8, 8):  # 40 distinct lines
            system.load(addr(space, i), i * 1000, pc=1)
        # Line 0 has left L1 but should still be in L2 or LLC.
        latency = system.load(addr(space, 0), 10**9, pc=1)
        assert latency in (12.0, 40.0)

    def test_stall_attribution(self):
        system, space, counters = make_system()
        system.load(addr(space, 0), 0, pc=1)
        assert counters.stall_cycles_dram == MEM_LAT - 2
        before = counters.stall_cycles_dram
        system.load(addr(space, 0), 1000, pc=1)  # L1 hit: no stall
        assert counters.stall_cycles_dram == before


class TestSoftwarePrefetch:
    def test_prefetch_fills_after_latency(self):
        system, space, counters = make_system()
        system.prefetch(addr(space, 0), 0, pc=2)
        assert counters.sw_prefetch_issued == 1
        assert system.inflight() == 1
        # Demand access well after completion: a hit.
        latency = system.load(addr(space, 0), 10_000, pc=1)
        assert latency == 2
        assert counters.sw_prefetch_useful == 1
        assert counters.load_hit_pre_sw_pf == 0

    def test_late_prefetch_coalesces(self):
        system, space, counters = make_system()
        system.prefetch(addr(space, 0), 0, pc=2)
        latency = system.load(addr(space, 0), 100, pc=1)
        assert latency == MEM_LAT - 100
        assert counters.load_hit_pre_sw_pf == 1
        assert counters.sw_prefetch_useful == 1
        # Coalesced: no second memory read.
        assert counters.offcore_all_data_rd == 1
        assert counters.offcore_demand_data_rd == 0

    def test_prefetch_to_unmapped_is_dropped(self):
        system, space, counters = make_system()
        system.prefetch(0x10, 0, pc=2)
        assert counters.sw_prefetch_dropped_unmapped == 1
        assert system.inflight() == 0

    def test_prefetch_redundant_when_cached(self):
        system, space, counters = make_system()
        system.load(addr(space, 0), 0, pc=1)
        system.prefetch(addr(space, 0), 1000, pc=2)
        assert counters.sw_prefetch_redundant == 1

    def test_prefetch_redundant_when_inflight(self):
        system, space, counters = make_system()
        system.prefetch(addr(space, 0), 0, pc=2)
        system.prefetch(addr(space, 0), 1, pc=2)
        assert counters.sw_prefetch_redundant == 1
        assert system.inflight() == 1

    def test_mshr_full_drops(self):
        system, space, counters = make_system(mshr=2)
        for i in range(3):
            system.prefetch(addr(space, i * 8), 0, pc=2)
        assert counters.sw_prefetch_dropped_mshr == 1
        assert system.inflight() == 2

    def test_early_prefetch_evicted_unused(self):
        system, space, counters = make_system(llc_kib=1)  # 16-line LLC
        system.prefetch(addr(space, 0), 0, pc=2)
        # Let it complete, then blow the cache with demand traffic.
        now = 1000.0
        for i in range(1, 40):
            system.load(addr(space, i * 8), now, pc=1)
            now += 500
        assert counters.sw_prefetch_early_evicted >= 1
        assert counters.sw_prefetch_useful == 0


class TestStores:
    def test_store_is_cheap_even_on_miss(self):
        system, space, counters = make_system()
        assert system.store(addr(space, 0), 0, pc=3) == 1.0
        # Write-allocate: subsequent load hits.
        assert system.load(addr(space, 0), 100, pc=1) == 2

    def test_store_consumes_prefetch_flag(self):
        system, space, counters = make_system()
        system.prefetch(addr(space, 0), 0, pc=2)
        system.store(addr(space, 0), 10_000, pc=3)
        assert counters.sw_prefetch_useful == 1


class TestHardwarePrefetchers:
    def test_stride_prefetcher_covers_streams(self):
        system, space, counters = make_system(stride=True)
        # A steady stride of one line: after training, later accesses hit.
        now = 0.0
        for i in range(0, 30):
            system.load(addr(space, i * 8), now, pc=77)
            now += 1000
        assert counters.hw_prefetch_issued > 0
        assert counters.hw_prefetch_useful > 0

    def test_random_pattern_defeats_stride(self):
        import random

        rng = random.Random(3)
        system, space, counters = make_system(stride=True)
        now = 0.0
        for _ in range(50):
            system.load(addr(space, rng.randrange(1 << 12) * 8), now, pc=77)
            now += 1000
        assert counters.hw_prefetch_useful <= 2

    def test_next_line_prefetcher(self):
        system, space, counters = make_system(next_line=True)
        system.load(addr(space, 0), 0, pc=1)
        assert counters.hw_prefetch_issued == 1
        latency = system.load(addr(space, 8), 10_000, pc=1)  # next line
        assert latency == 2.0
        assert counters.hw_prefetch_useful == 1


class TestInclusivity:
    def test_llc_eviction_invalidates_inner_levels(self):
        system, space, counters = make_system(llc_kib=1)  # 16 lines, 2 sets
        system.load(addr(space, 0), 0, pc=1)
        # Fill the LLC set that line 0 maps to until it is evicted.
        now = 1000.0
        for i in range(1, 64):
            system.load(addr(space, i * 16), now, pc=1)  # every other line
            now += 500
        line = addr(space, 0) >> 6
        assert line not in system.llc.resident_lines()
        assert line not in system.l1.resident_lines()
        assert line not in system.l2.resident_lines()

    def test_flush_clears_everything(self):
        system, space, counters = make_system()
        system.load(addr(space, 0), 0, pc=1)
        system.prefetch(addr(space, 8 * 8), 0, pc=2)
        system.flush()
        assert system.inflight() == 0
        assert system.load(addr(space, 0), 10_000, pc=1) == MEM_LAT


class TestIdealMode:
    def make_ideal(self):
        space = AddressSpace()
        space.allocate("data", 1 << 14, elem_size=8)
        counters = Counters()
        config = MemoryConfig(
            l1=CacheConfig("L1D", 1024, 4, 2),
            l2=CacheConfig("L2", 4096, 4, 12),
            llc=CacheConfig("LLC", 16 * 1024, 8, 40),
            dram_latency=360,
            ideal_prefetching=True,
        )
        return MemorySystem(config, space, counters), space, counters

    def test_every_load_served_at_l1_latency(self):
        system, space, counters = self.make_ideal()
        seg = space.segment("data")
        for index in range(0, 200, 17):
            latency = system.load(seg.address_of(index), index * 100.0, pc=1)
            assert latency == 2

    def test_classification_counters_still_tracked(self):
        system, space, counters = self.make_ideal()
        seg = space.segment("data")
        system.load(seg.address_of(0), 0.0, pc=1)
        assert counters.llc_misses == 1  # the would-be miss is recorded
        assert counters.offcore_demand_data_rd == 1

    def test_no_stall_cycles_accrue(self):
        system, space, counters = self.make_ideal()
        seg = space.segment("data")
        for index in range(0, 500, 11):
            system.load(seg.address_of(index), index * 50.0, pc=1)
        assert counters.stall_cycles_dram == 0
        assert counters.stall_cycles_llc == 0
        assert counters.stall_cycles_l2 == 0

    def test_scaled_preserves_ideal_flag(self):
        config = MemoryConfig(ideal_prefetching=True).scaled(4)
        assert config.ideal_prefetching

    def test_ideal_machine_is_upper_bound(self):
        import dataclasses

        from repro.machine.config import MachineConfig, paper_like_memory
        from repro.machine.machine import Machine
        from tests.conftest import build_indirect_loop

        module, space, expected = build_indirect_loop(n=400)
        normal = Machine(module, space).run("main")

        module2, space2, _ = build_indirect_loop(n=400)
        ideal_config = MachineConfig(
            memory=dataclasses.replace(
                paper_like_memory(), ideal_prefetching=True
            )
        )
        ideal = Machine(module2, space2, config=ideal_config).run("main")
        assert ideal.value == normal.value == expected
        assert ideal.counters.cycles < normal.counters.cycles
