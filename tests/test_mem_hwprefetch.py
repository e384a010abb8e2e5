"""The hardware prefetchers, observed through the memory model.

Each case drives demand loads through
:class:`tests.test_mem_stateful.Twin` (so the independent model checks
every step) and reads a prefetcher's requests off the MSHR: DRAM is so
slow here that nothing drains, and every line loaded is a cold miss, so
each load's new MSHR entries are exactly what the prefetchers issued.
"""

from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig

from tests.test_mem_stateful import Twin


class Prefetchers:
    def __init__(self, stride=True, next_line=False, threshold=2, degree=2):
        space = AddressSpace()
        space.allocate("data", 1 << 13, elem_size=8)  # 1024 lines
        self.config = MemoryConfig(
            l1=CacheConfig("L1D", 1024, 4, 2),
            l2=CacheConfig("L2", 4096, 4, 12),
            llc=CacheConfig("LLC", 64 * 1024, 8, 40),
            dram_latency=10**9,
            mshr_entries=64,
            stride_prefetcher=stride,
            next_line_prefetcher=next_line,
            stride_confidence=threshold,
            stride_degree=degree,
        )
        self.twin = Twin(self.config, space)
        self.base = space.segment("data").base >> 6

    def observe(self, pc: int, line: int) -> list[int]:
        """Demand-load relative ``line`` at ``pc``; return the relative
        lines the prefetchers requested."""
        mshr = self.twin.mem._mshr
        before = set(mshr)
        self.twin.load((self.base + line) * 64, 0, pc)
        return [issued - self.base for issued in mshr if issued not in before]


class TestStridePrefetcher:
    def test_needs_training_before_predicting(self):
        prefetcher = Prefetchers()
        assert prefetcher.observe(1, 100) == []
        assert prefetcher.observe(1, 101) == []  # stride learned, conf 1
        predictions = prefetcher.observe(1, 102)  # conf 2 -> fire
        assert predictions == [103, 104]

    def test_stride_of_two(self):
        prefetcher = Prefetchers()
        for line in (10, 12, 14):
            predictions = prefetcher.observe(7, line)
        assert predictions == [16, 18]

    def test_negative_stride(self):
        prefetcher = Prefetchers()
        for line in (100, 98, 96):
            predictions = prefetcher.observe(7, line)
        assert predictions == [94, 92]

    def test_stride_change_resets_confidence(self):
        prefetcher = Prefetchers()
        prefetcher.observe(1, 100)
        prefetcher.observe(1, 101)
        prefetcher.observe(1, 102)
        assert prefetcher.observe(1, 200) == []  # stride broke, conf 1
        # Two consecutive observations of the new stride re-arm it.
        assert prefetcher.observe(1, 298) == [396, 494]

    def test_same_line_repeat_is_ignored(self):
        prefetcher = Prefetchers()
        prefetcher.observe(1, 100)
        prefetcher.observe(1, 101)  # stride 1, conf 1
        prefetcher.twin.flush()  # line 101 misses again
        # The repeat neither resets the stride nor counts as a stride.
        assert prefetcher.observe(1, 101) == []
        assert prefetcher.observe(1, 102) == [103, 104]

    def test_table_aliasing_by_pc(self):
        prefetcher = Prefetchers()
        other_pc = 1 + prefetcher.config.stride_table_entries  # same slot
        prefetcher.observe(1, 100)
        prefetcher.observe(1, 101)
        # The aliasing PC steals the slot and must retrain.
        assert prefetcher.observe(other_pc, 5) == []
        assert prefetcher.observe(other_pc, 6) == []
        assert prefetcher.observe(other_pc, 7) != []
        # ...and the evicted PC starts over.
        assert prefetcher.observe(1, 102) == []

    def test_independent_pcs(self):
        prefetcher = Prefetchers()
        for i in range(3):
            a = prefetcher.observe(1, 100 + i)
            b = prefetcher.observe(2, 500 + 2 * i)
        assert a == [103, 104]
        assert b == [506, 508]


class TestNextLine:
    def test_always_next(self):
        prefetcher = Prefetchers(stride=False, next_line=True)
        assert prefetcher.observe(0, 41) == [42]
        assert prefetcher.observe(0, 900) == [901]
