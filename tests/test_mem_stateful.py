"""Stateful property tests of the memory model against an independent
reimplementation.

:class:`ModelHierarchy` is written from the documented semantics in
:mod:`repro.mem.hierarchy` and :mod:`repro.machine.pmu`, not from the
code under test: three LRU levels kept as plain lists, an in-order MSHR,
the prefetched-but-unused table, the per-PC stride and next-line
hardware prefetchers, and every PMU counter the memory system bumps.

:class:`Twin` drives a :class:`~repro.mem.hierarchy.MemorySystem` and
the model in lockstep and, after every operation, requires the same
latency, the same resident lines in LRU order, the same MSHR, the same
unused table and the same ``counters.as_dict()``.
:class:`MemModelMachine` feeds it random ``load`` / ``store`` /
``prefetch`` / ``flush`` interleavings at a monotone clock with both
hardware prefetchers on; named scenario tests (here and in
``test_mem_fastpath.py``, ``test_mem_cache.py`` and
``test_mem_hwprefetch.py``) feed it fixed inputs.

Structural invariants checked on top: MSHR occupancy never exceeds
``mshr_entries``, MSHR ready cycles are nondecreasing in insertion order
(the FIFO drain contract), in-flight lines are resident nowhere, the
hierarchy is inclusive, and every prefetched-unused line is still
LLC-resident.

The memory mutants of :mod:`repro.qa.mutants` must each fail the
machine: that is the self-test proving the model can see a one-line
timing or accounting bug.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    rule,
    run_state_machine_as_test,
)

from repro.machine.pmu import Counters
from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig
from repro.mem.hierarchy import MemorySystem
from repro.qa.mutants import MEMORY_MUTANTS, memory_mutant

#: Data segment: 32 lines — twice the LLC below, so capacity evictions
#: and inclusive back-invalidations happen constantly.
POOL_ELEMS = 256
ELEM_SIZE = 8
LINES = POOL_ELEMS * ELEM_SIZE // 64

#: 0x40/0x50 and 0x48/0x58 share a slot of a 16-entry stride table.
PCS = (0x40, 0x48, 0x50, 0x58)


def stateful_memory(**overrides) -> MemoryConfig:
    """A deliberately tiny hierarchy: 4-line L1, 8-line L2, 16-line LLC,
    4 MSHRs, both hardware prefetchers with a 16-slot stride table —
    every structural edge (set conflict, LLC eviction, MSHR full,
    coalesced fill, stride-slot aliasing) is reachable within a short
    rule sequence."""
    defaults = dict(
        l1=CacheConfig("L1D", 256, 2, 2),
        l2=CacheConfig("L2", 512, 2, 6),
        llc=CacheConfig("LLC", 1024, 4, 20),
        dram_latency=100,
        mshr_entries=4,
        stride_table_entries=16,
    )
    defaults.update(overrides)
    return MemoryConfig(**defaults)


def make_space(elems: int = POOL_ELEMS) -> AddressSpace:
    space = AddressSpace()
    space.allocate("data", [0] * elems, elem_size=ELEM_SIZE)
    return space


# ----------------------------------------------------------------------
# The independent model
# ----------------------------------------------------------------------
class ModelLevel:
    """One cache level: per set, a list of lines, least recent first."""

    def __init__(self, config: CacheConfig):
        self.assoc = config.associativity
        self.nsets = config.sets
        self.sets = [[] for _ in range(config.sets)]

    def _set(self, line: int) -> list:
        return self.sets[line % self.nsets]

    def has(self, line: int) -> bool:
        return line in self._set(line)

    def touch(self, line: int) -> bool:
        """Demand hit test: a hit moves the line to most recent."""
        s = self._set(line)
        if line not in s:
            return False
        s.remove(line)
        s.append(line)
        return True

    def install(self, line: int):
        """Make ``line`` most recent; return the evicted line, if any."""
        s = self._set(line)
        if line in s:
            s.remove(line)
            s.append(line)
            return None
        victim = s.pop(0) if len(s) == self.assoc else None
        s.append(line)
        return victim

    def drop(self, line: int) -> None:
        s = self._set(line)
        if line in s:
            s.remove(line)

    def lines(self) -> list[int]:
        return [line for s in self.sets for line in s]

    def clear(self) -> None:
        for s in self.sets:
            s.clear()


class ModelHierarchy:
    """The documented memory-model semantics, reimplemented from scratch
    (no tracing, no ideal mode)."""

    def __init__(self, config: MemoryConfig, space: AddressSpace):
        self.config = config
        self.space = space
        self.l1 = ModelLevel(config.l1)
        self.l2 = ModelLevel(config.l2)
        self.llc = ModelLevel(config.llc)
        self.mshr: dict[int, list] = {}  # line -> [ready, software]
        self.unused: dict[int, bool] = {}  # line -> software?
        self.stride: dict[int, tuple] = {}  # slot -> (pc, last, stride, conf)
        self.counters = dict.fromkeys(Counters().as_dict(), 0)
        self.l1_lat = config.l1.latency
        self.l2_lat = config.l2.latency
        self.llc_lat = config.llc.latency
        self.mem_lat = config.llc.latency + config.dram_latency

    def _bump(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    # -- internals ------------------------------------------------------
    def _cached(self, line: int) -> bool:
        return self.l1.has(line) or self.l2.has(line) or self.llc.has(line)

    def _fill(self, line: int) -> None:
        victim = self.llc.install(line)
        if victim is not None:
            # Inclusive: the victim leaves every level; a software
            # prefetch evicted before any use is an early eviction.
            self.l1.drop(victim)
            self.l2.drop(victim)
            if self.unused.pop(victim, False):
                self._bump("sw_prefetch_early_evicted")
        self.l2.install(line)
        self.l1.install(line)

    def _drain(self, now) -> None:
        while self.mshr:
            line, (ready, software) = next(iter(self.mshr.items()))
            if ready > now:
                return
            del self.mshr[line]
            self._fill(line)
            self.unused[line] = software

    def _consume(self, line: int) -> None:
        if line in self.unused:
            kind = "sw" if self.unused.pop(line) else "hw"
            self._bump(f"{kind}_prefetch_useful")

    def _hw_request(self, line: int, now) -> None:
        if not self.space.is_mapped(line * 64):
            return
        if self._cached(line) or line in self.mshr:
            return
        if len(self.mshr) >= self.config.mshr_entries:
            return
        self.mshr[line] = [now + self.mem_lat, False]
        self._bump("offcore_all_data_rd")
        self._bump("hw_prefetch_issued")

    def _train_stride(self, pc: int, line: int, now) -> None:
        threshold = self.config.stride_confidence
        slot = pc % self.config.stride_table_entries
        owner = self.stride.get(slot)
        if owner is None or owner[0] != pc:
            self.stride[slot] = (pc, line, 0, 0)
            return
        _, last, stride, confidence = owner
        if line == last:
            return
        if line - last == stride:
            confidence = min(confidence + 1, threshold + 2)
        else:
            stride, confidence = line - last, 1
        self.stride[slot] = (pc, line, stride, confidence)
        if confidence >= threshold:
            for k in range(1, self.config.stride_degree + 1):
                self._hw_request(line + k * stride, now)

    # -- operations -----------------------------------------------------
    def load(self, addr: int, now, pc: int):
        line = addr >> 6
        hit = self.l1.touch(line)
        if not hit:
            self._drain(now)
            hit = self.l1.touch(line)
        if hit:
            self._bump("l1_hits")
            self._consume(line)
            return self.l1_lat
        self._bump("l1_misses")
        if self.l2.touch(line):
            self._bump("l2_hits")
            self._consume(line)
            self.l1.install(line)
            self._bump("stall_cycles_l2", self.l2_lat - self.l1_lat)
            return self.l2_lat
        self._bump("l2_misses")
        if self.config.stride_prefetcher:
            self._train_stride(pc, line, now)
        if self.llc.touch(line):
            self._bump("llc_hits")
            self._consume(line)
            self.l2.install(line)
            self.l1.install(line)
            self._bump("stall_cycles_llc", self.llc_lat - self.l1_lat)
            return self.llc_lat
        self._bump("llc_misses")
        if line in self.mshr:
            ready, software = self.mshr.pop(line)
            self._fill(line)
            if software:
                self._bump("load_hit_pre_sw_pf")
                self._bump("sw_prefetch_useful")
            else:
                self._bump("hw_prefetch_useful")
            latency = max(ready - now, 0, self.l1_lat)
            self._bump("stall_cycles_dram", latency - self.l1_lat)
            return latency
        self._bump("offcore_demand_data_rd")
        self._bump("offcore_all_data_rd")
        if self.config.next_line_prefetcher:
            self._hw_request(line + 1, now)
        self._fill(line)
        self._bump("stall_cycles_dram", self.mem_lat - self.l1_lat)
        return self.mem_lat

    def store(self, addr: int, now, pc: int) -> int:
        line = addr >> 6
        if self.l1.touch(line):
            self._consume(line)
            return 1
        self._drain(now)
        self._consume(line)
        if line in self.mshr:
            software = self.mshr.pop(line)[1]
            self._bump("sw_prefetch_useful" if software else "hw_prefetch_useful")
        self._fill(line)
        return 1

    def prefetch(self, addr: int, now, pc: int) -> None:
        self._bump("sw_prefetch_issued")
        if not self.space.is_mapped(addr):
            self._bump("sw_prefetch_dropped_unmapped")
            return
        self._drain(now)
        line = addr >> 6
        if self._cached(line) or line in self.mshr:
            self._bump("sw_prefetch_redundant")
        elif len(self.mshr) >= self.config.mshr_entries:
            self._bump("sw_prefetch_dropped_mshr")
        else:
            self.mshr[line] = [now + self.mem_lat, True]
            self._bump("offcore_all_data_rd")

    def flush(self) -> None:
        self.l1.clear()
        self.l2.clear()
        self.llc.clear()
        self.mshr.clear()
        self.unused.clear()

    def lines(self) -> dict:
        return {
            "l1": self.l1.lines(),
            "l2": self.l2.lines(),
            "llc": self.llc.lines(),
        }


# ----------------------------------------------------------------------
# Lockstep driver
# ----------------------------------------------------------------------
class Twin:
    """A memory system and the model, driven in lockstep and compared
    after every operation."""

    def __init__(self, config: MemoryConfig, space: AddressSpace,
                 memory_system=MemorySystem):
        self.mem = memory_system(config, space, Counters())
        self.model = ModelHierarchy(config, space)

    def load(self, addr: int, now, pc: int):
        got = self.mem.load(addr, now, pc)
        want = self.model.load(addr, now, pc)
        assert got == want, f"load latency {got} != model {want}"
        self.check()
        return got

    def store(self, addr: int, now, pc: int):
        got = self.mem.store(addr, now, pc)
        assert got == self.model.store(addr, now, pc)
        self.check()
        return got

    def prefetch(self, addr: int, now, pc: int) -> None:
        self.mem.prefetch(addr, now, pc)
        self.model.prefetch(addr, now, pc)
        self.check()

    def flush(self) -> None:
        self.mem.flush()
        self.model.flush()
        self.check()

    def lines(self) -> dict:
        mem = self.mem
        return {
            "l1": mem.l1.resident_lines(),
            "l2": mem.l2.resident_lines(),
            "llc": mem.llc.resident_lines(),
        }

    def check(self) -> None:
        assert self.lines() == self.model.lines()
        assert self.mem._mshr == self.model.mshr
        assert self.mem._unused == self.model.unused
        assert self.mem.counters.as_dict() == self.model.counters
        self.check_structure()

    def check_structure(self) -> None:
        mem = self.mem
        mshr = mem._mshr
        assert len(mshr) <= mem.config.mshr_entries
        ready_order = [entry[0] for entry in mshr.values()]
        assert ready_order == sorted(ready_order)  # FIFO drain contract
        lines = self.lines()
        llc = set(lines["llc"])
        assert set(lines["l1"]) <= llc and set(lines["l2"]) <= llc
        assert not (set(mshr) & llc)  # in flight => resident nowhere
        assert set(mem._unused) <= llc


# ----------------------------------------------------------------------
# The random-interleaving machine
# ----------------------------------------------------------------------
class MemModelMachine(RuleBasedStateMachine):
    #: The memory-system class under test (the mutation self-test swaps
    #: in a deliberately broken copy).
    memory_system = MemorySystem

    def __init__(self):
        super().__init__()
        space = make_space()
        self.twin = Twin(stateful_memory(), space, self.memory_system)
        self.now = 0
        self.base = space.segment("data").base
        self.unmapped = self.base + POOL_ELEMS * ELEM_SIZE + (1 << 20)

    def _addr(self, idx: int) -> int:
        return self.base + idx * ELEM_SIZE

    @rule(idx=st.integers(0, POOL_ELEMS - 1), pc=st.sampled_from(PCS))
    def load(self, idx, pc):
        self.twin.load(self._addr(idx), self.now, pc)

    @rule(pc=st.sampled_from(PCS), start=st.integers(0, LINES - 1),
          stride=st.sampled_from((-2, -1, 1, 3)), n=st.integers(3, 6))
    def stream(self, pc, start, stride, n):
        # One PC walking lines at a constant stride trains (and fires)
        # the stride prefetcher.
        for k in range(n):
            line = start + k * stride
            if 0 <= line < LINES:
                self.twin.load(self.base + line * 64, self.now, pc)
                self.now += 1

    @rule(k=st.integers(0, 3), pc=st.sampled_from(PCS))
    def load_inflight(self, k, pc):
        # Demand-load a line still in flight: a coalesced (late) fill.
        inflight = list(self.twin.model.mshr)
        if inflight:
            line = inflight[k % len(inflight)]
            self.twin.load(line * 64, self.now, pc)

    @rule(idx=st.integers(0, POOL_ELEMS - 1), pc=st.sampled_from(PCS))
    def store(self, idx, pc):
        self.twin.store(self._addr(idx), self.now, pc)

    @rule(idx=st.integers(0, POOL_ELEMS - 1), pc=st.sampled_from(PCS))
    def prefetch(self, idx, pc):
        self.twin.prefetch(self._addr(idx), self.now, pc)

    @rule(pc=st.sampled_from(PCS))
    def prefetch_unmapped(self, pc):
        self.twin.prefetch(self.unmapped, self.now, pc)

    @rule(delta=st.integers(1, 200))
    def tick(self, delta):
        self.now += delta

    @rule()
    def tick_to_next_fill(self):
        # Land exactly on the oldest fill's ready cycle: the drain
        # boundary a random tick almost never hits.
        mshr = self.twin.model.mshr
        if mshr:
            self.now = max(self.now, next(iter(mshr.values()))[0])

    @rule()
    def flush(self):
        self.twin.flush()


TestMemModel = MemModelMachine.TestCase


# ----------------------------------------------------------------------
# Fixed inputs
# ----------------------------------------------------------------------
def test_random_traffic_matches_model():
    """A long seeded mix of every operation over a 4096-line segment
    with both hardware prefetchers on, compared step by step."""
    import random

    space = make_space(1 << 15)
    config = stateful_memory(
        l1=CacheConfig("L1D", 512, 2, 2),
        l2=CacheConfig("L2", 1024, 2, 12),
        llc=CacheConfig("LLC", 2048, 4, 40),
        dram_latency=360,
        mshr_entries=8,
    )
    twin = Twin(config, space)
    base = space.segment("data").base
    rng = random.Random(1234)
    now = 0
    for _ in range(2_000):
        index = rng.randrange(4096) * 8
        a = base + index * ELEM_SIZE
        op = rng.randrange(8)
        if op < 4:
            now += twin.load(a, now, pc=100 + (index % 7))
        elif op < 6:
            now += twin.store(a, now, pc=200)
        else:
            twin.prefetch(a, now, pc=300)
            now += 1
    counters = twin.mem.counters
    assert counters.l1_hits > 0 and counters.llc_misses > 0
    assert counters.hw_prefetch_issued > 0


#: Fixed example budget each memory mutant must be caught within
#: (no shrinking: detection is the point).
MUTANT_EXAMPLES = 100


def find_memory_mutant(name: str, examples: int = MUTANT_EXAMPLES):
    """Run :class:`MemModelMachine` against the memory mutant ``name``;
    return the failure it finds, or None if the mutant survives."""
    machine = type(
        f"Mutant_{name}", (MemModelMachine,),
        {"memory_system": memory_mutant(name)},
    )
    try:
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=examples,
                stateful_step_count=50,
                derandomize=True,
                deadline=None,
                database=None,
                phases=[Phase.explicit, Phase.generate],
                report_multiple_bugs=False,
                suppress_health_check=list(HealthCheck),
                print_blob=False,
            ),
        )
    except AssertionError as failure:
        return failure
    return None


@pytest.mark.parametrize("name", sorted(MEMORY_MUTANTS))
def test_memory_mutant_is_caught(name):
    """Each seeded one-line memory-model bug fails the machine."""
    assert find_memory_mutant(name) is not None
