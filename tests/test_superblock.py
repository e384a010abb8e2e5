"""Turbo-tier tests: nest-fusion shape, steady-state bulk stepping,
observation-point guards, traced bulk stepping, and the adaptive
short-trip fallback (on both fused tiers, which share the dispatch
loop).

Cross-engine bit-identicality over random programs lives in the
``repro.qa`` oracle and ``tests/test_machine_engines.py``; this file
pins down the *structural* behaviour of the superblock compiler and the
dispatch-loop contract around it.
"""

from __future__ import annotations

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.machine.batch import BatchCell, BatchMachine
from repro.machine.blockengine import compile_blocks
from repro.machine.config import MachineConfig
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.machine import Machine
from repro.machine.superblock import (
    _ADAPT_WARMUP,
    TurboCompiledFunction,
    compile_turbo,
)
from repro.mem.address import AddressSpace
from repro.obs.sites import site_reports
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from tests.conftest import (
    build_indirect_loop,
    build_nested_indirect,
    build_sum_loop,
    tiny_memory,
)


def build_diamond_outer_short_inner(
    outer: int = 200, inner: int = 1
) -> tuple[Module, AddressSpace, int]:
    """An outer loop whose body is a branch diamond (unfusable) around
    a short-trip inner loop (fusable): the shape that exercises the
    adaptive bypass — the inner superblock is entered once per outer
    iteration and never gets to amortize its prologue."""
    space = AddressSpace()
    data = space.allocate("data", [3] * 1024, elem_size=8)
    module = Module("diamond_outer")
    b = IRBuilder(module)
    b.function("main")
    (
        entry,
        outer_h,
        left,
        right,
        merge,
        inner_h,
        outer_latch,
        done,
    ) = b.blocks(
        "entry",
        "outer_h",
        "left",
        "right",
        "merge",
        "inner_h",
        "outer_latch",
        "done",
    )
    b.at(entry)
    b.jmp(outer_h)
    b.at(outer_h)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    half = b.lt(i, outer // 2, name="half")
    b.br(half, left, right)
    b.at(left)
    lv = b.add(acc, 1, name="lv")
    b.jmp(merge)
    b.at(right)
    rv = b.add(acc, 2, name="rv")
    b.jmp(merge)
    b.at(merge)
    base = b.phi([(left, lv), (right, rv)], name="base")
    b.jmp(inner_h)
    b.at(inner_h)
    j = b.phi([(merge, 0)], name="j")
    acc_i = b.phi([(merge, base)], name="acc.i")
    a = b.gep(data.base, j, 8, name="a")
    v = b.load(a, name="v")
    acc_i2 = b.add(acc_i, v, name="acc.i2")
    j2 = b.add(j, 1, name="j2")
    b.add_incoming(j, inner_h, j2)
    b.add_incoming(acc_i, inner_h, acc_i2)
    jc = b.lt(j2, inner, name="jc")
    b.br(jc, inner_h, outer_latch)
    b.at(outer_latch)
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, outer_latch, i2)
    b.add_incoming(acc, outer_latch, acc_i2)
    ic = b.lt(i2, outer, name="ic")
    b.br(ic, outer_h, done)
    b.at(done)
    b.ret(acc_i2)
    module.finalize()
    expected = 0
    for k in range(outer):
        expected += 1 if k < outer // 2 else 2
        expected += 3 * inner
    return module, space, expected


#: The two fused tiers, which share one dispatch loop.
TIERS = ("turbo", "batchturbo")


def short_trip_runner(tier: str):
    """``(compiled, run, expected)`` for the diamond-outer, 1-trip-inner
    program on ``tier``: ``compiled`` is the entry function's compiled
    form and ``run()`` runs it once, returning every cell's value (two
    identical cells for ``batchturbo``)."""
    if tier == "turbo":
        module, space, expected = build_diamond_outer_short_inner(
            outer=200, inner=1
        )
        machine = Machine(module, space, engine="turbo")
        return (
            machine._compile("main"),
            lambda: [machine.run("main").value],
            expected,
        )
    cells = []
    for _ in range(2):
        module, space, expected = build_diamond_outer_short_inner(
            outer=200, inner=1
        )
        cells.append(
            BatchCell(module, space, MachineConfig(engine="turbo"))
        )
    machine = BatchMachine(cells)
    return (
        machine._compile("main"),
        lambda: [result.value for result in machine.run("main")],
        expected,
    )


def _trace_observation(result, trace) -> dict:
    return {
        "value": result.value,
        "counters": result.counters.as_dict(),
        "counts": trace.event_counts(),
        "spans": list(trace.spans),
        "demand": list(trace.demand),
        "branches": list(trace.branches),
        "open": trace.open_records(),
        "site_reports": {
            label: report.to_dict()
            for label, report in site_reports(trace).items()
        },
    }


class TestFusionShape:
    def test_plain_loop_fuses_to_depth_one(self):
        module, _, _ = build_sum_loop()
        tcf = compile_turbo(module.functions["main"])
        assert isinstance(tcf, TurboCompiledFunction)
        fused = tcf.superblocks()
        assert [sb.header for sb in fused] == ["loop"]
        assert fused[0].depth == 1
        # One iteration of ``loop``: mul, gep, add, add, lt (5 ALU) +
        # br (1 branch) + 1 load = 7 retired; the guard bound charges
        # the load the worst demand latency, LLC 40 + DRAM 360.
        mem_lat = 40 + 360
        assert fused[0].bound_retired == 7
        assert fused[0].bound_cycles == 5 + 1 + 1 * mem_lat

    def test_nest_fuses_to_depth_two_and_keeps_inner(self):
        module, _, _ = build_nested_indirect()
        tcf = compile_turbo(module.functions["main"])
        by_header = {sb.header: sb for sb in tcf.superblocks()}
        # The outer unit absorbs the fused inner loop; the inner loop
        # also keeps a standalone superblock at its own header, where
        # a run resumed after a mid-nest sample re-enters bulk mode.
        assert by_header["outer_h"].depth == 2
        assert by_header["inner_h"].depth == 1
        assert set(by_header["inner_h"].path) <= set(
            by_header["outer_h"].path
        )
        stats = tcf.stats()
        assert stats["superblocks"] == 2
        assert stats["max_fusion_depth"] == 2
        # The bounds cover one iteration of every loop in the nest.
        # inner_h: gep, add, gep, add, add, lt (6 ALU) + br + 3 loads.
        mem_lat = 40 + 360
        assert by_header["inner_h"].bound_retired == 10
        assert by_header["inner_h"].bound_cycles == 6 + 1 + 3 * mem_lat
        # outer_h adds its own blocks to the inner iteration: outer_h
        # (gep + jmp) and outer_latch (add, lt + br) = 5 more retired,
        # 5 more constant cycles, no more loads.
        assert by_header["outer_h"].bound_retired == 10 + 5
        assert by_header["outer_h"].bound_cycles == 7 + 5 + 3 * mem_lat

    def test_diamond_body_is_rejected_but_inner_fuses(self):
        module, _, _ = build_diamond_outer_short_inner()
        tcf = compile_turbo(module.functions["main"])
        assert [sb.header for sb in tcf.superblocks()] == ["inner_h"]

    def test_generated_source_shape(self):
        module, _, _ = build_sum_loop()
        tcf = compile_turbo(module.functions["main"])
        sb = tcf.superblocks()[0]
        assert "def __superblock(R, st, mem):" in sb.source_plain
        # The entry guard and the hoisted observation-point limits.
        assert "_gc = st.next_sample" in sb.source_plain
        assert "_gm = st.max_instructions" in sb.source_plain
        assert "return -1" in sb.source_plain
        # The profiled variant records branches; the plain one must not.
        assert "lbr_push" in sb.source_profiled
        assert "lbr_push" not in sb.source_plain


@pytest.mark.parametrize(
    "builder",
    [build_sum_loop, build_indirect_loop, build_nested_indirect,
     build_diamond_outer_short_inner],
    ids=["sum", "indirect", "nested", "diamond"],
)
class TestBulkSteppingIsExact:
    def _run(self, builder, engine, profile_period=None, config=None):
        module, space, expected = builder()
        machine = Machine(module, space, config=config, engine=engine)
        if profile_period is not None:
            machine.enable_profiling(period=profile_period)
        result = machine.run("main")
        return machine, result, expected

    def test_matches_reference(self, builder):
        machine_t, result_t, expected = self._run(builder, "turbo")
        machine_r, result_r, _ = self._run(builder, "reference")
        assert result_t.value == result_r.value == expected
        assert (
            machine_t.counters.as_dict() == machine_r.counters.as_dict()
        )

    def test_matches_reference_with_sampler(self, builder):
        # A short period forces the guard to bail near every sample so
        # the observation fires at the exact per-block boundary.
        machine_t, result_t, _ = self._run(builder, "turbo", profile_period=300)
        machine_r, result_r, _ = self._run(
            builder, "reference", profile_period=300
        )
        assert result_t.value == result_r.value
        assert (
            machine_t.counters.as_dict() == machine_r.counters.as_dict()
        )
        assert machine_t.sampler.samples == machine_r.sampler.samples
        assert (
            machine_t.sampler.load_miss_counts
            == machine_r.sampler.load_miss_counts
        )


class TestDispatchContract:
    def test_execution_limit_raises_like_reference(self):
        module, _, _ = build_sum_loop(n=1000)
        config = MachineConfig(max_instructions=500)
        for engine in ("turbo", "reference"):
            machine = Machine(
                module, build_sum_loop(n=1000)[1], config=config, engine=engine
            )
            with pytest.raises(ExecutionLimitExceeded):
                machine.run("main")

    def test_traced_run_bulk_steps_like_its_substrate(self):
        # A traced run enters the profiled stepper and stays
        # bit-identical — value, counters and every trace stream — to
        # the same traced run on turbo's per-block substrate.
        def traced(substrate: bool):
            module, space, expected = build_indirect_loop()
            AinsworthJonesPass(AinsworthJonesConfig(distance=4)).run(module)
            machine = Machine(
                module,
                space,
                config=MachineConfig(memory=tiny_memory()),
                engine="turbo",
            )
            if substrate:
                function = module.function("main")
                machine._compiled["main"] = TurboCompiledFunction(
                    compile_blocks(function, machine.config),
                    (None,) * len(function.blocks),
                )
            trace = machine.enable_tracing()
            result = machine.run("main")
            assert result.value == expected
            return machine, _trace_observation(result, trace)

        machine, fused = traced(substrate=False)
        _, blocks = traced(substrate=True)
        assert machine.engine_run_stats()["bulk_iters"] > 0
        assert fused["counts"]["spans"] > 0
        assert fused["counts"]["branches"] > 0
        assert fused == blocks

    def test_traced_and_untraced_runs_share_one_compile(self):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, engine="turbo")
        machine.enable_tracing()
        traced = machine.run("main")
        tcf = machine._compiled["main"]
        assert tcf.superblocks()
        traced_iters = machine.engine_run_stats()["bulk_iters"]
        assert traced_iters > 0

        machine.disable_tracing()
        untraced = machine.run("main")
        assert machine._compiled["main"] is tcf
        stats = machine.engine_run_stats()
        assert stats["compiled_functions"] == 1
        assert stats["bulk_iters"] > traced_iters

        # Bit-identical to a fresh untraced machine doing the same runs.
        fresh_module, fresh_space, _ = build_indirect_loop()
        fresh = Machine(fresh_module, fresh_space, engine="turbo")
        for result in (traced, untraced):
            twin = fresh.run("main")
            assert result.value == twin.value == expected
            assert result.counters.as_dict() == twin.counters.as_dict()

    def test_traced_unprofiled_low_pebs_threshold_matches_reference(self):
        # A PEBS threshold at or below the L1 latency makes the profiled
        # stepper record every L1 hit; a traced run takes that stepper
        # with no sampler armed and must record nothing.
        config = MachineConfig(memory=tiny_memory(), pebs_latency_threshold=1)
        assert config.pebs_latency_threshold <= config.memory.l1.latency
        observations = {}
        for engine in ("reference", "turbo"):
            module, space, expected = build_indirect_loop()
            AinsworthJonesPass(AinsworthJonesConfig(distance=4)).run(module)
            machine = Machine(module, space, config=config, engine=engine)
            trace = machine.enable_tracing()
            result = machine.run("main")
            assert result.value == expected
            observations[engine] = _trace_observation(result, trace)
        assert machine.engine_run_stats()["bulk_iters"] > 0
        assert observations["turbo"] == observations["reference"]

    def test_bulk_stepping_engages_without_tracing(self):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, engine="turbo")
        tcf = machine._compile("main")
        calls = 0
        sb = tcf.superblocks()[0]
        original = sb.run_plain

        def counting(R, st, fp):
            nonlocal calls
            calls += 1
            return original(R, st, fp)

        sb.run_plain = counting
        try:
            result = machine.run("main")
        finally:
            sb.run_plain = original
        assert result.value == expected
        assert calls > 0

    def test_adaptive_bypass_stops_short_trip_bulk_calls(self):
        # 200 outer iterations enter the 1-trip inner superblock once
        # each; after the warmup window the dispatch loop must clear
        # the slot and stop paying the bulk-call prologue — on both
        # fused tiers, which run the same loop.
        for tier in TIERS:
            compiled, run, expected = short_trip_runner(tier)
            calls = 0
            sb = compiled.superblocks()[0]
            original = sb.run_plain

            def counting(R, st, env):
                nonlocal calls
                calls += 1
                return original(R, st, env)

            sb.run_plain = counting
            try:
                values = run()
            finally:
                sb.run_plain = original
            assert set(values) == {expected}, tier
            assert calls == _ADAPT_WARMUP, tier
            assert compiled.stats()["adaptive_cleared"] == 1, tier

    def test_adaptive_bypass_is_per_run(self):
        # The cleared slot is run-local state: a fresh run warms up
        # again (and stays bit-identical either way).
        for tier in TIERS:
            compiled, run, expected = short_trip_runner(tier)
            first = run()
            second = run()
            assert set(first) == set(second) == {expected}, tier
            stats = compiled.stats()
            assert stats["bulk_calls"] == 2 * _ADAPT_WARMUP, tier
            assert stats["adaptive_cleared"] == 2, tier
