"""Execution-engine tests: interpreter semantics, turbo codegen, and
cross-engine differential equality (all engines must agree bit-for-bit
on values, cycles, counters, and LBR contents)."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import IRError, Module
from repro.machine.config import ENGINES, MachineConfig
from repro.machine.interpreter import ExecutionLimitExceeded, run_function
from repro.machine.machine import Machine
from repro.machine.superblock import compile_turbo
from repro.mem.address import AddressSpace
from tests.conftest import (
    build_indirect_loop,
    build_nested_indirect,
    build_sum_loop,
    tiny_memory,
)


def both_engines(module, space_factory, function="main", args=(), profile=False):
    """Run on every engine with fresh state; return machines keyed by engine."""
    results = {}
    for engine in ENGINES:
        space = space_factory()
        machine = Machine(module, space, engine=engine)
        if profile:
            machine.enable_profiling(period=500)
        results[engine] = (machine, machine.run(function, args))
    return results


class TestSemantics:
    def test_sum_loop_value(self, sum_loop):
        module, space, expected = sum_loop
        result = Machine(module, space, engine="reference").run("main")
        assert result.value == expected

    def test_indirect_loop_value(self, indirect_loop):
        module, space, expected = indirect_loop
        result = Machine(module, space).run("main")
        assert result.value == expected

    def test_nested_value(self, nested_indirect):
        module, space, expected = nested_indirect
        result = Machine(module, space).run("main")
        assert result.value == expected

    def test_function_args(self):
        module = Module("a")
        b = IRBuilder(module)
        b.function("addmul", params=["x", "y"])
        b.at(b.block("entry"))
        s = b.add("x", "y")
        p = b.mul(s, 2)
        b.ret(p)
        module.finalize()
        space = AddressSpace()
        for engine in ENGINES:
            machine = Machine(module, space, engine=engine)
            assert machine.run("addmul", (3, 4)).value == 14

    def test_wrong_arity_rejected(self):
        module = Module("a")
        b = IRBuilder(module)
        b.function("f", params=["x"])
        b.at(b.block("entry"))
        b.ret("x")
        module.finalize()
        space = AddressSpace()
        for engine in ENGINES:
            with pytest.raises(IRError):
                Machine(module, space, engine=engine).run("f", ())

    def test_all_alu_opcodes(self):
        module = Module("alu")
        b = IRBuilder(module)
        b.function("f", params=["x"])
        b.at(b.block("entry"))
        r = b.add("x", 10)       # 17
        r = b.sub(r, 3)          # 14
        r = b.mul(r, 3)          # 42
        r = b.div(r, 4)          # 10
        r = b.rem(r, 7)          # 3
        r = b.shl(r, 4)          # 48
        r = b.shr(r, 1)          # 24
        r = b.or_(r, 1)          # 25
        r = b.xor(r, 5)          # 28
        r = b.and_(r, 30)        # 28
        r = b.min(r, 20)         # 20
        r = b.max(r, 21)         # 21
        c = b.ge(r, 21)          # 1
        r = b.select(c, r, 0)    # 21
        cmps = [
            b.eq(r, 21), b.ne(r, 21), b.lt(r, 21),
            b.le(r, 21), b.gt(r, 21),
        ]
        total = r
        for cmp_reg in cmps:
            total = b.add(total, cmp_reg)
        b.ret(total)  # 21 + 1+0+0+1+0 = 23
        module.finalize()
        space = AddressSpace()
        for engine in ENGINES:
            assert Machine(module, space, engine=engine).run("f", (7,)).value == 23

    def test_const_mov_work(self):
        module = Module("cmw")
        b = IRBuilder(module)
        b.function("f")
        b.at(b.block("entry"))
        c = b.const(11)
        m = b.mov(c)
        b.work(5)
        b.ret(m)
        module.finalize()
        space = AddressSpace()
        for engine in ENGINES:
            result = Machine(module, space, engine=engine).run("f")
            assert result.value == 11
            # const + mov + work(5) + ret = 2 + 5 + 1 retired.
            assert result.counters.instructions == 8

    def test_store_visible_to_later_load(self):
        space_template = AddressSpace()
        seg = space_template.allocate("cell", [0], elem_size=8)
        module = Module("st")
        b = IRBuilder(module)
        b.function("f")
        b.at(b.block("entry"))
        b.store(seg.base, 123)
        v = b.load(seg.base)
        b.ret(v)
        module.finalize()
        for engine in ENGINES:
            space = AddressSpace()
            space.allocate("cell", [0], elem_size=8)
            assert Machine(module, space, engine=engine).run("f").value == 123

    def test_execution_limit(self):
        module = Module("inf")
        b = IRBuilder(module)
        b.function("f")
        entry, loop = b.blocks("entry", "loop")
        b.at(entry)
        b.jmp(loop)
        b.at(loop)
        b.work(10)
        b.jmp(loop)
        module.finalize()
        config = MachineConfig(max_instructions=10_000)
        space = AddressSpace()
        for engine in ENGINES:
            with pytest.raises(ExecutionLimitExceeded):
                Machine(module, space, config=config, engine=engine).run("f")

    def test_prefetch_instruction_is_nonbinding(self, indirect_loop):
        # A module with prefetches to wild addresses must not crash.
        module = Module("pf")
        b = IRBuilder(module)
        b.function("f")
        b.at(b.block("entry"))
        b.prefetch(0xDEAD_BEEF)
        b.ret(0)
        module.finalize()
        space = AddressSpace()
        for engine in ENGINES:
            result = Machine(module, space, engine=engine).run("f")
            assert result.counters.sw_prefetch_dropped_unmapped == 1


class TestDifferential:
    @pytest.mark.parametrize(
        "builder",
        [build_sum_loop, build_indirect_loop, build_nested_indirect],
        ids=["sum", "indirect", "nested"],
    )
    def test_engines_bit_identical(self, builder):
        module = builder()[0]

        def fresh_space():
            return builder()[1]

        results = both_engines(module, fresh_space)
        _, a = results["reference"]
        for engine in ENGINES:
            _, b = results[engine]
            assert a.value == b.value, engine
            assert a.counters.as_dict() == b.counters.as_dict(), engine

    def test_engines_identical_with_profiling(self):
        module, _, _ = build_indirect_loop()

        def fresh_space():
            return build_indirect_loop()[1]

        results = both_engines(module, fresh_space, profile=True)
        machine_a, a = results["reference"]
        for engine in ENGINES:
            machine_b, b = results[engine]
            assert a.counters.as_dict() == b.counters.as_dict(), engine
            assert machine_a.sampler.samples == machine_b.sampler.samples
            assert (
                machine_a.sampler.load_miss_counts
                == machine_b.sampler.load_miss_counts
            )

    def test_engines_identical_after_injection(self):
        from repro.passes.ainsworth_jones import AinsworthJonesPass

        module, _, expected = build_nested_indirect()
        AinsworthJonesPass().run(module)

        def fresh_space():
            return build_nested_indirect()[1]

        results = both_engines(module, fresh_space)
        _, a = results["reference"]
        for engine in ENGINES:
            _, b = results[engine]
            assert a.value == b.value == expected, engine
            assert a.counters.as_dict() == b.counters.as_dict(), engine


class TestTranslator:
    """Turbo's IR-to-Python translation (closure chains + generated
    superblock source)."""

    def test_requires_finalized_module(self):
        module = Module("x")
        b = IRBuilder(module)
        b.function("f")
        b.at(b.block("entry"))
        b.ret(0)
        with pytest.raises(IRError):
            compile_turbo(module.function("f"))

    def test_source_is_inspectable(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space, engine="turbo")
        (superblock,) = machine._compile("main").superblocks()
        assert "def __superblock" in superblock.source_plain
        assert "lbr_push" not in superblock.source_plain
        assert "lbr_push" in superblock.source_profiled

    def test_compiled_function_cached(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space, engine="turbo")
        machine.run("main")
        first = machine._compiled["main"]
        machine.run("main")
        assert machine._compiled["main"] is first

    def test_lbr_entries_recorded(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space)
        machine.enable_profiling(period=10)
        machine.run("main")
        assert machine.sampler.samples
        sample = machine.sampler.samples[-1]
        latch_pc = module.function("main").block("loop").end_pc
        assert any(entry[0] == latch_pc for entry in sample)

    def test_cycles_accumulate_across_runs(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space)
        first = machine.run("main")
        second = machine.run("main")
        assert machine.counters.cycles == pytest.approx(
            first.counters.cycles + second.counters.cycles
        )
        # Warm caches: the second run is faster.
        assert second.counters.cycles < first.counters.cycles
