"""Tests for multi-function programs (the CALL opcode): semantics,
engine parity, clock continuity, LBR recording, verifier checks, slice
safety, and printer/parser round-trip."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import IRError, Module
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_module
from repro.ir.printer import format_module
from repro.ir.verifier import VerificationError, verify_module
from repro.machine.config import ENGINES
from repro.machine.machine import Machine
from repro.mem.address import AddressSpace


def build_two_function_module(n=50, seed=3):
    """main: for i<n: acc += lookup(i) ; lookup(i) = T[B[i]]."""
    import random

    rng = random.Random(seed)
    space = AddressSpace()
    b_seg = space.allocate(
        "B", [rng.randrange(1 << 12) for _ in range(n + 600)], elem_size=8
    )
    t_seg = space.allocate(
        "T", [rng.randrange(1000) for _ in range(1 << 12)], elem_size=8
    )
    expected = sum(
        t_seg.values[b_seg.values[i]] for i in range(n)
    )

    module = Module("twofn")
    b = IRBuilder(module)

    b.function("lookup", params=["i"])
    b.at(b.block("entry"))
    ba = b.gep(b_seg.base, "i", 8)
    idx = b.load(ba, name="idx")
    ta = b.gep(t_seg.base, idx, 8)
    value = b.load(ta, name="value")
    b.ret(value)

    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    value = b.call("lookup", [i], name="v")
    acc2 = b.add(acc, value, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    cond = b.lt(i2, n, name="cond")
    b.br(cond, loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    verify_module(module, strict=True)
    return module, space, expected


class TestCallSemantics:
    def test_value_correct(self):
        module, space, expected = build_two_function_module()
        result = Machine(module, space).run("main")
        assert result.value == expected

    def test_engines_bit_identical(self):
        module, _, expected = build_two_function_module()
        results = {}
        for engine in ENGINES:
            _, space, _ = build_two_function_module()
            machine = Machine(module, space, engine=engine)
            machine.enable_profiling(period=97)
            results[engine] = (machine, machine.run("main"))
        ma, a = results["reference"]
        for engine in ENGINES:
            mb, b = results[engine]
            assert a.value == b.value == expected, engine
            assert a.counters.as_dict() == b.counters.as_dict(), engine
            assert ma.sampler.samples == mb.sampler.samples, engine

    def test_clock_continuity(self):
        """Cycles accumulate across the call boundary: the called version
        costs at least as much as an inlined equivalent."""
        module, space, _ = build_two_function_module(n=30)
        called = Machine(module, space).run("main")
        # Reference: hand-inlined loop.
        import random

        rng = random.Random(3)
        space2 = AddressSpace()
        b_seg = space2.allocate(
            "B", [rng.randrange(1 << 12) for _ in range(30 + 600)], elem_size=8
        )
        t_seg = space2.allocate(
            "T", [rng.randrange(1000) for _ in range(1 << 12)], elem_size=8
        )
        module2 = Module("inline")
        b = IRBuilder(module2)
        b.function("main")
        entry, loop, done = b.blocks("entry", "loop", "done")
        b.at(entry)
        b.jmp(loop)
        b.at(loop)
        i = b.phi([(entry, 0)], name="i")
        acc = b.phi([(entry, 0)], name="acc")
        ba = b.gep(b_seg.base, i, 8)
        idx = b.load(ba, name="idx")
        ta = b.gep(t_seg.base, idx, 8)
        value = b.load(ta, name="value")
        acc2 = b.add(acc, value, name="acc2")
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, loop, i2)
        b.add_incoming(acc, loop, acc2)
        cond = b.lt(i2, 30, name="cond")
        b.br(cond, loop, done)
        b.at(done)
        b.ret(acc2)
        module2.finalize()
        inlined = Machine(module2, space2).run("main")
        assert called.counters.cycles > inlined.counters.cycles
        assert called.value == inlined.value

    def test_call_recorded_in_lbr(self):
        module, space, _ = build_two_function_module()
        machine = Machine(module, space)
        machine.enable_profiling(period=50)
        machine.run("main")
        callee_entry = module.function("lookup").entry.start_pc
        hits = sum(
            1
            for sample in machine.sampler.samples
            for entry in sample
            if entry[1] == callee_entry
        )
        assert hits > 0

    def test_recursion(self):
        module = Module("fact")
        b = IRBuilder(module)
        b.function("fact", params=["n"])
        entry, base, rec = b.blocks("entry", "base", "rec")
        b.at(entry)
        c = b.le("n", 1, name="c")
        b.br(c, base, rec)
        b.at(base)
        b.ret(1)
        b.at(rec)
        n1 = b.sub("n", 1, name="n1")
        sub = b.call("fact", [n1], name="sub")
        product = b.mul("n", sub, name="product")
        b.ret(product)
        module.finalize()
        verify_module(module)
        for engine in ENGINES:
            machine = Machine(module, AddressSpace(), engine=engine)
            assert machine.run("fact", (6,)).value == 720

    def test_missing_trampoline_raises(self):
        from repro.machine.interpreter import run_function
        from repro.machine.context import ExecutionContext
        from repro.machine.config import MachineConfig
        from repro.machine.lbr import NullLBR
        from repro.machine.pmu import Counters
        from repro.mem.hierarchy import MemorySystem

        module, space, _ = build_two_function_module(n=2)
        config = MachineConfig()
        counters = Counters()
        ctx = ExecutionContext(
            space=space,
            mem=MemorySystem(config.memory, space, counters),
            counters=counters,
            lbr=NullLBR(),
            config=config,
            sampler=None,
            invoke=None,
        )
        with pytest.raises(IRError, match="trampoline"):
            run_function(module.function("main"), ctx, ())


class TestCallVerification:
    def test_unknown_callee(self):
        module = Module("bad")
        b = IRBuilder(module)
        b.function("main")
        b.at(b.block("entry"))
        v = b.call("ghost", [])
        b.ret(v)
        module.finalize()
        with pytest.raises(VerificationError, match="unknown function"):
            verify_module(module)

    def test_wrong_arity(self):
        module = Module("bad2")
        b = IRBuilder(module)
        b.function("callee", params=["a", "b"])
        b.at(b.block("entry"))
        b.ret("a")
        b.function("main")
        b.at(b.block("entry"))
        v = b.call("callee", [1])
        b.ret(v)
        module.finalize()
        with pytest.raises(VerificationError, match="expects"):
            verify_module(module)


class TestCallAndPasses:
    def test_slice_crossing_call_is_opaque(self):
        """A load whose address comes from a call result must not be
        selected for prefetch injection."""
        from repro.analysis.loops import find_loops
        from repro.analysis.slices import extract_load_slice, find_indirect_loads

        import random

        rng = random.Random(5)
        space = AddressSpace()
        t_seg = space.allocate(
            "T", [rng.randrange(100) for _ in range(1 << 10)], elem_size=8
        )
        module = Module("opq")
        b = IRBuilder(module)
        b.function("hash", params=["x"])
        b.at(b.block("entry"))
        h = b.and_("x", (1 << 10) - 1, name="h")
        b.ret(h)
        b.function("main")
        entry, loop, done = b.blocks("entry", "loop", "done")
        b.at(entry)
        b.jmp(loop)
        b.at(loop)
        i = b.phi([(entry, 0)], name="i")
        hashed = b.call("hash", [i], name="hashed")
        ta = b.gep(t_seg.base, hashed, 8, name="ta")
        v = b.load(ta, name="v")
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, loop, i2)
        c = b.lt(i2, 100, name="c")
        b.br(c, loop, done)
        b.at(done)
        b.ret(v)
        module.finalize()
        verify_module(module)

        function = module.function("main")
        load = next(
            inst for inst in function.instructions() if inst.dst == "v"
        )
        load_slice = extract_load_slice(function, load)
        assert load_slice.has_call
        loops = find_loops(function)
        from repro.passes.inject import inject_inner

        result = inject_inner(function, load, load_slice, loops[0], distance=4)
        assert not result.success
        assert "call" in result.reason

    def test_cleanup_does_not_touch_calls(self):
        from repro.passes.cleanup import dead_code_elimination

        module, _, _ = build_two_function_module(n=5)
        function = module.function("main")
        before = sum(
            1
            for inst in function.instructions()
            if inst.op is Opcode.CALL
        )
        dead_code_elimination(function)
        after = sum(
            1
            for inst in function.instructions()
            if inst.op is Opcode.CALL
        )
        assert before == after == 1


class TestCallTextFormat:
    def test_roundtrip(self):
        module, _, _ = build_two_function_module(n=4)
        text = format_module(module)
        assert "call lookup(" in text
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert format_module(reparsed) == text

    def test_executes_after_roundtrip(self):
        module, space, expected = build_two_function_module(n=12)
        reparsed = parse_module(format_module(module))
        _, space2, _ = build_two_function_module(n=12)
        assert Machine(reparsed, space2).run("main").value == expected
