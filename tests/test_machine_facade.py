"""Tests for the Machine facade and MachineConfig/MemoryConfig plumbing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.nodes import IRError
from repro.machine.config import ENGINES, MachineConfig, paper_like_memory
from repro.machine.machine import Machine
from repro.mem.config import CacheConfig, MemoryConfig
from tests.conftest import build_indirect_loop, build_sum_loop


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, engine_env: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_ENGINE": engine_env}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestMachine:
    def test_rejects_unknown_engine(self, sum_loop):
        module, space, _ = sum_loop
        # "jit" never existed; the others are removed engines/aliases.
        for engine in ("jit", "fast", "translate", "interpret"):
            with pytest.raises(ValueError, match="engine must be one of"):
                Machine(module, space, engine=engine)
        assert ENGINES == ("turbo", "reference")

    def test_engine_defaults_from_config(self, sum_loop):
        module, space, _ = sum_loop
        config = MachineConfig(engine="reference")
        machine = Machine(module, space, config=config)
        assert machine.engine == "reference"
        assert Machine(module, space).engine == MachineConfig().engine

    def test_config_rejects_removed_engines(self):
        assert MachineConfig(engine="reference").engine == "reference"
        for engine in ("jit", "fast", "translate", "interpret"):
            with pytest.raises(ValueError, match="engine must be one of"):
                MachineConfig(engine=engine)

    def test_default_engine_is_turbo(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert MachineConfig().engine == "turbo"

    def test_stale_engine_env_does_not_break_import(self):
        done = _python("import repro, repro.machine; print('ok')", "fast")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_stale_engine_env_error_names_the_variable(self):
        done = _python(
            "from repro.machine.config import MachineConfig\n"
            "try:\n"
            "    MachineConfig()\n"
            "except ValueError as error:\n"
            "    print(error)\n",
            "translate",
        )
        assert done.returncode == 0, done.stderr
        message = done.stdout.strip()
        assert "REPRO_ENGINE" in message
        assert "'translate'" in message
        assert str(ENGINES) in message

    def test_rejects_unknown_function(self, sum_loop):
        module, space, _ = sum_loop
        with pytest.raises(IRError):
            Machine(module, space).run("ghost")

    def test_auto_finalizes_module(self):
        module, space, _ = build_sum_loop()
        module.finalized = False
        machine = Machine(module, space)
        assert module.finalized
        machine.run("main")

    def test_run_returns_delta_not_totals(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space)
        first = machine.run("main")
        second = machine.run("main")
        assert second.counters.instructions == first.counters.instructions
        assert machine.counters.instructions == 2 * first.counters.instructions

    def test_flush_caches_restores_cold_start(self):
        module, space, _ = build_indirect_loop(n=100)
        machine = Machine(module, space)
        first = machine.run("main")
        warm = machine.run("main")
        cold = machine.run("main", flush_caches=True)
        assert warm.counters.cycles < first.counters.cycles
        assert cold.counters.cycles > warm.counters.cycles

    def test_profiling_toggle(self, sum_loop):
        module, space, _ = sum_loop
        machine = Machine(module, space)
        sampler = machine.enable_profiling(period=50)
        machine.run("main")
        assert sampler.samples
        machine.disable_profiling()
        assert machine.sampler is None
        count = len(sampler.samples)
        machine.run("main")
        assert len(sampler.samples) == count

    def test_disable_profiling_keeps_trace_branch_stream(self):
        # Turning the sampler off while a trace is armed must leave the
        # trace tapped into the branch stream (the timeline rebuilds
        # loop iterations from it).
        def branches(toggle_profiling: bool) -> list:
            module, space, _ = build_indirect_loop()
            machine = Machine(module, space)
            trace = machine.enable_tracing()
            if toggle_profiling:
                machine.enable_profiling()
                machine.disable_profiling()
                assert machine.sampler is None
            machine.run("main")
            return list(trace.branches)

        toggled = branches(toggle_profiling=True)
        assert toggled
        assert toggled == branches(toggle_profiling=False)

    def test_run_result_perf_properties(self, sum_loop):
        module, space, _ = sum_loop
        result = Machine(module, space).run("main")
        assert result.cycles == result.counters.cycles
        assert result.perf.ipc > 0


class TestConfigs:
    def test_paper_like_memory_geometry(self):
        memory = paper_like_memory()
        assert memory.l1.latency < memory.l2.latency < memory.llc.latency
        assert memory.l1.size_bytes < memory.l2.size_bytes < memory.llc.size_bytes
        assert memory.dram_latency > memory.llc.latency

    def test_effective_pebs_threshold_defaults_to_llc(self):
        config = MachineConfig()
        assert (
            config.effective_pebs_threshold()
            == config.memory.llc.latency + 1
        )
        override = MachineConfig(pebs_latency_threshold=99)
        assert override.effective_pebs_threshold() == 99

    def test_with_memory(self):
        memory = MemoryConfig(
            l1=CacheConfig("L1D", 1024, 4, 2),
            l2=CacheConfig("L2", 4096, 4, 12),
            llc=CacheConfig("LLC", 16 * 1024, 8, 40),
        )
        config = MachineConfig().with_memory(memory)
        assert config.memory is memory
        assert config.alu_cost == MachineConfig().alu_cost

    def test_scaled_memory(self):
        memory = paper_like_memory()
        scaled = memory.scaled(4)
        assert scaled.llc.size_bytes == memory.llc.size_bytes // 4
        assert scaled.llc.latency == memory.llc.latency
        assert scaled.mshr_entries == memory.mshr_entries

    def test_scaled_never_below_one_set(self):
        memory = paper_like_memory()
        scaled = memory.scaled(1_000_000)
        assert scaled.l1.lines >= scaled.l1.associativity


class TestConditionalInjection:
    def test_min_latency_share_filters_minor_loads(self):
        from repro.core.aptget import AptGet, AptGetConfig
        from repro.machine.machine import Machine as M
        from repro.profiling.collect import collect_profile
        from repro.workloads.micro import IndirectMicrobenchmark

        workload = IndirectMicrobenchmark(
            inner=64, total_iterations=20_000, target_elems=1 << 17
        )
        module, space = workload.build()
        machine = M(module, space)
        profile = collect_profile(machine, "main")
        all_hints = AptGet(AptGetConfig()).analyze(module, profile)
        filtered = AptGet(AptGetConfig(min_latency_share=0.5)).analyze(
            module, profile
        )
        assert len(filtered) <= len(all_hints)
        assert len(filtered) >= 1  # the dominant T load survives
        dominant = profile.delinquent_loads(top=1)[0]
        assert filtered.hints[0].load_pc == dominant
