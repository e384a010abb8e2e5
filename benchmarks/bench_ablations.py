"""Ablation benches for the design choices called out in DESIGN.md:
fill-buffer capacity, Eq-2's k constant, outer-site sweep width, and
minimal vs. full slice cloning.
"""

from __future__ import annotations

import dataclasses

from repro.core.aptget import AptGet, AptGetConfig
from repro.core.site import InjectionSite
from repro.experiments.runner import (
    profile_workload,
    run_ainsworth_jones,
    run_baseline,
    run_with_hints,
)
from repro.machine.config import MachineConfig, paper_like_memory
from repro.machine.machine import Machine
from repro.passes.ainsworth_jones import AinsworthJonesConfig, AinsworthJonesPass
from repro.profiling.collect import collect_profile
from repro.workloads.hashjoin import HashJoinWorkload
from repro.workloads.micro import IndirectMicrobenchmark


def _micro() -> IndirectMicrobenchmark:
    return IndirectMicrobenchmark(
        inner=256, complexity="low", total_iterations=30_000
    )


def _hj() -> HashJoinWorkload:
    return HashJoinWorkload(8, "NPO", probes=30_000)


def test_ablation_mshr_capacity(benchmark):
    """More fill buffers -> more overlap -> higher prefetched speedup."""

    def sweep():
        speedups = {}
        for entries in (4, 12, 48):
            memory = dataclasses.replace(paper_like_memory(), mshr_entries=entries)
            config = MachineConfig(memory=memory)
            base = run_baseline(_micro(), config=config)
            opt = run_ainsworth_jones(_micro(), distance=32, config=config)
            # re-run A&J under this config
            module, space = _micro().build()
            AinsworthJonesPass(AinsworthJonesConfig(distance=32)).run(module)
            result = Machine(module, space, config=config).run("main")
            speedups[entries] = base.cycles / result.counters.cycles
            del opt
        return speedups

    speedups = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nmshr ablation:", speedups)
    assert speedups[48] > speedups[4]


def test_ablation_eq2_k(benchmark):
    """Eq-2's k steers the site decision: tiny k forces inner, the paper
    default picks outer for short-trip hash-join buckets."""

    def sweep():
        sites = {}
        for k in (0.1, 5.0, 50.0):
            workload = _hj()
            module, space = workload.build()
            machine = Machine(module, space)
            profile = collect_profile(machine, workload.entry)
            hints = AptGet(AptGetConfig(k=k)).analyze(module, profile)
            sites[k] = {h.site.value for h in hints}
        return sites

    sites = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nEq-2 k ablation:", sites)
    assert "outer" not in sites[0.1]
    assert "outer" in sites[5.0]
    assert "outer" in sites[50.0]


def test_ablation_outer_sweep_width(benchmark):
    """Sweeping the inner IV in outer-site slices lifts coverage when the
    inner iterations touch distinct cache lines (indirect addresses, as
    in graph traversals / the microbenchmark's ``T[BO[i]+BI[j]]``)."""

    def _short_micro():
        return IndirectMicrobenchmark(
            inner=8, complexity="low", total_iterations=30_000
        )

    def sweep():
        base = run_baseline(_short_micro())
        _, hints = profile_workload(_short_micro())
        speedups = {}
        for width in (1, 4, 8):
            forced = []
            for hint in hints:
                clone = dataclasses.replace(hint, sweep=width)
                clone.site = InjectionSite.OUTER
                if clone.outer_distance is None:
                    clone.outer_distance = clone.distance
                forced.append(clone)
            from repro.core.hints import HintSet

            run = run_with_hints(_short_micro(), HintSet.from_hints(forced))
            speedups[width] = base.cycles / run.cycles
        return speedups

    speedups = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nouter sweep ablation:", speedups)
    assert speedups[8] > speedups[1]


def test_ablation_sweep_line_dedup(benchmark):
    """For *linear* inner addresses (hash-bucket scans) the sweep steps by
    whole cache lines: forcing a wide sweep on HJ8 must not emit 8x the
    prefetches (all 8 slots share one 64-byte line)."""

    def measure():
        _, hints = profile_workload(_hj())
        forced = []
        for hint in hints:
            clone = dataclasses.replace(hint, sweep=8)
            clone.site = InjectionSite.OUTER
            if clone.outer_distance is None:
                clone.outer_distance = clone.distance
            forced.append(clone)
        from repro.core.hints import HintSet

        run = run_with_hints(_hj(), HintSet.from_hints(forced))
        assert run.report is not None
        return max(
            entry["prefetches"] for entry in run.report.injected
        )

    prefetches = benchmark.pedantic(measure, iterations=1, rounds=1)
    print("\nsweep line-dedup: prefetches per site =", prefetches)
    assert prefetches == 1  # one line per 8-slot bucket


def test_ablation_minimal_clone_overhead(benchmark):
    """APT-GET's minimal slice cloning adds fewer instructions than the
    baseline's full cloning (one source of Fig 11's gap)."""

    def measure():
        base = run_baseline(_micro())
        base_instructions = base.result.counters.instructions
        _, hints = profile_workload(_micro())
        apt = run_with_hints(_micro(), hints)
        module, space = _micro().build()
        AinsworthJonesPass(AinsworthJonesConfig(distance=32)).run(module)
        aj = Machine(module, space).run("main")
        return (
            apt.result.counters.instructions / base_instructions,
            aj.counters.instructions / base_instructions,
        )

    apt_overhead, aj_overhead = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    print(f"\nclone ablation: apt={apt_overhead:.3f} aj={aj_overhead:.3f}")
    assert apt_overhead <= aj_overhead


def test_ablation_engine_parity_throughput(benchmark):
    """Both engines agree bit-for-bit; turbo is much faster."""
    import time

    workload = IndirectMicrobenchmark(
        inner=64, complexity="low", total_iterations=10_000,
        target_elems=1 << 18,
    )

    def measure():
        timings = {}
        counters = {}
        for engine in ("reference", "turbo"):
            module, space = workload.build()
            machine = Machine(module, space, engine=engine)
            start = time.perf_counter()
            result = machine.run("main")
            timings[engine] = time.perf_counter() - start
            counters[engine] = result.counters.as_dict()
        assert counters["reference"] == counters["turbo"]
        return timings

    timings = benchmark.pedantic(measure, iterations=1, rounds=1)
    print(
        f"\nengine ablation: reference={timings['reference']:.2f}s "
        f"turbo={timings['turbo']:.2f}s "
        f"({timings['reference'] / timings['turbo']:.1f}x)"
    )
    assert timings["turbo"] < timings["reference"]


def test_ablation_hw_prefetcher_interplay(benchmark):
    """Paper §4.4 leaves HW/SW prefetch interplay to future work; this
    ablation measures it: APT-GET's gains persist (and grow) when the
    hardware prefetchers are disabled, because its targets are the
    indirect loads hardware cannot cover anyway."""

    def sweep():
        from repro.core.aptget import AptGet
        from repro.passes.aptget_pass import AptGetPass

        speedups = {}
        for hw_on in (True, False):
            memory = dataclasses.replace(
                paper_like_memory(),
                stride_prefetcher=hw_on,
                next_line_prefetcher=hw_on,
            )
            config = MachineConfig(memory=memory)
            base = run_baseline(_micro(), config=config)
            workload = _micro()
            module, space = workload.build()
            machine = Machine(module, space, config=config)
            profile = collect_profile(machine, workload.entry)
            hints = AptGet().analyze(module, profile)
            module2, space2 = _micro().build()
            AptGetPass(hints).run(module2)
            result = Machine(module2, space2, config=config).run("main")
            speedups[hw_on] = base.cycles / result.counters.cycles
        return speedups

    speedups = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nhw-prefetcher interplay:", speedups)
    # APT-GET helps in both worlds.
    assert speedups[True] > 1.2
    assert speedups[False] > 1.2
