"""Persistent AOT code-cache benchmark: cold codegen vs warm load.

Times the turbo engine's compile phase two ways over a workload
ladder:

* **cold** — the code cache force-disabled (``code_cache="off"``): the
  turbo engine runs superblock discovery + per-superblock codegen +
  ``compile()``;
* **warm** — a fresh :class:`~repro.machine.machine.Machine` pointed at
  a pre-populated cache directory: the marshaled code objects are
  loaded, validated and rebound instead of regenerated.

Both sides go through ``Machine._compile`` — the exact load-or-compile
path production runs take — and the measured phase is compile-only (the
ladder a warm service/agent skips); execution cost is identical on both
sides by construction.  Before timing, a full cold run and a full warm
run of the same program are compared for bit-identity (value + the full
PMU counter vector): a code cache that changed results would make any
speedup meaningless.  The warm side must also be a *real* cache hit —
zero misses, zero invalidations — so the benchmark can never silently
measure a recompile.

Standalone use (writes ``BENCH_codecache.json`` next to this file)::

    PYTHONPATH=src python benchmarks/bench_codecache.py [--scale tiny]

or as a bench test::

    pytest benchmarks/bench_codecache.py --benchmark-only

See docs/PERFORMANCE.md for how to read the emitted JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.machine import Machine
from repro.machine import codecache
from repro.machine.config import MachineConfig
from repro.workloads.registry import make_workload

#: A ladder of workloads, compiled back to back, so the measured phase
#: is tens of milliseconds instead of one ~4ms compile — the per-call
#: noise floor would otherwise dominate a single-workload probe.
DEFAULT_WORKLOADS = ("BFS-tiny", "Graph500", "BC-12K-d8", "PR-WG", "CG")

#: The engines with a serializable compiled form.
ENGINES = codecache.CACHEABLE_ENGINES

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_codecache.json"


def _build(workload: str, scale: str):
    instance = make_workload(workload, scale)
    module, space = instance.build()
    return module, space, instance.entry


def _ladder_seconds(programs, config, engine: str) -> float:
    """Wall seconds to compile every program's entry, fresh Machines."""
    total = 0.0
    for module, space, entry in programs:
        machine = Machine(module, space, config=config, engine=engine)
        start = time.perf_counter()
        machine._compile(entry)
        total += time.perf_counter() - start
    return total


def _signature(module, space, config, entry: str, engine: str) -> dict:
    result = Machine(module, space, config=config, engine=engine).run(entry)
    return {"value": result.value, **result.counters.as_dict()}


def measure_codecache(
    workloads: tuple = DEFAULT_WORKLOADS,
    scale: str = "tiny",
    reps: int = 3,
) -> dict:
    """Cold-vs-warm compile ladder for every cacheable engine.

    Returns ``{"cold_s": {engine: s}, "warm_s": {engine: s}, "speedup":
    {engine: ratio}, ...}`` where each time is the best of ``reps``
    over the whole workload ladder.
    """
    programs = [_build(name, scale) for name in workloads]
    base = MachineConfig()
    cold_config = replace(base, code_cache="off")

    cold_s: dict[str, float] = {}
    warm_s: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codecache-") as tmp:
        try:
            warm_config = replace(base, code_cache=tmp)
            cache = codecache.resolve(tmp)
            for engine in ENGINES:
                # Bit-identity first, on the ladder's first workload: a
                # fresh-compile run and a cached-load run must agree on
                # everything the PMU can see.  (Runs mutate workload
                # data segments, so each gets a fresh build.)
                workload = workloads[0]
                module_a, space_a, entry = _build(workload, scale)
                fresh = _signature(module_a, space_a, cold_config, entry,
                                   engine)
                module_b, space_b, _ = _build(workload, scale)
                _signature(module_b, space_b, warm_config, entry, engine)
                module_c, space_c, _ = _build(workload, scale)
                hits = cache.hits
                cached = _signature(module_c, space_c, warm_config, entry,
                                    engine)
                if cached != fresh:
                    raise AssertionError(
                        f"{workload}/{engine}: cached-load run is not "
                        "bit-identical with the fresh-compile run"
                    )
                if cache.hits == hits or cache.invalidated:
                    raise AssertionError(
                        f"{workload}/{engine}: warm run was not a clean "
                        "cache hit (the benchmark would measure a "
                        "recompile)"
                    )

                # Populate the cache for every ladder rung (untimed),
                # then time cold vs warm ladders.
                _ladder_seconds(programs, warm_config, engine)
                cold = warm = float("inf")
                for _ in range(reps):
                    cold = min(cold, _ladder_seconds(
                        programs, cold_config, engine
                    ))
                    warm = min(warm, _ladder_seconds(
                        programs, warm_config, engine
                    ))
                cold_s[engine] = cold
                warm_s[engine] = warm
        finally:
            codecache.forget(tmp)

    return {
        "workloads": list(workloads),
        "scale": scale,
        "cold_s": {e: round(s, 6) for e, s in cold_s.items()},
        "warm_s": {e: round(s, 6) for e, s in warm_s.items()},
        "speedup": {
            e: round(cold_s[e] / max(warm_s[e], 1e-9), 3) for e in cold_s
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_codecache_cold_vs_warm(benchmark):
    report = benchmark.pedantic(measure_codecache, iterations=1, rounds=1)
    print()
    print(json.dumps(report["speedup"], indent=2))
    # A warm turbo load skips superblock discovery, codegen and
    # compile(); well below a third of the cold build is the contract
    # the warm-agent story rests on.
    assert report["speedup"]["turbo"] >= 3.0, report["speedup"]


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        metavar="NAME",
    )
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions (min is kept)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, metavar="PATH"
    )
    args = parser.parse_args()

    report = measure_codecache(
        tuple(args.workloads), args.scale, reps=args.reps
    )
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.output}")
    print(
        f"  {len(report['workloads'])}-workload ladder @"
        f"{report['scale']}: compile phase"
    )
    for engine in ENGINES:
        print(
            f"  {engine:9s} cold={report['cold_s'][engine]:.4f}s "
            f"warm={report['warm_s'][engine]:.4f}s "
            f"-> {report['speedup'][engine]:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
