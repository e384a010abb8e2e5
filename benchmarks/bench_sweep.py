"""Batched multi-config sweep benchmark: one batched pass vs N runs.

Times an 8-cell A&J prefetch-distance sweep (the Figure-6-style
distance axis) on one workload:

* **batched** — all cells execute in a single
  :func:`repro.machine.batch.run_batch` pass on the ``batchturbo``
  tier: hot loop nests are fused into one generated superblock closure
  that steps every cell per iteration, while per-cell cache
  hierarchies (L1/L2/LLC + MSHRs) track each cell's timing; and
* **sequential** — the same cells run one at a time through a fresh
  :class:`~repro.machine.machine.Machine` per cell, on the ``turbo``
  engine (the honest comparator: what a sweep costs without batching)
  and on the ``reference`` interpreter.

A second ladder — the 32-cell **distance x cache-scale grid**
(:func:`measure_grid`) — times the batched pass against per-cell turbo
on divergent cell configs (four cache scales per distance), the shape
the batched superblock's per-cell overlays exist for.

Batched and per-cell turbo runs are interleaved within each rep (best
of reps kept), so machine drift hits both sides equally.

Distances start at 2: at distance 1 the A&J pass folds the loop
increment into the prefetch advance, which changes instruction shape
per cell and (correctly) forces the per-cell fallback — a valid
configuration, but then the benchmark would be measuring the fallback
path, not the batched tier.

Every batched cell must be bit-identical (value + full counter vector)
to its sequential twins — a sweep benchmark whose cells computed
different things would be meaningless.

Standalone use (writes ``BENCH_sweep.json`` next to this file)::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--scale tiny]

or as a bench test::

    pytest benchmarks/bench_sweep.py --benchmark-only

See docs/PERFORMANCE.md for how to read the emitted JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from pathlib import Path

from repro.machine import Machine
from repro.machine.batch import BatchCell, run_batch
from repro.machine.config import MachineConfig
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.workloads.registry import make_workload

#: The 8-cell distance axis (>= 2; see module docstring).
DEFAULT_DISTANCES = (2, 4, 8, 12, 16, 24, 32, 48)

#: Cache-scale axis of the 32-cell grid ladder (distances x scales).
DEFAULT_GRID_SCALES = (1, 2, 4, 8)

DEFAULT_WORKLOAD = "BFS-tiny"

#: Sequential comparators, slowest first.  ``reference`` is the
#: canonical sequential replay a sweep would otherwise cost; ``turbo``
#: is the fastest single-config engine, the comparator a batched tier
#: has to beat to pay for itself.
SEQUENTIAL_ENGINES = ("reference", "turbo")

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_sweep.json"


def _build_cells(
    workload: str, scale: str, distances: tuple
) -> tuple[list, str]:
    """Fresh per-distance cells: build + A&J injection at each distance.

    Rebuilding per measurement is mandatory — a run mutates the
    workload's data segments, so cells are never reused across timed
    passes.
    """
    config = MachineConfig()
    cells = []
    entry = None
    for distance in distances:
        instance = make_workload(workload, scale)
        module, space = instance.build()
        entry = instance.entry
        AinsworthJonesPass(AinsworthJonesConfig(distance=distance)).run(module)
        cells.append(BatchCell(module, space, config))
    return cells, entry


def _signature(result) -> dict:
    return {"value": result.value, **result.counters.as_dict()}


def _time_batched(build, label: str) -> tuple[float, list[dict]]:
    """One batched pass: ``(seconds, per-cell signatures)``."""
    cells, entry = build()
    start = time.perf_counter()
    outcome = run_batch(cells, function=entry)
    seconds = time.perf_counter() - start
    if not outcome.batched:
        raise AssertionError(
            f"{label}: sweep fell back to sequential replay "
            f"({outcome.reason}) — the benchmark would not be measuring "
            "the batched tier"
        )
    return seconds, [_signature(r) for r in outcome.results]


def _time_sequential(build, engine: str) -> tuple[float, list[dict]]:
    """The same cells one fresh Machine at a time on ``engine``."""
    cells, entry = build()
    start = time.perf_counter()
    results = [
        Machine(
            cell.module, cell.space, config=replace(cell.config, engine=engine)
        ).run(entry)
        for cell in cells
    ]
    seconds = time.perf_counter() - start
    return seconds, [_signature(r) for r in results]


def _check_identical(label: str, engine: str, batched, sequential) -> None:
    for index, (a, b) in enumerate(zip(batched, sequential)):
        if a != b:
            raise AssertionError(
                f"{label}: batched cell {index} is not bit-identical with "
                f"the sequential {engine} engine"
            )


def _time_ladder(build, label: str, engines: tuple, reps: int) -> dict:
    """Best-of-``reps`` seconds for the batched pass and each
    sequential engine, interleaved within every rep; asserts per-cell
    bit-identity across all sides."""
    best = {"batchturbo": float("inf"), **{e: float("inf") for e in engines}}
    for _ in range(reps):
        seconds, batched = _time_batched(build, label)
        best["batchturbo"] = min(best["batchturbo"], seconds)
        for engine in engines:
            seconds, sequential = _time_sequential(build, engine)
            best[engine] = min(best[engine], seconds)
            _check_identical(label, engine, batched, sequential)
    return best


def measure_sweep(
    workload: str = DEFAULT_WORKLOAD,
    scale: str = "tiny",
    distances: tuple = DEFAULT_DISTANCES,
    reps: int = 3,
) -> dict:
    """Batched vs sequential wall-clock for one 8-cell distance sweep.

    Returns ``{"batched_s", "sequential_s": {engine: s}, "speedup":
    {engine: ratio}, ...}`` where each time is the best of ``reps``
    (cell construction excluded — it is identical on all sides).
    """
    best = _time_ladder(
        lambda: _build_cells(workload, scale, distances),
        f"{workload} distance ladder",
        SEQUENTIAL_ENGINES,
        reps,
    )
    batched_s = best["batchturbo"]
    return {
        "workload": workload,
        "scale": scale,
        "distances": list(distances),
        "cells": len(distances),
        "batched_s": round(batched_s, 6),
        "sequential_s": {
            engine: round(best[engine], 6) for engine in SEQUENTIAL_ENGINES
        },
        "speedup": {
            engine: round(best[engine] / max(batched_s, 1e-9), 3)
            for engine in SEQUENTIAL_ENGINES
        },
    }


def measure_grid(
    workload: str = DEFAULT_WORKLOAD,
    scale: str = "tiny",
    distances: tuple = DEFAULT_DISTANCES,
    cache_scales: tuple = DEFAULT_GRID_SCALES,
    reps: int = 3,
) -> dict:
    """The 32-cell distance x cache-scale grid: batched vs per-cell turbo.

    Divergent cell configs (one cache hierarchy scaling per column)
    exercise the batched superblock's per-cell overlays; the reference
    comparator is omitted — the 8-cell ladder already anchors it.
    """

    def build():
        base_cells, entry = _build_cells(
            workload, scale, tuple(distances) * len(cache_scales)
        )
        cells = []
        for position, cell in enumerate(base_cells):
            cache_scale = cache_scales[position // len(distances)]
            config = cell.config
            if cache_scale != 1:
                config = replace(
                    config, memory=config.memory.scaled(cache_scale)
                )
            cells.append(BatchCell(cell.module, cell.space, config))
        return cells, entry

    best = _time_ladder(
        build, f"{workload} distance x cache-scale grid", ("turbo",), reps
    )
    return {
        "workload": workload,
        "scale": scale,
        "distances": list(distances),
        "cache_scales": list(cache_scales),
        "cells": len(distances) * len(cache_scales),
        "batched_s": round(best["batchturbo"], 6),
        "sequential_s": {"turbo": round(best["turbo"], 6)},
        "speedup": {
            "turbo": round(best["turbo"] / max(best["batchturbo"], 1e-9), 3)
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_batched_distance_sweep(benchmark):
    report = benchmark.pedantic(measure_sweep, iterations=1, rounds=1)
    print()
    print(json.dumps(report["speedup"], indent=2))
    # The batched tier must amortize the shared front-end: well above
    # the sequential reference replay, and no worse than running the
    # turbo engine once per cell (CI enforces the calibrated floor via
    # ci_perf_check.py; see docs/PERFORMANCE.md).
    assert report["speedup"]["reference"] >= 3.0, report["speedup"]
    assert report["speedup"]["turbo"] >= 1.0, report["speedup"]


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD)
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--distances",
        type=int,
        nargs="+",
        default=list(DEFAULT_DISTANCES),
        metavar="D",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions (min is kept)"
    )
    parser.add_argument(
        "--grid-scales",
        type=int,
        nargs="+",
        default=list(DEFAULT_GRID_SCALES),
        metavar="S",
        help="cache-scale axis of the distance x cache-scale grid",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, metavar="PATH"
    )
    args = parser.parse_args()

    report = measure_sweep(
        args.workload, args.scale, tuple(args.distances), reps=args.reps
    )
    report["grid32"] = measure_grid(
        args.workload,
        args.scale,
        tuple(args.distances),
        tuple(args.grid_scales),
        reps=args.reps,
    )
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.output}")
    print(
        f"  {report['workload']}@{report['scale']}: "
        f"{report['cells']}-cell distance sweep "
        f"batched={report['batched_s']:.3f}s"
    )
    for engine in SEQUENTIAL_ENGINES:
        print(
            f"  vs {engine:9s} {report['sequential_s'][engine]:.3f}s "
            f"-> {report['speedup'][engine]:.2f}x"
        )
    grid = report["grid32"]
    print(
        f"  {grid['cells']}-cell grid (x{len(grid['cache_scales'])} "
        f"cache scales): batched={grid['batched_s']:.3f}s "
        f"per-cell turbo={grid['sequential_s']['turbo']:.3f}s "
        f"({grid['speedup']['turbo']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
