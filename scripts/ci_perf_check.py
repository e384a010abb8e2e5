#!/usr/bin/env python3
"""CI perf-smoke for the turbo engine and the batched sweep tier.

Runs the Figure-5-style suite comparison (every registered workload at
the given scale, baseline/A&J/APT-GET — the same work ``benchmarks/
bench_fig05.py`` measures) once per engine through the v1 ``repro.api``
surface, then asserts:

* **bit-identical results** — every workload's per-scheme payload
  (values, counters, injection reports, hints) matches the reference
  interpreter exactly on the turbo engine, and
* **turbo pays for itself** — wall-clock for turbo must beat the
  reference interpreter (``--min-speedup``), and turbo must not lose
  to its own per-block substrate (``--min-turbo-speedup``, default
  1.0: turbo below its block chains means the superblock stepper has
  stopped paying for itself).  The substrate probe runs every suite
  workload's baseline and A&J programs on turbo Machines whose
  compiled forms are turbo with nothing fused (a
  ``TurboCompiledFunction`` over ``compile_blocks`` output with an
  empty superblock table, installed the way ``repro.qa.mutants``
  installs its mutants) against fresh turbo Machines, interleaved,
  best of three, bit-identity asserted.

With ``--max-telemetry-overhead`` it additionally runs the
service-telemetry overhead probe (``benchmarks/bench_obs.py
measure_telemetry``): executing a tiny suite inside a telemetry job
scope must cost at most the given fraction over the bare execution
(default gate in CI: 0.05 = 5%), and the results must stay
byte-identical — telemetry observes, never perturbs.

With ``--max-trace-overhead`` it additionally runs the lifecycle-
tracing overhead probe (``benchmarks/bench_obs.py measure``): a traced
A&J-injected ``micro-tiny`` run may cost at most the given fraction
over the untraced run in the same process (CI gate: 1.0, i.e. traced
at most 2x untraced), and its simulated cycles must be identical —
tracing observes, never perturbs.

With ``--min-batch-speedup`` it additionally runs the batched-sweep
probe (``benchmarks/bench_sweep.py measure_sweep``): an 8-cell A&J
distance sweep executed in one :func:`repro.machine.batch.run_batch`
pass must beat the per-cell sequential reference replay by at least
the given ratio (CI gate: 3.0x) and must not lose to running the
turbo engine once per cell; every batched cell is checked
bit-identical against its sequential twins inside the probe.

With ``--min-batchturbo-speedup`` it additionally gates the batched
superblock tier against per-cell turbo on the same 8-cell distance
ladder — the honest comparator, what a sweep costs without batching —
and requires the 32-cell distance x cache-scale grid not to lose to
per-cell turbo either (floor 1.0).  The CI floor is calibrated from
measured ratios minus headroom for runner noise; docs/PERFORMANCE.md
records the measurements.

With ``--min-codecache-speedup`` it additionally runs the persistent
code-cache probe (``benchmarks/bench_codecache.py
measure_codecache``): loading the turbo engine's compiled form from a
warm cache must beat a cold superblock build by at least the given
ratio (CI gate: 3.0x) over a multi-workload compile ladder; the probe
asserts internally that the warm run is a real cache hit and that
cached-load results are bit-identical with fresh compiles.

Every requested gate runs even when an earlier one fails (a probe that
raises fails its own gate only); the script ends with one
``gate <name>: ok|FAIL`` line per gate and exits 1 if any failed.

Usage:
    python scripts/ci_perf_check.py [--scale tiny] [--min-speedup 1.2]
        [--min-turbo-speedup 1.0] [--max-telemetry-overhead 0.05]
        [--max-trace-overhead 1.0]
        [--min-batch-speedup 3.0] [--min-batchturbo-speedup 1.1]
        [--min-codecache-speedup 3.0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import repro.api as api
from repro.experiments.runner import scale_suite
from repro.machine.blockengine import compile_blocks
from repro.machine.machine import Machine
from repro.machine.superblock import TurboCompiledFunction
from repro.passes.ainsworth_jones import AinsworthJonesPass
from repro.service.api import TuningService
from repro.workloads.registry import make_workload

# The optional probes live in benchmarks/ (bench_obs, bench_sweep,
# bench_codecache).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


def timed_suite(engine: str, scale: str) -> tuple[api.SuiteResult, float]:
    # A fresh, uncached in-memory service per engine: every run is a
    # cold compute, so the wall-clock comparison is engine vs engine.
    service = TuningService()
    start = time.perf_counter()
    result = api.compare_suite(scale, engine=engine, service=service)
    return result, time.perf_counter() - start


def _substrate_run(name: str, scale: str, inject: bool, blocks_only: bool):
    """One fresh turbo run of ``name`` (A&J-injected when ``inject``);
    ``blocks_only`` installs the per-block substrate (turbo's dispatch
    loop with an empty superblock table).
    Returns ``(seconds, signature)``; compile time is included."""
    workload = make_workload(name, scale)
    module, space = workload.build()
    if inject:
        AinsworthJonesPass().run(module)
    machine = Machine(module, space, engine="turbo")
    start = time.perf_counter()
    if blocks_only:
        for fname, function in module.functions.items():
            machine._compiled[fname] = TurboCompiledFunction(
                compile_blocks(function, machine.config),
                (None,) * len(function.blocks),
            )
    result = machine.run(workload.entry)
    seconds = time.perf_counter() - start
    return seconds, (result.value, result.counters.as_dict())


def substrate_probe(scale: str, reps: int = 3) -> dict:
    """Turbo vs its per-block substrate over the suite's baseline and
    A&J programs: best-of-``reps`` totals, sides interleaved per
    program, every pair bit-identical."""
    totals = {"turbo": 0.0, "blocks": 0.0}
    for name in scale_suite(scale):
        for inject in (False, True):
            best = {"turbo": float("inf"), "blocks": float("inf")}
            signatures = {}
            for _ in range(reps):
                for side in ("turbo", "blocks"):
                    seconds, signatures[side] = _substrate_run(
                        name, scale, inject, side == "blocks"
                    )
                    best[side] = min(best[side], seconds)
            if signatures["turbo"] != signatures["blocks"]:
                raise AssertionError(
                    f"{name}: turbo is not bit-identical with its "
                    "per-block substrate"
                )
            for side in totals:
                totals[side] += best[side]
    return {
        **totals,
        "speedup": totals["blocks"] / max(totals["turbo"], 1e-9),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.2,
        help="required turbo-vs-reference wall-clock ratio (default 1.2)",
    )
    parser.add_argument(
        "--min-turbo-speedup",
        type=float,
        default=1.0,
        help="required turbo-vs-per-block-substrate wall-clock ratio "
        "(default 1.0)",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=None,
        help="also gate service-telemetry overhead: max allowed "
        "traced/plain wall-clock excess as a fraction (e.g. 0.05); "
        "omitted, the probe is skipped",
    )
    parser.add_argument(
        "--telemetry-repeats",
        type=int,
        default=3,
        help="suite repeats for the telemetry probe (median; default 3)",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        default=None,
        help="also gate lifecycle-tracing overhead: max allowed traced/"
        "untraced wall-clock excess on micro-tiny as a fraction (e.g. "
        "1.0); omitted, the probe is skipped",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        help="also gate the batched sweep tier: required batched-vs-"
        "sequential-reference wall-clock ratio on an 8-cell distance "
        "sweep (e.g. 3.0); omitted, the probe is skipped",
    )
    parser.add_argument(
        "--min-batchturbo-speedup",
        type=float,
        default=None,
        help="also gate the batched superblock tier: required "
        "batched-vs-per-cell-turbo wall-clock ratio on the 8-cell "
        "distance ladder (e.g. 1.1); omitted, the probe is skipped",
    )
    parser.add_argument(
        "--min-codecache-speedup",
        type=float,
        default=None,
        help="also gate the persistent AOT code cache: required warm-"
        "load-vs-cold-turbo-build wall-clock ratio over the compile "
        "ladder (e.g. 3.0); omitted, the probe is skipped",
    )
    args = parser.parse_args()

    # Every requested gate runs even after an earlier one failed (a
    # noisy probe must not hide the others' verdicts); the exit status
    # is 1 if any gate failed.
    verdicts: dict = {}

    def check(gate: str, ok: bool, message: str = "") -> bool:
        if not ok:
            print(f"FAIL: {message}", file=sys.stderr)
        verdicts[gate] = verdicts.get(gate, True) and ok
        return ok

    def probe(gate: str, measure):
        """Run one probe; an exception (a probe's own bit-identity
        assertion) fails ``gate`` instead of ending the run."""
        try:
            return measure()
        except Exception as error:  # noqa: BLE001 - reported as a verdict
            check(gate, False, f"{gate} probe raised {error!r}")
            return None

    turbo, turbo_seconds = timed_suite("turbo", args.scale)
    reference, reference_seconds = timed_suite("reference", args.scale)

    if check(
        "identity",
        turbo.workloads == reference.workloads,
        f"workload sets differ: turbo={turbo.workloads} "
        f"reference={reference.workloads}",
    ):
        mismatches = [
            name
            for name in turbo.workloads
            if turbo.rows[name] != reference.rows[name]
        ]
        check(
            "identity",
            not mismatches,
            f"turbo engine is not bit-identical with the reference "
            f"interpreter on: {', '.join(mismatches)}",
        )
    errors = [
        name
        for name in turbo.workloads
        if turbo.rows[name].get("error") is not None
    ]
    check("identity", not errors, f"suite errors on: {', '.join(errors)}")

    speedup = reference_seconds / max(turbo_seconds, 1e-9)
    print(
        f"suite@{args.scale}: {len(turbo.workloads)} workload(s), "
        f"turbo={turbo_seconds:.2f}s reference={reference_seconds:.2f}s "
        f"turbo/reference={speedup:.2f}x (floor {args.min_speedup:.2f}x)"
    )
    check(
        "turbo/reference",
        speedup >= args.min_speedup,
        f"turbo engine speedup {speedup:.2f}x is below the "
        f"{args.min_speedup:.2f}x floor",
    )
    substrate = probe("turbo/blocks", lambda: substrate_probe(args.scale))
    if substrate is not None:
        print(
            f"substrate probe turbo={substrate['turbo']:.2f}s "
            f"blocks={substrate['blocks']:.2f}s "
            f"turbo/blocks={substrate['speedup']:.2f}x "
            f"(floor {args.min_turbo_speedup:.2f}x)"
        )
        check(
            "turbo/blocks",
            substrate["speedup"] >= args.min_turbo_speedup,
            f"turbo-vs-per-block-substrate speedup "
            f"{substrate['speedup']:.2f}x is below the "
            f"{args.min_turbo_speedup:.2f}x floor",
        )

    if args.max_telemetry_overhead is not None:
        from bench_obs import measure_telemetry

        result = probe(
            "telemetry",
            lambda: measure_telemetry(repeats=args.telemetry_repeats),
        )
        if result is not None:
            print(
                f"telemetry probe: plain={result['plain_s']:.2f}s "
                f"traced={result['traced_s']:.2f}s "
                f"overhead={result['telemetry_overhead'] * 100:.1f}% "
                f"(ceiling {args.max_telemetry_overhead * 100:.1f}%), "
                f"{result['span_records']} span record(s)"
            )
            check(
                "telemetry",
                result["results_identical"],
                "suite results differ with telemetry on vs off",
            )
            check(
                "telemetry",
                result["telemetry_overhead"] <= args.max_telemetry_overhead,
                f"telemetry overhead "
                f"{result['telemetry_overhead'] * 100:.1f}% exceeds the "
                f"{args.max_telemetry_overhead * 100:.1f}% ceiling",
            )

    if args.max_trace_overhead is not None:
        from bench_obs import measure

        result = probe("trace", measure)
        if result is not None:
            print(
                f"trace probe: {result['workload']} "
                f"untraced={result['disabled_s']:.3f}s "
                f"traced={result['enabled_s']:.3f}s "
                f"overhead={result['enabled_overhead'] * 100:.0f}% "
                f"(ceiling {args.max_trace_overhead * 100:.0f}%)"
            )
            check(
                "trace",
                result["cycles_identical"],
                "simulated cycles differ with tracing on vs off",
            )
            check(
                "trace",
                result["enabled_overhead"] <= args.max_trace_overhead,
                f"tracing overhead "
                f"{result['enabled_overhead'] * 100:.0f}% exceeds the "
                f"{args.max_trace_overhead * 100:.0f}% ceiling",
            )

    sweep = None
    if args.min_batch_speedup is not None or (
        args.min_batchturbo_speedup is not None
    ):
        from bench_sweep import measure_sweep

        sweep = probe("sweep", measure_sweep)

    if args.min_batch_speedup is not None and sweep is not None:
        print(
            f"batch probe: {sweep['workload']}@{sweep['scale']} "
            f"{sweep['cells']}-cell distance sweep "
            f"batched={sweep['batched_s']:.2f}s "
            f"vs reference={sweep['speedup']['reference']:.2f}x "
            f"(floor {args.min_batch_speedup:.2f}x) "
            f"vs turbo={sweep['speedup']['turbo']:.2f}x (floor 1.00x)"
        )
        check(
            "batch",
            sweep["speedup"]["reference"] >= args.min_batch_speedup,
            f"batched sweep speedup "
            f"{sweep['speedup']['reference']:.2f}x is below the "
            f"{args.min_batch_speedup:.2f}x floor",
        )
        check(
            "batch",
            sweep["speedup"]["turbo"] >= 1.0,
            f"batched sweep loses to per-cell turbo runs "
            f"({sweep['speedup']['turbo']:.2f}x < 1.00x)",
        )

    if args.min_batchturbo_speedup is not None and sweep is not None:
        from bench_sweep import measure_grid

        ratio = sweep["speedup"]["turbo"]
        grid = probe("batchturbo", measure_grid)
        if grid is not None:
            print(
                f"batchturbo probe: {sweep['workload']}@{sweep['scale']} "
                f"{sweep['cells']}-cell ladder "
                f"per-cell turbo={sweep['sequential_s']['turbo']:.2f}s "
                f"batched={sweep['batched_s']:.2f}s "
                f"-> {ratio:.2f}x "
                f"(floor {args.min_batchturbo_speedup:.2f}x); "
                f"{grid['cells']}-cell grid "
                f"{grid['speedup']['turbo']:.2f}x (floor 1.00x)"
            )
            check(
                "batchturbo",
                ratio >= args.min_batchturbo_speedup,
                f"batched-vs-per-cell-turbo speedup {ratio:.2f}x is "
                f"below the {args.min_batchturbo_speedup:.2f}x floor",
            )
            check(
                "batchturbo",
                grid["speedup"]["turbo"] >= 1.0,
                f"the batched tier loses to per-cell turbo on the "
                f"distance x cache-scale grid "
                f"({grid['speedup']['turbo']:.2f}x < 1.00x)",
            )

    if args.min_codecache_speedup is not None:
        from bench_codecache import measure_codecache

        result = probe("codecache", measure_codecache)
        if result is not None:
            print(
                f"codecache probe: {len(result['workloads'])}-workload "
                f"ladder@{result['scale']} "
                f"turbo cold={result['cold_s']['turbo'] * 1000:.1f}ms "
                f"warm={result['warm_s']['turbo'] * 1000:.1f}ms "
                f"-> {result['speedup']['turbo']:.2f}x "
                f"(floor {args.min_codecache_speedup:.2f}x)"
            )
            check(
                "codecache",
                result["speedup"]["turbo"] >= args.min_codecache_speedup,
                f"warm code-cache load speedup "
                f"{result['speedup']['turbo']:.2f}x is below the "
                f"{args.min_codecache_speedup:.2f}x floor",
            )

    for gate, ok in verdicts.items():
        print(f"gate {gate}: {'ok' if ok else 'FAIL'}")
    failed = [gate for gate, ok in verdicts.items() if not ok]
    if failed:
        print(
            f"FAIL: {len(failed)} of {len(verdicts)} gate(s) failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    print(
        "OK: counters bit-identical, turbo beats reference and its "
        "per-block substrate"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
