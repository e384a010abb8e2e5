"""perfbench: the end-to-end, layer-by-layer benchmark.

One run measures one workload (see README.md)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate span pass with
``--trace 1``.  The line before it (``{"info": ...}``) records the
resolved engine and tier of every op, the source revision, the Python
version and ``nproc``.

Other modes::

    python3 perfbench/run.py --all               # every workload, a table
    python3 perfbench/run.py --record-reference  # rewrite reference.json

Runs from the root of a source checkout, reading ``src/`` and writing
only under ``.perfbench_work/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
#: Set-ups per run: this process's own plus SETUP_REPS - 1 subprocesses
#: doing the same imports and set-up; setup_s is their median.
SETUP_REPS = 3
SUBPROCESS_TIMEOUT = 170

def signature(output) -> str:
    """sha256 of the canonical JSON of an op output (integral floats
    folded to ints, so a tier that counts cycles as ``int`` matches)."""

    def canon(value):
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    text = json.dumps(canon(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def git_revision() -> str | None:
    """HEAD's commit from ``.git`` (a plain export has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# One measured run.
# ----------------------------------------------------------------------
@dataclass
class OpRun:
    """One op of one pass: its result or error and its host time, raw
    and scaled to nominal host speed (see hostspeed.py)."""

    id: str
    result: object
    error: str | None
    seconds: float
    scaled: float


class Tally:
    """Checks every op's outputs against the reference signatures and
    every pass's counts against the first pass's."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tiers: dict[str, str] = {}
        self.first_counts: dict | None = None
        self.sim: dict[str, float] = {}

    def check(self, runs: list[OpRun], counts: dict) -> None:
        import workloads

        pass_counts = dict(counts)
        cycles: dict[str, float] = {}
        for run in runs:
            self.attempted += 1
            if run.error is not None:
                self.failed += 1
                self.problems.append(f"{run.id}: {run.error}")
                continue
            outs, engine, tier = workloads.outputs(run.id, run.result)
            self.tiers[run.id] = f"{engine}/{tier}"
            mismatched = []
            for sig_id, output in outs.items():
                digest = signature(output)
                pass_counts[sig_id] = digest
                if self.reference.get(sig_id) != digest:
                    mismatched.append(sig_id)
            if mismatched:
                self.failed += 1
                self.problems.append(
                    f"{run.id}: output differs from reference for "
                    f"{', '.join(mismatched)}"
                )
            if run.id.startswith("run/"):
                cycles[run.id] = run.result.cycles
            if run.id.startswith("fig8/"):
                summary = run.result.summary
                self.sim["sim.aptget_speedup"] = summary["geomean_lbr"]
                self.sim["sim.eq1_over_best"] = (
                    summary["geomean_lbr"] / summary["geomean_best"]
                )
        speedups = [
            cycles[op_id] / cycles[op_id.replace("/baseline", "/apt-get")]
            for op_id in cycles
            if op_id.endswith("/baseline")
            and op_id.replace("/baseline", "/apt-get") in cycles
        ]
        if speedups:
            from repro.experiments.runner import geomean

            self.sim["sim.aptget_speedup"] = geomean(speedups)
        if self.first_counts is None:
            self.first_counts = pass_counts
        elif pass_counts != self.first_counts:
            changed = sorted(
                key for key in set(pass_counts) | set(self.first_counts)
                if pass_counts.get(key) != self.first_counts.get(key)
            )
            self.problems.append(
                f"counts differ between passes: {', '.join(changed)}"
            )

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run_pass(work, recorder=None) -> tuple[list[OpRun], dict]:
    """Run the ops of one prepared pass (``Workload.new_pass``), timing
    the host speed between ops; returns the op runs and ``counts``.

    ``counts`` are the public counts the pass produced: the services'
    MetricsRegistry counters, the graph store's hit/miss deltas and the
    cells per tier from ``SweepResult.execution``.
    """
    from repro.workloads.graphs import graph_store

    graph = graph_store().metrics
    graph_before = graph.counters()
    runs: list[OpRun] = []
    with hostspeed.Timer() as timer:
        for op in work.ops:
            call = op.call if recorder is None else recorder.rooted(op)
            result, error, seconds, _, scaled = timer.time(call)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                error = repr(error)
            runs.append(OpRun(op.id, result, error, seconds, scaled))
    counts: dict = {}
    for service in work.services:
        for name, value in service.metrics.counters().items():
            counts[name] = counts.get(name, 0) + value
    for name, value in graph.counters().items():
        counts[name] = value - graph_before.get(name, 0)
    for run in runs:
        execution = getattr(run.result, "execution", None)
        for group in (execution or {}).get("groups", ()):
            key = f"tier.{group['tier']}.cells"
            counts[key] = counts.get(key, 0) + group["cells"]
    if work.cleanup is not None:
        work.cleanup()
    return runs, counts


def per_layer(bench, tally, wall: float) -> dict[str, float]:
    """The span pass: wrap the layer entry points, run one pass, roll up.

    ``wall`` is the untraced passes' ``wall_s``, the base of
    ``spans.overhead_x``."""
    recorder = spans.SpanRecorder()
    work = bench.new_pass()
    undo = spans.install(recorder)
    try:
        runs, counts = run_pass(work, recorder)
    finally:
        undo()
    tally.check(runs, counts)
    out = spans.rollup(recorder.spans)
    get = lambda name: counts.get(name, 0)  # noqa: E731
    out["workloads.graph_cache_misses"] = get("graph_cache.misses")
    batched = get("tier.batch.cells") + get("tier.batchturbo.cells")
    out["machine.batch_cells"] = batched
    out["machine.replay_cells"] = get("tier.replay.cells")
    out["machine.batch_cells_per_s"] = (
        batched / out["machine.batch_s"] if out["machine.batch_s"] else 0.0
    )
    out["machine.codecache_hits"] = get("codecache.hits")
    out["machine.codecache_misses"] = get("codecache.misses")
    out["obs.prefetch_events"] = sum(
        value for name, value in counts.items()
        if name.startswith("obs.prefetch.")
    )
    out["obs.trace_overhead_x"] = bench.trace_overhead()
    out["service.artifact_hits"] = get("cache.hits")
    out["service.artifact_misses"] = get("cache.misses")
    out["spans.overhead_x"] = sum(run.scaled for run in runs) / wall
    for name in ("sim.aptget_speedup", "sim.eq1_over_best"):
        out[name] = tally.sim.get(name, 0.0)
    # Keep the spans, written once the run is over.
    spans_dir = WORK_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{bench.name}-seed{bench.seed}.json"
    path.write_text(json.dumps(recorder.spans))
    return out


def setup_in_subprocess(args) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def set_up(args):
    """Import the program and set the workload up; returns the workload
    and this set-up's host time (imports included), raw and scaled to
    nominal host speed."""

    def work():
        import workloads

        WORK_DIR.mkdir(exist_ok=True)
        bench = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
        bench.setup()
        return bench

    before, before_cpu = time.perf_counter() - STARTED, time.thread_time()
    with hostspeed.Timer() as timer:
        bench, error, seconds, cpu, scaled = timer.time(work)
    if error is not None:
        raise error
    # Interpreter start-up to here, before the timer, counts at the
    # set-up's own speed.
    return bench, {
        "seconds": before + seconds,
        "scaled": scaled * (before_cpu + cpu) / cpu,
    }


def measure(args) -> dict:
    bench, setup = set_up(args)
    if args.setup_only:
        return setup
    setups = [setup] + [
        setup_in_subprocess(args) for _ in range(SETUP_REPS - 1)
    ]

    reference = json.loads(REFERENCE.read_text())["signatures"]
    tally = Tally(reference)
    op_runs: dict[str, list[OpRun]] = {}
    passes = 0
    window = time.perf_counter()
    while not passes or time.perf_counter() - window < args.seconds:
        # Every pass starts from a collected heap, so garbage left by
        # the previous pass neither times nor sizes this one.
        gc.collect()
        runs, counts = run_pass(bench.new_pass())
        passes += 1
        for run in runs:
            op_runs.setdefault(run.id, []).append(run)
        tally.check(runs, counts)
    # One pass = every op once, each at its median over the passes.
    wall = sum(
        statistics.median(run.scaled for run in runs)
        for runs in op_runs.values()
    )
    wall_raw = sum(
        statistics.median(run.seconds for run in runs)
        for runs in op_runs.values()
    )

    if args.trace:
        metrics = per_layer(bench, tally, wall)
    else:
        metrics = {
            "setup_s": statistics.median(s["scaled"] for s in setups),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": tally.tiers,
        "passes": passes,
        "wall_raw_s": wall_raw,
        "setup_raw_s": statistics.median(s["seconds"] for s in setups),
        "setups": setups,
        "sweep_distances": getattr(bench, "distances", None),
        "sim": tally.sim,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        **environment(),
    }
    print(json.dumps({"info": info}))
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json"
        )
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ----------------------------------------------------------------------
# Reference signatures (a developer command, not part of a run).
# ----------------------------------------------------------------------
def record_reference() -> dict:
    """Signatures of every op output, computed on the ``reference``
    interpreter.  Sweep cells are run one by one (the batch tiers are
    what is measured), for every candidate distance."""
    os.environ["REPRO_ENGINE"] = "reference"
    from dataclasses import replace

    import workloads
    from repro.experiments.runner import run_ainsworth_jones, run_baseline
    from repro.machine.config import MachineConfig
    from repro.workloads.registry import make_workload

    WORK_DIR.mkdir(exist_ok=True)
    signatures: dict[str, str] = {}
    for name, cls in workloads.WORKLOADS.items():
        if name == "sweep":
            continue
        bench = cls(0, WORK_DIR)
        bench.setup()
        runs, _ = run_pass(bench.new_pass())
        for run in runs:
            if run.error is not None:
                raise RuntimeError(f"{run.id}: {run.error}")
            outs, engine, _ = workloads.outputs(run.id, run.result)
            if engine != "reference":
                raise RuntimeError(f"{run.id} ran on {engine}")
            for sig_id, output in outs.items():
                signatures[sig_id] = signature(output)
        print(f"recorded {name}", file=sys.stderr)

    base = MachineConfig()
    for name in workloads.SWEEP_WORKLOADS:
        for scale in workloads.SWEEP_CACHE_SCALES:
            config = replace(base, memory=base.memory.scaled(scale))
            runs = [("baseline", None, run_baseline(
                make_workload(name, workloads.SCALE), config=config))]
            for distance in workloads.SWEEP_DISTANCE_CANDIDATES:
                runs.append(("aj", distance, run_ainsworth_jones(
                    make_workload(name, workloads.SCALE),
                    distance=distance, config=config)))
            for scheme, distance, run in runs:
                sig_id = workloads.cell_id(name, scheme, distance, scale)
                signatures[sig_id] = signature({
                    "value": run.result.value,
                    "counters": run.result.counters.as_dict(),
                })
        print(f"recorded sweep cells of {name}", file=sys.stderr)
    return {
        "engine": "reference",
        "scale": workloads.SCALE,
        **environment(),
        "signatures": dict(sorted(signatures.items())),
    }


# ----------------------------------------------------------------------
# Every workload in one command.
# ----------------------------------------------------------------------
def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or len(lines) < 2:
                print(completed.stderr, file=sys.stderr)
                status = 1
                continue
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            title = "per-layer (span run)" if trace else "end-to-end"
            print(f"== {workload['name']} -- {title}; seed {args.seed}, "
                  f"python {info['python']}, nproc {info['nproc']}, "
                  f"rev {info['git_rev']}")
            if not trace:
                print(f"  {'ops':32} {', '.join(sorted(set(info['ops'].values())))}")
                print(f"  {'error_rate':32} {info['error_rate']:.4g} "
                      f"({result['failed']}/{result['attempted']} ops)")
                print(f"  {'host wall_s, unscaled':32} "
                      f"{info['wall_raw_s']:.4g} s")
                print(f"  {'host setup_s, unscaled':32} "
                      f"{info['setup_raw_s']:.4g} s")
                for name, value in info["sim"].items():
                    print(f"  {name:32} {value:.4g} x")
            for name, metric in result["metrics"].items():
                print(f"  {name:32} {metric['value']:.4g} {metric['unit']}")
            for problem in info["problems"]:
                print(f"  PROBLEM {problem}")
            if not result["correct"]:
                status = 1
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="pipeline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {SRC}; run it from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    # Measure the shipped defaults: no engine, cache or job overrides.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.record_reference:
        REFERENCE.write_text(json.dumps(record_reference(), indent=1) + "\n")
        return 0
    try:
        print(json.dumps(measure(args)))
    finally:
        for path in WORK_DIR.glob("pipeline-*"):
            shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
