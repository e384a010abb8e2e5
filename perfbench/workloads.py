"""The benchmark's four workloads.

Each workload has a set-up (graph generation, service construction,
profile priming) and makes a fresh list of ops for every timed pass.
An op calls the public API exactly as a user would, passing no engine,
so the shipped defaults are what is measured.  After the pass,
:func:`outputs` turns each op's result into the signatures the
``reference`` interpreter recorded and the resolved engine/tier.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import repro.api as api
from repro.core.site import InjectionSite
from repro.experiments import fig8
from repro.experiments.runner import hints_with_distance, hints_with_site
from repro.machine import codecache
from repro.machine.machine import Machine
from repro.passes.aptget_pass import AptGetPass
from repro.service.api import (
    TuningService,
    configure_service,
    get_service,
    profile_from_payload,
)
from repro.workloads.graphs import clear_graph_cache
from repro.workloads.registry import TINY_SUITE, make_workload

SCALE = "tiny"
#: A hash join (short inner loop, Eq-2 outer site) and a CSR graph
#: (graph generation, BFS frontier indirection).
PIPELINE_WORKLOADS = ("HJ8-tiny", "BFS-tiny")
SWEEP_WORKLOADS = ("BFS-tiny", "HJ8-tiny", "randAccess-tiny")
SWEEP_SCHEMES = ("aj", "baseline")
SWEEP_CACHE_SCALES = (1, 2, 4, 8)
#: Distances the seed draws the sweep's four from.  Every distance >= 2
#: keeps the A&J cells batch-aligned (distance 1 changes the injected
#: instruction shape and falls back to per-cell replay).
SWEEP_DISTANCE_CANDIDATES = (4, 6, 8, 12, 16, 24, 32, 48)
SWEEP_DISTANCE_COUNT = 4
AJ_DISTANCE = 32
SITES_FIXED_DISTANCE = 32


@dataclass
class Op:
    """One timed request: ``call`` returns the public result object."""

    id: str
    call: Callable[[], object]


@dataclass
class Pass:
    """The ops of one pass plus the services they report through."""

    ops: list[Op]
    services: list = field(default_factory=list)
    cleanup: Optional[Callable[[], None]] = None


def sweep_distances(seed: int) -> tuple[int, ...]:
    """The sweep's distance axis for ``seed`` (drawn, sorted)."""
    rng = random.Random(f"sweep-distances-{seed}")
    return tuple(
        sorted(rng.sample(SWEEP_DISTANCE_CANDIDATES, SWEEP_DISTANCE_COUNT))
    )


def _build_all(names) -> None:
    """Generate every graph and build every module once (cold)."""
    clear_graph_cache()
    for name in names:
        make_workload(name, SCALE).build()


class Workload:
    """One benchmark workload; ``seed`` orders the ops of each pass."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}-{seed}")
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def new_pass(self) -> Pass:
        raise NotImplementedError

    def trace_overhead(self) -> float:
        """Traced over untraced host time of the same injected modules
        (only workloads that trace measure it)."""
        return 0.0


class Pipeline(Workload):
    name = "pipeline"

    def setup(self) -> None:
        _build_all(PIPELINE_WORKLOADS)

    def new_pass(self) -> Pass:
        cache_dir = tempfile.mkdtemp(prefix="pipeline-", dir=self.work_dir)
        service = TuningService(cache_dir=cache_dir)
        flows = []
        for name in PIPELINE_WORKLOADS:
            kw = dict(workload=name, scale=SCALE)
            flows.append([
                (f"run/{name}/baseline", api.RunRequest(**kw)),
                (f"profile/{name}", api.ProfileRequest(**kw)),
                (f"run/{name}/apt-get",
                 api.RunRequest(scheme="apt-get", **kw)),
                (f"run/{name}/aj-{AJ_DISTANCE}",
                 api.RunRequest(scheme="aj", distance=AJ_DISTANCE, **kw)),
            ])
        ops = []
        # The seed interleaves the workloads; each keeps the order a
        # user sends its requests in.
        while any(flows):
            flow = self.rng.choice([f for f in flows if f])
            op_id, request = flow.pop(0)
            ops.append(Op(op_id, _executor(request, service)))

        def cleanup() -> None:
            codecache.forget(cache_dir)
            shutil.rmtree(cache_dir, ignore_errors=True)

        return Pass(ops, [service], cleanup)


class Sweep(Workload):
    name = "sweep"

    def setup(self) -> None:
        _build_all(SWEEP_WORKLOADS)
        self.distances = sweep_distances(self.seed)

    def new_pass(self) -> Pass:
        service = TuningService()
        names = list(SWEEP_WORKLOADS)
        self.rng.shuffle(names)
        ops = [
            Op(f"sweep/{name}", _executor(api.SweepRequest(
                workload=name,
                scale=SCALE,
                schemes=SWEEP_SCHEMES,
                distances=self.distances,
                cache_scales=SWEEP_CACHE_SCALES,
            ), service))
            for name in names
        ]
        return Pass(ops, [service])


class Figure(Workload):
    name = "figure"

    def setup(self) -> None:
        _build_all(TINY_SUITE)

    def new_pass(self) -> Pass:
        service = configure_service()
        return Pass([Op("fig8/tiny", lambda: fig8.run(scale=SCALE))],
                    [service])


class Sites(Workload):
    name = "sites"

    def setup(self) -> None:
        _build_all(PIPELINE_WORKLOADS)
        primer = TuningService()
        self.profiles = {}
        for name in PIPELINE_WORKLOADS:
            request = api.ProfileRequest(workload=name, scale=SCALE)
            api.execute(request, service=primer)
            self.profiles[request] = primer.store.get(
                primer.request_key(request)
            )

    def new_pass(self) -> Pass:
        service = TuningService()
        for request, payload in self.profiles.items():
            service.store.put(service.request_key(request), payload)
        ops = []
        for name in PIPELINE_WORKLOADS:
            for fixed, label in ((None, "eq1"),
                                 (SITES_FIXED_DISTANCE,
                                  f"d{SITES_FIXED_DISTANCE}")):
                ops.append(Op(f"sites/{name}/{label}", _executor(
                    api.SiteReportRequest(
                        workload=name, scale=SCALE, fixed_distance=fixed
                    ),
                    service,
                )))
        self.rng.shuffle(ops)
        return Pass(ops, [service])

    def trace_overhead(self) -> float:
        traced = plain = 0.0
        for request, payload in self.profiles.items():
            _, hints = profile_from_payload(payload)
            fixed = hints_with_distance(
                hints_with_site(hints, InjectionSite.INNER),
                SITES_FIXED_DISTANCE,
            )
            for chosen in (hints, fixed):
                for trace in (False, True):
                    workload = make_workload(request.workload, SCALE)
                    module, space = workload.build()
                    AptGetPass(chosen).run(module)
                    machine = Machine(module, space)
                    if trace:
                        machine.enable_tracing()
                    started = time.perf_counter()
                    machine.run(workload.entry)
                    elapsed = time.perf_counter() - started
                    if trace:
                        traced += elapsed
                    else:
                        plain += elapsed
        return traced / plain


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Pipeline, Sweep, Figure, Sites)
}


def _executor(request, service) -> Callable[[], object]:
    return lambda: api.execute(request, service=service)


# ----------------------------------------------------------------------
# Outputs: the signatures an op is checked against, and its tiers.
# ----------------------------------------------------------------------
def _run_output(run_payload: dict) -> dict:
    return {"value": run_payload["value"],
            "counters": run_payload["counters"]}


def outputs(op_id: str, result) -> tuple[dict[str, object], str, str]:
    """``(signature id -> output, engine, tier)`` for one op result."""
    if isinstance(result, api.RunResult):
        return {op_id: _run_output(result.run)}, result.engine, "single"
    if isinstance(result, api.ProfileResult):
        return ({op_id: {"counters": result.profile["counters"],
                         "hints": result.hints}},
                result.engine, "single")
    if isinstance(result, api.SiteReportResult):
        return {op_id: {"sites": result.sites}}, result.engine, "traced"
    if isinstance(result, api.SweepResult):
        cells = {
            cell_id(result.workload, c["scheme"], c["distance"],
                    c["cache_scale"]): _run_output(c["run"])
            for c in result.cells
        }
        tiers = sorted({g["tier"] for g in result.execution["groups"]})
        return cells, result.engine, "+".join(tiers)
    # fig8's ExperimentResult: its runs go through the default service.
    return ({op_id: {"rows": result.rows, "summary": result.summary}},
            get_service().config.engine, "single")


def cell_id(workload: str, scheme: str, distance, cache_scale: int) -> str:
    label = f"aj-{distance}" if scheme == "aj" else scheme
    return f"cell/{workload}/{label}/x{cache_scale}"
