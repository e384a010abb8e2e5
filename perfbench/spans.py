"""Span recording for the benchmark's traced run.

The spans are made from the benchmark's own files. :func:`install` wraps
the public entry point of each layer and records one span per call in a
:class:`SpanRecorder`. Methods are wrapped on their classes. Functions
that other modules import by value (``collect_profile``, ``run_batch``,
``site_reports``) are wrapped in the module that calls them. It returns
a function that restores every original; nothing in ``src/`` changes.

Each span holds a name, a layer, start and end (``perf_counter``
seconds), its parent span and the id of the benchmark op it ran under.
:func:`rollup` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

#: Layers that own spans, in the order they are reported.
LAYERS = (
    "experiments",
    "service",
    "workloads",
    "passes",
    "core",
    "profiling",
    "machine",
    "obs",
)


class SpanRecorder:
    """In-memory span list with a parent stack (the benchmark is single
    threaded, so one stack is the whole causal chain)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op: Optional[str] = None

    def open(self, name: str, layer: Optional[str], **attrs) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def rooted(self, op) -> Callable[[], object]:
        """``op.call`` under a root span that tags its spans with the op."""

        def call():
            self.op = op.id
            record = self.open(f"op:{op.id}", None)
            try:
                return op.call()
            finally:
                self.close(record)

        return call


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _store_layer(args, kwargs) -> str:
    kind = getattr(_arg(args, kwargs, 1, "key"), "kind", "")
    if kind == "graph":
        return "workloads"
    if kind == "codecache":
        return "machine"
    return "service"


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the undo function."""
    from repro.core.aptget import AptGet
    from repro.experiments import fig8, runner
    from repro.machine.machine import Machine
    from repro.passes.ainsworth_jones import AinsworthJonesPass
    from repro.passes.aptget_pass import AptGetPass
    from repro.service import api as service_api
    from repro.service.api import TuningService
    from repro.service.store import ArtifactStore, MemoryStore
    from repro.workloads.base import Workload

    patches: list[tuple] = []

    def patch(owner, attr, name, layer, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span_layer = layer(args, kwargs) if callable(layer) else layer
            record = recorder.open(name, span_layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(record)
            if after:
                record["attrs"].update(after(args, kwargs, result, state))
            return result

        setattr(owner, attr, wrapper)
        patches.append((owner, attr, original))

    def engine_stats(args, kwargs):
        return args[0].engine_run_stats()

    def machine_run(args, kwargs, result, stats):
        machine = args[0]
        now = machine.engine_run_stats()
        return {
            "traced": machine.trace is not None,
            "counters": result.counters.as_dict(),
            "compile_s": now["compile_seconds"] - stats["compile_seconds"],
            "bulk_iters": now.get("bulk_iters", 0)
            - stats.get("bulk_iters", 0),
            "guard_declines": now.get("guard_declines", 0)
            - stats.get("guard_declines", 0),
        }

    def service_call(args, kwargs, result, state):
        return {
            "workload": _arg(args, kwargs, 1, "workload"),
            "scheme": kwargs.get("scheme", "baseline"),
        }

    patch(Workload, "build", "workload.build", "workloads",
          after=lambda a, k, r, s: {"workload": a[0].name})
    patch(Machine, "run", "machine.run", "machine",
          before=engine_stats, after=machine_run)
    patch(service_api, "run_batch", "machine.run_batch", "machine",
          after=lambda a, k, r, s: {
              "tier": r.tier,
              "cells": len(r.results),
              "counters": [res.counters.as_dict() for res in r.results],
          })
    patch(runner, "collect_profile", "profiling.collect", "profiling",
          after=lambda a, k, r, s: {
              "lbr_samples": len(r.lbr_samples),
              "pebs_samples": sum(r.load_miss_counts.values()),
          })
    patch(AptGet, "analyze", "core.analyze", "core",
          after=lambda a, k, r, s: {"hints": len(r)})
    for cls in (AptGetPass, AinsworthJonesPass):
        patch(cls, "run", f"passes.{cls.__name__}", "passes",
              after=lambda a, k, r, s: {"injected": r.injection_count})
    for cls in (ArtifactStore, MemoryStore):
        patch(cls, "get", "store.get", _store_layer)
        patch(cls, "put", "store.put", _store_layer)
    for method in ("profile", "run", "sweep", "site_report"):
        patch(TuningService, method, f"service.{method}", "service",
              after=service_call)
    patch(service_api, "site_reports", "obs.site_reports", "obs")
    patch(fig8, "run", "experiments.fig8", "experiments")

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    return undo


# ----------------------------------------------------------------------
# Roll-up: spans of one pass -> per-layer metrics.
# ----------------------------------------------------------------------
def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover."""
    own = {span["id"]: _duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _duration(span)
    return own


def _ancestor(spans: list[dict], span: dict, name: str) -> Optional[dict]:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return spans[parent]
        parent = spans[parent]["parent"]
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rollup(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and span-derived counts for one pass.

    Time inside the ops that no layer span covers (the op roots' own
    time: ``repro.api.execute`` dispatch and payload conversion) is
    reported as ``spans.uncovered_s``.
    """
    own = _self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            own[s["id"]] for s in spans if s["layer"] == layer
        )
    roots = [s for s in spans if s["parent"] is None]
    uncovered = sum(own[s["id"]] for s in roots)
    out["spans.uncovered_s"] = uncovered
    out["spans.uncovered_share"] = _ratio(
        uncovered, sum(_duration(s) for s in roots)
    )
    out["spans.count"] = len(spans)

    def total(name, **match):
        return sum(
            _duration(s) for s in spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())
        )

    def count(name, attr=None):
        chosen = [s for s in spans if s["name"] == name]
        if attr is None:
            return len(chosen)
        return sum(s["attrs"].get(attr, 0) for s in chosen)

    runs = [s for s in spans if s["name"] == "machine.run"]
    out["workloads.build_s"] = total("workload.build")
    out["workloads.builds"] = count("workload.build")
    out["passes.inject_s"] = total(
        "passes.AptGetPass") + total("passes.AinsworthJonesPass")
    out["passes.prefetches_injected"] = count(
        "passes.AptGetPass", "injected"
    ) + count("passes.AinsworthJonesPass", "injected")
    out["core.analyze_s"] = total("core.analyze")
    out["core.hints"] = count("core.analyze", "hints")
    out["profiling.collect_s"] = total("profiling.collect")
    out["profiling.lbr_samples"] = count("profiling.collect", "lbr_samples")
    out["profiling.pebs_samples"] = count(
        "profiling.collect", "pebs_samples"
    )
    out["profiling.overhead_x"] = _profiling_overhead(spans, runs)

    run_s = sum(_duration(s) for s in runs)
    instructions = sum(s["attrs"]["counters"]["instructions"] for s in runs)
    accesses = sum(
        s["attrs"]["counters"]["loads"] + s["attrs"]["counters"]["stores"]
        for s in runs
    )
    out["machine.run_s"] = run_s
    out["machine.runs"] = len(runs)
    out["machine.compile_s"] = count("machine.run", "compile_s")
    out["machine.sim_mips"] = _ratio(instructions, run_s) / 1e6
    out["machine.bulk_iters"] = count("machine.run", "bulk_iters")
    out["machine.guard_declines"] = count("machine.run", "guard_declines")
    out["machine.batch_s"] = total("machine.run_batch")
    out["mem.host_ns_per_access"] = _ratio(run_s, accesses) * 1e9

    counters: dict[str, float] = {}
    cell_counters = [s["attrs"]["counters"] for s in runs]
    for s in spans:
        if s["name"] == "machine.run_batch" and s["attrs"]["tier"] != "replay":
            cell_counters.extend(s["attrs"]["counters"])
    for one in cell_counters:
        for name, value in one.items():
            counters[name] = counters.get(name, 0) + value
    get = lambda name: counters.get(name, 0)  # noqa: E731
    out["mem.loads"] = get("loads")
    out["mem.l1_misses"] = get("l1_misses")
    out["mem.llc_misses"] = get("llc_misses")
    out["mem.stall_cycles_dram"] = get("stall_cycles_dram")
    out["mem.sw_prefetch_issued"] = get("sw_prefetch_issued")
    out["mem.sw_prefetch_accuracy"] = _ratio(
        get("sw_prefetch_useful"), get("sw_prefetch_issued")
    )
    out["mem.late_prefetches"] = get("load_hit_pre_sw_pf")
    out["mem.hw_prefetch_accuracy"] = _ratio(
        get("hw_prefetch_useful"), get("hw_prefetch_issued")
    )

    out["obs.traced_run_s"] = total("machine.run", traced=True)
    out["obs.rollup_s"] = total("obs.site_reports")
    out["service.store_get_s"] = sum(
        _duration(s) for s in spans
        if s["name"] == "store.get" and s["layer"] == "service"
    )
    out["service.store_put_s"] = sum(
        _duration(s) for s in spans
        if s["name"] == "store.put" and s["layer"] == "service"
    )
    return out


def _profiling_overhead(spans: list[dict], runs: list[dict]) -> float:
    """Profiled Machine.run time over the baseline Machine.run time of
    the same workloads (workloads with both runs in the pass only)."""
    profiled: dict[str, float] = {}
    plain: dict[str, float] = {}
    for run in runs:
        service = _ancestor(spans, run, "service.profile")
        if service is not None and _ancestor(
            spans, run, "profiling.collect"
        ):
            name = service["attrs"]["workload"]
            profiled[name] = profiled.get(name, 0.0) + _duration(run)
            continue
        service = _ancestor(spans, run, "service.run")
        if service is not None and service["attrs"]["scheme"] == "baseline":
            name = service["attrs"]["workload"]
            plain[name] = plain.get(name, 0.0) + _duration(run)
    both = sorted(set(profiled) & set(plain))
    return _ratio(
        sum(profiled[n] for n in both), sum(plain[n] for n in both)
    )

