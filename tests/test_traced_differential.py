"""Traced, unprofiled runs — the configuration a site report runs —
are bit-identical between the reference interpreter and turbo.

``repro.qa.oracle`` always arms the sampler next to the trace, so its
traced cells push branches through a real LBR.  A site report runs
traced with the sampler off: the trace's ``BranchTap`` wraps a
``NullLBR`` and turbo bulk-steps its profiled superblocks.  This test
compares every ring and rollup of that configuration across the two
engines on the pipeline workloads, under Eq-1 hints and under the
naive inner-site, distance-32 hints.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.site import InjectionSite
from repro.experiments.runner import (
    hints_with_distance,
    hints_with_site,
    profile_workload,
)
from repro.machine.machine import Machine
from repro.obs.sites import site_reports
from repro.passes.aptget_pass import AptGetPass
from repro.workloads.registry import make_workload

WORKLOADS = ("HJ8-tiny", "BFS-tiny", "micro-tiny")
FIXED_DISTANCE = 32


def _traced(name: str, hints, engine: str) -> tuple[dict, Machine]:
    workload = make_workload(name)
    module, space = workload.build()
    AptGetPass(hints).run(module)
    machine = Machine(module, space, engine=engine)
    trace = machine.enable_tracing()
    result = machine.run(workload.entry)
    observation = {
        "value": result.value,
        "counters": result.counters.as_dict(),
        "counts": trace.event_counts(),
        "spans": list(trace.spans),
        "demand": list(trace.demand),
        "branches": list(trace.branches),
        "open": trace.open_records(),
        "stats": {label: asdict(s) for label, s in trace.stats.items()},
        "site_reports": {
            label: report.to_dict()
            for label, report in site_reports(trace).items()
        },
    }
    return observation, machine


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_unprofiled_turbo_matches_reference(name):
    _, eq1 = profile_workload(make_workload(name))
    naive = hints_with_distance(
        hints_with_site(eq1, InjectionSite.INNER), FIXED_DISTANCE
    )
    for label, hints in (("eq1", eq1), (f"d{FIXED_DISTANCE}", naive)):
        reference, _ = _traced(name, hints, "reference")
        turbo, machine = _traced(name, hints, "turbo")
        assert machine.engine_run_stats()["bulk_iters"] > 0, label
        assert reference["counts"]["branches"] > 0, label
        for key in reference:
            assert turbo[key] == reference[key], f"{name}/{label}: {key}"
