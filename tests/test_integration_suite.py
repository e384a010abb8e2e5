"""Cross-cutting integration tests: every tiny workload through all
engines, both passes, with counter invariants and semantics checks."""

import pytest

from repro.machine.config import ENGINES
from repro.machine.machine import Machine
from repro.machine.pmu import PerfStat
from repro.passes.ainsworth_jones import AinsworthJonesConfig, AinsworthJonesPass
from repro.passes.pipeline import profile_and_optimize
from repro.workloads.registry import TINY_SUITE, make_workload

NAMES = sorted(TINY_SUITE)


@pytest.mark.parametrize("name", NAMES)
def test_engines_agree_on_workload(name):
    results = {}
    for engine in ENGINES:
        module, space = make_workload(name).build()
        machine = Machine(module, space, engine=engine)
        results[engine] = machine.run("main")
    a = results["reference"]
    for engine in ENGINES:
        b = results[engine]
        assert a.value == b.value, engine
        assert a.counters.as_dict() == b.counters.as_dict(), engine


@pytest.mark.parametrize("name", NAMES)
def test_engines_agree_with_tracing_armed(name):
    """Tracing disarms bulk stepping and arms the memory model's trace
    hooks; the engines must still be bit-identical on counters AND on
    the observed event stream."""
    from repro.obs.sites import site_reports

    results = {}
    for engine in ENGINES:
        module, space = make_workload(name).build()
        AinsworthJonesPass(AinsworthJonesConfig(distance=8)).run(module)
        machine = Machine(module, space, engine=engine)
        trace = machine.enable_tracing()
        result = machine.run("main")
        results[engine] = (
            result,
            trace.event_counts(),
            {
                label: report.to_dict()
                for label, report in site_reports(trace).items()
            },
        )
    ref_result, ref_events, ref_sites = results["reference"]
    for engine in ENGINES:
        result, events, sites = results[engine]
        assert result.value == ref_result.value, engine
        assert (
            result.counters.as_dict() == ref_result.counters.as_dict()
        ), engine
        assert events == ref_events, engine
        assert sites == ref_sites, engine


@pytest.mark.parametrize("name", NAMES)
def test_aj_preserves_semantics(name):
    workload = make_workload(name)
    module, space = workload.build()
    baseline = Machine(module, space).run(workload.entry)

    module2, space2 = make_workload(name).build()
    AinsworthJonesPass(AinsworthJonesConfig(distance=8)).run(module2)
    optimized = Machine(module2, space2).run(workload.entry)
    assert optimized.value == baseline.value
    assert PerfStat(optimized.counters).check_invariants() == []


@pytest.mark.parametrize("name", NAMES)
def test_apt_get_pipeline_preserves_semantics(name):
    workload = make_workload(name)
    module, space = workload.build()
    baseline = Machine(module, space).run(workload.entry)

    outcome = profile_and_optimize(make_workload(name).builder)
    optimized = Machine(outcome.module, outcome.space).run(workload.entry)
    assert optimized.value == baseline.value
    assert PerfStat(optimized.counters).check_invariants() == []
    # APT-GET should never be a large regression on its target workloads.
    assert optimized.counters.cycles <= baseline.counters.cycles * 1.1


def test_driver_script_runs(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [
            sys.executable,
            "scripts/run_all_experiments.py",
            "--scale",
            "tiny",
            "--only",
            "table2,table3",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "table2.json").exists()
    assert (tmp_path / "table3.txt").exists()
    assert (tmp_path / "SUMMARY.txt").exists()


def test_driver_script_rejects_unknown(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [
            sys.executable,
            "scripts/run_all_experiments.py",
            "--only",
            "fig99",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        timeout=120,
    )
    assert result.returncode == 2
