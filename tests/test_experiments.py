"""Every experiment module at tiny scale, pinned to a committed golden,
plus unit tests for the result/report formatting and the shared runner.

The golden (``tests/golden/experiments_tiny.json``) keeps, per
experiment, the SHA-256 of its headers and rows in canonical JSON; the
host-timing columns (:data:`HOST_TIMING_COLUMNS`) are left out by name,
since they measure the machine the test runs on, not the simulation.
Regenerate only for an intended change to simulated results::

    PYTHONPATH=src python tests/test_experiments.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.result import ExperimentResult, format_table
from repro.experiments.runner import (
    geomean,
    hints_with_distance,
    hints_with_site,
    profile_workload,
    run_ainsworth_jones,
    run_apt_get,
    run_baseline,
    suite_comparison,
)
from repro.core.site import InjectionSite
from repro.workloads.registry import make_workload


class TestResultContainer:
    def make(self):
        return ExperimentResult(
            experiment="figX",
            title="demo",
            headers=["name", "value"],
            rows=[["a", 1.5], ["b", 2.0]],
            summary={"geomean": 1.73},
            notes="note",
        )

    def test_to_text_contains_everything(self):
        text = self.make().to_text()
        assert "figX: demo" in text
        assert "geomean: 1.730" in text
        assert "note" in text
        assert "a" in text and "2.000" in text

    def test_column_and_row_lookup(self):
        result = self.make()
        assert result.column("value") == [1.5, 2.0]
        assert result.row_by("name", "b") == ["b", 2.0]
        assert result.row_by("name", "zz") is None

    def test_format_table_alignment(self):
        text = format_table(["h1", "h2"], [["aaaa", 1]])
        lines = text.splitlines()
        assert lines[0].index("h2") == lines[2].index("1")


class TestRunnerHelpers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)  # zeros skipped

    def test_hint_overrides(self):
        _, hints = profile_workload(make_workload("HJ8-tiny"))
        assert len(hints)
        overridden = hints_with_distance(hints, 3)
        assert all(h.distance == 3 for h in overridden)
        assert all(h.outer_distance == 3 for h in overridden)
        # Original untouched.
        assert any(h.distance != 3 for h in hints) or len(hints) == 0 or (
            hints.hints[0] is not overridden.hints[0]
        )
        forced = hints_with_site(hints, InjectionSite.INNER)
        assert all(h.site is InjectionSite.INNER for h in forced)
        forced_outer = hints_with_site(hints, InjectionSite.OUTER)
        assert all(h.site is InjectionSite.OUTER for h in forced_outer)
        assert all(h.outer_distance is not None for h in forced_outer)

    def test_scheme_runners(self):
        baseline = run_baseline(make_workload("micro-tiny"))
        aj = run_ainsworth_jones(make_workload("micro-tiny"), distance=16)
        assert baseline.scheme == "baseline"
        assert aj.report is not None
        assert aj.cycles < baseline.cycles  # prefetching helps the micro

    def test_run_apt_get_attaches_profile(self):
        run = run_apt_get(make_workload("micro-tiny"))
        assert run.profile is not None
        assert run.hints is not None
        assert run.report is not None

    def test_suite_comparison_cached(self):
        first = suite_comparison("tiny")
        second = suite_comparison("tiny")
        # Store-backed cache: identical measurements, fresh objects.
        assert first is not second
        assert set(first) == set(second)
        for name in first:
            assert first[name].runs["baseline"].cycles == (
                second[name].runs["baseline"].cycles
            )
            assert first[name].runs["apt-get"] is not (
                second[name].runs["apt-get"]
            )
        comparison = first["micro-tiny"]
        assert comparison.speedup("apt-get") > 0
        assert comparison.instruction_overhead("apt-get") >= 1.0
        assert comparison.mpki("baseline") > 0


GOLDEN = Path(__file__).resolve().parent / "golden" / "experiments_tiny.json"

#: Columns that time the host (``profiling_overhead``'s sampled-run
#: slowdown and analysis wall clock): excluded from the golden.
HOST_TIMING_COLUMNS = frozenset(
    {"host slowdown (sampled run)", "analysis wall (s)"}
)


def golden_entry(result: ExperimentResult) -> dict:
    """The golden entry for one experiment: its simulated headers and
    the SHA-256 of headers plus rows in canonical JSON."""
    keep = [
        index
        for index, header in enumerate(result.headers)
        if header not in HOST_TIMING_COLUMNS
    ]
    table = {
        "headers": [result.headers[index] for index in keep],
        "rows": [[row[index] for index in keep] for row in result.rows],
    }
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return {
        "headers": table["headers"],
        "rows": len(table["rows"]),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_experiment(golden):
    assert sorted(golden) == sorted(ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_at_tiny_scale(name, golden):
    result = ALL_EXPERIMENTS[name].run("tiny")
    assert result.experiment == name
    assert result.rows
    assert result.headers
    text = result.to_text()
    assert name in text
    got = golden_entry(result)
    want = golden[name]
    assert got["headers"] == want["headers"]
    assert got["rows"] == want["rows"]
    assert got["sha256"] == want["sha256"]


class TestFig4Histogram:
    def test_histogram_bins_and_masses(self):
        from repro.experiments import fig4

        bins = fig4.histogram("tiny", bins=20)
        assert bins
        latencies = [b for b, _ in bins]
        counts = [c for _, c in bins]
        assert latencies == sorted(latencies)
        assert all(c > 0 for c in counts)


class TestRunnerCaches:
    def test_cached_baseline_not_aliased(self):
        from repro.experiments.runner import cached_baseline

        first = cached_baseline("micro-tiny")
        second = cached_baseline("micro-tiny")
        assert first is not second
        assert first.cycles == second.cycles
        assert first.result.value == second.result.value

    def test_cached_profile_not_aliased(self):
        """Regression: lru_cache used to hand every caller the same
        mutable profile/hints — mutating one leaked into all others."""
        from repro.experiments.runner import cached_profile

        profile_a, hints_a = cached_profile("micro-tiny")
        profile_b, hints_b = cached_profile("micro-tiny")
        assert profile_a is not profile_b
        assert hints_a is not hints_b
        assert profile_a.load_miss_counts == profile_b.load_miss_counts
        assert len(hints_a) == len(hints_b)
        # Mutations of a cache hit must not poison later hits.
        profile_a.load_miss_counts.clear()
        for hint in hints_a:
            hint.distance = -1
        profile_c, hints_c = cached_profile("micro-tiny")
        assert profile_c.load_miss_counts == profile_b.load_miss_counts
        assert all(h.distance != -1 for h in hints_c)


class TestFormattingEdges:
    def test_large_floats_one_decimal(self):
        from repro.experiments.result import format_table

        text = format_table(["v"], [[12345.678]])
        assert "12345.7" in text

    def test_summary_rendering(self):
        from repro.experiments.result import format_table

        text = format_table(
            ["a"], [[1]], summary={"geomean": 1.23456}, notes="hello"
        )
        assert "geomean: 1.235" in text
        assert text.endswith("hello")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_experiments.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = sorted(
        (name, golden_entry(ALL_EXPERIMENTS[name].run("tiny")))
        for name in ALL_EXPERIMENTS
    )
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
            for name, entry in entries
        )
        + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
