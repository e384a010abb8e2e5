"""§2's framing: how close does each scheme come to an *ideal* prefetcher?

The paper motivates APT-GET by showing that the state of the art "falls
significantly short of an ideal (in terms of accuracy, coverage, and
timeliness) data prefetcher".  The simulator can run that ideal directly:
``MemoryConfig.ideal_prefetching`` serves every demand load at L1 latency
(perfect coverage, perfect timeliness, zero overhead).  This experiment
reports each scheme's fraction of the ideal speedup recovered.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.result import ExperimentResult
from repro.experiments.runner import (
    cached_baseline,
    cached_profile,
    geomean,
    run_ainsworth_jones,
    run_with_hints,
    scale_suite,
)
from repro.machine.config import MachineConfig, paper_like_memory
from repro.machine.machine import Machine
from repro.workloads.registry import make_workload

def run(scale: str = "small") -> ExperimentResult:
    names = scale_suite(scale)
    ideal_config = MachineConfig(
        memory=dataclasses.replace(paper_like_memory(), ideal_prefetching=True)
    )
    rows = []
    fractions_aj = []
    fractions_apt = []
    for name in names:
        baseline = cached_baseline(name, scale)
        module, space = make_workload(name, scale).build()
        ideal = Machine(module, space, config=ideal_config).run("main")
        ideal_speedup = baseline.cycles / ideal.counters.cycles

        aj = run_ainsworth_jones(make_workload(name, scale))
        _, hints = cached_profile(name, scale)
        apt = run_with_hints(make_workload(name, scale), hints)
        aj_speedup = baseline.cycles / aj.cycles
        apt_speedup = baseline.cycles / apt.cycles

        def fraction(speedup: float) -> float:
            # Fraction of the ideal's cycle savings recovered.
            if ideal_speedup <= 1.0:
                return 1.0
            saved = 1.0 - 1.0 / speedup if speedup > 0 else 0.0
            ideal_saved = 1.0 - 1.0 / ideal_speedup
            return max(0.0, saved / ideal_saved)

        fractions_aj.append(fraction(aj_speedup))
        fractions_apt.append(fraction(apt_speedup))
        rows.append(
            [
                name,
                round(ideal_speedup, 3),
                round(aj_speedup, 3),
                round(apt_speedup, 3),
                round(fractions_aj[-1], 3),
                round(fractions_apt[-1], 3),
            ]
        )

    def avg(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return ExperimentResult(
        experiment="ideal",
        title="Fraction of the ideal prefetcher's savings recovered (§2)",
        headers=[
            "workload",
            "ideal speedup",
            "A&J",
            "APT-GET",
            "A&J fraction",
            "APT-GET fraction",
        ],
        rows=rows,
        summary={
            "avg_fraction_aj": round(avg(fractions_aj), 3),
            "avg_fraction_apt_get": round(avg(fractions_apt), 3),
            "geomean_ideal": round(
                geomean([row[1] for row in rows]), 3
            ),
        },
        notes=(
            "Paper §2: static techniques are accurate but fall far short "
            "of ideal due to timeliness; APT-GET closes most of the gap."
        ),
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
