"""The prefetch-lifecycle event stream, pinned to a committed golden.

The differential oracle compares traced reference runs with traced
turbo runs.  Both call the same memory model, so a trace arm that is
wrong the same way everywhere passes it.  This test pins the full
traced event stream — ``event_counts()``, the raw ``spans`` and
``demand`` rings and the per-site ``site_reports`` rollup — for the
``tests/corpus`` programs under ``aj`` and ``apt-get`` and for
``micro-tiny`` with ``aj`` at distance 8, and requires it byte for byte.
The golden keeps each stream's SHA-256 over its canonical JSON plus the
readable parts a mismatch is diagnosed from: the counts, the site
rollup and the first ``HEAD`` entries of each ring.

Regenerate only for an intended change to simulated timing::

    PYTHONPATH=src python tests/test_trace_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.machine.machine import Machine
from repro.obs.sites import site_reports
from repro.passes.ainsworth_jones import AinsworthJonesConfig, AinsworthJonesPass
from repro.qa.corpus import iter_cases
from repro.qa.oracle import OracleConfig, _observe, _scheme_builder
from repro.workloads.registry import make_workload

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_events.json"

SCHEMES = ("aj", "apt-get")
HEAD = 32
MICRO = ("micro-tiny", "aj", 8)


def _stream(trace) -> dict:
    return {
        "counts": trace.event_counts(),
        "spans": [list(span) for span in trace.spans],
        "demand": [list(event) for event in trace.demand],
        "site_reports": {
            label: report.to_dict()
            for label, report in sorted(site_reports(trace).items())
        },
    }


def _canonical(stream: dict) -> str:
    return json.dumps(stream, sort_keys=True, separators=(",", ":"))


def corpus_stream(spec: dict, scheme: str) -> dict:
    config = OracleConfig()
    builder = _scheme_builder(spec, scheme, config)
    observation = _observe(builder, "turbo", True, config)
    return _stream(observation["_trace_obj"])


def micro_stream() -> dict:
    name, _, distance = MICRO
    workload = make_workload(name)
    module, space = workload.build()
    AinsworthJonesPass(AinsworthJonesConfig(distance=distance)).run(module)
    machine = Machine(module, space)
    trace = machine.enable_tracing()
    machine.run(workload.entry)
    return _stream(trace)


def cases() -> list:
    out = [
        (f"{name}/{scheme}", case["spec"], scheme)
        for name, case in iter_cases()
        for scheme in SCHEMES
    ]
    out.append(("{}/{}/d{}".format(*MICRO), None, MICRO[1]))
    return out


def summary(stream: dict) -> dict:
    """The golden entry for one stream."""
    return {
        "sha256": hashlib.sha256(_canonical(stream).encode()).hexdigest(),
        "counts": stream["counts"],
        "site_reports": stream["site_reports"],
        "spans_head": stream["spans"][:HEAD],
        "demand_head": stream["demand"][:HEAD],
    }


def run_case(spec, scheme) -> dict:
    return micro_stream() if spec is None else corpus_stream(spec, scheme)


def record() -> dict:
    return {
        key: summary(run_case(spec, scheme)) for key, spec, scheme in cases()
    }


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, _, _ in CASES)


@pytest.mark.parametrize(
    "key,spec,scheme", CASES, ids=[key for key, _, _ in CASES]
)
def test_trace_stream_matches_golden(golden, key, spec, scheme):
    got = json.loads(json.dumps(summary(run_case(spec, scheme))))
    want = golden[key]
    for field in ("counts", "site_reports", "spans_head", "demand_head"):
        assert got[field] == want[field], field
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = sorted(record().items())
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
            for key, entry in entries
        )
        + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
