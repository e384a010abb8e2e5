"""Nothing imports scipy at run time: the entry points and a full
profile-guided run work in a process where ``import scipy`` fails, and
give the same hints and cycles as a run in this process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.api as api
from repro.service.api import TuningService

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # every ``import scipy...`` now fails
import repro.api, repro.cli, repro.serve
from repro.service.api import TuningService

service = TuningService()
profile = repro.api.execute(
    repro.api.ProfileRequest(workload="micro-tiny", scale="tiny"),
    service=service,
)
run = repro.api.execute(
    repro.api.RunRequest(workload="micro-tiny", scale="tiny", scheme="apt-get"),
    service=service,
)
print(json.dumps({
    "hints": profile.hints,
    "value": run.value,
    "counters": run.counters,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy.")),
}))
"""


def test_profile_and_aptget_run_without_scipy():
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_RUN],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    blocked = json.loads(done.stdout)
    assert blocked["scipy"] == []

    service = TuningService()
    profile = api.profile("micro-tiny", "tiny", service=service)
    run = api.run("micro-tiny", "tiny", scheme="apt-get", service=service)
    assert profile.hints["hints"]
    assert blocked["hints"] == profile.hints
    assert blocked["value"] == run.value
    assert blocked["counters"] == run.counters


def test_entry_points_leave_scipy_unimported():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.api, repro.cli, repro.serve; "
            "print('scipy' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
