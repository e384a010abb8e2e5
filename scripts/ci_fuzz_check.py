#!/usr/bin/env python3
"""CI guard for the generative differential-fuzzing subsystem.

Eight gates, all with fixed seeds so the job is deterministic:

1. **Import sanity** — every core runtime module imports cleanly on
   its own, so a broken lazy import cannot hide behind whichever
   engine the fuzz run happens to exercise first; and the entry points
   (``repro.api``, ``repro.cli``, ``repro.serve``) import in a process
   where ``import scipy`` fails, since scipy is a test-only dependency.
2. **Clean fuzz** — ``--budget`` generated programs (plus an Eq-1/Eq-2
   analytic-model sweep) must pass the full differential oracle: turbo
   and reference x tracing on/off x every prefetch scheme,
   bit-identical.
3. **Corpus replay** — every case under ``tests/corpus/`` must pass
   the same oracle (they are shrunk former failures or seeded
   construct-coverage programs).
4. **Mutation self-test** — turbo over a scratch copy of its block
   compiler with a seeded off-by-one in its cycle accounting must be
   *caught* by the oracle and *shrunk* to at most
   ``--max-mutant-blocks`` basic blocks, proving the finder and the
   minimizer both work.
5. **Trace-arm mutation self-test** — turbo over a scratch copy of
   its superblock compiler whose inlined L1-hit arms report a
   prefetch's first use one L1 latency late must be *caught* by the
   traced turbo-vs-reference comparison within
   ``TRACE_MUTANT_BUDGET`` generated programs, while the real turbo
   passes the same traced matrix — proving traced runs bulk-step and
   that their trace streams are checked there.
6. **Batch axis** — every corpus case plus ``--batch-budget`` generated
   programs must be bit-identical between the batched multi-config
   runner (:func:`repro.machine.batch.run_batch`, the
   ``batchturbo`` tier) and fresh sequential turbo ``Machine`` runs of
   the same cells, over both a uniform cache-scale batch and a
   divergent A&J-distance batch.
7. **Code-cache axis** — every corpus case plus ``--codecache-budget``
   generated programs must be bit-identical between a fresh compile and
   a persistent-code-cache load (turbo x every scheme, untraced; the
   warm cell must be a real cache hit), and the
   cache's validate-or-recompile guard must *detect* deliberately stale
   and booby-trapped cached modules (``check_codecache_selftest``).
8. **Memory mutation self-test** — every seeded one-line
   ``MemorySystem`` bug in :data:`repro.qa.mutants.MEMORY_MUTANTS` must
   be *caught* by the independent-model state machine
   (``tests/test_mem_stateful.MemModelMachine``) within that module's
   fixed ``MUTANT_EXAMPLES`` derandomized examples, proving the model
   that carries memory correctness can see a timing or counter bug.

``--stateful`` additionally drives the memory-model and
store/code-cache hypothesis state machines (``tests/test_mem_stateful``,
``tests/test_store_stateful``) at ``--stateful-examples`` examples each
— the nightly-depth budget, far above the bounded in-suite profiles.

Usage:
    python scripts/ci_fuzz_check.py [--budget 50] [--seed 20260805]
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
import time
from pathlib import Path

from repro.qa.corpus import default_corpus_dir, iter_cases
from repro.qa.fuzz import run_fuzz
from repro.qa.generate import GeneratorConfig, generate_spec
from repro.qa.mutants import (
    TRACE_MUTANT_ENGINE,
    mutant_oracle_setup,
    trace_mutant_oracle_setup,
    traced_bulk_config,
)
from repro.qa.oracle import (
    batch_failure,
    check_codecache_selftest,
    codecache_failure,
    oracle_failure,
)

# Every module an engine or the oracle reaches lazily.  Each must
# import standalone: a typo in one of these surfaces as a hard failure
# here instead of as a mysteriously-skipped engine in the fuzz gate.
SANITY_MODULES = (
    "repro.api",
    "repro.machine.batch",
    "repro.machine.batchturbo",
    "repro.machine.blockengine",
    "repro.machine.codecache",
    "repro.machine.fusion",
    "repro.machine.interpreter",
    "repro.machine.machine",
    "repro.machine.superblock",
    "repro.mem.batch",
    "repro.mem.hierarchy",
    "repro.qa.fuzz",
    "repro.qa.oracle",
    "repro.service.api",
)

# scipy is only the test oracle for the in-tree CWT peak finder; no
# entry point may import it.
BLOCKED_SCIPY_IMPORT = (
    "import sys; sys.modules['scipy'] = None; "
    "import repro.api, repro.cli, repro.serve"
)


def check_import_sanity() -> bool:
    failures = []
    for name in SANITY_MODULES:
        try:
            importlib.import_module(name)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    blocked = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_IMPORT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if blocked.returncode != 0:
        last = (blocked.stderr.strip().splitlines() or ["no output"])[-1]
        failures.append(f"entry points with scipy blocked: {last}")
    if failures:
        for line in failures:
            print(f"FAIL: import {line}")
        return False
    print(
        f"OK: {len(SANITY_MODULES)} core module(s) import standalone; "
        "entry points import with scipy blocked"
    )
    return True


def check_clean_fuzz(budget: int, seed: int, model_cases: int) -> bool:
    start = time.perf_counter()
    stats = run_fuzz(
        budget=budget, seed=seed, model_cases=model_cases, shrink=True
    )
    elapsed = time.perf_counter() - start
    if not stats.ok:
        print(f"FAIL: clean fuzz found failures\n{stats.summary()}")
        return False
    print(
        f"OK: {stats.programs} program(s) and {stats.model_cases} model "
        f"case(s) passed the differential oracle in {elapsed:.1f}s"
    )
    return True


def check_corpus_replay() -> bool:
    corpus_dir = default_corpus_dir()
    total = failures = 0
    for name, case in iter_cases(corpus_dir):
        total += 1
        failure = oracle_failure(case["spec"])
        if failure is not None:
            failures += 1
            print(f"FAIL: corpus {name}: {failure.summary()}")
    if failures:
        return False
    if not total:
        print(f"FAIL: no corpus cases under {corpus_dir}")
        return False
    print(f"OK: replayed {total} corpus case(s)")
    return True


def check_mutation_selftest(seed: int, max_blocks: int) -> bool:
    config, runners = mutant_oracle_setup()
    stats = run_fuzz(
        budget=3,
        seed=seed,
        oracle_config=config,
        runners=runners,
        shrink=True,
        model_cases=0,
        max_findings=1,
    )
    if stats.ok:
        print(
            "FAIL: the off-by-one mutant engine passed the oracle "
            "(the differential check is blind)"
        )
        return False
    finding = stats.findings[0]
    if finding.shrunk_blocks is None:
        print("FAIL: mutant failure was not shrunk")
        return False
    if finding.shrunk_blocks > max_blocks:
        print(
            f"FAIL: mutant failure shrank to {finding.shrunk_blocks} "
            f"block(s), above the {max_blocks}-block bound"
        )
        return False
    print(
        f"OK: mutant caught ({finding.failure.summary()}) and shrunk to "
        f"{finding.shrunk_blocks} block(s)"
    )
    return True


#: Generated programs the trace-arm mutant gets to show itself in: a
#: program exposes it only when a fused loop consumes a prefetched line
#: that an earlier miss already drained into the L1.
TRACE_MUTANT_BUDGET = 12


def check_trace_mutant(seed: int) -> bool:
    clean = run_fuzz(
        budget=TRACE_MUTANT_BUDGET,
        seed=seed,
        oracle_config=traced_bulk_config(),
        shrink=False,
        model_cases=0,
    )
    if not clean.ok:
        print(
            "FAIL: turbo failed the traced bulk-stepping matrix\n"
            f"{clean.summary()}"
        )
        return False
    config, runners = trace_mutant_oracle_setup()
    stats = run_fuzz(
        budget=TRACE_MUTANT_BUDGET,
        seed=seed,
        oracle_config=config,
        runners=runners,
        shrink=False,
        model_cases=0,
        max_findings=1,
    )
    caught = [
        finding
        for finding in stats.findings
        if finding.failure.engine == TRACE_MUTANT_ENGINE
    ]
    if not caught:
        print(
            "FAIL: the late trace-arm mutant passed the traced oracle "
            f"on {TRACE_MUTANT_BUDGET} program(s) (traced bulk stepping "
            "is unchecked)"
        )
        return False
    print(
        f"OK: {clean.programs} program(s) bit-identical traced on turbo's "
        f"steppers; trace-arm mutant caught "
        f"({caught[0].failure.summary()})"
    )
    return True


def check_batch_axis(budget: int, seed: int) -> bool:
    """Batch-vs-sequential differential: corpus + generated programs."""
    start = time.perf_counter()
    total = failures = 0
    for name, case in iter_cases(default_corpus_dir()):
        total += 1
        failure = batch_failure(case["spec"])
        if failure is not None:
            failures += 1
            print(f"FAIL: batch axis corpus {name}: {failure.summary()}")
    gen_config = GeneratorConfig()
    for i in range(budget):
        total += 1
        spec = generate_spec(seed + i, gen_config)
        failure = batch_failure(spec)
        if failure is not None:
            failures += 1
            print(f"FAIL: batch axis seed {seed + i}: {failure.summary()}")
    if failures:
        return False
    if not total:
        print("FAIL: batch axis ran zero cases")
        return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {total} case(s) bit-identical between batched and "
        f"sequential execution in {elapsed:.1f}s"
    )
    return True


def check_codecache_axis(budget: int, seed: int) -> bool:
    """Fresh-vs-cached-load differential plus the cache's own mutation
    self-test: corpus + generated programs."""
    start = time.perf_counter()
    total = failures = 0
    for name, case in iter_cases(default_corpus_dir()):
        total += 1
        failure = codecache_failure(case["spec"])
        if failure is not None:
            failures += 1
            print(f"FAIL: codecache axis corpus {name}: {failure.summary()}")
    gen_config = GeneratorConfig()
    for i in range(budget):
        total += 1
        spec = generate_spec(seed + i, gen_config)
        failure = codecache_failure(spec)
        if failure is not None:
            failures += 1
            print(
                f"FAIL: codecache axis seed {seed + i}: {failure.summary()}"
            )
    if failures:
        return False
    if not total:
        print("FAIL: codecache axis ran zero cases")
        return False
    try:
        detected = check_codecache_selftest(generate_spec(seed, gen_config))
    except Exception as exc:  # noqa: BLE001 - an undetected mutant
        print(f"FAIL: codecache self-test: {exc}")
        return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {total} case(s) bit-identical between fresh compile and "
        f"code-cache load; {detected} planted stale/booby-trapped "
        f"module(s) detected, in {elapsed:.1f}s"
    )
    return True


def _import_test_module(name: str):
    """Import a module of the test suite (the state machines live
    there)."""
    import os

    root = Path(__file__).resolve().parents[1]
    # Make both the repo root (for the ``tests.*`` helpers the machines
    # import) and the tests directory (for the modules themselves)
    # importable.
    for path in (str(root), str(root / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ.setdefault("CI", "true")  # load the derandomized profile
    return importlib.import_module(name)


def check_memory_mutants() -> bool:
    """Every seeded memory-model mutant must fail the model machine
    within the fixed example budget ``MUTANT_EXAMPLES``."""
    from repro.qa.mutants import MEMORY_MUTANTS

    test_mem_stateful = _import_test_module("test_mem_stateful")
    examples = test_mem_stateful.MUTANT_EXAMPLES
    start = time.perf_counter()
    survivors = [
        name
        for name in sorted(MEMORY_MUTANTS)
        if test_mem_stateful.find_memory_mutant(name, examples) is None
    ]
    if survivors:
        print(
            f"FAIL: memory mutant(s) {', '.join(survivors)} passed the "
            f"model machine in {examples} example(s) (the model is blind)"
        )
        return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {len(MEMORY_MUTANTS)} memory mutant(s) caught by the model "
        f"machine within {examples} example(s) each in {elapsed:.1f}s"
    )
    return True


def check_stateful_machines(examples: int, seed: int) -> bool:
    """Nightly-depth run of the hypothesis state machines: the memory
    model against its independent reimplementation and the
    store/code-cache poisoning model."""
    from hypothesis import settings
    from hypothesis.stateful import run_state_machine_as_test

    test_mem_stateful = _import_test_module("test_mem_stateful")
    test_store_stateful = _import_test_module("test_store_stateful")

    machines = (
        test_mem_stateful.MemModelMachine,
        test_store_stateful.StoreRaceMachine,
        test_store_stateful.CodeCacheMachine,
    )
    deep = settings(
        max_examples=examples,
        stateful_step_count=50,
        derandomize=True,
        deadline=None,
    )
    start = time.perf_counter()
    for machine in machines:
        try:
            run_state_machine_as_test(machine, settings=deep)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            print(f"FAIL: {machine.__name__}: {exc}")
            return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {len(machines)} state machine(s) x {examples} example(s) "
        f"x 50 steps held all invariants in {elapsed:.1f}s"
    )
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20260805)
    parser.add_argument("--model-cases", type=int, default=200)
    parser.add_argument("--max-mutant-blocks", type=int, default=3)
    parser.add_argument("--batch-budget", type=int, default=50)
    # Each codecache-axis case runs the program 9 times (scheme x
    # fresh/populate/warm), so the smoke default is small; nightly
    # passes a bigger budget alongside --stateful.
    parser.add_argument("--codecache-budget", type=int, default=5)
    parser.add_argument(
        "--stateful",
        action="store_true",
        help="also run the stateful property machines at nightly depth",
    )
    parser.add_argument("--stateful-examples", type=int, default=100)
    args = parser.parse_args()

    ok = check_import_sanity()
    ok = check_clean_fuzz(args.budget, args.seed, args.model_cases) and ok
    ok = check_corpus_replay() and ok
    ok = check_mutation_selftest(args.seed, args.max_mutant_blocks) and ok
    ok = check_trace_mutant(args.seed) and ok
    ok = check_batch_axis(args.batch_budget, args.seed) and ok
    ok = check_codecache_axis(args.codecache_budget, args.seed) and ok
    ok = check_memory_mutants() and ok
    if args.stateful:
        ok = check_stateful_machines(args.stateful_examples, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
