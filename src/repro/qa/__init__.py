"""``repro.qa`` — generative differential fuzzing for the whole stack.

The subsystem keeps the three execution engines, the two prefetch
passes, and the memory/observability layers honest on programs far
outside the hand-written workload registry:

* :mod:`repro.qa.generate` — seeded random IR-program generator.  A
  program is described by a plain-JSON *spec* (loops, indirect loads,
  calls, multi-latch CFGs) that builds deterministically into a
  verifier-clean ``(module, space)`` pair.
* :mod:`repro.qa.oracle` — the differential oracle: every engine,
  tracing off and on, both prefetch passes, bit-identical
  values/counters/samples/trace events, plus metamorphic invariants
  (counter conservation, lifecycle accounting) and the Eq-1/Eq-2
  analytic model oracles.
* :mod:`repro.qa.shrink` — delta-debugging minimizer over specs.
* :mod:`repro.qa.corpus` — the replayable regression corpus under
  ``tests/corpus/`` (pytest replays every case).
* :mod:`repro.qa.fuzz` — the fuzzing driver tying it all together.
* :mod:`repro.qa.mutants` — deliberately broken scratch engine and
  memory-model copies used to prove the oracle + shrinker and the
  memory model's state machine actually catch bugs.
"""

from repro.qa.corpus import (
    default_corpus_dir,
    iter_cases,
    load_case,
    save_case,
)
from repro.qa.fuzz import FuzzStats, run_fuzz
from repro.qa.generate import (
    GeneratorConfig,
    build_program,
    generate_spec,
    spec_digest,
)
from repro.qa.oracle import (
    OracleConfig,
    OracleFailure,
    check_models,
    check_program,
    oracle_failure,
)
from repro.qa.shrink import count_blocks, shrink_spec

__all__ = [
    "FuzzStats",
    "GeneratorConfig",
    "OracleConfig",
    "OracleFailure",
    "build_program",
    "check_models",
    "check_program",
    "count_blocks",
    "default_corpus_dir",
    "generate_spec",
    "iter_cases",
    "load_case",
    "oracle_failure",
    "run_fuzz",
    "save_case",
    "shrink_spec",
    "spec_digest",
]
