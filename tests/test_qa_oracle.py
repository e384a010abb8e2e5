"""The differential oracle: clean programs pass the full matrix, a
seeded engine defect is caught, and the analytic Eq-1/Eq-2 model
oracles hold."""

from __future__ import annotations

import pytest

from repro.qa.fuzz import run_fuzz
from repro.qa.generate import generate_spec
from repro.qa.mutants import (
    MUTANT_ENGINE,
    TRACE_MUTANT_ENGINE,
    TURBO_MUTANT_ENGINE,
    batchturbo_offbyone,
    mutant_oracle_setup,
    offbyone_blockengine,
    offbyone_superblock,
    trace_late_superblock,
    trace_mutant_oracle_setup,
    traced_bulk_config,
    turbo_mutant_oracle_setup,
)
from repro.qa.oracle import (
    OracleConfig,
    OracleFailure,
    batch_failure,
    check_batch,
    check_models,
    check_program,
    focused_config,
    oracle_failure,
)


def test_generated_programs_pass_full_matrix():
    # Two engines x tracing on/off x three schemes, bit-identical.
    for seed in (0, 1, 2):
        check_program(generate_spec(seed))


def test_batch_axis_is_bit_identical():
    # Uniform cache-scale batch + divergent A&J-distance batch, each
    # cell identical to a fresh sequential Machine run.
    for seed in (0, 1, 2):
        report = check_batch(generate_spec(seed))
        assert set(report["axes"]) == {"batch-uniform", "batch-aj"}


def test_batch_failure_predicate_matches_check():
    spec = generate_spec(3)
    assert batch_failure(spec) is None
    check_batch(spec)  # must not raise either


def test_oracle_failure_predicate_matches_check():
    spec = generate_spec(3)
    assert oracle_failure(spec) is None
    check_program(spec)  # must not raise either


def test_mutant_engine_is_caught():
    config, runners = mutant_oracle_setup()
    spec = generate_spec(0)
    failure = oracle_failure(spec, config, runners)
    assert failure is not None
    assert failure.engine == MUTANT_ENGINE
    assert failure.check == "differential"
    assert "cycles" in failure.detail


def test_turbo_mutant_engine_is_caught():
    # The seeded off-by-one in the bulk stepper's iteration-count math
    # only perturbs the instructions counter — values and cycles stay
    # clean — so catching it proves the oracle is counter-exact across
    # bulk-stepped iterations, not just end-state-exact.
    config, runners = turbo_mutant_oracle_setup()
    spec = generate_spec(0)
    failure = oracle_failure(spec, config, runners)
    assert failure is not None
    assert failure.engine == TURBO_MUTANT_ENGINE
    assert failure.check == "differential"
    assert "instructions" in failure.detail


def test_trace_mutant_engine_is_caught():
    # The late first-use stamp in the profiled stepper's L1-hit arm
    # moves only trace timestamps; catching it proves traced runs
    # bulk-step and that the traced differential compares the spans.
    spec = generate_spec(20260811)
    assert oracle_failure(spec, traced_bulk_config()) is None
    config, runners = trace_mutant_oracle_setup()
    failure = oracle_failure(spec, config, runners)
    assert failure is not None
    assert failure.engine == TRACE_MUTANT_ENGINE
    assert failure.check == "differential-trace"
    assert "trace.spans" in failure.detail


def test_batchturbo_mutant_is_caught_by_batch_axis(monkeypatch):
    # The batched back-edge off-by-one over-reports ``instructions`` in
    # every cell of a batch-stepped loop; the batch axis compares each
    # cell with a sequential run and must see it, while the real tier
    # passes the same seeds.  The code cache stays off so no mutated
    # stepper is stored.
    import repro.machine.batchturbo as real

    monkeypatch.delenv("REPRO_CODE_CACHE", raising=False)
    specs = [generate_spec(seed) for seed in range(12)]
    assert all(batch_failure(spec) is None for spec in specs)
    mutant = batchturbo_offbyone()
    assert mutant.compile_batch_turbo is not real.compile_batch_turbo
    monkeypatch.setattr(
        real, "compile_batch_turbo", mutant.compile_batch_turbo
    )
    checks = [batch_failure(spec) for spec in specs]
    assert any(
        failure is not None and failure.check == "batch-differential"
        for failure in checks
    )


def test_trace_mutant_module_is_scratch_copy():
    import repro.machine.superblock as real

    mutant = trace_late_superblock()
    assert mutant is not real
    assert mutant.compile_turbo is not real.compile_turbo


def test_turbo_mutant_module_is_scratch_copy():
    import repro.machine.superblock as real

    mutant = offbyone_superblock()
    assert mutant is not real
    assert mutant.compile_turbo is not real.compile_turbo
    assert "offbyone" not in (real.__file__ or "")


def test_mutant_module_is_scratch_copy():
    import repro.machine.blockengine as real

    mutant = offbyone_blockengine()
    assert mutant is not real
    assert mutant.compile_blocks is not real.compile_blocks
    # Building the mutant must not have touched the real module.
    assert "offbyone" not in (real.__file__ or "")


def test_focused_config_narrows_matrix():
    failure = OracleFailure(
        "differential",
        "cycles differ",
        scheme="aj",
        engine="turbo",
        traced=True,
    )
    narrowed = focused_config(failure, OracleConfig())
    assert narrowed.schemes == ("aj",)
    assert set(narrowed.engines) == {"reference", "turbo"}
    # Tracing modes stay un-narrowed: traced runs are compared against
    # the untraced baseline, so the focused matrix still needs both.
    assert narrowed.traced_modes == (False, True)


def test_check_models_sweeps_cases():
    checked = check_models(seed=0, cases=40)
    assert checked >= 40


def test_run_fuzz_clean_budget():
    stats = run_fuzz(budget=3, seed=100, model_cases=10)
    assert stats.ok
    assert stats.programs == 3
    assert stats.model_cases > 0
    assert "0 failure(s)" in stats.summary()


def test_run_fuzz_catches_and_records_mutant(tmp_path):
    config, runners = mutant_oracle_setup()
    stats = run_fuzz(
        budget=2,
        seed=0,
        oracle_config=config,
        runners=runners,
        corpus_dir=tmp_path,
        model_cases=0,
        max_findings=1,
    )
    assert not stats.ok
    finding = stats.findings[0]
    assert finding.failure.engine == MUTANT_ENGINE
    assert finding.shrunk_spec is not None
    assert finding.corpus_path is not None
    saved = list(tmp_path.glob("*.json"))
    assert len(saved) == 1


@pytest.mark.parametrize("scheme", ["none", "aj", "apt-get"])
def test_single_scheme_slices_run(scheme):
    config = OracleConfig(
        schemes=(scheme,), engines=("reference", "turbo"), traced_modes=(True,)
    )
    check_program(generate_spec(5), config)
