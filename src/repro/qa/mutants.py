"""Deliberately broken scratch engine and memory-model copies
(oracle self-tests).

A fuzzer that never fails proves nothing — these mutants prove the
differential oracle and the shrinker actually catch and minimize engine
bugs.  Each mutant is built by taking the *source* of a real engine
module, applying a tiny seeded defect (an off-by-one in the cycle
accounting), and executing the mutated source into a scratch module —
the real engine module is never touched, so mutants are safe to build
inside a running test session.

The mutant plugs into the oracle as an extra engine via the ``runners``
parameter: the returned factory builds a normal turbo :class:`Machine`
whose compiled-form cache is pre-populated from the mutated compiler,
so every other layer (memory, PMU, tracing, sampling) is the production
code — exactly the situation a real engine regression would create.

The batched mutant (:func:`batchturbo_offbyone`) is installed over the
real ``compile_batch_turbo`` instead, so the batch axis's own
``BatchMachine`` builds run it.  The memory mutants
(:data:`MEMORY_MUTANTS`) are built the same way from
:mod:`repro.mem.hierarchy`; each yields a broken ``MemorySystem`` class
for the independent-model state machine to catch.
"""

from __future__ import annotations

import inspect
import types

from repro.machine import batchturbo, blockengine, superblock
from repro.machine.machine import Machine
from repro.mem import hierarchy
from repro.qa.oracle import OracleConfig


def _scratch_copy(
    module: types.ModuleType, needle: str, mutation: str, tag: str
) -> types.ModuleType:
    """A scratch copy of ``module`` with the one-line ``needle`` ->
    ``mutation`` defect (the real module is never touched)."""
    package, name = module.__name__.rsplit(".", 1)
    source = inspect.getsource(module)
    if source.count(needle) != 1:
        raise RuntimeError(
            f"mutation anchor for {tag!r} not found exactly once in the "
            f"{name} source; update repro.qa.mutants after refactoring"
        )
    mutated = source.replace(needle, mutation, 1)
    mutant = types.ModuleType(
        f"{package}._qa_{tag.replace('-', '_')}_{name}"
    )
    mutant.__file__ = f"<qa-mutant:{name}:{tag}>"
    exec(compile(mutated, mutant.__file__, "exec"), mutant.__dict__)
    return mutant


#: Off-by-one target: the block compiler's RET cost accounting.  Every
#: program retires at least one RET, so any generated program exposes
#: the defect (cycles drift by +1 per function return).
_RET_NEEDLE = (
    "            elif op is Opcode.RET:\n"
    "                pending += cfg.branch_cost\n"
)
_RET_MUTATION = (
    "            elif op is Opcode.RET:\n"
    "                pending += cfg.branch_cost + 1\n"
)

#: The name the mutant engine appears under in the oracle matrix.
MUTANT_ENGINE = "blocks-offbyone"


def offbyone_blockengine() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.blockengine` with a seeded
    off-by-one in the RET cycle cost."""
    return _scratch_copy(blockengine, _RET_NEEDLE, _RET_MUTATION, "offbyone")


def offbyone_runner(config: OracleConfig):
    """Machine factory for the off-by-one mutant (pass to the oracle as
    ``runners={MUTANT_ENGINE: offbyone_runner(config)}``).

    The mutated block chains are reached through turbo exactly as in
    production: every block a superblock does not fuse (a RET never
    is)."""
    mutant = offbyone_blockengine()

    def make(module, space) -> Machine:
        machine = Machine(
            module, space, config=config.machine_config(), engine="turbo"
        )
        for name, function in module.functions.items():
            machine._compiled[name] = superblock.fuse(
                function,
                machine.config,
                mutant.compile_blocks(function, machine.config),
            )
        return machine

    return make


#: Off-by-one target for the turbo tier: the steady-state stepper's
#: iteration-count math.  The superblock codegen folds one completed
#: fused iteration's retired count into the running accumulator at
#: every back edge; adding one there makes every bulk-stepped loop
#: over-report ``instructions`` by its trip count — invisible to the
#: values/cycles checks, caught only by a counter-exact differential.
_TURBO_NEEDLE = '        self.emit(f"_rt += {rt}")\n'
_TURBO_MUTATION = '        self.emit(f"_rt += {rt} + 1")\n'

#: The name the turbo mutant engine appears under in the oracle matrix.
TURBO_MUTANT_ENGINE = "turbo-offbyone"


#: Trace-arm target for the turbo tier: the profiled stepper's inlined
#: L1-hit report of a software prefetch's first use.  Stamping it one
#: L1 latency late shifts every timely margin of a bulk-stepped loop
#: while values, counters and every untraced stream stay clean — only
#: a traced differential that compares lifecycle spans can see it.
_TRACE_USE_NEEDLE = (
    '            self.emit("                    TR.on_use(_line, cycle, False)")\n'
)
_TRACE_USE_MUTATION = (
    '            self.emit(f"                    TR.on_use(_line, cycle + {self.l1_lat}, False)")\n'
)

#: The name the trace-arm mutant engine appears under in the oracle
#: matrix.
TRACE_MUTANT_ENGINE = "turbo-trace-late"

#: Sample period of the traced bulk-stepping matrix: far enough apart
#: that the profiled steppers clear their entry guard (at the oracle's
#: default 251-cycle period a loop with a load never bulk-steps).
TRACED_BULK_PERIOD = 1 << 16


def offbyone_superblock() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.superblock` with a seeded
    off-by-one in the back-edge retired-count accumulation."""
    return _scratch_copy(
        superblock, _TURBO_NEEDLE, _TURBO_MUTATION, "offbyone"
    )


def trace_late_superblock() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.superblock` whose inlined
    L1-hit arms report a prefetch's first use one L1 latency late."""
    return _scratch_copy(
        superblock, _TRACE_USE_NEEDLE, _TRACE_USE_MUTATION, "trace_late"
    )


def batchturbo_offbyone() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.batchturbo` with turbo's
    back-edge off-by-one (its codegen folds a completed iteration with
    the same ``_TURBO_NEEDLE`` line): every batch-stepped loop
    over-reports ``instructions`` in every cell, which only the batch
    axis's cell-vs-sequential counter comparison can see.

    Install its ``compile_batch_turbo`` over the real one
    (``codecache.load_or_compile_batch`` resolves that name at call
    time) with the code cache off, so no mutated stepper is stored."""
    return _scratch_copy(
        batchturbo, _TURBO_NEEDLE, _TURBO_MUTATION, "offbyone"
    )


def _superblock_runner(mutant: types.ModuleType, config: OracleConfig):
    """Machine factory: a turbo Machine whose compiled forms all come
    from the mutated superblock compiler."""

    def make(module, space) -> Machine:
        machine = Machine(
            module, space, config=config.machine_config(), engine="turbo"
        )
        for name, function in module.functions.items():
            machine._compiled[name] = mutant.compile_turbo(
                function, machine.config
            )
        return machine

    return make


def turbo_mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for a turbo-mutant differential run:
    the reference interpreter vs the broken bulk stepper, untraced
    'none' scheme only — the minimal matrix that still catches the
    bug."""
    base = base or OracleConfig()
    from dataclasses import replace

    config = replace(
        base,
        engines=("reference", TURBO_MUTANT_ENGINE),
        schemes=("none",),
        traced_modes=(False,),
    )
    return config, {
        TURBO_MUTANT_ENGINE: _superblock_runner(offbyone_superblock(), config)
    }


def traced_bulk_config(base: OracleConfig = None) -> OracleConfig:
    """Reference vs turbo, traced, A&J-injected, with samples far
    enough apart that turbo's profiled steppers run under the trace —
    the matrix the trace-arm mutant must fail and turbo must pass."""
    base = base or OracleConfig()
    from dataclasses import replace

    return replace(
        base,
        engines=("reference", "turbo"),
        schemes=("aj",),
        traced_modes=(True,),
        sample_period=TRACED_BULK_PERIOD,
    )


def trace_mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for the trace-arm mutant: the
    reference interpreter vs turbo over the late-stamping superblock
    compiler, on :func:`traced_bulk_config`'s traced matrix."""
    from dataclasses import replace

    config = replace(
        traced_bulk_config(base),
        engines=("reference", TRACE_MUTANT_ENGINE),
    )
    return config, {
        TRACE_MUTANT_ENGINE: _superblock_runner(
            trace_late_superblock(), config
        )
    }


def mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for a mutant differential run: the
    reference interpreter vs turbo over the broken block compiler,
    untraced 'none' scheme only — the minimal matrix that still catches
    the bug."""
    base = base or OracleConfig()
    from dataclasses import replace

    config = replace(
        base,
        engines=("reference", MUTANT_ENGINE),
        schemes=("none",),
        traced_modes=(False,),
    )
    return config, {MUTANT_ENGINE: offbyone_runner(config)}


#: Seeded one-line bugs in the memory model: name -> (needle,
#: mutation).  The independent model in ``tests/test_mem_stateful.py``
#: must catch every one (``scripts/ci_fuzz_check.py`` gates on it).
MEMORY_MUTANTS = {
    # The FIFO drain completes every fill one cycle late.
    "drain-late": (
        "            if ready > now:\n",
        "            if ready + 1 > now:\n",
    ),
    # A load coalescing with a software prefetch is not counted late.
    "coalesce-no-late-count": (
        "                counters.load_hit_pre_sw_pf += 1\n",
        "                pass\n",
    ),
    # The stride prefetcher requests one line fewer than its degree.
    "stride-short-degree": (
        "            for i in range(1, self._stride_degree + 1):\n",
        "            for i in range(1, self._stride_degree):\n",
    ),
}


def memory_mutant(name: str) -> type:
    """A scratch copy of :class:`repro.mem.hierarchy.MemorySystem` with
    the seeded bug ``name`` (a key of :data:`MEMORY_MUTANTS`)."""
    needle, mutation = MEMORY_MUTANTS[name]
    return _scratch_copy(hierarchy, needle, mutation, name).MemorySystem
