"""The differential oracle: what "correct" means for a generated program.

One spec is checked as ``schemes x engines x tracing``:

* **schemes** — the unmodified program (``none``), the static
  Ainsworth & Jones pass (``aj``), and the full profile-guided APT-GET
  pipeline (``apt-get``: profile on the reference engine, Eq-1/Eq-2
  analysis, injection pass, strict re-verification);
* **engines** — both canonical engines (turbo / reference) plus any
  caller-supplied scratch runners (see :mod:`repro.qa.mutants`).
  Traced and untraced turbo cells share one compile; whether a fused
  loop bulk-steps depends on its bound and the sample period, never
  on tracing;
* **tracing** — lifecycle tracing off and on.

Every observation must be **bit-identical** across engines (return
value, the full PMU counter vector, LBR snapshots, PEBS records,
prefetch-lifecycle spans, demand events, the traced branch ring,
per-site aggregates) and
identical between traced and untraced runs of the same engine
(tracing is observability, never behaviour).  On top of the
differential check, each observation must satisfy the metamorphic
invariants the simulator promises:

* ``PerfStat.check_invariants`` counter conservation;
* prefetch-lifecycle accounting — every issued software prefetch lands
  in exactly one terminal bucket, and traced per-site rollups equal the
  PMU totals;
* with tracing on, the span/demand rings are consistent with the
  counters.

:func:`check_models` is the analytic side: Eq-1 (distance = ceil(MC/IC))
and Eq-2 (inner vs outer site) recomputed on synthetic latency
distributions with known ground truth, including the documented
degraded paths (empty and single-peak distributions fall back to
distance 1, unreliable).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

from repro.core.aptget import AptGet, AptGetConfig
from repro.core.distance import MAX_DISTANCE, MIN_DISTANCE, optimal_distance
from repro.core.distribution import analyze_latency_distribution
from repro.core.site import InjectionSite, choose_injection_site
from repro.ir.verifier import verify_module
from repro.machine.config import ENGINES, MachineConfig
from repro.machine.machine import Machine
from repro.machine.pmu import PerfStat
from repro.mem.config import CacheConfig, MemoryConfig
from repro.obs.sites import site_reports
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.passes.aptget_pass import AptGetPass
from repro.profiling.collect import collect_profile
from repro.qa.generate import build_program

#: Scheme names in oracle order.
SCHEMES = ("none", "aj", "apt-get")

#: A runner maps (module, space) -> a ready Machine; used to plug
#: scratch engine copies (mutants) into the differential matrix.
MachineFactory = Callable[[object, object], Machine]


def qa_memory() -> MemoryConfig:
    """A very small hierarchy so the fuzzer's tiny arrays already miss
    at every level (same shape the unit-test fixtures use)."""
    return MemoryConfig(
        l1=CacheConfig("L1D", 1024, 4, 2),
        l2=CacheConfig("L2", 4096, 4, 12),
        llc=CacheConfig("LLC", 16 * 1024, 8, 40),
        dram_latency=360,
        mshr_entries=16,
    )


@dataclass(frozen=True)
class OracleConfig:
    """Which slice of the differential matrix to run."""

    engines: tuple = ENGINES
    schemes: tuple = SCHEMES
    traced_modes: tuple = (False, True)
    aj_distance: int = 4
    sample_period: int = 251
    trace_capacity: int = 8192
    function: str = "main"

    def machine_config(self, engine: str = "reference") -> MachineConfig:
        return MachineConfig(memory=qa_memory(), engine=engine)


class OracleFailure(AssertionError):
    """One oracle violation, with enough structure to focus a shrink."""

    def __init__(
        self,
        check: str,
        detail: str,
        scheme: Optional[str] = None,
        engine: Optional[str] = None,
        traced: Optional[bool] = None,
    ) -> None:
        self.check = check
        self.detail = detail
        self.scheme = scheme
        self.engine = engine
        self.traced = traced
        super().__init__(self.summary())

    def summary(self) -> str:
        where = "/".join(
            str(part)
            for part in (
                self.scheme,
                self.engine,
                None if self.traced is None else f"traced={self.traced}",
            )
            if part is not None
        )
        prefix = f"[{self.check}]" + (f" {where}:" if where else "")
        return f"{prefix} {self.detail}"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "detail": self.detail,
            "scheme": self.scheme,
            "engine": self.engine,
            "traced": self.traced,
        }


# ----------------------------------------------------------------------
# Scheme preparation
# ----------------------------------------------------------------------
def _scheme_builder(spec: dict, scheme: str, config: OracleConfig):
    """Return a () -> (module, space) builder with ``scheme`` applied.

    For ``apt-get`` the hints are computed once (profile run on the
    reference engine) and re-applied to every fresh build, exactly like
    the production pipeline's profile-then-recompile flow.
    """
    if scheme == "none":
        return lambda: build_program(spec)

    if scheme == "aj":
        pass_config = AinsworthJonesConfig(distance=config.aj_distance)

        def build_aj():
            module, space = build_program(spec)
            AinsworthJonesPass(pass_config).run(module)
            verify_module(module, strict=True)
            return module, space

        return build_aj

    if scheme == "apt-get":
        profile_module, profile_space = build_program(spec)
        machine = Machine(
            profile_module,
            profile_space,
            config=config.machine_config(),
            engine="reference",
        )
        profile = collect_profile(
            machine, config.function, period=config.sample_period
        )
        hints = AptGet(
            AptGetConfig(min_miss_count=2, min_latency_share=0.0)
        ).analyze(profile_module, profile)

        def build_aptget():
            module, space = build_program(spec)
            AptGetPass(hints).run(module)
            verify_module(module, strict=True)
            return module, space

        return build_aptget

    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def _observe(
    builder,
    engine: str,
    traced: bool,
    config: OracleConfig,
    runners: Optional[dict] = None,
) -> dict:
    """Run one (engine, tracing) cell and flatten everything comparable
    into plain data."""
    module, space = builder()
    factory = (runners or {}).get(engine)
    if factory is not None:
        machine = factory(module, space)
    else:
        machine = Machine(
            module, space, config=config.machine_config(), engine=engine
        )
    trace = (
        machine.enable_tracing(capacity=config.trace_capacity)
        if traced
        else None
    )
    machine.enable_profiling(period=config.sample_period)
    result = machine.run(config.function)

    sampler = machine.sampler
    assert sampler is not None
    observation = {
        "value": result.value,
        "counters": result.counters.as_dict(),
        "lbr_samples": [tuple(sample) for sample in sampler.samples],
        "pebs_counts": dict(sampler.load_miss_counts),
        "pebs_latency": dict(sampler.load_miss_latency),
        "outstanding": machine.mem.sw_prefetch_outstanding(),
    }
    if trace is not None:
        observation["trace"] = {
            "counts": trace.event_counts(),
            "spans": list(trace.spans),
            "demand": list(trace.demand),
            "branches": list(trace.branches),
            "stats": {
                label: asdict(stats)
                for label, stats in sorted(trace.stats.items())
            },
            "site_reports": {
                label: report.to_dict()
                for label, report in sorted(site_reports(trace).items())
            },
        }
        observation["_trace_obj"] = trace  # for invariants; not compared
    observation["_machine"] = machine  # for invariants; not compared
    return observation


#: Keys compared across engines / tracing modes (order matters for the
#: first-diff report).
_COMPARED_KEYS = (
    "value",
    "counters",
    "lbr_samples",
    "pebs_counts",
    "pebs_latency",
    "outstanding",
)


def _describe_diff(key: str, a, b) -> str:
    if key == "counters" and isinstance(a, dict) and isinstance(b, dict):
        diffs = [
            f"{name}: {a[name]!r} != {b[name]!r}"
            for name in a
            if a[name] != b[name]
        ]
        return f"counters differ ({'; '.join(diffs[:5])})"
    text_a, text_b = repr(a), repr(b)
    if len(text_a) > 120:
        text_a = text_a[:120] + "..."
    if len(text_b) > 120:
        text_b = text_b[:120] + "..."
    return f"{key} differ: {text_a} != {text_b}"


def _check_observation_invariants(
    observation: dict, scheme: str, engine: str, traced: bool
) -> None:
    counters = observation["_machine"].counters
    problems = PerfStat(counters).check_invariants()
    if problems:
        raise OracleFailure(
            "counter-invariants", "; ".join(problems), scheme, engine, traced
        )

    c = counters
    terminal = (
        c.sw_prefetch_useful
        + c.sw_prefetch_early_evicted
        + c.sw_prefetch_redundant
        + c.sw_prefetch_dropped_mshr
        + c.sw_prefetch_dropped_unmapped
        + observation["outstanding"]
    )
    if c.sw_prefetch_issued != terminal:
        raise OracleFailure(
            "lifecycle-accounting",
            f"issued={c.sw_prefetch_issued} != terminal buckets={terminal}",
            scheme,
            engine,
            traced,
        )
    if c.load_hit_pre_sw_pf > c.sw_prefetch_useful:
        raise OracleFailure(
            "lifecycle-accounting",
            f"LOAD_HIT_PRE {c.load_hit_pre_sw_pf} > useful "
            f"{c.sw_prefetch_useful}",
            scheme,
            engine,
            traced,
        )

    trace = observation.get("_trace_obj")
    if trace is None:
        return
    reports = site_reports(trace)
    totals = {
        field: sum(getattr(report, field) for report in reports.values())
        for field in (
            "issued", "timely", "late", "early_evicted",
            "dropped_mshr", "dropped_unmapped", "redundant", "unused",
        )
    }
    checks = (
        ("issued", totals["issued"], c.sw_prefetch_issued),
        ("timely+late", totals["timely"] + totals["late"],
         c.sw_prefetch_useful),
        ("early_evicted", totals["early_evicted"],
         c.sw_prefetch_early_evicted),
        ("redundant", totals["redundant"], c.sw_prefetch_redundant),
        ("dropped_mshr", totals["dropped_mshr"], c.sw_prefetch_dropped_mshr),
        ("dropped_unmapped", totals["dropped_unmapped"],
         c.sw_prefetch_dropped_unmapped),
        ("unused", totals["unused"], observation["outstanding"]),
    )
    for name, trace_total, pmu_total in checks:
        if trace_total != pmu_total:
            raise OracleFailure(
                "trace-vs-pmu",
                f"site rollup {name}={trace_total} != PMU {pmu_total}",
                scheme,
                engine,
                traced,
            )
    # Store coalesces count as late in the trace but not in
    # LOAD_HIT_PRE (a load-only PMU event), hence >=.
    if totals["late"] < c.load_hit_pre_sw_pf:
        raise OracleFailure(
            "trace-vs-pmu",
            f"trace late={totals['late']} < LOAD_HIT_PRE "
            f"{c.load_hit_pre_sw_pf}",
            scheme,
            engine,
            traced,
        )


def _check_differential(
    observations: dict, scheme: str, config: OracleConfig
) -> None:
    baseline_key = ("reference", False)
    if baseline_key not in observations:
        baseline_key = sorted(
            observations, key=lambda k: (k[0] != "reference", k)
        )[0]
    baseline = observations[baseline_key]

    for (engine, traced), observation in observations.items():
        if (engine, traced) == baseline_key:
            continue
        for key in _COMPARED_KEYS:
            if observation[key] != baseline[key]:
                raise OracleFailure(
                    "differential",
                    _describe_diff(key, baseline[key], observation[key])
                    + f" (vs {baseline_key[0]}/traced={baseline_key[1]})",
                    scheme,
                    engine,
                    traced,
                )

    # Trace streams must agree across engines (traced cells only).
    traced_keys = sorted(k for k in observations if k[1])
    if len(traced_keys) > 1:
        reference_trace = observations[traced_keys[0]]["trace"]
        for key in traced_keys[1:]:
            trace = observations[key]["trace"]
            for field in ("counts", "spans", "demand", "branches",
                          "stats", "site_reports"):
                if trace[field] != reference_trace[field]:
                    raise OracleFailure(
                        "differential-trace",
                        _describe_diff(
                            f"trace.{field}",
                            reference_trace[field],
                            trace[field],
                        )
                        + f" (vs {traced_keys[0][0]})",
                        scheme,
                        key[0],
                        True,
                    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def check_program(
    spec: dict,
    config: Optional[OracleConfig] = None,
    runners: Optional[dict] = None,
) -> None:
    """Run the full differential matrix on one spec; raises
    :class:`OracleFailure` on the first violation."""
    config = config or OracleConfig()
    for scheme in config.schemes:
        try:
            builder = _scheme_builder(spec, scheme, config)
        except OracleFailure:
            raise
        except Exception as error:
            raise OracleFailure(
                "exception", f"scheme preparation raised {error!r}", scheme
            ) from error
        observations: dict = {}
        for engine in config.engines:
            for traced in config.traced_modes:
                try:
                    observation = _observe(
                        builder, engine, traced, config, runners
                    )
                except OracleFailure:
                    raise
                except Exception as error:
                    raise OracleFailure(
                        "exception",
                        f"run raised {error!r}",
                        scheme,
                        engine,
                        traced,
                    ) from error
                _check_observation_invariants(
                    observation, scheme, engine, traced
                )
                observations[(engine, traced)] = observation
        _check_differential(observations, scheme, config)


#: Batch-axis grids: cache-capacity divisors for the uniform batch and
#: A&J prefetch distances for the divergent-immediate batch (>= 2: at
#: distance 1 the A&J pass folds the loop increment into the prefetch
#: advance, which is a legitimate per-cell-fallback case, not an
#: alignment case).
BATCH_CACHE_SCALES = (1, 2, 4)
BATCH_AJ_DISTANCES = (2, 4, 8)


def check_batch(
    spec: dict, config: Optional[OracleConfig] = None
) -> dict:
    """The batch≡sequential oracle axis.

    Runs the spec through :func:`repro.machine.batch.run_batch` on two
    cell shapes — a *uniform* batch (identical modules, cache
    capacities scaled per cell) and a *divergent-immediate* batch (A&J
    injection at a different distance per cell) — and demands every
    cell be bit-identical (return value + full PMU counter vector) to
    a fresh sequential turbo :class:`Machine` run of the same
    module/config.

    Unlike :func:`check_program`'s cells this path runs **unprofiled**
    (no LBR/PEBS sampling, no tracing): the batch tier excludes
    profiling by contract, so the comparison is run-to-run, not
    batch-to-profiled-run.  The fallback path is covered too — a spec
    the batch compiler rejects (divergent branch, misalignment, …)
    replays per cell, and those results must *still* match sequential.

    Returns ``{"axes": {label: batched}, ...}`` for reporting; raises
    :class:`OracleFailure` on the first mismatch.
    """
    from repro.machine.batch import BatchCell, run_batch

    config = config or OracleConfig()
    base = config.machine_config("turbo")

    def uniform_cells() -> list:
        cells = []
        for scale in BATCH_CACHE_SCALES:
            module, space = build_program(spec)
            cell_config = (
                base if scale == 1
                else replace(base, memory=base.memory.scaled(scale))
            )
            cells.append(BatchCell(module, space, cell_config))
        return cells

    def aj_cells() -> list:
        cells = []
        for distance in BATCH_AJ_DISTANCES:
            module, space = build_program(spec)
            AinsworthJonesPass(
                AinsworthJonesConfig(distance=distance)
            ).run(module)
            verify_module(module, strict=True)
            cells.append(BatchCell(module, space, base))
        return cells

    outcomes: dict = {}
    for label, make in (
        ("batch-uniform", uniform_cells),
        ("batch-aj", aj_cells),
    ):
        try:
            outcome = run_batch(make(), function=config.function)
        except Exception as error:
            raise OracleFailure(
                "exception", f"run_batch raised {error!r}", label
            ) from error
        replay = make()
        for index, result in enumerate(outcome.results):
            cell = replay[index]
            try:
                sequential = Machine(
                    cell.module, cell.space, config=cell.config
                ).run(config.function)
            except Exception as error:
                raise OracleFailure(
                    "exception",
                    f"sequential replay raised {error!r}",
                    label,
                    f"cell-{index}",
                ) from error
            if result.value != sequential.value:
                raise OracleFailure(
                    "batch-differential",
                    f"value {result.value!r} != sequential "
                    f"{sequential.value!r} (batched={outcome.batched})",
                    label,
                    f"cell-{index}",
                )
            batch_counters = result.counters.as_dict()
            seq_counters = sequential.counters.as_dict()
            if batch_counters != seq_counters:
                raise OracleFailure(
                    "batch-differential",
                    _describe_diff("counters", seq_counters, batch_counters)
                    + f" (batched={outcome.batched})",
                    label,
                    f"cell-{index}",
                )
        outcomes[label] = outcome.batched
    return {"axes": outcomes}


def batch_failure(
    spec: dict, config: Optional[OracleConfig] = None
) -> Optional[OracleFailure]:
    """Predicate form of :func:`check_batch`: the failure, or None."""
    try:
        check_batch(spec, config)
    except OracleFailure as failure:
        return failure
    return None


# ----------------------------------------------------------------------
# Axis #6: fresh-compile vs codecache-load bit-identity
# ----------------------------------------------------------------------
def _codecache_observe(
    builder, engine: str, traced: bool, config: OracleConfig, code_cache
):
    """One oracle cell with an explicit ``code_cache`` knob ("off" for
    the fresh baseline, a directory for populate/warm cells)."""
    machine_config = replace(
        config.machine_config(engine), code_cache=code_cache
    )

    def factory(module, space) -> Machine:
        return Machine(module, space, config=machine_config, engine=engine)

    return _observe(builder, engine, traced, config, {engine: factory})


def check_codecache(
    spec: dict, config: Optional[OracleConfig] = None
) -> dict:
    """The fresh-compile ≡ codecache-load oracle axis.

    For every cacheable engine x scheme, untraced, three cells run the
    same program: *fresh* (code cache force-disabled), *populate*
    (an empty per-spec cache directory: miss + put), and *warm* (a new
    Machine served from the now-populated cache).  All three must be
    bit-identical on every compared stream (value, PMU counters, LBR,
    PEBS); the warm cell must be an actual cache hit with
    zero invalidations — a warm run that silently recompiled would hide
    a broken loader forever.  Traced runs are not cells: tracing is
    not part of the key, so a traced run loads the very compiled form
    these cells check.

    Returns ``{"cells": n, "hits": n}``; raises :class:`OracleFailure`
    on the first violation.
    """
    import tempfile

    from repro.machine import codecache

    config = config or OracleConfig()
    engines = tuple(
        e for e in config.engines if e in codecache.CACHEABLE_ENGINES
    )
    cells = hits = 0
    with tempfile.TemporaryDirectory(prefix="repro-codecache-oracle-") as tmp:
        try:
            cache = codecache.resolve(tmp)
            for scheme in config.schemes:
                try:
                    builder = _scheme_builder(spec, scheme, config)
                except OracleFailure:
                    raise
                except Exception as error:
                    raise OracleFailure(
                        "exception",
                        f"scheme preparation raised {error!r}",
                        scheme,
                    ) from error
                for engine in engines:
                    observations = {}
                    for label, knob in (
                        ("fresh", "off"),
                        ("populate", tmp),
                        ("warm", tmp),
                    ):
                        invalidated = cache.invalidated
                        cache_hits = cache.hits
                        try:
                            observations[label] = _codecache_observe(
                                builder, engine, False, config, knob
                            )
                        except OracleFailure:
                            raise
                        except Exception as error:
                            raise OracleFailure(
                                "exception",
                                f"{label} run raised {error!r}",
                                scheme,
                                engine,
                                False,
                            ) from error
                        if cache.invalidated != invalidated:
                            raise OracleFailure(
                                "codecache-invalidated",
                                f"{label} run invalidated a cached "
                                f"module (+{cache.invalidated - invalidated})",
                                scheme,
                                engine,
                                False,
                            )
                        if label == "warm" and cache.hits == cache_hits:
                            raise OracleFailure(
                                "codecache-cold",
                                "warm run recorded no cache hit "
                                "(silent recompile)",
                                scheme,
                                engine,
                                False,
                            )
                        if label == "warm":
                            hits += cache.hits - cache_hits
                    fresh = observations["fresh"]
                    for label in ("populate", "warm"):
                        observation = observations[label]
                        for key in _COMPARED_KEYS:
                            if observation[key] != fresh[key]:
                                raise OracleFailure(
                                    "codecache-differential",
                                    _describe_diff(
                                        key, fresh[key], observation[key]
                                    )
                                    + f" ({label} vs fresh)",
                                    scheme,
                                    engine,
                                    False,
                                )
                    cells += 1
        finally:
            codecache.forget(tmp)
    return {"cells": cells, "hits": hits}


def check_codecache_selftest(
    spec: dict, config: Optional[OracleConfig] = None
) -> int:
    """Mutation self-test for the code cache's validate-or-recompile
    guard: deliberately stale or booby-trapped cached modules must be
    *detected* (counted ``invalidated``), never executed, and the run
    must fall back to a bit-identical fresh compile.

    Plants, per cacheable engine:

    1. a **stale** entry — a payload compiled from a *different* program
       (the A&J-injected variant) stored under the current program's
       key, embedded IR fingerprint and all — the cache-dirs-copied /
       key-collision scenario the embedded fingerprint exists for;
    2. a **booby-trapped** entry — correct metadata, but code blobs that
       raise at exec time — a torn or hostile marshal payload.

    Returns the number of planted mutants detected; raises
    :class:`OracleFailure` if any survives (wrong result, missed
    invalidation, or a hit recorded for poisoned bytes).
    """
    import tempfile

    from repro.machine import codecache

    config = config or OracleConfig()
    engines = tuple(
        e for e in config.engines if e in codecache.CACHEABLE_ENGINES
    )
    build_clean = _scheme_builder(spec, "none", config)
    build_mutant = _scheme_builder(spec, "aj", config)
    detected = 0
    for engine in engines:
        with tempfile.TemporaryDirectory(
            prefix="repro-codecache-mut-"
        ) as tmp:
            try:
                cache = codecache.resolve(tmp)
                fresh = _codecache_observe(
                    build_clean, engine, False, config, "off"
                )
                # Populate both variants: clean entries prove the
                # round-trip before we poison them; the A&J variant's
                # entries are the stale modules we plant under clean
                # keys below.
                _codecache_observe(build_clean, engine, False, config, tmp)
                _codecache_observe(build_mutant, engine, False, config, tmp)
                clean_module, _ = build_clean()
                mutant_module, _ = build_mutant()
                machine_config = replace(
                    config.machine_config(engine), code_cache=tmp
                )
                for name in clean_module.functions:
                    clean_fn = clean_module.function(name)
                    key = cache.key(clean_fn, machine_config)
                    clean_ir = dict(key.params)["ir"]
                    stale = None
                    if name in mutant_module.functions:
                        mutant_key = cache.key(
                            mutant_module.function(name), machine_config
                        )
                        stale = cache.store.get(mutant_key)
                    if stale is not None and stale.get("ir") != clean_ir:
                        cache.store.put(key, stale)  # plant the stale module
                    else:
                        payload = cache.store.get(key)
                        if payload is None:
                            raise OracleFailure(
                                "codecache-selftest",
                                f"populate run left no entry for {name!r}",
                                None,
                                engine,
                            )
                        _booby_trap(payload)
                        cache.store.put(key, payload)
                invalidated = cache.invalidated
                hits = cache.hits
                replay = _codecache_observe(
                    build_clean, engine, False, config, tmp
                )
                if cache.invalidated == invalidated:
                    raise OracleFailure(
                        "codecache-selftest",
                        "planted mutant module was not invalidated",
                        None,
                        engine,
                    )
                if cache.hits != hits:
                    raise OracleFailure(
                        "codecache-selftest",
                        "a poisoned entry was served as a hit",
                        None,
                        engine,
                    )
                for key in _COMPARED_KEYS:
                    if replay[key] != fresh[key]:
                        raise OracleFailure(
                            "codecache-selftest",
                            _describe_diff(key, fresh[key], replay[key])
                            + " (fallback after planted mutant)",
                            None,
                            engine,
                        )
                detected += cache.invalidated - invalidated
            finally:
                codecache.forget(tmp)
    return detected


def _booby_trap(payload: dict) -> None:
    """Replace a payload's code blobs with blobs that raise at exec
    time (metadata left intact, so only the exec guard can catch it)."""
    from repro.machine.codecache import _encode_code

    trap = _encode_code(
        "raise RuntimeError('stale cached module executed')",
        "<codecache-selftest-trap>",
    )
    for entry in payload.get("superblocks", ()) or ():
        if isinstance(entry, dict):
            for field in ("code_plain", "code_profiled"):
                entry[field] = trap


def codecache_failure(
    spec: dict, config: Optional[OracleConfig] = None
) -> Optional[OracleFailure]:
    """Predicate form of :func:`check_codecache`: the failure, or None."""
    try:
        check_codecache(spec, config)
    except OracleFailure as failure:
        return failure
    return None


def oracle_failure(
    spec: dict,
    config: Optional[OracleConfig] = None,
    runners: Optional[dict] = None,
) -> Optional[OracleFailure]:
    """Predicate form of :func:`check_program`: the failure, or None."""
    try:
        check_program(spec, config, runners)
    except OracleFailure as failure:
        return failure
    return None


def focused_config(
    failure: OracleFailure, config: Optional[OracleConfig] = None
) -> OracleConfig:
    """Narrow a config to the slice that reproduced ``failure`` (the
    shrinker re-runs the oracle per candidate; a focused matrix keeps
    that cheap while still comparing against the reference engine)."""
    config = config or OracleConfig()
    schemes = (failure.scheme,) if failure.scheme else config.schemes
    if failure.engine and failure.engine != "reference":
        engines = tuple(
            e for e in config.engines if e in ("reference", failure.engine)
        )
        if failure.engine not in engines:  # caller-supplied runner name
            engines = engines + (failure.engine,)
    else:
        engines = config.engines
    return replace(config, schemes=schemes, engines=engines)


# ----------------------------------------------------------------------
# Analytic model oracles (Eq-1 / Eq-2)
# ----------------------------------------------------------------------
def check_models(seed: int = 0, cases: int = 200) -> int:
    """Recompute Eq-1/Eq-2 on synthetic latency distributions with known
    ground truth; returns the number of cases checked, raises
    :class:`OracleFailure` on the first violation."""

    def model_failure(detail: str) -> OracleFailure:
        return OracleFailure("model", detail)

    rng = random.Random(seed)
    checked = 0

    # Degraded inputs first: the documented fallback paths.
    empty = optimal_distance(analyze_latency_distribution([]))
    if empty.distance != MIN_DISTANCE or empty.reliable:
        raise model_failure(
            f"empty distribution must fall back to distance "
            f"{MIN_DISTANCE} (unreliable), got {empty}"
        )
    single = optimal_distance(analyze_latency_distribution([37] * 64))
    if single.distance != MIN_DISTANCE or single.reliable:
        raise model_failure(
            f"single-peak distribution must fall back to distance "
            f"{MIN_DISTANCE} (unreliable), got {single}"
        )
    checked += 2

    for _ in range(cases):
        # Eq-1 on a clean two-peak distribution.
        ic = rng.randint(2, 200)
        miss = rng.randint(40, 3000)
        hit_count = rng.randint(20, 120)
        miss_count = rng.randint(20, 120)
        latencies = [ic] * hit_count + [ic + miss] * miss_count
        distribution = analyze_latency_distribution(latencies)
        estimate = optimal_distance(distribution)
        if estimate.reliable and MIN_DISTANCE < estimate.distance < MAX_DISTANCE:
            expected = math.ceil(
                estimate.mc_latency / max(estimate.ic_latency, 1)
            )
            if abs(estimate.distance - expected) > 1:
                raise model_failure(
                    f"Eq-1: ic={ic} miss={miss} -> distance "
                    f"{estimate.distance}, expected ceil(MC/IC)={expected} "
                    f"(MC={estimate.mc_latency}, IC={estimate.ic_latency})"
                )
        if not MIN_DISTANCE <= estimate.distance <= MAX_DISTANCE:
            raise model_failure(
                f"Eq-1 distance {estimate.distance} outside "
                f"[{MIN_DISTANCE}, {MAX_DISTANCE}]"
            )
        checked += 1

        # Eq-2 against its closed form.
        trip = rng.uniform(0.1, 10_000.0)
        distance = rng.randint(1, 256)
        k = rng.uniform(1.01, 50.0)
        decision = choose_injection_site(trip, distance, k=k)
        expected_site = (
            InjectionSite.OUTER if trip < k * distance else InjectionSite.INNER
        )
        if decision.site is not expected_site:
            raise model_failure(
                f"Eq-2: trip={trip:.2f} distance={distance} k={k:.2f} -> "
                f"{decision.site}, expected {expected_site}"
            )
        checked += 1
    return checked
