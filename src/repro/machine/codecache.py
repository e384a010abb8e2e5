"""Persistent ahead-of-time code cache for turbo's generated code.

Turbo compilation is redone in every process: the engine regenerates
and ``compile()``s its superblock steppers on every worker spawn —
BENCH_engines.json puts the cold build at 0.1–0.4 s per workload.  This
module makes those generated steppers (and the batched tier's) first-
class content-addressed artifacts (the per-block closure chains are
closures, not source, and are rebuilt on load):

* **What is stored.**  Per compiled function, the generated sources
  plus their compiled code objects as base64 ``marshal`` blobs — the
  expensive step on a warm load is ``compile()`` of the generated
  source (tens of milliseconds per workload), so the cache stores the
  post-``compile`` code object and warm load is ``marshal.loads`` +
  ``exec`` (sub-millisecond).  Marshal payloads are only meaningful to
  the interpreter that wrote them, so ``sys.implementation.cache_tag``
  is part of the key: a different interpreter misses and recompiles.
* **Where.**  The content-addressed service store
  (:class:`repro.service.store.ArtifactStore`), under its own
  ``codecache`` kind, keyed by (IR fingerprint, engine, machine- and
  memory-config fingerprints, interpreter cache tag, codegen digest).
  The codegen digest (:func:`codegen_digest`) hashes the source of the
  code generators and of everything the generated code binds, so any
  edit there misses instead of serving code an older generator wrote.
  The fingerprint of :class:`MachineConfig` excludes the
  ``code_cache`` path itself (see
  :func:`repro.service.store.config_fingerprint`), so identical work
  shares keys across cache locations.
* **Safety.**  Loads are validate-or-recompile: a payload that fails
  *any* check — codegen-digest or cache-tag mismatch, an embedded IR
  fingerprint that no longer matches the function (the staleness the
  mutation self-test plants), structural drift against the freshly
  built base, un-unmarshalable blobs — is counted as
  ``codecache.invalidated`` and falls back to fresh compilation, which
  re-puts the entry.  A corrupt on-disk entry is quarantined by the
  store layer before this module ever sees it.  Bit-identity is
  enforced by qa oracle axis #6: a cached-load run must be
  byte-identical to a fresh-compile run.

Construction goes through :func:`resolve`, a per-path registry shared
by every :class:`~repro.machine.machine.Machine` in the process, so one
warm service process unmarshals each function once
(``Machine._compiled`` caches per machine; the store serves every
machine after the first).  :class:`~repro.service.api.TuningService`
auto-enables the cache alongside its artifact cache directory and
attaches its metrics registry, so ``codecache.hits`` /
``codecache.misses`` / ``codecache.invalidated`` flow into
``metrics.json`` and ``repro.cli cache stats``.  The
``engine.codegen`` / ``engine.load`` telemetry spans make the
cold-vs-warm split visible per job.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import marshal
import sys
import types
from pathlib import Path
from typing import Optional

from repro.ir.printer import format_function
from repro.machine.blockengine import compile_blocks
from repro.machine.config import MachineConfig
from repro.machine.superblock import (
    Superblock,
    TurboCompiledFunction,
    compile_turbo,
    exec_stepper,
)
from repro.obs import telemetry as obs_telemetry


#: Engines whose compiled form has generated code worth caching
#: (``reference`` interprets).
CACHEABLE_ENGINES = ("turbo",)

#: ``code_cache`` / ``REPRO_CODE_CACHE`` spellings that mean "off".
DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled"})


def ir_fingerprint(function) -> str:
    """Stable digest of one finalized IR function (its printed form,
    which includes pcs, so any IR or layout change shifts it)."""
    text = format_function(function)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.cache
def codegen_digest() -> str:
    """Digest of the source of ``repro/machine/*.py`` and
    ``repro/mem/*.py``: the code generators, the payload layout and
    every object the generated code binds.  Computed once per process."""
    import repro.mem

    digest = hashlib.sha256()
    for package in (Path(__file__).parent, Path(repro.mem.__file__).parent):
        for path in sorted(package.glob("*.py")):
            digest.update(f"{package.name}/{path.name}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class CodeCacheInvalid(Exception):
    """A cached payload failed validation (stale, torn, or foreign)."""


# ----------------------------------------------------------------------
# Marshal-blob helpers
# ----------------------------------------------------------------------
def _encode_code(source: str, filename: str) -> str:
    """Compile generated source and return the code object as a base64
    marshal blob (ASCII, JSON-safe)."""
    code = compile(source, filename, "exec")
    return base64.b64encode(marshal.dumps(code)).decode("ascii")


def _exec_blob(blob, entry: str, ptables: Optional[tuple]):
    """Unmarshal + exec one cached code blob; returns its ``entry``
    stepper (``ptables`` bound as a batched stepper's ``PT``).  Raises
    :class:`CodeCacheInvalid` on a blob that is no code object."""
    if not isinstance(blob, str):
        raise CodeCacheInvalid("code blob is not a string")
    try:
        code = marshal.loads(base64.b64decode(blob.encode("ascii")))
    except (ValueError, EOFError, TypeError) as exc:
        raise CodeCacheInvalid(f"unmarshalable code blob: {exc}") from exc
    if not isinstance(code, types.CodeType):
        raise CodeCacheInvalid("blob did not decode to a code object")
    return exec_stepper(code, entry, ptables)


# ----------------------------------------------------------------------
# Pack/load: one pair for both fused tiers' Superblock tables
# ----------------------------------------------------------------------
_VARIANTS = ("plain", "profiled")


def _pack(compiled: TurboCompiledFunction) -> dict:
    """The superblock table of either fused tier as a JSON payload: a
    batched nest has no profiled variant (``None``) and carries its
    per-cell constant tables; a turbo nest has both variants and no
    tables."""
    name = compiled.function.name
    superblocks: list = []
    for sb in compiled._superblocks:
        if sb is None:
            superblocks.append(None)
            continue
        entry = {
            "header": sb.header,
            "header_index": sb.header_index,
            "path": list(sb.path),
            "depth": sb.depth,
            "bound_cycles": sb.bound_cycles,
            "bound_retired": sb.bound_retired,
            "ptables": [list(table) for table in sb.ptables],
        }
        for variant in _VARIANTS:
            source = getattr(sb, f"source_{variant}")
            entry[f"source_{variant}"] = source
            entry[f"code_{variant}"] = (
                None
                if source is None
                else _encode_code(
                    source, f"<superblock:{name}:{sb.header}:{variant}:cached>"
                )
            )
        superblocks.append(entry)
    return {"blocks": len(compiled._blocks), "superblocks": superblocks}


def _load(payload: dict, base, ncells: Optional[int] = None) -> tuple:
    """The superblock table :func:`_pack` wrote, validated against the
    freshly built ``base`` chains.  ``ncells`` is ``None`` for turbo
    (plain and profiled steppers, no per-cell tables) and the cell
    count for batchturbo (a plain stepper only, plus one int table of
    ``ncells`` entries per divergent immediate, bound as its ``PT``)."""
    size = len(base._blocks)
    entries = payload.get("superblocks")
    if not isinstance(entries, list) or payload.get("blocks") != size:
        raise CodeCacheInvalid("superblock table shape drifted")
    if len(entries) != size:
        raise CodeCacheInvalid("superblock table length drifted")
    batched = ncells is not None
    stepper = "__batchsb" if batched else "__superblock"
    variants = _VARIANTS[:1] if batched else _VARIANTS
    superblocks: list = [None] * size
    for index, entry in enumerate(entries):
        if entry is None:
            continue
        if not isinstance(entry, dict):
            raise CodeCacheInvalid("superblock entry is not a mapping")
        header = entry.get("header")
        if (
            header not in base.block_index
            or base.block_index[header] != entry.get("header_index")
            or entry.get("header_index") != index
        ):
            raise CodeCacheInvalid(f"header {header!r} drifted")
        bound_retired = entry.get("bound_retired")
        bound_cycles = entry.get("bound_cycles")
        # bound_retired is a divisor in the dispatch loop; bound_cycles
        # paces the bulk guard.  Either <1 would wedge or crash a run.
        if (
            not isinstance(bound_retired, int)
            or bound_retired < 1
            or not isinstance(bound_cycles, int)
            or bound_cycles < 1
        ):
            raise CodeCacheInvalid("implausible superblock bounds")
        sources = {v: entry.get(f"source_{v}") for v in _VARIANTS}
        if any(not isinstance(sources[v], str) for v in variants) or (
            batched
            and (sources["profiled"], entry.get("code_profiled"))
            != (None, None)
        ):
            raise CodeCacheInvalid("superblock sources missing")
        # Turbo nests have no tables: any table fails ``len != None``.
        tables = entry.get("ptables")
        if not isinstance(tables, list) or any(
            not isinstance(table, list)
            or len(table) != ncells
            or any(not isinstance(value, int) for value in table)
            for table in tables
        ):
            raise CodeCacheInvalid("per-cell constant tables drifted")
        ptables = tuple(tuple(t) for t in tables) if batched else None
        runs = {
            v: _exec_blob(entry.get(f"code_{v}"), stepper, ptables)
            for v in variants
        }
        superblocks[index] = Superblock(
            header=header,
            header_index=index,
            path=tuple(entry.get("path", ())),
            depth=int(entry.get("depth", 1)),
            run_plain=runs["plain"],
            run_profiled=runs.get("profiled"),
            source_plain=sources["plain"],
            source_profiled=sources["profiled"],
            bound_cycles=bound_cycles,
            bound_retired=bound_retired,
            ptables=ptables or (),
        )
    return tuple(superblocks)


def _cell_vector(plan, cell_configs) -> list:
    """Ordered per-cell fingerprints ``"<ir>:<cfg>:<mem>"`` for one
    aligned function plan.

    The *sorted* digest of this vector goes into the cache key (a
    permutation of the same cells is the same compilation workload up
    to PT-table order), while the ordered vector itself is embedded in
    the payload — the generated steppers index per-cell constant
    tables positionally, so a load under a different cell order must
    invalidate and recompile rather than run with permuted tables.
    """
    from repro.service.store import config_fingerprint

    return [
        f"{ir_fingerprint(function)}"
        f":{config_fingerprint(config)}"
        f":{config_fingerprint(config.memory)}"
        for function, config in zip(plan.functions, cell_configs)
    ]


def _cells_digest(vector: list) -> str:
    text = "|".join(sorted(vector))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class CodeCache:
    """Content-addressed persistence for one cache directory.

    Thin stateful wrapper over an :class:`ArtifactStore`: builds keys,
    validates payloads, counts hits/misses/invalidations (mirrored into
    every attached :class:`MetricsRegistry` as ``codecache.*``), and
    falls back to fresh compilation on any load failure.
    """

    KIND = "codecache"

    def __init__(self, root, metrics=None) -> None:
        # Imported lazily: repro.service imports the machine layer at
        # module scope, so a module-level import here would be circular.
        from repro.service.store import ArtifactStore

        self.root = str(root)
        self.store = ArtifactStore(root)
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.put_errors = 0
        self._metrics: list = []
        if metrics is not None:
            self.attach_metrics(metrics)

    # ------------------------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Mirror this cache's counters into ``registry`` from now on."""
        if registry is not None and all(
            registry is not attached for attached in self._metrics
        ):
            self._metrics.append(registry)

    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        for registry in self._metrics:
            registry.inc(f"codecache.{name}")

    def stats(self) -> dict:
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "put_errors": self.put_errors,
        }

    # ------------------------------------------------------------------
    def key(self, function, config: MachineConfig):
        from repro.service.store import CacheKey, config_fingerprint

        return CacheKey.make(
            self.KIND,
            function.name,
            "-",  # codegen does not depend on workload scale
            config_fingerprint(config),
            engine="turbo",
            mem=config_fingerprint(config.memory),
            ir=ir_fingerprint(function),
            cache_tag=sys.implementation.cache_tag,
            codegen=codegen_digest(),
        )

    # ------------------------------------------------------------------
    def load_or_compile(self, function, config: MachineConfig):
        """The Machine-facing entry point: cached load of turbo's
        compiled form when possible, fresh compile (recorded, re-put)
        otherwise."""
        key = self.key(function, config)

        def load(payload):
            base = compile_blocks(function, config)
            return TurboCompiledFunction(base, _load(payload, base))

        return self._serve(
            key,
            "turbo",
            function.name,
            # The embedded fingerprint is the staleness detector: a
            # payload planted (or left) under this key for different IR
            # must be rejected before any of its code runs.
            {"ir": dict(key.params)["ir"]},
            lambda: compile_turbo(function, config),
            load,
        )

    def _serve(self, key, engine: str, name: str, fields: dict, fresh, load):
        """Validate-or-recompile for one key: the payload's header
        (codegen digest, engine, function, interpreter cache tag, and
        ``fields``) must match before ``load`` runs; any failure, or a
        miss, compiles with ``fresh`` and re-puts the entry."""
        header = dict(
            codegen=codegen_digest(),
            engine=engine,
            function=name,
            cache_tag=sys.implementation.cache_tag,
            **fields,
        )
        payload = self.store.get(key)
        if payload is not None:
            try:
                with obs_telemetry.phase(
                    "engine.load", workload=name, engine=engine
                ):
                    for field, value in header.items():
                        if payload.get(field) != value:
                            raise CodeCacheInvalid(f"{field} mismatch")
                    compiled = load(payload)
            except Exception:
                # Any failure shape — stale module, torn blob, drifted
                # structure — degrades to a recompile, never a crash.
                self._count("invalidated")
            else:
                self._count("hits")
                return compiled
        else:
            self._count("misses")

        with obs_telemetry.phase(
            "engine.codegen", workload=name, engine=engine
        ):
            compiled = fresh()
        try:
            body = _pack(compiled)
            body.update(header)
            self.store.put(key, body)
        except Exception:
            # A read-only or full cache directory must not break runs.
            self._count("put_errors")
        return compiled


# ----------------------------------------------------------------------
# The batched superblock tier's entry point
# ----------------------------------------------------------------------
def batch_key(cache: CodeCache, plan, config, vector_digest: str,
              ncells: int):
    from repro.service.store import CacheKey, config_fingerprint

    function = plan.functions[0]
    return CacheKey.make(
        cache.KIND,
        plan.name,
        "-",  # codegen does not depend on workload scale
        config_fingerprint(config),
        engine="batchturbo",
        mem=config_fingerprint(config.memory),
        ir=ir_fingerprint(function),
        cells=vector_digest,
        ncells=ncells,
        cache_tag=sys.implementation.cache_tag,
        codegen=codegen_digest(),
    )


def load_or_compile_batch(
    cache: Optional[CodeCache],
    plan,
    plans,
    config: MachineConfig,
    cell_configs,
):
    """The BatchMachine-facing entry point for the batchturbo tier:
    cached load when possible, fresh compile (recorded, re-put)
    otherwise; a ``None`` cache compiles in place.

    The key hashes the *sorted* per-cell fingerprint vector; the
    payload embeds the *ordered* vector and a load under a permuted
    cell order invalidates (the steppers' PT tables are positional).
    """
    from repro.machine.batchturbo import (
        BatchTurboCompiledFunction,
        batch_chains,
        compile_batch_turbo,
    )

    if cache is None:
        return compile_batch_turbo(plan, plans, config, cell_configs)

    ordered = _cell_vector(plan, cell_configs)

    def load(payload):
        base, needs_overlay = batch_chains(plan, plans, config)
        return BatchTurboCompiledFunction(
            base,
            _load(payload, base, len(ordered)),
            plan.divergent,
            needs_overlay,
        )

    return cache._serve(
        batch_key(cache, plan, config, _cells_digest(ordered), len(ordered)),
        "batchturbo",
        plan.name,
        {"cell_vector": ordered},
        lambda: compile_batch_turbo(plan, plans, config, cell_configs),
        load,
    )


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, CodeCache] = {}


def resolve(path, metrics=None) -> Optional[CodeCache]:
    """The process-wide :class:`CodeCache` for ``path`` (shared by every
    Machine and service pointing at the same directory), or ``None``
    when ``path`` is unset or a disabled spelling ("off", "0", "none").
    """
    if path is None:
        return None
    text = str(path)
    if text.strip().lower() in DISABLED_VALUES:
        return None
    import os

    resolved = os.path.abspath(text)
    cache = _REGISTRY.get(resolved)
    if cache is None:
        cache = CodeCache(resolved)
        _REGISTRY[resolved] = cache
    if metrics is not None:
        cache.attach_metrics(metrics)
    return cache


def forget(path) -> None:
    """Drop one path's registered cache (for temp-dir lifetimes: the
    registry must not keep handing out a cache whose directory is gone).
    """
    if path is None:
        return
    import os

    _REGISTRY.pop(os.path.abspath(str(path)), None)


def reset_registry() -> None:
    """Drop every registered cache (test isolation hook)."""
    _REGISTRY.clear()
