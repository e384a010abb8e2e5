"""The persistent AOT code cache: round-trips, keying, invalidation,
fallback, and the service/CLI integration."""

from __future__ import annotations

import pytest

from repro.machine import codecache
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.service.api import TuningService
from repro.service.store import config_fingerprint

from tests.conftest import build_indirect_loop, build_nested_indirect, tiny_memory


@pytest.fixture()
def cache_dir(tmp_path):
    path = str(tmp_path / "codecache")
    yield path
    codecache.forget(path)


def _config(cache: str | None) -> MachineConfig:
    return MachineConfig(memory=tiny_memory(), code_cache=cache)


def _observe(module, space, config, engine):
    machine = Machine(module, space, config=config, engine=engine)
    machine.enable_profiling(period=251)
    result = machine.run("main")
    return (
        result.value,
        result.counters.as_dict(),
        [tuple(s) for s in machine.sampler.samples],
        dict(machine.sampler.load_miss_counts),
    )


@pytest.mark.parametrize("engine", ["turbo"])
def test_roundtrip_bit_identical(cache_dir, engine):
    module, space, expected = build_nested_indirect()
    fresh = _observe(module, space, _config(None), engine)
    cold = _observe(module, space, _config(cache_dir), engine)
    warm = _observe(module, space, _config(cache_dir), engine)
    assert fresh[0] == expected
    assert cold == fresh
    assert warm == fresh
    cache = codecache.resolve(cache_dir)
    assert cache.misses == 1
    assert cache.hits == 1
    assert cache.invalidated == 0
    assert cache.store.stats()["by_kind"] == {"codecache": 1}


def test_turbo_warm_load_rebuilds_superblocks(cache_dir):
    module, space, _ = build_nested_indirect()
    config = _config(cache_dir)
    cold = Machine(module, space, config=config, engine="turbo")
    cold.run("main")
    warm = Machine(module, space, config=config, engine="turbo")
    warm.run("main")
    fused_cold = cold._compiled["main"].superblocks()
    fused_warm = warm._compiled["main"].superblocks()
    assert len(fused_warm) == len(fused_cold) > 0
    for a, b in zip(fused_cold, fused_warm):
        assert (a.header, a.header_index, a.path, a.depth) == (
            b.header, b.header_index, b.path, b.depth
        )
        assert (a.bound_cycles, a.bound_retired) == (
            b.bound_cycles, b.bound_retired
        )
        assert a.source_plain == b.source_plain
        assert a.source_profiled == b.source_profiled


def test_codegen_change_misses_and_recompiles(cache_dir, monkeypatch):
    # An entry written by one code generator must never be served to
    # another: the codegen digest is part of the key and the payload.
    module, space, expected = build_nested_indirect()
    config = _config(cache_dir)
    fresh = _observe(module, space, _config(None), "turbo")
    _observe(module, space, config, "turbo")
    cache = codecache.resolve(cache_dir)
    assert (cache.misses, cache.hits) == (1, 0)
    old_key = cache.key(module.function("main"), config)
    monkeypatch.setattr(codecache, "codegen_digest", lambda: "f" * 16)
    assert cache.key(module.function("main"), config) != old_key
    reloaded = _observe(module, space, config, "turbo")
    assert reloaded == fresh
    assert reloaded[0] == expected
    assert (cache.misses, cache.hits, cache.invalidated) == (2, 0, 0)
    assert cache.store.stats()["by_kind"] == {"codecache": 2}


def test_traced_compile_is_cached(cache_dir):
    # Tracing is not part of the key: a traced compile fuses through
    # the cache like any other, and a second traced machine loads it.
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    for hits in (0, 1):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, config=config)
        machine.enable_tracing()
        assert machine.run("main").value == expected
        assert (cache.misses, cache.hits) == (1, hits)
        assert cache.store.stats()["entries"] == 1
        assert machine.engine_run_stats()["bulk_iters"] > 0


def test_code_cache_is_nonsemantic_for_fingerprints(cache_dir):
    assert config_fingerprint(_config(None)) == config_fingerprint(
        _config(cache_dir)
    )


def test_resolve_disabled_spellings(tmp_path):
    for spelling in (None, "", "off", "OFF", "0", "none", "disabled"):
        assert codecache.resolve(spelling) is None
    path = str(tmp_path / "cc")
    try:
        cache = codecache.resolve(path)
        assert cache is not None
        assert codecache.resolve(path) is cache  # one cache per path
    finally:
        codecache.forget(path)


def test_env_default(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CODE_CACHE", raising=False)
    assert MachineConfig(memory=tiny_memory()).code_cache is None
    monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
    assert MachineConfig(memory=tiny_memory()).code_cache == str(tmp_path)
    monkeypatch.setenv("REPRO_CODE_CACHE", "off")
    config = MachineConfig(memory=tiny_memory())
    assert config.code_cache == "off"
    assert codecache.resolve(config.code_cache) is None


def test_stale_ir_is_detected_not_executed(cache_dir):
    """An entry whose embedded IR fingerprint does not match the
    function must be invalidated before any of its code runs."""
    # n is a literal in the loop bound, so the two modules have
    # different IR fingerprints while sharing block/value names.
    module_a, space_a, expected_a = build_indirect_loop(n=200)
    module_b, space_b, _ = build_indirect_loop(n=150)
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)

    Machine(module_b, space_b, config=config, engine="turbo").run("main")
    key_b = cache.key(module_b.function("main"), config)
    key_a = cache.key(module_a.function("main"), config)
    assert key_a.digest() != key_b.digest()
    stale = cache.store.get(key_b)
    assert stale is not None
    cache.store.put(key_a, stale)  # plant B's module under A's key

    result = Machine(module_a, space_a, config=config, engine="turbo").run(
        "main"
    )
    assert result.value == expected_a
    assert cache.invalidated == 1
    # The fallback recompile re-put a valid entry: next load hits.
    hits = cache.hits
    Machine(module_a, space_a, config=config, engine="turbo").run("main")
    assert cache.hits == hits + 1
    assert cache.invalidated == 1


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p.update(cache_tag="cpython-00"),
        lambda p: p.update(codegen="0" * 16),
        lambda p: p.update(engine="reference"),
        lambda p: p["superblocks"][1].update(code_plain="!!not-base64!!"),
        lambda p: p["superblocks"][1].update(bound_retired=0),
        lambda p: p["superblocks"][1].update(ptables=[[1, 2]]),
        lambda p: p["superblocks"][1].update(source_profiled=None),
        lambda p: p["superblocks"][1].update(header="no_such_block"),
        lambda p: p.update(superblocks=[]),
    ],
)
def test_tampered_payloads_fall_back(cache_dir, tamper):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    Machine(module, space, config=config, engine="turbo").run("main")
    key = cache.key(module.function("main"), config)
    payload = cache.store.get(key)
    assert payload is not None
    assert payload["superblocks"][1] is not None  # the fused loop header
    tamper(payload)
    cache.store.put(key, payload)
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    assert cache.invalidated == 1


def test_put_failure_does_not_break_runs(cache_dir, monkeypatch):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)

    def broken_put(key, payload):
        raise OSError("disk full")

    monkeypatch.setattr(cache.store, "put", broken_put)
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    assert cache.put_errors == 1
    assert cache.store.stats()["entries"] == 0


def test_corrupt_disk_entry_quarantines_then_recompiles(cache_dir):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    Machine(module, space, config=config, engine="turbo").run("main")
    key = cache.key(module.function("main"), config)
    path = cache.store._entry_path(key)
    path.write_text("{torn json")
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    # The store layer quarantined it before the codecache saw a payload:
    # a miss, not an invalidation.
    assert cache.invalidated == 0
    assert cache.misses == 2
    assert cache.store.stats()["quarantined"] == 1


def test_service_auto_enables_and_flushes_metrics(tmp_path):
    cache_dir = tmp_path / "svc-cache"
    try:
        service = TuningService(cache_dir=cache_dir)
        assert service.config.code_cache == str(cache_dir)
        assert service.code_cache is not None
        service.run("micro-tiny", "tiny", scheme="baseline", engine="turbo")
        service.flush_metrics()
        flushed = service.store.read_metrics()
        assert flushed.get("codecache.misses", 0) >= 1
        stats = service.cache_stats()
        assert stats["by_kind"].get("codecache", 0) >= 1
        assert stats["codecache"]["misses"] >= 1

        # A second service over the same directory is warm.
        warm = TuningService(cache_dir=cache_dir)
        warm.clear_cache()  # drop run artifacts; codecache entries share
        # the store root, so re-populate below is a true cold/warm probe
        Machine_runs = warm.run(
            "micro-tiny", "tiny", scheme="baseline", engine="turbo"
        )
        assert Machine_runs is not None
    finally:
        codecache.forget(cache_dir)


def test_service_explicit_off_wins(tmp_path):
    service = TuningService(
        cache_dir=tmp_path / "c",
        machine_config=MachineConfig(memory=tiny_memory(), code_cache="off"),
    )
    assert service.code_cache is None


def test_in_memory_service_has_no_code_cache():
    service = TuningService()
    assert service.code_cache is None
    assert service.config.code_cache is None


def test_cli_cache_stats_has_codecache_row(tmp_path, capsys):
    from repro.cli import main as cli_main

    cache_dir = tmp_path / "cli-cache"
    try:
        service = TuningService(cache_dir=cache_dir)
        service.run("micro-tiny", "tiny", scheme="baseline", engine="turbo")
        service.flush_metrics()
        assert cli_main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "code cache:" in out
        assert "codecache=1" in out
        assert "codecache.misses: 1" in out
    finally:
        codecache.forget(cache_dir)


def test_oracle_axis_smoke():
    from repro.qa.generate import GeneratorConfig, generate_spec
    from repro.qa.oracle import OracleConfig, check_codecache

    spec = generate_spec(7, GeneratorConfig())
    config = OracleConfig(schemes=("none",), traced_modes=(False,))
    report = check_codecache(spec, config)
    assert report["cells"] == 1  # turbo, untraced
    assert report["hits"] >= 1


def test_oracle_selftest_smoke():
    from repro.qa.generate import GeneratorConfig, generate_spec
    from repro.qa.oracle import OracleConfig, check_codecache_selftest

    spec = generate_spec(7, GeneratorConfig())
    config = OracleConfig(traced_modes=(False,))
    assert check_codecache_selftest(spec, config) >= 2
