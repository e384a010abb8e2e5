"""Set-associative, LRU, line-granular cache state.

Lines are identified by ``line = byte_address >> 6``.  Each set is a dict
keyed by line; Python dicts preserve insertion order, so LRU is "pop and
re-insert on hit, evict the first key when full".  The hit, fill and
eviction logic lives in :class:`repro.mem.hierarchy.MemorySystem`, which
reads :attr:`SetAssociativeCache.sets` in place; this class only owns
the geometry and the per-set dicts.
"""

from __future__ import annotations

from repro.mem.config import CacheConfig


class SetAssociativeCache:
    """One cache level's state.

    ``sets`` and ``mask`` are fixed for the cache's lifetime —
    :meth:`flush` clears the per-set dicts in place — so a reference
    held by the memory system or by generated code never goes stale.
    """

    __slots__ = ("config", "sets", "mask")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.sets: list[dict[int, int]] = [dict() for _ in range(config.sets)]
        self.mask = config.sets - 1

    def flush(self) -> None:
        for cache_set in self.sets:
            cache_set.clear()

    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    def resident_lines(self) -> list[int]:
        """Every resident line, set by set, each set in LRU order."""
        return [line for s in self.sets for line in s]
