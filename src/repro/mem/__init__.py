"""Memory subsystem: address space, caches, MSHRs, hardware prefetchers."""

from repro.mem.address import LINE_BYTES, AddressSpace, MemoryError_, Segment
from repro.mem.batch import CellState, shared_space, space_mismatch
from repro.mem.cache import SetAssociativeCache
from repro.mem.config import CacheConfig, MemoryConfig
from repro.mem.hierarchy import MemorySystem

__all__ = [
    "AddressSpace",
    "CacheConfig",
    "CellState",
    "LINE_BYTES",
    "MemoryConfig",
    "MemoryError_",
    "MemorySystem",
    "Segment",
    "SetAssociativeCache",
    "shared_space",
    "space_mismatch",
]
