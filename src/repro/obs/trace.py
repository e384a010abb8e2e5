"""Prefetch-lifecycle event collection.

:class:`PrefetchTrace` is the sink the memory system feeds when tracing
is enabled (``Machine.enable_tracing``).  Design constraints:

* **Near-zero cost when off.**  The hierarchy guards every hook behind a
  single ``if self.trace is not None`` on paths that already miss the L1
  or consume a prefetched line, so tracing-off runs pay one attribute
  load per such event and nothing on a plain L1 hit.  Turbo's profiled
  superblocks carry the same guard in their inlined L1-hit arms, so a
  traced run bulk-steps like an untraced one.
* **Cheap when on.**  The hot hooks do one dict lookup per table
  (:meth:`PrefetchTrace.on_drop`), and a :class:`BranchTap` over a
  ``NullLBR`` binds ``push`` straight to the branch ring's ``append``.
* **Bounded memory.**  Raw event streams (lifecycle spans, demand-miss
  stalls, taken branches) live in fixed-capacity ring buffers
  (``collections.deque(maxlen=...)``); a long run overwrites the oldest
  events.  Per-site aggregates are updated *incrementally at
  classification time*, so rollups stay exact even after the rings wrap.
* **One open record per line.**  The hierarchy guarantees at most one
  outstanding prefetched-but-unconsumed line at a time (a line in the
  MSHR or the unused table cannot be prefetched again), so open records
  key by cache-line index.

Event vocabulary (mirrors the paper's §2.3 classification):

========== ==========================================================
``timely``  line filled before its first demand use (margin >= 0)
``late``    demand load coalesced with the in-flight fill
            (Intel ``LOAD_HIT_PRE.SW_PF``; margin < 0)
``evicted`` prefetched line left the LLC before any demand use
``unused``  still unconsumed when the rollup was taken (wasted)
``mshr`` / ``unmapped`` / ``redundant``  dropped at issue
========== ==========================================================

The *timeliness margin* of a used prefetch is
``first_use_cycle - fill_ready_cycle``: positive means the line arrived
early enough (Eq 1 did its job), negative means the demand load caught
the fill in flight — late by that many cycles.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from repro.machine.lbr import NullLBR
from repro.obs.sites import SiteStats

#: Default ring capacity: enough for small-scale runs, bounded for full.
DEFAULT_CAPACITY = 65536


class PrefetchSpan(NamedTuple):
    """One completed prefetch lifecycle (what the timeline renders)."""

    site: str  #: injection-site label
    line: int  #: cache-line index (address >> 6)
    issue_cycle: float
    ready_cycle: float  #: when the fill completed (== issue for drops)
    end_cycle: float  #: use / eviction / drop cycle
    outcome: str  #: timely | late | evicted | mshr | unmapped | redundant
    margin: Optional[float]  #: use - ready; None when never used


class DemandEvent(NamedTuple):
    """One demand load that stalled past the L2 (timeline stall span)."""

    pc: int
    line: int
    cycle: float
    latency: float
    level: str  #: "llc" | "dram" | "coalesced"


class BranchEvent(NamedTuple):
    from_pc: int
    to_pc: int
    cycle: float


class PrefetchTrace:
    """Bounded collector of prefetch-lifecycle events.

    ``sites`` maps PREFETCH-instruction PCs to injection-site labels and
    ``site_loads`` maps delinquent-load PCs to the same labels (both are
    derived from pass-stamped IR by :func:`repro.obs.sites.site_table`);
    unknown PCs fall back to an auto-generated ``pf@0x...`` label so
    hand-written PREFETCH instructions still show up.
    """

    __slots__ = (
        "capacity",
        "sites",
        "site_loads",
        "spans",
        "demand",
        "branches",
        "stats",
        "last_cycle",
        "_open",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sites: Optional[dict[int, str]] = None,
        site_loads: Optional[dict[int, str]] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.sites = dict(sites or {})
        self.site_loads = dict(site_loads or {})
        self.spans: deque[PrefetchSpan] = deque(maxlen=self.capacity)
        self.demand: deque[DemandEvent] = deque(maxlen=self.capacity)
        self.branches: deque[BranchEvent] = deque(maxlen=self.capacity)
        #: label -> incrementally maintained aggregate.
        self.stats: dict[str, SiteStats] = {}
        self.last_cycle: float = 0.0
        #: line -> [label, issue_cycle, ready_cycle, filled?]
        self._open: dict[int, list] = {}

    # ------------------------------------------------------------------
    def _label(self, pc: int) -> str:
        label = self.sites.get(pc)
        if label is None:
            label = f"pf@{pc:#x}"
            self.sites[pc] = label
        return label

    def _stats(self, label: str) -> SiteStats:
        stats = self.stats.get(label)
        if stats is None:
            stats = self.stats[label] = SiteStats(label)
        return stats

    # ------------------------------------------------------------------
    # Hooks called by MemorySystem (software prefetches only).
    # ------------------------------------------------------------------
    def on_issue(self, pc: int, line: int, cycle: float, ready: float) -> None:
        """A software prefetch allocated a fill-buffer entry."""
        label = self._label(pc)
        self._stats(label).issued += 1
        self.last_cycle = cycle
        self._open[line] = [label, cycle, ready, False]

    def on_drop(self, pc: int, line: int, cycle: float, reason: str) -> None:
        """A software prefetch was dropped at issue.

        ``reason``: ``"mshr"`` (fill buffers full), ``"unmapped"``
        (address outside any segment) or ``"redundant"`` (line already
        cached or in flight).
        """
        # The hottest hook (a redundant drop per prefetch of a cached
        # line): one label and one stats lookup, then the counter.
        label = self.sites.get(pc)
        if label is None:
            label = self._label(pc)
        stats = self.stats.get(label)
        if stats is None:
            stats = self._stats(label)
        stats.issued += 1
        if reason == "redundant":
            stats.redundant += 1
        elif reason == "mshr":
            stats.dropped_mshr += 1
        elif reason == "unmapped":
            stats.dropped_unmapped += 1
        else:
            raise ValueError(f"unknown drop reason {reason!r}")
        self.last_cycle = cycle
        self.spans.append(
            PrefetchSpan(label, line, cycle, cycle, cycle, reason, None)
        )

    def on_fill(self, line: int, ready: float) -> None:
        """An in-flight software prefetch completed its fill."""
        record = self._open.get(line)
        if record is not None:
            record[2] = ready
            record[3] = True

    def on_use(self, line: int, cycle: float, late: bool) -> None:
        """First demand access consumed a software-prefetched line."""
        record = self._open.pop(line, None)
        if record is None:
            return
        label, issued, ready, _filled = record
        margin = cycle - ready
        outcome = "late" if late else "timely"
        self._stats(label).record_use(margin, late)
        self.last_cycle = cycle
        self.spans.append(
            PrefetchSpan(
                label, line, issued, ready, max(cycle, ready), outcome, margin
            )
        )

    def on_evict(self, line: int, cycle: float) -> None:
        """A software-prefetched line was evicted before any demand use."""
        record = self._open.pop(line, None)
        if record is None:
            return
        label, issued, ready, _filled = record
        self._stats(label).early_evicted += 1
        self.last_cycle = max(self.last_cycle, cycle)
        self.spans.append(
            PrefetchSpan(label, line, issued, ready, cycle, "evicted", None)
        )

    def on_demand(
        self, pc: int, line: int, cycle: float, latency: float, level: str
    ) -> None:
        """A demand load stalled past the L2 (LLC hit, DRAM miss, or a
        coalesce with an in-flight fill)."""
        self.last_cycle = cycle
        self.demand.append(DemandEvent(pc, line, cycle, latency, level))
        if level == "dram":
            label = self.site_loads.get(pc)
            if label is not None:
                self._stats(label).uncovered_misses += 1

    def on_branch(self, from_pc: int, to_pc: int, cycle: float) -> None:
        """A taken branch retired (loop-iteration reconstruction)."""
        self.branches.append(BranchEvent(from_pc, to_pc, cycle))

    # ------------------------------------------------------------------
    def open_records(self) -> dict[int, tuple]:
        """Still-unconsumed prefetches: line -> (label, issue, ready,
        filled).  Rollups count these as *unused* without mutating."""
        return {line: tuple(rec) for line, rec in self._open.items()}

    def unused_count(self) -> int:
        return len(self._open)

    def event_counts(self) -> dict[str, int]:
        """Ring occupancy — how much raw history survived the bound."""
        return {
            "spans": len(self.spans),
            "demand": len(self.demand),
            "branches": len(self.branches),
            "open": len(self._open),
        }


class BranchTap:
    """LBR wrapper that mirrors every taken branch into a trace ring.

    Installed by ``Machine.enable_tracing`` so the timeline can
    reconstruct loop iterations (latch-to-latch spans) even when LBR
    profiling is off; forwards to the wrapped LBR so profiling and
    tracing compose.  ``push`` is bound per (inner, trace) pair: over a
    :class:`~repro.machine.lbr.NullLBR` it *is* the ring's ``append``,
    so an unprofiled traced run pays no wrapper call per branch.
    """

    __slots__ = ("inner", "_trace", "depth", "push")

    def __init__(self, inner, trace: PrefetchTrace) -> None:
        self.inner = inner
        self.depth = getattr(inner, "depth", 0)
        self.trace = trace

    @property
    def trace(self) -> PrefetchTrace:
        return self._trace

    @trace.setter
    def trace(self, trace: PrefetchTrace) -> None:
        self._trace = trace
        if isinstance(self.inner, NullLBR):
            self.push = trace.branches.append
        else:
            self.push = self._forward

    def _forward(self, entry: tuple) -> None:
        self._trace.branches.append(entry)
        self.inner.push(entry)

    def snapshot(self) -> tuple:
        return self.inner.snapshot()

    def clear(self) -> None:
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)
