"""The memory hierarchy: three cache levels, fill buffers, DRAM, and
hardware prefetchers, with PMU instrumentation.

Timing model
------------
The core is in-order and blocking: a demand load pays the latency of the
level that serves it (L1 4, L2 14, LLC 44, DRAM ``llc.latency + 200``).
Prefetches are non-blocking: they allocate a fill buffer (MSHR) entry that
completes ``llc.latency + dram_latency`` cycles later in the background;
when the buffers are full the prefetch is dropped (as on real hardware).

A demand load that finds its line *in flight* coalesces with the fill
buffer entry and waits only the residual latency — and, when the entry was
allocated by a software prefetch, increments ``LOAD_HIT_PRE.SW_PF``: the
paper's *late prefetch* event (§2.3).  A prefetched line evicted from the
LLC before any demand use increments the *early prefetch* counter.

Prefetched-but-unused lines are tracked in a side table (``_unused``:
line -> True for software, False for hardware) consulted on demand hits
at any level, so usefulness accounting is exact regardless of which level
serves the first demand access.

The hierarchy is kept inclusive: an LLC eviction invalidates L1/L2.

Fill buffers drain in FIFO order.  Every MSHR entry is charged the same
DRAM latency at a monotone clock, so insertion order is ready order and
the entries due by ``now`` are exactly a prefix of the buffer.

Hardware prefetchers
--------------------
These are the "simple prefetchers implemented in today's hardware" the
paper contrasts against (§1): they capture strided/streaming patterns but
cannot follow indirect accesses like ``T[B[i]]``.

* **Stride** (trained on every demand load that misses the L2, before
  the LLC is probed).  A direct-mapped table of
  ``stride_table_entries`` slots keyed by ``pc % entries`` holds
  ``(pc, last_line, stride, confidence)``.  A miss whose PC does not own
  its slot claims it with stride 0 and confidence 0.  A repeat of the
  last line changes nothing.  A repeat of the stored stride raises the
  confidence, saturating at ``stride_confidence + 2``; any other stride
  replaces it with confidence 1.  Once the confidence reaches
  ``stride_confidence`` the prefetcher requests the next
  ``stride_degree`` lines along the stride.
* **Next-line** (trained on demand misses to DRAM, before the missing
  line is filled): requests ``line + 1``.

A request for an unmapped line is discarded.  A hardware request for a
line that is cached or in flight, or that finds the MSHR full, is
dropped without counting; an issued one counts ``hw_prefetch_issued``
and ``offcore_all_data_rd``.

Tracing
-------
An attached :class:`repro.obs.trace.PrefetchTrace` receives lifecycle
events from ``trace is not None`` arms on the paths that already missed
the L1 or consumed a prefetched line, so an untraced L1 hit pays nothing
and every other event one attribute check.  Evictions have no ``now``
of their own and are stamped with ``_trace_now``, the cycle of the
access that caused them.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.pmu import Counters
from repro.mem.address import AddressSpace
from repro.mem.cache import SetAssociativeCache
from repro.mem.config import MemoryConfig

_INF = float("inf")


class MemorySystem:
    """Timing-side memory model; functional data lives in AddressSpace.

    ``load``, ``store`` and ``prefetch`` are the demand ports every
    engine binds.  Per-call state (set lists, masks, associativities,
    latencies, the MSHR, the unused table and the stride table) is held
    directly on the instance; the superblock tiers' generated L1-hit
    arms read ``_l1_sets``, ``counters`` and ``_unused`` in place.
    """

    __slots__ = (
        "config",
        "space",
        "counters",
        "l1",
        "l2",
        "llc",
        "_l1_sets",
        "_l1_mask",
        "_l1_assoc",
        "_l2_sets",
        "_l2_mask",
        "_l2_assoc",
        "_llc_sets",
        "_llc_mask",
        "_llc_assoc",
        "_l1_lat",
        "_l2_lat",
        "_llc_lat",
        "_mem_lat",
        "_mshr",
        "_mshr_cap",
        "_mshr_next_ready",
        "_unused",
        "_is_mapped",
        "_ideal",
        "_next_line",
        "_stride",
        "_stride_entries",
        "_stride_threshold",
        "_stride_ceiling",
        "_stride_degree",
        "trace",
        "_trace_now",
    )

    def __init__(
        self,
        config: MemoryConfig,
        address_space: AddressSpace,
        counters: Optional[Counters] = None,
    ) -> None:
        self.config = config
        self.space = address_space
        self.counters = counters if counters is not None else Counters()

        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.llc = SetAssociativeCache(config.llc)
        self._l1_sets = self.l1.sets
        self._l1_mask = self.l1.mask
        self._l1_assoc = config.l1.associativity
        self._l2_sets = self.l2.sets
        self._l2_mask = self.l2.mask
        self._l2_assoc = config.l2.associativity
        self._llc_sets = self.llc.sets
        self._llc_mask = self.llc.mask
        self._llc_assoc = config.llc.associativity

        self._l1_lat = int(config.l1.latency)
        self._l2_lat = int(config.l2.latency)
        self._llc_lat = int(config.llc.latency)
        self._mem_lat = int(config.llc.latency + config.dram_latency)

        #: In-flight fills: line -> [ready_cycle, is_software_prefetch],
        #: in ready order (see the module docstring).
        self._mshr: dict[int, list] = {}
        self._mshr_cap = config.mshr_entries
        #: Lower bound on the oldest in-flight fill's ready cycle (inf
        #: when empty; a coalesce may leave it stale-low); lets demand
        #: paths skip the drain call when nothing is due.
        self._mshr_next_ready: float = _INF
        #: Prefetched lines not yet consumed by any demand access.
        self._unused: dict[int, bool] = {}
        self._is_mapped = address_space.is_mapped
        self._ideal = bool(config.ideal_prefetching)
        self._next_line = bool(config.next_line_prefetcher)
        #: Stride table: pc % entries -> (pc, last_line, stride,
        #: confidence); None when the stride prefetcher is off.
        self._stride: Optional[dict] = {} if config.stride_prefetcher else None
        self._stride_entries = config.stride_table_entries
        self._stride_threshold = config.stride_confidence
        self._stride_ceiling = config.stride_confidence + 2
        self._stride_degree = config.stride_degree
        #: Optional lifecycle-event sink (repro.obs.trace.PrefetchTrace).
        self.trace = None
        self._trace_now: float = 0.0

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Install a lifecycle-event sink (see repro.obs.trace)."""
        self.trace = trace

    def detach_trace(self) -> None:
        self.trace = None

    def sw_prefetch_outstanding(self) -> int:
        """Software prefetches neither consumed nor evicted yet: filled
        lines awaiting their first demand use plus fills still in
        flight.  Completes the issue-side accounting (see the counter
        invariant tests)."""
        waiting = sum(1 for software in self._unused.values() if software)
        inflight = sum(1 for entry in self._mshr.values() if entry[1])
        return waiting + inflight

    # ------------------------------------------------------------------
    # Hierarchy mechanics
    # ------------------------------------------------------------------
    def _fill_absent(self, line: int) -> None:
        """Install ``line`` at MRU in LLC, L2 and L1; it must be resident
        nowhere (a line in flight is never cached, so drains, coalesced
        fills and DRAM misses qualify).  An LLC victim leaves every
        level, and if it was a software prefetch never used, counts as
        evicted early."""
        llc_set = self._llc_sets[line & self._llc_mask]
        if len(llc_set) >= self._llc_assoc:
            victim = next(iter(llc_set))
            del llc_set[victim]
            self._l1_sets[victim & self._l1_mask].pop(victim, None)
            self._l2_sets[victim & self._l2_mask].pop(victim, None)
            unused = self._unused
            if unused and unused.pop(victim, None):
                self.counters.sw_prefetch_early_evicted += 1
                if self.trace is not None:
                    self.trace.on_evict(victim, self._trace_now)
        llc_set[line] = 0
        l2_set = self._l2_sets[line & self._l2_mask]
        if len(l2_set) >= self._l2_assoc:
            del l2_set[next(iter(l2_set))]
        l2_set[line] = 0
        l1_set = self._l1_sets[line & self._l1_mask]
        if len(l1_set) >= self._l1_assoc:
            del l1_set[next(iter(l1_set))]
        l1_set[line] = 0

    def _fill(self, line: int) -> None:
        """Install ``line`` at MRU everywhere, resident or not: dropping
        it first makes a resident copy a plain refresh (its set is no
        longer full, so nothing is evicted for it)."""
        self._llc_sets[line & self._llc_mask].pop(line, None)
        self._l2_sets[line & self._l2_mask].pop(line, None)
        self._l1_sets[line & self._l1_mask].pop(line, None)
        self._fill_absent(line)

    def drain(self, now) -> None:
        """Complete the fill-buffer entries whose data has arrived by
        ``now``: the ready prefix of the FIFO buffer."""
        mshr = self._mshr
        if not mshr or now < self._mshr_next_ready:
            return
        unused = self._unused
        trace = self.trace
        if trace is not None:
            self._trace_now = now
        while mshr:
            line = next(iter(mshr))
            ready, software = mshr[line]
            if ready > now:
                self._mshr_next_ready = ready
                return
            del mshr[line]
            self._fill_absent(line)
            unused[line] = software
            if software and trace is not None:
                trace.on_fill(line, ready)
        self._mshr_next_ready = _INF

    def _use(self, line: int, now) -> None:
        """First demand touch of a filled prefetched line (the caller
        checked ``line in self._unused``)."""
        if self._unused.pop(line):
            self.counters.sw_prefetch_useful += 1
            if self.trace is not None:
                self.trace.on_use(line, now, late=False)
        else:
            self.counters.hw_prefetch_useful += 1

    def _issue_hw(self, line: int, now) -> None:
        """Start a hardware-prefetch fill for a mapped ``line``; drops
        are silent."""
        mshr = self._mshr
        if (
            line in mshr
            or line in self._l1_sets[line & self._l1_mask]
            or line in self._l2_sets[line & self._l2_mask]
            or line in self._llc_sets[line & self._llc_mask]
            or len(mshr) >= self._mshr_cap
        ):
            return
        ready = now + self._mem_lat
        mshr[line] = [ready, False]
        if ready < self._mshr_next_ready:
            self._mshr_next_ready = ready
        counters = self.counters
        counters.offcore_all_data_rd += 1
        counters.hw_prefetch_issued += 1

    def _observe_stride(self, pc: int, line: int, now) -> None:
        """Train the stride table on an L2 miss and issue its requests."""
        table = self._stride
        slot = pc % self._stride_entries
        entry = table.get(slot)
        if entry is None or entry[0] != pc:
            table[slot] = (pc, line, 0, 0)
            return
        stride = entry[2]
        confidence = entry[3]
        new_stride = line - entry[1]
        if new_stride == 0:
            return
        if new_stride == stride:
            confidence += 1
            if confidence > self._stride_ceiling:
                confidence = self._stride_ceiling
        else:
            stride = new_stride
            confidence = 1
        table[slot] = (pc, line, stride, confidence)
        if confidence >= self._stride_threshold:
            is_mapped = self._is_mapped
            for i in range(1, self._stride_degree + 1):
                candidate = line + stride * i
                if is_mapped(candidate * 64):
                    self._issue_hw(candidate, now)

    # ------------------------------------------------------------------
    # Demand ports
    # ------------------------------------------------------------------
    def load(self, addr: int, now, pc: int):
        """Return the latency of a demand load at ``now``.

        In ideal-prefetching mode (§2's upper bound) classification and
        hit/miss counters run normally but the returned latency is always
        the L1 latency and no stall cycles accrue."""
        line = addr >> 6
        counters = self.counters
        unused = self._unused
        l1_set = self._l1_sets[line & self._l1_mask]
        flags = l1_set.pop(line, None)
        if flags is not None:
            l1_set[line] = flags  # re-insert -> most recently used
            counters.l1_hits += 1
            if unused and line in unused:
                self._use(line, now)
            return self._l1_lat
        counters.l1_misses += 1
        mshr = self._mshr
        if mshr and now >= self._mshr_next_ready:
            self.drain(now)
            # L1 may have just been filled by the drain: reclassify.
            flags = l1_set.pop(line, None)
            if flags is not None:
                l1_set[line] = flags
                counters.l1_misses -= 1
                counters.l1_hits += 1
                if unused and line in unused:
                    self._use(line, now)
                return self._l1_lat

        l2_set = self._l2_sets[line & self._l2_mask]
        flags = l2_set.pop(line, None)
        if flags is not None:
            l2_set[line] = flags
            counters.l2_hits += 1
            if unused and line in unused:
                self._use(line, now)
            if len(l1_set) >= self._l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line] = 0
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_l2 += self._l2_lat - self._l1_lat
            return self._l2_lat
        counters.l2_misses += 1
        if self._stride is not None:
            self._observe_stride(pc, line, now)

        llc_set = self._llc_sets[line & self._llc_mask]
        flags = llc_set.pop(line, None)
        if flags is not None:
            llc_set[line] = flags
            counters.llc_hits += 1
            if unused and line in unused:
                self._use(line, now)
            if len(l2_set) >= self._l2_assoc:
                del l2_set[next(iter(l2_set))]
            l2_set[line] = 0
            if len(l1_set) >= self._l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line] = 0
            if self.trace is not None:
                self.trace.on_demand(pc, line, now, self._llc_lat, "llc")
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_llc += self._llc_lat - self._l1_lat
            return self._llc_lat
        counters.llc_misses += 1

        trace = self.trace
        entry = mshr.get(line)
        if entry is not None:
            # Coalesce with the in-flight fill: wait the residual.
            residual = entry[0] - now
            if residual < 0:
                residual = 0
            software = entry[1]
            del mshr[line]
            if trace is not None:
                self._trace_now = now
            self._fill_absent(line)
            if software:
                counters.load_hit_pre_sw_pf += 1
                counters.sw_prefetch_useful += 1
                if trace is not None:
                    trace.on_use(line, now, late=True)
                    trace.on_demand(pc, line, now, residual, "coalesced")
            else:
                counters.hw_prefetch_useful += 1
            latency = residual if residual > self._l1_lat else self._l1_lat
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_dram += latency - self._l1_lat
            return latency

        # True miss to memory.
        counters.offcore_demand_data_rd += 1
        counters.offcore_all_data_rd += 1
        if self._next_line and self._is_mapped((line + 1) * 64):
            self._issue_hw(line + 1, now)
        if trace is not None:
            self._trace_now = now
            trace.on_demand(pc, line, now, self._mem_lat, "dram")
        self._fill_absent(line)
        if self._ideal:
            return self._l1_lat
        counters.stall_cycles_dram += self._mem_lat - self._l1_lat
        return self._mem_lat

    def store(self, addr: int, now, pc: int):
        """Stores retire through a store buffer: cheap even on a miss.

        A missing line is write-allocated in the background (no stall, no
        offcore *read* accounting — the paper's counters measure data
        reads).
        """
        line = addr >> 6
        unused = self._unused
        l1_set = self._l1_sets[line & self._l1_mask]
        flags = l1_set.pop(line, None)
        if flags is not None:
            l1_set[line] = flags
            if unused and line in unused:
                self._use(line, now)
            return 1
        mshr = self._mshr
        if mshr and now >= self._mshr_next_ready:
            self.drain(now)
        if unused and line in unused:
            self._use(line, now)
        trace = self.trace
        if trace is not None:
            self._trace_now = now
        entry = mshr.pop(line, None) if mshr else None
        if entry is not None:
            # The store coalesces with (and consumes) the in-flight fill.
            self._fill_absent(line)
            if entry[1]:
                self.counters.sw_prefetch_useful += 1
                if trace is not None:
                    trace.on_use(line, now, late=True)
            else:
                self.counters.hw_prefetch_useful += 1
            return 1
        self._fill(line)
        return 1

    def prefetch(self, addr: int, now, pc: int) -> None:
        """Software prefetch: never faults, may be dropped."""
        counters = self.counters
        counters.sw_prefetch_issued += 1
        trace = self.trace
        line = addr >> 6
        if not self._is_mapped(addr):
            counters.sw_prefetch_dropped_unmapped += 1
            if trace is not None:
                trace.on_drop(pc, line, now, "unmapped")
            return
        mshr = self._mshr
        if mshr and now >= self._mshr_next_ready:
            self.drain(now)
        if (
            line in mshr
            or line in self._l1_sets[line & self._l1_mask]
            or line in self._l2_sets[line & self._l2_mask]
            or line in self._llc_sets[line & self._llc_mask]
        ):
            counters.sw_prefetch_redundant += 1
            if trace is not None:
                trace.on_drop(pc, line, now, "redundant")
            return
        if len(mshr) >= self._mshr_cap:
            counters.sw_prefetch_dropped_mshr += 1
            if trace is not None:
                trace.on_drop(pc, line, now, "mshr")
            return
        ready = now + self._mem_lat
        mshr[line] = [ready, True]
        if ready < self._mshr_next_ready:
            self._mshr_next_ready = ready
        counters.offcore_all_data_rd += 1
        if trace is not None:
            trace.on_issue(pc, line, now, ready)

    # ------------------------------------------------------------------
    def inflight(self) -> int:
        return len(self._mshr)

    def flush(self) -> None:
        """Drop all cached lines and in-flight fills (cold-cache reset).

        Traced prefetches still open at the flush stay open in the trace
        and roll up as *unused* — a cold-cache reset wastes them exactly
        like an eviction would.
        """
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()
        self._mshr.clear()
        self._mshr_next_ready = _INF
        self._unused.clear()
