"""Unit tests for the prefetch-lifecycle trace: hook semantics, ring
bounds, and the exactness of incremental aggregates after wrap."""

from repro.obs.sites import site_reports
from repro.obs.trace import BranchTap, PrefetchTrace


def make_trace(capacity=16):
    return PrefetchTrace(
        capacity=capacity,
        sites={100: "f@0x64/inner"},
        site_loads={50: "f@0x64/inner"},
    )


class TestLifecycleHooks:
    def test_timely_use(self):
        trace = make_trace()
        trace.on_issue(100, 7, cycle=10.0, ready=254.0)
        trace.on_fill(7, ready=254.0)
        trace.on_use(7, cycle=300.0, late=False)
        (span,) = trace.spans
        assert span.outcome == "timely"
        assert span.margin == 46.0
        stats = trace.stats["f@0x64/inner"]
        assert stats.issued == 1
        assert stats.timely == 1
        assert trace.unused_count() == 0

    def test_late_use_has_negative_margin(self):
        trace = make_trace()
        trace.on_issue(100, 7, cycle=10.0, ready=254.0)
        trace.on_use(7, cycle=100.0, late=True)  # coalesced in flight
        (span,) = trace.spans
        assert span.outcome == "late"
        assert span.margin == -154.0
        # The rendered span never ends before the fill is ready.
        assert span.end_cycle == 254.0
        assert trace.stats["f@0x64/inner"].late == 1

    def test_eviction_before_use(self):
        trace = make_trace()
        trace.on_issue(100, 7, cycle=10.0, ready=254.0)
        trace.on_fill(7, ready=254.0)
        trace.on_evict(7, cycle=900.0)
        (span,) = trace.spans
        assert span.outcome == "evicted"
        assert span.margin is None
        assert trace.stats["f@0x64/inner"].early_evicted == 1

    def test_drops_count_as_issued(self):
        trace = make_trace()
        for reason in ("redundant", "mshr", "unmapped"):
            trace.on_drop(100, 7, cycle=5.0, reason=reason)
        stats = trace.stats["f@0x64/inner"]
        assert stats.issued == 3
        assert stats.redundant == 1
        assert stats.dropped_mshr == 1
        assert stats.dropped_unmapped == 1
        assert len(trace.spans) == 3

    def test_unknown_pc_gets_fallback_label(self):
        trace = make_trace()
        trace.on_issue(999, 3, cycle=1.0, ready=2.0)
        assert "pf@0x3e7" in trace.stats

    def test_open_record_is_unused_in_rollup(self):
        trace = make_trace()
        trace.on_issue(100, 7, cycle=10.0, ready=254.0)
        reports = site_reports(trace)
        assert reports["f@0x64/inner"].unused == 1
        # Rollup must not consume the open record.
        assert trace.unused_count() == 1
        trace.on_use(7, cycle=300.0, late=False)
        assert site_reports(trace)["f@0x64/inner"].unused == 0

    def test_uncovered_miss_attribution(self):
        trace = make_trace()
        trace.on_demand(50, 9, cycle=5.0, latency=244.0, level="dram")
        trace.on_demand(51, 9, cycle=6.0, latency=244.0, level="dram")
        trace.on_demand(50, 9, cycle=7.0, latency=44.0, level="llc")
        stats = trace.stats["f@0x64/inner"]
        # Only the DRAM miss at the stamped load PC counts.
        assert stats.uncovered_misses == 1


class TestRingBounds:
    def test_rings_bounded_but_aggregates_exact(self):
        trace = make_trace(capacity=8)
        for i in range(100):
            trace.on_issue(100, i, cycle=float(i), ready=float(i) + 10.0)
            trace.on_use(i, cycle=float(i) + 20.0, late=False)
        assert len(trace.spans) == 8  # ring wrapped
        stats = trace.stats["f@0x64/inner"]
        assert stats.issued == 100  # aggregates did not
        assert stats.timely == 100
        assert sum(stats.margin_hist) == 100

    def test_branch_ring_bounded(self):
        trace = make_trace(capacity=8)
        for i in range(50):
            trace.on_branch(20, 10, float(i))
        assert len(trace.branches) == 8


class TestBranchTap:
    def test_forwards_and_mirrors(self):
        from repro.machine.lbr import LastBranchRecord

        inner = LastBranchRecord(4)
        trace = make_trace()
        tap = BranchTap(inner, trace)
        tap.push((20, 10, 5))
        assert len(inner) == 1
        assert len(trace.branches) == 1
        assert tap.snapshot() == inner.snapshot()

    def test_push_follows_trace_reassignment(self):
        # Over a NullLBR push is the ring's own append; either way a
        # reassigned trace receives every later branch.
        from repro.machine.lbr import LastBranchRecord, NullLBR

        for inner in (NullLBR(), LastBranchRecord(4)):
            first, second = make_trace(), make_trace()
            tap = BranchTap(inner, first)
            tap.push((20, 10, 5))
            tap.trace = second
            tap.push((21, 10, 6))
            assert list(first.branches) == [(20, 10, 5)]
            assert list(second.branches) == [(21, 10, 6)]
            assert len(tap) == (0 if isinstance(inner, NullLBR) else 2)
