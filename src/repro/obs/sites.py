"""Per-injection-site rollups: coverage, accuracy, and the
timeliness-margin histogram.

This is the per-hint validation of the paper's two equations: Eq (1)
chose a prefetch distance so lines arrive just in time (margin slightly
positive), Eq (2) chose a site with enough run-ahead room (few lates,
few early evictions).  A site whose margin histogram piles up below zero
got too short a distance; one whose margins are huge (or whose
evictions dominate) prefetched too early.

Margins are bucketed in cycles on a symmetric pseudo-log scale
(:data:`MARGIN_BUCKETS`); bucket *i* counts margins in
``(bounds[i-1], bounds[i]]`` with open-ended tails.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Upper bounds (cycles) of the margin histogram buckets; one extra
#: bucket catches everything above the last bound.  Negative = late.
MARGIN_BUCKETS: tuple[int, ...] = (
    -4096, -1024, -256, -64, 0, 64, 256, 1024, 4096, 16384,
)

def _bucket_labels() -> list[str]:
    labels = []
    previous = None
    for bound in MARGIN_BUCKETS:
        if previous is None:
            labels.append(f"<={bound}")
        else:
            labels.append(f"({previous},{bound}]")
        previous = bound
    labels.append(f">{MARGIN_BUCKETS[-1]}")
    return labels


BUCKET_LABELS: tuple[str, ...] = tuple(_bucket_labels())


@dataclass
class SiteStats:
    """Mutable per-site aggregate the trace maintains incrementally."""

    label: str
    issued: int = 0
    timely: int = 0
    late: int = 0
    early_evicted: int = 0
    dropped_mshr: int = 0
    dropped_unmapped: int = 0
    redundant: int = 0
    #: Demand loads at this site's delinquent-load PC that still paid a
    #: full DRAM miss — the misses prefetching failed to cover.
    uncovered_misses: int = 0
    margin_sum: float = 0.0
    margin_min: float = 0.0
    margin_max: float = 0.0
    margin_hist: list[int] = field(
        default_factory=lambda: [0] * (len(MARGIN_BUCKETS) + 1)
    )

    def record_use(self, margin: float, late: bool) -> None:
        if late:
            self.late += 1
        else:
            self.timely += 1
        used = self.timely + self.late
        if used == 1:
            self.margin_min = self.margin_max = margin
        else:
            if margin < self.margin_min:
                self.margin_min = margin
            if margin > self.margin_max:
                self.margin_max = margin
        self.margin_sum += margin
        self.margin_hist[bisect_left(MARGIN_BUCKETS, margin)] += 1


@dataclass
class SiteReport:
    """Immutable rollup of one site over one traced run."""

    label: str
    issued: int = 0
    timely: int = 0
    late: int = 0
    early_evicted: int = 0
    unused: int = 0
    dropped_mshr: int = 0
    dropped_unmapped: int = 0
    redundant: int = 0
    uncovered_misses: int = 0
    margin_sum: float = 0.0
    margin_min: float = 0.0
    margin_max: float = 0.0
    margin_hist: list[int] = field(
        default_factory=lambda: [0] * (len(MARGIN_BUCKETS) + 1)
    )

    # -- derived ratios -------------------------------------------------
    @property
    def used(self) -> int:
        """Prefetches consumed by a demand access (timely or late)."""
        return self.timely + self.late

    @property
    def memory_reads(self) -> int:
        """Prefetches that actually started a fill (landed in the MSHR)."""
        return self.used + self.early_evicted + self.unused

    @property
    def accuracy(self) -> float:
        """Fraction of issued fills that were eventually used."""
        reads = self.memory_reads
        return self.used / reads if reads else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of this site's demand misses the prefetches absorbed
        (late coalesces count: they were misses that hit in flight)."""
        total = self.used + self.uncovered_misses
        return self.used / total if total else 0.0

    @property
    def timely_fraction(self) -> float:
        """Fraction of used prefetches whose line arrived before the
        demand access — the direct Eq-1 success metric."""
        used = self.used
        return self.timely / used if used else 0.0

    @property
    def margin_mean(self) -> float:
        used = self.used
        return self.margin_sum / used if used else 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "issued": self.issued,
            "timely": self.timely,
            "late": self.late,
            "early_evicted": self.early_evicted,
            "unused": self.unused,
            "dropped_mshr": self.dropped_mshr,
            "dropped_unmapped": self.dropped_unmapped,
            "redundant": self.redundant,
            "uncovered_misses": self.uncovered_misses,
            "margin_sum": self.margin_sum,
            "margin_min": self.margin_min,
            "margin_max": self.margin_max,
            "margin_hist": list(self.margin_hist),
            # Derived values are included for human/JSON consumers but
            # ignored by from_dict (recomputed from the raw fields).
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "timely_fraction": self.timely_fraction,
            "margin_mean": self.margin_mean,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SiteReport":
        return cls(
            label=raw["label"],
            issued=raw.get("issued", 0),
            timely=raw.get("timely", 0),
            late=raw.get("late", 0),
            early_evicted=raw.get("early_evicted", 0),
            unused=raw.get("unused", 0),
            dropped_mshr=raw.get("dropped_mshr", 0),
            dropped_unmapped=raw.get("dropped_unmapped", 0),
            redundant=raw.get("redundant", 0),
            uncovered_misses=raw.get("uncovered_misses", 0),
            margin_sum=raw.get("margin_sum", 0.0),
            margin_min=raw.get("margin_min", 0.0),
            margin_max=raw.get("margin_max", 0.0),
            margin_hist=list(
                raw.get("margin_hist", [0] * (len(MARGIN_BUCKETS) + 1))
            ),
        )


# ----------------------------------------------------------------------
def site_table(module) -> tuple[dict[int, str], dict[int, str]]:
    """Extract (prefetch_pc -> label, load_pc -> label) from a finalized
    module whose prefetching pass stamped ``Instruction.site`` labels.

    Run *after* the pass re-finalized the module: labels survive PC
    reassignment because they live on the instruction objects.
    """
    from repro.ir.opcodes import Opcode

    prefetch_sites: dict[int, str] = {}
    load_sites: dict[int, str] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if inst.site is None:
                continue
            if inst.op is Opcode.PREFETCH:
                prefetch_sites[inst.pc] = inst.site
            elif inst.op is Opcode.LOAD:
                load_sites[inst.pc] = inst.site
    return prefetch_sites, load_sites


def site_reports(trace) -> dict[str, SiteReport]:
    """Roll a trace up into per-site reports.

    Still-open records (prefetched lines never consumed, including fills
    still in flight) are counted as ``unused`` without mutating the
    trace, so the rollup can be taken repeatedly or mid-run.
    """
    reports: dict[str, SiteReport] = {}
    for label, stats in trace.stats.items():
        reports[label] = SiteReport(
            label=label,
            issued=stats.issued,
            timely=stats.timely,
            late=stats.late,
            early_evicted=stats.early_evicted,
            dropped_mshr=stats.dropped_mshr,
            dropped_unmapped=stats.dropped_unmapped,
            redundant=stats.redundant,
            uncovered_misses=stats.uncovered_misses,
            margin_sum=stats.margin_sum,
            margin_min=stats.margin_min,
            margin_max=stats.margin_max,
            margin_hist=list(stats.margin_hist),
        )
    for record in trace.open_records().values():
        label = record[0]
        report = reports.get(label)
        if report is None:
            report = reports[label] = SiteReport(label=label)
        report.unused += 1
    return reports


def format_site_reports(
    reports: dict[str, SiteReport], histogram: bool = True
) -> str:
    """Human-readable per-site table (+ optional margin histograms)."""
    if not reports:
        return "(no software prefetch sites traced)"
    lines = [
        f"{'site':<40} {'issued':>7} {'timely':>7} {'late':>6} "
        f"{'evict':>6} {'unused':>6} {'cov':>6} {'acc':>6} {'timely%':>8}"
    ]
    for label in sorted(reports):
        r = reports[label]
        lines.append(
            f"{label:<40} {r.issued:>7} {r.timely:>7} {r.late:>6} "
            f"{r.early_evicted:>6} {r.unused:>6} "
            f"{r.coverage:>6.3f} {r.accuracy:>6.3f} "
            f"{r.timely_fraction:>8.3f}"
        )
        if histogram and r.used:
            peak = max(r.margin_hist) or 1
            for bucket_label, count in zip(BUCKET_LABELS, r.margin_hist):
                if not count:
                    continue
                bar = "#" * max(1, round(24 * count / peak))
                lines.append(
                    f"    margin {bucket_label:>14}: {count:>7} {bar}"
                )
            lines.append(
                f"    margin mean={r.margin_mean:.1f} "
                f"min={r.margin_min:.1f} max={r.margin_max:.1f} cycles"
            )
    return "\n".join(lines)
