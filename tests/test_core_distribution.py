"""Tests for LBR latency-distribution analysis (paper §3.1-3.2, Fig 4)."""

import random
import warnings

import pytest

from repro.core.distance import MIN_DISTANCE, MIN_SAMPLES, optimal_distance
from repro.core.distribution import (
    analyze_latency_distribution,
    iteration_latencies,
    trip_counts,
)


def make_sample(entries):
    """Build an LBR snapshot from (from_pc, to_pc, cycle) tuples."""
    return tuple(entries)


class TestIterationLatencies:
    def test_deltas_between_latch_instances(self):
        sample = make_sample(
            [(0x10, 0x4, 100), (0x10, 0x4, 150), (0x10, 0x4, 230)]
        )
        assert iteration_latencies([sample], [0x10]) == [50, 80]

    def test_other_branches_interleaved(self):
        sample = make_sample(
            [
                (0x10, 0x4, 100),
                (0x99, 0x5, 120),  # unrelated branch
                (0x10, 0x4, 160),
            ]
        )
        assert iteration_latencies([sample], [0x10]) == [60]

    def test_no_pairs_no_latencies(self):
        sample = make_sample([(0x10, 0x4, 100)])
        assert iteration_latencies([sample], [0x10]) == []

    def test_multiple_latches_merge(self):
        sample = make_sample([(0x10, 0x4, 100), (0x14, 0x4, 130)])
        assert iteration_latencies([sample], [0x10, 0x14]) == [30]

    def test_deltas_do_not_span_samples(self):
        a = make_sample([(0x10, 0x4, 100)])
        b = make_sample([(0x10, 0x4, 900)])
        assert iteration_latencies([a, b], [0x10]) == []

    def test_paper_fig3_example(self):
        # Fig 3: inner branches (I) at cycles forming avg latency ~2.2.
        sample = make_sample(
            [
                (0x20, 0x8, 10),  # outer
                (0x10, 0x4, 12),
                (0x10, 0x4, 14),
                (0x10, 0x4, 16),
                (0x20, 0x8, 18),  # outer
                (0x10, 0x4, 20),
                (0x10, 0x4, 22),
            ]
        )
        inner = iteration_latencies([sample], [0x10])
        # The 16->20 delta spans the outer-loop branch, so one "long"
        # iteration (4 cycles) appears — the same artifact a real LBR
        # measurement has; peak detection treats it as distribution mass.
        assert inner == [2, 2, 4, 2]


class TestTripCounts:
    def test_counts_inner_between_outers(self):
        sample = make_sample(
            [
                (0x20, 0x8, 10),
                (0x10, 0x4, 12),
                (0x10, 0x4, 14),
                (0x20, 0x8, 18),
                (0x10, 0x4, 20),
                (0x20, 0x8, 30),
            ]
        )
        # 2 inner back-edges -> 3 iterations; 1 -> 2 iterations.
        assert trip_counts([sample], [0x10], [0x20]) == [3, 2]

    def test_truncated_window_discarded(self):
        sample = make_sample(
            [(0x10, 0x4, 12), (0x10, 0x4, 14)]  # no enclosing outer branch
        )
        assert trip_counts([sample], [0x10], [0x20]) == []

    def test_empty_windows_counted_as_single_iteration(self):
        sample = make_sample([(0x20, 0x8, 10), (0x20, 0x8, 20)])
        assert trip_counts([sample], [0x10], [0x20]) == [1]


class TestPeakDetection:
    def test_bimodal_distribution(self):
        rng = random.Random(4)
        latencies = [rng.choice([20, 21, 22]) for _ in range(400)]
        latencies += [rng.choice([418, 420, 422]) for _ in range(300)]
        distribution = analyze_latency_distribution(latencies)
        assert len(distribution.peaks) >= 2
        assert abs(distribution.ic_latency - 21) <= 6
        assert abs(distribution.miss_latency - 420) <= 8
        assert distribution.mc_latency > 350

    def test_single_peak(self):
        latencies = [30] * 100
        distribution = analyze_latency_distribution(latencies)
        assert distribution.mc_latency == 0 or len(distribution.peaks) == 1

    def test_empty(self):
        distribution = analyze_latency_distribution([])
        assert distribution.peaks == []
        assert distribution.ic_latency == 0

    def test_noise_peaks_filtered(self):
        rng = random.Random(7)
        latencies = [rng.choice([20, 22]) for _ in range(1000)]
        latencies += [777]  # one outlier must not become a peak
        distribution = analyze_latency_distribution(latencies)
        assert all(p < 700 for p in distribution.peaks)

    def test_four_level_distribution_like_fig4(self):
        rng = random.Random(11)
        latencies = []
        for center, weight in ((80, 400), (230, 150), (400, 300), (650, 120)):
            latencies += [
                center + rng.randrange(-4, 5) for _ in range(weight)
            ]
        distribution = analyze_latency_distribution(latencies)
        assert 3 <= len(distribution.peaks) <= 5
        assert abs(distribution.ic_latency - 80) <= 10
        assert abs(distribution.miss_latency - 650) <= 12

    def test_masses_align_with_peaks(self):
        latencies = [20] * 500 + [420] * 100
        distribution = analyze_latency_distribution(latencies)
        assert len(distribution.peak_masses) == len(distribution.peaks)
        # The dominant mode carries the larger mass.
        heaviest = distribution.peaks[
            distribution.peak_masses.index(max(distribution.peak_masses))
        ]
        assert abs(heaviest - 20) <= 6


class TestDegradedFallback:
    """The documented graceful-degradation contract (module docstring):
    'not enough signal' degrades to distance MIN_DISTANCE flagged
    unreliable — never an exception, never a confident estimate."""

    def test_empty_input_falls_back_to_min_distance(self):
        distribution = analyze_latency_distribution([])
        assert distribution.peaks == []
        assert distribution.mc_latency == 0
        estimate = optimal_distance(distribution)
        assert estimate.distance == MIN_DISTANCE
        assert not estimate.reliable

    def test_single_peak_falls_back_to_min_distance(self):
        # The load always hits: one mode, no memory component to hide.
        distribution = analyze_latency_distribution([37] * 200)
        assert len(distribution.peaks) == 1
        assert distribution.ic_latency == distribution.miss_latency
        assert distribution.mc_latency == 0
        estimate = optimal_distance(distribution)
        assert estimate.distance == MIN_DISTANCE
        assert not estimate.reliable

    def test_below_min_samples_is_unreliable(self):
        latencies = [20] * (MIN_SAMPLES // 2) + [420] * (MIN_SAMPLES // 4)
        estimate = optimal_distance(analyze_latency_distribution(latencies))
        assert not estimate.reliable

    def test_degenerate_inputs_never_raise(self):
        for latencies in ([], [1], [0], [5] * 3, [1_000_000], [1, 1_000_000]):
            distribution = analyze_latency_distribution(latencies)
            estimate = optimal_distance(distribution)
            assert estimate.distance >= MIN_DISTANCE


def zero_noise_latencies() -> list[int]:
    """Two close modes far from everything else: the noise window around
    each ridge is mostly exact zeros, so the CWT noise floor is 0 and
    the SNR infinite."""
    return [4 * 1333] * 100 + [4 * 1353] * 100 + [4 * 3999]


@pytest.mark.parametrize(
    "latencies",
    [list(range(400)), [400] * 50, zero_noise_latencies()],
    ids=["flat", "single-spike", "zero-noise"],
)
def test_degenerate_histograms_raise_no_warning(latencies):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distribution = analyze_latency_distribution(latencies)
    assert distribution.peaks
