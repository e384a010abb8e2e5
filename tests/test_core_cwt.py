"""The in-tree CWT peak finder (paper §3.4) against scipy's
``find_peaks_cwt``, which stays a dev-only dependency as the oracle.

The port must return the same peak indices as scipy on every histogram
the analysis can see, and every convolution it replaces must be one that
scipy computes directly (``np.convolve``), not by FFT.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.api as api
from repro.core import distribution
from repro.core.cwt import _ricker, find_peaks_cwt
from repro.core.distribution import cwt_widths
from repro.service.api import TuningService
from repro.workloads.registry import TINY_SUITE
from tests.test_core_distribution import zero_noise_latencies

signal = pytest.importorskip("scipy.signal")

SHAPES = ("poisson", "mixture", "spikes", "bincount")


def assert_matches_scipy(vector: np.ndarray, widths: np.ndarray) -> None:
    for width in widths:
        kernel = _ricker(min(10 * width, len(vector)), width)
        assert signal.choose_conv_method(vector, kernel, mode="same") == "direct"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = signal.find_peaks_cwt(vector, widths)
    np.testing.assert_array_equal(find_peaks_cwt(vector, widths), expected)


def make_histogram(shape: str, bins: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "poisson":
        return rng.poisson(rng.uniform(0.1, 30.0), bins).astype(float)
    x = np.arange(bins)
    if shape == "mixture":
        histogram = np.zeros(bins)
        for _ in range(rng.integers(1, 5)):
            centre, spread = rng.uniform(0, bins), rng.uniform(0.5, bins / 8)
            mass = rng.uniform(1, 500)
            histogram += mass * np.exp(-((x - centre) ** 2) / (2 * spread**2))
        return np.floor(histogram)
    if shape == "spikes":
        histogram = np.zeros(bins)
        spots = rng.integers(0, bins, rng.integers(1, 8))
        histogram[spots] = rng.integers(1, 1000, len(spots))
        return histogram
    draws = rng.exponential(bins / 6, rng.integers(10, 5000)).astype(int)
    return np.bincount(draws[draws < bins], minlength=bins).astype(float)


@pytest.mark.parametrize("shape", SHAPES)
@given(
    bins=st.integers(min_value=8, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_port_matches_scipy_on_random_histograms(shape, bins, seed):
    assert_matches_scipy(make_histogram(shape, bins, seed), cwt_widths(bins))


def test_port_matches_scipy_on_tiny_suite_profiles(monkeypatch):
    """Every (histogram, widths) pair the analysis sees while profiling
    the tiny suite."""
    seen = []
    real = distribution.find_peaks_cwt

    def record(vector, widths):
        seen.append((vector.copy(), widths.copy()))
        return real(vector, widths)

    monkeypatch.setattr(distribution, "find_peaks_cwt", record)
    service = TuningService()
    for name in sorted(TINY_SUITE):
        api.profile(name, "tiny", service=service)
    assert seen
    for vector, widths in seen:
        assert_matches_scipy(vector, widths)


def test_zero_noise_floor_matches_scipy():
    values = np.asarray(zero_noise_latencies())
    histogram = np.bincount(values // 4).astype(float)
    peaks = find_peaks_cwt(histogram, cwt_widths(len(histogram)))
    assert list(peaks) == [1333, 1354]
    assert_matches_scipy(histogram, cwt_widths(len(histogram)))
