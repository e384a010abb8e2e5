"""Wavelet peak finding for latency histograms (paper §3.4).

An exact, numpy-only port of ``scipy.signal.find_peaks_cwt(vector,
widths)`` with every other argument at its default, so no process
pays scipy's import, most of its start-up time and memory, for this
one call (see docs/PERFORMANCE.md, "Cold start").  The path ported is
scipy's:

1. the continuous wavelet transform of ``vector`` with a Ricker
   wavelet per width, by direct convolution;
2. ridge lines: relative maxima of each CWT row, chained from the
   widest row down to the narrowest;
3. the filter that keeps ridges spanning at least a quarter of the
   widths whose signal-to-noise ratio reaches 1, where the noise is
   the 10th percentile (``scoreatpercentile`` "fraction"
   interpolation) of the narrowest row in a window around the ridge.

Every floating-point operation is the one scipy performs, in the same
order, so the peaks are bit-identical to scipy's for every input.
``tests/test_core_cwt.py`` checks that with scipy as the oracle.

scipy chooses its direct method, which is ``np.convolve``, for every
kernel of at most 110 taps at any input length we build; the widest
kernel here is ``10 * width`` taps with ``width <= 11``.

Ported from scipy.signal (``_peak_finding.py``, ``_wavelets.py``) and
scipy.stats (``scoreatpercentile``), under this licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

#: Ridges must reach this signal-to-noise ratio.
MIN_SNR = 1
#: The noise floor is this percentile of the narrowest CWT row.
NOISE_PERCENTILE = 10


def find_peaks_cwt(vector: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Sorted indices of the peaks of ``vector`` at wavelet ``widths``.

    ``scipy.signal.find_peaks_cwt(vector, widths)``, bit for bit.
    """
    cwt = _cwt(vector, widths)
    ridge_lines = _identify_ridge_lines(cwt, widths / 4.0, np.ceil(widths[0]))
    # A zero noise floor makes an SNR inf or nan; both pass the filter.
    with np.errstate(divide="ignore", invalid="ignore"):
        filtered = _filter_ridge_lines(cwt, ridge_lines)
    max_locs = np.asarray([line[1][0] for line in filtered])
    max_locs.sort()
    return max_locs


def _ricker(points: int, a) -> np.ndarray:
    """The Ricker ("Mexican hat") wavelet of ``points`` taps at width ``a``."""
    A = 2 / (np.sqrt(3 * a) * (np.pi**0.25))
    wsq = a**2
    vec = np.arange(0, points) - (points - 1.0) / 2
    xsq = vec**2
    mod = 1 - xsq / wsq
    gauss = np.exp(-xsq / (2 * wsq))
    return A * mod * gauss


def _cwt(data: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """One row per width: ``data`` convolved with that width's wavelet."""
    output = np.empty((len(widths), len(data)), dtype=np.float64)
    for ind, width in enumerate(widths):
        points = min(10 * width, len(data))
        output[ind] = np.convolve(data, _ricker(points, width)[::-1], "same")
    return output


def _identify_ridge_lines(
    matr: np.ndarray, max_distances: np.ndarray, gap_thresh
) -> list:
    """Chain each row's relative maxima into ridge lines, widest row
    first.  A maximum joins the nearest ridge within ``max_distances``
    of it, or starts a new ridge; a ridge ends after more than
    ``gap_thresh`` rows without a maximum.  Each ridge is returned as
    ``[rows, cols]`` sorted by row.
    """
    # Interior strict maxima; the edges compare with themselves (scipy's
    # ``mode='clip'``), so they never count.
    all_max_cols = np.zeros(matr.shape, dtype=bool)
    inner = matr[:, 1:-1]
    all_max_cols[:, 1:-1] = (inner > matr[:, :-2]) & (inner > matr[:, 2:])
    has_relmax = np.nonzero(all_max_cols.any(axis=1))[0]
    if len(has_relmax) == 0:
        return []
    start_row = has_relmax[-1]
    # Each ridge line is [rows, cols, gap count].
    ridge_lines = [
        [[start_row], [col], 0] for col in np.nonzero(all_max_cols[start_row])[0]
    ]
    final_lines = []
    for row in np.arange(start_row - 1, -1, -1):
        this_max_cols = np.nonzero(all_max_cols[row])[0]
        for line in ridge_lines:
            line[2] += 1
        # Maxima join only the ridges that existed before this row.
        prev_ridge_cols = np.array([line[1][-1] for line in ridge_lines])
        for col in this_max_cols:
            line = None
            if len(prev_ridge_cols) > 0:
                diffs = np.abs(col - prev_ridge_cols)
                closest = np.argmin(diffs)
                if diffs[closest] <= max_distances[row]:
                    line = ridge_lines[closest]
            if line is not None:
                line[1].append(col)
                line[0].append(row)
                line[2] = 0
            else:
                ridge_lines.append([[row], [col], 0])
        for ind in range(len(ridge_lines) - 1, -1, -1):
            if ridge_lines[ind][2] > gap_thresh:
                final_lines.append(ridge_lines.pop(ind))

    # A row can repeat within a ridge (two maxima of one row may join
    # it), so which column sorts first is scipy's argsort scatter's call.
    out_lines = []
    for line in final_lines + ridge_lines:
        sortargs = np.array(np.argsort(line[0]))
        rows, cols = np.zeros_like(sortargs), np.zeros_like(sortargs)
        rows[sortargs] = line[0]
        cols[sortargs] = line[1]
        out_lines.append([rows, cols])
    return out_lines


def _filter_ridge_lines(cwt: np.ndarray, ridge_lines: list) -> list:
    """The ridges spanning at least a quarter of the rows whose SNR at
    the narrowest row reaches :data:`MIN_SNR`."""
    num_points = cwt.shape[1]
    min_length = np.ceil(cwt.shape[0] / 4)
    hf_window, odd = divmod(int(np.ceil(num_points / 20)), 2)
    row_one = cwt[0, :]

    # scipy computes the floor at every column; it depends on the column
    # alone, so computing it only where a ridge starts gives the same SNRs.
    def noise(col: int) -> np.float64:
        lo, hi = max(col - hf_window, 0), min(col + hf_window + odd, num_points)
        return _score_at_percentile(np.sort(row_one[lo:hi]), NOISE_PERCENTILE)

    kept = []
    for rows, cols in ridge_lines:
        if len(rows) < min_length:
            continue
        snr = abs(cwt[rows[0], cols[0]] / noise(cols[0]))
        if not snr < MIN_SNR:  # a nan SNR passes, as in scipy
            kept.append([rows, cols])
    return kept


def _score_at_percentile(sorted_: np.ndarray, per) -> np.float64:
    """``scipy.stats.scoreatpercentile`` of a sorted, non-empty 1-D
    array, interpolating a fractional rank linearly ("fraction")."""
    idx = per / 100.0 * (len(sorted_) - 1)
    i = int(idx)
    if i == idx:
        return sorted_[i]
    j = i + 1
    weights = np.array([(j - idx), (idx - i)], float)
    return np.add.reduce(sorted_[i: i + 2] * weights) / weights.sum()
