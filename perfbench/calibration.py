"""A fixed kernel that measures how fast the machine runs right now.

The benchmark's machine changes speed by up to 2x from one second to the
next, and more slowly in phases of tens of seconds, so a time taken at one
moment cannot be compared with a time taken at another.  The benchmark
therefore times ``calibrate`` right before and right after every timed
call and reports the call's time divided by the mean of the two, times
``REFERENCE_S``: seconds at the kernel's reference speed.  A change to the
program moves the call's time and not the kernel's, so it moves the
normalised time by the same share.

The kernel has the program's mix of work and never calls ``ascankit``:
the scalar random-walk filter step of ``kf_filter`` as a Python loop over a
numpy array (most of its time), then FFTs of a block of traces, as in
``envelope``.  A pure-Python loop over a list tracked the program's speed
worse: normalised by it, ``denoise_s`` on sweep-long spread three times as
wide over seeds (IQR/median 0.18 over 4 seeds, against 0.06 over 10).
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "normalised"]

#: Seconds one ``calibrate()`` takes at the reference speed: about its
#: median on a 2-core x86-64 VM (Python 3.11.7, numpy 2.4.6).  A constant,
#: it only sets the scale of the normalised times.
REFERENCE_S = 0.06

_RNG = np.random.default_rng(2211_10262)
_SAMPLES = _RNG.standard_normal(100_000)
_BLOCK = _RNG.standard_normal((32, 2048))


def calibrate() -> float:
    """Seconds of one pass of the kernel."""
    start = time.perf_counter()
    x, p = 0.0, 1.0
    out = np.empty(len(_SAMPLES))
    for k, y in enumerate(_SAMPLES):
        p = p + 0.01
        gain = p / (p + 1.0)
        x = x + gain * (float(y) - x)
        p = (1.0 - gain) * p
        out[k] = x
    for _ in range(20):
        spectrum = np.fft.rfft(_BLOCK, axis=1)
        np.abs(np.fft.irfft(spectrum * 0.5, n=_BLOCK.shape[1], axis=1)).sum()
    return time.perf_counter() - start


def normalised(times: Iterable[float], calibrations: Iterable[float]) -> float:
    """Median of time / calibration time over paired samples, in seconds at
    the reference speed; 0 when there are no samples."""
    ratios = [t / c for t, c in zip(times, calibrations)]
    return statistics.median(ratios) * REFERENCE_S if ratios else 0.0
