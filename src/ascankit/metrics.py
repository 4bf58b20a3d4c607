"""Envelope extraction, image reconstruction, and PSNR scoring."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import (
    DataError,
    EnvelopeImage,
    InfinitePsnrError,
    NumericsError,
    RoiSpec,
    Trace,
    Volume,
    _finite,
    validate_volume,
)

__all__ = ["envelope", "reconstruct", "psnr", "psnr_gain"]


def _envelopes(rows: np.ndarray) -> np.ndarray:
    """Envelope of each row of ``rows`` along its last axis (1-D is one row).

    Built in the frequency domain: positive frequencies doubled, negative
    frequencies zeroed, DC (and Nyquist for even lengths) kept as is.
    """
    n = rows.shape[-1]
    if n < 2:
        raise DataError("envelope needs at least 2 samples")
    spectrum = np.fft.fft(rows)
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1 : n // 2] = 2.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(spectrum * weights))


def envelope(trace: Trace) -> Trace:
    """Magnitude of the discrete analytic signal of a trace."""
    return Trace(_envelopes(trace.samples), trace.dt)


def reconstruct(volume: Volume) -> EnvelopeImage:
    """Project a volume to an image: pixel (x, y) is that trace's envelope peak."""
    validate_volume(volume)
    pixels = [_finite(_envelopes(line)).max(axis=-1) for line in volume.grid()]
    return EnvelopeImage(nx=volume.nx, ny=volume.ny, pixels=pixels)


def _score(env: np.ndarray, roi: RoiSpec) -> float:
    """``psnr`` of one envelope, with ``roi`` already checked for its length."""
    _finite(env)
    inside = env[roi.t_lo : roi.t_hi]
    outside = np.concatenate((env[: roi.t_lo], env[roi.t_hi :]))
    with np.errstate(over="ignore"):
        noise_power = float(outside @ outside / outside.size)
    if noise_power == 0.0:
        raise InfinitePsnrError("noise power outside the roi is zero")
    if not math.isfinite(noise_power):
        raise NumericsError("noise power outside the roi overflows")
    peak = float(inside.max())
    if peak == 0.0:
        return float("-inf")
    ratio = peak * peak / noise_power
    if not 0.0 < ratio < math.inf:
        raise NumericsError(f"peak-to-noise power ratio {ratio!r} has no finite dB value")
    return 10.0 * math.log10(ratio)


def _psnrs(rows: np.ndarray, roi: RoiSpec) -> Iterator[float]:
    """``psnr`` of each row of the 2-D ``rows``, in order.  The envelopes
    are taken all at once; each score is computed when it is asked for."""
    roi.checked_for(rows.shape[-1])
    for env in _envelopes(rows):
        yield _score(env, roi)


def psnr(trace: Trace, roi: RoiSpec) -> float:
    """Peak-signal-to-noise ratio of a trace's envelope, in dB.

    The signal level is the envelope maximum inside the ROI; the noise power
    is the mean-square envelope outside it.  Zero noise power is reported as
    InfinitePsnrError rather than a value; a zero peak over non-zero noise
    yields ``-inf``.  A noise power or a peak-to-noise ratio beyond the
    float range raises NumericsError.
    """
    roi.checked_for(len(trace))
    return _score(_envelopes(trace.samples), roi)


def psnr_gain(before: Trace, after: Trace, roi: RoiSpec) -> float:
    """PSNR improvement of ``after`` over ``before`` on a shared ROI, in dB."""
    if len(before) != len(after):
        raise DataError(
            f"traces differ in length: {len(before)} vs {len(after)}"
        )
    return psnr(after, roi) - psnr(before, roi)
