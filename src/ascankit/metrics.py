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
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1 : n // 2] = 2.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    # A finite trace can have an envelope that overflows; the callers refuse
    # it, naming the trace, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.fft.ifft(np.fft.fft(rows) * weights))


def envelope(trace: Trace) -> Trace:
    """Magnitude of the discrete analytic signal of a trace."""
    return Trace(_envelopes(trace.samples), trace.dt)


def reconstruct(volume: Volume) -> EnvelopeImage:
    """Project a volume to an image: pixel (x, y) is that trace's envelope
    peak.  An envelope that is not finite raises an error naming its trace."""
    pixels = np.empty((volume.nx, volume.ny))
    for x, line in enumerate(volume.grid()):
        envs = _envelopes(line)
        pixels[x] = envs.max(axis=-1)  # not finite where an envelope is not
        bad = np.flatnonzero(~np.isfinite(pixels[x]))
        if bad.size:
            y = int(bad[0])
            try:
                _finite(envs[y])
            except DataError as exc:
                raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
    return EnvelopeImage(nx=volume.nx, ny=volume.ny, pixels=pixels)


def _psnrs(envs: np.ndarray, roi: RoiSpec) -> Iterator[float]:
    """``psnr`` of each row of the 2-D envelopes ``envs``, in order.  All rows'
    noise powers, roi peaks and finiteness are taken at once, as lists, so a suspended
    generator holds no array of its own; a row's checks run when its score is asked for.
    Rows of any memory order are scored as C-ordered ones: the noise powers'
    dot products sum in another order along a strided row."""
    roi.checked_for(envs.shape[-1])
    envs = np.ascontiguousarray(envs)
    outside = np.concatenate((envs[:, : roi.t_lo], envs[:, roi.t_hi :]), axis=-1)
    with np.errstate(over="ignore"):
        noise_powers = (np.vecdot(outside, outside) / outside.shape[-1]).tolist()
    del outside
    peaks = envs[:, roi.t_lo : roi.t_hi].max(axis=-1).tolist()
    finite = np.isfinite(envs).all(axis=-1).tolist()
    for env, ok, noise_power, peak in zip(envs, finite, noise_powers, peaks):
        if not ok:
            _finite(env)
        if noise_power == 0.0:
            raise InfinitePsnrError("noise power outside the roi is zero")
        if not math.isfinite(noise_power):
            raise NumericsError("noise power outside the roi overflows")
        if peak == 0.0:
            yield float("-inf")
            continue
        ratio = peak * peak / noise_power
        if not 0.0 < ratio < math.inf:
            raise NumericsError(f"peak-to-noise power ratio {ratio!r} has no finite dB value")
        yield 10.0 * math.log10(ratio)


def psnr(trace: Trace, roi: RoiSpec) -> float:
    """Peak-signal-to-noise ratio of a trace's envelope, in dB.

    The signal level is the envelope maximum inside the ROI; the noise power
    is the mean-square envelope outside it.  Zero noise power is reported as
    InfinitePsnrError rather than a value; a zero peak over non-zero noise
    yields ``-inf``.  A noise power or a peak-to-noise ratio beyond the
    float range raises NumericsError.
    """
    roi.checked_for(len(trace))
    return next(_psnrs(_envelopes(trace.samples)[np.newaxis], roi))


def psnr_gain(before: Trace, after: Trace, roi: RoiSpec) -> float:
    """PSNR improvement of ``after`` over ``before`` on a shared ROI, in dB."""
    if len(before) != len(after):
        raise DataError(
            f"traces differ in length: {len(before)} vs {len(after)}"
        )
    return psnr(after, roi) - psnr(before, roi)
