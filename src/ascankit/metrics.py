"""Envelope extraction, image reconstruction, and PSNR scoring."""

from __future__ import annotations

import math
from typing import Iterator, List

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


#: Samples per block of whole traces (at least one) that ``_envelope_blocks``
#: transforms at once: its complex and real buffers take 24 bytes a sample,
#: 384 KiB.  Against 65,536 samples (4 pairs of benchmark runs each, 2
#: cores), imaging-short's ``peak_rss_mb`` reads 37.9 MB, not 39.8, and
#: volume-wide's ``compare_s`` 7.9 % (5.7 ms) more, of which its 12 more
#: blocks a pass cost about 1.6 ms single-threaded.
_ENVELOPE_SAMPLES = 1 << 14


def _block_traces(count: int, n: int) -> int:
    """Traces per block of ``_envelope_blocks`` over ``count`` traces of ``n``
    samples; only the last block can hold fewer."""
    return max(1, min(count, _ENVELOPE_SAMPLES // n))


def _envelope_blocks(traces: np.ndarray) -> Iterator[np.ndarray]:
    """Envelopes of the rows of the 2-D ``traces``, in order.  Yields a
    C-ordered (traces, samples) block of whole traces at a time, under
    ``_ENVELOPE_SAMPLES``: a view of a buffer that is allocated once per
    call and that the next block overwrites.

    Built in the frequency domain: positive frequencies doubled, negative
    frequencies zeroed, DC (and Nyquist for even lengths) kept as is.  Each
    block is cast into a complex buffer and transformed, weighted and
    transformed back in place, with the bits of ``abs(ifft(fft(x) * w))``.
    """
    count, n = traces.shape
    if n < 2:
        raise DataError("envelope needs at least 2 samples")
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1 : n // 2] = 2.0
    else:
        weights[1 : (n + 1) // 2] = 2.0
    size = _block_traces(count, n)
    spectra = np.empty((size, n), dtype=complex)
    envelopes = np.empty((size, n))
    for lo in range(0, count, size):
        k = min(size, count - lo)
        spectrum, env = spectra[:k], envelopes[:k]
        np.copyto(spectrum, traces[lo : lo + k])
        # A finite trace can have an envelope that overflows; the callers
        # refuse it, naming the trace, so numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.fft(spectrum, out=spectrum)
            np.multiply(spectrum, weights, out=spectrum)
            np.fft.ifft(spectrum, out=spectrum)
            np.abs(spectrum, out=env)
        yield env


def envelope(trace: Trace) -> Trace:
    """Magnitude of the discrete analytic signal of a trace."""
    return Trace(next(_envelope_blocks(trace.samples[np.newaxis]))[0], trace.dt)


def reconstruct(volume: Volume) -> EnvelopeImage:
    """Project a volume to an image: pixel (x, y) is that trace's envelope
    peak.  An envelope that is not finite raises an error naming its trace."""
    pixels = np.empty((volume.nx, volume.ny))
    flat, lo = pixels.reshape(-1), 0
    for envs in _envelope_blocks(volume.data.reshape(-1, volume.nt)):
        peaks = np.max(envs, axis=-1, out=flat[lo : lo + len(envs)])
        if not np.isfinite(peaks.max()):  # a maximum is not finite where its envelope is not
            i = int(np.argmin(np.isfinite(peaks)))
            x, y = divmod(lo + i, volume.ny)
            try:
                _finite(envs[i])
            except DataError as exc:
                raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
        lo += len(envs)
    return EnvelopeImage(nx=volume.nx, ny=volume.ny, pixels=pixels)


def _psnrs(envs: np.ndarray, roi: RoiSpec) -> Iterator[float]:
    """``psnr`` of each row of the 2-D envelopes ``envs``, in order.  All rows'
    noise powers, roi peaks, maxima (an envelope, never negative, is finite
    where its maximum is) and peak-to-noise ratios are taken at once.  When
    every envelope is finite and every ratio positive and finite, the scores
    are ``10 log10`` of the ratios, which numpy divides as Python floats do.
    Otherwise each row's checks run in ``psnr``'s order when its score is
    asked for, so an error is raised at its row.  Rows of any memory order
    are scored as C-ordered ones: the noise powers' dot products sum in
    another order along a strided row."""
    roi.checked_for(envs.shape[-1])
    envs = np.ascontiguousarray(envs)
    outside = np.concatenate((envs[:, : roi.t_lo], envs[:, roi.t_hi :]), axis=-1)
    with np.errstate(all="ignore"):
        noise_powers = np.vecdot(outside, outside) / outside.shape[-1]
        peaks = envs[:, roi.t_lo : roi.t_hi].max(axis=-1)
        ratios = peaks * peaks / noise_powers
    finite = np.isfinite(envs.max(axis=-1))
    if finite.all() and ((0.0 < ratios) & (ratios < math.inf)).all():
        return iter([10.0 * math.log10(ratio) for ratio in ratios.tolist()])
    return _checked_psnrs(envs, finite.tolist(), noise_powers.tolist(), peaks.tolist())


def _checked_psnrs(
    envs: np.ndarray, finite: List[bool], noise_powers: List[float], peaks: List[float]
) -> Iterator[float]:
    """``_psnrs``' scores one row at a time, each row's checks when its score
    is asked for."""
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
    return next(_psnrs(next(_envelope_blocks(trace.samples[np.newaxis])), roi))


def psnr_gain(before: Trace, after: Trace, roi: RoiSpec) -> float:
    """PSNR improvement of ``after`` over ``before`` on a shared ROI, in dB."""
    if len(before) != len(after):
        raise DataError(
            f"traces differ in length: {len(before)} vs {len(after)}"
        )
    return psnr(after, roi) - psnr(before, roi)
