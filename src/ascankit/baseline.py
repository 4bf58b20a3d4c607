"""Background subtraction, the zero-phase low-pass reference, and the
volume-level denoising pipelines."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.signal import filtfilt, firwin

from .adapt import _checked_window, _noise_powers, default_noise_window
from .model import DataError, Trace, Volume, validate_volume
from .rts import _lane_ok, _smooth_lanes, denoise_trace

__all__ = [
    "differential_subtract",
    "lowpass",
    "pipeline_denoise",
    "baseline_denoise",
    "LOWPASS_TAPS",
]

#: Length of the windowed-sinc low-pass used by the reference method.
LOWPASS_TAPS = 101


def differential_subtract(signal: Trace, background: Trace) -> Trace:
    """Pointwise subtraction of a background trace from a signal trace."""
    if len(signal) != len(background):
        raise DataError(
            f"traces differ in length: {len(signal)} vs {len(background)}"
        )
    if signal.dt != background.dt:
        raise DataError(
            f"traces differ in dt: {signal.dt!r} vs {background.dt!r}"
        )
    return Trace(signal.samples - background.samples, signal.dt)


def lowpass(trace: Trace, cutoff_hz: float) -> Trace:
    """Zero-phase low-pass: a Hamming-windowed sinc FIR run forward and backward."""
    cutoff_hz = float(cutoff_hz)
    nyquist = 0.5 / trace.dt
    if not (math.isfinite(cutoff_hz) and 0.0 < cutoff_hz < nyquist):
        raise DataError(
            f"cutoff {cutoff_hz!r} Hz outside (0, {nyquist!r}) for dt={trace.dt!r}"
        )
    taps = firwin(LOWPASS_TAPS, cutoff_hz, window="hamming", fs=1.0 / trace.dt)
    padlen = min(3 * LOWPASS_TAPS, len(trace) - 1)
    filtered = filtfilt(taps, [1.0], trace.samples, padlen=padlen)
    return Trace(filtered, trace.dt)


def _denoised_volume(
    volume: Volume, background: Optional[Volume], q: float, noise_window: int
) -> np.ndarray:
    """Every trace of ``volume`` denoised, less its denoised ``background``
    trace when there is one, as one flat array.

    The traces of both volumes, the volume's first, are the lanes of one
    kernel run.  It takes the lanes before the first whose q or r
    denoise_trace refuses, and denoise_trace then raises its own error for
    that one.  An error names the trace it arose on.
    """
    n_traces, nt = volume.nx * volume.ny, volume.nt
    sources = [volume] if background is None else [volume, background]
    rows = [samples for source in sources for samples in source.data.reshape(n_traces, nt)]
    rs = _noise_powers(rows, noise_window)
    q = float(q)
    stop = next((i for i, r in enumerate(rs) if not _lane_ok(q, r)), len(rows))
    out = np.empty((n_traces, nt))
    lane = 0  # the lane an error belongs to
    try:
        for lo, smoothed in _smooth_lanes(rows[:stop], np.full(stop, q), np.array(rs[:stop])):
            finite = np.isfinite(smoothed).all(axis=0)
            if not finite.all():
                lane = lo + int(np.argmin(finite))
                Trace(smoothed[:, lane - lo], volume.dt)  # raises: not finite
            for j, samples in enumerate(smoothed.T, start=lo):
                if j < n_traces:
                    out[j] = samples
                else:
                    out[j - n_traces] -= samples
        lane = stop
        if stop < len(rows):
            denoise_trace(Trace(rows[stop], volume.dt), q, rs[stop])
    except (DataError, ArithmeticError) as exc:
        x, y = divmod(lane % n_traces, volume.ny)
        raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
    return out.reshape(-1)


def _check_inputs(volume: Volume, background: Optional[Volume]) -> None:
    """Validate a volume and its optional background, which must match the
    volume's grid and dt."""
    validate_volume(volume)
    if background is None:
        return
    validate_volume(background)
    if (background.nx, background.ny, background.nt) != (volume.nx, volume.ny, volume.nt):
        raise DataError(
            "background dimensions "
            f"{background.nx}x{background.ny}x{background.nt} do not match "
            f"volume {volume.nx}x{volume.ny}x{volume.nt}"
        )
    if background.dt != volume.dt:
        raise DataError(
            f"background dt {background.dt!r} does not match volume dt {volume.dt!r}"
        )


def pipeline_denoise(
    volume: Volume,
    background: Optional[Volume],
    q: float,
    noise_window: Optional[int] = None,
) -> Volume:
    """Denoise every trace of a volume; optionally subtract a background.

    All traces share the process-noise value ``q`` but each uses its own
    leading-window noise estimate.  When a background volume is given it is
    processed identically and subtracted pointwise.
    """
    _check_inputs(volume, background)
    if noise_window is None:
        noise_window = default_noise_window(volume.nt)
    out = _denoised_volume(
        volume, background, q, _checked_window(noise_window, volume.nt)
    )
    return Volume(nx=volume.nx, ny=volume.ny, nt=volume.nt, dt=volume.dt, data=out)


def baseline_denoise(
    volume: Volume,
    background: Optional[Volume],
    cutoff_hz: float,
) -> Volume:
    """Reference method: low-pass every trace, then subtract the low-passed
    background when one is given."""
    _check_inputs(volume, background)
    nt = volume.nt
    out = np.empty(volume.nx * volume.ny * nt)
    for x in range(volume.nx):
        for y in range(volume.ny):
            filtered = lowpass(volume.trace(x, y), cutoff_hz)
            if background is not None:
                filtered = differential_subtract(
                    filtered, lowpass(background.trace(x, y), cutoff_hz)
                )
            off = (x * volume.ny + y) * nt
            out[off : off + nt] = filtered.samples
    return Volume(nx=volume.nx, ny=volume.ny, nt=volume.nt, dt=volume.dt, data=out)
