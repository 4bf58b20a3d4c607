"""Background subtraction, the zero-phase low-pass reference, and the
volume-level denoising pipelines."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.signal import filtfilt, firwin

from .adapt import default_noise_window, estimate_r
from .model import DataError, Trace, Volume, validate_volume
from .rts import denoise_trace

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


def _denoised_volume(volume: Volume, q: float, noise_window: int) -> np.ndarray:
    out = np.empty(volume.nx * volume.ny * volume.nt)
    nt = volume.nt
    for x in range(volume.nx):
        for y in range(volume.ny):
            trace = volume.trace(x, y)
            r = estimate_r(trace, noise_window)
            try:
                denoised = denoise_trace(trace, q, r)
            except (DataError, ArithmeticError) as exc:
                raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
            off = (x * volume.ny + y) * nt
            out[off : off + nt] = denoised.samples
    return out


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
    noise_window = int(noise_window)
    if not 1 <= noise_window <= volume.nt:
        raise DataError(f"noise window {noise_window} outside [1, {volume.nt}]")

    out = _denoised_volume(volume, q, noise_window)
    if background is not None:
        out = out - _denoised_volume(background, q, noise_window)
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
