"""Background subtraction, the zero-phase low-pass reference, and the
volume-level denoising pipelines."""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .adapt import _checked_window, _noise_powers, default_noise_window
from .model import DataError, Trace, Volume, _finite, validate_volume
from .rts import _smooth_lanes

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
    filtered, = _lowpassed(trace.samples[np.newaxis], cutoff_hz, trace.dt)
    return Trace(filtered, trace.dt)


def _lowpassed(lines: np.ndarray, cutoff_hz: float, dt: float) -> Iterator[np.ndarray]:
    """``lowpass`` of each ``lines[i]`` along its last axis, with the taps built once."""
    cutoff_hz = float(cutoff_hz)
    nyquist = 0.5 / dt
    if not (math.isfinite(cutoff_hz) and 0.0 < cutoff_hz < nyquist):
        raise DataError(
            f"cutoff {cutoff_hz!r} Hz outside (0, {nyquist!r}) for dt={dt!r}"
        )
    from scipy.signal import filtfilt, firwin  # slow to import, so only where it is used

    taps = firwin(LOWPASS_TAPS, cutoff_hz, window="hamming", fs=1.0 / dt)
    padlen = min(3 * LOWPASS_TAPS, lines.shape[-1] - 1)
    for line in lines:
        yield filtfilt(taps, [1.0], line, padlen=padlen)


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
    window = _checked_window(noise_window, volume.nt)
    # The traces of both volumes, the volume's first, are the lanes of one
    # kernel run.  An error names the trace it arose on.
    n_traces, nt = volume.nx * volume.ny, volume.nt
    sources = [volume] if background is None else [volume, background]
    rows = [samples for source in sources for samples in source.data.reshape(n_traces, nt)]
    rs = _noise_powers(rows, window)
    out = np.empty((n_traces, nt))
    received = 0  # the lane an error belongs to
    # Finite traces of opposite sign can differ by more than the largest
    # float; each difference is checked as baseline_denoise checks it.
    try:
        with np.errstate(over="ignore"):
            for lo, smoothed in _smooth_lanes(rows, np.full(len(rows), float(q)), np.array(rs)):
                for received, samples in enumerate(smoothed.T, start=lo):
                    if received < n_traces:
                        out[received] = samples
                    else:
                        line = out[received - n_traces]
                        line -= samples
                        _finite(line)
                received = lo + smoothed.shape[1]
    except (DataError, ArithmeticError) as exc:
        x, y = divmod(received % n_traces, volume.ny)
        raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
    del smoothed, samples  # views that would keep the kernel's workspace alive
    return Volume(nx=volume.nx, ny=volume.ny, nt=nt, dt=volume.dt, data=out)


def baseline_denoise(
    volume: Volume,
    background: Optional[Volume],
    cutoff_hz: float,
) -> Volume:
    """Reference method: low-pass every trace, then subtract the low-passed
    background when one is given."""
    _check_inputs(volume, background)
    out = np.empty((volume.nx, volume.ny, volume.nt))
    lines = _lowpassed(volume.grid(), cutoff_hz, volume.dt)
    backs = repeat(0.0)  # without a background: x - 0.0 is x, bit for bit
    if background is not None:
        backs = _lowpassed(background.grid(), cutoff_hz, volume.dt)
    for line, filtered, back in zip(out, lines, backs):
        np.subtract(filtered, back, out=line)
        if not np.isfinite(line).all():  # a bad filtered sample spoils the difference too
            # Trace by trace: the filtered trace, its filtered background, their difference.
            _finite(np.stack(np.broadcast_arrays(filtered, back, line), axis=1))
    return Volume(nx=volume.nx, ny=volume.ny, nt=volume.nt, dt=volume.dt, data=out)
