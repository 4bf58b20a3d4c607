"""Background subtraction, the zero-phase low-pass reference, and the
volume-level denoising pipelines."""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .adapt import _checked_window, _noise_powers, default_noise_window
from .model import DataError, Trace, Volume, _finite
from .rts import _first_bad, _smooth_lanes, _transposed

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
    """Zero-phase low-pass: a Hamming-windowed sinc FIR run forward and backward.

    The output is scipy's ``filtfilt(taps, [1.0], x, padlen=min(3 * LOWPASS_TAPS,
    nt - 1))`` bit for bit: the trace is padded with its odd extension at both
    ends, filtered forward from the steady state of its first sample, filtered
    backward from the steady state of the forward output's last sample, and
    the padding is cut off again.  ``_lowpassed`` computes only the samples
    that survive the cut.
    """
    filtered, = _lowpassed(trace.samples[np.newaxis], cutoff_hz, trace.dt)
    return Trace(filtered, trace.dt)


def _lowpassed(lines: np.ndarray, cutoff_hz: float, dt: float) -> Iterator[np.ndarray]:
    """``lowpass`` of each ``lines[i]`` along its last axis, with the taps built once.

    With ``m = LOWPASS_TAPS - 1`` and a padding of ``p >= m`` samples (every
    trace longer than ``m``), each kept output of the backward pass is a dot
    product of all the taps with ``m + 1`` forward outputs, and each of those
    is one with ``m + 1`` samples of the padded trace.  Together they reach
    ``m`` samples into each padding, never further, and use only outputs at
    least ``m`` deep into each pass.  The steady-state initial conditions
    change only a pass's first ``m`` outputs, so they never reach a kept
    sample either.  Two valid-mode correlations of the trace with its
    ``m``-sample odd extension at each end therefore give the kept samples,
    and with the same bits: numpy's ``correlate`` makes the same ``dot`` call
    for each full-overlap output as ``filtfilt``'s full-mode ``convolve``.

    A trace of ``nt <= m`` samples is padded by only ``nt - 1``, so the
    initial conditions and the partial sums at its ends reach the kept
    samples; it runs through ``filtfilt`` itself.
    """
    cutoff_hz = float(cutoff_hz)
    nyquist = 0.5 / dt
    if not (math.isfinite(cutoff_hz) and 0.0 < cutoff_hz < nyquist):
        raise DataError(
            f"cutoff {cutoff_hz!r} Hz outside (0, {nyquist!r}) for dt={dt!r}"
        )
    # firwin refuses a cutoff whose fraction of Nyquist rounds to zero.
    if cutoff_hz / nyquist == 0.0:
        raise DataError(f"cutoff {cutoff_hz!r} Hz is too small a fraction of Nyquist {nyquist!r}")
    from scipy.signal import filtfilt, firwin  # slow to import, so only where it is used

    taps = firwin(LOWPASS_TAPS, cutoff_hz, window="hamming", fs=1.0 / dt)
    m = LOWPASS_TAPS - 1
    nt = lines.shape[-1]
    # A trace whose odd extension overflows gets a non-finite low-pass, which
    # the callers report; the errstate covers the extension, not the yield.
    if nt <= m:
        for line in lines:
            with np.errstate(over="ignore", invalid="ignore"):
                filtered = filtfilt(taps, [1.0], line, padlen=nt - 1)
            yield filtered
        return
    rev = taps[::-1].copy()
    for line in lines:
        with np.errstate(over="ignore", invalid="ignore"):
            padded = np.concatenate(
                (2 * line[..., :1] - line[..., m:0:-1], line,
                 2 * line[..., -1:] - line[..., -2 : -m - 2 : -1]),
                axis=-1,
            )
        filtered = np.empty_like(line)
        for out, samples in zip(filtered.reshape(-1, nt), padded.reshape(-1, nt + 2 * m)):
            forward = np.correlate(samples, rev, "valid")
            out[:] = np.correlate(forward[::-1], rev, "valid")[::-1]
        yield filtered


def _check_inputs(volume: Volume, background: Optional[Volume]) -> None:
    """Check that the optional background matches the volume's grid and dt;
    each Volume was checked on its own when it was built."""
    if background is None:
        return
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


def _subtract(lines: np.ndarray, back: np.ndarray) -> None:
    np.subtract(lines, back, out=lines)


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
    blocks = [source.data.reshape(n_traces, nt) for source in sources]
    rs = np.concatenate([_noise_powers(block[:, :window]) for block in blocks])
    out = np.empty((n_traces, nt))
    received = 0  # the lane an error belongs to
    # Finite traces of opposite sign can differ by more than the largest
    # float; each difference is checked as baseline_denoise checks it.
    try:
        with np.errstate(over="ignore"):
            for lo, smoothed in _smooth_lanes(blocks, np.full(len(rs), float(q)), rs):
                # Volume lanes are copied into their rows of ``out``, and
                # background lanes subtracted from them.
                hi = lo + smoothed.shape[1]
                mid = min(max(lo, n_traces), hi)
                _transposed(out[lo:mid], smoothed[:, : mid - lo])
                if mid < hi:
                    lines = out[mid - n_traces : hi - n_traces]
                    _transposed(lines, smoothed[:, mid - lo :], _subtract)
                    bad = _first_bad(lines, axis=1)
                    if bad is not None:
                        received = mid + bad
                        _finite(lines[bad])
                received = hi
    except (DataError, ArithmeticError) as exc:
        x, y = divmod(received % n_traces, volume.ny)
        raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
    del smoothed  # a view that would keep the kernel's workspace alive
    return Volume(nx=volume.nx, ny=volume.ny, nt=nt, dt=volume.dt, data=out)


def baseline_denoise(
    volume: Volume,
    background: Optional[Volume],
    cutoff_hz: float,
) -> Volume:
    """Reference method: low-pass every trace, then subtract the low-passed
    background when one is given.  An error names the trace it arose on."""
    _check_inputs(volume, background)
    out = np.empty((volume.nx, volume.ny, volume.nt))
    lines = _lowpassed(volume.grid(), cutoff_hz, volume.dt)
    backs = repeat(0.0)  # without a background: x - 0.0 is x, bit for bit
    if background is not None:
        backs = _lowpassed(background.grid(), cutoff_hz, volume.dt)
    for x, (line, filtered, back) in enumerate(zip(out, lines, backs)):
        with np.errstate(over="ignore"):  # finite low-passes can differ by more than a float
            np.subtract(filtered, back, out=line)
        if not np.isfinite(line).all():  # a bad filtered sample spoils the difference too
            # Trace by trace: the filtered trace, its filtered background, their difference.
            for y, trace in enumerate(np.stack(np.broadcast_arrays(filtered, back, line), axis=1)):
                try:
                    _finite(trace)
                except DataError as exc:
                    raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
    return Volume(nx=volume.nx, ny=volume.ny, nt=volume.nt, dt=volume.dt, data=out)
