"""Background subtraction, the zero-phase low-pass reference, and the
volume-level denoising pipelines."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adapt import _checked_window, _noise_powers, default_noise_window
from .model import DataError, Trace, Volume, _finite
from .rts import _first_bad, _smooth_lanes

__all__ = [
    "differential_subtract",
    "lowpass",
    "pipeline_denoise",
    "baseline_denoise",
    "LOWPASS_TAPS",
]

#: Length of the windowed-sinc low-pass used by the reference method.
LOWPASS_TAPS = 101
#: Bytes of output per call of ``_lowpassed`` in ``baseline_denoise`` (at
#: least one trace); a call's workspace is about three times this.  Each call
#: gives up the GIL a few times, and beside a busy thread getting it back can
#: take a switch interval, so fewer calls finish sooner.  In ``compare`` the
#: workspace adds to the pipeline's, which runs beside it: on a 32 x 24 x 256
#: scan the peak RSS of ``denoise`` then ``compare`` in one process (median
#: of 5, 38.6 MB at 128 KiB) rose by 1.1 and 0.3 MB at 512 and 256 KiB and
#: not at 64 KiB, and at 128 KiB a 16 x 16 x 1024 scan took about 5 % longer.
_FIR_BYTES = 1 << 18


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
    nt - 1))`` bit for bit, with scipy's ``firwin`` taps (``_taps``): the
    trace is padded with its odd extension at both ends, filtered forward
    from the steady state of its first sample, filtered backward from the
    steady state of the forward output's last sample, and the padding is cut
    off again.  ``_lowpassed`` computes only the samples that survive the cut.
    """
    filtered = np.empty((1, len(trace)))
    _lowpassed(trace.samples[np.newaxis], _taps(cutoff_hz, trace.dt), filtered)
    return Trace(filtered[0], trace.dt)


def _hamming(n: int) -> np.ndarray:
    """scipy's symmetric ``n``-point Hamming window, with its arithmetic: the
    cosine terms added to zeros in order, the second weighted by ``1 - 0.54``,
    which is not the float 0.46."""
    fac = np.linspace(-np.pi, np.pi, n)
    win = np.zeros(n)
    for k, a in enumerate((0.54, 1.0 - 0.54)):
        win += a * np.cos(k * fac)
    return win


_WINDOW = _hamming(LOWPASS_TAPS)


def _taps(cutoff_hz: float, dt: float) -> np.ndarray:
    """The low-pass's FIR taps for ``cutoff_hz`` at sample spacing ``dt``:
    ``scipy.signal.firwin(LOWPASS_TAPS, cutoff_hz, window="hamming",
    fs=1 / dt)`` bit for bit, with firwin's arithmetic for one low-pass band
    (a windowed sinc scaled to unit gain at DC)."""
    cutoff_hz = float(cutoff_hz)
    fs = 1.0 / dt
    if not math.isfinite(fs):
        raise DataError(f"sampling rate 1/dt is not finite for dt={dt!r}")
    nyquist = 0.5 * fs
    if not (math.isfinite(cutoff_hz) and 0.0 < cutoff_hz < nyquist):
        raise DataError(
            f"cutoff {cutoff_hz!r} Hz outside (0, {nyquist!r}) for dt={dt!r}"
        )
    right = cutoff_hz / nyquist
    if right == 0.0:
        raise DataError(f"cutoff {cutoff_hz!r} Hz is too small a fraction of Nyquist {nyquist!r}")
    m = np.arange(LOWPASS_TAPS) - 0.5 * (LOWPASS_TAPS - 1)
    h = right * np.sinc(right * m)
    h *= _WINDOW
    h /= h.sum()
    return h


def _lowpassed(rows: np.ndarray, taps: np.ndarray, out: np.ndarray) -> None:
    """``lowpass`` of each row of the 2-D ``rows`` into the same row of ``out``:
    scipy's ``filtfilt`` with ``taps`` bit for bit, which ``_taps`` builds as
    scipy's ``firwin`` does.

    With ``m = LOWPASS_TAPS - 1`` and a padding of ``p >= m`` samples (every
    trace longer than ``m``), each kept output of the backward pass is a dot
    product of all the taps with ``m + 1`` forward outputs, and each of those
    is one with ``m + 1`` samples of the padded trace.  Together they reach
    ``m`` samples into each padding, never further, and use only outputs at
    least ``m`` deep into each pass.  The steady-state initial conditions
    change only a pass's first ``m`` outputs, so they never reach a kept
    sample either.  Two valid-mode correlations of the trace with its
    ``m``-sample odd extension at each end therefore give the kept samples,
    and with the same bits: ``np.vecdot`` over the windows of a C-ordered
    row makes the same ``dot`` call for each output as ``filtfilt``'s
    full-mode ``convolve`` makes for each full-overlap one.  All rows go
    through each pass in one call, which runs without the GIL.

    A trace of ``nt <= m`` samples is padded by only ``nt - 1``, so the
    initial conditions and the partial sums at its ends reach the kept
    samples; it runs through ``filtfilt`` itself.
    """
    m = LOWPASS_TAPS - 1
    nt = rows.shape[-1]
    # A trace whose odd extension overflows gets a non-finite low-pass, which
    # the callers report.
    with np.errstate(over="ignore", invalid="ignore"):
        if nt <= m:
            from scipy.signal import filtfilt  # large and slow to import, so only here

            out[:] = filtfilt(taps, [1.0], rows, padlen=nt - 1)
            return
        rev = taps[::-1].copy()
        padded = np.empty((len(rows), nt + 2 * m))
        padded[:, m:-m] = rows
        np.subtract(2 * rows[:, :1], rows[:, m:0:-1], out=padded[:, :m])
        np.subtract(2 * rows[:, -1:], rows[:, -2 : -m - 2 : -1], out=padded[:, -m:])
        # The forward pass is stored reversed, so that the backward pass reads
        # C-ordered windows, as np.correlate copies a reversed input: a
        # negative stride would change the dot calls.
        backward = np.empty((len(rows), nt + m))
        np.vecdot(sliding_window_view(padded, LOWPASS_TAPS, axis=-1), rev, out=backward[:, ::-1])
        del padded
        np.vecdot(sliding_window_view(backward, LOWPASS_TAPS, axis=-1), rev, out=out[:, ::-1])


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
    # kernel run.
    n_traces, nt = volume.nx * volume.ny, volume.nt
    sources = [volume] if background is None else [volume, background]
    blocks = [source.data.reshape(n_traces, nt) for source in sources]
    rs = np.concatenate([_noise_powers(block[:, :window]) for block in blocks])
    out = np.empty((n_traces, nt))
    _denoised_rows(blocks, q, rs, out, lambda i: divmod(i, volume.ny))
    out.setflags(write=False)
    return Volume(nx=volume.nx, ny=volume.ny, nt=nt, dt=volume.dt, data=out)


def _denoised_rows(
    blocks: Sequence[np.ndarray], q: float, rs: np.ndarray, out: np.ndarray,
    coords: Callable[[int], Tuple[int, int]], *,
    forward: Optional[Callable[[int, np.ndarray], None]] = None,
    smoothed: Optional[Callable[[int, np.ndarray], None]] = None,
) -> None:
    """``pipeline_denoise``'s rows: the lanes of ``blocks`` (noise powers
    ``rs``), the first ``len(out)`` of them traces and any after them their
    backgrounds, go through one ``_smooth_lanes`` run at process noise ``q``.
    Each trace's lane is copied into its row of ``out``, and its background's
    subtracted from it.  ``forward`` goes to ``_smooth_lanes``; ``smoothed``,
    if given, sees each chunk it yields, as ``(lo, lanes)``, before it is
    taken.  An error names the trace ``coords(i)`` of the row ``i`` it
    belongs to."""
    n_traces = len(out)
    received = 0  # the lane an error belongs to
    # Finite traces of opposite sign can differ by more than the largest
    # float; each difference is checked as baseline_denoise checks it.
    try:
        with np.errstate(over="ignore"):
            qs = np.full(len(rs), float(q))
            for lo, lanes in _smooth_lanes(blocks, qs, rs, forward=forward):
                if smoothed is not None:
                    smoothed(lo, lanes)
                # Trace lanes are copied into their rows of ``out``, and
                # background lanes subtracted from them.
                hi = lo + len(lanes)
                mid = min(max(lo, n_traces), hi)
                out[lo:mid] = lanes[: mid - lo]
                if mid < hi:
                    lines = out[mid - n_traces : hi - n_traces]
                    np.subtract(lines, lanes[mid - lo :], out=lines)
                    bad = _first_bad(lines)
                    if bad is not None:
                        received = mid + bad
                        _finite(lines[bad])
                received = hi
    except (DataError, ArithmeticError) as exc:
        x, y = coords(received % n_traces)
        raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc


def baseline_denoise(
    volume: Volume,
    background: Optional[Volume],
    cutoff_hz: float,
) -> Volume:
    """Reference method: low-pass every trace, then subtract the low-passed
    background when one is given.  An error names the trace it arose on."""
    _check_inputs(volume, background)
    taps = _taps(cutoff_hz, volume.dt)
    n_traces, nt = volume.nx * volume.ny, volume.nt
    rows = volume.data.reshape(n_traces, nt)
    backs = None if background is None else background.data.reshape(n_traces, nt)
    block = max(1, _FIR_BYTES // (8 * nt))
    out = np.empty((n_traces, nt))
    back_buf = None if backs is None else np.empty((min(block, n_traces), nt))
    for lo in range(0, n_traces, block):
        lines = out[lo : lo + block]
        _lowpassed(rows[lo : lo + block], taps, lines)
        if backs is not None:
            back = back_buf[: len(lines)]
            _lowpassed(backs[lo : lo + block], taps, back)
            with np.errstate(over="ignore"):  # finite low-passes can differ by more than a float
                np.subtract(lines, back, out=lines)
    bad = _first_bad(out)  # a bad filtered sample spoils the difference too
    if bad is not None:
        # Trace by trace: the filtered trace, its filtered background, their
        # difference, the first two filtered again, as the difference may
        # have overwritten the first.
        trace = np.zeros((3, nt))
        for source, filtered in ((rows, trace[:1]), (backs, trace[1:2])):
            if source is not None:
                _lowpassed(source[bad : bad + 1], taps, filtered)
        trace[2] = out[bad]
        x, y = divmod(bad, volume.ny)
        try:
            _finite(trace)
        except DataError as exc:
            raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
    out.setflags(write=False)
    return Volume(nx=volume.nx, ny=volume.ny, nt=nt, dt=volume.dt, data=out)
