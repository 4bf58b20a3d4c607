"""Independent reference computations the tests score the library against.

The step oracle works in exact rational arithmetic and the smoother oracle
solves the equivalent batch least-squares problem directly; neither imports
the library's filter code, so agreement is evidence rather than tautology.

``scalar_lowpass`` calls scipy's ``filtfilt`` and ``firwin`` directly; the
library computes only the samples that ``filtfilt`` keeps, calls it only for
traces no longer than the taps, and builds the taps itself.
``scipy_clean_samples`` builds synthetic pulses with scipy's ``gausspulse``,
which the library writes out in numpy.

The per-trace loops at the end are the other kind of reference: they run
the library's scalar ``denoise_trace``, ``kf_filter``, ``rts_smooth``,
``lowpass``, ``envelope`` and ``psnr`` one trace at a time, and the
lane-batched and scan-line callers must match them bit for bit, errors
included.  ``scalar_score`` writes out ``psnr``'s scoring of one envelope
on 1-D arrays, for the library's scoring of whole lines to match.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import solveh_banded
from scipy.signal import filtfilt, firwin, gausspulse

from ascankit.adapt import default_noise_window, default_q_grid, estimate_r
from ascankit.baseline import LOWPASS_TAPS, differential_subtract, lowpass
from ascankit.kalman import kf_filter, random_walk_params
from ascankit.metrics import envelope, psnr
from ascankit.model import (
    DataError,
    _finite,
    InfinitePsnrError,
    NumericsError,
    QSelectionReport,
    RoiSpec,
    Trace,
    Volume,
    validate_volume,
)
from ascankit.rts import denoise_trace, rts_smooth
from ascankit.synth import FRACTIONAL_BANDWIDTH, SynthSpec, clean_samples


def rational_kf_step(
    x_prev: float,
    p_prev: float,
    y: float,
    f: float,
    h: float,
    gu: float,
    q: float,
    r: float,
) -> Tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """One predict/update cycle in exact rational arithmetic.

    Returns ``(x_prior, p_prior, gain, x_post, p_post)`` as Fractions.  The
    posterior variance uses the textbook ``(1 - gain*h) * p_prior`` form; in
    exact arithmetic it coincides with every algebraic rearrangement of the
    same quantity, so it checks any numerically-motivated refactoring.
    """
    x_prev, p_prev, y = Fraction(x_prev), Fraction(p_prev), Fraction(y)
    f, h, gu, q, r = Fraction(f), Fraction(h), Fraction(gu), Fraction(q), Fraction(r)
    p_prior = f * p_prev * f + q
    denom = h * p_prior * h + r
    if denom == 0:
        raise ZeroDivisionError("gain denominator is zero")
    gain = p_prior * h / denom
    x_prior = f * x_prev + gu
    x_post = x_prior + gain * (y - h * x_prior)
    p_post = (1 - gain * h) * p_prior
    return x_prior, p_prior, gain, x_post, p_post


def _precision_system(
    samples: Sequence[float], q: float, r: float, x0: float, p0: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal precision matrix and right-hand side of the batch problem.

    The filter treats ``(x0, p0)`` as the posterior *before* the first
    sample, so state 0 carries prior variance ``p0 + q``.  The joint
    negative log-density over states ``s_0 .. s_{n-1}`` is then

        (s_0 - x0)^2 / (p0 + q)
        + sum_{k>=1} (s_k - s_{k-1})^2 / q
        + sum_k (y_k - s_k)^2 / r

    whose stationary point solves ``A s = b`` with A tridiagonal.
    """
    y = np.asarray(samples, dtype=np.float64)
    n = y.size
    diag = np.full(n, 1.0 / r)
    diag[0] += 1.0 / (p0 + q)
    sub = np.zeros(n)
    if n > 1:
        diag[:-1] += 1.0 / q
        diag[1:] += 1.0 / q
        sub[1:] = -1.0 / q
    rhs = y / r
    rhs[0] += x0 / (p0 + q)
    return diag, sub, rhs


def map_smoothed_states(
    samples: Sequence[float], q: float, r: float, x0: float, p0: float
) -> np.ndarray:
    """Batch maximum-a-posteriori estimate of all random-walk states.

    For a linear-Gaussian model the fixed-interval smoother's state means
    equal this joint optimum, which a direct symmetric tridiagonal solve
    produces without any forward/backward recursion.
    """
    diag, sub, rhs = _precision_system(samples, q, r, x0, p0)
    n = diag.size
    if n == 1:
        # A single unknown: the banded solver needs a superdiagonal row.
        return rhs / diag
    banded = np.zeros((2, n))
    banded[0, 1:] = sub[1:]  # superdiagonal (symmetric)
    banded[1] = diag
    return solveh_banded(banded, rhs)


def map_smoothed_variances(
    n: int, q: float, r: float, p0: float
) -> np.ndarray:
    """Marginal posterior variances of the batch estimate (dense inverse).

    Only meant for small ``n``: inverts the full precision matrix and reads
    its diagonal.
    """
    diag, sub, _ = _precision_system(np.zeros(n), q, r, 0.0, p0)
    full = np.diag(diag)
    for k in range(1, n):
        full[k, k - 1] = sub[k]
        full[k - 1, k] = sub[k]
    return np.diag(np.linalg.inv(full)).copy()


def scalar_select_q(
    volume: Volume,
    grid: Optional[Sequence[float]] = None,
    *,
    n_sample: int = 32,
    seed: int = 0,
    noise_window: Optional[int] = None,
    roi: RoiSpec,
) -> QSelectionReport:
    """``select_q`` as one ``denoise_trace`` and one ``psnr`` per (trace,
    candidate), in a loop over the sampled traces and then the grid."""
    validate_volume(volume)
    roi.checked_for(volume.nt)
    n_traces = volume.nx * volume.ny
    n_sample = int(n_sample)
    if not 1 <= n_sample <= n_traces:
        raise DataError(f"n_sample {n_sample} outside [1, {n_traces}] for this volume")
    if noise_window is None:
        noise_window = default_noise_window(volume.nt)
    rng = np.random.default_rng(seed)
    flat_ids = rng.choice(n_traces, size=n_sample, replace=False)
    ids = [(int(i) // volume.ny, int(i) % volume.ny) for i in flat_ids]
    traces = [volume.trace(x, y) for x, y in ids]
    rs = [estimate_r(t, noise_window) for t in traces]
    if grid is None:
        grid_arr = default_q_grid(rs)
    else:
        grid_arr = np.asarray(list(grid), dtype=np.float64)
        if grid_arr.size == 0:
            raise DataError("q grid must be non-empty")
        if not np.all(np.isfinite(grid_arr)) or (grid_arr <= 0.0).any():
            raise DataError("q grid values must be finite and > 0")
    grid_list = [float(g) for g in grid_arr]
    best_qs = []
    best_scores = []
    for (x, y), trace, r in zip(ids, traces, rs):
        best_q = grid_list[0]
        best_score = -math.inf
        for q_cand in grid_list:
            try:
                denoised = denoise_trace(trace, q_cand, r)
                try:
                    score = psnr(denoised, roi)
                except InfinitePsnrError:
                    score = math.inf
            except (DataError, NumericsError) as exc:
                raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
            if score > best_score:
                best_score = score
                best_q = q_cand
        best_qs.append(best_q)
        best_scores.append(best_score)
    return QSelectionReport(
        grid=tuple(grid_list),
        sampled_trace_ids=tuple(ids),
        best_q_per_trace=tuple(best_qs),
        q_final=float(np.mean(best_qs)),
        r_per_trace=tuple(rs),
        best_psnr_per_trace=tuple(best_scores),
    )


def scalar_lowpass(samples: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    """``lowpass`` of each row of an array as scipy computes it: ``filtfilt``
    of the Hamming-windowed ``firwin`` taps along the last axis, padded by
    ``min(3 * LOWPASS_TAPS, n - 1)``.  An odd extension that overflows gives
    non-finite samples, not warnings."""
    taps = firwin(LOWPASS_TAPS, cutoff_hz, window="hamming", fs=1.0 / dt)
    n = samples.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return filtfilt(taps, [1.0], samples, padlen=min(3 * LOWPASS_TAPS, n - 1))


def scipy_clean_samples(spec: SynthSpec) -> np.ndarray:
    """``clean_samples`` as scipy computes it: one ``gausspulse`` per pulse,
    summed in the spec's order and scaled by the pulse amplitude."""
    if spec.pulse_amp == 0.0:
        return np.zeros(spec.nt)
    t = np.arange(spec.nt) * spec.dt
    shape = gausspulse(t - spec.pulse_time_s, fc=spec.pulse_center_hz, bw=FRACTIONAL_BANDWIDTH)
    for time_s, rel_amp in spec.reflections:
        shape = shape + rel_amp * gausspulse(
            t - time_s, fc=spec.pulse_center_hz, bw=FRACTIONAL_BANDWIDTH
        )
    return spec.pulse_amp * shape


def scalar_denoised_volume(
    volume: Volume, background: Optional[Volume], q: float, noise_window: int
) -> np.ndarray:
    """The flat data of ``pipeline_denoise`` as one ``denoise_trace`` per
    trace, the volume's traces first; an error names its trace."""

    def denoised(source: Volume) -> np.ndarray:
        out = np.empty(source.nx * source.ny * source.nt)
        for x in range(source.nx):
            for y in range(source.ny):
                trace = source.trace(x, y)
                r = estimate_r(trace, noise_window)
                try:
                    smoothed = denoise_trace(trace, q, r)
                except (DataError, ArithmeticError) as exc:
                    raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc
                off = (x * source.ny + y) * source.nt
                out[off : off + source.nt] = smoothed.samples
        return out

    out = denoised(volume)
    if background is not None:
        out = out - denoised(background)
    return out


def scalar_peak_alignment(entry, volume: Volume, q: float) -> Tuple[Optional[int], int, int]:
    """``measure_entry``'s ``(clean_peak, fwd_peak_late,
    smoothed_peak_aligned)`` as one ``kf_filter`` and one ``rts_smooth`` per
    masked trace of the corpus entry ``entry``, in order."""
    if not entry.mask:
        return None, 0, 0
    spec = entry.spec
    window = entry.window()
    clean = Trace(clean_samples(spec), spec.dt)
    clean_peak = int(np.argmax(envelope(clean).samples))
    fwd_late = aligned = 0
    for x, y in sorted(entry.mask):
        trace = volume.trace(x, y)
        r = estimate_r(trace, window)
        params = random_walk_params(trace, q, r)
        forward = kf_filter(trace, params)
        # One forward pass serves both peaks; r = 0 is denoise_trace's identity map.
        smoothed = trace.samples if r == 0.0 else rts_smooth(forward, params)[0]
        fwd_peak = int(np.argmax(envelope(Trace(forward.x_post, spec.dt)).samples))
        sm_peak = int(np.argmax(envelope(Trace(smoothed, spec.dt)).samples))
        fwd_late += fwd_peak - clean_peak >= 1
        aligned += abs(sm_peak - clean_peak) <= 1
    return clean_peak, fwd_late, aligned


def scalar_baseline_denoise(
    volume: Volume, background: Optional[Volume], cutoff_hz: float
) -> np.ndarray:
    """The flat data of ``baseline_denoise`` as one ``lowpass`` (and one
    ``differential_subtract``) per trace; an error names its trace."""
    out = np.empty(volume.nx * volume.ny * volume.nt)
    lowpass(Trace(np.zeros(volume.nt), volume.dt), cutoff_hz)  # the cutoff, before any trace
    for x in range(volume.nx):
        for y in range(volume.ny):
            try:
                filtered = lowpass(volume.trace(x, y), cutoff_hz)
                if background is not None:
                    filtered = differential_subtract(
                        filtered, lowpass(background.trace(x, y), cutoff_hz)
                    )
            except DataError as exc:
                raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
            off = (x * volume.ny + y) * volume.nt
            out[off : off + volume.nt] = filtered.samples
    return out


def scalar_reconstruct(volume: Volume) -> np.ndarray:
    """The pixels of ``reconstruct``: one ``envelope`` maximum per trace; an
    error names its trace."""
    pixels = np.empty((volume.nx, volume.ny))
    for x in range(volume.nx):
        for y in range(volume.ny):
            try:
                pixels[x, y] = envelope(volume.trace(x, y)).samples.max()
            except DataError as exc:
                raise DataError(f"trace (x={x}, y={y}): {exc}") from exc
    return pixels


def scalar_score(env: np.ndarray, roi: RoiSpec) -> float:
    """``psnr`` of one envelope: its peak inside ``roi`` against its mean
    square outside, with every check in ``psnr``'s order."""
    _finite(env)
    outside = np.concatenate((env[: roi.t_lo], env[roi.t_hi :]))
    with np.errstate(over="ignore"):
        noise_power = float(outside @ outside / outside.size)
    if noise_power == 0.0:
        raise InfinitePsnrError("noise power outside the roi is zero")
    if not math.isfinite(noise_power):
        raise NumericsError("noise power outside the roi overflows")
    peak = float(env[roi.t_lo : roi.t_hi].max())
    if peak == 0.0:
        return float("-inf")
    ratio = peak * peak / noise_power
    if not 0.0 < ratio < math.inf:
        raise NumericsError(f"peak-to-noise power ratio {ratio!r} has no finite dB value")
    return 10.0 * math.log10(ratio)


def _named_psnr(volume: Volume, x: int, y: int, roi: RoiSpec, source: str) -> float:
    try:
        return psnr(volume.trace(x, y), roi)
    except (DataError, NumericsError) as exc:
        raise type(exc)(f"{source}: trace (x={x}, y={y}): {exc}") from exc


def scalar_metrics_rows(volume: Volume, roi: RoiSpec, source: str):
    """The rows of ``ascankit metrics``: one ``psnr`` per trace; an error
    names its source and trace."""
    return [
        (x, y, _named_psnr(volume, x, y, roi, source))
        for x in range(volume.nx)
        for y in range(volume.ny)
    ]


def scalar_compare_rows(pipeline: Volume, reference: Volume, roi: RoiSpec):
    """The rows of ``ascankit compare``'s report: at each trace the pipeline
    output is scored, then the baseline output; an error names its trace."""
    rows = []
    for x in range(pipeline.nx):
        for y in range(pipeline.ny):
            scored = _named_psnr(pipeline, x, y, roi, "pipeline output")
            ref = _named_psnr(reference, x, y, roi, "baseline output")
            rows.append((x, y, scored, ref, scored - ref))
    return rows
