"""Independent reference computations the tests score the library against.

The step oracle works in exact rational arithmetic and the smoother oracle
solves the equivalent batch least-squares problem directly; neither imports
the library's filter code, so agreement is evidence rather than tautology.

The two per-trace loops at the end are the other kind of reference: they
run the library's scalar ``denoise_trace`` (which the oracles above check)
one trace at a time, and the lane-batched callers must match them bit for
bit, errors included.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import solveh_banded

from ascankit.adapt import default_noise_window, default_q_grid, estimate_r
from ascankit.metrics import psnr
from ascankit.model import (
    DataError,
    InfinitePsnrError,
    QSelectionReport,
    RoiSpec,
    Volume,
    validate_volume,
)
from ascankit.rts import denoise_trace


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
    for trace, r in zip(traces, rs):
        best_q = grid_list[0]
        best_score = -math.inf
        for q_cand in grid_list:
            denoised = denoise_trace(trace, q_cand, r)
            try:
                score = psnr(denoised, roi)
            except InfinitePsnrError:
                score = math.inf
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
