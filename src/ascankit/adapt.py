"""Adaptive choice of the filter's noise variances.

The measurement-noise variance R comes from the quiet leading samples of each
trace.  The process-noise variance Q is picked by scoring a grid of
candidates on a sample of traces (each candidate runs the full
denoise-and-score path) and averaging the per-trace winners.
"""

from __future__ import annotations

import math
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import _block_traces, _envelope_blocks, _psnrs
from .model import (
    DataError,
    InfinitePsnrError,
    NumericsError,
    QSelectionReport,
    RoiSpec,
    Trace,
    Volume,
    _call_into,
)
from .rts import _smooth_lanes

__all__ = [
    "estimate_r",
    "default_noise_window",
    "default_q_grid",
    "select_q",
]

#: Number of points in the auto-derived candidate grid.
_GRID_POINTS = 15
#: The auto grid spans [1e-6, 1e-1] times the sampled noise floor.
_GRID_LO = 1e-6
_GRID_HI = 1e-1
#: Fewest samples (lanes x steps) in a chunk of sweep lanes whose scores
#: ``_chunk_scores`` splits with a helper thread.  Scoring alone, one thread
#: against split (min of 60 calls, 2 cores): 120 x 4,096 lanes (sweep-long's
#: sweep) 9.6 against 6.8 ms, 30 x 4,096 2.4 against 1.9 ms, 60 x 1,024
#: (volume-wide's) 1.6 against 1.3 ms.  Split too, volume-wide's sweep raised
#: its ``peak_rss_mb`` by 4.8 % (3 of 3 benchmark pairs) for a ``denoise_s``
#: 3.7 % lower in 2 of 3.
_SPLIT_SAMPLES = 1 << 17


def estimate_r(trace: Trace, noise_window: int) -> float:
    """Mean-square of the first ``noise_window`` samples."""
    w = _checked_window(noise_window, len(trace))
    return float(_noise_powers(trace.samples[np.newaxis, :w])[0])


def _checked_window(noise_window: int, n: int) -> int:
    w = int(noise_window)
    if not 1 <= w <= n:
        raise DataError(f"noise window {w} outside [1, {n}]")
    return w


def _noise_powers(heads: np.ndarray) -> np.ndarray:
    """Mean square of each row of the 2-D ``heads``."""
    # One dot product per row, as ``head @ head`` takes it: a sum over an axis
    # would add in another order and change the last bits.  An overflow is
    # r = inf, which the filter refuses with its own one-line error, so numpy
    # need not warn of it.
    with np.errstate(over="ignore"):
        return np.vecdot(heads, heads) / heads.shape[-1]


def default_noise_window(nt: int) -> int:
    """5% of the trace length, rounded up, at least 16 samples, capped at nt."""
    nt = int(nt)
    if nt < 1:
        raise DataError("trace length must be >= 1")
    return min(nt, max(16, math.ceil(0.05 * nt)))


def default_q_grid(r_values: Sequence[float]) -> np.ndarray:
    """Log-spaced candidate grid anchored to the median noise estimate."""
    rs = np.asarray(list(r_values), dtype=np.float64)
    if rs.size == 0:
        raise DataError("need at least one noise estimate to anchor the grid")
    anchor = float(np.median(rs))
    if not (math.isfinite(anchor) and anchor > 0.0):
        raise NumericsError(
            "median noise estimate is zero; cannot anchor the candidate grid"
        )
    return np.geomspace(_GRID_LO * anchor, _GRID_HI * anchor, _GRID_POINTS)


def select_q(
    volume: Volume,
    grid: Optional[Sequence[float]] = None,
    *,
    n_sample: int = 32,
    seed: int = 0,
    noise_window: Optional[int] = None,
    roi: RoiSpec,
) -> QSelectionReport:
    """Score candidate process-noise values on sampled traces.

    Draws ``n_sample`` distinct traces with a seeded generator, denoises each
    with every grid candidate (using that trace's own noise estimate), scores
    the result's envelope PSNR over ``roi``, and keeps the per-trace argmax.
    Ties keep the lowest-index grid entry; an unbounded PSNR counts as +inf.
    The final value is the arithmetic mean of the winners.

    When ``grid`` is omitted it is derived from the sampled traces via
    :func:`default_q_grid`.
    """
    roi.checked_for(volume.nt)
    n_traces = volume.nx * volume.ny
    n_sample = int(n_sample)
    if not 1 <= n_sample <= n_traces:
        raise DataError(
            f"n_sample {n_sample} outside [1, {n_traces}] for this volume"
        )
    if noise_window is None:
        noise_window = default_noise_window(volume.nt)

    rng = np.random.default_rng(seed)
    flat_ids = rng.choice(n_traces, size=n_sample, replace=False)
    ids = [(int(i) // volume.ny, int(i) % volume.ny) for i in flat_ids]

    rows = volume.data.reshape(n_traces, volume.nt)
    window = _checked_window(noise_window, volume.nt)
    rs = _noise_powers(rows[flat_ids, :window]).tolist()

    if grid is None:
        grid_arr = default_q_grid(rs)
    else:
        grid_arr = np.asarray(list(grid), dtype=np.float64)
        if grid_arr.size == 0:
            raise DataError("q grid must be non-empty")
        if not np.all(np.isfinite(grid_arr)) or (grid_arr <= 0.0).any():
            raise DataError("q grid values must be finite and > 0")

    # One lane per (trace, candidate), trace-major: each trace's row is read
    # by as many lanes as candidates.  Every lane before a failing one has
    # been scored, so an error names the trace of lane len(scores).
    scores: List[float] = []
    try:
        for _, smoothed in _smooth_lanes(
            [rows],
            np.tile(grid_arr, n_sample),
            np.repeat(rs, grid_arr.size),
            lanes=np.repeat(flat_ids, grid_arr.size),
        ):
            chunk, error = _chunk_scores(smoothed, roi)
            scores += chunk
            if error is not None:
                raise error
    except (DataError, NumericsError) as exc:
        x, y = ids[len(scores) // grid_arr.size]
        raise type(exc)(f"trace (x={x}, y={y}): {exc}") from exc

    # argmax keeps the first of tied scores, the lowest grid index.
    table = np.reshape(scores, (n_sample, grid_arr.size))
    best_qs = grid_arr[table.argmax(axis=1)]

    # Winners near the largest float can sum past it; the report refuses that mean.
    with np.errstate(over="ignore"):
        return QSelectionReport(
            grid=tuple(grid_arr),
            sampled_trace_ids=tuple(ids),
            best_q_per_trace=tuple(best_qs),
            q_final=float(np.mean(best_qs)),
            r_per_trace=tuple(rs),
            best_psnr_per_trace=tuple(table.max(axis=1)),
        )


def _helper_lane(count: int, n: int) -> int:
    """The first of a chunk's ``count`` lanes of ``n`` steps that
    ``_chunk_scores`` leaves to its helper thread: ``count`` (none) below
    ``_SPLIT_SAMPLES``, else the envelope block boundary after the first half
    of the blocks, rounded up."""
    if count * n < _SPLIT_SAMPLES:
        return count
    size = _block_traces(count, n)
    return min(count, (-(-count // size) + 1) // 2 * size)


def _chunk_scores(
    smoothed: np.ndarray, roi: RoiSpec
) -> Tuple[List[float], Optional[Exception]]:
    """``_lane_scores`` of the lanes (rows) of ``smoothed``.  The lanes
    before ``_helper_lane`` are scored on this thread, and the rest, if any,
    at once on a helper thread with its own buffers; the helper has ended
    when this returns or raises.  A block holds the lanes it would hold
    unsplit, so every score has the same bits.  As in one pass over the
    lanes, the first failing lane's error is returned, and an exception that
    escapes the helper is raised unless this thread's lanes failed first."""
    split = _helper_lane(*smoothed.shape)
    outcome: List[object] = []
    helper = None
    if split < len(smoothed):
        helper = threading.Thread(
            target=_call_into, args=(outcome, _lane_scores, smoothed[split:], roi)
        )
        helper.start()
    try:
        scores, error = _lane_scores(smoothed[:split], roi)
    finally:
        if helper is not None:
            helper.join()
    if outcome and error is None:
        (result,) = outcome
        if isinstance(result, BaseException):
            raise result
        rest, error = result
        scores += rest
    return scores, error


def _lane_scores(
    smoothed: np.ndarray, roi: RoiSpec
) -> Tuple[List[float], Optional[Exception]]:
    """PSNR scores of the lanes (rows) of ``smoothed`` up to the
    first that fails, and that lane's error (None if none fails).  Lanes are
    scored a block at a time, as a whole chunk's complex spectra would
    outweigh the kernel's workspace; an unbounded PSNR scores +inf, and
    scoring resumes at the next lane."""
    scores: List[float] = []
    try:
        for envs in _envelope_blocks(smoothed):
            first = len(scores)
            while len(scores) < first + len(envs):
                try:
                    for score in _psnrs(envs[len(scores) - first :], roi):
                        scores.append(score)
                except InfinitePsnrError:
                    scores.append(math.inf)
    except (DataError, NumericsError) as exc:
        return scores, exc
    return scores, None
