"""Adaptive choice of the filter's noise variances.

The measurement-noise variance R comes from the quiet leading samples of each
trace.  The process-noise variance Q is picked by scoring a grid of
candidates on a sample of traces (each candidate runs the full
denoise-and-score path) and averaging the per-trace winners.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .metrics import _envelopes, _psnrs
from .model import (
    DataError,
    InfinitePsnrError,
    NumericsError,
    QSelectionReport,
    RoiSpec,
    Trace,
    Volume,
)
from .rts import _smooth_lanes, _transposed

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
#: Samples per block of lanes that ``_lane_envelopes`` envelopes at once.
_SCORED_SAMPLES = 1 << 16


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


def _lane_envelopes(lanes: np.ndarray) -> Iterator[np.ndarray]:
    """Envelopes of the time-major ``lanes``' columns, as blocks of at most
    ``_SCORED_SAMPLES`` samples copied lane-major: scores dot contiguous rows."""
    n, count = lanes.shape
    block = np.empty((max(1, _SCORED_SAMPLES // n), n))
    for j in range(0, count, len(block)):
        rows = block[: count - j]
        _transposed(rows, lanes[:, j : j + len(rows)])
        yield _envelopes(rows)


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

    # One lane per (trace, candidate), trace-major: each trace is a block of
    # as many lanes as candidates, a read-only view of its one row.  Lanes are
    # scored in the order of a loop over traces and then candidates, a block
    # of lanes at a time, since a whole chunk's complex spectra would
    # outweigh the kernel's workspace.  An unbounded PSNR scores +inf, and
    # scoring resumes at the next lane.  Every lane before a failing one has
    # been scored, so an error names the trace of lane len(scores).
    scores = []
    try:
        for _, smoothed in _smooth_lanes(
            [np.broadcast_to(rows[i], (grid_arr.size, volume.nt)) for i in flat_ids],
            np.tile(grid_arr, n_sample),
            np.repeat(rs, grid_arr.size),
        ):
            for envs in _lane_envelopes(smoothed):
                first = len(scores)
                while len(scores) < first + len(envs):
                    try:
                        for score in _psnrs(envs[len(scores) - first :], roi):
                            scores.append(score)
                    except InfinitePsnrError:
                        scores.append(math.inf)
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
