"""Shared domain types for A-scan traces, volumes, and the scalar filter model.

Everything downstream (filtering, smoothing, metrics, synthesis, I/O) works in
terms of these types.  All array-holding types normalise their payload to
read-only float64 arrays at construction, so instances can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np


class DataError(ValueError):
    """Malformed data: bad shapes, lengths, headers, or non-finite samples."""


class NumericsError(ArithmeticError):
    """A numerically degenerate condition in the filter model."""


class DegenerateModelError(NumericsError):
    """The Kalman gain denominator h^2 * p_prior + r vanished."""


class DegenerateCovarianceError(NumericsError):
    """A prior covariance required by the backward pass is zero."""


class InfinitePsnrError(NumericsError):
    """Noise power outside the ROI is exactly zero, so PSNR is unbounded."""


def _finite(samples: np.ndarray) -> np.ndarray:
    """``samples`` (traces along the last axis) if all are finite; else the
    first bad one, in row order, is named by its index within its trace."""
    finite = np.isfinite(samples)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0]) % samples.shape[-1]
        raise DataError(f"trace sample {bad} is not finite")
    return samples


def _call_into(outcome: List[object], function: Callable[..., object], *args: object) -> None:
    """A thread's target: append ``function(*args)``'s result, or what it raised."""
    try:
        outcome.append(function(*args))
    except BaseException as exc:  # re-raised on the thread that reads ``outcome``
        outcome.append(exc)


@dataclass(frozen=True, eq=False)
class Trace:
    """One A-scan: a non-empty 1-D sequence of samples at spacing ``dt`` seconds."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, copy=True)
        if samples.ndim != 1 or samples.size == 0:
            raise DataError("trace samples must be a non-empty 1-D sequence")
        _finite(samples)
        dt = float(self.dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise DataError("trace dt must be finite and > 0")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return self.samples.size


def _handed_over(data) -> bool:
    """Whether ``data`` can back a Volume without a copy: a native, C-ordered,
    read-only f64 array that owns its memory, which its maker hands over by
    making it read-only, or that views an immutable ``bytes`` object.  No
    other array's samples can change under the Volume."""
    return (
        type(data) is np.ndarray
        and data.dtype == np.float64
        and data.flags.c_contiguous
        and not data.flags.writeable
        and (data.flags.owndata or type(data.base) is bytes)
    )


@dataclass(frozen=True, eq=False)
class Volume:
    """A scan grid of traces stored x-major, then y, with t fastest.

    ``data`` is kept flat; the trace at (x, y) occupies the contiguous slice
    ``data[(x*ny + y)*nt : (x*ny + y + 1)*nt]``.  Construction copies the
    payload once, unless it is handed over (see ``_handed_over``), and checks
    it with :func:`validate_volume`, so every Volume holds ``nx*ny*nt``
    finite samples and code that receives one need not check it again.
    """

    nx: int
    ny: int
    nt: int
    dt: float
    data: np.ndarray

    def __post_init__(self):
        data = self.data
        if not _handed_over(data):
            data = np.array(data, dtype=np.float64, order="C")
        data = data.ravel()
        data.setflags(write=False)
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "ny", int(self.ny))
        object.__setattr__(self, "nt", int(self.nt))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "data", data)
        validate_volume(self)

    @classmethod
    def from_grid(cls, grid, dt: float) -> "Volume":
        arr = np.asarray(grid, dtype=np.float64)
        if arr.ndim != 3:
            raise DataError("volume grid must be 3-D (nx, ny, nt)")
        nx, ny, nt = arr.shape
        return cls(nx=nx, ny=ny, nt=nt, dt=dt, data=arr)

    def grid(self) -> np.ndarray:
        """Read-only (nx, ny, nt) view of the data."""
        return self.data.reshape(self.nx, self.ny, self.nt)

    def trace(self, x: int, y: int) -> Trace:
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise DataError(f"trace index ({x}, {y}) outside {self.nx}x{self.ny} grid")
        return Trace(self.grid()[x, y], self.dt)


def validate_volume(volume: Volume) -> Volume:
    """Check all Volume invariants, returning the volume unchanged.

    Every Volume runs this check when it is built.  Raises DataError naming
    the first offending index when samples are missing, extra, or non-finite.
    """
    if volume.nx < 1 or volume.ny < 1 or volume.nt < 1:
        raise DataError(
            f"volume dimensions must be positive, got {volume.nx}x{volume.ny}x{volume.nt}"
        )
    if not (math.isfinite(volume.dt) and volume.dt > 0.0):
        raise DataError("volume dt must be finite and > 0")
    expected = volume.nx * volume.ny * volume.nt
    if volume.data.size != expected:
        raise DataError(
            f"volume data length {volume.data.size} does not match "
            f"nx*ny*nt = {expected}"
        )
    # min and max need no temporary the size of the data; the index is only
    # searched for when one of them is not finite.
    if not (np.isfinite(volume.data.min()) and np.isfinite(volume.data.max())):
        flat = int(np.argmin(np.isfinite(volume.data)))
        raise DataError(f"volume sample at {_sample_at(volume, flat)} is not finite")
    return volume


def _sample_at(volume: Volume, flat: int) -> str:
    """``(x=…, y=…, t=…)`` of the sample at flat index ``flat`` of ``volume``."""
    x, rem = divmod(flat, volume.ny * volume.nt)
    y, t = divmod(rem, volume.nt)
    return f"(x={x}, y={y}, t={t})"


@dataclass(frozen=True)
class FilterParams:
    """Scalar state-space model parameters plus the initial state estimate.

    f: state transition; h: measurement; gu: constant drift term;
    q: process-noise variance; r: measurement-noise variance;
    x0/p0: initial state estimate and its variance.
    """

    f: float
    h: float
    gu: float
    q: float
    r: float
    x0: float
    p0: float

    def __post_init__(self):
        for name in ("f", "h", "gu", "q", "r", "x0", "p0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DataError(f"filter parameter {name} must be finite")
            object.__setattr__(self, name, value)
        if self.q < 0.0 or self.r < 0.0:
            raise DataError("noise variances q and r must be >= 0")
        if self.q + self.r <= 0.0:
            raise DataError("q + r must be > 0 (both noise variances are zero)")
        if self.p0 < 0.0:
            raise DataError("initial variance p0 must be >= 0")


@dataclass(frozen=True, eq=False)
class FilterTrajectory:
    """Per-sample sequences produced by one forward filter pass."""

    x_prior: np.ndarray
    p_prior: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        fields = ("x_prior", "p_prior", "x_post", "p_post", "gain")
        arrays = []
        for name in fields:
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            if arr.ndim != 1 or arr.size == 0:
                raise DataError(f"trajectory {name} must be a non-empty 1-D sequence")
            arrays.append(arr)
            object.__setattr__(self, name, arr)
        n = arrays[0].size
        if any(a.size != n for a in arrays):
            raise DataError("trajectory sequences must share one length")
        if (arrays[1] < 0.0).any() or (arrays[3] < 0.0).any():
            raise DataError("trajectory covariances must be >= 0")

    def __len__(self) -> int:
        return self.x_post.size


@dataclass(frozen=True)
class RoiSpec:
    """Half-open sample-index window [t_lo, t_hi) marking the signal region."""

    t_lo: int
    t_hi: int

    def __post_init__(self):
        object.__setattr__(self, "t_lo", int(self.t_lo))
        object.__setattr__(self, "t_hi", int(self.t_hi))
        if self.t_lo < 0 or self.t_hi <= self.t_lo:
            raise DataError(f"roi [{self.t_lo}, {self.t_hi}) is empty or negative")

    def checked_for(self, nt: int) -> "RoiSpec":
        """This roi, if it fits traces of ``nt`` samples and leaves a noise
        region outside it."""
        if self.t_hi > nt:
            raise DataError(f"roi [{self.t_lo}, {self.t_hi}) exceeds trace length {nt}")
        if self.t_lo == 0 and self.t_hi == nt:
            raise DataError("roi covers the whole trace; no noise region remains")
        return self


@dataclass(frozen=True, eq=False)
class QSelectionReport:
    """Outcome of the process-noise selection sweep.

    grid: candidate q values scored; sampled_trace_ids: (x, y) of the traces
    scored, in draw order; best_q_per_trace: per-trace argmax over the grid;
    q_final: arithmetic mean of the per-trace bests.  r_per_trace and
    best_psnr_per_trace record the per-trace noise estimate and winning score.
    """

    grid: Tuple[float, ...]
    sampled_trace_ids: Tuple[Tuple[int, int], ...]
    best_q_per_trace: Tuple[float, ...]
    q_final: float
    r_per_trace: Tuple[float, ...]
    best_psnr_per_trace: Tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        ids = tuple((int(x), int(y)) for x, y in self.sampled_trace_ids)
        best = tuple(float(b) for b in self.best_q_per_trace)
        rs = tuple(float(r) for r in self.r_per_trace)
        scores = tuple(float(s) for s in self.best_psnr_per_trace)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "sampled_trace_ids", ids)
        object.__setattr__(self, "best_q_per_trace", best)
        object.__setattr__(self, "r_per_trace", rs)
        object.__setattr__(self, "best_psnr_per_trace", scores)
        object.__setattr__(self, "q_final", float(self.q_final))
        if not grid:
            raise DataError("q grid must be non-empty")
        if any(g <= 0.0 or not math.isfinite(g) for g in grid):
            raise DataError("q grid values must be finite and > 0")
        if not (len(ids) == len(best) == len(rs) == len(scores)) or not ids:
            raise DataError("per-trace report fields must share one non-zero length")
        grid_set = set(grid)
        if any(b not in grid_set for b in best):
            raise DataError("best_q_per_trace contains a value outside the grid")
        mean = float(np.mean(best))
        if not math.isfinite(mean):
            raise NumericsError("the mean of best_q_per_trace overflows")
        if abs(self.q_final - mean) > 1e-12 * max(1.0, abs(mean)):
            raise DataError("q_final must equal the mean of best_q_per_trace")


@dataclass(frozen=True, eq=False)
class EnvelopeImage:
    """Maximum-envelope projection of a volume onto the (x, y) scan grid."""

    nx: int
    ny: int
    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.array(self.pixels, dtype=np.float64, copy=True)
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "ny", int(self.ny))
        if pixels.shape != (self.nx, self.ny):
            raise DataError(
                f"pixel array shape {pixels.shape} does not match ({self.nx}, {self.ny})"
            )
        if not np.all(np.isfinite(pixels)) or (pixels < 0.0).any():
            raise DataError("envelope pixels must be finite and >= 0")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
