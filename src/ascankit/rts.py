"""Backward fixed-interval smoothing over a forward filter trajectory.

The backward pass anchors at the last forward posterior and sweeps to the
front:

    c_k        = p_post[k] * f / p_prior[k+1]
    x_smooth[k] = x_post[k] + c_k * (x_smooth[k+1] - x_prior[k+1])
    p_smooth[k] = p_post[k] + c_k^2 * (p_smooth[k+1] - p_prior[k+1])

For the random-walk model this reproduces the batch least-squares estimate of
the whole trace, so it is checked against a direct tridiagonal solve in the
tests.

The volume-level paths run many traces at once through ``_smooth_lanes``,
which matches the scalar ``denoise_trace`` bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import math

import numpy as np

from .kalman import kf_filter, random_walk_params
from .model import (
    DataError,
    DegenerateCovarianceError,
    FilterParams,
    FilterTrajectory,
    Trace,
)

__all__ = ["rts_smooth", "denoise_trace"]

#: Cap, in bytes, on the (samples x lanes) arrays ``_smooth_lanes`` holds.
_LANE_BYTES = 4 << 20


def rts_smooth(
    trajectory: FilterTrajectory, params: FilterParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Smooth a forward trajectory, returning ``(x_smooth, p_smooth)``.

    Raises DegenerateCovarianceError if any prior variance after the first
    sample is zero, since the backward gain divides by it.
    """
    n = len(trajectory)
    x_prior = trajectory.x_prior.tolist()
    p_prior = trajectory.p_prior.tolist()
    x_post = trajectory.x_post.tolist()
    p_post = trajectory.p_post.tolist()
    f = params.f

    xs = [0.0] * n
    ps = [0.0] * n
    xs[n - 1] = x_post[n - 1]
    ps[n - 1] = p_post[n - 1]
    for k in range(n - 2, -1, -1):
        pp_next = p_prior[k + 1]
        if pp_next == 0.0:
            raise DegenerateCovarianceError(
                f"prior variance is zero at sample {k + 1}; backward gain undefined"
            )
        c = p_post[k] * f / pp_next
        xs[k] = x_post[k] + c * (xs[k + 1] - x_prior[k + 1])
        ps[k] = p_post[k] + c * c * (ps[k + 1] - p_prior[k + 1])
    return np.asarray(xs), np.asarray(ps)


def denoise_trace(trace: Trace, q: float, r: float) -> Trace:
    """Denoise one trace: forward random-walk filter, then backward smoothing.

    ``q`` must be positive.  ``r`` may be zero (an exactly silent noise
    estimate), in which case the filter tracks the measurements exactly and
    the output equals the input.
    """
    q = float(q)
    r = float(r)
    if not (math.isfinite(q) and q > 0.0):
        raise DataError("process-noise variance q must be finite and > 0")
    if not (math.isfinite(r) and r >= 0.0):
        raise DataError("measurement-noise variance r must be finite and >= 0")
    if r == 0.0:
        # With the measurements trusted exactly, the filter/smoother pair is
        # the identity map; short-circuiting keeps it exact to the bit
        # instead of accumulating one rounding per innovation update.
        return Trace(trace.samples, trace.dt)
    params = random_walk_params(trace, q, r)
    trajectory = kf_filter(trace, params)
    x_smooth, _ = rts_smooth(trajectory, params)
    return Trace(x_smooth, trace.dt)


def _lane_ok(q: float, r: float) -> bool:
    """Whether ``denoise_trace`` accepts the variances ``q`` and ``r``; it
    raises for any other pair, and ``_smooth_lanes`` takes no other pair."""
    return math.isfinite(q) and q > 0.0 and math.isfinite(r) and r >= 0.0


def _smooth_lanes(
    rows: Sequence[np.ndarray], q: np.ndarray, r: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Filter and smooth the lanes ``rows[i]`` (one length) with variances
    ``q[i]`` and ``r[i]``, which ``_lane_ok`` must accept.

    Yields ``(lo, smoothed)`` per chunk of lanes: ``smoothed[:, j]`` equals
    ``denoise_trace`` of lane ``lo + j`` bit for bit.  It is a time-major
    view of one workspace, under ``_LANE_BYTES`` unless a single lane needs
    more, that the next chunk overwrites.  Each time step applies the IEEE
    operations of ``kf_filter`` and ``rts_smooth``, in their order, across
    the chunk; the model's unit ``f`` and ``h`` and zero ``gu`` are folded
    away, which changes no bit.
    """
    total = len(rows)
    if total == 0:
        return
    n = len(rows[0])
    width = min(total, max(1, _LANE_BYTES // (2 * 8 * n)))
    # Time-major means (the input, until the forward pass overwrites it) and
    # posterior variances; a chunk of m lanes uses the first n*m entries.
    x_buf = np.empty(n * width)
    p_buf = np.empty(n * width)
    per_lane = np.empty((4, width))
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    # Overflow gives inf or nan as it does for the scalar path's Python
    # floats, silently; the callers reject non-finite results.
    with np.errstate(all="ignore"):
        for lo in range(0, total, width):
            m = min(width, total - lo)
            xs = x_buf[: n * m].reshape(n, m)
            ps = p_buf[: n * m].reshape(n, m)
            qs, rs = q[lo : lo + m], r[lo : lo + m]
            p_prior, denom, gain, step = per_lane[:, :m]
            for j in range(m):
                xs[:, j] = rows[lo + j]
            # The filter starts from x0 = y[0] and p0 = r, and its first prior
            # mean is x0 + 0.0, which turns -0.0 into +0.0.  Every later prior
            # mean x_post + 0.0 is left at x_post: a posterior is a sum
            # x_prior + g*(y - x_prior) with x_prior != -0.0, and such a sum
            # is never -0.0, so the + 0.0 would change no bit.
            x_prev = xs[0] + 0.0
            p_prev = rs
            for x, p in zip(xs, ps):
                add(p_prev, qs, out=p_prior)
                add(p_prior, rs, out=denom)
                divide(p_prior, denom, out=gain)
                subtract(x, x_prev, out=step)
                multiply(gain, step, out=step)
                add(x_prev, step, out=x)
                multiply(rs, p_prior, out=p)
                divide(p, denom, out=p)
                x_prev, p_prev = x, p
            # Backward, in place: c = p_post[k] / p_prior[k+1], where
            # p_prior[k+1] = p_post[k] + q and x_prior[k+1] = x_post[k].
            for x, x_next, p in zip(xs[-2::-1], xs[:0:-1], ps[-2::-1]):
                add(p, qs, out=p_prior)
                divide(p, p_prior, out=gain)
                subtract(x_next, x, out=step)
                multiply(gain, step, out=step)
                add(x, step, out=x)
            for j in np.flatnonzero(rs == 0.0):
                xs[:, j] = rows[lo + j]  # r = 0 is the identity map
            yield lo, xs
