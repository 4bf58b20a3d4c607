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
which matches the scalar ``denoise_trace`` bit for bit.  Its variances and
gains depend on ``(q, r)`` alone and in floating point settle, lane by lane,
to a fixed point or a 2-cycle, the steady-state filter (Anderson & Moore,
*Optimal Filtering*, 1979); from there a lane's means need two gains.
The kernel calls numpy per step only for what is sequential, the variance
recursion (4 calls) and the means (3 in each direction); the gains take one
call per sub-block of steps forward and two backward.  So an unsettled step
costs 4 + 3 + 3 calls and a settled one 3 + 3: on narrow chunks the cost is
per call; on wide ones, per sample too, so there settled lanes leave early.
Its workspace holds the means of every step, and the variances of every
step only where they fit; otherwise one variance per block of steps, from
which the backward pass recomputes the rest (the store-or-recompute trade of
Griewank & Walther's *revolve*, 2000).  Lanes move between their traces and
the time-major workspace in square tiles, not one strided column at a time
(the blocked copies of Lam, Rothberg & Wolf, ASPLOS 1991).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import itertools
import math

import numpy as np

from .kalman import kf_filter, random_walk_params
from .model import (
    DataError,
    DegenerateCovarianceError,
    FilterParams,
    FilterTrajectory,
    Trace,
    _finite,
)

__all__ = ["rts_smooth", "denoise_trace"]

#: Cap, in bytes, on ``_smooth_lanes``' workspace: every step's means, and
#: the variances in full or as per-block checkpoints (``_chunking``).  At
#: 16 MiB the pipeline of a 16 x 16 x 1024 scan and its background is one
#: chunk of 512 lanes, and a sweep of 120 lanes of 4,096 samples keeps its
#: variances.  Against 4 MiB, that raised ``denoise``'s peak RSS by 3.5 and
#: 4.9 MB on those two and left ``compare``'s where it was; corpus scoring
#: went from 21.8 s to 10.9-12.0 s (10.5 s at 32 MiB, 2 cores).
_LANE_BYTES = 16 << 20
#: Lanes and steps per tile of ``_transposed``'s copies.
_TILE = 64
#: Time steps between ``_smooth_lanes``' checks for settled variances.
_CHECK_EVERY = 128
#: Most time steps, and most bytes of scratch (two sub-blocks of lanes), per
#: sub-block whose gains ``_smooth_lanes`` computes in one call.  The Python
#: around a sub-block costs a few calls.  On the benchmark's kernel calls (16
#: to 768 lanes), against gains built a step at a time, 8 steps took 0.84 to
#: 0.95 of the time, 32 steps 0.79 to 0.97 and 128 steps 0.75 to 1.07; the
#: byte cap keeps the scratch from growing with wide chunks (21 steps at 768
#: lanes).
_GAIN_STEPS = 32
_GAIN_BYTES = 256 << 10
#: Fewest lanes of a chunk whose settled lanes leave the recursion before all
#: have.  With 2 never settling, leaving saved 0.8-1.0 us a step at 120-256
#: lanes of 1,024 steps, 3.0-5.7 at 384-768.  On sweep-long's q sweep (lanes
#: settling at steps 383-1,535) it cost 0.03-0.15 us a step at 120-240 lanes
#: and saved 0.4 MB of peak RSS (seeds 0-1, 101 / 14 pairs, 2 cores).
_COMPACT_LANES = 256


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
    _check_variances(q, r)
    if r == 0.0:
        # With the measurements trusted exactly, the filter/smoother pair is
        # the identity map; short-circuiting keeps it exact to the bit
        # instead of accumulating one rounding per innovation update.
        return Trace(trace.samples, trace.dt)
    params = random_walk_params(trace, q, r)
    trajectory = kf_filter(trace, params)
    x_smooth, _ = rts_smooth(trajectory, params)
    return Trace(x_smooth, trace.dt)


def _check_variances(q: float, r: float) -> None:
    """Raise the error for variances ``q`` and ``r`` that the filter refuses."""
    if not (math.isfinite(q) and q > 0.0):
        raise DataError("process-noise variance q must be finite and > 0")
    if not (math.isfinite(r) and r >= 0.0):
        raise DataError("measurement-noise variance r must be finite and >= 0")


def _settled(ps: np.ndarray, k: int) -> np.ndarray:
    """Which lanes' variance at step ``k``, ``ps[-1]``, repeats ``ps[-3]``
    bit for bit, so that every later one is ``ps[-2]`` or ``ps[-1]``."""
    return ps[-1].view(np.uint64) == ps[-3].view(np.uint64)


def _leave(
    cycle: np.ndarray, lanes: np.ndarray, k: int, post: np.ndarray, q: np.ndarray, r: np.ndarray
) -> None:
    """Write into ``cycle`` the forward and backward gains, by step parity, of
    ``lanes`` settled at step ``k`` with posterior variances ``post`` at k, k - 1."""
    for j, p in enumerate(post):  # p_post of step k - j and of each later one of its parity
        prior = p + q
        cycle[0, (k - j + 1) % 2, lanes] = prior / (prior + r)
        cycle[1, (k - j) % 2, lanes] = p / prior


def _chunking(stop: int, n: int) -> Tuple[int, bool]:
    """Lanes per chunk for ``stop`` lanes of ``n`` samples, and whether their
    variances are checkpointed: the fewest chunks under ``_LANE_BYTES`` in
    either layout, at the narrowest equal width, which stores the variances
    if they fit.  Every lane holds its means and the scratch of two
    sub-blocks of gains and a step; one that stores its variances holds them
    too, one that checkpoints them a checkpoint per block and one block of
    variances, which is the more below 130 samples."""
    block = min(_CHECK_EVERY, n)
    scratch = 2 * min(_GAIN_STEPS, block) + 1
    stored = 8 * (2 * n + scratch)
    checkpointed = 8 * (n + -(-n // block) + block + scratch)
    chunks = max(1, min(-(-stop // max(1, _LANE_BYTES // lane)) for lane in (stored, checkpointed)))
    width = max(1, -(-stop // chunks))
    return width, width * stored > _LANE_BYTES


def _transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy ``src.T`` into 2-D ``dst``, one ``_TILE`` x ``_TILE`` tile at
    a time: a strided column at a time would touch a cache line per element,
    and at wide rows those lines alias in the cache."""
    if src.strides[0] == 0:  # a repeated row, as select_q's lanes, has no such columns
        return np.copyto(dst, src.T)
    rows, cols = dst.shape
    for i in range(0, rows, _TILE):
        for k in range(0, cols, _TILE):
            np.copyto(dst[i : i + _TILE, k : k + _TILE], src[k : k + _TILE, i : i + _TILE].T)


def _first_bad(lanes: np.ndarray, axis: int) -> Optional[int]:
    """The first lane of ``lanes`` with a sample that is not finite, its
    samples along ``axis``, or None.  Unlike ``np.isfinite(lanes)``, min and
    max need no temporary the size of ``lanes``."""
    if np.isfinite(lanes.min()) and np.isfinite(lanes.max()):
        return None
    return int(np.argmax(~np.isfinite(lanes.min(axis=axis)) | ~np.isfinite(lanes.max(axis=axis))))


def _pieces(blocks: Sequence[np.ndarray], lo: int, hi: int) -> List[Tuple[int, np.ndarray]]:
    """``(j, rows)`` covering lanes ``lo`` to ``hi - 1`` of ``blocks``: ``rows``
    is a slice of one block whose first row is lane ``lo + j``."""
    pieces, start = [], 0
    for block in blocks:
        a, b = max(lo, start), min(hi, start + len(block))
        if a < b:
            pieces.append((a - lo, block[a - start : b - start]))
        start += len(block)
    return pieces


def _smooth_lanes(
    blocks: Sequence[np.ndarray], q: np.ndarray, r: np.ndarray,
    *, forward: Optional[Callable[[int, np.ndarray], None]] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Filter and smooth the lanes, the rows of the 2-D ``blocks`` in order
    (one length), lane ``i`` with variances ``q[i]`` and ``r[i]``.

    Yields ``(lo, smoothed)`` per chunk of lanes: ``smoothed[:, j]`` equals
    ``denoise_trace`` of lane ``lo + j`` bit for bit.  It is a time-major
    view of one workspace, under ``_LANE_BYTES`` unless a single lane needs
    more, that the next chunk overwrites.  Lanes come up to the first that
    ``denoise_trace`` refuses or whose result is not finite, and then that
    lane's ``denoise_trace`` error is raised.

    ``forward(lo, means)``, if given, is called between a chunk's two passes
    with a read-only view of the workspace: ``means[:, j]`` is ``kf_filter``'s
    ``x_post`` of lane ``lo + j`` bit for bit, also where ``r`` is 0.

    Every element sees the IEEE operations of ``kf_filter`` and
    ``rts_smooth``, on the same operands and in their order; the model's unit
    ``f`` and ``h`` and zero ``gu`` are folded away, which changes no bit.
    Only the grouping of elements into numpy calls differs, which is free
    because the variances and gains depend on ``(q, r)`` alone and no mean
    feeds back into them:

    - forward, per sub-block of at most ``_GAIN_STEPS`` steps, the variance
      recursion runs alone (add, add, multiply, divide a step) and keeps
      each step's prior variance and denominator; one divide gives the
      sub-block's gains, and the means take 3 calls a step;
    - backward, per sub-block, two calls give the gains ``p / (p + q)``
      from the stored or recomputed posterior variances, and the means take
      3 calls a step.

    A check at the odd steps 127, 255, ... before the last block finds the
    lanes whose posterior variance equals the one two steps back: all their
    later ones are equal too, as the map is deterministic, so their gains
    alternate with the step's parity (``_leave``).  They leave the recursion
    when all have settled, or in a chunk of ``_COMPACT_LANES`` or more with
    stored variances when at most half its lanes stay live and 8 or more
    steps follow (the packed rows then free the last 4 rows of ``p_buf`` for
    the gains).  The recursion goes on for the live lanes, on compact copies,
    their variances packed; the means stay full-width, on gain rows of both
    kinds.  Once all have left, both passes cycle through two gain rows, 3 + 3
    calls a step.  Where the variances do not fit in full (``_chunking``), the
    backward pass recomputes each block's from the last of the block before
    it, by the forward pass's own operations (4 calls a step).
    """
    count = sum(len(block) for block in blocks)
    if count == 0:
        return
    # The lanes whose variances _check_variances accepts, up to the first refused.
    accepted = np.isfinite(q) & (q > 0.0) & np.isfinite(r) & (r >= 0.0)
    stop = count if accepted.all() else int(np.argmin(accepted))
    n = blocks[0].shape[1]
    width, checkpointed = _chunking(stop, n)
    block = min(_CHECK_EVERY, n)
    sub = max(1, min(_GAIN_STEPS, block, _GAIN_BYTES // (16 * width)))
    starts = range(0, n, block)
    # Time-major means (the input, until the forward pass overwrites it) and
    # posterior variances: all, or a block and the last of each block.  A
    # chunk of m lanes uses m entries a row, and once lanes leave the
    # recursion, the live ones' later rows are packed after the full ones.
    p_rows = block + len(starts) if checkpointed else n
    x_buf = np.empty(n * width)
    p_buf = np.empty(p_rows * width)
    # A sub-block's prior variances, then its gains; its denominators, and
    # in the backward pass rows of q; and the step of the means.
    scratch_buf = np.empty((2 * sub + 1) * width)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    # Overflow gives inf or nan as it does for the scalar path's Python
    # floats, silently; such a lane is refused below.
    with np.errstate(all="ignore"):
        for lo in range(0, stop, width):
            m = min(width, stop - lo)
            xs = x_buf[: n * m].reshape(n, m)
            ps = p_buf[: p_rows * m].reshape(p_rows, m)
            qs, rs = q[lo : lo + m], r[lo : lo + m]
            # Each operand of a 2-D call is C-contiguous and of its shape, or
            # numpy buffers it: up to 64 KiB a call.  The rows are made once,
            # as a row view costs about as much as a call.
            scratch = scratch_buf[: (2 * sub + 1) * m].reshape(2 * sub + 1, m)
            priors, denoms, step = scratch[:sub], scratch[sub:-1], scratch[-1]
            prior_rows = list(priors)
            pieces = _pieces(blocks, lo, lo + m)
            for j, lanes in pieces:
                _transposed(xs[:, j : j + len(lanes)], lanes)
            # The filter starts from x0 = y[0] and p0 = r, and its first prior
            # mean is x0 + 0.0, which turns -0.0 into +0.0.  Every later prior
            # mean x_post + 0.0 is left at x_post: a posterior is a sum
            # x_prior + g*(y - x_prior) with x_prior != -0.0, and such a sum
            # is never -0.0, so the + 0.0 would change no bit.
            x_prev, p_prev = xs[0] + 0.0, rs
            # The lanes in the recursion, their q, r and scratch, and each
            # block's variances; the left lanes' gains [forward, backward][parity].
            live, ql, rl, pr, de, used = np.arange(m), qs, rs, priors, denoms, 0
            pr_rows, de_rows, windows, cycle, settled = prior_rows, list(denoms), [], None, n - 1
            for last, k0 in enumerate(starts):
                k1 = min(k0 + block, n)
                window = p_buf[used : used + (k1 - k0) * len(live)].reshape(k1 - k0, -1)
                used = 0 if checkpointed else used + window.size  # packed once lanes leave
                windows.append((window, live, ql))
                for s in range(k0, k1, sub):
                    e = min(s + sub, k1)
                    for p_prior, denom, p in zip(pr_rows, de_rows, window[s - k0 : e - k0]):
                        add(p_prev, ql, p_prior)
                        add(p_prior, rl, denom)
                        multiply(rl, p_prior, p)
                        divide(p, denom, p)
                        p_prev = p
                    divide(pr[: e - s], de[: e - s], pr[: e - s])
                    if len(live) < m:  # the left lanes' gains by parity, and the live ones'
                        gains = priors[: e - s]
                        gains[::2], gains[1::2] = cycle[0, s % 2], cycle[0, 1 - s % 2]
                        gains[:, live] = pr[: e - s]
                    for x, gain in zip(xs[s:e], prior_rows):
                        subtract(x, x_prev, step)
                        multiply(gain, step, step)
                        add(x_prev, step, x)
                        x_prev = x
                if k1 == n:  # no step follows the last block's check
                    break
                done = _settled(window, k1 - 1)
                if done.all() or (done.any() and not checkpointed and m >= _COMPACT_LANES
                                  and n - k1 >= 8 and 2 * np.count_nonzero(~done) <= m):
                    gone = slice(None) if done.all() else np.flatnonzero(done)
                    if cycle is None:  # narrowing: in rows of p_buf that the packing frees
                        cycle = np.empty(4 * m) if done.all() else p_buf[(n - 4) * m : n * m]
                        cycle = cycle.reshape(2, 2, m)
                    _leave(cycle, live[gone], k1 - 1, window[-1:-3:-1, gone], ql[gone], rl[gone])
                    if done.all():
                        settled = k1 - 1
                        break
                    keep = np.flatnonzero(~done)
                    live, p_prev, ql, rl = live[keep], window[-1][keep], ql[keep], rl[keep]
                    pr, de = denoms.reshape(-1)[: 2 * sub * len(live)].reshape(2, sub, -1)
                    pr_rows, de_rows = list(pr), list(de)
                elif checkpointed:  # keep the block's last variance
                    ps[block + last] = p_prev
            if settled < n - 1:
                gains = cycle[0, (settled + 1) % 2], cycle[0, settled % 2]
                for x, gain in zip(xs[settled + 1 :], itertools.cycle(gains)):
                    subtract(x, x_prev, step)
                    multiply(gain, step, step)
                    add(x_prev, step, x)
                    x_prev = x
            if forward is not None:
                forward(lo, np.lib.stride_tricks.as_strided(xs, writeable=False))
            # Backward, in place: c = p_post[k] / p_prior[k+1], where
            # p_prior[k+1] = p_post[k] + q and x_prior[k+1] = x_post[k].
            if settled < n - 1:
                gains = cycle[1, n % 2], cycle[1, 1 - n % 2]  # step n - 2's first
                x_next = xs[n - 1]
                for x, gain in zip(xs[settled + 1 : n - 1][::-1], itertools.cycle(gains)):
                    subtract(x_next, x, step)
                    multiply(gain, step, step)
                    add(x, step, x)
                    x_next = x
            denoms[...] = qs  # as rows: against a 1-D q the adds are buffered
            top = min(settled + 1, n - 1)
            for b in range(last, -1, -1):
                k0 = starts[b]
                k1 = min(k0 + block, top)
                window, live, ql = windows[b]
                if checkpointed and b < last:
                    p_prior, denom = prior_rows[0], step  # free until the means
                    p_prev = ps[block + b - 1] if b else rs
                    for p in window:
                        add(p_prev, qs, p_prior)
                        add(p_prior, rs, denom)
                        multiply(rs, p_prior, p)
                        divide(p, denom, p)
                        p_prev = p
                for e in range(k1, k0, -sub):
                    s = max(e - sub, k0)
                    p, gains = window[s - k0 : e - k0], priors[: e - s]
                    pq = priors.reshape(-1)[: p.size].reshape(p.shape) if len(live) < m else gains
                    add(p, ql if len(live) < m else denoms[: e - s], pq)
                    divide(p, pq, p if len(live) < m else gains)  # packed: in place
                    if len(live) < m:
                        gains[::2], gains[1::2] = cycle[1, s % 2], cycle[1, 1 - s % 2]
                        gains[:, live] = p
                    x_next = xs[e]
                    for x, gain in zip(xs[s:e][::-1], prior_rows[e - s - 1 :: -1]):
                        subtract(x_next, x, step)
                        multiply(gain, step, step)
                        add(x, step, x)
                        x_next = x
            for j, lanes in pieces:  # r = 0 is the identity map
                for i in np.flatnonzero(rs[j : j + len(lanes)] == 0.0):
                    xs[:, j + i] = lanes[i]
            bad = _first_bad(xs, axis=0)
            if bad is not None:
                yield lo, xs[:, :bad]
                _finite(xs[:, bad])  # raises denoise_trace's "not finite" error
            yield lo, xs
    if stop < count:
        _check_variances(float(q[stop]), float(r[stop]))
