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
which matches the scalar ``denoise_trace`` bit for bit on either of its two
paths.  Where a C compiler is found, it runs ``_lanes.c``, built on first use
(``_library``): one call per chunk does the whole recursion, 8 lanes at a
time, without the GIL.  Otherwise it runs the same recursion a step at a
time across the chunk's lanes in numpy calls, 8 a step forward and 5
backward, with the same bits; its workspace holds every step's means and
variances, where the compiled path's holds the means.  Lanes move between
their traces and the time-major workspace in square tiles, not one strided
column at a time (the blocked copies of Lam, Rothberg & Wolf, ASPLOS 1991).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import ctypes
import functools
import importlib
import math
import os
import platform
import sys

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

#: Cap, in bytes, on ``_smooth_lanes``' workspace: every step's means and
#: variances, and a step's scratch (``_chunk_width``).  At 16 MiB the
#: pipeline of a 16 x 16 x 1024 scan and its background is one chunk of 512
#: lanes, and a sweep of 120 lanes of 4,096 samples one of 120.  Against
#: 4 MiB, that raised ``denoise``'s peak RSS by 3.5 and 4.9 MB on those two
#: and left ``compare``'s where it was; corpus scoring went from 21.8 s to
#: 10.9-12.0 s (10.5 s at 32 MiB, 2 cores).
_LANE_BYTES = 16 << 20
#: Lanes and steps per tile of ``_transposed``'s copies.
_TILE = 64
#: How ``_library`` builds ``_lanes.c``.  Bit for bit with the scalar path:
#: no multiply-add fused and no -ffast-math (which would also set
#: flush-to-zero for the whole process), nor -march=native; -O3 vectorises a
#: group's lanes, which reorders no operation of a lane.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


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


@functools.cache
def _library() -> Optional[ctypes.CDLL]:
    """The compiled lane kernel, ``_lanes.c``'s ``lanes_smooth``, or None.

    It is built on the first call, not at import, with the ``cc`` on
    ``PATH`` into ``$XDG_CACHE_HOME/ascankit`` (default ``~/.cache/ascankit``),
    to a file named by the sha256 of the source, ``_CFLAGS`` and the
    platform, which later processes load.  The compiler writes a ``mkstemp`` file in that directory,
    renamed into place, so a concurrent or failed build leaves no partial
    library.  With no compiler, a cache that cannot be written, or a build or
    load that fails, it is None, silently, and ``_smooth_lanes`` runs its
    numpy recursion."""
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # unset, empty or relative: the default
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(cache):  # no home directory
        return None
    directory = os.path.join(cache, "ascankit")
    try:
        with open(os.path.join(os.path.dirname(__file__), "_lanes.c"), "rb") as file:
            source = file.read()
        # A home directory shared by machines of other kinds holds theirs too.
        built_for = f"{' '.join(_CFLAGS)} {sys.platform} {platform.machine()}"
        key = _sha256(source + b"\0" + built_for.encode())
        path = os.path.join(directory, f"_lanes-{key}.so")
        if not (os.path.exists(path) or _built(source, directory, path)):
            return None
        library = ctypes.CDLL(path)
    except OSError:
        return None
    pointer, size = ctypes.c_void_p, ctypes.c_size_t  # xs, ps, q, r, n, m, fwd
    library.lanes_smooth.argtypes = [pointer] * 4 + [size] * 2 + [pointer]
    library.lanes_smooth.restype = None
    return library


def _sha256(data: bytes) -> str:
    """The sha256 of ``data``, from CPython's own module where it has one:
    ``hashlib`` loads OpenSSL, 3.5 MB of resident memory in every process."""
    for name in ("_sha2", "_sha256"):  # Python 3.12 on; up to 3.11
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _built(source: bytes, directory: str, path: str) -> bool:
    """Whether ``cc`` compiled ``source`` to ``path``; what it prints is dropped."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return False
    os.makedirs(directory, mode=0o700, exist_ok=True)
    fd, partial = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", partial], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(partial, path)
        return True
    except subprocess.SubprocessError:  # a failed or hung build
        return False
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _chunk_width(stop: int, n: int) -> int:
    """Lanes per chunk for ``stop`` lanes of ``n`` samples: the fewest chunks
    under ``_LANE_BYTES``, at the narrowest equal width.  Every lane holds
    what ``_numpy_passes`` keeps of it: its means, its variances, a step's
    three scratch values and the previous step's mean."""
    lane = 8 * (2 * n + 4)
    chunks = max(1, -(-stop // max(1, _LANE_BYTES // lane)))
    return max(1, -(-stop // chunks))


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


def _first_bad(lanes: np.ndarray) -> Optional[int]:
    """The first row of ``lanes`` with a sample that is not finite, or None.
    Unlike ``np.isfinite(lanes)``, min and max need no temporary the size of
    ``lanes``."""
    if not lanes.size or (np.isfinite(lanes.min()) and np.isfinite(lanes.max())):
        return None
    return int(np.argmax(~np.isfinite(lanes.min(axis=1)) | ~np.isfinite(lanes.max(axis=1))))


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
    more (about 16 bytes a sample, so past about a million samples), that
    the next chunk overwrites.  Lanes come up to the first that
    ``denoise_trace`` refuses or whose result is not finite, and then that
    lane's ``denoise_trace`` error is raised.

    ``forward(lo, means)``, if given, is called between a chunk's two passes
    with a read-only view: ``means[:, j]`` is ``kf_filter``'s ``x_post`` of
    lane ``lo + j`` bit for bit, also where ``r`` is 0.

    Each chunk's lanes are copied into the workspace, and its two passes run
    on the compiled kernel where ``_library`` has one (``_compiled_passes``)
    and otherwise on numpy (``_numpy_passes``); then the ``r = 0`` lanes are
    copied through and the first lane that is not finite is found.  Both
    passes give every element the IEEE operations of ``kf_filter`` and
    ``rts_smooth``, on the same operands and in their order; the model's
    unit ``f`` and ``h`` and zero ``gu`` are folded away, which changes no
    bit.  Chunks are as wide on both paths.
    """
    count = sum(len(block) for block in blocks)
    if count == 0:
        return
    # The lanes whose variances _check_variances accepts, up to the first refused.
    accepted = np.isfinite(q) & (q > 0.0) & np.isfinite(r) & (r >= 0.0)
    stop = count if accepted.all() else int(np.argmin(accepted))
    del accepted  # a byte a lane, which _chunk_width does not count
    n = blocks[0].shape[1]
    width = _chunk_width(stop, n)
    library = _library()
    # Time-major means: the input, until the passes overwrite it.
    x_buf = np.empty(n * width)
    if library is None:
        passes = _numpy_passes(n, width, forward)
    else:
        passes = _compiled_passes(library, n, width, forward)
    # Overflow gives inf or nan as it does for the scalar path's Python
    # floats, silently; such a lane is refused below.
    with np.errstate(all="ignore"):
        for lo in range(0, stop, width):
            m = min(width, stop - lo)
            xs = x_buf[: n * m].reshape(n, m)
            qs, rs = q[lo : lo + m], r[lo : lo + m]
            pieces = _pieces(blocks, lo, lo + m)
            for j, lanes in pieces:
                _transposed(xs[:, j : j + len(lanes)], lanes)
            if n:  # a lane of no samples has no first one to start from
                passes(lo, xs, qs, rs)
            for j, lanes in pieces:  # r = 0 is the identity map
                for i in np.flatnonzero(rs[j : j + len(lanes)] == 0.0):
                    xs[:, j + i] = lanes[i]
            bad = _first_bad(xs.T)
            if bad is not None:
                yield lo, xs[:, :bad]
                _finite(xs[:, bad])  # raises denoise_trace's "not finite" error
            yield lo, xs
    if stop < count:
        _check_variances(float(q[stop]), float(r[stop]))


def _compiled_passes(library: ctypes.CDLL, n: int, width: int,
                     forward: Optional[Callable[[int, np.ndarray], None]]) -> Callable:
    """``_smooth_lanes``' two passes over a chunk of lanes of ``n`` samples in
    one call of ``_lanes.c``'s ``lanes_smooth``, which runs 8 lanes at a time
    with their posterior variances in an 8 x ``n`` scratch, and copies the
    forward means out only for ``forward``.  ctypes releases the GIL for the
    call."""
    variances = np.empty(8 * n)
    means = None if forward is None else np.empty(n * width)

    def passes(lo: int, xs: np.ndarray, qs: np.ndarray, rs: np.ndarray) -> None:
        m = xs.shape[1]
        qs, rs = (np.ascontiguousarray(v, dtype=np.float64) for v in (qs, rs))  # held for the call
        if qs.shape != (m,) or rs.shape != (m,):  # the C loop reads one of each a lane
            raise ValueError(f"{m} lanes need {m} values of q and of r")
        fwd = None if means is None else means[: n * m].reshape(n, m)
        library.lanes_smooth(xs.ctypes.data, variances.ctypes.data, qs.ctypes.data,
                             rs.ctypes.data, n, m, None if fwd is None else fwd.ctypes.data)
        if forward is not None:
            forward(lo, np.lib.stride_tricks.as_strided(fwd, writeable=False))

    return passes


def _numpy_passes(n: int, width: int,
                  forward: Optional[Callable[[int, np.ndarray], None]]) -> Callable:
    """``_smooth_lanes``' two passes over a chunk of lanes of ``n`` samples,
    a step at a time across the chunk's lanes: forward, 4 numpy calls for the
    posterior variance, 1 for the gain and 3 for the mean; backward, 2 for
    the gain ``p / (p + q)`` from the stored posterior variance and 3 for the
    mean.  Its workspace is every step's posterior variance and a step's
    prior variance (then gain), denominator and difference of means."""
    p_buf = np.empty(n * width)
    scratch_buf = np.empty(3 * width)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide

    def passes(lo: int, xs: np.ndarray, qs: np.ndarray, rs: np.ndarray) -> None:
        m = xs.shape[1]
        ps = p_buf[: n * m].reshape(n, m)
        gain, denom, step = scratch_buf[: 3 * m].reshape(3, m)
        # The filter starts from x0 = y[0] and p0 = r, and its first prior
        # mean is x0 + 0.0, which turns -0.0 into +0.0.  Every later prior
        # mean x_post + 0.0 is left at x_post: a posterior is a sum
        # x_prior + g*(y - x_prior) with x_prior != -0.0, and such a sum
        # is never -0.0, so the + 0.0 would change no bit.
        x_prev, p_prev = xs[0] + 0.0, rs
        for x, p in zip(xs, ps):
            add(p_prev, qs, gain)  # the prior variance
            add(gain, rs, denom)
            multiply(rs, gain, p)
            divide(p, denom, p)
            divide(gain, denom, gain)
            subtract(x, x_prev, step)
            multiply(gain, step, step)
            add(x_prev, step, x)
            x_prev, p_prev = x, p
        if forward is not None:
            forward(lo, np.lib.stride_tricks.as_strided(xs, writeable=False))
        # Backward, in place: c = p_post[k] / p_prior[k+1], where
        # p_prior[k+1] = p_post[k] + q and x_prior[k+1] = x_post[k].
        x_next = xs[n - 1]
        for x, p in zip(xs[-2::-1], ps[-2::-1]):
            add(p, qs, gain)
            divide(p, gain, gain)
            subtract(x_next, x, step)
            multiply(gain, step, step)
            add(x, step, x)
            x_next = x

    return passes
