"""The lane-batched Kalman/RTS kernel and the callers built on it.

The kernel must reproduce ``denoise_trace`` bit for bit on every lane, and
``select_q`` and ``pipeline_denoise`` must reproduce their per-trace loops
(kept in ``oracles``) exactly: the same report, the same bytes, the same
first error naming the same trace.  Each caller is checked with the default
workspace (one chunk here) and with a cap small enough to force many chunks.

The kernel has two paths: the compiled ``_lanes.c`` where ``rts._library``
builds it, and the numpy recursion otherwise.  Every bit-for-bit test runs on
both (the ``kernel`` fixture).
"""

import contextlib
import ctypes
import dataclasses
import math
import os
import shutil
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascankit import metrics, rts
from ascankit.adapt import select_q
from ascankit.baseline import pipeline_denoise
from ascankit.kalman import kf_filter, random_walk_params
from ascankit.model import DataError, NumericsError, RoiSpec, Trace, Volume
from ascankit.rts import _smooth_lanes, denoise_trace
from ascankit.synth import default_spec, synth_volume
from oracles import scalar_denoised_volume, scalar_select_q

NT = 256
ROI = RoiSpec(100, 180)
GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

LOG_VARIANCE = st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e)
SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request):
    """Runs a test on the compiled kernel, where it builds, and on the numpy
    fallback, forced as a machine without a compiler would force it."""
    if request.param == "numpy":
        with mock.patch.object(rts, "_library", lambda: None):
            yield request.param
    elif rts._library() is None:
        pytest.skip("the compiled lane kernel does not build here")
    else:
        yield request.param


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _lane_bytes(n):
    """What a lane of ``n`` samples costs the kernel's workspace by its sizing
    rule: its means, its variances, and 4 values of a step's scratch."""
    return 8 * (2 * n + 4)


def _cap(nbytes):
    return mock.patch.object(rts, "_LANE_BYTES", nbytes)


def _lanes_per_chunk(lanes):
    """Cap the kernel's workspace at ``lanes`` lanes of length ``NT``; with
    ``None``, keep the default cap, which holds every lane used here."""
    if lanes is None:
        return contextlib.nullcontext()
    return _cap(lanes * _lane_bytes(NT))


def _chunks(rows, qs, rs):
    """Run the kernel on ``rows`` as three blocks (some may be empty), and
    check that its chunks are the fewest that fit the cap, all as wide as the
    first but the last; return copies of them."""
    count, n = len(rows), len(rows[0])
    width = rts._chunk_width(count, n)
    fewest = math.ceil(count / max(1, rts._LANE_BYTES // _lane_bytes(n)))
    chunks, views = [], []
    for lo, smoothed in _smooth_lanes(np.array_split(np.asarray(rows), 3), qs, rs):
        chunks.append((lo, smoothed.copy()))
        views.append(smoothed)
    assert [lo for lo, _ in chunks] == list(range(0, count, width))
    assert len(chunks) == fewest and width == math.ceil(count / fewest)
    assert all(smoothed.shape == (n, min(width, count - lo)) for lo, smoothed in chunks)
    assert all(np.shares_memory(views[0], later) for later in views)  # one workspace
    return chunks


def _assert_denoised(rows, qs, rs, chunks):
    for lo, smoothed in chunks:
        for j, got in enumerate(smoothed.T):
            want = denoise_trace(Trace(rows[lo + j], 1e-6), qs[lo + j], rs[lo + j])
            assert np.array_equal(_bits(got), _bits(want.samples)), lo + j


def _scan(seed: int, nx: int = 3, ny: int = 3) -> Volume:
    spec = default_spec(seed=seed, nt=NT, pulse_time_s=1.25e-6, noise_sigma=0.05)
    mask = {(x, y) for x in range(nx) for y in range(ny) if (x + y) % 2 == 0}
    volume, _, _ = synth_volume(spec, nx, ny, mask)
    return volume


def _with_traces(volume: Volume, traces) -> Volume:
    """``volume`` with the traces at the given (x, y) replaced."""
    grid = volume.grid().copy()
    for (x, y), samples in traces.items():
        grid[x, y] = samples
    return Volume.from_grid(grid, volume.dt)


def _silent(volume: Volume) -> Volume:
    """A scan whose trace (1, 1) is all zeros, so its r is 0."""
    return _with_traces(volume, {(1, 1): np.zeros(NT)})


def _loud_head() -> np.ndarray:
    """A finite trace whose noise-window mean square overflows: r = inf."""
    samples = np.full(NT, 0.5)
    samples[:16] = 1e200
    return samples


def _overflowing() -> np.ndarray:
    """A finite trace with a quiet head whose filtered values overflow."""
    samples = np.full(NT, 1e-3)
    samples[32::2] = 1.7e308
    samples[33::2] = -1.7e308
    return samples


def _report_fields(report):
    return repr(dataclasses.astuple(report))


def _error(fn, *args, **kwargs):
    with pytest.raises((DataError, ArithmeticError)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


@pytest.mark.usefixtures("kernel")
class TestKernel:
    @st.composite
    def lane_sets(draw):
        n = draw(st.integers(min_value=1, max_value=24))
        count = draw(st.integers(min_value=1, max_value=7))
        rows = np.array(
            [draw(st.lists(SAMPLE, min_size=n, max_size=n)) for _ in range(count)]
        )
        qs = np.array([draw(LOG_VARIANCE) for _ in range(count)])
        rs = np.array([draw(st.one_of(st.just(0.0), LOG_VARIANCE)) for _ in range(count)])
        width = draw(st.integers(min_value=1, max_value=count))
        return rows, qs, rs, width

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lane_sets())
    def test_every_lane_matches_denoise_trace_bit_for_bit(self, lanes):
        rows, qs, rs, width = lanes
        with _cap(width * _lane_bytes(rows.shape[1])):
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    def test_negative_zero_first_sample_comes_out_positive(self):
        rows = [np.array([[-0.0, -0.0, -0.0]]), np.array([[-0.0]])]
        (lo, smoothed), = _smooth_lanes(rows[:1], np.array([1.0]), np.array([1.0]))
        want = denoise_trace(Trace(rows[0][0], 1e-6), 1.0, 1.0).samples
        assert np.array_equal(_bits(smoothed[:, 0]), _bits(want))
        assert not np.signbit(smoothed[:, 0]).any()
        (lo, smoothed), = _smooth_lanes(rows[1:], np.array([1.0]), np.array([0.0]))
        assert np.signbit(smoothed[0, 0])  # r = 0 copies the sample through

    def test_a_lane_smoothed_to_all_positive_infinity_is_refused(self):
        # Overflow at the last step makes every smoothed sample of lane 1
        # +inf, and leaves the chunk's minimum finite.
        tail = np.zeros(64)
        tail[-2:] = [-1.7e308, 1.7e308]
        rows = np.array([np.linspace(0.0, 1.0, 64), tail, np.ones(64)])
        qs, rs = np.array([1.0, 1e6, 1.0]), np.ones(3)
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes([rows], qs, rs):
                chunks.append((lo, smoothed.copy()))

        assert _error(run) == _error(denoise_trace, Trace(tail, 1e-6), 1e6, 1.0)
        assert [(lo, smoothed.shape) for lo, smoothed in chunks] == [(0, (64, 1))]
        _assert_denoised(rows, qs, rs, chunks)

    def test_no_lanes_yields_nothing(self):
        assert list(_smooth_lanes([], np.array([]), np.array([]))) == []
        assert list(_smooth_lanes([np.ones((0, 3))] * 2, np.array([]), np.array([]))) == []

    def test_lanes_of_no_samples_yield_empty_chunks_and_refuse_bad_variances(self):
        rows = [np.ones((2, 0)), np.ones((1, 0))]
        qs, rs = np.ones(3), np.array([1.0, 0.0, 1.0])
        with _cap(2 * _lane_bytes(0)):
            assert [(lo, smoothed.shape) for lo, smoothed in _smooth_lanes(rows, qs, rs)] == [
                (0, (0, 2)), (2, (0, 1))
            ]
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes(rows, qs, np.array([1.0, 1.0, -1.0])):
                chunks.append((lo, smoothed.shape))

        assert _error(run) == (DataError, "measurement-noise variance r must be finite and >= 0")
        assert chunks == [(0, (0, 2))]

    def test_fewer_variances_than_lanes_are_refused_before_the_loop_reads_them(self):
        with pytest.raises(ValueError):
            list(_smooth_lanes([np.ones((3, 4))], np.ones(2), np.ones(2)))

    # Lanes in groups of 8 and a narrower last group, of one or two samples,
    # some with r = 0 and some starting at -0.0.
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_sample_lanes_match_denoise_trace_bit_for_bit(self, count, n):
        rng = np.random.default_rng(count * n)
        rows = rng.standard_normal((count, n))
        rows[::3, 0] = -0.0
        qs = 10.0 ** rng.uniform(-6.0, 6.0, count)
        rs = np.where(np.arange(count) % 4 == 1, 0.0, 10.0 ** rng.uniform(-6.0, 6.0, count))
        _assert_denoised(rows, qs, rs, _chunks(rows, qs, rs))

    def test_a_lane_overflowing_in_a_short_last_group_is_refused_after_those_before_it(self):
        rows, qs, rs = _mixed_lanes(19, NT)
        rows[17], qs[17], rs[17] = _overflowing(), 3e-4, 1e-6
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes([rows], qs, rs):
                chunks.append((lo, smoothed.copy()))

        assert _error(run) == _error(denoise_trace, Trace(rows[17], 1e-6), qs[17], rs[17])
        assert [(lo, smoothed.shape) for lo, smoothed in chunks] == [(0, (NT, 17))]
        _assert_denoised(rows, qs, rs, chunks)

    @pytest.mark.parametrize(
        "q", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    @pytest.mark.parametrize(
        "r", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    def test_takes_exactly_the_variances_denoise_trace_accepts(self, q, r):
        # Accepted variances can still overflow into a non-finite result,
        # which both paths refuse with the same error.
        rows = [np.array([[1.0, -2.0, 0.5]])]
        try:
            want = denoise_trace(Trace(rows[0][0], 1e-6), q, r).samples
        except DataError as exc:
            assert _error(list, _smooth_lanes(rows, np.array([q]), np.array([r]))) == (
                DataError, str(exc)
            )
        else:
            (lo, smoothed), = _smooth_lanes(rows, np.array([q]), np.array([r]))
            assert np.array_equal(_bits(smoothed[:, 0]), _bits(want))


#: (q, r) of lanes whose variances settle, in the scalar recursion, to a fixed
#: point (at steps 177 and 20), to a 2-cycle (at steps 167 and 101; in the
#: second both gains alternate too), at once (r = 0), or not within thousands
#: of steps (r/q = 1e12).
PERIOD_1 = [(1e-2, 1.0), (1.0, 1.0)]
PERIOD_2 = [(0.012, 1.0), (0.034, 1.0)]
SILENT = [(1e-3, 0.0)]
UNSETTLED = [(1e-12, 1.0)]
#: (q, r) pairs that lanes cycle through: both settle periods, r = 0 and a
#: lane that never settles.
MIXED = PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED


def _long_lanes(pairs, n, seed=0):
    rows = np.random.default_rng(seed).standard_normal((len(pairs), n)).cumsum(axis=1)
    qs, rs = (np.array(values) for values in zip(*pairs))
    return rows, qs, rs


def _mixed_lanes(count, n, seed=0):
    return _long_lanes((MIXED * count)[:count], n, seed=seed)


def _settle_step(q, r, n):
    """The first step k >= 2 at which the scalar filter's posterior variance
    repeats the one of step k - 2 bit for bit, or None within ``n`` steps."""
    trace = Trace(np.zeros(n), 1e-6)
    p_post = _bits(kf_filter(trace, random_walk_params(trace, q, r)).p_post)
    hits = np.flatnonzero(p_post[2:] == p_post[:-2])
    return int(hits[0]) + 2 if len(hits) else None


def _smooth_checked(rows, qs, rs, width=None):
    """Run the kernel with a cap of ``width`` lanes (default: all), and check
    every lane against ``denoise_trace`` bit for bit."""
    with _cap((width or len(rows)) * _lane_bytes(rows.shape[1])):
        chunks = _chunks(rows, qs, rs)
    _assert_denoised(rows, qs, rs, chunks)


class TestSettledLanes:
    """Lanes long enough for their variances to settle in floating point, to
    a fixed point or a 2-cycle (the steady-state filter), which the short
    lanes of ``TestKernel`` never reach, beside lanes that settle at once
    (r = 0) or never."""

    # Every kind of lane, in one chunk and in chunks of two ([P1, P1],
    # [P2, P2], [r = 0, unsettled], [q = r]), at lengths on both sides of 128,
    # 256 and 1,024 steps; lanes that settle at steps 256 and 257, the last
    # step or the one before it; and three settled lanes beside an unsettled
    # one, at 263 and 264 steps.
    @pytest.mark.usefixtures("kernel")
    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize(
        "pairs, n",
        [(MIXED + [(1.0, 1.0)], n) for n in (127, 128, 129, 130, 255, 256, 257, 258,
                                              1024, 1025, 1026)]
        + [([(0.004883376234556759, 1.0)] * 2, 257), ([(0.004647425240565497, 1.0)] * 2, 258),
           ([(1e-2, 1.0)] * 3 + UNSETTLED, 263), ([(1e-2, 1.0)] * 3 + UNSETTLED, 264)],
    )
    def test_every_kind_of_lane_matches_denoise_trace_bit_for_bit(self, pairs, n, width):
        rows, qs, rs = _long_lanes(pairs, n, seed=n)
        _smooth_checked(rows, qs, rs, width)

    @st.composite
    def settling_lane_sets(draw, n=st.integers(min_value=100, max_value=1500)):
        n = draw(n)
        count = draw(st.integers(min_value=1, max_value=6))
        ratio = st.one_of(st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e),
                          st.just(1e-12))
        scale = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
        rs = np.array([draw(scale) for _ in range(count)])
        qs = np.array([draw(ratio) for _ in range(count)]) * rs
        rs[[draw(st.booleans()) for _ in range(count)]] = 0.0
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        rows = rng.standard_normal((count, n)) * draw(scale)
        return rows, qs, rs, draw(st.integers(min_value=1, max_value=count))

    @pytest.mark.usefixtures("kernel")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(settling_lane_sets())
    def test_long_lanes_match_denoise_trace_bit_for_bit(self, lanes):
        rows, qs, rs, width = lanes
        _smooth_checked(rows, qs, rs, width)

    @st.composite
    def phased_lanes(draw):
        """Up to four lanes whose slowest settles at step 230 to 547 (or
        not within 600 steps, counted as 600), and a length that ends one or
        two steps after that step, or any from 200 up to a few hundred steps
        past it."""
        exponents = [draw(st.floats(min_value=-3.0, max_value=-2.25))] + draw(
            st.lists(st.floats(min_value=-3.0, max_value=0.0), max_size=2)
        )
        rs = np.array([draw(st.sampled_from([1e-6, 1.0, 1e6])) for _ in exponents])
        qs = 10.0 ** np.array(exponents) * rs
        for i in range(1, len(rs)):
            rs[i] = draw(st.sampled_from([0.0, rs[i]]))
        # Most drawn lanes settle to a fixed point; a 2-cycle alternates gains.
        if draw(st.booleans()):
            q, r = draw(st.sampled_from(PERIOD_2))
            qs, rs = np.append(qs, q), np.append(rs, r)
        settle = max(_settle_step(q, r, 600) or 600 for q, r in zip(qs, rs))
        n = draw(st.one_of(
            st.integers(min_value=settle + 1, max_value=settle + 2),
            st.integers(min_value=200, max_value=settle + 428),
        ))
        return qs, rs, n

    @pytest.mark.usefixtures("kernel")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(phased_lanes())
    def test_the_settled_phase_is_denoise_trace_at_any_length(self, lanes):
        qs, rs, n = lanes
        rows = np.random.default_rng(n).standard_normal((len(qs), n)).cumsum(axis=1)
        _smooth_checked(rows, qs, rs)

    @st.composite
    def mixed_chunks(draw):
        """A chunk of 4 to 12 lanes: lanes with a fixed point, a 2-cycle,
        r = 0, or none within thousands of steps, and lanes of any drawn
        ratio; lengths of 128k + 1 and 128k + 2 among others, from 200 up."""
        count = draw(st.integers(min_value=4, max_value=12))
        known = st.sampled_from(MIXED)
        drawn = st.tuples(
            st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0**e), st.just(1.0)
        )
        pairs = [draw(st.one_of(known, drawn)) for _ in range(count)]
        scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
        n = draw(st.one_of(
            st.sampled_from([128 * k + j for k in range(2, 6) for j in (1, 2)]),
            st.integers(min_value=200, max_value=800),
        ))
        rows, qs, rs = _long_lanes(pairs, n, seed=draw(st.integers(0, 2**16)))
        return rows * scale, qs * scale, rs * scale

    @pytest.mark.usefixtures("kernel")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mixed_chunks())
    def test_chunks_of_mixed_lanes_match_denoise_trace_bit_for_bit(self, chunk):
        _smooth_checked(*chunk)

    def test_settled_prior_variance_is_the_closed_form(self):
        # The steady-state prior variance P solves P = P*r/(P + r) + q; the
        # slowest of these lanes settles at step 1,632.
        r = 2.5e-3
        trace = Trace(np.zeros(2048), 1e-6)
        for q in np.logspace(-4.0, 6.0, 41) * r:
            p_prior = kf_filter(trace, random_walk_params(trace, q, r)).p_prior
            closed = (q + math.sqrt(q * q + 4.0 * q * r)) / 2.0
            np.testing.assert_allclose(p_prior[-2:], closed, rtol=1e-12, atol=0.0)


@pytest.mark.usefixtures("kernel")
class TestCappedChunks:
    """Chunks sized by the workspace cap."""

    @pytest.mark.parametrize("cap", [None, 1])
    def test_no_accepted_lane_raises_the_first_lanes_error(self, cap):
        rows = [np.ones((2, 300))]
        qs, rs = np.array([1.0, 1.0]), np.array([-1.0, 1.0])
        want = _error(denoise_trace, Trace(rows[0][0], 1e-6), qs[0], rs[0])
        with _cap(cap or rts._LANE_BYTES):
            assert rts._chunk_width(0, 300) == 1
            assert _error(list, _smooth_lanes(rows, qs, rs)) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 128, 300])
    def test_lanes_over_the_cap_are_stored_one_a_chunk(self, n):
        rows, qs, rs = _long_lanes(PERIOD_1 + SILENT, n, seed=n)
        with _cap(1):
            assert rts._chunk_width(len(rows), n) == 1
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    @pytest.mark.parametrize("n", [2, 100, 128, 129])
    def test_lanes_that_fill_the_cap_are_one_chunk(self, n):
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT, n, seed=n)
        with _cap(len(rows) * _lane_bytes(n)):
            assert rts._chunk_width(len(rows), n) == len(rows)
            chunks = _chunks(rows, qs, rs)
        assert len(chunks) == 1
        _assert_denoised(rows, qs, rs, chunks)

    @st.composite
    def capped_lane_sets(draw):
        rows, qs, rs, _ = draw(TestSettledLanes.settling_lane_sets(
            n=st.one_of(st.integers(1, 130), st.integers(131, 700))
        ))
        full = len(rows) * _lane_bytes(rows.shape[1])
        return rows, qs, rs, draw(st.integers(min_value=1, max_value=full + full // 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(capped_lane_sets())
    def test_any_cap_gives_the_fewest_chunks_and_the_same_bits(self, lanes):
        rows, qs, rs, cap = lanes
        with _cap(cap):
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    # As many lanes as one chunk holds (None), or fewer.
    @pytest.mark.parametrize("count, n", [(None, 1), (None, 2), (None, 8), (None, 4096),
                                          (512, 1024)])
    def test_peak_allocation_stays_under_the_cap(self, count, n):
        count = count or rts._LANE_BYTES // _lane_bytes(n)
        rows = np.random.default_rng(n).standard_normal((count, n)).cumsum(axis=1)
        qs, rs = np.full(count, 1e-2), np.ones(count)
        assert rts._chunk_width(count, n) == count
        tracemalloc.start()
        try:
            for _ in _smooth_lanes([rows], qs, rs):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rts._LANE_BYTES + (64 << 10)


@pytest.mark.usefixtures("kernel")
class TestForwardHook:
    """The means the kernel hands its ``forward`` hook between its passes."""

    @staticmethod
    def _assert_forward(rows, qs, rs):
        """Check that the hook sees each chunk's ``kf_filter`` means, read-only,
        and that the kernel's output is the same bits with and without it."""
        seen = []

        def forward(lo, means):
            assert not means.flags.writeable
            seen.append((lo, means.copy()))

        plain = [(lo, smoothed.copy()) for lo, smoothed in _smooth_lanes([rows], qs, rs)]
        hooked = [(lo, sm.copy()) for lo, sm in _smooth_lanes([rows], qs, rs, forward=forward)]
        assert [lo for lo, _ in seen] == [lo for lo, _ in plain] == [lo for lo, _ in hooked]
        for (_, got), (_, want) in zip(hooked, plain):
            assert _bits(got).tolist() == _bits(want).tolist()
        for (lo, means), (_, smoothed) in zip(seen, plain):
            assert means.shape == smoothed.shape
            for j, got in enumerate(means.T):
                trace = Trace(rows[lo + j], 1e-6)
                params = random_walk_params(trace, qs[lo + j], rs[lo + j])
                assert np.array_equal(_bits(got), _bits(kf_filter(trace, params).x_post)), lo + j

    # Lanes that settle with either period, at once (r = 0) or never: one
    # chunk that never settles, or chunks [P1, P1, P2] (settles at step 255)
    # and [P2, r = 0, unsettled], or [P1, P1], [P2, P2] and [r = 0, unsettled].
    @pytest.mark.parametrize("width", [None, 3, 2])
    def test_the_hook_sees_the_kf_filter_means_and_changes_no_bit(self, width):
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED, 1024, seed=7)
        with _cap(width * _lane_bytes(1024) if width else rts._LANE_BYTES):
            assert rts._chunk_width(len(rows), 1024) == (width or 6)
            self._assert_forward(rows, qs, rs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(TestCappedChunks.capped_lane_sets())
    def test_the_hook_sees_the_kf_filter_means_at_any_cap(self, lanes):
        rows, qs, rs, cap = lanes
        with _cap(cap):
            self._assert_forward(rows, qs, rs)


@pytest.mark.usefixtures("kernel")
class TestSelectQMatchesScalarLoop:
    @pytest.mark.parametrize("lanes", [None, 3])
    @pytest.mark.parametrize("grid", [GRID, None])
    def test_report_is_identical(self, lanes, grid):
        volume = _silent(_scan(seed=31))
        kwargs = dict(grid=grid, n_sample=9, seed=5, noise_window=16, roi=ROI)
        want = scalar_select_q(volume, **kwargs)
        assert math.inf in want.best_psnr_per_trace  # the silent trace, r = 0
        with _lanes_per_chunk(lanes):
            got = select_q(volume, **kwargs)
        assert _report_fields(got) == _report_fields(want)

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_infinite_r_raises_the_scalar_error(self, lanes):
        volume = _with_traces(_scan(seed=32), {(0, 2): _loud_head(), (2, 1): _loud_head()})
        kwargs = dict(grid=GRID, n_sample=9, seed=1, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        assert want[0] is DataError and "measurement-noise variance r" in want[1]
        with _lanes_per_chunk(lanes):
            assert _error(select_q, volume, **kwargs) == want

    def test_overflowing_trace_raises_the_scalar_error(self):
        volume = _with_traces(_scan(seed=33), {(1, 0): _overflowing(), (2, 2): _loud_head()})
        kwargs = dict(grid=GRID, n_sample=9, seed=4, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        with _lanes_per_chunk(4):
            assert _error(select_q, volume, **kwargs) == want

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_overflowing_envelope_raises_the_scalar_error(self, lanes):
        # The smoothed lanes are finite, but their envelopes are not.
        huge = np.full(NT, 1e306)
        huge[:16] = 1e-3
        volume = _with_traces(_scan(seed=34), {(2, 1): huge})
        kwargs = dict(grid=GRID, n_sample=9, seed=2, noise_window=16, roi=ROI)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_select_q, volume, **kwargs)
            with _lanes_per_chunk(lanes):
                assert _error(select_q, volume, **kwargs) == want
        assert want == (DataError, "trace (x=2, y=1): trace sample 0 is not finite")

    def test_infinite_median_r_is_the_scalar_numerics_error(self):
        volume = Volume.from_grid(np.tile(_loud_head(), (2, 2, 1)), 1e-8)
        kwargs = dict(n_sample=4, seed=0, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        assert issubclass(want[0], NumericsError)
        assert _error(select_q, volume, **kwargs) == want


@pytest.mark.usefixtures("kernel")
class TestPipelineMatchesScalarLoop:
    @pytest.mark.parametrize("lanes", [None, 4])
    @pytest.mark.parametrize("with_background", [False, True])
    def test_data_is_byte_equal(self, lanes, with_background):
        volume = _silent(_scan(seed=41))
        background = _scan(seed=42) if with_background else None
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        with _lanes_per_chunk(lanes):
            got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("q", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_q_raises_the_scalar_error_at_the_first_trace(self, q):
        volume = _scan(seed=43)
        want = _error(scalar_denoised_volume, volume, None, q, 16)
        assert want[1].startswith("trace (x=0, y=0): process-noise variance q")
        assert _error(pipeline_denoise, volume, None, q, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_infinite_r_raises_the_scalar_error(self, lanes):
        volume = _with_traces(_scan(seed=44), {(1, 2): _loud_head(), (2, 0): _loud_head()})
        want = _error(scalar_denoised_volume, volume, None, 3e-4, 16)
        assert want == (
            DataError,
            "trace (x=1, y=2): measurement-noise variance r must be finite and >= 0",
        )
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, None, 3e-4, noise_window=16) == want

    def test_infinite_background_r_names_the_background_trace(self):
        volume = _scan(seed=45)
        background = _with_traces(_scan(seed=46), {(0, 1): _loud_head()})
        want = _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        assert want[1].startswith("trace (x=0, y=1): measurement-noise")
        with _lanes_per_chunk(4):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 2])
    def test_overflow_before_an_infinite_r_is_the_first_error(self, lanes):
        volume = _with_traces(_scan(seed=47), {(0, 2): _overflowing(), (1, 0): _loud_head()})
        want = _error(scalar_denoised_volume, volume, None, 3e-4, 16)
        assert want[1].startswith("trace (x=0, y=2): trace sample")
        assert want[1].endswith("is not finite")
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, None, 3e-4, noise_window=16) == want


class TestDefaultCap:
    # The benchmark's kernel calls each run as one chunk: the q sweeps of 8
    # traces of 4096 samples and of 4 of 1024 on a 15-point grid, and the
    # volume pipelines of a 4 x 2 x 4096 scan and a 16 x 16 x 1024 one with
    # their backgrounds and of a 32 x 24 x 256 scan.  The corpus's q sweeps
    # of 32 traces on a 15-point grid, and the kernel runs over impulse-heavy's
    # and skew-dense's masked traces and their backgrounds, split.
    @pytest.mark.parametrize(
        "count, n, width",
        [(120, 4096, 120), (16, 4096, 16), (512, 1024, 512), (60, 1024, 60), (768, 256, 768),
         (480, 32768, 30), (64, 32768, 22), (480, 8192, 120), (280, 8192, 94)],
    )
    def test_the_benchmark_and_corpus_shapes_keep_their_chunk_widths(self, count, n, width):
        assert rts._chunk_width(count, n) == width

    # The benchmark's one-chunk volume pipelines and q sweeps, and a wide
    # chunk of 300 steps, with lanes of every kind; the first and the last
    # lane of each kind are checked.
    @pytest.mark.usefixtures("kernel")
    @pytest.mark.parametrize("count, n", [(512, 1024), (768, 256), (768, 300), (120, 4096),
                                          (60, 1024)])
    def test_the_benchmark_shapes_match_denoise_trace_bit_for_bit(self, count, n):
        rows, qs, rs = _mixed_lanes(count, n)
        (lo, smoothed), = _smooth_lanes([rows], qs, rs)
        picked = list(range(len(MIXED))) + list(range(count - len(MIXED), count))
        _assert_denoised(rows[picked], qs[picked], rs[picked], [(lo, smoothed[:, picked])])


@pytest.mark.usefixtures("kernel")
class TestTiles:
    """The kernel copies its lanes in, and ``pipeline_denoise`` and
    ``select_q`` copy them out, in tiles of ``rts._TILE`` lanes by
    ``rts._TILE`` steps: lane counts and lengths on both sides of a tile's
    edge, chunks that mix the volume's and the background's lanes, and a
    lane that fails in the middle of a tile."""

    @pytest.mark.parametrize(
        "count, n",
        [(1, 65), (63, 65), (64, 65), (65, 65), (513, 65),
         (65, 1), (65, 2), (65, 63), (65, 1024), (513, 1024)],
    )
    def test_every_lane_matches_denoise_trace_bit_for_bit(self, count, n):
        assert rts._TILE == 64
        rows, qs, rs = _mixed_lanes(count, n, seed=count + n)
        _assert_denoised(rows, qs, rs, _chunks(rows, qs, rs))

    @pytest.mark.parametrize("count, n", [(15, 4096), (7, 65), (70, 130), (1, 1)])
    def test_a_repeated_row_is_copied_as_the_tiles_copy_it(self, count, n):
        # select_q's lanes: one row broadcast over the grid, a first stride of 0.
        row = np.random.default_rng(n).standard_normal(n)
        src = np.broadcast_to(row, (count, n))
        assert src.strides[0] == 0
        got, want = np.empty((n, count)), np.empty((n, count))
        rts._transposed(got, src)
        rts._transposed(want, np.ascontiguousarray(src))
        assert got.tobytes() == want.tobytes() == np.repeat(row[:, None], count, axis=1).tobytes()

    def test_a_lane_that_overflows_mid_tile_raises_its_error_after_the_lanes_before_it(self):
        rows, qs, rs = _mixed_lanes(130, 64)
        rows[70], qs[70], rs[70] = _overflowing()[:64], 3e-4, 1e-6
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes(np.array_split(rows, 3), qs, rs):
                chunks.append((lo, smoothed.copy()))

        assert _error(run) == _error(denoise_trace, Trace(rows[70], 1e-6), qs[70], rs[70])
        assert [(lo, smoothed.shape) for lo, smoothed in chunks] == [(0, (64, 70))]
        _assert_denoised(rows, qs, rs, chunks)

    @pytest.mark.parametrize("lanes", [None, 70, 130])
    def test_chunks_that_mix_volume_and_background_lanes_are_byte_equal(self, lanes):
        # 100 traces and 100 background traces: one chunk, chunks of 67 (the
        # second holds both kinds, split mid-tile), or chunks of 100.
        volume = _silent(_scan(seed=51, nx=10, ny=10))
        background = _scan(seed=52, nx=10, ny=10)
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        with _lanes_per_chunk(lanes):
            got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    def test_background_lines_past_a_subtraction_strip_are_byte_equal(self):
        # pipeline_denoise subtracts the background in strips of _TILE lines
        # by 16 * _TILE steps: 70 traces of 1,100 samples cross both edges.
        rng = np.random.default_rng(58)
        volume = Volume.from_grid(rng.standard_normal((1, 70, 1100)), 1e-6)
        background = Volume.from_grid(rng.standard_normal((1, 70, 1100)) * 0.5, 1e-6)
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("lanes", [None, 67])
    @pytest.mark.parametrize(
        "volume_traces, background_traces",
        [
            ({(7, 0): _overflowing(), (9, 5): _loud_head()}, {}),  # lane 70
            ({}, {(2, 0): _overflowing(), (5, 1): _loud_head()}),  # lane 120
            ({(0, 3): _loud_head()}, {(0, 1): _overflowing()}),  # a volume lane first
        ],
    )
    def test_a_pipeline_lane_that_fails_mid_tile_is_the_scalar_error(
        self, lanes, volume_traces, background_traces
    ):
        volume = _with_traces(_scan(seed=53, nx=10, ny=10), volume_traces)
        background = _with_traces(_scan(seed=54, nx=10, ny=10), background_traces)
        want = _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        x, y = min(volume_traces or background_traces)
        assert want[1].startswith(f"trace (x={x}, y={y}): ")
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 67])
    @pytest.mark.parametrize(
        "differences, overflowing, named",
        [
            ([(3, 7)], (5, 0), (3, 7)),  # lanes 137 and 150
            ([(3, 7)], (2, 0), (2, 0)),  # lanes 137 and 120
            ([(6, 1), (3, 7)], None, (3, 7)),
        ],
    )
    def test_a_difference_that_overflows_mid_tile_is_checked_in_lane_order(
        self, lanes, differences, overflowing, named
    ):
        # Finite smoothed traces of opposite sign whose difference overflows,
        # and a background lane that the kernel refuses.
        loud = np.full(NT, 1e-3)
        loud[16:] = 1e308
        volume = _with_traces(_scan(seed=55, nx=10, ny=10), {xy: loud for xy in differences})
        backs = {xy: -loud for xy in differences}
        if overflowing is not None:
            backs[overflowing] = _overflowing()
        background = _with_traces(_scan(seed=56, nx=10, ny=10), backs)
        got = _error(pipeline_denoise, volume, background, 3e-4, noise_window=16)
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == got
        if named == overflowing:
            assert got == _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        else:
            assert got == (DataError, f"trace (x={named[0]}, y={named[1]}): "
                                      "trace sample 16 is not finite")

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("kind", ["silent", "loud head", "overflowing", "huge envelope"])
    def test_a_sweep_lane_that_fails_mid_tile_is_the_scalar_error(self, block, kind):
        # 9 sampled traces on the 15-point derived grid: the fifth trace's
        # lanes are 60 to 74, across the first tile's edge.
        volume = _scan(seed=57, nx=4, ny=4)
        kwargs = dict(n_sample=9, seed=6, noise_window=16, roi=ROI)
        fifth = np.random.default_rng(6).choice(16, size=9, replace=False)[4]
        huge = np.full(NT, 1e306)
        huge[:16] = 1e-3
        samples = {"silent": np.zeros(NT), "loud head": _loud_head(),
                   "overflowing": _overflowing(), "huge envelope": huge}[kind]
        volume = _with_traces(volume, {divmod(int(fifth), 4): samples})
        scoring = contextlib.nullcontext()
        if block is not None:
            scoring = mock.patch.object(metrics, "_ENVELOPE_SAMPLES", block * NT)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's huge envelope
            want = _outcome(scalar_select_q, volume, **kwargs)
        with scoring:
            assert _outcome(select_q, volume, **kwargs) == want
        if kind == "silent":
            assert want[0] == "report" and "inf" in want[1]
        else:
            x, y = divmod(int(fifth), 4)
            assert want[0] == "DataError" and want[1].startswith(f"trace (x={x}, y={y}): ")


def _outcome(fn, *args, **kwargs):
    """The fields of ``fn``'s report, or the name and message of its error."""
    try:
        return "report", _report_fields(fn(*args, **kwargs))
    except (DataError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.usefixtures("kernel")
class TestMemory:
    def test_pipeline_peak_is_the_output_and_the_kernel_workspace(self):
        # A cap that holds the volume's and the background's lanes with their
        # variances exactly: one chunk, whose workspace fills the cap.  The
        # bound is the output, the lanes' means and variances and a slack, a
        # quarter of the output, that covers the kernel's scratch and per-lane
        # vectors and numpy's buffers for the subtraction.
        volume, background = _scan(seed=58, nx=32, ny=32), _scan(seed=59, nx=32, ny=32)
        lanes = 2 * 32 * 32
        with _cap(lanes * _lane_bytes(NT)):
            assert rts._chunk_width(lanes, NT) == lanes
            tracemalloc.start()
            try:
                pipeline_denoise(volume, background, 3e-4, noise_window=16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            slack = volume.data.nbytes // 4
            assert peak <= volume.data.nbytes + lanes * 2 * 8 * NT + slack


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A cache directory of its own for ``rts._library``, which is built
    afresh in the test and again after it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    rts._library.cache_clear()
    yield tmp_path / "cache" / "ascankit"
    rts._library.cache_clear()


def _denoised_lanes():
    """Run the kernel on 19 mixed lanes of 300 samples, checked bit for bit."""
    rows, qs, rs = _mixed_lanes(19, 300, seed=19)
    _assert_denoised(rows, qs, rs, _chunks(rows, qs, rs))


class TestLibrary:
    """How ``rts._library`` builds, caches and loads the compiled kernel, and
    what runs where it cannot."""

    needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")

    @needs_cc
    def test_a_compiler_builds_the_library_and_the_kernel_takes_it(self, cache):
        library = rts._library()
        assert library is not None
        (built,) = os.listdir(cache)  # no partial file is left beside it
        assert built.startswith("_lanes-") and built.endswith(".so") and len(built) == 7 + 64 + 3
        calls = []

        def lanes_smooth(*args):
            calls.append(args[4:6])
            library.lanes_smooth(*args)

        with mock.patch.object(rts, "_library", lambda: mock.Mock(lanes_smooth=lanes_smooth)):
            with _cap(7 * _lane_bytes(300)):
                _denoised_lanes()
        assert calls == [(300, 7), (300, 7), (300, 5)]

    @needs_cc
    def test_a_second_process_loads_the_cached_library_without_compiling(self, cache):
        assert rts._library() is not None
        (built,) = cache.iterdir()
        before = built.stat()
        rts._library.cache_clear()
        with mock.patch.object(rts, "_built", mock.Mock(side_effect=AssertionError("compiled"))):
            assert rts._library() is not None
        after = built.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        _denoised_lanes()

    @pytest.mark.parametrize("case", ["no cc", "a failing cc", "a cache that is a file",
                                      "a read-only cache"])
    def test_without_a_library_the_numpy_recursion_runs_silently(
        self, case, cache, tmp_path, monkeypatch, capfd
    ):
        if case == "no cc":
            (tmp_path / "bin").mkdir()
            monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        elif case == "a failing cc":
            (tmp_path / "bin").mkdir()
            (tmp_path / "bin" / "cc").write_text("#!/bin/sh\necho 'cc: no' >&2\nexit 1\n")
            (tmp_path / "bin" / "cc").chmod(0o755)
            monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        elif case == "a cache that is a file":
            cache.parent.write_text("")
        else:
            cache.parent.mkdir()
            cache.parent.chmod(0o500)
            if os.access(cache.parent, os.W_OK):
                pytest.skip("this user can write to a read-only directory")
        capfd.readouterr()
        assert rts._library() is None
        with mock.patch.object(rts, "_numpy_passes", wraps=rts._numpy_passes) as fallback:
            _denoised_lanes()  # denoise_trace's bits
        assert fallback.call_count == 1
        assert capfd.readouterr() == ("", "")
        if case == "a failing cc":
            assert os.listdir(cache) == []  # the failed build's file is removed

    @needs_cc
    def test_another_thread_runs_python_during_a_kernel_call(self, cache):
        # Lanes that take milliseconds: a thread records the time, over and
        # over, while this one calls the kernel.  Some of its times fall
        # inside the call as ctypes.CDLL, which releases the GIL, makes it;
        # none as ctypes.PyDLL, which holds it, makes the same call.  The
        # thread hands the GIL back at every step, and a long switch
        # interval keeps it from taking the GIL before the call.
        library = rts._library()
        n, m = 1 << 17, 8
        xs = np.random.default_rng(0).standard_normal((n, m)).cumsum(axis=0)
        variances, qs, rs = np.empty(8 * n), np.full(m, 1e-3), np.ones(m)
        args = [a.ctypes.data for a in (xs, variances, qs, rs)] + [n, m, None]
        holding = ctypes.PyDLL(library._name).lanes_smooth
        holding.argtypes, holding.restype = library.lanes_smooth.argtypes, None

        def inside(kernel):
            times, stop = [], threading.Event()

            def tick():
                while not stop.is_set():
                    times.append(time.perf_counter())
                    time.sleep(0)

            clock = threading.Thread(target=tick)
            clock.start()
            while not times:
                time.sleep(1e-3)
            start = time.perf_counter()
            kernel(*args)
            end = time.perf_counter()
            stop.set()
            clock.join()
            return sum(start < t < end for t in times)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            assert inside(holding) == 0
            assert any(inside(library.lanes_smooth) for _ in range(5))
        finally:
            sys.setswitchinterval(interval)
