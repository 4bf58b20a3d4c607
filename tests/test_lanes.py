"""The lane-batched Kalman/RTS kernel and the callers built on it.

The kernel must reproduce ``denoise_trace`` bit for bit on every lane, and
``select_q`` and ``pipeline_denoise`` must reproduce their per-trace loops
(kept in ``oracles``) exactly: the same report, the same bytes, the same
first error naming the same trace.  Each caller is checked with the default
workspace (one chunk here) and with a cap small enough to force many chunks.
"""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascankit import rts
from ascankit.adapt import select_q
from ascankit.baseline import pipeline_denoise
from ascankit.model import DataError, NumericsError, RoiSpec, Trace, Volume
from ascankit.rts import _lane_ok, _smooth_lanes, denoise_trace
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


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _lanes_per_chunk(lanes):
    """Cap the kernel's workspace at ``lanes`` lanes of length ``NT``; with
    ``None``, keep the default cap, which holds every lane used here."""
    if lanes is None:
        return contextlib.nullcontext()
    return mock.patch.object(rts, "_LANE_BYTES", lanes * 2 * 8 * NT)


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
        n = rows.shape[1]
        chunks, views = [], []
        with mock.patch.object(rts, "_LANE_BYTES", width * 2 * 8 * n):
            for lo, smoothed in _smooth_lanes(list(rows), qs, rs):
                chunks.append((lo, smoothed.copy()))
                views.append(smoothed)
        assert [lo for lo, _ in chunks] == list(range(0, len(rows), width))
        assert all(smoothed.shape == (n, min(width, len(rows) - lo)) for lo, smoothed in chunks)
        assert all(np.shares_memory(views[0], later) for later in views)  # one workspace
        for lo, smoothed in chunks:
            for j in range(smoothed.shape[1]):
                lane = lo + j
                want = denoise_trace(Trace(rows[lane], 1e-6), qs[lane], rs[lane]).samples
                assert np.array_equal(_bits(smoothed[:, j]), _bits(want)), lane

    def test_negative_zero_first_sample_comes_out_positive(self):
        rows = [np.array([-0.0, -0.0, -0.0]), np.array([-0.0])]
        (lo, smoothed), = _smooth_lanes(rows[:1], np.array([1.0]), np.array([1.0]))
        want = denoise_trace(Trace(rows[0], 1e-6), 1.0, 1.0).samples
        assert np.array_equal(_bits(smoothed[:, 0]), _bits(want))
        assert not np.signbit(smoothed[:, 0]).any()
        (lo, smoothed), = _smooth_lanes(rows[1:], np.array([1.0]), np.array([0.0]))
        assert np.signbit(smoothed[0, 0])  # r = 0 copies the sample through

    def test_no_lanes_yields_nothing(self):
        assert list(_smooth_lanes([], np.array([]), np.array([]))) == []

    @pytest.mark.parametrize(
        "q", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    @pytest.mark.parametrize(
        "r", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    def test_takes_exactly_the_variances_denoise_trace_accepts(self, q, r):
        # Accepted variances can still overflow into a non-finite result,
        # which both paths reject when they build the output trace.
        try:
            denoise_trace(Trace([1.0, -2.0, 0.5], 1e-6), q, r)
        except DataError as exc:
            accepted = "variance" not in str(exc)
        else:
            accepted = True
        assert _lane_ok(q, r) == accepted


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

    def test_infinite_median_r_is_the_scalar_numerics_error(self):
        volume = Volume.from_grid(np.tile(_loud_head(), (2, 2, 1)), 1e-8)
        kwargs = dict(n_sample=4, seed=0, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        assert issubclass(want[0], NumericsError)
        assert _error(select_q, volume, **kwargs) == want


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
