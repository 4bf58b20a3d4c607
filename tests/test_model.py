"""Domain-type construction, validation, and the errors they promise."""

import numpy as np
import pytest

from ascankit.model import (
    DataError,
    EnvelopeImage,
    FilterParams,
    FilterTrajectory,
    QSelectionReport,
    RoiSpec,
    Trace,
    Volume,
    validate_volume,
)


class TestTrace:
    def test_samples_become_readonly_float64(self):
        trace = Trace([1, 2, 3], 1e-6)
        assert trace.samples.dtype == np.float64
        assert not trace.samples.flags.writeable
        assert len(trace) == 3

    def test_source_array_mutation_does_not_leak_in(self):
        src = np.array([1.0, 2.0])
        trace = Trace(src, 1e-6)
        src[0] = 99.0
        assert trace.samples[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Trace([], 1e-6)

    def test_non_1d_rejected(self):
        with pytest.raises(DataError):
            Trace([[1.0, 2.0]], 1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_first_non_finite_index_named(self, bad):
        with pytest.raises(DataError, match="sample 2"):
            Trace([0.0, 1.0, bad, bad], 1e-6)

    @pytest.mark.parametrize("dt", [0.0, -1e-6, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(DataError):
            Trace([1.0], dt)


class TestVolume:
    def test_grid_round_trip(self):
        grid = np.arange(24.0).reshape(2, 3, 4)
        volume = Volume.from_grid(grid, 1e-6)
        assert (volume.nx, volume.ny, volume.nt) == (2, 3, 4)
        assert np.array_equal(volume.grid(), grid)

    def test_trace_slicing_is_x_major_t_fastest(self):
        grid = np.arange(24.0).reshape(2, 3, 4)
        volume = Volume.from_grid(grid, 1e-6)
        assert np.array_equal(volume.trace(1, 2).samples, grid[1, 2])
        assert np.array_equal(volume.data[:4], grid[0, 0])

    def test_trace_index_out_of_range(self):
        volume = Volume.from_grid(np.zeros((2, 2, 2)), 1e-6)
        with pytest.raises(DataError, match=r"\(2, 0\)"):
            volume.trace(2, 0)

    def test_from_grid_requires_3d(self):
        with pytest.raises(DataError):
            Volume.from_grid(np.zeros((2, 2)), 1e-6)

    def test_validate_length_mismatch(self):
        with pytest.raises(DataError, match="11"):
            Volume(nx=2, ny=2, nt=3, dt=1e-6, data=np.zeros(11))

    def test_validate_names_non_finite_coordinate(self):
        data = np.zeros(2 * 3 * 4)
        data[(1 * 3 + 2) * 4 + 1] = np.nan
        with pytest.raises(DataError, match=r"x=1, y=2, t=1"):
            Volume(nx=2, ny=3, nt=4, dt=1e-6, data=data)

    def test_source_array_mutation_does_not_leak_in(self):
        src = np.arange(8.0)
        volume = Volume(nx=2, ny=2, nt=2, dt=1e-6, data=src)
        src[0] = 99.0
        assert volume.data[0] == 0.0 and not volume.data.flags.writeable

    @pytest.mark.parametrize("owner", ["array", "bytearray"])
    def test_mutating_the_base_of_a_read_only_view_does_not_leak_in(self, owner):
        base = np.arange(8.0) if owner == "array" else bytearray(np.arange(8.0).tobytes())
        view = np.frombuffer(base, dtype=np.float64) if owner == "bytearray" else base[:]
        view.setflags(write=False)
        volume = Volume(nx=2, ny=2, nt=2, dt=1e-6, data=view)
        np.frombuffer(base, dtype=np.float64)[0] = 99.0
        assert view[0] == 99.0 and volume.data[0] == 0.0

    @pytest.mark.parametrize("maker", [
        lambda values: np.frombuffer(values.tobytes(), dtype=np.float64),
        lambda values: values.copy(),
    ], ids=["bytes", "owned"])
    def test_a_handed_over_array_is_not_copied(self, maker):
        data = maker(np.arange(8.0))
        data.setflags(write=False)
        volume = Volume(nx=2, ny=2, nt=2, dt=1e-6, data=data)
        assert np.shares_memory(volume.data, data)
        assert np.array_equal(volume.data, np.arange(8.0)) and not volume.data.flags.writeable

    @pytest.mark.parametrize("maker", [
        lambda values: values.astype(">f8"),
        lambda values: values.astype(np.float32),
        lambda values: np.asfortranarray(values.reshape(2, 2, 2)),
    ], ids=["big-endian", "f32", "fortran"])
    def test_other_read_only_arrays_are_copied_in_c_order(self, maker):
        data = maker(np.arange(8.0))
        data.setflags(write=False)
        volume = Volume(nx=2, ny=2, nt=2, dt=1e-6, data=data)
        assert not np.shares_memory(volume.data, data)
        assert np.array_equal(volume.data, np.ravel(data)) and volume.data.dtype == np.float64

    def test_validate_returns_volume(self):
        volume = Volume.from_grid(np.zeros((1, 1, 2)), 1e-6)
        assert validate_volume(volume) is volume


class TestFilterParams:
    def test_coerces_to_float(self):
        params = FilterParams(f=1, h=1, gu=0, q=1, r=2, x0=0, p0=3)
        assert isinstance(params.q, float) and params.q == 1.0

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            FilterParams(f=1, h=1, gu=0, q=-1e-9, r=1, x0=0, p0=0)

    def test_both_noises_zero_rejected(self):
        with pytest.raises(DataError):
            FilterParams(f=1, h=1, gu=0, q=0, r=0, x0=0, p0=1)

    def test_one_zero_noise_allowed(self):
        FilterParams(f=1, h=1, gu=0, q=0, r=1, x0=0, p0=0)
        FilterParams(f=1, h=1, gu=0, q=1, r=0, x0=0, p0=0)

    def test_negative_p0_rejected(self):
        with pytest.raises(DataError):
            FilterParams(f=1, h=1, gu=0, q=1, r=1, x0=0, p0=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            FilterParams(f=float("nan"), h=1, gu=0, q=1, r=1, x0=0, p0=0)


class TestFilterTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            FilterTrajectory(
                x_prior=[0.0], p_prior=[1.0], x_post=[0.0, 0.0], p_post=[1.0], gain=[0.5]
            )

    def test_negative_covariance_rejected(self):
        with pytest.raises(DataError):
            FilterTrajectory(
                x_prior=[0.0], p_prior=[-1.0], x_post=[0.0], p_post=[1.0], gain=[0.5]
            )

    def test_len(self):
        trajectory = FilterTrajectory(
            x_prior=[0.0, 1.0],
            p_prior=[1.0, 1.0],
            x_post=[0.0, 1.0],
            p_post=[0.5, 0.5],
            gain=[0.5, 0.5],
        )
        assert len(trajectory) == 2


class TestRoiSpec:
    def test_half_open_bounds(self):
        roi = RoiSpec(3, 10)
        assert (roi.t_lo, roi.t_hi) == (3, 10)
        assert roi.checked_for(10) is roi

    @pytest.mark.parametrize("lo,hi", [(5, 5), (5, 4), (-1, 3)])
    def test_degenerate_rejected(self, lo, hi):
        with pytest.raises(DataError):
            RoiSpec(lo, hi)

    def test_checked_for_overrun(self):
        with pytest.raises(DataError, match="9"):
            RoiSpec(0, 10).checked_for(9)


class TestQSelectionReport:
    def _kwargs(self, **overrides):
        base = dict(
            grid=(1e-9, 2e-9, 4e-9),
            sampled_trace_ids=((0, 0), (1, 2)),
            best_q_per_trace=(1e-9, 4e-9),
            q_final=2.5e-9,
            r_per_trace=(1e-8, 2e-8),
            best_psnr_per_trace=(30.0, 40.0),
        )
        base.update(overrides)
        return base

    def test_valid_report(self):
        report = QSelectionReport(**self._kwargs())
        assert report.q_final == 2.5e-9

    def test_best_must_come_from_grid(self):
        with pytest.raises(DataError):
            QSelectionReport(**self._kwargs(best_q_per_trace=(1e-9, 3e-9)))

    def test_q_final_must_be_the_mean(self):
        with pytest.raises(DataError):
            QSelectionReport(**self._kwargs(q_final=3e-9))

    def test_empty_grid_rejected(self):
        with pytest.raises(DataError):
            QSelectionReport(**self._kwargs(grid=()))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            QSelectionReport(**self._kwargs(r_per_trace=(1e-8,)))


class TestEnvelopeImage:
    def test_shape_must_match(self):
        with pytest.raises(DataError):
            EnvelopeImage(nx=2, ny=3, pixels=np.zeros((3, 2)))

    def test_negative_pixels_rejected(self):
        with pytest.raises(DataError):
            EnvelopeImage(nx=1, ny=1, pixels=[[-0.1]])

    def test_pixels_read_only(self):
        image = EnvelopeImage(nx=1, ny=2, pixels=[[0.0, 1.0]])
        assert not image.pixels.flags.writeable
