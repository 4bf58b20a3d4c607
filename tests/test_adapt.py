"""Noise-variance estimation and grid-search selection of the process noise."""

import math
import threading
import time
import warnings

import numpy as np
import pytest

from ascankit import adapt, metrics, rts
from ascankit.adapt import default_noise_window, default_q_grid, estimate_r, select_q
from ascankit.metrics import psnr
from ascankit.model import (
    DataError,
    InfinitePsnrError,
    NumericsError,
    RoiSpec,
    Trace,
    Volume,
)
from ascankit.rts import denoise_trace
from ascankit.synth import default_spec, synth_trace, synth_volume

ROI = RoiSpec(1408, 1664)


class TestEstimateR:
    def test_silent_window_gives_zero(self):
        assert estimate_r(Trace([0.0, 0.0, 0.0, 0.0], 1e-6), 4) == 0.0

    def test_alternating_unit_window_gives_one(self):
        assert estimate_r(Trace([1.0, -1.0, 1.0, -1.0], 1e-6), 4) == 1.0

    def test_recovers_gaussian_noise_variance(self):
        rng = np.random.default_rng(2024)
        samples = rng.normal(0.0, 0.3, size=10_000)
        r = estimate_r(Trace(samples, 1e-6), 10_000)
        assert abs(r - 0.09) <= 0.05 * 0.09

    def test_uses_only_the_head(self):
        trace = Trace([2.0, 2.0, 100.0, 100.0], 1e-6)
        assert estimate_r(trace, 2) == 4.0

    def test_window_of_one_is_first_sample_squared(self):
        assert estimate_r(Trace([-3.0, 9.0], 1e-6), 1) == 9.0

    @pytest.mark.parametrize("window", [0, -1, 5])
    def test_rejects_window_outside_trace(self, window):
        with pytest.raises(DataError, match="noise window"):
            estimate_r(Trace([1.0, 2.0, 3.0, 4.0], 1e-6), window)

    def test_scale_quadratic_for_power_of_two_factors(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(50)
        base = estimate_r(Trace(samples, 1e-6), 20)
        for alpha in (0.25, 2.0, 1024.0):
            scaled = estimate_r(Trace(samples * alpha, 1e-6), 20)
            assert scaled == alpha * alpha * base


class TestDefaultNoiseWindow:
    @pytest.mark.parametrize(
        "nt,expected",
        [(1, 1), (8, 8), (16, 16), (100, 16), (320, 16), (321, 17), (2048, 103)],
    )
    def test_five_percent_with_floor_and_cap(self, nt, expected):
        assert default_noise_window(nt) == expected

    def test_rejects_empty_trace_length(self):
        with pytest.raises(DataError):
            default_noise_window(0)


class TestDefaultQGrid:
    def test_spans_six_decades_below_the_anchor(self):
        grid = default_q_grid([4.0])
        assert grid.shape == (15,)
        assert grid[0] == pytest.approx(4e-6, rel=1e-12)
        assert grid[-1] == pytest.approx(4e-1, rel=1e-12)
        assert np.all(np.diff(grid) > 0)

    def test_anchors_to_the_median(self):
        assert np.array_equal(default_q_grid([100.0, 4.0, 1.0]), default_q_grid([4.0]))

    def test_rejects_empty_input(self):
        with pytest.raises(DataError):
            default_q_grid([])

    def test_zero_median_is_a_numerics_error(self):
        with pytest.raises(NumericsError, match="median"):
            default_q_grid([0.0, 0.0, 1.0])


def _example_volume():
    spec = default_spec(seed=42, noise_sigma=0.2)
    mask = {(x, y) for x in range(4) for y in range(4)}
    volume, _, _ = synth_volume(spec, 4, 4, mask)
    return volume


class TestSelectQ:
    def test_single_candidate_grid_is_final(self):
        volume = _example_volume()
        report = select_q(volume, [2.5e-4], n_sample=3, seed=1, roi=ROI)
        assert report.grid == (2.5e-4,)
        assert set(report.best_q_per_trace) == {2.5e-4}
        assert report.q_final == 2.5e-4

    def test_identical_traces_pick_identical_winners(self):
        part = synth_trace(default_spec(seed=3, noise_sigma=0.2))
        tiled = np.tile(part.trace.samples, 4)
        volume = Volume(nx=2, ny=2, nt=2048, dt=part.trace.dt, data=tiled)
        grid = np.geomspace(1e-6, 1e-2, 5)
        report = select_q(volume, grid, n_sample=4, seed=0, roi=ROI)
        assert len(set(report.best_q_per_trace)) == 1
        assert len(set(report.best_psnr_per_trace)) == 1

    def test_selection_is_deterministic_and_argmax_valid(self):
        volume = _example_volume()
        grid = np.geomspace(1e-6, 1e-1, 11)
        first = select_q(volume, grid, n_sample=8, seed=0, roi=ROI)
        second = select_q(volume, grid, n_sample=8, seed=0, roi=ROI)
        assert first.sampled_trace_ids == second.sampled_trace_ids
        assert first.best_q_per_trace == second.best_q_per_trace
        assert first.best_psnr_per_trace == second.best_psnr_per_trace
        assert first.q_final == second.q_final

        # Exhaustive check: every reported winner really is the strict argmax
        # of that trace's score curve, with ties keeping the lowest index.
        for (x, y), r, best_q, best_score in zip(
            first.sampled_trace_ids,
            first.r_per_trace,
            first.best_q_per_trace,
            first.best_psnr_per_trace,
        ):
            trace = volume.trace(x, y)
            scores = []
            for q_cand in first.grid:
                try:
                    scores.append(psnr(denoise_trace(trace, q_cand, r), ROI))
                except InfinitePsnrError:
                    scores.append(math.inf)
            winner = max(range(len(scores)), key=lambda i: (scores[i], -i))
            assert best_q == first.grid[winner]
            assert best_score == scores[winner]

    def test_final_value_is_mean_of_winners_within_grid_span(self):
        volume = _example_volume()
        grid = np.geomspace(1e-6, 1e-1, 11)
        report = select_q(volume, grid, n_sample=8, seed=0, roi=ROI)
        assert report.q_final == float(np.mean(report.best_q_per_trace))
        assert min(report.grid) <= report.q_final <= max(report.grid)
        assert all(q in report.grid for q in report.best_q_per_trace)

    def test_auto_grid_comes_from_sampled_noise(self):
        volume = _example_volume()
        report = select_q(volume, None, n_sample=8, seed=0, roi=ROI)
        want = default_q_grid(report.r_per_trace)
        assert report.grid == tuple(float(g) for g in want)

    def test_silent_trace_scores_unbounded_and_keeps_first_candidate(self):
        # An exactly silent trace denoises to itself with r = 0; its envelope
        # carries no power outside the roi, so every candidate's score is
        # +inf and the tie-break keeps the first grid entry.
        part = synth_trace(default_spec(seed=9, noise_sigma=0.2))
        data = np.concatenate([np.zeros(2048), part.trace.samples])
        volume = Volume(nx=1, ny=2, nt=2048, dt=part.trace.dt, data=data)
        grid = [1e-5, 1e-4, 1e-3]
        report = select_q(volume, grid, n_sample=2, seed=0, roi=ROI)
        silent = report.sampled_trace_ids.index((0, 0))
        assert report.best_psnr_per_trace[silent] == math.inf
        assert report.best_q_per_trace[silent] == 1e-5
        assert report.r_per_trace[silent] == 0.0

    @pytest.mark.parametrize("n_sample", [0, -2, 17])
    def test_rejects_sample_count_outside_volume(self, n_sample):
        with pytest.raises(DataError, match="n_sample"):
            select_q(_example_volume(), [1e-4], n_sample=n_sample, seed=0, roi=ROI)

    def test_overflowing_noise_power_raises_instead_of_skipping(self):
        samples = np.full(256, 1e-3)
        samples[100:200] = 1e200
        volume = Volume(nx=1, ny=1, nt=256, dt=1e-8, data=samples)
        with pytest.raises(NumericsError, match="noise power outside the roi overflows"):
            select_q(volume, [1e-4, 1e-2], n_sample=1, noise_window=16, roi=RoiSpec(30, 90))

    def test_rejects_empty_grid(self):
        with pytest.raises(DataError, match="non-empty"):
            select_q(_example_volume(), [], n_sample=2, seed=0, roi=ROI)

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_candidates(self, bad):
        with pytest.raises(DataError, match="grid"):
            select_q(_example_volume(), [1e-4, bad], n_sample=2, seed=0, roi=ROI)

    def test_rejects_roi_past_end_of_trace(self):
        with pytest.raises(DataError):
            select_q(
                _example_volume(),
                [1e-4],
                n_sample=2,
                seed=0,
                roi=RoiSpec(0, 4096),
            )


#: Samples per trace of the split sweeps below: 4 lanes an envelope block.
NT_SPLIT = 4096
ROI_SPLIT = RoiSpec(1000, 3000)
GRID_SPLIT = (1e-6, 1e-4, 1e-2)


def _sampled_volume(rows, seed=0):
    """A 1 x len(rows) volume whose traces ``select_q`` samples, with
    ``n_sample=len(rows)`` and ``seed``, in the order of ``rows``."""
    order = np.random.default_rng(seed).choice(len(rows), size=len(rows), replace=False)
    data = np.empty((len(rows), NT_SPLIT))
    data[order] = rows
    return Volume(nx=1, ny=len(rows), nt=NT_SPLIT, dt=1e-8, data=data), order.tolist()


def _rows(kinds):
    """Traces of ``NT_SPLIT`` samples: ``"noise"``, ``"silent"``, or ``"loud"``
    (noise whose envelope power outside ``ROI_SPLIT`` overflows)."""
    rng = np.random.default_rng(5)
    rows = []
    for kind in kinds:
        row = np.zeros(NT_SPLIT) if kind == "silent" else rng.normal(0.0, 0.1, NT_SPLIT)
        if kind == "loud":
            row[100:200] = 1e200
        rows.append(row)
    return rows


def _report_bits(report):
    floats = [*report.grid, *report.best_q_per_trace, report.q_final, *report.r_per_trace,
              *report.best_psnr_per_trace]
    return [float(v).hex() for v in floats], report.sampled_trace_ids


@pytest.fixture
def scored_by(monkeypatch):
    """Calls of ``adapt._lane_scores``: whether on the calling thread, the
    lanes given and what it returned; the calling thread's calls first."""
    calls = []
    lane_scores = adapt._lane_scores

    def spied(smoothed, roi):
        result = lane_scores(smoothed, roi)
        calls.append((threading.current_thread() is threading.main_thread(),
                      smoothed.shape[1], (list(result[0]), result[1])))
        calls.sort(key=lambda call: not call[0])  # stable: each thread's in order
        return result

    monkeypatch.setattr(adapt, "_lane_scores", spied)
    return calls


class TestSplitScores:
    """Above ``_SPLIT_SAMPLES`` a chunk's lanes are scored on two threads, the
    calling thread taking the first half of its envelope blocks: the report
    and the first error are those of one thread."""

    @pytest.fixture
    def split_all(self, monkeypatch):
        monkeypatch.setattr(adapt, "_SPLIT_SAMPLES", 1)

    def test_a_split_sweep_gives_the_one_thread_report_bit_for_bit(self, monkeypatch, scored_by):
        # 8 traces x 11 candidates of 2048 samples: 11 blocks of 8 lanes.
        volume, grid = _example_volume(), np.geomspace(1e-6, 1e-1, 11)
        threads = threading.active_count()
        monkeypatch.setattr(adapt, "_SPLIT_SAMPLES", 1 << 62)
        whole = select_q(volume, grid, n_sample=8, seed=0, roi=ROI)
        assert [call[:2] for call in scored_by] == [(True, 88)]
        monkeypatch.setattr(adapt, "_SPLIT_SAMPLES", 1)
        split = select_q(volume, grid, n_sample=8, seed=0, roi=ROI)
        assert [call[:2] for call in scored_by[1:]] == [(True, 48), (False, 40)]
        assert _report_bits(split) == _report_bits(whole)
        assert threading.active_count() == threads

    def test_unbounded_scores_are_inf_in_either_part(self, monkeypatch, scored_by, split_all):
        # 12 lanes in 3 blocks: the helper scores lanes 8-11, the third
        # trace's last candidate and the fourth trace's three.
        volume, order = _sampled_volume(_rows(["silent", "noise", "silent", "noise"]))
        split = select_q(volume, GRID_SPLIT, n_sample=4, noise_window=16, roi=ROI_SPLIT)
        (_, _, (mine, error)), (_, _, (theirs, their_error)) = scored_by
        assert (error, their_error) == (None, None)
        inf = [s == math.inf for s in mine + theirs]
        assert inf == [True] * 3 + [False] * 3 + [True] * 3 + [False] * 3
        assert (len(mine), theirs[0]) == (8, math.inf)
        monkeypatch.setattr(adapt, "_SPLIT_SAMPLES", 1 << 62)
        assert _report_bits(split) == _report_bits(
            select_q(volume, GRID_SPLIT, n_sample=4, noise_window=16, roi=ROI_SPLIT)
        )
        assert split.best_psnr_per_trace[0] == split.best_psnr_per_trace[2] == math.inf
        assert split.best_q_per_trace[0] == split.best_q_per_trace[2] == GRID_SPLIT[0]
        assert split.sampled_trace_ids == tuple((0, y) for y in order)

    @pytest.mark.parametrize(
        "loud, named",
        [((3,), 3), ((1, 3), 1), ((2,), 2)],
        ids=["helper-only", "both-parts", "across-the-split"],
    )
    def test_the_first_failing_lane_names_its_trace(self, scored_by, split_all, loud, named):
        kinds = ["loud" if i in loud else "noise" for i in range(4)]
        volume, order = _sampled_volume(_rows(kinds))
        threads = threading.active_count()
        with pytest.raises(NumericsError) as exc:
            select_q(volume, GRID_SPLIT, n_sample=4, noise_window=16, roi=ROI_SPLIT)
        assert str(exc.value) == (
            f"trace (x=0, y={order[named]}): noise power outside the roi overflows"
        )
        assert [call[:2] for call in scored_by] == [(True, 8), (False, 4)]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("escaping", ["warning", "base"])
    def test_an_exception_that_escapes_the_helper_reaches_the_caller(
        self, monkeypatch, split_all, escaping
    ):
        class Interrupt(BaseException):
            pass

        hooked, lane_scores = [], adapt._lane_scores

        def raising(smoothed, roi):
            if threading.current_thread() is not threading.main_thread():
                if escaping == "base":
                    raise Interrupt
                warnings.warn_explicit("overflow encountered", RuntimeWarning, adapt.__file__, 1,
                                       module="ascankit.adapt")
            return lane_scores(smoothed, roi)

        monkeypatch.setattr(adapt, "_lane_scores", raising)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        volume, _ = _sampled_volume(_rows(["noise"] * 4))
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=RuntimeWarning, module="ascankit")
            with pytest.raises(Interrupt if escaping == "base" else RuntimeWarning):
                select_q(volume, GRID_SPLIT, n_sample=4, noise_window=16, roi=ROI_SPLIT)
        assert (hooked, threading.active_count()) == ([], threads)

    def test_the_helper_has_ended_when_the_caller_raises(self, monkeypatch, split_all):
        class Interrupt(BaseException):
            pass

        raised, finished, lane_scores = threading.Event(), [], adapt._lane_scores

        def interrupted(smoothed, roi):
            if threading.current_thread() is threading.main_thread():
                raised.set()
                raise Interrupt
            assert raised.wait(10)
            time.sleep(0.05)  # still scoring when the caller's error leaves it
            finished.append(lane_scores(smoothed, roi))
            return finished[-1]

        monkeypatch.setattr(adapt, "_lane_scores", interrupted)
        volume, _ = _sampled_volume(_rows(["noise"] * 4))
        threads = threading.active_count()
        with pytest.raises(Interrupt):
            select_q(volume, GRID_SPLIT, n_sample=4, noise_window=16, roi=ROI_SPLIT)
        assert (len(finished), threading.active_count()) == (1, threads)


class TestSplitPlacement:
    """Like ``TestDefaultCap``: which of the benchmark's sweep chunks split."""

    def test_the_long_sweep_splits_at_half_its_blocks(self):
        # The q sweep of 8 traces of 4096 samples on a 15-point grid is one
        # chunk of 30 blocks of 4 lanes.
        assert rts._chunk_width(8 * 15, 4096) == 120
        assert metrics._block_traces(120, 4096) == 4
        assert adapt._helper_lane(120, 4096) == 60

    def test_the_wide_volumes_sweep_does_not_split(self):
        # 4 traces of 1024 samples on a 15-point grid: 4 blocks of 16 lanes.
        assert adapt._helper_lane(60, 1024) == 60

    @pytest.mark.parametrize("count, n, first", [(5, 1 << 17, 3), (1, 1 << 20, 1), (9, 1 << 15, 5)])
    def test_the_caller_takes_the_larger_half_of_the_blocks(self, count, n, first):
        assert adapt._helper_lane(count, n) == first
