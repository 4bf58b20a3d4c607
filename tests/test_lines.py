"""The scan-line forms of the FIR reference, the envelope, reconstruction and
PSNR scoring.

A volume's passes run one scan line (``grid[x]``, ny x nt) at a time.  Each
must match its per-trace form bit for bit (compared as ``uint64`` views) and
raise the per-trace loop's first error; the loops are kept in
``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascankit import cli
from ascankit.baseline import (
    LOWPASS_TAPS, _lowpassed, _taps, baseline_denoise, lowpass, pipeline_denoise,
)
from ascankit.bench import CorpusEntry, ZERO_STATS, measure_entry
from ascankit.io import format_csv, read_volume, write_volume
from ascankit.metrics import _envelopes, _psnrs, envelope, psnr, reconstruct
from ascankit.model import DataError, NumericsError, QSelectionReport, RoiSpec, Trace, Volume
from ascankit.synth import default_spec, synth_volume
from oracles import (
    scalar_baseline_denoise,
    scalar_compare_rows,
    scalar_metrics_rows,
    scalar_reconstruct,
    scalar_score,
)

DT = 1e-8
CUTOFF = 5e6
NT = 256
ROI = RoiSpec(100, 200)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _error(fn, *args, **kwargs):
    with pytest.raises((DataError, NumericsError)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


@st.composite
def grids(draw):
    """An (nx, ny, n) grid of samples: n = 2, odd and even n, and n on both
    sides of the low-pass's 3 * taps padding."""
    n = draw(
        st.one_of(
            st.sampled_from([2, 3, 3 * LOWPASS_TAPS, 3 * LOWPASS_TAPS + 1, 3 * LOWPASS_TAPS + 2]),
            st.integers(min_value=2, max_value=700),
        )
    )
    nx = draw(st.integers(min_value=1, max_value=3))
    ny = draw(st.integers(min_value=1, max_value=4))
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.standard_normal((nx, ny, n)) * scale


def _scan(seed: int, nx: int = 3, ny: int = 4) -> Volume:
    spec = default_spec(seed=seed, nt=NT, pulse_time_s=1.25e-6, noise_sigma=0.05)
    volume, _, _ = synth_volume(spec, nx, ny, {(x, y) for x in range(nx) for y in range(ny)})
    return volume


def _with_traces(volume: Volume, traces) -> Volume:
    """``volume`` with the traces at the given (x, y) replaced."""
    grid = volume.grid().copy()
    for (x, y), samples in traces.items():
        grid[x, y] = samples
    return Volume.from_grid(grid, volume.dt)


def _with_silent(volume: Volume, *traces) -> Volume:
    """``volume`` with the traces at the given (x, y) set to zero."""
    return _with_traces(volume, {xy: np.zeros(volume.nt) for xy in traces})


def _huge() -> np.ndarray:
    """A finite trace, quiet at its head, whose envelope is not finite: its
    sum, the spectrum's DC bin, overflows."""
    samples = np.full(NT, 1e306)
    samples[:16] = 1e-3
    return samples


def _bump(height: float) -> np.ndarray:
    samples = np.zeros(NT)
    samples[40:60] = height
    return samples


#: The low-pass's odd extension 2*x[0] - x[k] of this finite trace overflows, so
#: its low-pass is not finite from sample 0.
_EXTENSION_OVERFLOWS = np.r_[1e308, np.full(NT - 1, -1e308)]


class TestRowForms:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(grids())
    def test_row_envelope_is_the_per_trace_envelope(self, grid):
        nx, ny, _ = grid.shape
        for x in range(nx):
            rows = _envelopes(grid[x])
            for y in range(ny):
                want = envelope(Trace(grid[x, y], DT)).samples
                assert np.array_equal(_bits(rows[y]), _bits(want)), (x, y)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grids())
    def test_row_lowpass_is_the_per_trace_lowpass(self, grid):
        nx, ny, _ = grid.shape
        taps = _taps(CUTOFF, DT)
        for x in range(nx):
            line = np.empty_like(grid[x])
            _lowpassed(grid[x], taps, line)
            for y in range(ny):
                want = lowpass(Trace(grid[x, y], DT), CUTOFF).samples
                assert np.array_equal(_bits(line[y]), _bits(want)), (x, y)


def _until_error(scores):
    """The scores yielded before the first error, and that error's type and
    message (None if there is none)."""
    got = []
    try:
        for score in scores:
            got.append(score)
    except (DataError, NumericsError) as exc:
        return got, (type(exc), str(exc))
    return got, None


def _row(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A trace of NT samples whose score, on ROI, takes one of psnr's paths."""
    if kind == "ordinary":
        samples = rng.standard_normal(NT) * 10.0 ** rng.integers(-6, 7)
        samples[140:160] += 8.0 * samples.std()
        return samples
    if kind == "silent":  # zero noise power
        return np.zeros(NT)
    if kind == "loud outside":  # finite envelope, its energy outside ROI overflows
        samples = np.full(NT, 1e-3)
        samples[:60] = 1e200
        return samples
    if kind == "huge":  # finite samples, an envelope that is not
        return _huge()
    samples = np.zeros(NT)  # "peak ratio": the squared peak overflows
    samples[150:152] = 5e154
    samples[:100] += 1e-3
    return samples


def _envelope_row(kind: str, rng: np.random.Generator) -> np.ndarray:
    """An envelope of NT values on which ``_psnrs`` takes one of its paths."""
    env = np.abs(rng.standard_normal(NT)) * 10.0 ** rng.integers(-6, 7)
    at = int(rng.integers(0, NT))
    if kind == "silent outside":
        env[: ROI.t_lo] = env[ROI.t_hi :] = 0.0
    elif kind == "loud outside":
        env[ROI.t_hi :] = 1e200
    elif kind == "not finite":
        env[at] = (np.nan, np.inf)[at % 2]
    elif kind == "zero peak":
        env[ROI.t_lo : ROI.t_hi] = 0.0
    elif kind == "peak ratio over":
        env[:], env[ROI.t_lo + at % 100] = 1e-3, 1e160
    elif kind == "peak ratio under":
        env[:], env[ROI.t_lo : ROI.t_hi] = 1e150, 1e-200
    return env


ROW_KINDS = ("ordinary", "silent", "loud outside", "huge", "peak ratio")
ENVELOPE_KINDS = ("ordinary", "silent outside", "loud outside", "not finite", "zero peak",
                  "peak ratio over", "peak ratio under")


class TestLineScores:
    """``_psnrs`` scores a line's envelopes at once and must yield what a
    per-trace loop would, up to and including its first error."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(
            st.one_of(st.just("ordinary"), st.sampled_from(ROW_KINDS)), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_line_scores_are_the_per_trace_psnrs(self, kinds, seed):
        rng = np.random.default_rng(seed)
        rows = np.array([_row(kind, rng) for kind in kinds])
        with np.errstate(over="ignore", invalid="ignore"):  # the "huge" rows' envelopes
            want, want_error = _until_error(psnr(Trace(row, DT), ROI) for row in rows)
            reference = _until_error(scalar_score(_envelopes(row), ROI) for row in rows)
            got, got_error = _until_error(_psnrs(_envelopes(rows), ROI))
        assert np.array_equal(_bits(got), _bits(want))
        assert got_error == want_error
        assert np.array_equal(_bits(reference[0]), _bits(want)) and reference[1] == want_error

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(
            st.one_of(st.just("ordinary"), st.sampled_from(ENVELOPE_KINDS)),
            min_size=1, max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_line_scores_are_the_per_envelope_scores(self, kinds, seed):
        # Envelopes reach the paths that no trace's envelope can: a roi peak
        # of exactly zero, and a peak ratio that underflows.
        rng = np.random.default_rng(seed)
        envs = np.array([_envelope_row(kind, rng) for kind in kinds])
        want, want_error = _until_error(scalar_score(env, ROI) for env in envs)
        got, got_error = _until_error(_psnrs(envs, ROI))
        assert np.array_equal(_bits(got), _bits(want))
        assert got_error == want_error
        if "zero peak" in kinds[: len(want)]:
            assert -np.inf in want

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(
            st.one_of(st.just("ordinary"), st.sampled_from(ENVELOPE_KINDS)),
            min_size=2, max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fortran_ordered_envelopes_score_the_same_bits(self, kinds, seed):
        rng = np.random.default_rng(seed)
        envs = np.array([_envelope_row(kind, rng) for kind in kinds])
        got, got_error = _until_error(_psnrs(np.asfortranarray(envs), ROI))
        want, want_error = _until_error(_psnrs(envs, ROI))
        assert np.array_equal(_bits(got), _bits(want))
        assert got_error == want_error

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=4000),
        ny=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_vecdot_is_each_rows_dot_product(self, n, ny, seed):
        # _psnrs takes every row's noise power with one vecdot, and the
        # reference with one @ on a fresh array: they must agree bit for bit.
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.standard_normal((ny, n))) * 10.0 ** rng.integers(-150, 151)
        got = np.vecdot(rows, rows)
        assert np.array_equal(_bits(got), _bits([row @ row for row in rows]))
        assert np.array_equal(_bits(got), _bits([row.copy() @ row.copy() for row in rows]))


class TestVolumePassesMatchScalarLoops:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grids(), st.booleans())
    def test_baseline_denoise_is_byte_equal(self, grid, with_background):
        volume = Volume.from_grid(grid, DT)
        background = Volume.from_grid(grid[..., ::-1] * 0.5, DT) if with_background else None
        want = scalar_baseline_denoise(volume, background, CUTOFF)
        got = baseline_denoise(volume, background, CUTOFF)
        assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cutoff", [0.0, 6e7, float("nan")])
    def test_baseline_denoise_raises_the_scalar_error(self, cutoff):
        volume = _scan(seed=3)
        want = _error(scalar_baseline_denoise, volume, None, cutoff)
        assert "cutoff" in want[1]
        assert _error(baseline_denoise, volume, None, cutoff) == want

    @pytest.mark.parametrize(
        "volume_traces, background_traces, sample",
        [
            # The low-passed bumps are finite and their difference is not.
            # It comes at an earlier trace, or before the background's
            # trace, so it is the first error though at a later sample.
            ({(0, 2): _bump(1e308), (0, 3): _EXTENSION_OVERFLOWS}, {(0, 2): _bump(-1e308)}, 45),
            ({(1, 0): _bump(1e308)}, {(1, 0): _bump(-1e308), (1, 1): _EXTENSION_OVERFLOWS}, 45),
            ({(2, 1): _EXTENSION_OVERFLOWS}, None, 0),
            ({(2, 1): _EXTENSION_OVERFLOWS}, {}, 0),
        ],
    )
    def test_baseline_denoise_overflow_raises_the_scalar_error(
        self, volume_traces, background_traces, sample
    ):
        volume = _with_traces(_scan(seed=3), volume_traces)
        background = None if background_traces is None else _with_traces(
            _scan(seed=4), background_traces
        )
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_baseline_denoise, volume, background, CUTOFF)
            assert _error(baseline_denoise, volume, background, CUTOFF) == want
        x, y = min({**volume_traces, **(background_traces or {})})  # the first bad trace
        assert want == (DataError, f"trace (x={x}, y={y}): trace sample {sample} is not finite")

    def test_reconstruct_overflow_raises_the_scalar_error(self):
        volume = _with_traces(_scan(seed=3), {(1, 2): _huge()})
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_reconstruct, volume)
            assert _error(reconstruct, volume) == want
        assert want == (DataError, "trace (x=1, y=2): trace sample 0 is not finite")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grids())
    def test_reconstruct_is_byte_equal(self, grid):
        volume = Volume.from_grid(grid, DT)
        assert reconstruct(volume).pixels.tobytes() == scalar_reconstruct(volume).tobytes()

    def test_mean_gain_is_the_per_trace_mean(self):
        spec = default_spec(seed=9, nt=NT, pulse_time_s=1.25e-6)
        entry = CorpusEntry(
            name="lines", spec=spec, nx=3, ny=4,
            mask=frozenset({(0, 1), (0, 3), (2, 0), (2, 2), (2, 3)}),
            roi=ROI, lp_cutoff_hz=2e7, noise_window=32, q_grid=None, n_sample=4,
            expected=ZERO_STATS,
        )
        volume, background, _ = entry.generate()
        pipeline = pipeline_denoise(volume, background, 1e-3, noise_window=32)
        reference = baseline_denoise(volume, background, 2e7)
        gains = [
            psnr(pipeline.trace(x, y), ROI) - psnr(reference.trace(x, y), ROI)
            for x, y in sorted(entry.mask)
        ]
        report = QSelectionReport((1e-3,), ((0, 0),), (1e-3,), 1e-3, (1.0,), (0.0,))
        got = measure_entry(entry, volume, background, report).mean_gain_db
        assert np.array_equal(_bits(got), _bits(float(np.mean(gains))))


@pytest.fixture
def scan_file(tmp_path):
    path = tmp_path / "scan.pavol"
    write_volume(_scan(seed=5), str(path))
    return str(path)


def _compare_with(monkeypatch, tmp_path, scan_file, pipeline, reference):
    """Run ``ascankit compare`` with its two denoisers replaced by volumes."""
    monkeypatch.setattr(cli, "pipeline_denoise", lambda *args, **kwargs: pipeline)
    monkeypatch.setattr(cli, "baseline_denoise", lambda *args, **kwargs: reference)
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--input", scan_file, "--q", "1e-3", "--noise-window", "16",
                     "--roi", "100:200", "--output", str(out)])
    return code, out


class TestScoresMatchScalarLoops:
    def test_compare_report_is_byte_equal(self, monkeypatch, tmp_path, scan_file):
        pipeline, reference = _scan(seed=6), _scan(seed=7)
        code, out = _compare_with(monkeypatch, tmp_path, scan_file, pipeline, reference)
        assert code == 0
        want = format_csv(
            ("x", "y", "psnr_pipeline", "psnr_baseline", "gain_db"),
            scalar_compare_rows(pipeline, reference, ROI),
        )
        assert (out / "report.csv").read_text() == want

    @pytest.mark.parametrize(
        "silent_pipeline, silent_reference",
        [
            ([(1, 2)], [(1, 1)]),  # the baseline fails at an earlier trace
            ([(1, 1)], [(1, 1)]),  # both fail at one trace: the pipeline is first
            ([(2, 0)], [(1, 3)]),  # the earlier trace is on an earlier scan line
            ([(0, 3), (2, 2)], []),
        ],
    )
    def test_compare_names_the_scalar_loops_first_trace(
        self, monkeypatch, tmp_path, scan_file, capsys, silent_pipeline, silent_reference
    ):
        pipeline = _with_silent(_scan(seed=6), *silent_pipeline)
        reference = _with_silent(_scan(seed=7), *silent_reference)
        want = _error(scalar_compare_rows, pipeline, reference, ROI)
        code, out = _compare_with(monkeypatch, tmp_path, scan_file, pipeline, reference)
        assert code == 3
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pipeline_traces, reference_traces, code",
        [
            ({(1, 2): _huge()}, {}, 2),
            ({}, {(0, 3): _huge()}, 2),
            ({(1, 2): np.zeros(NT)}, {(1, 2): _huge()}, 3),  # the pipeline is first
            ({(2, 0): _huge()}, {(1, 1): np.zeros(NT)}, 3),
        ],
    )
    def test_compare_overflowing_envelope_is_the_scalar_error(
        self, monkeypatch, tmp_path, scan_file, capsys, pipeline_traces, reference_traces, code
    ):
        pipeline = _with_traces(_scan(seed=6), pipeline_traces)
        reference = _with_traces(_scan(seed=7), reference_traces)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_compare_rows, pipeline, reference, ROI)
            got = _compare_with(monkeypatch, tmp_path, scan_file, pipeline, reference)
        assert got == (code, tmp_path / "cmp")
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert not got[1].exists()

    def test_metrics_table_is_byte_equal(self, tmp_path, scan_file):
        out = tmp_path / "m.csv"
        assert cli.main(["metrics", "--input", scan_file, "--roi", "100:200",
                         "--output", str(out)]) == 0
        rows = scalar_metrics_rows(read_volume(scan_file), ROI, scan_file)
        assert out.read_text() == format_csv(("x", "y", "psnr"), rows)

    def test_metrics_names_the_scalar_loops_first_trace(self, tmp_path, capsys):
        volume = _with_silent(_scan(seed=8), (1, 3), (2, 1))
        path = tmp_path / "silent.pavol"
        write_volume(volume, str(path))
        want = _error(scalar_metrics_rows, volume, ROI, str(path))
        assert want[1].startswith(f"{path}: trace (x=1, y=3): ")
        out = tmp_path / "m.csv"
        code = cli.main(["metrics", "--input", str(path), "--roi", "100:200",
                         "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "traces, code",
        [({(1, 3): _huge(), (2, 1): np.zeros(NT)}, 2), ({(1, 1): np.zeros(NT), (1, 3): _huge()}, 3)],
    )
    def test_metrics_overflowing_envelope_is_the_scalar_error(self, tmp_path, capsys, traces, code):
        volume = _with_traces(_scan(seed=8), traces)
        path = tmp_path / "huge.pavol"
        write_volume(volume, str(path))
        out = tmp_path / "m.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_metrics_rows, volume, ROI, str(path))
            assert cli.main(["metrics", "--input", str(path), "--roi", "100:200",
                             "--output", str(out)]) == code
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert not out.exists()


class TestRoiIsCheckedFirst:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metrics", "--roi", "0:64"], "roi covers the whole trace; no noise region remains"),
            (["metrics", "--roi", "10:65"], "roi [10, 65) exceeds trace length 64"),
            (["compare", "--q", "1e-3", "--roi", "0:64"],
             "roi covers the whole trace; no noise region remains"),
            (["compare", "--q", "auto", "--roi", "0:100"], "roi [0, 100) exceeds trace length 64"),
            (["qselect", "--roi", "0:64"], "roi covers the whole trace; no noise region remains"),
            (["denoise", "--q", "auto", "--roi", "3:80"], "roi [3, 80) exceeds trace length 64"),
        ],
    )
    def test_bad_roi_is_one_line_and_writes_nothing(self, tmp_path, capsys, argv, message):
        path = tmp_path / "short.pavol"
        write_volume(Volume.from_grid(np.random.default_rng(0).standard_normal((2, 2, 64)), DT),
                     str(path))
        out = tmp_path / "out"
        code = cli.main(argv + ["--input", str(path), "--noise-window", "16",
                                "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()
