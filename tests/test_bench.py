"""Benchmark corpus: frozen definitions, manifests, and measured statistics.

The frozen numbers in the corpus are regression anchors: the deterministic
counts must reproduce bit-for-bit on every run, while the gain statistics
carry an explicit tolerance.  The manifest tests pin the on-disk definition
format the CLI exchanges with the library.
"""

import contextlib
import ctypes
import dataclasses
import glob
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import ascankit
from ascankit import baseline, kalman, rts
from ascankit.adapt import default_noise_window, estimate_r
from ascankit.bench import (
    CORPUS_VERSION,
    GAIN_TOLERANCE_DB,
    ZERO_STATS,
    CorpusEntry,
    ExpectedStats,
    bench_corpus,
    corpus_entry,
    format_manifest,
    measure_entry,
    parse_manifest,
)
from ascankit.model import DataError, QSelectionReport, RoiSpec
from ascankit.synth import SynthSpec, default_spec
from oracles import scalar_peak_alignment
from test_lanes import _lane_bytes

EXPECTED_NAMES = ["phantom-L", "two-stick", "skew-dense", "impulse-heavy", "noise-only"]

# name -> (nx, ny, pulse traces, roi bounds)
EXPECTED_SHAPES = {
    "phantom-L": (16, 8, 73, (117, 510)),
    "two-stick": (12, 10, 32, (819, 7026)),
    "skew-dense": (16, 12, 140, (819, 7330)),
    "impulse-heavy": (8, 4, 32, (3277, 28934)),
    "noise-only": (8, 6, 0, (117, 395)),
}


def _edit(manifest: str, key: str, value: str) -> str:
    """Replace the value of one manifest line, asserting the key exists."""
    lines = manifest.splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(f"{key}:")]
    assert len(hits) == 1, f"key {key!r} not unique in manifest"
    lines[hits[0]] = f"{key}: {value}"
    return "\n".join(lines) + "\n"


def _drop(manifest: str, key: str) -> str:
    lines = [l for l in manifest.splitlines() if not l.startswith(f"{key}:")]
    return "\n".join(lines) + "\n"


class TestCorpusDefinitions:
    def test_names_and_order_are_fixed(self):
        assert [e.name for e in bench_corpus()] == EXPECTED_NAMES

    def test_version_string_is_pinned(self):
        # Changing this invalidates every manifest already on disk, so a
        # deliberate bump has to update this test too.
        assert CORPUS_VERSION == "ascankit-bench-1"

    def test_lookup_returns_the_registered_object(self):
        for index, name in enumerate(EXPECTED_NAMES):
            assert corpus_entry(name) is bench_corpus()[index]

    def test_unknown_name_reports_the_known_ones(self):
        with pytest.raises(DataError, match=r"unknown corpus entry 'bogus'"):
            corpus_entry("bogus")
        try:
            corpus_entry("bogus")
        except DataError as exc:
            for name in EXPECTED_NAMES:
                assert name in str(exc)

    def test_grid_dimensions_and_mask_sizes(self):
        for entry in bench_corpus():
            nx, ny, n_pulse, roi = EXPECTED_SHAPES[entry.name]
            assert (entry.nx, entry.ny) == (nx, ny)
            assert len(entry.mask) == n_pulse
            assert entry.expected.n_pulse_traces == n_pulse
            assert (entry.roi.t_lo, entry.roi.t_hi) == roi

    def test_definitions_are_internally_consistent(self):
        for entry in bench_corpus():
            spec = entry.spec
            for x, y in entry.mask:
                assert 0 <= x < entry.nx and 0 <= y < entry.ny
            assert 0 <= entry.roi.t_lo < entry.roi.t_hi <= spec.nt
            assert entry.lp_cutoff_hz < 0.5 / spec.dt
            assert 0 < entry.n_sample <= entry.nx * entry.ny
            assert 0 < entry.window() <= spec.nt
            # The sampling window must end before the pulse arrives.
            assert entry.window() < spec.pulse_time_s / spec.dt

    def test_window_falls_back_to_the_length_default(self):
        for entry in bench_corpus():
            if entry.noise_window is None:
                assert entry.window() == default_noise_window(entry.spec.nt)
            else:
                assert entry.window() == entry.noise_window

    def test_grids_are_positive_ascending_and_bracket_the_answer(self):
        for entry in bench_corpus():
            if entry.q_grid is None:
                continue
            grid = entry.q_grid
            assert len(grid) == 15
            assert all(g > 0 for g in grid)
            assert all(a < b for a, b in zip(grid, grid[1:]))
            # q_final is a mean of grid members, so it lies inside the span.
            assert grid[0] <= entry.expected.q_final <= grid[-1]

    def test_pulse_entries_expect_positive_gain(self):
        for entry in bench_corpus():
            if entry.mask:
                assert entry.expected.mean_gain_db is not None
                assert entry.expected.mean_gain_db > 0.0
                assert entry.expected.clean_peak is not None
                assert 0 <= entry.expected.clean_peak < entry.spec.nt
            else:
                assert entry.expected.mean_gain_db is None
                assert entry.expected.clean_peak is None
                assert entry.expected.fwd_peak_late == 0
                assert entry.expected.smoothed_peak_aligned == 0

    def test_config_mirrors_the_entry(self):
        entry = corpus_entry("two-stick")
        config = entry.config()
        assert config.q == "auto"
        assert config.noise_window == 256
        assert (config.roi.t_lo, config.roi.t_hi) == (819, 7026)
        assert config.q_grid == entry.q_grid
        assert config.n_sample == entry.n_sample
        assert config.seed == entry.spec.seed
        assert config.lp_cutoff_hz == entry.lp_cutoff_hz
        assert config.background_path is None

    def test_config_spells_auto_for_defaulted_fields(self):
        config = corpus_entry("phantom-L").config()
        assert config.noise_window == "auto"
        noise_only = corpus_entry("noise-only").config()
        assert noise_only.q_grid is None


class TestManifest:
    def test_round_trip_restores_each_frozen_entry(self):
        for entry in bench_corpus():
            assert parse_manifest(format_manifest(entry)) is entry

    def test_edited_generator_seed_detaches_the_frozen_stats(self):
        entry = corpus_entry("phantom-L")
        text = _edit(format_manifest(entry), "synth_seed", "303")
        parsed = parse_manifest(text)
        assert parsed is not entry
        assert parsed.name == "phantom-L"
        assert parsed.spec.seed == 303
        assert parsed.expected == ExpectedStats(0.0, None, 0, 0, 0, None)

    def test_stale_version_detaches_the_frozen_stats(self):
        entry = corpus_entry("phantom-L")
        text = _edit(format_manifest(entry), "corpus_version", "ascankit-bench-0")
        parsed = parse_manifest(text)
        assert parsed is not entry
        assert parsed.expected.q_final == 0.0
        # Definition fields still parse faithfully.
        assert parsed.spec == entry.spec
        assert parsed.mask == entry.mask

    def test_hand_written_manifest_defines_a_scan(self):
        custom = CorpusEntry(
            name="bench-dev",
            spec=default_spec(seed=9, nt=256, pulse_time_s=1.25e-6),
            nx=3,
            ny=2,
            mask=frozenset({(0, 0), (2, 1)}),
            roi=RoiSpec(100, 200),
            lp_cutoff_hz=2.0e7,
            noise_window=32,
            q_grid=(1e-4, 1e-3, 1e-2),
            n_sample=4,
            expected=ExpectedStats(0.0, None, 0, 0, 0, None),
        )
        parsed = parse_manifest(format_manifest(custom))
        assert parsed.name == "bench-dev"
        assert parsed.spec == custom.spec
        assert (parsed.nx, parsed.ny) == (3, 2)
        assert parsed.mask == custom.mask
        assert (parsed.roi.t_lo, parsed.roi.t_hi) == (100, 200)
        assert parsed.lp_cutoff_hz == 2.0e7
        assert parsed.noise_window == 32
        assert parsed.q_grid == (1e-4, 1e-3, 1e-2)
        assert parsed.n_sample == 4
        assert parsed.expected.q_final == 0.0

    def test_reflections_survive_the_round_trip(self):
        entry = corpus_entry("skew-dense")
        assert entry.spec.reflections, "fixture must carry a reflection"
        parsed = parse_manifest(format_manifest(entry))
        assert parsed.spec.reflections == entry.spec.reflections

    def test_missing_field_is_reported_with_source(self):
        text = _drop(format_manifest(corpus_entry("phantom-L")), "mask")
        with pytest.raises(DataError, match=r"bench\.cfg: missing required field 'mask'"):
            parse_manifest(text, source="bench.cfg")

    def test_non_integer_field_is_rejected(self):
        text = _edit(format_manifest(corpus_entry("phantom-L")), "nx", "sixteen")
        with pytest.raises(DataError, match=r"field 'nx' is not an integer: 'sixteen'"):
            parse_manifest(text)

    def test_non_numeric_field_is_rejected(self):
        text = _edit(format_manifest(corpus_entry("phantom-L")), "lp_cutoff_hz", "fast")
        with pytest.raises(DataError, match=r"field 'lp_cutoff_hz' is not a number"):
            parse_manifest(text)

    def test_malformed_reflection_entries_are_rejected(self):
        base = format_manifest(corpus_entry("skew-dense"))
        with pytest.raises(DataError, match=r"reflection '2e-06' is not 'time,rel_amp'"):
            parse_manifest(_edit(base, "synth_reflections", "2e-06"))
        with pytest.raises(DataError, match=r"reflection '2e-06,big' has a non-numeric field"):
            parse_manifest(_edit(base, "synth_reflections", "2e-06,big"))

    def test_malformed_mask_tokens_are_rejected(self):
        base = format_manifest(corpus_entry("phantom-L"))
        with pytest.raises(DataError, match=r"mask coordinate '3' is not 'x,y'"):
            parse_manifest(_edit(base, "mask", "1,2 3"))
        with pytest.raises(DataError, match=r"mask coordinate '1,y' has a non-integer field"):
            parse_manifest(_edit(base, "mask", "1,y"))

    def test_malformed_roi_is_rejected(self):
        base = format_manifest(corpus_entry("phantom-L"))
        with pytest.raises(DataError, match=r"roi '117-510' is not 't_lo:t_hi'"):
            parse_manifest(_edit(base, "roi", "117-510"))
        with pytest.raises(DataError, match=r"roi 'a:510' has a non-integer bound"):
            parse_manifest(_edit(base, "roi", "a:510"))

    def test_roi_and_range_errors_name_the_manifest(self):
        base = format_manifest(corpus_entry("phantom-L"))
        with pytest.raises(DataError, match=r"^bench\.cfg: roi 'a:510' has a non-integer bound"):
            parse_manifest(_edit(base, "roi", "a:510"), source="bench.cfg")
        with pytest.raises(DataError, match=r"^bench\.cfg: n_sample must be a positive integer"):
            parse_manifest(_edit(base, "n_sample", "0"), source="bench.cfg")

    def test_non_numeric_grid_value_is_rejected(self):
        base = format_manifest(corpus_entry("phantom-L"))
        with pytest.raises(DataError, match=r"q_grid has a non-numeric value"):
            parse_manifest(_edit(base, "q_grid", "1e-9,banana"))


class TestMeasuredAgainstFrozen:
    def test_deterministic_fields_reproduce_exactly(self, scored_corpus):
        for name in EXPECTED_NAMES:
            run = scored_corpus[name]
            expected = run.entry.expected
            assert run.measured.q_final == expected.q_final
            assert run.measured.clean_peak == expected.clean_peak
            assert run.measured.n_pulse_traces == expected.n_pulse_traces
            assert run.measured.fwd_peak_late == expected.fwd_peak_late
            assert run.measured.smoothed_peak_aligned == expected.smoothed_peak_aligned

    def test_gain_statistics_are_within_the_declared_tolerance(self, scored_corpus):
        for name in EXPECTED_NAMES:
            run = scored_corpus[name]
            expected = run.entry.expected.mean_gain_db
            if expected is None:
                assert run.measured.mean_gain_db is None
            else:
                assert run.measured.mean_gain_db == pytest.approx(
                    expected, abs=GAIN_TOLERANCE_DB
                )

    def test_selection_report_feeds_the_final_q(self, scored_corpus):
        for name in EXPECTED_NAMES:
            run = scored_corpus[name]
            assert run.report.q_final == run.measured.q_final
            assert len(run.report.sampled_trace_ids) == run.entry.n_sample
            if run.entry.q_grid is not None:
                assert run.report.grid == run.entry.q_grid
            for best in run.report.best_q_per_trace:
                assert best in run.report.grid

    def test_measure_entry_generates_its_own_volumes_when_not_given(self, scored_corpus):
        entry = corpus_entry("noise-only")
        fresh = measure_entry(entry)
        assert fresh == scored_corpus["noise-only"].measured


#: Scores every corpus entry under the OpenBLAS named by argv[1] and prints the
#: kernel that library runs and each entry's statistics as JSON.
_KERNEL_CHILD = """
import ctypes, dataclasses, json, sys
import numpy
from ascankit.bench import bench_corpus, measure_entry
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
stats = {e.name: dataclasses.asdict(measure_entry(e)) for e in bench_corpus()}
print(json.dumps({"kernel": corename().decode(), "stats": stats}))
"""


class TestSecondBlasKernel:
    """The frozen statistics hold under OpenBLAS's AVX2 kernel (Haswell) as
    well as under the one it picks on the machine that froze them: the noise
    powers' and FIR's dot products change only in their last bits, which
    moves no q_final or peak count and only the last digits of the gains."""

    def test_corpus_scoring_reproduces_under_haswell(self):
        libs = glob.glob(os.path.join(
            os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"
        ))
        if not libs:
            pytest.skip("numpy bundles no libscipy_openblas64_*.so")
        if not hasattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_"):
            pytest.skip("the bundled OpenBLAS has no scipy_openblas_get_corename64_")
        try:
            with open("/proc/cpuinfo") as handle:
                flags = handle.read().split()
        except OSError:
            flags = []
        if "avx2" not in flags:
            pytest.skip("the CPU has no AVX2, or its flags cannot be read")
        src = os.path.dirname(os.path.dirname(ascankit.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Haswell")
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_CHILD, libs[0]],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["kernel"] == "Haswell"
        assert sorted(result["stats"]) == sorted(EXPECTED_NAMES)
        exact = ("q_final", "clean_peak", "n_pulse_traces", "fwd_peak_late",
                 "smoothed_peak_aligned")
        for entry in bench_corpus():
            measured = ExpectedStats(**result["stats"][entry.name])
            expected = entry.expected
            for field in exact:
                assert getattr(measured, field) == getattr(expected, field), (entry.name, field)
            if expected.mean_gain_db is None:
                assert measured.mean_gain_db is None
            else:
                assert measured.mean_gain_db == pytest.approx(
                    expected.mean_gain_db, abs=GAIN_TOLERANCE_DB
                ), entry.name


def _entry(nt=256, **spec) -> CorpusEntry:
    """An ad-hoc 3 x 4 entry with a pulse at sample ``nt / 2`` on half of its
    traces, by default under noise and impulses."""
    return CorpusEntry(
        name="ad-hoc", spec=default_spec(seed=9, nt=nt, pulse_time_s=nt * 1e-5 / 2048, **spec),
        nx=3, ny=4, mask=frozenset({(0, 1), (0, 3), (1, 1), (2, 0), (2, 2), (2, 3)}),
        roi=RoiSpec(nt // 2 - 40, nt // 2 + 40), lp_cutoff_hz=2e7, noise_window=32,
        q_grid=None, n_sample=4, expected=ZERO_STATS,
    )


def _report(q: float) -> QSelectionReport:
    """A selection report whose final q is ``q``."""
    return QSelectionReport((q,), ((0, 0),), (q,), q, (1.0,), (0.0,))


#: The pulse at sample 1,024 of 2,048 with no noise: every noise window is
#: exactly zero, so every trace has r = 0.
NOISELESS = dict(nt=2048, noise_sigma=0.0, impulse_rate=0.0)


@contextlib.contextmanager
def _scalar_calls():
    """The names of ``kf_filter`` and ``rts_smooth`` as often as they are
    called inside the block, by any route."""
    codes = {kalman.kf_filter.__code__, rts.rts_smooth.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


class TestMeasureEntry:
    """``measure_entry`` on small ad-hoc entries, against the per-trace
    ``kf_filter`` / ``rts_smooth`` loop it replaced."""

    @pytest.mark.parametrize(
        "spec, q, lanes_per_chunk",
        [
            ({}, None, None),  # its own q selection, one chunk
            ({}, 1e-4, 2),  # several chunks
            (NOISELESS, 1e-3, None),
            (NOISELESS, 1e-3, 1),
        ],
        ids=["selected-q", "chunks-of-2", "r=0", "r=0-chunks-of-1"],
    )
    def test_peak_fields_are_the_scalar_loops(self, spec, q, lanes_per_chunk):
        entry = _entry(**spec)
        volume, background, _ = entry.generate()
        cap = lanes_per_chunk * _lane_bytes(entry.spec.nt) if lanes_per_chunk else rts._LANE_BYTES
        with mock.patch.object(rts, "_LANE_BYTES", cap):
            assert rts._chunk_width(len(entry.mask), entry.spec.nt) == (
                lanes_per_chunk or len(entry.mask)
            )
            measured = measure_entry(entry, volume, background, None if q is None else _report(q))
        rs = [estimate_r(volume.trace(x, y), entry.window()) for x, y in entry.mask]
        assert (max(rs) == 0.0) == (spec is NOISELESS)
        got = (measured.clean_peak, measured.fwd_peak_late, measured.smoothed_peak_aligned)
        assert got == scalar_peak_alignment(entry, volume, measured.q_final)
        assert measured.n_pulse_traces == len(entry.mask)

    def test_runs_no_scalar_filter_or_smoother(self):
        entry = _entry()
        volume, background, _ = entry.generate()
        with _scalar_calls() as calls:
            measured = measure_entry(entry, volume, background)
        assert calls == []
        with _scalar_calls() as calls:  # the spy sees the loop measure_entry replaced
            scalar_peak_alignment(entry, volume, measured.q_final)
        assert sorted(set(calls)) == ["kf_filter", "rts_smooth"]

    @pytest.mark.parametrize("lanes_per_chunk", [None, 4])
    def test_each_masked_trace_and_its_background_are_filtered_once(
        self, monkeypatch, lanes_per_chunk
    ):
        # Once through the lane kernel and once through the low-pass; no
        # trace outside the mask goes through either.
        entry = _entry()
        volume, background, _ = entry.generate()
        kernel, fir = rts._smooth_lanes, baseline._lowpassed
        smoothed, lowpassed = [], []

        def spied_kernel(blocks, *args, **kwargs):
            smoothed.extend(row.tobytes() for block in blocks for row in block)
            return kernel(blocks, *args, **kwargs)

        def spied_fir(rows, *args):
            lowpassed.extend(row.tobytes() for row in rows)
            return fir(rows, *args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ascankit"):
                if getattr(module, "_smooth_lanes", None) is kernel:
                    monkeypatch.setattr(module, "_smooth_lanes", spied_kernel)
                if getattr(module, "_lowpassed", None) is fir:
                    monkeypatch.setattr(module, "_lowpassed", spied_fir)
        if lanes_per_chunk:
            monkeypatch.setattr(rts, "_LANE_BYTES", lanes_per_chunk * _lane_bytes(entry.spec.nt))
        measure_entry(entry, volume, background, _report(1e-4))
        masked = [x * entry.ny + y for x, y in entry.mask]
        expected = sorted(
            v.data.reshape(-1, entry.spec.nt)[i].tobytes() for v in (volume, background)
            for i in masked
        )
        assert sorted(smoothed) == sorted(lowpassed) == expected

    def test_a_passed_volume_is_the_one_measured(self):
        entry = _entry()
        volume, background, _ = entry.generate()
        other = dataclasses.replace(entry, spec=dataclasses.replace(entry.spec, seed=10))
        other_volume, other_background, _ = other.generate()
        mine = measure_entry(entry, volume, background)
        assert measure_entry(entry) == mine
        with_volume = measure_entry(entry, other_volume, background)
        with_background = measure_entry(entry, volume, other_background)
        assert measure_entry(entry, volume=other_volume) == with_volume != mine
        assert measure_entry(entry, background=other_background) == with_background != mine


class TestRegeneration:
    def test_generation_is_bit_stable(self):
        entry = corpus_entry("phantom-L")
        volume_a, background_a, mask_a = entry.generate()
        volume_b, background_b, mask_b = entry.generate()
        assert mask_a == mask_b == entry.mask
        assert np.array_equal(volume_a.data, volume_b.data)
        assert np.array_equal(background_a.data, background_b.data)

    def test_background_lacks_the_pulses(self, scored_corpus):
        run = scored_corpus["phantom-L"]
        x, y = sorted(run.entry.mask)[0]
        signal = np.abs(run.volume.trace(x, y).samples).max()
        quiet = np.abs(run.background.trace(x, y).samples).max()
        assert signal > 10 * quiet
