"""Benchmark corpus: frozen definitions, manifests, and measured statistics.

The frozen numbers in the corpus are regression anchors: the deterministic
counts must reproduce bit-for-bit on every run, while the gain statistics
carry an explicit tolerance.  The manifest tests pin the on-disk definition
format the CLI exchanges with the library.
"""

import numpy as np
import pytest

from ascankit.adapt import default_noise_window
from ascankit.bench import (
    CORPUS_VERSION,
    GAIN_TOLERANCE_DB,
    CorpusEntry,
    ExpectedStats,
    bench_corpus,
    corpus_entry,
    format_manifest,
    measure_entry,
    parse_manifest,
)
from ascankit.model import DataError, RoiSpec
from ascankit.synth import SynthSpec, default_spec

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
