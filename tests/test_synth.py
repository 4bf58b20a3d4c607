"""Synthetic trace/volume generation and its ground-truth bookkeeping."""

import dataclasses

import numpy as np
import pytest

from ascankit.adapt import estimate_r
from ascankit.bench import bench_corpus
from ascankit.metrics import envelope, reconstruct
from ascankit.model import DataError, Trace
from ascankit.synth import (
    FRACTIONAL_BANDWIDTH,
    SynthSpec,
    clean_samples,
    default_spec,
    synth_trace,
    synth_volume,
)
from oracles import scipy_clean_samples
from test_lines import _bits


class TestSynthSpecValidation:
    def test_default_spec_shape(self):
        spec = default_spec(seed=9)
        assert spec.nt == 2048
        assert spec.nt * spec.dt == pytest.approx(2e-5)
        assert spec.pulse_center_hz == 2.5e6
        assert spec.pulse_time_s == 1.5e-5
        assert spec.seed == 9

    @pytest.mark.parametrize("nt", [0, -3, 2.5, True])
    def test_rejects_bad_nt(self, nt):
        with pytest.raises(DataError, match="nt"):
            default_spec(nt=nt)

    @pytest.mark.parametrize("dt", [0.0, -1e-9, float("inf")])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(DataError, match="dt"):
            default_spec(dt=dt)

    @pytest.mark.parametrize("when", [-1e-9, 2e-5, 3e-5])
    def test_rejects_pulse_time_outside_span(self, when):
        with pytest.raises(DataError, match="pulse_time_s"):
            default_spec(pulse_time_s=when)

    @pytest.mark.parametrize(
        "field", ["pulse_amp", "noise_sigma", "impulse_rate", "impulse_amp"]
    )
    def test_rejects_negative_amplitudes(self, field):
        with pytest.raises(DataError, match=field):
            default_spec(**{field: -0.1})

    def test_rejects_more_impulses_than_samples(self):
        # An impulse costs its draws; past one a sample they outweigh the trace.
        assert default_spec(nt=64, pulse_time_s=0.0, impulse_rate=64.0).impulse_rate == 64.0
        with pytest.raises(DataError, match=r"impulse_rate must be <= nt = 64, got 64\.5"):
            default_spec(nt=64, pulse_time_s=0.0, impulse_rate=64.5)

    def test_rejects_reflection_outside_span(self):
        with pytest.raises(DataError, match="reflection time"):
            default_spec(reflections=((2.5e-5, 0.5),))

    def test_rejects_negative_reflection_amplitude(self):
        with pytest.raises(DataError, match="reflection amplitude"):
            default_spec(reflections=((1e-5, -0.5),))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DataError, match="seed"):
            default_spec(seed=seed)


class TestSynthTrace:
    def test_decomposition_is_exact(self):
        part = synth_trace(default_spec(seed=42))
        rebuilt = (part.clean.samples + part.noise.samples) + part.artifacts.samples
        assert np.array_equal(part.trace.samples, rebuilt)

    def test_noiseless_trace_equals_clean(self):
        spec = default_spec(seed=1, noise_sigma=0.0, impulse_rate=0.0)
        part = synth_trace(spec)
        assert np.array_equal(part.trace.samples, part.clean.samples)
        assert np.all(part.noise.samples == 0.0)
        assert np.all(part.artifacts.samples == 0.0)

    def test_zero_amplitude_trace_equals_noise(self):
        spec = default_spec(seed=2, pulse_amp=0.0, impulse_rate=0.0)
        part = synth_trace(spec)
        assert np.array_equal(part.trace.samples, part.noise.samples)
        assert np.all(part.clean.samples == 0.0)

    def test_same_seed_reproduces_bit_identically(self):
        first = synth_trace(default_spec(seed=42))
        second = synth_trace(default_spec(seed=42))
        assert np.array_equal(first.trace.samples, second.trace.samples)
        assert np.array_equal(first.noise.samples, second.noise.samples)
        assert np.array_equal(first.artifacts.samples, second.artifacts.samples)

    def test_amplitude_changes_never_shift_the_draws(self):
        # Zeroing any amplitude must leave the other random components
        # untouched; only the rate changes how many values are consumed.
        loud = synth_trace(default_spec(seed=8))
        quiet = synth_trace(default_spec(seed=8, pulse_amp=0.0))
        silent = synth_trace(default_spec(seed=8, impulse_amp=0.0))
        assert np.array_equal(loud.noise.samples, quiet.noise.samples)
        assert np.array_equal(loud.artifacts.samples, quiet.artifacts.samples)
        assert np.array_equal(loud.noise.samples, silent.noise.samples)
        assert np.all(silent.artifacts.samples == 0.0)

    def test_reflection_adds_scaled_pulse_copy(self):
        base = default_spec(seed=4, noise_sigma=0.0, impulse_rate=0.0)
        with_echo = dataclasses.replace(base, reflections=((1e-5, 0.3),))
        main = clean_samples(base)
        echo_alone = clean_samples(dataclasses.replace(base, pulse_time_s=1e-5))
        got = clean_samples(with_echo)
        assert np.allclose(got, main + 0.3 * echo_alone, rtol=1e-12, atol=1e-300)

    def test_clean_prefix_is_silent_before_the_pulse(self):
        spec = default_spec(seed=0)
        clean = clean_samples(spec)
        width = 1.0 / (FRACTIONAL_BANDWIDTH * spec.pulse_center_hz)
        cut = int((spec.pulse_time_s - 3 * width) / spec.dt)
        assert cut > 0
        assert np.max(np.abs(clean[:cut])) <= 1e-12 * spec.pulse_amp

    def test_leading_window_noise_estimate_targets_sigma_squared(self):
        spec = default_spec(seed=0)
        part = synth_trace(spec)
        width = 1.0 / (FRACTIONAL_BANDWIDTH * spec.pulse_center_hz)
        cut = int((spec.pulse_time_s - 3 * width) / spec.dt)
        r = estimate_r(part.trace, cut)
        sigma_sq = spec.noise_sigma**2
        assert abs(r - sigma_sq) <= 0.2 * sigma_sq


class TestCleanSamplesIsGausspulse:
    """``clean_samples`` writes scipy's ``gausspulse`` out in numpy; its
    pulses must equal scipy's bit for bit."""

    def test_corpus_entries(self):
        for entry in bench_corpus():
            assert np.array_equal(_bits(clean_samples(entry.spec)),
                                  _bits(scipy_clean_samples(entry.spec))), entry.name

    def test_seeded_specs(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            nt = int(rng.integers(1, 400))
            dt = 10.0 ** rng.uniform(-11, -4)
            span = nt * dt
            spec = default_spec(
                nt=nt, dt=dt, pulse_center_hz=10.0 ** rng.uniform(3, 10),
                pulse_time_s=rng.uniform(0.0, span), pulse_amp=rng.uniform(0.0, 3.0),
                reflections=tuple((rng.uniform(0.0, span), rng.uniform(0.0, 2.0))
                                  for _ in range(rng.integers(0, 3))),
            )
            assert np.array_equal(_bits(clean_samples(spec)),
                                  _bits(scipy_clean_samples(spec))), spec

    def test_too_high_a_frequency_overflows_as_in_scipy(self):
        # synth reports the OverflowError as one line naming its manifest.
        spec = default_spec(pulse_center_hz=1e160)
        with pytest.raises(OverflowError):
            scipy_clean_samples(spec)
        with pytest.raises(OverflowError):
            clean_samples(spec)


class TestSynthVolume:
    def test_masked_traces_carry_the_pulse(self):
        spec = default_spec(seed=6, nt=256, pulse_time_s=1.25e-6)
        volume, background, mask = synth_volume(spec, 3, 2, {(0, 1), (2, 0)})
        clean = clean_samples(spec)
        for x in range(3):
            for y in range(2):
                part = volume.trace(x, y).samples
                residual = part - clean if (x, y) in mask else part
                # The residual is noise plus sparse impulses: bounded well
                # below the unit pulse.
                assert np.max(np.abs(residual)) < 0.75

    def test_background_shares_no_noise_with_signal(self):
        spec = default_spec(seed=6, nt=256, pulse_time_s=1.25e-6, pulse_amp=0.0)
        volume, background, _ = synth_volume(spec, 2, 2, set())
        for x in range(2):
            for y in range(2):
                assert not np.array_equal(
                    volume.trace(x, y).samples, background.trace(x, y).samples
                )

    def test_traces_are_independent_per_coordinate(self):
        spec = default_spec(seed=7, nt=256, pulse_time_s=1.25e-6)
        volume, _, _ = synth_volume(spec, 2, 2, set())
        assert not np.array_equal(
            volume.trace(0, 0).samples, volume.trace(1, 1).samples
        )

    def test_volume_regeneration_is_bit_identical(self):
        spec = default_spec(seed=12, nt=256, pulse_time_s=1.25e-6)
        mask = {(0, 0), (1, 1)}
        first, first_bg, _ = synth_volume(spec, 2, 2, mask)
        second, second_bg, _ = synth_volume(spec, 2, 2, mask)
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first_bg.data, second_bg.data)

    def test_empty_mask_image_has_no_bright_outlier(self):
        spec = default_spec(seed=5, nt=256, pulse_time_s=1.25e-6)
        volume, _, _ = synth_volume(spec, 16, 16, set())
        pixels = reconstruct(volume).pixels
        assert pixels.max() <= 3.0 * np.percentile(pixels, 99.9)

    def test_full_mask_without_noise_is_uniform_at_the_envelope_peak(self):
        spec = default_spec(
            seed=5,
            nt=256,
            pulse_time_s=1.25e-6,
            noise_sigma=0.0,
            impulse_rate=0.0,
            impulse_amp=0.0,
        )
        mask = {(x, y) for x in range(3) for y in range(3)}
        volume, _, _ = synth_volume(spec, 3, 3, mask)
        pixels = reconstruct(volume).pixels
        peak = envelope(Trace(clean_samples(spec), spec.dt)).samples.max()
        assert np.all(pixels == peak)

    def test_l_shaped_mask_passes_through(self):
        spec = default_spec(seed=3, nt=256, pulse_time_s=1.25e-6)
        mask = {(x, 0) for x in range(4)} | {(0, y) for y in range(3)}
        _, _, truth = synth_volume(spec, 4, 3, mask)
        assert set(truth) == mask

    def test_rejects_mask_outside_grid(self):
        spec = default_spec(seed=3, nt=256, pulse_time_s=1.25e-6)
        with pytest.raises(DataError, match=r"mask coordinate \(2, 0\)"):
            synth_volume(spec, 2, 2, {(2, 0)})

    @pytest.mark.parametrize("nx,ny", [(0, 2), (2, 0), (-1, 2)])
    def test_rejects_degenerate_grid(self, nx, ny):
        spec = default_spec(seed=3, nt=256, pulse_time_s=1.25e-6)
        with pytest.raises(DataError):
            synth_volume(spec, nx, ny, set())
