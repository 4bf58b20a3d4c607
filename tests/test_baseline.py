"""Background subtraction, the zero-phase low-pass, and the volume pipelines."""

import dataclasses

import numpy as np
import pytest
from scipy.signal import gausspulse

from ascankit.adapt import default_noise_window, estimate_r
from ascankit.baseline import (
    LOWPASS_TAPS,
    baseline_denoise,
    differential_subtract,
    lowpass,
    pipeline_denoise,
)
from ascankit.bench import corpus_entry
from ascankit.metrics import psnr
from ascankit.model import DataError, Trace, Volume
from ascankit.rts import denoise_trace
from ascankit.synth import clean_samples, default_spec, synth_trace, synth_volume


def _small_volume(seed=0, nx=2, ny=2, with_pulse=True):
    spec = default_spec(seed=seed, nt=256, pulse_time_s=1.25e-6, noise_sigma=0.05)
    mask = {(x, y) for x in range(nx) for y in range(ny)} if with_pulse else set()
    return synth_volume(spec, nx, ny, mask)


class TestDifferentialSubtract:
    def test_self_subtraction_is_zero(self):
        part = synth_trace(default_spec(seed=1))
        out = differential_subtract(part.trace, part.trace)
        assert np.all(out.samples == 0.0)

    def test_zero_background_is_identity(self):
        part = synth_trace(default_spec(seed=2))
        zeros = Trace(np.zeros(len(part.trace)), part.trace.dt)
        out = differential_subtract(part.trace, zeros)
        assert np.array_equal(out.samples, part.trace.samples)

    def test_subtract_then_add_reconstructs_exactly(self):
        # On a dyadic lattice every intermediate value is exactly
        # representable, so the round trip must be bit-identical.
        rng = np.random.default_rng(12)
        s = rng.integers(-(2**20), 2**20, size=300) / 1024.0
        b = rng.integers(-(2**20), 2**20, size=300) / 1024.0
        diff = differential_subtract(Trace(s, 1e-6), Trace(b, 1e-6))
        assert np.array_equal(diff.samples + b, s)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            differential_subtract(Trace([1.0, 2.0], 1e-6), Trace([1.0], 1e-6))

    def test_rejects_dt_mismatch(self):
        with pytest.raises(DataError, match="dt"):
            differential_subtract(Trace([1.0], 1e-6), Trace([1.0], 2e-6))

    def test_shared_artifact_cancels_by_twenty_db(self):
        # The signal carries the pulse plus an in-band artifact; the
        # background carries the same artifact over its own noise.  After
        # identical denoising, subtraction must cut the artifact's energy
        # outside the pulse support by at least 20 dB.
        spec = default_spec(seed=11, noise_sigma=0.005, impulse_rate=0.0)
        art_spec = dataclasses.replace(spec, pulse_time_s=5e-6, pulse_amp=0.4)
        artifact = clean_samples(art_spec)
        signal = Trace(synth_trace(spec).trace.samples + artifact, spec.dt)
        background = synth_trace(dataclasses.replace(art_spec, seed=12)).trace

        r = estimate_r(signal, default_noise_window(spec.nt))
        q = 0.01 * r
        den_sig = denoise_trace(signal, q, r)
        den_bg = denoise_trace(background, q, r)
        sub = differential_subtract(den_sig, den_bg)

        t = np.arange(spec.nt) * spec.dt
        outside = np.abs(t - spec.pulse_time_s) > 3e-6
        e_before = float(np.sum(den_sig.samples[outside] ** 2))
        e_after = float(np.sum(sub.samples[outside] ** 2))
        assert 10.0 * np.log10(e_before / e_after) >= 20.0


class TestLowpass:
    def test_dc_trace_unchanged(self):
        trace = Trace(np.full(512, 3.7), 1e-8)
        out = lowpass(trace, 5e6)
        assert np.allclose(out.samples, 3.7, rtol=1e-9)

    def test_tone_at_four_times_cutoff_is_suppressed(self):
        t = np.arange(4096) * 1e-8
        tone = np.sin(2 * np.pi * 1e7 * t)
        out = lowpass(Trace(tone, 1e-8), 2.5e6)
        rms_in = np.sqrt(np.mean(tone**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert rms_out <= 0.01 * rms_in

    def test_white_noise_variance_is_reduced(self):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(2048)
        out = lowpass(Trace(noise, 1e-8), 5e6)
        assert np.var(out.samples) < np.var(noise)

    def test_zero_phase_on_band_limited_pulse(self):
        t = np.arange(2048) * 1e-8
        pulse = gausspulse(t - 1e-5, fc=2e6, bw=0.6)
        out = lowpass(Trace(pulse, 1e-8), 5e6)
        corr = np.correlate(out.samples, pulse, mode="full")
        assert int(np.argmax(corr)) == len(pulse) - 1

    def test_linearity(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(800)
        b = rng.standard_normal(800)
        both = lowpass(Trace(a + b, 1e-8), 5e6).samples
        separate = lowpass(Trace(a, 1e-8), 5e6).samples + lowpass(
            Trace(b, 1e-8), 5e6
        ).samples
        assert np.allclose(both, separate, rtol=1e-9, atol=1e-12)

    def test_preserves_length_and_dt(self):
        out = lowpass(Trace(np.arange(77.0), 1e-8), 5e6)
        assert len(out) == 77
        assert out.dt == 1e-8

    def test_short_traces_are_accepted(self):
        out = lowpass(Trace([1.0, 2.0, 3.0, 4.0], 1e-8), 5e6)
        assert len(out) == 4

    @pytest.mark.parametrize("cutoff", [0.0, -1e6, 5e7, 6e7, float("nan")])
    def test_rejects_cutoff_outside_open_nyquist_interval(self, cutoff):
        # dt = 1e-8 puts Nyquist at 50 MHz.
        with pytest.raises(DataError, match="cutoff"):
            lowpass(Trace(np.zeros(100), 1e-8), cutoff)

    def test_taps_constant_is_odd(self):
        # An even-length FIR would put the group delay between samples.
        assert LOWPASS_TAPS % 2 == 1


class TestPipelineDenoise:
    def test_without_background_equals_per_trace_denoise(self):
        volume, _, _ = _small_volume(seed=6)
        q = 1e-4
        out = pipeline_denoise(volume, None, q, noise_window=16)
        for x in range(volume.nx):
            for y in range(volume.ny):
                trace = volume.trace(x, y)
                want = denoise_trace(trace, q, estimate_r(trace, 16))
                assert np.array_equal(out.trace(x, y).samples, want.samples)

    def test_identical_background_zeroes_the_volume(self):
        volume, _, _ = _small_volume(seed=7)
        out = pipeline_denoise(volume, volume, 1e-4, noise_window=16)
        assert np.all(out.data == 0.0)

    def test_phantom_pulse_traces_all_gain_psnr(self):
        entry = corpus_entry("phantom-L")
        volume, _, mask = entry.generate()
        out = pipeline_denoise(
            volume, None, entry.expected.q_final, noise_window=entry.noise_window
        )
        for x, y in sorted(mask):
            before = psnr(volume.trace(x, y), entry.roi)
            after = psnr(out.trace(x, y), entry.roi)
            assert after > before

    def test_output_dimensions_match_input(self):
        volume, background, _ = _small_volume(seed=8)
        out = pipeline_denoise(volume, background, 1e-4, noise_window=16)
        assert (out.nx, out.ny, out.nt, out.dt) == (
            volume.nx,
            volume.ny,
            volume.nt,
            volume.dt,
        )

    def test_rejects_background_shape_mismatch(self):
        volume, _, _ = _small_volume(seed=9)
        small = Volume(nx=1, ny=1, nt=volume.nt, dt=volume.dt, data=np.zeros(volume.nt))
        with pytest.raises(DataError, match="dimensions"):
            pipeline_denoise(volume, small, 1e-4, noise_window=16)

    def test_rejects_background_dt_mismatch(self):
        volume, background, _ = _small_volume(seed=10)
        other = Volume(
            nx=background.nx,
            ny=background.ny,
            nt=background.nt,
            dt=background.dt * 2,
            data=background.data,
        )
        with pytest.raises(DataError, match="dt"):
            pipeline_denoise(volume, other, 1e-4, noise_window=16)

    def test_bad_background_fails_before_any_trace_is_filtered(self, monkeypatch):
        volume, _, _ = _small_volume(seed=9)
        small = Volume(nx=1, ny=1, nt=volume.nt, dt=volume.dt, data=np.zeros(volume.nt))
        calls = []
        monkeypatch.setattr(
            "ascankit.baseline._smooth_lanes", lambda *args: calls.append(args) or iter(())
        )
        with pytest.raises(DataError, match="dimensions"):
            pipeline_denoise(volume, small, 1e-4, noise_window=16)
        assert calls == []

    def test_overflowing_difference_is_reported_with_trace_location(self):
        # Finite smoothed traces of opposite sign whose difference overflows.
        data, back = np.full((2, 2, 64), 1e-3), np.full((2, 2, 64), 1e-3)
        data[1, 0, 16:], back[1, 0, 16:] = 1e308, -1e308
        volume, background = Volume.from_grid(data, 1e-8), Volume.from_grid(back, 1e-8)
        with pytest.raises(DataError, match=r"^trace \(x=1, y=0\): trace sample 16 is not finite$"):
            pipeline_denoise(volume, background, 1e-3, noise_window=16)

    def test_bad_q_is_reported_with_trace_location(self):
        volume, _, _ = _small_volume(seed=12)
        with pytest.raises(DataError, match=r"trace \(x=0, y=0\)"):
            pipeline_denoise(volume, None, -1.0, noise_window=16)

    @pytest.mark.parametrize("window", [0, 1000])
    def test_rejects_noise_window_outside_trace(self, window):
        volume, _, _ = _small_volume(seed=13)
        with pytest.raises(DataError, match="noise window"):
            pipeline_denoise(volume, None, 1e-4, noise_window=window)


class TestBaselineDenoise:
    def test_matches_manual_lowpass_and_subtract(self):
        volume, background, _ = _small_volume(seed=14)
        cutoff = 5e6
        out = baseline_denoise(volume, background, cutoff)
        for x in range(volume.nx):
            for y in range(volume.ny):
                want = differential_subtract(
                    lowpass(volume.trace(x, y), cutoff),
                    lowpass(background.trace(x, y), cutoff),
                )
                assert np.array_equal(out.trace(x, y).samples, want.samples)

    def test_without_background_is_per_trace_lowpass(self):
        volume, _, _ = _small_volume(seed=15)
        out = baseline_denoise(volume, None, 5e6)
        for x in range(volume.nx):
            for y in range(volume.ny):
                want = lowpass(volume.trace(x, y), 5e6)
                assert np.array_equal(out.trace(x, y).samples, want.samples)

    def test_rejects_background_shape_mismatch(self):
        volume, _, _ = _small_volume(seed=16)
        small = Volume(nx=1, ny=1, nt=volume.nt, dt=volume.dt, data=np.zeros(volume.nt))
        with pytest.raises(DataError, match="dimensions"):
            baseline_denoise(volume, small, 5e6)
