"""Envelope extraction, image projection, and PSNR scoring."""

import math

import numpy as np
import pytest
from scipy.signal import gausspulse

from ascankit.metrics import _psnrs, envelope, psnr, psnr_gain, reconstruct
from ascankit.model import (
    DataError,
    EnvelopeImage,
    InfinitePsnrError,
    NumericsError,
    RoiSpec,
    Trace,
    Volume,
)
from ascankit.synth import default_spec, synth_trace, synth_volume

ROI = RoiSpec(1408, 1664)


class TestEnvelope:
    def test_zero_trace_gives_zero_envelope(self):
        out = envelope(Trace(np.zeros(64), 1e-8))
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("n,cycles", [(1024, 21.3), (2048, 37.6), (511, 25.0)])
    def test_pure_tone_amplitude_recovered_in_interior(self, n, cycles):
        amp = 2.5
        t = np.arange(n)
        s = amp * np.cos(2 * np.pi * cycles * t / n + 0.3)
        env = envelope(Trace(s, 1e-8)).samples
        lo, hi = int(0.1 * n), int(0.9 * n)
        assert np.max(np.abs(env[lo:hi] - amp)) <= 0.02 * amp

    def test_envelope_dominates_absolute_signal(self):
        rng = np.random.default_rng(31)
        s = rng.standard_normal(999) * 4.0
        env = envelope(Trace(s, 1e-8)).samples
        assert np.all(env >= np.abs(s) - 1e-9)

    def test_scale_equivariant(self):
        rng = np.random.default_rng(32)
        s = rng.standard_normal(256)
        base = envelope(Trace(s, 1e-8)).samples
        for alpha in (3.0, -2.5, 0.001):
            scaled = envelope(Trace(alpha * s, 1e-8)).samples
            assert np.allclose(scaled, abs(alpha) * base, rtol=1e-9, atol=1e-15)

    def test_nonnegative_and_preserves_shape(self):
        out = envelope(Trace(np.sin(np.arange(50.0)), 2e-9))
        assert len(out) == 50
        assert out.dt == 2e-9
        assert np.all(out.samples >= 0.0)

    def test_rejects_single_sample(self):
        with pytest.raises(DataError, match="2 samples"):
            envelope(Trace([1.0], 1e-8))


class TestReconstruct:
    def test_zero_volume_gives_zero_image(self):
        volume = Volume(nx=2, ny=3, nt=16, dt=1e-8, data=np.zeros(2 * 3 * 16))
        image = reconstruct(volume)
        assert isinstance(image, EnvelopeImage)
        assert image.pixels.shape == (2, 3)
        assert np.all(image.pixels == 0.0)

    def test_single_pulse_pixel_is_strictly_brightest(self):
        nt = 256
        t = np.arange(nt) * 1e-8
        data = np.zeros(3 * 3 * nt)
        off = (1 * 3 + 2) * nt
        data[off : off + nt] = gausspulse(t - 1.2e-6, fc=2.5e6, bw=0.6)
        image = reconstruct(Volume(nx=3, ny=3, nt=nt, dt=1e-8, data=data))
        pixels = image.pixels.copy()
        bright = pixels[1, 2]
        pixels[1, 2] = -np.inf
        assert bright > pixels.max()

    def test_two_stick_phantom_lights_exactly_the_mask(self):
        spec = default_spec(seed=3)
        mask = {(1, y) for y in range(1, 4)} | {(4, y) for y in range(1, 4)}
        volume, _, _ = synth_volume(spec, 6, 5, mask)
        pixels = reconstruct(volume).pixels
        on = np.array([pixels[x, y] for x, y in sorted(mask)])
        off = np.array(
            [
                pixels[x, y]
                for x in range(6)
                for y in range(5)
                if (x, y) not in mask
            ]
        )
        assert on.min() > off.max()

    def test_propagates_envelope_error_for_degenerate_time_axis(self):
        volume = Volume(nx=1, ny=1, nt=1, dt=1e-8, data=np.ones(1))
        with pytest.raises(DataError, match="2 samples"):
            reconstruct(volume)


class TestPsnr:
    def test_matches_direct_evaluation_of_the_ratio(self):
        part = synth_trace(default_spec(seed=19))
        env = envelope(part.trace).samples
        inside = env[ROI.t_lo : ROI.t_hi]
        outside = np.concatenate((env[: ROI.t_lo], env[ROI.t_hi :]))
        want = 10.0 * math.log10(
            inside.max() ** 2 / float(outside @ outside / outside.size)
        )
        assert psnr(part.trace, ROI) == pytest.approx(want, rel=1e-12)

    def test_constant_trace_scores_zero_db(self):
        # A constant's envelope is flat, so peak^2 equals the outside
        # mean-square no matter the level.
        for c in (1.0, 10.0, 0.03):
            trace = Trace(np.full(2048, c), 1e-8)
            assert psnr(trace, ROI) == pytest.approx(0.0, abs=1e-9)

    def test_ten_to_one_envelope_ratio_is_twenty_db(self):
        # Build a narrowband signal whose envelope is known by construction:
        # a smooth bump of height 10 inside the roi over a floor of 1.  The
        # real part of (envelope x carrier) has exactly that envelope as long
        # as the product's spectrum stays on positive frequencies.
        n = 4096
        k = np.arange(n)
        bump = np.zeros(n)
        m = 300
        bump[1850 : 1850 + m] = 0.5 * (1 - np.cos(2 * np.pi * np.arange(m) / m))
        target = 1.0 + 9.0 * bump
        s = np.real(target * np.exp(2j * np.pi * 512 * k / n))
        assert psnr(Trace(s, 1e-8), RoiSpec(1800, 2200)) == pytest.approx(
            20.0, abs=1e-3
        )

    def test_scale_invariant(self):
        part = synth_trace(default_spec(seed=20))
        base = psnr(part.trace, ROI)
        for alpha in (7.0, -0.125, 1e-3):
            scaled = Trace(alpha * part.trace.samples, part.trace.dt)
            assert psnr(scaled, ROI) == pytest.approx(base, abs=1e-9)

    def test_within_one_db_of_component_oracle(self):
        # The stored clean and noise parts rebuild the score independently:
        # peak from the clean envelope, floor from the noise envelope.
        part = synth_trace(default_spec(seed=11, noise_sigma=0.1, impulse_rate=0.0))
        env_clean = envelope(part.clean).samples
        env_noise = envelope(part.noise).samples
        outside = np.ones(2048, bool)
        outside[ROI.t_lo : ROI.t_hi] = False
        oracle = 10.0 * math.log10(
            env_clean[ROI.t_lo : ROI.t_hi].max() ** 2
            / np.mean(env_noise[outside] ** 2)
        )
        assert abs(psnr(part.trace, ROI) - oracle) <= 1.0

    def test_rejects_roi_covering_whole_trace(self):
        with pytest.raises(DataError, match="whole trace"):
            psnr(Trace(np.ones(32), 1e-8), RoiSpec(0, 32))

    def test_rejects_roi_past_trace_end(self):
        with pytest.raises(DataError):
            psnr(Trace(np.ones(32), 1e-8), RoiSpec(0, 33))

    def test_silent_noise_region_is_a_distinct_condition(self):
        with pytest.raises(InfinitePsnrError, match="noise power"):
            psnr(Trace(np.zeros(64), 1e-8), RoiSpec(16, 48))

    def test_overflowing_noise_power_is_a_numerics_error(self):
        # Finite envelope values whose energy outside the roi overflows.
        samples = np.full(256, 1e-3)
        samples[100:200] = 1e200
        with pytest.raises(NumericsError, match="noise power outside the roi overflows") as exc:
            psnr(Trace(samples, 1e-8), RoiSpec(30, 90))
        assert type(exc.value) is NumericsError

    @pytest.mark.parametrize(
        "inside,outside", [(1e160, 1e-3), (1e-200, 1e150)], ids=["overflow", "underflow"]
    )
    def test_peak_ratio_beyond_the_float_range_is_a_numerics_error(self, inside, outside):
        env = np.full(256, outside)
        env[90:110] = inside
        with pytest.raises(NumericsError, match="has no finite dB value") as exc:
            next(_psnrs(env[np.newaxis], RoiSpec(90, 110)))
        assert type(exc.value) is NumericsError


class TestPsnrGain:
    def test_identical_traces_gain_zero(self):
        part = synth_trace(default_spec(seed=22))
        assert psnr_gain(part.trace, part.trace, ROI) == 0.0

    def test_halving_the_noise_region_gains_six_db(self):
        t = np.arange(4096) * 1e-8
        rng = np.random.default_rng(14)
        before = gausspulse(t - 2e-5, fc=2.5e6, bw=0.6) + rng.standard_normal(4096) * 0.2
        roi = RoiSpec(1800, 2200)
        after = before.copy()
        outside = np.ones(4096, bool)
        outside[roi.t_lo : roi.t_hi] = False
        after[outside] *= 0.5
        gain = psnr_gain(Trace(before, 1e-8), Trace(after, 1e-8), roi)
        assert gain == pytest.approx(20.0 * math.log10(2.0), abs=0.15)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            psnr_gain(
                Trace(np.ones(32), 1e-8),
                Trace(np.ones(31), 1e-8),
                RoiSpec(4, 8),
            )
