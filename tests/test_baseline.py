"""Background subtraction, the zero-phase low-pass, and the volume pipelines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import firwin, gausspulse

from ascankit.adapt import default_noise_window, estimate_r
from ascankit.baseline import (
    LOWPASS_TAPS,
    _FIR_BYTES,
    _lowpassed,
    _taps,
    baseline_denoise,
    differential_subtract,
    lowpass,
    pipeline_denoise,
)
from ascankit.bench import bench_corpus, corpus_entry
from ascankit.metrics import psnr
from ascankit.model import DataError, Trace, Volume
from ascankit.rts import denoise_trace
from ascankit.synth import clean_samples, default_spec, synth_trace, synth_volume
from oracles import scalar_lowpass
from test_lines import _EXTENSION_OVERFLOWS, _bits


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

    @pytest.mark.parametrize("cutoff", [0.0, -1e6, 5e7, 6e7, float("nan"), 1e-320])
    def test_rejects_cutoff_outside_open_nyquist_interval(self, cutoff):
        # dt = 1e-8 puts Nyquist at 50 MHz.
        with pytest.raises(DataError, match="cutoff"):
            lowpass(Trace(np.zeros(100), 1e-8), cutoff)

    def test_taps_constant_is_odd(self):
        # An even-length FIR would put the group delay between samples.
        assert LOWPASS_TAPS % 2 == 1


#: The (cutoff, dt) of perfbench's sweep-long, volume-wide and imaging-short.
_PERFBENCH_CUTOFFS = ((5e6, 9.765625e-10), (5e6, 3.90625e-9), (1e7, 7.8125e-9))


def _smallest_cutoff(nyquist: float) -> float:
    """The smallest cutoff whose fraction of ``nyquist`` is not 0.0, found by
    bisecting the bit patterns of the non-negative floats."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))  # fractions 0.0 and not

    def cutoff(bits):
        return float(np.int64(bits).view(np.float64))

    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cutoff(mid) / nyquist == 0.0 else (lo, mid)
    return cutoff(hi)


def _taps_cases():
    """The corpus's and perfbench's (cutoff, dt), then for each of their dts
    and of a seeded sweep of others the cutoffs one ulp inside (0, Nyquist),
    the smallest fraction of Nyquist that is not 0.0 and the largest that is,
    and a seeded sweep of fractions."""
    rng = np.random.default_rng(17)
    named = [(entry.lp_cutoff_hz, entry.spec.dt) for entry in bench_corpus()]
    named += _PERFBENCH_CUTOFFS
    dts = [dt for _, dt in named] + list(10.0 ** rng.uniform(-12, -3, 60))
    dts += [1e-300, 1e-100, 1.0, 1e100, 1e300, 1.7e308]
    cases = list(named)
    for dt in dts:
        nyquist = 0.5 * (1.0 / dt)
        smallest = _smallest_cutoff(nyquist)
        cases += [(float(np.nextafter(nyquist, 0.0)), dt), (5e-324, dt),
                  (smallest, dt), (float(np.nextafter(smallest, 0.0)), dt)]
        cases += [(f * nyquist, dt) for f in rng.uniform(0.0, 1.0, 8)]
        cases += [(f * nyquist, dt) for f in 10.0 ** rng.uniform(-300, 0, 4)]
    return cases


class TestTapsAreFirwin:
    """The taps are computed in numpy with scipy's arithmetic for one
    low-pass band; they must equal ``firwin`` bit for bit, and be refused
    exactly where ``firwin`` refuses them."""

    def test_equal_firwin(self):
        cases = _taps_cases()
        assert len(cases) >= 1000
        built = 0
        for cutoff, dt in cases:
            try:
                want = firwin(LOWPASS_TAPS, cutoff, window="hamming", fs=1.0 / dt)
            except ValueError:
                with pytest.raises(DataError, match="cutoff"):
                    _taps(cutoff, dt)
                continue
            taps = _taps(cutoff, dt)
            assert np.array_equal(_bits(taps), _bits(want)), (cutoff, dt)
            built += 1
        assert built >= 1000

    @pytest.mark.parametrize("dt", [3e-309, 5.5e-309, 1e-310, 5e-324])
    @pytest.mark.parametrize("cutoff", [1e7, 1e300])
    def test_refuse_a_sampling_rate_beyond_the_float_range(self, dt, cutoff):
        # 0.5 / dt is finite for the first two, but 1 / dt is not.
        with pytest.raises(DataError, match=f"dt={dt!r}"):
            _taps(cutoff, dt)


def _check_is_filtfilt(lines: np.ndarray, cutoff: float, dt: float = 1e-8) -> None:
    """``_lowpassed`` of each scan line of ``lines``, and ``lowpass`` of each
    trace, equal scipy's ``filtfilt`` bit for bit."""
    taps = _taps(cutoff, dt)
    for line in lines:
        filtered = np.empty_like(line)
        _lowpassed(line, taps, filtered)
        for samples, row in zip(line, filtered):
            want = _bits(scalar_lowpass(samples, cutoff, dt))
            assert np.array_equal(_bits(row), want)
            assert np.array_equal(_bits(lowpass(Trace(samples, dt), cutoff).samples), want)


class TestLowpassIsFiltfilt:
    """The low-pass computes only the samples that ``filtfilt`` keeps; for
    traces longer than the taps it never calls ``filtfilt``, so it is checked
    against scipy itself.  dt = 1e-8 puts Nyquist at 50 MHz."""

    @pytest.mark.parametrize("nt", [2, 4, 64, 99, 100, 101, 102, 303, 304, 512, 1023])
    @pytest.mark.parametrize("cutoff", [1e3, 5e6, 2.5e7, 4.99e7])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_equals_filtfilt(self, nt, cutoff, scale):
        rng = np.random.default_rng(nt)
        _check_is_filtfilt(rng.standard_normal((2, 3, nt)) * scale, cutoff)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        nt=st.integers(min_value=2, max_value=700),
        fraction=st.floats(min_value=1e-6, max_value=0.999),
        exponent=st.integers(min_value=-150, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_filtfilt_at_any_length(self, nt, fraction, exponent, seed):
        rng = np.random.default_rng(seed)
        _check_is_filtfilt(rng.standard_normal((1, 2, nt)) * 10.0**exponent, fraction * 5e7)

    @pytest.mark.parametrize("nt", [101, 102, 255, 1024])
    @pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_blocks_of_traces_equal_filtfilt(self, nt, offset):
        # baseline_denoise filters a block of traces per call; a trace's bits
        # must not depend on the block it falls in, or on the background's.
        # The volumes have one trace, or one more or less than whole blocks.
        blocks, extra = offset
        n_traces = blocks * (_FIR_BYTES // (8 * nt)) + extra
        rng = np.random.default_rng(nt * 100 + n_traces)
        grid = rng.standard_normal((n_traces, 1, nt))
        back = rng.standard_normal((n_traces, 1, nt))
        volume, background = Volume.from_grid(grid, 1e-8), Volume.from_grid(back, 1e-8)
        want = scalar_lowpass(grid, 5e6, 1e-8)  # filtfilt filters each trace alike
        assert np.array_equal(_bits(baseline_denoise(volume, None, 5e6).grid()), _bits(want))
        want -= scalar_lowpass(back, 5e6, 1e-8)
        assert np.array_equal(_bits(baseline_denoise(volume, background, 5e6).grid()), _bits(want))

    def test_overflowing_extension_is_not_finite_where_filtfilt_is_not(self):
        filtered = np.empty((1, len(_EXTENSION_OVERFLOWS)))
        _lowpassed(_EXTENSION_OVERFLOWS[np.newaxis], _taps(5e6, 1e-8), filtered)
        want = scalar_lowpass(_EXTENSION_OVERFLOWS, 5e6, 1e-8)
        assert not np.isfinite(want[0])
        assert np.array_equal(_bits(filtered[0]), _bits(want))  # inf and nan where it has them


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
