"""Synthetic A-scan generator with stored ground truth.

Every trace decomposes exactly as ``trace = clean + noise + artifacts``
(left-to-right float addition), so tests can score any processing stage
against the clean component.  All randomness comes from numpy's PCG64
generator seeded from ``SynthSpec.seed``; volumes derive one child seed per
trace from ``(arm, x, y)`` so parallel and serial generation agree
bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Set, Tuple

import numpy as np

from .model import DataError, Trace, Volume

__all__ = [
    "FRACTIONAL_BANDWIDTH",
    "SynthSpec",
    "SynthTrace",
    "synth_trace",
    "synth_volume",
    "clean_samples",
    "default_spec",
]

#: -6 dB fractional bandwidth of the Gaussian-modulated pulse.
FRACTIONAL_BANDWIDTH = 0.6

_SIGNAL_ARM = 0
_BACKGROUND_ARM = 1


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic A-scan.

    ``reflections`` holds ``(time_s, rel_amp)`` pairs; each adds a copy of
    the transmit pulse at the given absolute time with amplitude
    ``rel_amp * pulse_amp``, so a spec with ``pulse_amp = 0`` generates no
    deterministic signal at all.
    """

    nt: int
    dt: float
    pulse_center_hz: float
    pulse_time_s: float
    pulse_amp: float
    noise_sigma: float
    impulse_rate: float
    impulse_amp: float
    reflections: Tuple[Tuple[float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.nt, int) or isinstance(self.nt, bool) or self.nt < 1:
            raise DataError(f"nt must be a positive integer, got {self.nt!r}")
        for name in ("dt", "pulse_center_hz"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and positive, got {value!r}")
        span = self.nt * self.dt
        if not (isinstance(self.pulse_time_s, (int, float)) and 0.0 <= self.pulse_time_s < span):
            raise DataError(
                f"pulse_time_s {self.pulse_time_s!r} outside [0, {span!r})"
            )
        for name in ("pulse_amp", "noise_sigma", "impulse_rate", "impulse_amp"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and >= 0, got {value!r}")
        if self.impulse_rate > self.nt:  # the draws for more would outweigh the trace
            raise DataError(f"impulse_rate must be <= nt = {self.nt}, got {self.impulse_rate!r}")
        reflections = tuple((float(t), float(a)) for t, a in self.reflections)
        object.__setattr__(self, "reflections", reflections)
        for time_s, rel_amp in reflections:
            if not (math.isfinite(time_s) and 0.0 <= time_s < span):
                raise DataError(f"reflection time {time_s!r} outside [0, {span!r})")
            if not (math.isfinite(rel_amp) and rel_amp >= 0):
                raise DataError(f"reflection amplitude must be >= 0, got {rel_amp!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")


class SynthTrace(NamedTuple):
    trace: Trace
    clean: Trace
    noise: Trace
    artifacts: Trace


def clean_samples(spec: SynthSpec) -> np.ndarray:
    """Deterministic component of a trace: main pulse plus reflections.

    Each pulse is ``scipy.signal.gausspulse(t - time_s, fc=pulse_center_hz,
    bw=FRACTIONAL_BANDWIDTH)`` bit for bit, with its arithmetic: a cosine
    under a Gaussian envelope that falls to -6 dB at ``fc * bw / 2`` from
    the centre frequency.
    """
    if spec.pulse_amp == 0.0:
        return np.zeros(spec.nt)
    fc = spec.pulse_center_hz
    # A Python float's ** raises OverflowError for too high a frequency.
    a = -(np.pi * fc * FRACTIONAL_BANDWIDTH) ** 2 / (4.0 * np.log(pow(10.0, -6 / 20.0)))
    t = np.arange(spec.nt) * spec.dt

    def pulse(time_s: float) -> np.ndarray:
        u = t - time_s
        return np.exp(-a * u * u) * np.cos(2 * np.pi * fc * u)

    shape = pulse(spec.pulse_time_s)
    for time_s, rel_amp in spec.reflections:
        shape = shape + rel_amp * pulse(time_s)
    return spec.pulse_amp * shape


def _random_parts(spec: SynthSpec, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    # Draw order is part of the determinism contract: noise first, then the
    # impulse count, positions, and signs.  All draws happen even when their
    # amplitude is zero so that changing one amplitude never shifts the
    # stream feeding the others.
    noise = spec.noise_sigma * rng.standard_normal(spec.nt)
    count = int(rng.poisson(spec.impulse_rate))
    positions = rng.integers(0, spec.nt, size=count)
    signs = rng.integers(0, 2, size=count) * 2 - 1
    artifacts = np.zeros(spec.nt)
    np.add.at(artifacts, positions, signs * spec.impulse_amp)
    return noise, artifacts


def _assemble(spec: SynthSpec, clean: np.ndarray, rng: np.random.Generator) -> SynthTrace:
    noise, artifacts = _random_parts(spec, rng)
    trace = clean + noise + artifacts
    return SynthTrace(
        trace=Trace(trace, spec.dt),
        clean=Trace(clean, spec.dt),
        noise=Trace(noise, spec.dt),
        artifacts=Trace(artifacts, spec.dt),
    )


def synth_trace(spec: SynthSpec) -> SynthTrace:
    """Generate one trace and its exact decomposition."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return _assemble(spec, clean_samples(spec), rng)


def _trace_rng(seed: int, arm: int, x: int, y: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(arm, x, y)))


def synth_volume(
    base: SynthSpec,
    nx: int,
    ny: int,
    mask: Set[Tuple[int, int]],
) -> Tuple[Volume, Volume, Set[Tuple[int, int]]]:
    """Generate a scan volume and a matching signal-free background volume.

    Traces at coordinates in ``mask`` carry the pulse (and reflections);
    every other trace, and every background trace, is noise plus impulsive
    artifacts only.  Each trace draws from an independent child generator
    keyed by ``(arm, x, y)``, with arm 0 for the scan and arm 1 for the
    background, so the two volumes never share noise.
    """
    mask = frozenset((int(x), int(y)) for x, y in mask)
    volumes = [_synth_arm(base, nx, ny, mask, arm) for arm in (_SIGNAL_ARM, _BACKGROUND_ARM)]
    return volumes[0], volumes[1], mask


def _synth_arm(base: SynthSpec, nx: int, ny: int, mask: Set[Tuple[int, int]], arm: int) -> Volume:
    """The scan (``arm`` 0) or the background (1) of ``synth_volume``."""
    for name, value in (("nx", nx), ("ny", ny)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DataError(f"{name} must be a positive integer, got {value!r}")
    if nx * ny * base.nt > np.iinfo(np.intp).max // 8:
        raise DataError(f"a {nx}x{ny}x{base.nt} volume exceeds the address space")
    for x, y in sorted(mask):
        if not (0 <= x < nx and 0 <= y < ny):
            raise DataError(f"mask coordinate ({x}, {y}) outside {nx}x{ny} grid")

    clean_off = np.zeros(base.nt)
    clean_on = clean_samples(base) if arm == _SIGNAL_ARM else clean_off
    grid = np.empty((nx, ny, base.nt))
    # Each trace is _assemble's sum, written straight into the grid; the
    # Volume checks that every sample is finite.
    for x in range(nx):
        for y in range(ny):
            clean = clean_on if (x, y) in mask else clean_off
            noise, artifacts = _random_parts(base, _trace_rng(base.seed, arm, x, y))
            grid[x, y] = clean + noise + artifacts
    return Volume.from_grid(grid, base.dt)


def default_spec(seed: int = 0, **overrides) -> SynthSpec:
    """2048 samples spanning ~20 µs with a 2.5 MHz pulse arriving at 15 µs."""
    spec = SynthSpec(
        nt=2048,
        dt=2e-5 / 2048,
        pulse_center_hz=2.5e6,
        pulse_time_s=1.5e-5,
        pulse_amp=1.0,
        noise_sigma=0.1,
        impulse_rate=0.5,
        impulse_amp=0.5,
        reflections=(),
        seed=seed,
    )
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec
