"""A-scan denoising toolkit: adaptive scalar Kalman filtering with backward
smoothing, background subtraction, envelope reconstruction, and metrics."""

import importlib

from .adapt import default_noise_window, default_q_grid, estimate_r, select_q
from .baseline import (
    LOWPASS_TAPS,
    baseline_denoise,
    differential_subtract,
    lowpass,
    pipeline_denoise,
)
from .kalman import kf_filter, kf_step, random_walk_params
from .metrics import envelope, psnr, psnr_gain, reconstruct
from .model import (
    DataError,
    DegenerateCovarianceError,
    DegenerateModelError,
    EnvelopeImage,
    FilterParams,
    FilterTrajectory,
    InfinitePsnrError,
    NumericsError,
    QSelectionReport,
    RoiSpec,
    Trace,
    Volume,
    validate_volume,
)
from .rts import denoise_trace, rts_smooth

__version__ = "0.1.0"

#: Names served from ``bench`` and ``synth`` on first use (PEP 562), so that
#: importing the package, and the CLI that every command starts from, does
#: not load those two modules.
_LAZY = dict.fromkeys(
    ("CORPUS_VERSION", "GAIN_TOLERANCE_DB", "CorpusEntry", "ExpectedStats", "bench_corpus",
     "corpus_entry", "format_manifest", "measure_entry", "parse_manifest"),
    "bench",
) | dict.fromkeys(
    ("FRACTIONAL_BANDWIDTH", "SynthSpec", "SynthTrace", "clean_samples", "default_spec",
     "synth_trace", "synth_volume"),
    "synth",
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CORPUS_VERSION",
    "CorpusEntry",
    "DataError",
    "DegenerateCovarianceError",
    "DegenerateModelError",
    "EnvelopeImage",
    "ExpectedStats",
    "GAIN_TOLERANCE_DB",
    "FilterParams",
    "FilterTrajectory",
    "FRACTIONAL_BANDWIDTH",
    "InfinitePsnrError",
    "LOWPASS_TAPS",
    "NumericsError",
    "QSelectionReport",
    "RoiSpec",
    "SynthSpec",
    "SynthTrace",
    "Trace",
    "Volume",
    "baseline_denoise",
    "bench_corpus",
    "clean_samples",
    "corpus_entry",
    "default_noise_window",
    "default_q_grid",
    "default_spec",
    "denoise_trace",
    "differential_subtract",
    "envelope",
    "estimate_r",
    "format_manifest",
    "kf_filter",
    "kf_step",
    "lowpass",
    "measure_entry",
    "parse_manifest",
    "pipeline_denoise",
    "psnr",
    "psnr_gain",
    "random_walk_params",
    "reconstruct",
    "rts_smooth",
    "select_q",
    "synth_trace",
    "synth_volume",
    "validate_volume",
    "__version__",
]
