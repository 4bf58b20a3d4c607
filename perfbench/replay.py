"""Replays of ``ascankit denoise`` and ``ascankit compare`` as direct calls
into the library's public functions, with a span around each call.

A replay writes the same artifacts as its command, so byte-equal outputs
show that the spans cover the command's work.  While a replay runs, the
calls the library makes to ``Volume.trace``, ``validate_volume``,
``envelope`` and ``lowpass`` are recorded too, by rebinding those names in
the modules that look them up.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

import ascankit.io as aio
from ascankit import adapt, baseline, metrics, model
from ascankit.model import QSelectionReport, Volume

from tracing import Tracer, patched
from workloads import Inputs

__all__ = ["instrumented", "replay_denoise", "replay_compare"]


def _samples(trace, *_rest) -> int:
    return len(trace)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Record the library's inner calls to a few shared helpers as spans."""
    validate = model.validate_volume
    traced_validate = tracer.wrap(validate, "model.validate_volume")
    targets = [
        (model.Volume, "trace", tracer.wrap(model.Volume.trace, "model.trace")),
        (metrics, "envelope", tracer.wrap(metrics.envelope, "metrics.envelope", _samples)),
        (baseline, "lowpass", tracer.wrap(baseline.lowpass, "baseline.lowpass", _samples)),
    ]
    targets += [
        (module, "validate_volume", traced_validate)
        for module in (aio, adapt, baseline, metrics)
        if getattr(module, "validate_volume", None) is validate
    ]
    with patched(targets):
        yield


def _prepare(tracer: Tracer, inputs: Inputs):
    span = tracer.span
    with span("io.read_config"):
        config = aio.read_config(inputs.config)
        background_path = config.background_path
        if background_path is not None and not os.path.isabs(background_path):
            background_path = os.path.join(os.path.dirname(inputs.config), background_path)
            config = dataclasses.replace(config, background_path=background_path)
    with span("io.read_volume"):
        volume = aio.read_volume(inputs.volume)
    background: Optional[Volume] = None
    if config.background_path is not None:
        with span("io.read_volume"):
            background = aio.read_volume(config.background_path)
    window = config.noise_window
    if window == "auto":
        window = adapt.default_noise_window(volume.nt)
    # The span exists on every workload; with a fixed q it covers only the
    # check that no sweep is needed.
    report: Optional[QSelectionReport] = None
    with span("adapt.select_q"):
        if config.q == "auto":
            report = adapt.select_q(
                volume, grid=config.q_grid, n_sample=config.n_sample, seed=config.seed,
                noise_window=window, roi=config.roi,
            )
            q = report.q_final
        else:
            q = config.q
    return config, volume, background, window, q, report


def replay_denoise(tracer: Tracer, inputs: Inputs, output: str) -> Optional[QSelectionReport]:
    """``ascankit denoise --input V --config C --output OUTPUT``."""
    with tracer.span("cli.denoise"):
        _, volume, background, window, q, report = _prepare(tracer, inputs)
        with tracer.span("baseline.pipeline_denoise"):
            result = baseline.pipeline_denoise(volume, background, q, noise_window=window)
        with tracer.span("io.write_volume"):
            aio.write_volume(result, output)
    return report


def _scores(tracer: Tracer, pipeline: Volume, reference: Volume, roi) -> Tuple[list, list]:
    rows, gains = [], []
    for x in range(pipeline.nx):
        for y in range(pipeline.ny):
            trace = pipeline.trace(x, y)
            with tracer.span("metrics.psnr"):
                scored = metrics.psnr(trace, roi)
            trace = reference.trace(x, y)
            with tracer.span("metrics.psnr"):
                ref = metrics.psnr(trace, roi)
            gains.append(scored - ref)
            rows.append((x, y, scored, ref, scored - ref))
    return rows, gains


def replay_compare(tracer: Tracer, inputs: Inputs, output: str) -> Optional[QSelectionReport]:
    """``ascankit compare --input V --config C --output OUTPUT``."""
    span = tracer.span
    with span("cli.compare"):
        config, volume, background, window, q, report = _prepare(tracer, inputs)
        with span("baseline.pipeline_denoise"):
            pipeline = baseline.pipeline_denoise(volume, background, q, noise_window=window)
        with span("baseline.baseline_denoise"):
            reference = baseline.baseline_denoise(volume, background, config.lp_cutoff_hz)
        roi = config.roi
        rows, gains = _scores(tracer, pipeline, reference, roi)
        os.makedirs(output, exist_ok=True)
        with span("io.write_csv"):
            aio.write_csv(
                os.path.join(output, "report.csv"),
                ("x", "y", "psnr_pipeline", "psnr_baseline", "gain_db"),
                rows,
            )
        gain_arr = np.asarray(gains)
        summary = {
            "n_traces": str(len(gains)),
            "q": repr(q),
            "noise_window": str(window),
            "lp_cutoff_hz": repr(config.lp_cutoff_hz),
            "roi": f"{roi.t_lo}:{roi.t_hi}",
            "mean_psnr_gain_db": repr(float(gain_arr.mean())),
            "min_psnr_gain_db": repr(float(gain_arr.min())),
            "max_psnr_gain_db": repr(float(gain_arr.max())),
            "n_gain_positive": str(int((gain_arr > 0).sum())),
        }
        with span("io.write_text"):
            aio.atomic_write_text(os.path.join(output, "summary.txt"), aio.format_kv(summary))
        for tag, vol in (("input", volume), ("pipeline", pipeline), ("baseline", reference)):
            with span("metrics.reconstruct"):
                image = metrics.reconstruct(vol)
            with span("io.write_image"):
                aio.write_image(image, os.path.join(output, f"{tag}.pgm"))
    return report
