"""Command-line driver for the denoising pipeline.

Seven subcommands cover the full workflow: ``synth`` writes a benchmark or
ad-hoc synthetic scan, ``qselect`` sweeps the process-noise grid, ``denoise``
runs the adaptive pipeline, ``baseline`` runs the zero-phase low-pass
reference, ``reconstruct`` projects a volume to a 16-bit image, ``metrics``
tabulates per-trace PSNR, and ``compare`` scores both methods on identical
data in one invocation.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical or
degenerate-model error; every failure prints a one-line diagnostic naming
the offending file or trace.  All outputs are written atomically and no
subcommand mutates its inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import __version__
from .adapt import default_noise_window, select_q
from .baseline import baseline_denoise, pipeline_denoise
from .bench import ZERO_STATS, CorpusEntry, corpus_entry, format_manifest, parse_manifest
from .io import (
    PipelineConfig,
    atomic_write_text,
    config_from_strings,
    config_to_strings,
    format_kv,
    read_config,
    read_volume,
    write_csv,
    write_image,
    write_volume,
)
from .metrics import _psnrs, reconstruct
from .model import DataError, NumericsError, QSelectionReport, RoiSpec, Volume
from .synth import clean_samples, default_spec

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad invocation: unknown flags, missing arguments, malformed values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key-value config file")
    parser.add_argument("--q", help="process noise, a positive number or 'auto'")
    parser.add_argument(
        "--q-grid", dest="q_grid", metavar="Q1,Q2,...",
        help="comma-separated candidate grid for q='auto'",
    )
    parser.add_argument("--n-sample", dest="n_sample", help="traces sampled by q selection")
    parser.add_argument("--seed", help="sampling seed for q selection")
    parser.add_argument(
        "--noise-window", dest="noise_window",
        help="leading samples used for the per-trace noise estimate, or 'auto'",
    )
    parser.add_argument("--roi", metavar="T_LO:T_HI", help="scoring window, half-open")
    parser.add_argument("--lp-cutoff-hz", dest="lp_cutoff_hz", help="reference low-pass cutoff")
    parser.add_argument("--background", metavar="FILE", help="background volume to subtract")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """File config first, then command-line overrides on top."""
    config = PipelineConfig()
    if args.config is not None:
        config = read_config(args.config)
        if config.background_path is not None and not os.path.isabs(config.background_path):
            resolved = os.path.join(os.path.dirname(args.config), config.background_path)
            config = dataclasses.replace(config, background_path=resolved)
    overrides: Dict[str, str] = {}
    for key in ("q", "q_grid", "n_sample", "seed", "noise_window", "roi", "lp_cutoff_hz"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.background is not None:
        overrides["background_path"] = args.background
    if not overrides:
        return config
    try:
        return config_from_strings(overrides, source="command line", base=config)
    except DataError as exc:
        raise UsageError(str(exc)) from exc


def _window(config: PipelineConfig, volume: Volume) -> int:
    if config.noise_window == "auto":
        return default_noise_window(volume.nt)
    return config.noise_window


def _roi(config: PipelineConfig, what: str, volume: Volume, source: str) -> RoiSpec:
    """The configured roi, checked against ``volume``'s traces before any warning."""
    roi, nt = config.roi, volume.nt
    if roi is None:
        raise UsageError(f"{what} needs an roi; pass --roi T_LO:T_HI or set it in the config")
    try:
        roi.checked_for(nt)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc
    # Envelope edge transients make scores near the trace boundaries
    # untrustworthy; flag windows that reach into the outer 10%.
    if roi.t_lo < 0.1 * nt or roi.t_hi > 0.9 * nt:
        print(
            f"warning: roi [{roi.t_lo}:{roi.t_hi}) reaches into the outer 10% "
            f"of the time axis (nt={nt}); envelope edge transients may skew scores",
            file=sys.stderr,
        )
    return roi


def _read_background(config: PipelineConfig) -> Optional[Volume]:
    if config.background_path is None:
        return None
    return read_volume(config.background_path)


def _select(config: PipelineConfig, volume: Volume, roi: RoiSpec) -> QSelectionReport:
    return select_q(
        volume,
        grid=config.q_grid,
        n_sample=config.n_sample,
        seed=config.seed,
        noise_window=_window(config, volume),
        roi=roi,
    )


def _resolve_q(
    config: PipelineConfig, volume: Volume, source: str, roi: Optional[RoiSpec] = None
) -> float:
    """The configured q, or the selected one for q='auto'; ``roi``, when
    given, is the one ``_roi`` has already checked and warned about."""
    if config.q != "auto":
        return config.q
    if roi is None:
        roi = _roi(config, "q='auto'", volume, source)
    report = _select(config, volume, roi)
    print(f"q_final: {report.q_final!r}")
    return report.q_final


# ---------------------------------------------------------------------------
# synth


def _default_entry() -> CorpusEntry:
    """Ad-hoc 4x4 scan around the stock synthetic spec, for quick trials."""
    spec = default_spec()
    return CorpusEntry(
        name="default",
        spec=spec,
        nx=4,
        ny=4,
        mask=frozenset((x, y) for x in range(4) for y in range(4)),
        roi=RoiSpec(1408, 1664),
        lp_cutoff_hz=5e6,
        noise_window=None,
        q_grid=None,
        n_sample=16,
        expected=ZERO_STATS,
    )


def _resolve_synth_source(source: str) -> CorpusEntry:
    if source == "default":
        return _default_entry()
    try:
        return corpus_entry(source)
    except DataError:
        pass
    if not os.path.exists(source):
        raise FileNotFoundError(
            f"synth source {source!r} is neither a corpus entry nor a manifest file"
        )
    with open(source, "r", encoding="utf-8") as handle:
        return parse_manifest(handle.read(), source=source)


def _clean_volume(entry: CorpusEntry) -> Volume:
    clean = clean_samples(entry.spec)
    grid = np.zeros((entry.nx, entry.ny, entry.spec.nt))
    for x, y in entry.mask:
        grid[x, y] = clean
    return Volume.from_grid(grid, entry.spec.dt)


def _cmd_synth(args: argparse.Namespace) -> int:
    entry = _resolve_synth_source(args.source)
    if args.seed is not None:
        entry = dataclasses.replace(
            entry, spec=dataclasses.replace(entry.spec, seed=args.seed)
        )
    if not _SAFE_NAME.match(entry.name):
        raise DataError(f"entry name {entry.name!r} is not usable as a file name")
    os.makedirs(args.output, exist_ok=True)

    volume, background, _ = entry.generate()
    name = entry.name
    paths = {
        "scan": os.path.join(args.output, f"{name}.pavol"),
        "background": os.path.join(args.output, f"{name}-background.pavol"),
        "clean": os.path.join(args.output, f"{name}-clean.pavol"),
        "manifest": os.path.join(args.output, f"{name}.manifest"),
        "config": os.path.join(args.output, f"{name}.config"),
    }
    note = f"synthetic scan {name!r}, generator seed {entry.spec.seed}"
    write_volume(volume, paths["scan"], dtype=args.dtype, provenance=note)
    write_volume(
        background, paths["background"], dtype=args.dtype,
        provenance=note + ", signal-free background arm",
    )
    write_volume(
        _clean_volume(entry), paths["clean"], dtype=args.dtype,
        provenance=note + ", noiseless ground truth",
    )
    atomic_write_text(paths["manifest"], format_manifest(entry))
    config = dataclasses.replace(entry.config(), background_path=f"{name}-background.pavol")
    atomic_write_text(paths["config"], format_kv(config_to_strings(config)))
    for label in ("scan", "background", "clean", "manifest", "config"):
        print(f"wrote {paths[label]}")
    return 0


# ---------------------------------------------------------------------------
# qselect / denoise / baseline


def _cmd_qselect(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    report = _select(config, volume, _roi(config, "qselect", volume, args.input))
    rows: List[Tuple[object, ...]] = [
        (x, y, r, best_q, best_psnr, report.q_final)
        for (x, y), r, best_q, best_psnr in zip(
            report.sampled_trace_ids,
            report.r_per_trace,
            report.best_q_per_trace,
            report.best_psnr_per_trace,
        )
    ]
    write_csv(args.output, ("x", "y", "r", "best_q", "best_psnr", "q_final"), rows)
    print(f"q_final: {report.q_final!r}")
    print(f"wrote {args.output}")
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    q = _resolve_q(config, volume, args.input)
    result = pipeline_denoise(volume, background, q, noise_window=_window(config, volume))
    write_volume(result, args.output, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    result = baseline_denoise(volume, background, config.lp_cutoff_hz)
    write_volume(result, args.output, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct / metrics / compare


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    volume = read_volume(args.input)
    write_image(reconstruct(volume), args.output)
    print(f"wrote {args.output}")
    return 0


def _scores(volume: Volume, roi: RoiSpec, source: str) -> Iterator[Tuple[int, int, float]]:
    """``(x, y, psnr)`` of each trace of ``volume``, in trace order, one scan
    line's envelopes at a time; an error names the trace it arose on."""
    for x, line in enumerate(volume.grid()):
        scores = _psnrs(line, roi)
        for y in range(volume.ny):
            try:
                score = next(scores)
            except NumericsError as exc:
                raise type(exc)(f"{source}: trace (x={x}, y={y}): {exc}") from exc
            yield x, y, score


def _cmd_metrics(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    roi = _roi(config, "metrics", volume, args.input)
    write_csv(args.output, ("x", "y", "psnr"), list(_scores(volume, roi, args.input)))
    print(f"wrote {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    roi = _roi(config, "compare", volume, args.input)
    q = _resolve_q(config, volume, args.input, roi)
    window = _window(config, volume)

    pipeline = pipeline_denoise(volume, background, q, noise_window=window)
    reference = baseline_denoise(volume, background, config.lp_cutoff_hz)

    # At each trace the pipeline is scored first, so its error comes first.
    rows = [
        (x, y, scored, ref, scored - ref)
        for (x, y, scored), (_, _, ref) in zip(
            _scores(pipeline, roi, "pipeline output"), _scores(reference, roi, "baseline output")
        )
    ]

    os.makedirs(args.output, exist_ok=True)
    report_path = os.path.join(args.output, "report.csv")
    summary_path = os.path.join(args.output, "summary.txt")
    write_csv(
        report_path,
        ("x", "y", "psnr_pipeline", "psnr_baseline", "gain_db"),
        rows,
    )
    gain_arr = np.array([row[-1] for row in rows])
    summary = {
        "n_traces": str(len(rows)),
        "q": repr(q),
        "noise_window": str(window),
        "lp_cutoff_hz": repr(config.lp_cutoff_hz),
        "roi": f"{roi.t_lo}:{roi.t_hi}",
        "mean_psnr_gain_db": repr(float(gain_arr.mean())),
        "min_psnr_gain_db": repr(float(gain_arr.min())),
        "max_psnr_gain_db": repr(float(gain_arr.max())),
        "n_gain_positive": str(int((gain_arr > 0).sum())),
    }
    atomic_write_text(summary_path, format_kv(summary))
    for tag, vol in (("input", volume), ("pipeline", pipeline), ("baseline", reference)):
        write_image(reconstruct(vol), os.path.join(args.output, f"{tag}.pgm"))
    print(f"mean_psnr_gain_db: {float(gain_arr.mean())!r}")
    print(f"wrote {report_path}")
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="ascankit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ascankit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("synth", help="write a synthetic scan with ground truth")
    p.add_argument("source", help="corpus entry name, 'default', or a manifest file")
    p.add_argument("--output", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, help="override the generator/sampling seed")
    p.add_argument("--dtype", choices=("f64le", "f32le"), default="f64le")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("qselect", help="sweep the process-noise grid on sampled traces")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="CSV")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_qselect)

    p = sub.add_parser("denoise", help="adaptive per-trace denoising")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="VOLUME")
    p.add_argument("--dtype", choices=("f64le", "f32le"), default="f64le")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("baseline", help="zero-phase low-pass reference filtering")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="VOLUME")
    p.add_argument("--dtype", choices=("f64le", "f32le"), default="f64le")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("reconstruct", help="project a volume to a 16-bit envelope image")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="PGM")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("metrics", help="per-trace PSNR table")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="CSV")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", help="score the pipeline against the reference")
    p.add_argument("--input", required=True, metavar="VOLUME")
    p.add_argument("--output", required=True, metavar="DIR")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
